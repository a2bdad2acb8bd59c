"""Run configuration: one flat namespace of dotted keys with strict validation.

Config files are JSON objects whose keys come from the table below; unknown
keys are rejected. Command-line ``--set key=value`` overrides are parsed as
JSON when possible and fall back to raw strings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

from .clustering import LINKAGES
from .fusion import SCALES, SCOPES
from .objective import WEIGHT_SCOPES
from .windows import DAY, PRESETS


class ConfigError(ValueError):
    pass


# key -> (default, help)
DEFAULTS: dict[str, tuple[Any, str]] = {
    "seed": (0, "global seed: splits, parameter init, any sampling"),
    "split.train": (0.8, "training fraction"),
    "split.val": (0.1, "validation fraction"),
    "split.test": (0.1, "test fraction"),
    "cluster.num_clusters": (10, "number of pseudo-events formed by clustering"),
    "cluster.linkage": ("average", "agglomerative linkage: average|complete|single"),
    "cluster.key": (None, "manifest field to group by instead of clustering"),
    "window.preset": ("fakeddit", "span/stride preset: fakeddit|ind|covid"),
    "window.span_secs": (None, "window span in seconds (overrides preset)"),
    "window.stride_secs": (None, "window stride in seconds (overrides preset)"),
    "model.d": (32, "model width shared by all components"),
    "model.heads": (4, "attention heads (must divide model.d)"),
    "attention.scope": ("window", "attention sequence: window|post"),
    "attention.scale": ("head", "dot-product divisor: head=sqrt(d/H), model=sqrt(d)"),
    "init.seed": (None, "parameter init seed (defaults to `seed`)"),
    "trend.alpha": (1.0 / (2 * DAY), "recency decay rate, 1/seconds"),
    "trend.beta": (0.9, "momentum smoothing in [0, 1]"),
    "loss.lambda_tc": (0.1, "temporal-consistency multiplier"),
    "loss.lambda_reg": (1e-4, "l2 regularization multiplier"),
    "loss.epsilon": (1.0, "class-count smoothing in adaptive weights"),
    "loss.tc_clamp": (False, "clamp negative cosine in the consistency term"),
    "weights.adaptive": (True, "use adaptive class weights (off: w0=w1=1)"),
    "weights.scope": ("event", "count classes per event or globally: event|global"),
    "mining.rho": (1.0, "hard-example fraction in (0,1]; 1.0 disables mining"),
    "mining.warmup_epochs": (2, "epochs trained unmined before mining starts"),
    "train.optimizer": ("adam", "adam|sgd"),
    "train.learning_rate": (0.02, "step size"),
    "train.adam_beta1": (0.9, "Adam first-moment decay"),
    "train.adam_beta2": (0.999, "Adam second-moment decay"),
    "train.adam_eps": (1e-8, "Adam denominator guard"),
    "train.epochs": (30, "maximum training epochs"),
    "train.grad_clip_norm": (5.0, "global gradient-norm clip; null disables"),
    "train.early_stop_patience": (5, "epochs without val improvement before stop"),
    "train.early_stop_metric": ("f1", "validation metric: f1|auc|accuracy"),
    "eval.threshold": (0.5, "decision threshold for headline metrics"),
}

# declared types for keys whose default is None
_NULLABLE_TYPES: dict[str, type] = {
    "cluster.key": str,
    "window.span_secs": int,
    "window.stride_secs": int,
    "init.seed": int,
    "train.grad_clip_norm": float,
}

_CHOICES: dict[str, tuple] = {
    "cluster.linkage": LINKAGES,
    "window.preset": tuple(PRESETS),
    "attention.scope": SCOPES,
    "attention.scale": SCALES,
    "weights.scope": WEIGHT_SCOPES,
    "train.optimizer": ("adam", "sgd"),
    "train.early_stop_metric": ("f1", "auc", "accuracy"),
}


_POSITIVE = ("> 0", lambda x: x > 0)
_AT_LEAST_ONE = (">= 1", lambda x: x >= 1)
_NON_NEGATIVE = (">= 0", lambda x: x >= 0)

# numeric keys whose values are bounded: key -> (description, test)
_RANGES: dict[str, tuple[str, Callable[[float], bool]]] = {
    "seed": _NON_NEGATIVE,
    "init.seed": _NON_NEGATIVE,
    "split.train": _POSITIVE,
    "split.val": _POSITIVE,
    "split.test": _POSITIVE,
    "cluster.num_clusters": _AT_LEAST_ONE,
    "window.span_secs": _AT_LEAST_ONE,
    "window.stride_secs": _AT_LEAST_ONE,
    "model.d": _AT_LEAST_ONE,
    "model.heads": _AT_LEAST_ONE,
    "trend.alpha": _NON_NEGATIVE,
    "trend.beta": ("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "loss.lambda_tc": _NON_NEGATIVE,
    "loss.lambda_reg": _NON_NEGATIVE,
    "loss.epsilon": _POSITIVE,
    "mining.rho": ("in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "mining.warmup_epochs": _NON_NEGATIVE,
    "train.learning_rate": _POSITIVE,
    "train.adam_beta1": ("in [0, 1)", lambda x: 0.0 <= x < 1.0),
    "train.adam_beta2": ("in [0, 1)", lambda x: 0.0 <= x < 1.0),
    "train.adam_eps": _POSITIVE,
    "train.epochs": _AT_LEAST_ONE,
    "train.grad_clip_norm": _POSITIVE,
    "train.early_stop_patience": _NON_NEGATIVE,
    "eval.threshold": ("in (0, 1)", lambda x: 0.0 < x < 1.0),
}


def _coerce(key: str, value: Any) -> Any:
    default = DEFAULTS[key][0]
    if value is None:
        if key in _NULLABLE_TYPES:
            return None
        raise ConfigError(f"{key}: null is not allowed")
    target = type(default) if default is not None else _NULLABLE_TYPES[key]
    if target is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if target is int or target is float:
        number = (int, float) if target is float else int
        if isinstance(value, bool) or not isinstance(value, number):
            kind = "a number" if target is float else "an integer"
            raise ConfigError(f"{key}: expected {kind}, got {value!r}")
        # False for NaN, the infinities and ints beyond the float range.
        if target is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{key}: must be a finite float, got {value!r}")
        if key in _RANGES and not _RANGES[key][1](value):
            raise ConfigError(f"{key}: must be {_RANGES[key][0]}, got {value!r}")
        return target(value)
    if target is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(
                f"{key}: {value!r} not one of {', '.join(_CHOICES[key])}"
            )
        return value
    raise ConfigError(f"{key}: unsupported value {value!r}")


class RunConfig:
    """Validated, immutable-by-convention view over the dotted-key table."""

    def __init__(self, values: dict[str, Any] | None = None):
        self._values = {k: v for k, (v, _) in DEFAULTS.items()}
        for k, v in (values or {}).items():
            if k not in DEFAULTS:
                raise ConfigError(f"unknown config key {k!r}")
            self._values[k] = _coerce(k, v)
        self._check_cross_keys()

    def _check_cross_keys(self) -> None:
        """Constraints between keys, checked once every key is valid alone."""
        d, heads = self["model.d"], self["model.heads"]
        if d % heads != 0:
            raise ConfigError(f"model.heads ({heads}) must divide model.d ({d})")
        span, stride = self.window_geometry()
        if stride > span:
            raise ConfigError(
                f"window.stride_secs ({stride}) exceeds window.span_secs ({span})"
            )
        total = sum(self.split_fractions())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split.train + split.val + split.test must sum to 1, got {total}")

    def __getitem__(self, key: str) -> Any:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def updated(self, overrides: dict[str, Any]) -> "RunConfig":
        merged = dict(self._values)
        merged.update(overrides)
        return RunConfig(merged)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._values)

    # -- derived values ---------------------------------------------------
    def window_geometry(self) -> tuple[int, int]:
        span, stride = self["window.span_secs"], self["window.stride_secs"]
        if (span is None) != (stride is None):
            raise ConfigError("window.span_secs and window.stride_secs go together")
        if span is None:
            return PRESETS[self["window.preset"]]
        return span, stride

    def init_seed(self) -> int:
        return self["seed"] if self["init.seed"] is None else self["init.seed"]

    def split_fractions(self) -> tuple[float, float, float]:
        return (self["split.train"], self["split.val"], self["split.test"])


def read_config_file(path: str | Path) -> dict[str, Any]:
    """The JSON object a config file holds, keys and values not yet checked."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def load_config(path: str | Path | None, overrides: dict[str, Any] | None = None) -> RunConfig:
    values = {} if path is None else read_config_file(path)
    if overrides:
        values.update(overrides)
    return RunConfig(values)


def parse_override(text: str) -> tuple[str, Any]:
    """Parse one ``key=value`` override; the value is JSON if possible."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cfg.as_dict(), indent=2, sort_keys=True) + "\n")
