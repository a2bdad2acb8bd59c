"""Run configuration: one flat namespace of dotted keys with strict validation.

Config files are JSON objects whose keys come from the table below; unknown
keys are rejected. Command-line ``--set key=value`` overrides are parsed as
JSON when possible and fall back to raw strings.

Each key is declared once, in ``KEYS``: its default, its help (printed by
``ecatch --help``) and what a value must be. To add a key, add one ``Key``
there; ``check_value`` then checks its values and the help lists it. A string
key may list its allowed values, a numeric key may carry a bound, and a key
that takes null (every key whose default is null) names its type.
Constraints between keys, and the rule that ``cluster.key`` names an extra
manifest field (not one of ``data._MANIFEST_KEYS``, which every post holds),
go in ``RunConfig._check_rules``; breaking either is a configuration error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, NamedTuple

from .clustering import LINKAGES
from .data import _MANIFEST_KEYS, read_json
from .fusion import SCALES, SCOPES
from .objective import WEIGHT_SCOPES
from .windows import DAY, INT64_MAX, PRESETS


class ConfigError(ValueError):
    pass


# numeric bounds: (description, test)
POSITIVE = ("> 0", lambda x: x > 0)
NON_NEGATIVE = (">= 0", lambda x: x >= 0)
# Sizes and counts must fit numpy's int64; seeds take NON_NEGATIVE, since
# numpy seeds any non-negative int.
SIZE = ("in [1, 2**63 - 1]", lambda x: 1 <= x <= INT64_MAX)
COUNT = ("in [0, 2**63 - 1]", lambda x: 0 <= x <= INT64_MAX)
UNIT_INTERVAL = ("in [0, 1]", lambda x: 0.0 <= x <= 1.0)
OPEN_UNIT_INTERVAL = ("in (0, 1)", lambda x: 0.0 < x < 1.0)
_DECAY = ("in [0, 1)", lambda x: 0.0 <= x < 1.0)


def check_value(name: str, value: Any, kind: type, rule: tuple | None = None,
                error: type[ValueError] = ConfigError) -> Any:
    """``value`` as a ``kind`` (bool, int, float or str), or ``error`` naming ``name``.

    No kind takes null, and no number takes a bool. A float takes an int and
    must be finite. ``rule`` is the allowed values of a str, or the
    ``(description, test)`` bound of a number.
    """
    if value is None:
        raise error(f"{name}: null is not allowed")
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise error(f"{name}: expected a boolean, got {value!r}")
    if kind is str:
        if not isinstance(value, str):
            raise error(f"{name}: expected a string, got {value!r}")
        if rule is not None and value not in rule:
            raise error(f"{name}: {value!r} not one of {', '.join(rule)}")
        return value
    number = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, number):
        expected = "a number" if kind is float else "an integer"
        raise error(f"{name}: expected {expected}, got {value!r}")
    # False for NaN, the infinities and ints beyond the float range.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise error(f"{name}: must be a finite float, got {value!r}")
    if rule is not None and not rule[1](value):
        raise error(f"{name}: must be {rule[0]}, got {value!r}")
    return kind(value)


class Key(NamedTuple):
    """One config key. ``kind`` is the type of a key that takes null."""
    default: Any
    help: str
    rule: tuple | None = None
    kind: type | None = None

    def check(self, name: str, value: Any) -> Any:
        if value is None and self.kind is not None:
            return None
        return check_value(name, value, self.kind or type(self.default), self.rule)


KEYS: dict[str, Key] = {
    "seed": Key(0, "global seed: splits, parameter init, any sampling", NON_NEGATIVE),
    "split.train": Key(0.8, "training fraction", POSITIVE),
    "split.val": Key(0.1, "validation fraction", POSITIVE),
    "split.test": Key(0.1, "test fraction", POSITIVE),
    "cluster.num_clusters": Key(10, "number of pseudo-events formed by clustering",
                                SIZE),
    "cluster.linkage": Key("average", "agglomerative linkage: average|complete|single",
                           LINKAGES),
    "cluster.key": Key(None, "extra manifest field to group by instead of clustering",
                       kind=str),
    "window.preset": Key("fakeddit", "span/stride preset: fakeddit|ind|covid", tuple(PRESETS)),
    "window.span_secs": Key(None, "window span in seconds (overrides preset)",
                            SIZE, int),
    "window.stride_secs": Key(None, "window stride in seconds (overrides preset)",
                              SIZE, int),
    "model.d": Key(32, "model width shared by all components", SIZE),
    "model.heads": Key(4, "attention heads (must divide model.d)", SIZE),
    "attention.scope": Key("window", "attention sequence: window|post", SCOPES),
    "attention.scale": Key("head", "dot-product divisor: head=sqrt(d/H), model=sqrt(d)",
                           SCALES),
    "init.seed": Key(None, "parameter init seed (defaults to `seed`)", NON_NEGATIVE, int),
    "trend.alpha": Key(1.0 / (2 * DAY), "recency decay rate, 1/seconds", NON_NEGATIVE),
    "trend.beta": Key(0.9, "momentum smoothing in [0, 1]", UNIT_INTERVAL),
    "loss.lambda_tc": Key(0.1, "temporal-consistency multiplier", NON_NEGATIVE),
    "loss.lambda_reg": Key(1e-4, "l2 regularization multiplier", NON_NEGATIVE),
    "loss.epsilon": Key(1.0, "class-count smoothing in adaptive weights", POSITIVE),
    "loss.tc_clamp": Key(False, "clamp negative cosine in the consistency term"),
    "weights.adaptive": Key(True, "use adaptive class weights (off: w0=w1=1)"),
    "weights.scope": Key("event", "count classes per event or globally: event|global",
                         WEIGHT_SCOPES),
    "mining.rho": Key(1.0, "hard-example fraction in (0,1]; 1.0 disables mining",
                      ("in (0, 1]", lambda x: 0.0 < x <= 1.0)),
    "mining.warmup_epochs": Key(2, "epochs trained unmined before mining starts", COUNT),
    "train.optimizer": Key("adam", "adam|sgd", ("adam", "sgd")),
    "train.learning_rate": Key(0.02, "step size", POSITIVE),
    "train.adam_beta1": Key(0.9, "Adam first-moment decay", _DECAY),
    "train.adam_beta2": Key(0.999, "Adam second-moment decay", _DECAY),
    "train.adam_eps": Key(1e-8, "Adam denominator guard", POSITIVE),
    "train.epochs": Key(30, "maximum training epochs", SIZE),
    "train.grad_clip_norm": Key(5.0, "global gradient-norm clip; null disables", POSITIVE,
                                float),
    "train.early_stop_patience": Key(5, "epochs without val improvement before stop",
                                     COUNT),
    "train.early_stop_metric": Key("f1", "validation metric: f1|auc|accuracy, ties to the "
                                   "lower log-loss; ranks epochs only on a validation "
                                   "split with both classes",
                                   ("f1", "auc", "accuracy")),
    "eval.threshold": Key(0.5, "decision threshold for headline metrics", OPEN_UNIT_INTERVAL),
}


class RunConfig:
    """Validated, immutable-by-convention view over the dotted-key table."""

    def __init__(self, values: dict[str, Any] | None = None):
        self._values = {k: key.default for k, key in KEYS.items()}
        for k, v in (values or {}).items():
            if k not in KEYS:
                raise ConfigError(f"unknown config key {k!r}")
            self._values[k] = KEYS[k].check(k, v)
        self._check_rules()

    def _check_rules(self) -> None:
        """Constraints beyond each key's kind and bound, checked once every key
        is valid alone."""
        key = self["cluster.key"]
        # Grouping by label would also leak the labels into the structure.
        if key in _MANIFEST_KEYS:
            raise ConfigError(f"cluster.key: {key!r} is a core manifest field; only extra "
                              f"manifest fields can group posts")
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
        if key not in KEYS:
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
    return read_json(Path(path), f"config {path}", ConfigError, dict)


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
