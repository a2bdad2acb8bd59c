import json
import re

import pytest

from ecatch.config import (
    KEYS,
    ConfigError,
    RunConfig,
    load_config,
    parse_override,
    save_config,
)


def test_defaults_available():
    cfg = RunConfig()
    assert cfg["model.d"] == 32
    assert cfg["train.optimizer"] == "adam"
    assert cfg["window.preset"] == "fakeddit"


@pytest.mark.parametrize("name", list(KEYS))
def test_default_passes_its_own_check(name):
    key = KEYS[name]
    if key.default is None:
        assert key.kind is not None, "a key whose default is null names its type"
    else:
        value = key.check(name, key.default)
        assert value == key.default and type(value) is type(key.default)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'model.depth'"):
        RunConfig({"model.depth": 3})


def test_type_checking():
    with pytest.raises(ConfigError, match="model.d"):
        RunConfig({"model.d": "big"})
    with pytest.raises(ConfigError, match="weights.adaptive"):
        RunConfig({"weights.adaptive": 1})
    with pytest.raises(ConfigError, match="trend.alpha"):
        RunConfig({"trend.alpha": "fast"})


def test_choice_validation():
    with pytest.raises(ConfigError, match="cluster.linkage"):
        RunConfig({"cluster.linkage": "ward"})
    with pytest.raises(ConfigError, match="window.preset"):
        RunConfig({"window.preset": "weibo"})


@pytest.mark.parametrize("key, value", [
    ("train.grad_clip_norm", -1.0),
    ("train.grad_clip_norm", 0),
    ("mining.rho", 1.5),
    ("mining.rho", 0.0),
    ("train.learning_rate", 0.0),
    ("train.learning_rate", -0.02),
    ("train.adam_beta1", 1.0),
    ("train.adam_beta1", -0.1),
    ("train.adam_beta2", 1.0),
    ("train.adam_eps", 0.0),
    ("eval.threshold", 0.0),
    ("eval.threshold", 1.0),
    ("eval.threshold", float("nan")),
    ("train.grad_clip_norm", float("inf")),
    ("loss.epsilon", 10 ** 400),
    ("loss.lambda_tc", -0.1),
    ("loss.lambda_reg", -1e-4),
    # sizes and counts must fit int64
    ("model.d", 2 ** 63),
    ("model.heads", 10 ** 30),
    ("cluster.num_clusters", 2 ** 63),
    ("window.span_secs", 2 ** 63),
    ("window.stride_secs", 2 ** 63),
    ("train.epochs", 2 ** 63),
    ("train.early_stop_patience", 2 ** 63),
    ("mining.warmup_epochs", 2 ** 63),
])
def test_numeric_range_rejected(key, value):
    with pytest.raises(ConfigError, match=f"^{key}: must be"):
        RunConfig({key: value})


def test_numeric_range_bounds_accepted():
    cfg = RunConfig({"mining.rho": 1, "train.adam_beta1": 0.0, "train.adam_beta2": 0.0,
                     "eval.threshold": 0.999, "train.grad_clip_norm": 1e-9})
    assert cfg["mining.rho"] == 1.0 and cfg["train.adam_beta1"] == 0.0


def test_integer_and_loss_range_bounds_accepted():
    bounds = {"seed": 0, "init.seed": 0, "model.d": 1, "model.heads": 1,
              "window.span_secs": 1, "window.stride_secs": 1, "cluster.num_clusters": 1,
              "train.epochs": 1, "train.early_stop_patience": 0, "mining.warmup_epochs": 0,
              "trend.alpha": 0, "trend.beta": 1, "loss.lambda_tc": 0.0,
              "loss.lambda_reg": 0.0, "loss.epsilon": 1e-300, "split.val": 1e-9,
              "split.train": 0.9 - 1e-9}
    cfg = RunConfig(bounds)
    assert {k: cfg[k] for k in bounds} == bounds
    assert isinstance(cfg["trend.beta"], float) and isinstance(cfg["model.d"], int)


def test_sizes_and_counts_take_int64_max_and_seeds_any_size():
    top = 2 ** 63 - 1
    bounds = {"model.d": top, "model.heads": 1, "cluster.num_clusters": top,
              "window.span_secs": top, "window.stride_secs": top, "train.epochs": top,
              "train.early_stop_patience": top, "mining.warmup_epochs": top,
              "seed": 2 ** 64, "init.seed": 10 ** 30}
    cfg = RunConfig(bounds)
    assert {k: cfg[k] for k in bounds} == bounds


def test_nullable_keys():
    cfg = RunConfig({"train.grad_clip_norm": None, "cluster.key": "event"})
    assert cfg["train.grad_clip_norm"] is None
    assert cfg["cluster.key"] == "event"
    with pytest.raises(ConfigError):
        RunConfig({"model.d": None})


@pytest.mark.parametrize("field", ["id", "label", "timestamp", "has_image"])
def test_cluster_key_naming_a_core_manifest_field_is_refused(field):
    says = f"cluster.key: {field!r} is a core manifest field; only extra manifest fields"
    with pytest.raises(ConfigError, match=re.escape(says)):
        RunConfig({"cluster.key": field})
    with pytest.raises(ConfigError, match=re.escape(says)):
        load_config(None, {"cluster.key": field})


def test_window_geometry_resolution():
    assert RunConfig({"window.preset": "ind"}).window_geometry() == (172800, 86400)
    explicit = RunConfig({"window.span_secs": 100, "window.stride_secs": 50})
    assert explicit.window_geometry() == (100, 50)
    with pytest.raises(ConfigError, match="go together"):
        RunConfig({"window.span_secs": 100}).window_geometry()


def test_init_seed_falls_back_to_global():
    assert RunConfig({"seed": 9}).init_seed() == 9
    assert RunConfig({"seed": 9, "init.seed": 4}).init_seed() == 4


def test_parse_override():
    assert parse_override("model.d=16") == ("model.d", 16)
    assert parse_override("weights.adaptive=false") == ("weights.adaptive", False)
    assert parse_override("cluster.linkage=single") == ("cluster.linkage", "single")
    with pytest.raises(ConfigError):
        parse_override("no-equals-sign")


def test_load_and_save_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model.d": 8, "train.epochs": 2}))
    cfg = load_config(path, {"model.heads": 2})
    assert cfg["model.d"] == 8
    assert cfg["model.heads"] == 2

    out = tmp_path / "saved.json"
    save_config(cfg, out)
    again = load_config(out)
    assert again.as_dict() == cfg.as_dict()


def test_config_file_must_be_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)
