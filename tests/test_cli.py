import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from ecatch import cli, clustering
from ecatch.cli import main
from ecatch.pipeline import build_structure
from ecatch.clustering import ClusteringError, load_events
from ecatch.config import ConfigError, load_config, read_config_file
from ecatch.data import Dataset, DatasetError, assign_splits, load_dataset, write_dataset
from ecatch.training import TrainingError, load_checkpoint, save_checkpoint

from conftest import DAY, nan_gradient_at_epoch_1

SPEC = {
    "n_events": 2,
    "posts_per_event": [5, 5],
    "d_text": 6,
    "d_img": 3,
    "imbalance": 0.5,
    "margin": 4.0,
    "seed": 5,
}

CONFIG = {
    "model.d": 4,
    "model.heads": 2,
    "cluster.num_clusters": 2,
    "train.epochs": 2,
    "train.early_stop_patience": 2,
}


def write_spec(tmp_path, **overrides):
    spec = dict(SPEC, **overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def write_config(tmp_path, **overrides):
    cfg = dict(CONFIG, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def dataset_dir(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "data"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, dataset_dir):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    return out


def test_generate_produces_loadable_dataset(dataset_dir):
    ds = load_dataset(dataset_dir)
    assert ds.n == 10
    assert (dataset_dir / "groundtruth.json").is_file()


def test_generate_is_reproducible(tmp_path):
    spec = write_spec(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["generate", "--spec", str(spec), "--out", str(b)]) == 0
    for name in ("manifest.jsonl", "text.f32", "image.f32"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_refuses_nonempty_out(tmp_path, dataset_dir, capsys):
    spec = write_spec(tmp_path)
    assert main(["generate", "--spec", str(spec), "--out", str(dataset_dir)]) == 1
    assert "--force" in capsys.readouterr().err
    assert main(["generate", "--spec", str(spec), "--out", str(dataset_dir),
                 "--force"]) == 0


def test_generate_invalid_spec_is_config_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n_events": 0}))
    assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("spec, message", [
    ({"n_events": "5"}, "n_events: expected an integer, got '5'"),
    ({"n_events": 2.5}, "n_events: expected an integer, got 2.5"),
    ({"seed": -1}, "seed: must be >= 0, got -1"),
    ({"posts_per_event": ["a", 3]}, "posts_per_event: expected an integer, got 'a'"),
    ({"posts_per_event": [3.7, 5]}, "posts_per_event: expected an integer, got 3.7"),
    ({"imbalance": "0.5"}, "imbalance: expected a number, got '0.5'"),
    ({"margin": None}, "margin: null is not allowed"),
    ({"margin": True}, "margin: expected a number, got True"),
    ([1, 2], "spec must hold a JSON object"),
    ({"posts_per_event": [1, 10**30]},
     f"posts_per_event: must be in [1, 2**63 - 1], got {10**30}"),
    ({"d_text": 2**63}, f"d_text: must be in [1, 2**63 - 1], got {2**63}"),
    ({"n_events": 1, "posts_per_event": [1, 2**63 - 1]},
     f"n_events * posts_per_event[1] * max(d_text, d_img) * 8 = {(2**63 - 1) * 32 * 8} bytes "
     f"exceeds numpy's maximum array size of {2**63 - 1} bytes"),
], ids=["n_events-str", "n_events-float", "seed-negative", "posts_per_event-str",
        "posts_per_event-float", "imbalance-str", "margin-null", "margin-bool", "not-an-object",
        "posts_per_event-beyond-int64", "d_text-beyond-int64", "posts_per_event-beyond-array"])
def test_generate_bad_spec_exits_2_naming_the_field(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "x")]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cluster_writes_events(tmp_path, dataset_dir):
    out = tmp_path / "events.json"
    rc = main(["cluster", "--data", str(dataset_dir), "--out", str(out),
               "--set", "cluster.num_clusters=2"])
    assert rc == 0
    events = json.loads(out.read_text())
    assert len(events) == 2
    members = sorted(i for e in events for i in e["members"])
    assert members == list(range(10))


@pytest.mark.parametrize("field", ["id", "label", "timestamp", "has_image"])
def test_cluster_key_naming_a_core_manifest_field_exits_2(tmp_path, dataset_dir, capsys,
                                                          field):
    out = tmp_path / "events.json"
    assert main(["cluster", "--data", str(dataset_dir), "--out", str(out),
                 "--set", f"cluster.key={field}"]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cluster.key: {field!r} is a core manifest field; "
        f"only extra manifest fields can group posts\n")
    assert not out.exists()
    assert main(["cluster", "--data", str(dataset_dir), "--out", str(out),
                 "--set", "cluster.key=event"]) == 0


def test_average_cluster_events_json_is_unchanged(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, n_events=4, posts_per_event=[20, 30], d_text=8,
                      margin=2.0, seed=11)
    data = tmp_path / "data"
    assert main(["generate", "--spec", str(spec), "--out", str(data)]) == 0

    def no_matrix(x):
        raise AssertionError("average linkage built the distance matrix")

    monkeypatch.setattr(clustering, "cosine_distances", no_matrix)
    out = tmp_path / "events.json"
    assert main(["cluster", "--data", str(data), "--out", str(out),
                 "--set", "cluster.num_clusters=4"]) == 0
    # sha256 of the file written by the n x n distance-matrix path
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3815990af45ec83ce8399188859a30aceea30ea4f3b943611c5f3e732792510d")


def test_train_writes_artifacts(run_dir):
    for name in ("checkpoint.bin", "history.csv", "events.json", "windows.json",
                 "config.json", "metrics.json"):
        assert (run_dir / name).is_file(), name
    history = (run_dir / "history.csv").read_text().splitlines()
    assert len(history) == 1 + 2  # header + one row per epoch


def test_train_epochs_flag_shortens_history(tmp_path, dataset_dir):
    cfg = write_config(tmp_path)
    out = tmp_path / "run1"
    rc = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
               "--out", str(out), "--epochs", "1"])
    assert rc == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2


def test_train_unknown_config_key_exits_2(tmp_path, dataset_dir, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model.dd": 4}))
    rc = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
               "--out", str(tmp_path / "runx")])
    assert rc == 2
    assert "model.dd" in capsys.readouterr().err


def test_train_keeps_best_checkpoint_on_nan_gradient(tmp_path, dataset_dir,
                                                     monkeypatch, capsys):
    nan_gradient_at_epoch_1(monkeypatch)
    cfg = write_config(tmp_path)
    out = tmp_path / "run_nan"
    rc = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    assert "epoch 1: non-finite gradient in " in capsys.readouterr().err
    assert (out / "checkpoint.bin").is_file()
    assert len((out / "history.csv").read_text().splitlines()) == 1 + 2


def test_train_on_a_rare_class_keeps_trained_weights(tmp_path, capsys):
    # One positive validation post: F1 reads 0 at every epoch, and the lower
    # validation log-loss ranks the epochs in its place.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_events": 6, "posts_per_event": [30, 40],
                                "imbalance": 0.05, "seed": 7}))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", str(tmp_path / "data"), "--out", str(out),
                 "--set", "cluster.key=event", "--epochs", "12"]) == 0
    with (out / "history.csv").open() as fh:
        history = list(csv.DictReader(fh))
    assert list(history[0])[-2:] == ["val_auc", "val_logloss"]
    assert {row["val_f1"] for row in history} == {"0.0"}
    best = int(capsys.readouterr().out.split("best epoch ")[1].split(";")[0])
    assert best > 0


def test_train_refuses_nonempty_out(tmp_path, dataset_dir, run_dir):
    cfg = write_config(tmp_path)
    rc = main(["train", "--data", str(dataset_dir), "--config", str(cfg),
               "--out", str(run_dir)])
    assert rc == 1


def test_eval_test_split_of_ten_posts_is_one_post(tmp_path, dataset_dir, run_dir,
                                                  capsys):
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--data", str(dataset_dir),
               "--checkpoint", str(run_dir / "checkpoint.bin"),
               "--split", "test", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["split"] == "test"
    assert payload["n"] == 1
    assert payload["post_level"]["n"] == 1


def test_eval_rebuilds_structure_for_another_dataset_of_the_same_size(
        tmp_path, dataset_dir, run_dir, monkeypatch):
    a = load_dataset(dataset_dir)
    shifted = Dataset(a.ids, a.labels, a.timestamps + 3 * DAY, a.text, a.image,
                      a.has_image, a.extra)
    other = tmp_path / "shifted"
    write_dataset(shifted, other)

    builds = []

    def counting_build(ds, cfg):
        builds.append(ds.n)
        return build_structure(ds, cfg)

    monkeypatch.setattr(cli, "build_structure", counting_build)
    checkpoint = str(run_dir / "checkpoint.bin")
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", checkpoint]) == 0
    assert builds == []  # the stored structure belongs to this dataset
    assert main(["eval", "--data", str(other), "--checkpoint", checkpoint]) == 0
    assert builds == [10]  # same size, other timestamps: rebuilt, not reused


def test_eval_notes_a_rebuild_for_another_dataset(tmp_path, dataset_dir, run_dir, capsys):
    other = tmp_path / "other"
    assert main(["generate", "--spec", str(write_spec(tmp_path, seed=6)),
                 "--out", str(other)]) == 0
    capsys.readouterr()
    checkpoint = str(run_dir / "checkpoint.bin")
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", checkpoint]) == 0
    own = capsys.readouterr()
    assert own.err == ""
    assert main(["eval", "--data", str(other), "--checkpoint", checkpoint]) == 0
    rebuilt = capsys.readouterr()
    assert rebuilt.err.splitlines() == [
        f"note: {run_dir} holds the events of another dataset; rebuilding the events"]
    assert json.loads(rebuilt.out)["n"] == json.loads(own.out)["n"]


def test_eval_dimension_mismatch_names_tensor(tmp_path, run_dir, capsys):
    other_spec = write_spec(tmp_path, d_text=8, seed=9)
    other = tmp_path / "other"
    assert main(["generate", "--spec", str(other_spec), "--out", str(other)]) == 0
    rc = main(["eval", "--data", str(other),
               "--checkpoint", str(run_dir / "checkpoint.bin"), "--split", "test"])
    assert rc == 1
    assert "fusion.W_text" in capsys.readouterr().err


def test_predict_emits_one_line_per_post(tmp_path, dataset_dir, run_dir):
    out = tmp_path / "preds.jsonl"
    rc = main(["predict", "--data", str(dataset_dir),
               "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(out)])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 10
    assert {"id", "p", "label", "split"} <= set(lines[0])
    assert all(0.0 <= l["p"] <= 1.0 for l in lines)
    cfg = load_config(run_dir / "config.json")
    ds = assign_splits(load_dataset(dataset_dir), cfg.split_fractions(), cfg["seed"])
    assert [l["id"] for l in lines] == ds.ids
    for name in ("train", "val", "test"):
        assert [i for i, l in enumerate(lines) if l["split"] == name] == \
            ds.split_indices(name).tolist()



def test_overflowing_checkpoint_exits_1_and_writes_no_predictions(tmp_path, dataset_dir,
                                                                  run_dir, capsys):
    # every tensor times 1e200, saved again so that its sha256 still matches
    big = tmp_path / "run-big"
    shutil.copytree(run_dir, big)
    params = load_checkpoint(big / "checkpoint.bin")
    for _, t in params.items():
        t.data = t.data * 1e200
    save_checkpoint(params, big / "checkpoint.bin")
    out = tmp_path / "preds.jsonl"
    checkpoint = ["--data", str(dataset_dir), "--checkpoint", str(big / "checkpoint.bin")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["predict", *checkpoint, "--out", str(out)]) == 1
        assert main(["eval", *checkpoint]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: event ") and "probability is not finite" in line
               for line in err)

def _drop_first_event(path):
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(payload[1:]))


def _repeat_the_first_event_id(path):
    payload = json.loads(path.read_text())
    for entry in payload:
        entry["event_id"] = payload[0]["event_id"]
    path.write_text(json.dumps(payload))


# int() would read each of the next edits as the saved value, so only a JSON
# integer is accepted.
def _add_0_9_to_a_member(path):
    payload = json.loads(path.read_text())
    payload[0]["members"][0] += 0.9
    path.write_text(json.dumps(payload))


def _set_event_id(position, value):
    def damage(path):
        payload = json.loads(path.read_text())
        assert payload[position]["event_id"] == int(value)
        payload[position]["event_id"] = value
        path.write_text(json.dumps(payload))
    return damage


DAMAGED_STRUCTURE = {
    "events-without-an-event": ("events.json", _drop_first_event),
    "events-repeated-id": ("events.json", _repeat_the_first_event_id),
    "events-member-float": ("events.json", _add_0_9_to_a_member),
    "events-id-true": ("events.json", _set_event_id(1, True)),
    "events-id-string": ("events.json", _set_event_id(0, "0")),
    "dataset-not-an-object": ("dataset.json", lambda path: path.write_text("[]")),
    "events-not-json": ("events.json", lambda path: path.write_text("{")),
}


@pytest.mark.parametrize("case", list(DAMAGED_STRUCTURE))
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_damaged_persisted_structure_is_refused(tmp_path, dataset_dir, run_dir, capsys,
                                               case, command):
    name, damage = DAMAGED_STRUCTURE[case]
    damage(run_dir / name)
    out = ["--out", str(tmp_path / "out.json")]
    rc = main([command, "--data", str(dataset_dir),
               "--checkpoint", str(run_dir / "checkpoint.bin"), *out])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_run_without_its_config_is_refused(tmp_path, dataset_dir, run_dir, capsys, command):
    # The windows and the split seed come from config.json; defaults would score
    # the posts with other windows and another split.
    (run_dir / "config.json").unlink()
    out = ["--out", str(tmp_path / "out.json")]
    rc = main([command, "--data", str(dataset_dir),
               "--checkpoint", str(run_dir / "checkpoint.bin"), *out])
    assert rc == 1
    assert f"error: {run_dir / 'config.json'}: missing" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _add_a_post_of_event_1_to_the_last_window_of_event_0(path):
    payload = json.loads(path.read_text())
    seqs = {entry["event_id"]: entry["windows"] for entry in payload}
    seqs[0][-1]["members"].append(seqs[1][0]["members"][0])
    path.write_text(json.dumps(payload))


EDITED_WINDOWS = {
    "post-of-another-event": _add_a_post_of_event_1_to_the_last_window_of_event_0,
    "not-json": lambda path: path.write_text("{"),
    "missing": lambda path: path.unlink(),
}


@pytest.mark.parametrize("case", list(EDITED_WINDOWS))
def test_edited_windows_json_leaves_predictions_unchanged(tmp_path, dataset_dir, run_dir,
                                                          case):
    # The windows are rebuilt from events.json, so windows.json plays no part.
    def predict(name):
        out = tmp_path / name
        assert main(["predict", "--data", str(dataset_dir),
                     "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(out)]) == 0
        return out.read_bytes()

    clean = predict("clean.jsonl")
    EDITED_WINDOWS[case](run_dir / "windows.json")
    assert predict("edited.jsonl") == clean


@pytest.mark.parametrize("command", ["train", "crosseval"])
def test_model_width_beyond_numpy_arrays_exits_2(tmp_path, dataset_dir, capsys, command):
    data = (["--data", str(dataset_dir)] if command == "train"
            else ["--train-data", str(dataset_dir), "--test-data", str(dataset_dir)])
    rc = main([command, *data, "--config", str(write_config(tmp_path)),
               "--out", str(tmp_path / "run"), "--set", f"model.d={2**62}",
               "--set", "model.heads=1"])
    assert rc == 2
    assert (f"configuration error: model.d: fusion.W_text ({2**62}, 6) needs "
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_crosseval_dimension_mismatch_fails_before_training(tmp_path, dataset_dir,
                                                            capsys):
    other_spec = write_spec(tmp_path, d_img=5, seed=9)
    other = tmp_path / "other"
    assert main(["generate", "--spec", str(other_spec), "--out", str(other)]) == 0
    cfg = write_config(tmp_path)
    out = tmp_path / "xrun"
    rc = main(["crosseval", "--train-data", str(dataset_dir),
               "--test-data", str(other), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 1
    assert "dimension mismatch" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("content", [None, "[1, 2]"], ids=["missing", "json-list"])
def test_crosseval_bad_test_config_exits_2(tmp_path, dataset_dir, capsys, content):
    test_cfg = tmp_path / "test_config.json"
    if content is not None:
        test_cfg.write_text(content)
    out = tmp_path / "xrun"
    rc = main(["crosseval", "--train-data", str(dataset_dir),
               "--test-data", str(dataset_dir), "--config", str(write_config(tmp_path)),
               "--test-config", str(test_cfg), "--out", str(out)])
    assert rc == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["no-event-field", "too-many-clusters", "no-posts"])
def test_crosseval_refuses_an_unscorable_test_side_before_training(tmp_path, dataset_dir,
                                                                    capsys, case):
    ds = load_dataset(dataset_dir)
    test_data, args = tmp_path / "test-side", []
    if case == "no-event-field":  # the test manifest lacks the cluster.key field
        write_dataset(Dataset(ds.ids, ds.labels, ds.timestamps, ds.text, ds.image,
                              ds.has_image), test_data)
        args, message = ["--set", "cluster.key=event"], "missing manifest key 'event'"
    elif case == "too-many-clusters":
        test_data = dataset_dir
        (tmp_path / "test_config.json").write_text('{"cluster.num_clusters": 500}')
        args = ["--test-config", str(tmp_path / "test_config.json")]
        message = "num_clusters must be in [1, 10]"
    else:
        write_dataset(Dataset([], np.zeros(0), np.zeros(0), np.zeros((0, ds.d_text)),
                              np.zeros((0, ds.d_img)), np.zeros(0, dtype=bool)), test_data)
        assert load_dataset(test_data).n == 0
        message = "the test dataset has no posts"
    out = tmp_path / "xrun"
    rc = main(["crosseval", "--train-data", str(dataset_dir), "--test-data", str(test_data),
               "--config", str(write_config(tmp_path)), "--out", str(out), *args])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_crosseval_self_transfer_smoke(tmp_path, dataset_dir, monkeypatch):
    loaded = []

    def counting_load(path):
        loaded.append(path)
        return load_dataset(path)

    monkeypatch.setattr(cli, "load_dataset", counting_load)
    cfg = write_config(tmp_path)
    out = tmp_path / "xrun"
    rc = main(["crosseval", "--train-data", str(dataset_dir),
               "--test-data", str(dataset_dir), "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    assert len(loaded) == 2  # once per dataset argument
    payload = json.loads((out / "crosseval.json").read_text())
    assert payload["n"] == 10
    assert payload["post_level"]["n"] == 10


def test_verify_subcommand(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["verify", "--seeds", "0", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert all(entry["status"] == "pass" for entry in payload)


@pytest.mark.parametrize("override", [
    "train.grad_clip_norm=-1", "mining.rho=1.5", "train.adam_beta2=1.0",
    "eval.threshold=1",
    # integer keys, and float keys beyond the optimizer's
    "model.d=0", "model.heads=0", "seed=-1", "init.seed=-1", "window.span_secs=0",
    "window.stride_secs=-5", "cluster.num_clusters=0", "train.epochs=0",
    "train.early_stop_patience=-1", "mining.warmup_epochs=-1", "trend.beta=2",
    "trend.alpha=-1", "loss.lambda_tc=-0.5", "loss.lambda_reg=-1", "loss.epsilon=0",
    "split.val=0",
    # non-finite numbers, which JSON spells NaN, Infinity and -Infinity
    "loss.lambda_reg=NaN", "trend.alpha=Infinity", "split.train=NaN",
    "train.learning_rate=Infinity", "eval.threshold=NaN", "loss.lambda_tc=-Infinity",
    # sizes and counts beyond int64
    f"cluster.num_clusters={2**63}", f"train.epochs={2**63}",
    f"mining.warmup_epochs={10**30}",
])
def test_train_out_of_range_value_exits_2(tmp_path, dataset_dir, capsys, override):
    rc = main(["train", "--data", str(dataset_dir), "--config", str(write_config(tmp_path)),
               "--out", str(tmp_path / "run"), "--set", override])
    assert rc == 2
    assert f"configuration error: {override.split('=')[0]}: must be" in capsys.readouterr().err


def test_train_model_width_beyond_int64_exits_2(tmp_path, dataset_dir, capsys):
    rc = main(["train", "--data", str(dataset_dir), "--config", str(write_config(tmp_path)),
               "--out", str(tmp_path / "run"), "--set", f"model.d={10**30}",
               "--set", "model.heads=1"])
    assert rc == 2
    assert (f"configuration error: model.d: must be in [1, 2**63 - 1], got {10**30}"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides, message", [
    (["model.d=32", "model.heads=3"], "model.heads (3) must divide model.d (32)"),
    (["window.span_secs=100000", "window.stride_secs=200000"],
     "window.stride_secs (200000) exceeds window.span_secs (100000)"),
    (["split.train=0.5"], "split.train + split.val + split.test must sum to 1, got 0.7"),
], ids=["heads", "stride", "splits"])
def test_train_cross_key_error_exits_2(tmp_path, dataset_dir, capsys, overrides, message):
    args = ["train", "--data", str(dataset_dir), "--config", str(write_config(tmp_path)),
            "--out", str(tmp_path / "run")]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seeds", ["x,1", ",", "-1", "0,-3"])
def test_verify_bad_seeds_exit_2(tmp_path, capsys, seeds):
    rc = main(["verify", "--seeds", seeds, "--out", str(tmp_path / "report.json")])
    assert rc == 2
    assert "configuration error: --seeds:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_help_documents_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "model.d" in out
    assert "mining.rho" in out
    assert "trend.alpha" in out


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env(**variables):
    """This environment less the BLAS variables, plus ``variables``, importing this ecatch."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    return dict(env, **variables)


# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported.
NUMPY_IMPORT_PROBE = """
import os, sys

class Probe:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
{statement}
print(Probe.seen)
"""


@pytest.mark.parametrize("statement, seen", [
    ("import ecatch.cli", ["3"]),
    # a library import leaves BLAS alone
    ("import ecatch; from ecatch import train", [None]),
])
def test_ecatch_threads_reach_blas_before_numpy_starts(statement, seen):
    proc = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_PROBE.format(statement=statement)],
                          env=_env(ECATCH_THREADS="3"), capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == repr(seen)


# Runs main with the given arguments, then prints what reached OMP and MKL.
MAIN_PROBE = """
import os, sys
from ecatch.cli import main
rc = main(sys.argv[1:])
print([os.environ.get(v) for v in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")])
sys.exit(rc)
"""


@pytest.mark.parametrize("value", ["abc", "0", "-3", "", "1.5", "+2", "\u0663"])
def test_bad_ecatch_threads_is_not_exported_and_exits_2(tmp_path, value):
    # OPENBLAS_NUM_THREADS is preset, so the numpy import starts one thread.
    argv = ["generate", "--spec", str(write_spec(tmp_path)), "--out", str(tmp_path / "x")]
    proc = subprocess.run([sys.executable, "-c", MAIN_PROBE, *argv],
                          env=_env(ECATCH_THREADS=value, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout.strip() == "[None, None]"
    assert (f"configuration error: ECATCH_THREADS must be a positive decimal integer, "
            f"got {value!r}" in proc.stderr)
    assert not (tmp_path / "x").exists()


def _write(name, content):
    """Replace ``name`` under the test directory with bytes, or with a directory
    when ``content`` is None."""
    def damage(root):
        path = root / name
        path.unlink(missing_ok=True)
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
    return damage


def _unlink(name):
    return lambda root: (root / name).unlink()


def _last_float_nan(name):
    """Set the last float64 of the checkpoint ``name`` to NaN, and the header's
    sha256 to match, as a writer of that NaN would."""
    def damage(root):
        raw = (root / name).read_bytes()
        nl = raw.find(b"\n")
        body = raw[nl + 1:-8] + np.array([np.nan], dtype="<f8").tobytes()
        header = dict(json.loads(raw[:nl]), sha256=hashlib.sha256(body).hexdigest())
        (root / name).write_bytes(json.dumps(header).encode() + b"\n" + body)
    return damage


def _flip_first_float(name):
    """Flip one bit of the first float64 after the header line of ``name``."""
    def damage(root):
        raw = bytearray((root / name).read_bytes())
        raw[raw.find(b"\n") + 1] ^= 0x01
        (root / name).write_bytes(bytes(raw))
    return damage


def _generate(root):
    return cli.cmd_generate(Namespace(spec=str(root / "bad-spec.json"), out=str(root / "gen"),
                                      force=False))


def _load_run(root):
    return cli._load_run(Namespace(checkpoint=str(root / "run" / "checkpoint.bin"),
                                   data=str(root / "data")))


CLUSTER = ["cluster", "--data", "data", "--out", "events.json"]
EVAL = ["eval", "--data", "data", "--checkpoint", "run/checkpoint.bin"]
NESTED = b"[" * 100_000

# damage, the API call and the typed error it raises, the command line, its exit
# code and what its error says
MALFORMED_FILES = {
    "config-utf16": (_write("bad-config.json", '{"model.d": 4}'.encode("utf-16")),
                     lambda root: load_config(root / "bad-config.json"), ConfigError,
                     CLUSTER + ["--config", "bad-config.json"], 2,
                     "bad-config.json: 'utf-8' codec can't decode byte 0xff in position 0"),
    "spec-latin1": (_write("bad-spec.json", '{"seed": "\u00e9"}'.encode("latin-1")),
                    _generate, ConfigError,
                    ["generate", "--spec", "bad-spec.json", "--out", "gen"], 2,
                    "bad-spec.json: 'utf-8' codec can't decode byte 0xe9 in position 10"),
    "meta-int": (_write("data/meta.json", b"5"), lambda root: load_dataset(root / "data"),
                 DatasetError, CLUSTER, 1, "meta.json is not a JSON object"),
    "manifest-line-list": (_write("data/manifest.jsonl", b"[1, 2]\n"),
                           lambda root: load_dataset(root / "data"), DatasetError, CLUSTER, 1,
                           "manifest line 0 is not a JSON object"),
    "manifest-latin1": (_write("data/manifest.jsonl", '{"id": "\u00e9"}\n'.encode("latin-1")),
                        lambda root: load_dataset(root / "data"), DatasetError, CLUSTER, 1,
                        "manifest.jsonl: 'utf-8' codec can't decode byte 0xe9"),
    "text-missing": (_unlink("data/text.f32"), lambda root: load_dataset(root / "data"),
                     DatasetError, CLUSTER, 1, "missing text.f32 in"),
    "image-directory": (_write("data/image.f32", None), lambda root: load_dataset(root / "data"),
                        DatasetError, CLUSTER, 1, "image.f32 in data is not a regular file"),
    "run-config-list": (_write("run/config.json", b"[1]"), _load_run, cli.CliError, EVAL, 1,
                        "error: run/config.json is not a JSON object"),
    "test-config-list": (_write("bad-test.json", b"[1]"),
                         lambda root: read_config_file(root / "bad-test.json"), ConfigError,
                         ["crosseval", "--train-data", "data", "--test-data", "data", "--out",
                          "xrun", "--test-config", "bad-test.json"], 2,
                         "config bad-test.json is not a JSON object"),
    "run-config-unknown-key": (_write("run/config.json", b'{"model.width": 4}'), _load_run,
                               cli.CliError, EVAL, 1,
                               "error: run/config.json: unknown config key 'model.width'"),
    "run-config-core-key": (_write("run/config.json", b'{"cluster.key": "label"}'), _load_run,
                            cli.CliError, EVAL, 1,
                            "error: run/config.json: cluster.key: 'label' is a core manifest"),
    "events-not-json": (_write("run/events.json", b"\x00"),
                        lambda root: load_events(root / "run" / "events.json"),
                        ClusteringError, EVAL, 1, "events.json: events: Expecting value"),
    "dataset-nested": (_write("run/dataset.json", NESTED), _load_run, cli.CliError, EVAL, 1,
                       "dataset.json: maximum recursion depth exceeded"),
    "checkpoint-missing": (_unlink("run/checkpoint.bin"),
                           lambda root: load_checkpoint(root / "run" / "checkpoint.bin"),
                           TrainingError, EVAL, 1, "checkpoint: [Errno 2] No such file"),
    "checkpoint-directory": (_write("run/checkpoint.bin", None),
                             lambda root: load_checkpoint(root / "run" / "checkpoint.bin"),
                             TrainingError, EVAL, 1, "checkpoint: [Errno 21] Is a directory"),
    "checkpoint-header-nested": (_write("run/checkpoint.bin", NESTED + b"\n"),
                                 lambda root: load_checkpoint(root / "run" / "checkpoint.bin"),
                                 TrainingError, EVAL, 1,
                                 "checkpoint: header: maximum recursion depth exceeded"),
    "checkpoint-non-finite": (_last_float_nan("run/checkpoint.bin"),
                              lambda root: load_checkpoint(root / "run" / "checkpoint.bin"),
                              TrainingError, EVAL, 1, "checkpoint: non-finite values in clf.b_c"),
    "checkpoint-payload-edited": (_flip_first_float("run/checkpoint.bin"),
                                  lambda root: load_checkpoint(root / "run" / "checkpoint.bin"),
                                  TrainingError, EVAL, 1, "checkpoint: payload sha256 "),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_file_raises_its_typed_error_and_exit_code(tmp_path, run_dir, capsys,
                                                              monkeypatch, case):
    damage, api, error, argv, code, says = MALFORMED_FILES[case]
    damage(tmp_path)
    with pytest.raises(error):
        api(tmp_path)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " if code == 2 else "error: ")
    assert says in err


def _posts(ids, extra):
    n = len(ids)
    return Dataset(ids, np.zeros(n), np.arange(n) * 60, np.ones((n, 2)), np.zeros((n, 1)),
                   np.zeros(n), extra)


def _old_fingerprint(ds):
    """The formula every dataset.json written so far holds."""
    h = hashlib.sha256(json.dumps([ds.ids, ds.extra], sort_keys=True).encode())
    h.update(ds.timestamps.tobytes())
    h.update(ds.text.tobytes())
    return h.hexdigest()


def test_fingerprint_hashes_the_arrays_in_place(rng):
    ds = Dataset([f"p{i}" for i in range(20_000)], np.zeros(20_000),
                 np.arange(20_000) * 60, rng.normal(size=(20_000, 64)),
                 np.zeros((20_000, 2)), np.zeros(20_000), [{"k": i % 3} for i in range(20_000)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        digest = cli._fingerprint(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == _old_fingerprint(ds)
    assert peak < ds.text.nbytes / 2, peak


@pytest.mark.parametrize("n", [0, 1, cli.FINGERPRINT_SLICE, cli.FINGERPRINT_SLICE + 1,
                               2 * cli.FINGERPRINT_SLICE + 3])
def test_fingerprint_slices_hash_the_old_bytes(n):
    awkward = ['q"', "b\\", "n\n", "é", "☃", "\U0001f600"]
    ids = [f"{awkward[i % 6]}{i}" for i in range(n)]
    extra = [{"z": i, "a": {"y": [i, 'q"'], "b": None}} if i % 3 else {} for i in range(n)]
    ds = _posts(ids, extra)
    assert cli._fingerprint(ds) == _old_fingerprint(ds)


def test_fingerprint_peak_does_not_grow_with_the_ids():
    ds = _posts([f"p{i}" for i in range(200_000)], [{"event": i} for i in range(200_000)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cli._fingerprint(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
