"""ecatch command line: generate | cluster | train | eval | predict | crosseval | verify.

Exit codes: 0 success, 1 runtime/numeric failure (a bad dataset or run directory
among them, a run's own ``config.json`` included, or anything at ``image.f32``
that is not a matrix of the declared size), 2 configuration error (a bad
``--config`` or ``--test-config`` file, ``--set`` value, ``generate`` spec,
``verify --seeds`` value or ECATCH_THREADS; a ``cluster.key`` that names a
core manifest field such as ``label`` among them, which a run's own
``config.json`` turns into exit 1). ECATCH_THREADS (default 1) sizes
the BLAS thread pools: it fills in whichever of OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS is unset, before numpy is first
imported (``import ecatch`` imports none), which keeps training bitwise
reproducible for a given thread count. It must be a positive decimal integer;
BLAS would read any other value as "every core", so another is not exported,
and every command refuses it.
"""

from __future__ import annotations

import os

_threads = os.environ.get("ECATCH_THREADS", "1")
_threads_ok = _threads.isascii() and _threads.isdigit() and int(_threads) > 0
if _threads_ok:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .clustering import ClusteringError, check_partition, load_events, save_events
from .config import (KEYS, NON_NEGATIVE, ConfigError, RunConfig, check_value, load_config,
                     parse_override, read_config_file, save_config)
from .data import SPLIT_NAMES, Dataset, assign_splits, load_dataset, read_json, write_dataset
from .params import shape_table
from .pipeline import build_structure, evaluate_posts_and_events, predictions
from .synth import MAX_ARRAY_BYTES, SynthSpec, generate, write_ground_truth
from .training import load_checkpoint, save_checkpoint, train, write_history
from .verify import run_all, write_report
from .windows import save_windows, segment_all


class CliError(RuntimeError):
    pass


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for item in getattr(args, "set", None) or []:
        key, value = parse_override(item)
        overrides[key] = value
    if getattr(args, "epochs", None) is not None:
        overrides["train.epochs"] = args.epochs
    return load_config(getattr(args, "config", None), overrides)


def _prepare_out_dir(path: Path, force: bool) -> None:
    if path.exists() and any(path.iterdir()) and not force:
        raise CliError(f"output directory {path} is not empty (use --force)")
    path.mkdir(parents=True, exist_ok=True)


def _check_model_size(ds: Dataset, cfg: RunConfig) -> None:
    """Refuse a ``model.d`` whose parameters numpy cannot hold at this dataset's widths."""
    shapes = shape_table(cfg["model.d"], cfg["model.heads"], ds.d_text, ds.d_img)
    for name, shape in shapes.items():
        size = math.prod(shape) * 8
        if size > MAX_ARRAY_BYTES:
            raise ConfigError(f"model.d: {name} {shape} needs {size} bytes, more than "
                              f"numpy's maximum array size of {MAX_ARRAY_BYTES} bytes")


# -- commands -----------------------------------------------------------------
def cmd_generate(args) -> int:
    # from_dict refuses a spec that is not an object
    spec = SynthSpec.from_dict(read_json(Path(args.spec), f"spec {args.spec}", ConfigError))
    out = Path(args.out)
    _prepare_out_dir(out, args.force)
    ds, truth = generate(spec)
    write_dataset(ds, out, force=True)
    write_ground_truth(truth, out / "groundtruth.json")
    print(f"wrote {ds.n} posts across {spec.n_events} events to {out}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _config_from_args(args)
    ds = load_dataset(args.data)
    events, _ = build_structure(ds, cfg)
    save_events(events, args.out)
    print(f"wrote {len(events)} events to {args.out}")
    return 0


FINGERPRINT_SLICE = 4096  # posts per json.dumps call in _fingerprint


def _fingerprint(ds: Dataset) -> str:
    """sha256 of everything build_structure reads from a dataset.

    The ids and extra fields enter as the bytes of
    ``json.dumps([ds.ids, ds.extra], sort_keys=True)``, fed to the hash a slice
    at a time, so no string of the whole corpus is built.
    """
    h = hashlib.sha256()
    for opening, items in ((b"[[", ds.ids), (b"], [", ds.extra)):
        h.update(opening)
        for start in range(0, len(items), FINGERPRINT_SLICE):
            text = json.dumps(items[start:start + FINGERPRINT_SLICE], sort_keys=True)
            h.update(((", " if start else "") + text[1:-1]).encode())
    h.update(b"]]")
    h.update(np.ascontiguousarray(ds.timestamps))
    h.update(np.ascontiguousarray(ds.text))
    return h.hexdigest()


def _run_training(ds: Dataset, cfg: RunConfig, out: Path):
    ds = assign_splits(ds, cfg.split_fractions(), cfg["seed"])
    events, windows = build_structure(ds, cfg)
    result = train(ds, events, windows, cfg)
    if result.divergence is not None:
        print(f"training stopped early ({result.divergence}); "
              f"kept best epoch {result.best_epoch}", file=sys.stderr)

    save_checkpoint(result.params, out / "checkpoint.bin")
    write_history(result.history, out / "history.csv")
    save_events(events, out / "events.json")
    save_windows(windows, out / "windows.json")
    save_config(cfg, out / "config.json")
    (out / "dataset.json").write_text(
        json.dumps({"n_posts": ds.n, "fingerprint": _fingerprint(ds)}) + "\n"
    )
    return ds, events, windows, result


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    ds = load_dataset(args.data)
    _check_model_size(ds, cfg)
    out = Path(args.out)
    _prepare_out_dir(out, args.force)
    ds, events, windows, result = _run_training(ds, cfg, out)

    p_post, p_event = predictions(ds, events, windows, result.params, cfg)
    val_idx = ds.split_indices("val")
    metrics = {"split": "val", "n": int(val_idx.size)}
    if val_idx.size:
        metrics.update(
            evaluate_posts_and_events(ds, val_idx, p_post, p_event, events,
                                      cfg["eval.threshold"])
        )
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(f"trained {len(result.history)} epochs; best epoch {result.best_epoch}; "
          f"artifacts in {out}")
    return 0


def _structure_for(ds, cfg, run_dir: Path):
    """Reuse the persisted events of this dataset, refusing damaged ones, and
    rebuild their windows, which depend on the timestamps alone. Events saved
    for another dataset are rebuilt, with a note on stderr."""
    ev_path, meta_path = run_dir / "events.json", run_dir / "dataset.json"
    if ev_path.is_file() and meta_path.is_file():
        meta = read_json(meta_path, str(meta_path), CliError, dict)
        if meta.get("fingerprint") == _fingerprint(ds):
            try:
                events = load_events(ev_path)
                check_partition(events, ds.n)
            except ClusteringError as exc:
                raise CliError(f"{ev_path}: {exc}") from exc
            return events, segment_all(events, ds, *cfg.window_geometry())
        print(f"note: {run_dir} holds the events of another dataset; rebuilding the events",
              file=sys.stderr)
    return build_structure(ds, cfg)


def _load_run(args):
    """The config and checkpoint of a run, the split dataset and its structure.

    The run's config.json is required: the windows and the split come from it.
    """
    run_dir = Path(args.checkpoint).parent
    cfg_path = run_dir / "config.json"
    if not cfg_path.is_file():
        raise CliError(f"{cfg_path}: missing (train and crosseval write it)")
    try:
        cfg = RunConfig(read_json(cfg_path, str(cfg_path), CliError, dict))
    except ConfigError as exc:
        raise CliError(f"{cfg_path}: {exc}") from exc
    params = load_checkpoint(args.checkpoint)
    ds = assign_splits(load_dataset(args.data), cfg.split_fractions(), cfg["seed"])
    events, windows = _structure_for(ds, cfg, run_dir)
    return cfg, params, ds, events, windows


def cmd_eval(args) -> int:
    cfg, params, ds, events, windows = _load_run(args)
    p_post, p_event = predictions(ds, events, windows, params, cfg)

    idx = ds.split_indices(args.split)
    if idx.size == 0:
        raise CliError(f"split {args.split!r} is empty")
    payload = {"split": args.split, "n": int(idx.size)}
    payload.update(
        evaluate_posts_and_events(ds, idx, p_post, p_event, events,
                                  cfg["eval.threshold"])
    )
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_predict(args) -> int:
    cfg, params, ds, events, windows = _load_run(args)
    p_post, _ = predictions(ds, events, windows, params, cfg)

    with Path(args.out).open("w") as fh:
        for i, s in enumerate(ds.split.tolist()):
            fh.write(json.dumps({
                "id": ds.ids[i],
                "p": float(p_post[i]),
                "label": int(ds.labels[i]),
                "split": SPLIT_NAMES[s],
            }) + "\n")
    print(f"wrote {ds.n} predictions to {args.out}")
    return 0


def cmd_crosseval(args) -> int:
    cfg = _config_from_args(args)
    test_cfg = cfg
    if args.test_config:
        test_cfg = cfg.updated(read_config_file(args.test_config))

    ds_b_probe = load_dataset(args.test_data)
    ds_a = load_dataset(args.train_data)
    if ds_a.d_text != ds_b_probe.d_text or ds_a.d_img != ds_b_probe.d_img:
        raise CliError(
            "embedding dimension mismatch between datasets: "
            f"text {ds_a.d_text} vs {ds_b_probe.d_text}, "
            f"image {ds_a.d_img} vs {ds_b_probe.d_img}"
        )
    _check_model_size(ds_a, cfg)

    out = Path(args.out)
    _prepare_out_dir(out, args.force)
    _, _, _, result = _run_training(ds_a, cfg, out)

    # the target dataset gets its own structure; no fine-tuning on it
    events_b, windows_b = build_structure(ds_b_probe, test_cfg)
    p_post, p_event = predictions(ds_b_probe, events_b, windows_b, result.params, test_cfg)
    payload = {
        "train_data": str(args.train_data),
        "test_data": str(args.test_data),
        "n": ds_b_probe.n,
    }
    payload.update(
        evaluate_posts_and_events(
            ds_b_probe, np.arange(ds_b_probe.n), p_post, p_event, events_b,
            test_cfg["eval.threshold"],
        )
    )
    text = json.dumps(payload, indent=2)
    (out / "crosseval.json").write_text(text + "\n")
    print(text)
    return 0


def cmd_verify(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from exc
    for seed in seeds:
        check_value("--seeds", seed, int, NON_NEGATIVE)
    if not seeds:
        raise ConfigError(f"--seeds: no seed in {args.seeds!r}")
    reports = run_all(seeds)
    for r in reports:
        print(r.line())
    write_report(reports, args.out)
    failures = [r for r in reports if not r.ok]
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(reports)} checks passed; report in {args.out}")
    return 0


# -- parser -------------------------------------------------------------------
def _config_epilog() -> str:
    lines = ["config keys (JSON file and --set overrides):"]
    for name, key in KEYS.items():
        lines.append(f"  {name:<26} default={key.default!r:<12} {key.help}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecatch",
        description="event-centric cross-modal misinformation detector "
                    "over pre-extracted embeddings",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="JSON config file with dotted keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")

    p = sub.add_parser("generate", help="write a synthetic dataset directory")
    p.add_argument("--spec", required=True, help="JSON generator spec")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="compute pseudo-events only")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="events.json path")
    add_config_args(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="cluster, window, and train end to end")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--epochs", type=int, help="override train.epochs")
    p.add_argument("--force", action="store_true")
    add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--out", help="also write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="emit per-post probabilities")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="JSONL output path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crosseval", help="train on one dataset, test on another")
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--test-config", help="config overrides for the test side")
    p.add_argument("--epochs", type=int, help="override train.epochs")
    p.add_argument("--force", action="store_true")
    add_config_args(p)
    p.set_defaults(func=cmd_crosseval)

    p = sub.add_parser("verify", help="run the oracle and invariant suite")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not _threads_ok:
            raise ConfigError(f"ECATCH_THREADS must be a positive decimal integer, "
                              f"got {_threads!r}")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/numeric failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
