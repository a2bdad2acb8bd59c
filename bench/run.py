#!/usr/bin/env python3
"""ecatch benchmark: three workloads, end-to-end metrics, and a traced run.

Usage, from the root of the repository:

    python3 bench/run.py --workload train-m --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30     # every workload, one process each
    python3 bench/run.py --smoke                   # every check at a tiny size

With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run and writes its spans to ``bench/out/trace-<workload>-seed<seed>.json``.
See ``bench/README.md`` for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy is first imported; ecatch applies its own
# ECATCH_THREADS only in ecatch.cli, which the benchmark does not import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("train-m", "score-bursty", "cluster-l")
EXTRA_SAMPLES = 3        # extra set-ups (and structures) timed before and after the operation
CHILD_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "structure_s": "s", "command_s": "s", "peak_rss_mb": "MB"}


def _import_ecatch():
    """Import ecatch from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ecatch
        import ecatch.autodiff  # noqa: F401  (layers the tracer wraps)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ecatch from {src}: {exc}")
    if src.resolve() not in Path(ecatch.__file__).resolve().parents:
        raise SystemExit(f"bench: ecatch was imported from {ecatch.__file__}, not {src}")
    sys.path.insert(0, str(HERE))
    return ecatch


def _workload(args, workdir: Path):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.smoke)
    return wl, wl.inputs(args.seed, workdir)


def _median(values):
    return statistics.median(values) if values else None


def _timed_setup(wl, inp):
    t = time.perf_counter()
    state = wl.setup(inp)
    return time.perf_counter() - t, state


# -- one process, one operation -------------------------------------------------
def _extra_samples(wl, inp) -> tuple[list[float], list[float]]:
    setups, structures = [], []
    for _ in range(EXTRA_SAMPLES):
        setup, state = _timed_setup(wl, inp)
        setups.append(setup)
        if wl.structure_samples:
            structures.append(wl.time_structure(inp, state))
    return setups, structures


def child_main(args) -> int:
    """Set up, time build_structure, run one operation, check it; print JSON."""
    _import_ecatch()
    wl, inp = _workload(args, Path(args.workdir))
    result = {"setup_s": [], "samples": {}, "peak_rss_mb": None, "digest": None,
              "problems": [], "error": None}
    try:
        # Extra set-up and structure samples, half before and half after the
        # operation, so that each process samples the host at two times.
        before = _extra_samples(wl, inp)
        setup, state = _timed_setup(wl, inp)
        samples, out = wl.operation(inp, state)
        # Read before the checks, which allocate their own references.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = _extra_samples(wl, inp)
        result["setup_s"] = before[0] + [setup] + after[0]
        samples["command_s"] = setup + samples.pop("op_s")
        samples["structure_s"] = before[1] + [samples["structure_s"]] + after[1]
        result["samples"] = samples
        result["problems"], result["digest"] = wl.verify(inp, out, deep=args.deep)
    except Exception:  # the operation failed; the parent counts it
        result["error"] = traceback.format_exc()
    print(json.dumps(result))
    return 0


def _spawn(args, workdir: Path, deep: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--child", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), "--deep", str(int(deep))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    return json.loads(lines[-1])


def timed_run(args, wl, inp) -> dict:
    """Operations in fresh processes, one each, until ``seconds`` have passed.

    The first process also makes the slow checks; every other operation must
    produce outputs with the same digest, so the checks hold for it too.
    """
    inp.write()
    children = []
    start = time.perf_counter()
    while True:
        children.append(_spawn(args, inp.data_dir, deep=not children))
        if time.perf_counter() - start >= args.seconds:
            break

    reference = children[0].get("digest")
    failed = 0
    for k, c in enumerate(children):
        reasons = ([c["error"]] if c.get("error") else []) + c.get("problems", [])
        if not c.get("error") and c.get("digest") != reference:
            reasons.append("outputs differ from the first operation's on the same inputs")
        elif not c.get("error") and k:
            reasons += children[0]["problems"]
        for line in reasons:
            print(f"{wl.name}: operation {k} failed: {line}", file=sys.stderr)
        failed += bool(reasons)

    ok = [c for c in children if not c.get("error")]
    pooled = {"setup_s": [v for c in ok for v in c["setup_s"]]}
    for c in ok:
        for key, v in c["samples"].items():
            pooled.setdefault(key, []).extend(v if isinstance(v, list) else [v])
    for key, v in pooled.items():
        print(f"{wl.name} {key} (n={len(v)}): mean {statistics.fmean(v):.6g}; "
              + " ".join(f"{x:.4g}" for x in v), file=sys.stderr)
    # Times are means: the host switches between a fast and a slow speed for
    # seconds at a time, so a median jumps between the two while a mean
    # follows the share of the run spent in each (see README.md).
    metrics = {k: {"value": statistics.fmean(pooled[k]), "unit": UNITS[k]}
               for k in ("setup_s", "structure_s", "command_s") if pooled.get(k)}
    if ok:
        metrics["peak_rss_mb"] = {"value": _median([c["peak_rss_mb"] for c in ok]),
                                  "unit": UNITS["peak_rss_mb"]}
    return {"correct": failed == 0, "attempted": len(children), "failed": failed,
            "metrics": metrics}


# -- traced run -----------------------------------------------------------------
def traced_run(args, wl, inp, ecatch) -> dict:
    """Untraced and traced rounds in turn in one process, then one round under
    tracemalloc; the spans go to the trace file."""
    import tracer as tr

    inp.write()
    rounds, outs, errors = [], [], []

    def attempt():
        try:
            samples, out = wl.operation(inp, wl.setup(inp))
        except Exception:  # counted as a failed operation
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            return None
        outs.append(out)
        return samples

    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        untraced_samples = attempt()
        untraced = time.perf_counter() - t

        tracer = tr.Tracer()
        tracer.install(ecatch)
        t = time.perf_counter()
        sid = tracer.open("bench.round")
        try:
            traced_ok = attempt() is not None
        finally:
            tracer.close(sid)
            tracer.uninstall()
        traced = time.perf_counter() - t
        if untraced_samples is not None and traced_ok:
            rounds.append({"untraced_s": untraced, "traced_s": traced,
                           "untraced_samples": untraced_samples,
                           "metrics": tr.layer_metrics(tracer), "spans": tracer.spans,
                           "counts": dict(tracer.counts), "absent": sorted(tracer.absent)})
        if time.perf_counter() - start >= args.seconds:
            break

    probe = tr.MemoryProbe()
    probe.install(ecatch)
    try:
        attempt()
    finally:
        probe.uninstall()

    failed = len(errors)
    reference = None
    for k, out in enumerate(outs):
        problems, dig = wl.verify(inp, out, deep=k == 0)
        reference = reference or dig
        if dig != reference:
            problems.append("outputs differ from the first operation's on the same inputs")
        for line in problems:
            print(f"{wl.name}: operation {k} failed: {line}", file=sys.stderr)
        failed += bool(problems)

    metrics = {}
    if rounds:
        for name, (_, unit) in rounds[0]["metrics"].items():
            metrics[name] = {"value": _median([r["metrics"][name][0] for r in rounds]),
                             "unit": unit}
        for name, key, unit in (("training.train_epoch_s", "train_epoch_s", "s"),
                                ("pipeline.score_posts_per_s", "score_posts_per_s", "posts/s")):
            values = [r["untraced_samples"].get(key, 0.0) for r in rounds]
            metrics[name] = {"value": _median(values), "unit": unit}
        overhead = (_median([r["traced_s"] for r in rounds])
                    - _median([r["untraced_s"] for r in rounds]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics.update(tr.memory_metrics(probe))
    absent = sorted(set().union(*[r["absent"] for r in rounds], probe.absent))
    if absent:
        print(f"absent layers (names no longer in ecatch): {', '.join(absent)}",
              file=sys.stderr)

    trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "rounds": rounds,
        "memory": {"cluster_peaks_mb": probe.cluster_peaks,
                   "epoch_peaks_mb": probe.epoch_peaks},
    }) + "\n")
    if rounds:
        print(f"self time per span, last traced round ({trace_path.name}):", file=sys.stderr)
        for name, s in sorted(tr.self_times(rounds[-1]["spans"]).items(), key=lambda kv: -kv[1]):
            print(f"  {name:<38} {s:10.4f} s", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(outs) + len(errors), "failed": failed,
            "metrics": metrics}


# -- entry points ---------------------------------------------------------------
def run_workload(args) -> dict:
    ecatch = _import_ecatch()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        wl, inp = _workload(args, workdir)
        if args.trace:
            return traced_run(args, wl, inp, ecatch)
        return timed_run(args, wl, inp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in a fresh process; prints each metric by name and unit."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<38} {v['value']:>14.6g} {v['unit']}")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and one round: runs every check in seconds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--deep", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    # On SIGTERM unwind normally, so the running child is killed and waited
    # for, and the generated corpus is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.smoke:
        args.seconds = 0.0
    if args.workload is None:
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
