"""The benchmark's smoke mode: every workload's checks at a tiny size.

It drives the package only through its public calls and the layer names the
benchmark's tracer wraps, so a renamed or removed layer shows up here.

Run as a script, ``python tests/test_bench_smoke.py end_to_end|per_layer``
checks the output of one ``bench/run.py --workload`` run on standard input the
way these tests do, and exits non-zero if it is not a clean result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def check_result(stdout: str, kind: str) -> dict:
    """The last line of a ``--workload`` run, parsed strictly: a correct run with
    no failed operation and exactly the ``kind`` metrics of BENCHMARK.json."""
    lines = stdout.strip().splitlines()
    assert lines, "no output"
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0, result
    names = {m["name"] for m in BENCHMARK[kind]}
    assert set(result["metrics"]) == names, set(result["metrics"]) ^ names
    return result


def test_bench_smoke_is_correct_and_traces_every_layer():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for workload in ("train-m", "score-bursty", "cluster-l"):
        assert f"{workload}: correct=True" in proc.stdout, proc.stdout
    assert "absent layers" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_workload_ends_with_a_strict_result(workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    check_result(proc.stdout, kind)


def test_strict_parse_refuses_non_finite_values():
    line = json.dumps({"correct": True, "failed": 0, "metrics": {"x": {"value": float("nan")}}})
    with pytest.raises(ValueError, match="NaN is not JSON"):
        check_result(line, "end_to_end")


if __name__ == "__main__":
    check_result(sys.stdin.read(), sys.argv[1])
