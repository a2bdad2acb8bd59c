"""The benchmark's smoke mode: every workload's checks at a tiny size.

It drives the package only through its public calls and the layer names the
benchmark's tracer wraps, so a renamed or removed layer shows up here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_is_correct_and_traces_every_layer():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for workload in ("train-m", "score-bursty", "cluster-l"):
        assert f"{workload}: correct=True" in proc.stdout, proc.stdout
    assert "absent layers" not in proc.stderr, proc.stderr
