"""The benchmark's own self-test, run as part of the suite.

perfbench/ measures the program through its public API, including
autodiff.release and a taped autodiff.grad that its force-loss workload
differentiates again; its self-test fails when a change breaks either.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stdout + run.stderr
