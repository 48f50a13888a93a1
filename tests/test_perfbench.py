"""The benchmark's own self-test and its tracing hooks, run as part of the suite.

perfbench/ measures the program through its public API, including
autodiff.release and a taped autodiff.grad that its force-loss workload
differentiates again; its self-test fails when a change breaks either.
Its --trace 1 runs wrap named functions of the program, which must
survive every rename.
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


def test_every_name_the_benchmark_wraps_still_exists():
    # instrument() looks up each attribute it wraps, so a renamed or
    # deleted function raises AttributeError here
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, 'perfbench')",
        "import run",
        "run._import_program()",
        "import spans, workloads",
        "tracer = spans.Tracer()",
        "workloads.instrument(tracer)",
        "tracer.restore()",
    ])
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr
