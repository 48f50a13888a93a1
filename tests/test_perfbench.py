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


def _with_perfbench(*lines):
    """Run ``lines`` in a fresh interpreter that has perfbench's spans and workloads imported."""
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, 'perfbench')",
        "import run",
        "run._import_program()",
        "import spans, workloads",
        *lines,
    ])
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


def test_every_name_the_benchmark_wraps_still_exists():
    # instrument() looks up each attribute it wraps, so a renamed or
    # deleted function raises AttributeError here
    _with_perfbench(
        "tracer = spans.Tracer()",
        "workloads.instrument(tracer)",
        "tracer.restore()",
    )


def test_traced_energy_and_forces_opens_every_per_layer_span():
    # a refactor that keeps a wrapped name but stops calling it through
    # its module attribute would leave that span, and its metric, at zero
    out = _with_perfbench(
        "from sphattn import backbone as bb",
        "model = bb.new_model([6], seed=1, random_gate=True)",
        "tracer = spans.Tracer()",
        "workloads.instrument(tracer)",
        "try:",
        "    bb.energy_and_forces(workloads._trimer(), model)",
        "finally:",
        "    tracer.restore()",
        "print(' '.join(sorted({s[0] for s in tracer.spans})))",
    )
    expected = {
        "field.grid_field", "field.field_features", "attention.build_qkv",
        "attention.spherical_attention", "attention.pool_attention", "attention.gate",
        "backbone.radial_basis", "backbone.taped_harmonics", "geometry.neighbor_list",
    }
    assert expected <= set(out.split()), sorted(expected - set(out.split()))
