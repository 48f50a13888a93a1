"""Single-thread benchmark of sphattn: MD, energy+forces and force-loss training.

Run from the repository root:

    python3 perfbench/run.py --workload md-trimer --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones, the
tracing overhead among them. Lines before it give reference figures. Artifacts
and spans go to perfbench/out/. --ungated measures the same workload
with gating off, for the gated/ungated cost ratio in the README.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS pools are sized when numpy is first imported, so pin them first
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
END_TO_END = {"setup_s": "s", "op_ms": "ms", "ops_per_s": "1/s", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}


def _import_program():
    """Put the checkout's src/ first on the path and check sphattn comes from it."""
    if not (SRC / "sphattn" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sphattn'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import sphattn

    if Path(sphattn.__file__).resolve().parent != (SRC / "sphattn").resolve():
        sys.exit(f"error: sphattn was imported from {sphattn.__file__}, not from {SRC}")


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ungated", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    out = BENCH_DIR / "out" / f"{args.workload}-{args.seed}{'-ungated' if args.ungated else ''}"
    out.mkdir(parents=True, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed, out, gating=not args.ungated)
    wl.setup()
    setup_s = time.perf_counter() - T0

    tracer = spans.Tracer() if args.trace else None
    phases = wl.measure(args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = True
    try:
        wl.check()
    except checks.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # an output the checks could not even read counts as wrong
        traceback.print_exc()
        correct = False

    main_phase = phases[0]
    times_ms = sorted(t * 1e3 for _, t in main_phase.times)
    op_ms = wl.op_ms(main_phase)
    print(f"# {args.workload} seed {args.seed}: {main_phase.attempted} ops in {main_phase.rounds} "
          f"rounds, {main_phase.wall:.2f} s; p90 op {statistics.quantiles(times_ms, n=10)[-1]:.3f} ms")
    note = wl.notes(main_phase)
    if note:
        print(f"# {note}")

    if args.trace:
        metrics = tracer.layer_metrics()
        sizes = [workloads.tape_size(configs, wl.model, params) for configs, params in wl.tape_inputs()]
        for i, key in enumerate(("autodiff.tape_nodes.fwd", "autodiff.tape_nodes.bwd",
                                 "autodiff.tape_mb.fwd", "autodiff.tape_mb.bwd")):
            metrics[key] = statistics.fmean(s[i] for s in sizes)
        traced_ms = wl.op_ms(phases[1])
        metrics["trace.overhead.ms"] = traced_ms - op_ms
        print(f"# traced op {traced_ms:.3f} ms against {op_ms:.3f} ms untraced")
        tracer.dump(out / "spans.jsonl")
        result_metrics = {k: _metric(metrics[k], unit) for k, unit in spans.PER_LAYER.items()}
    else:
        ops = main_phase.attempted
        values = {
            "setup_s": setup_s,
            "op_ms": op_ms,
            "ops_per_s": (ops - main_phase.failed) / main_phase.wall,
            "cpu_ms_per_op": main_phase.cpu * 1e3 / ops,
            "peak_rss_mb": peak_rss_mb,
        }
        result_metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
