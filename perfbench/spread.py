"""Run one workload on several seeds and print each metric's quartile spread.

    python3 perfbench/spread.py --workload ef-cloud --seeds 1-10

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4); the bounds in BENCHMARK.json were set
from it (see README.md). Runs go one after another, from the repository
root, each as its own process, and as long as BENCHMARK.json's
run_seconds unless --seconds says otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def seeds_of(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default=str(json.loads(BENCHMARK.read_text())["run_seconds"]))
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    failed = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed.append(f"{result['failed']}/{result['attempted']}")
        line = [f"seed {seed}: correct={result['correct']}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(" ".join(line), flush=True)

    print(f"failed/attempted per run: {' '.join(failed)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:24s} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
