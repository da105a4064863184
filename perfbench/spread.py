"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload tails --seeds 1-10

Runs perfbench/run.py once per seed (untraced, at BENCHMARK.json's
run_seconds), then prints for each metric the median, the first and third
quartile as `statistics.quantiles(values, n=4)` gives them, and the quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  The last column is the same spread of the metric as
measured, before run.py scales it to the reference host speed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lo, hi = (int(part) for part in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        provenance = json.loads(next(line for line in lines if line.startswith("# provenance "))[13:])
        for name, value in provenance["host_scaling"]["raw"].items():
            raw.setdefault(name, []).append(value)
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'raw':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread(vals):>8.4f}"
              f" {bounds.get(name, float('nan')):>6} {spread(raw[name]):>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
