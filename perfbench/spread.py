"""Run workloads over several seeds and print, for every metric, the median,
the quartiles and the spread (quartile distance over median), the figures
README.md quotes.  ``host.*`` lines give the same for the unscaled pass
time and the yardstick of each run.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 20] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"{workload} seed {seed}: correct {result['correct']} attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            run_dir = HERE / "results" / f"{workload}-seed{seed}-trace{args.trace}"
            host = json.loads((run_dir / "result.json").read_text())["host"]
            for name, value in host.items():
                values.setdefault(f"host.{name}", []).append(value)
                units[f"host.{name}"] = "s"
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {workload} {name}: median {med:.6g} {units[name]}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
