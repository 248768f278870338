"""Print every metric of every workload, with its unit, in one table.

usage: python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a checkout.  For each workload it makes one untraced
run (end-to-end metrics) and one traced run (per-layer metrics) of
perfbench/run.py, and adds the failed ratio and the wall_s sample count
from the record line.  Exits 1 if any run was not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    run_py = Path(__file__).resolve().parent / "run.py"
    all_correct = True
    print(f"{'workload':<11} {'metric':<48} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, str(run_py), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", trace]
            lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            all_correct = all_correct and result["correct"]
            rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            if trace == "0":
                rows += [("failed_ratio", info["failed_ratio"], "ratio"),
                         ("wall_s.samples", info["wall_s_samples"], "count")]
            for name, value, unit in rows:
                print(f"{workload:<11} {name:<48} {value:>14.6g}  {unit}")
            for problem in info["problems"]:
                print(f"{workload:<11} problem: {problem}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
