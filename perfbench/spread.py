"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs ``run.py --trace 0`` once per seed, one after another, for the
``run_seconds`` of BENCHMARK.json, and prints for
every end-to-end metric of BENCHMARK.json the median, the quartiles
(``statistics.quantiles(values, n=4)``), and the interquartile distance as
a share of the median next to the metric's bound. The values are saved to
``.perfbench_runs/spread-<workload>-<seeds>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = []
    for seed in seed_range(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{proc.stdout}{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed} incorrect:\n{proc.stdout}")
        runs.append({"seed": seed, "attempted": result["attempted"],
                     **{k: v["value"] for k, v in result["metrics"].items()}})
        print(json.dumps(runs[-1]), flush=True)

    out = ROOT / ".perfbench_runs" / f"spread-{args.workload}-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("inf")
        print(f"{metric['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{share:8.4f} {metric['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
