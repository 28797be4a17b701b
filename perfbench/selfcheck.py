"""Exact-repeat self-check: two traced runs with one seed must agree.

    python3 perfbench/selfcheck.py

Runs ``run.py --trace 1`` twice per workload with seed ``SEED`` and
compares, job by job over the jobs both runs completed, the argv, the exit
code, the counts (lu_nnz, factor_calls, lu_solves, iterations, ricci_calls)
and the SHA-256 of every output file. Counts are reported as counts. Exits
1 on any difference or failed run.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUNS = HERE.parent / ".perfbench_runs"
SEED = 1
SECONDS = 1     # one cycle of every workload


def traced_run(workload, tag):
    out = RUNS / f"selfcheck-{workload}-{tag}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True)
    if proc.returncode != 0 \
            or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
        sys.exit(f"{workload} run {tag} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads((out / "result.json").read_text())["jobs"]


def compare(first, second):
    diffs = []
    for a, b in zip(first, second):
        for key in ("argv", "exit_code", "counts", "outputs"):
            if a[key] != b[key]:
                diffs.append(f"job {a['index']} {a['kind']}: {key} differs: "
                             f"{a[key]} != {b[key]}")
    return diffs


def main():
    ok = True
    for workload in workloads.WORKLOADS:
        first = traced_run(workload, "a")
        second = traced_run(workload, "b")
        diffs = compare(first, second)
        ok = ok and not diffs
        n = min(len(first), len(second))
        print(f"{workload}: {n} jobs compared, "
              f"{'identical' if not diffs else f'{len(diffs)} differences'}")
        for rec in first[:n]:
            print(f"  {rec['kind']:18s} {json.dumps(rec['counts'])}")
        for diff in diffs:
            print("  DIFF " + diff)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
