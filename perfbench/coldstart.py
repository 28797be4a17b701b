"""One cold start of a motslab job: import the package (numpy and scipy
with it) and generate the workload's argv list, then report ready.

run.py times this script from process launch to the ``ready`` line; that
interval is the benchmark's ``setup_s``.

    python3 perfbench/coldstart.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import motslab.cli  # noqa: E402,F401
import workloads  # noqa: E402

argv = workloads.argv_list(sys.argv[1], int(sys.argv[2]), 16)
print("ready", len(argv), flush=True)
