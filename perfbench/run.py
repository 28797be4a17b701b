"""motslab benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client keeps one job in flight. A job is one in-process
``motslab.cli.main(argv)`` call whose files go to a directory the benchmark
owns; its argv comes from the seeded generator in ``workloads.py``. Jobs run
in whole cycles (a fixed mix of job kinds), and a new cycle starts only if
half of the last one, repeated, would still end within ``--seconds``, so
the loop runs the whole number of cycles nearest to ``--seconds``; the
first cycle always runs. Every job's output is checked, and a job fails if it
raises, exits with an unexpected code (3 included) or fails its check.

``setup_s`` is the median over ``SETUP_REPEATS`` launches of
``coldstart.py``, each timed from launch to its ``ready`` line. The
launches are spread evenly over the run, between jobs and with the loop's
clock stopped, so they sample the same stretch of machine time as the jobs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` every layer is wrapped (``tracing.py``)
and it carries the per-layer metrics. The run record (metadata, one entry
per job with its time, counts and output hashes) and, when tracing, the
spans are written under ``.perfbench_runs/`` or ``--out``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# Largest share of a job's wall time that its traced spans may leave out.
SPAN_GAP_TOL = 0.01


def cap_blas_threads():
    """Cap BLAS/OpenMP threads at the number of usable CPUs; this must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def git_commit():
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args, nproc, grid):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):   # show_config differs across numpy versions
        blas = "unknown"
    return {"git_commit": git_commit(), "nproc": nproc,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "workload": args.workload, "seed": args.seed, "grid": grid,
            "seconds": args.seconds, "trace": args.trace}


def cold_start(workload, seed):
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "coldstart.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate()
    if proc.returncode != 0 or not line.startswith("ready"):
        sys.exit(f"cold start failed:\n{err}")
    return elapsed


def run_job(cli, job, job_dir, tracer, index):
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    argv = job.argv + ["--out", str(job_dir)]
    if tracer is not None:
        tracer.job = index
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except Exception as exc:
        code = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None

    files = sorted(p for p in job_dir.iterdir() if p.is_file())
    rec = {"index": index, "kind": job.kind, "argv": job.argv,
           "seconds": seconds, "exit_code": code,
           "output_bytes": sum(p.stat().st_size for p in files),
           "outputs": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files}}
    if error is not None:
        rec["problems"] = [error]
        return rec, None
    try:
        outcome = job.check(str(job_dir), code)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        # a missing or malformed output file
        rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
        return rec, None
    rec["problems"] = list(outcome.problems)
    if outcome.ref_err is not None:
        rec["ref_err"] = outcome.ref_err
    return rec, outcome


def run_loop(cli, cycles, seconds, out_dir, tracer, cold_start):
    """Run whole cycles for about ``seconds``. When ``cold_start`` is given,
    it is called ``SETUP_REPEATS`` times at evenly spaced marks, off the
    loop's clock. Returns the job records, the loop time and the cold
    start times."""
    job_dir = out_dir / "job"
    records = []
    setup = []
    paused = 0.0
    start = time.perf_counter()

    def clock():
        return time.perf_counter() - start - paused

    while True:
        cycle = next(cycles)
        c0 = clock()
        outcomes = []
        for job in cycle.jobs:
            if cold_start is not None and len(setup) < SETUP_REPEATS \
                    and clock() >= len(setup) * seconds / SETUP_REPEATS:
                t0 = time.perf_counter()
                setup.append(cold_start())
                paused += time.perf_counter() - t0
            rec, outcome = run_job(cli, job, job_dir, tracer, len(records))
            records.append(rec)
            outcomes.append(outcome)
        members = records[-len(cycle.jobs):]
        if all(o is not None for o in outcomes):
            for check in cycle.checks:
                for problem in check(outcomes):
                    for rec in members:
                        rec["problems"].append(problem)
        end = clock()
        if end + (end - c0) / 2 > seconds:
            break
    while cold_start is not None and len(setup) < SETUP_REPEATS:
        setup.append(cold_start())
    shutil.rmtree(job_dir, ignore_errors=True)
    return records, end, setup


def end_to_end(records, wall, setup_samples):
    ok = [r for r in records if not r["problems"]]
    times = [r["seconds"] for r in ok]
    refs = [r["ref_err"] for r in records if "ref_err" in r]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(ok) / wall,
        "job_s.p50": statistics.median(times) if times else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "ref_err.max": max(refs) if refs else 0.0,
    }


def tail_note(records):
    """The highest percentile with at least ten jobs beyond it, or why
    there is none above the median."""
    times = sorted(r["seconds"] for r in records if not r["problems"])
    n = len(times)
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1.0 - pct / 100.0) >= 10:
            rank = min(n - 1, int(pct / 100.0 * n))
            return f"job_s.p{pct:g} = {times[rank]:.4f} s (n={n})"
    return f"n={n} jobs: no percentile above p50 has ten jobs beyond it"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="run record directory (default .perfbench_runs/"
                             "<workload>-seed<n>-trace<t>)")
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    if not (SRC / "motslab" / "__init__.py").is_file():
        sys.exit(f"motslab sources not found under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import motslab
    from motslab import cli
    if Path(motslab.__file__).resolve().parent != SRC / "motslab":
        sys.exit(f"imported motslab from {motslab.__file__}, not {SRC}")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(motslab)

    out_dir = Path(args.out) if args.out else (
        ROOT / ".perfbench_runs"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = metadata(args, nproc, workloads.GRID)
    print("meta " + json.dumps(meta, sort_keys=True))

    # Cold starts are timed only for setup_s, which the traced run omits.
    records, wall, setup_samples = run_loop(
        cli, workloads.cycles(args.workload, args.seed), args.seconds,
        out_dir, tracer,
        None if args.trace else lambda: cold_start(args.workload, args.seed))
    failed = [r for r in records if r["problems"]]
    problems = []
    if not any("ref_err" in r for r in records):
        problems.append("no reference job ran")

    if tracer is None:
        metrics = end_to_end(records, wall, setup_samples)
    else:
        metrics, self_sum, roots = tracer.summarize(
            r["index"] for r in records)
        gap = 0.0
        for rec in records:
            job = rec["index"]
            if roots[job] != ["cli.main"]:
                problems.append(f"job {job} has root spans {roots[job]}, "
                                "not one cli.main")
            share = (rec["seconds"] - self_sum[job]) / rec["seconds"]
            gap = max(gap, abs(share))
            if abs(share) > SPAN_GAP_TOL:
                problems.append(f"job {job}: self times sum to "
                                f"{self_sum[job]:.6f} s of "
                                f"{rec['seconds']:.6f} s")
        print(f"span gap: self times leave out at most {gap:.2e} of a job")
        metrics["cli.output_bytes"] = statistics.fmean(
            r["output_bytes"] for r in records)
        metrics["trace.jobs_per_s"] = (len(records) - len(failed)) / wall
        for rec in records:
            rec["counts"] = tracer.job_counts(rec["index"])
        tracer.dump(out_dir / "spans.json")

    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "setup_samples_s": setup_samples,
                   "wall_s": wall, "jobs": records,
                   "metrics": metrics},
                  fh, indent=1)

    kinds = {}
    for rec in records:
        kinds.setdefault(rec["kind"], []).append(rec["seconds"])
    for kind, times in kinds.items():
        print(f"job {kind}: n={len(times)} median "
              f"{statistics.median(times):.3f} s")
    print(tail_note(records))
    for rec in failed:
        print(f"FAILED job {rec['index']} {rec['kind']} "
              f"{' '.join(rec['argv'])}: {'; '.join(rec['problems'])}")
    for problem in problems:
        print(f"FAILED run: {problem}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"metrics not computed: {missing}")
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
