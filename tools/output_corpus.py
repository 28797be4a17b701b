"""Byte-level record of what a fixed corpus of motslab commands gives.

    python3 tools/output_corpus.py [--root CHECKOUT] --out corpus.json
    python3 tools/output_corpus.py --compare A.json B.json

The first form runs every command line of ``corpus()`` in-process through
``motslab.cli.main``, each with its own empty ``--out`` directory, and
writes per command line the exit code, the SHA-256 of its stdout and
stderr, and the text of each file it wrote (the SHA-256 of
``eigenfunction.csv``, one row per node). ``--root`` names the checkout
whose ``src/motslab`` runs (by default the one holding this tool), so a
record of a parent commit and one of a change come from the same corpus.

The second form lists the command lines whose entries differ between two
records, or that only one of them holds, and exits 1 if there is any. Under
each differing line it prints every changed CSV cell as
``file key: old → new (relative change)``, where the key is a ``key,value``
file's key, or a table's column (prefixed by its row number when the table
has more than one row).

The corpus: the first seed-1 cycle of each benchmark workload (read from
``perfbench/workloads.py`` of this tool's checkout), the two determinism
runs of acceptance criterion 10, ``constraints`` on every catalog entry,
``surface`` on flat and de Sitter spheres and plane-supported disks,
``eigen`` with each operator, ``cy-estimate``, ``g-quantity`` and
``hawking-bound`` on a de Sitter sphere, ``g-quantity`` and
``hawking-bound`` on an off-centre isotropic Schwarzschild sphere (where
g(N, N) > 1 at some nodes, so Lambda (1 - g(N, N)) at Lambda = 0 is -0.0
there), ``diameter`` on the isotropic and PG horizon hemispheres (where
both infima are zero up to rounding), ``catalog``, a sweep, and spec
strings that give a key twice.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID = "32x64"
OPERATORS = ("L", "Ls", "Hstab-N", "Hstab-lminus")
HASHED = ("eigenfunction.csv",)   # files recorded by their SHA-256 only
DATA = ("minkowski", "hyperboloidal", "hyperboloidal:scale=2",
        "schwarzschild-iso:m=1", "schwarzschild-pg:m=0.7")


def _workload_argv():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [argv for name in workloads.WORKLOADS
            for argv in workloads.argv_list(name, 1, 1)]


def corpus():
    """The command lines of the corpus, without ``--out``."""
    grid = ["--grid", GRID]
    runs = _workload_argv()
    runs += [
        ["audit", "--theorem", "cy-estimate", "--data", "hyperboloidal",
         "--surface", "sphere:r=0.5", "--grid", "32x64", "--seed", "7"],
        ["eigen", "--operator", "Ls", "--bc", "closed",
         "--data", "schwarzschild-iso:m=1", "--surface", "sphere:r=0.5",
         "--grid", "32x64", "--seed", "7"],
    ]
    runs += [["constraints", "--data", data] for data in DATA]
    runs += [["surface", "--data", data, "--surface", surface] + grid
             for data, surface in [
                 ("minkowski", "sphere:r=1"),
                 ("minkowski", "sphere:r=1.5,cx=0.2,cz=-0.1"),
                 ("hyperboloidal", "sphere:r=0.5"),
                 ("hyperboloidal:scale=2", "sphere:r=1,cy=0.3"),
                 ("minkowski", "disk:r=1,support=plane"),
                 ("hyperboloidal", "disk:r=0.8,z=0.2,support=plane:z=0.2"),
                 ("schwarzschild-iso:m=1", "ellipsoid:a=1,b=1.2,c=1.5")]]
    for op in OPERATORS:
        runs += [["eigen", "--operator", op, "--bc", bc, "--data", data,
                  "--surface", surface] + grid
                 for data, surface, bc in [
                     ("schwarzschild-pg:m=1", "sphere:r=1,cx=0.4", "closed"),
                     ("hyperboloidal", "sphere:r=0.5", "closed"),
                     ("hyperboloidal", "cap:r=0.8,support=plane",
                      "robin:free"),
                     ("minkowski", "disk:r=1,support=ball:r=1",
                      "robin:gamma=1.2")]]
    runs += [["audit", "--theorem", theorem, "--data", "hyperboloidal",
              "--surface", "sphere:r=0.5"] + grid
             for theorem in ("cy-estimate", "g-quantity", "hawking-bound")]
    # at 64x128 the minimum of G(l-, l-) over the nodes of this sphere is
    # a zero, so the sign of a zero shows in the printed evidence
    runs += [["audit", "--theorem", theorem, "--data", "schwarzschild-iso:m=1",
              "--surface", "sphere:r=3,cx=0.3,cz=0.1", "--grid", "64x128"]
             for theorem in ("g-quantity", "hawking-bound")]
    # horizon hemispheres on their planes of symmetry: both infima of the
    # diameter audit are zero up to rounding, whose sign differs between
    # the two slicings
    runs += [["audit", "--theorem", "diameter", "--data", data,
              "--surface", surface, "--grid", "64x128"]
             for data, surface in (("schwarzschild-iso:m=1", "cap:r=0.5"),
                                   ("schwarzschild-pg:m=1", "cap:r=2"))]
    runs += [["catalog"]]
    runs += [
        ["sweep", "--sweep-param", "data:m", "--sweep-from", "0.8",
         "--sweep-to", "1.2", "--sweep-steps", "3",
         "--data", "schwarzschild-iso:m=1", "--surface", "sphere:r=0.5"]
        + grid,
        ["surface", "--data", "schwarzschild-iso:m=1,m=2",
         "--surface", "sphere:r=1,r=3"] + grid,
        ["surface", "--data", "minkowski",
         "--surface", "disk:r=1,support=plane,support=plane:z=1"] + grid,
        ["sweep", "--sweep-param", "surface:r", "--data", "minkowski",
         "--surface", "sphere:r=1,cx=0,cx=1"] + grid,
    ]
    return runs


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def record(main, argv):
    """Exit code and hashes of one in-process run of ``main``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", tmp])
            except Exception as exc:  # noqa: BLE001 - the corpus runs on
                code = f"raised {type(exc).__name__}"
                traceback.print_exc()
        files = {str(p.relative_to(tmp)): (_sha(p.read_bytes())
                                           if p.name in HASHED
                                           else p.read_text(encoding="utf-8"))
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
    return {"argv": argv, "exit": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def run_corpus(root):
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from motslab import cli

    return {"root": str(Path(root).resolve()),
            "runs": [record(cli.main, argv) for argv in corpus()]}


def _by_line(rec):
    return {" ".join(r["argv"]): r for r in rec["runs"]}


def compare(first, second):
    """The argv (joined) whose entries differ or appear in one record, and
    the number of distinct command lines the two records hold."""
    a, b = _by_line(first), _by_line(second)
    keys = list(dict.fromkeys([*a, *b]))
    return [key for key in keys if a.get(key) != b.get(key)], len(keys)


def _cells(text):
    """{key: value} of a CSV text: a ``key,value`` file's rows, or a table's
    cells keyed by column (and by row number when there is more than one
    row)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    if header == ["key", "value"]:
        return {row[0]: row[1] for row in body if row}
    return {(f"[{i}] {name}" if len(body) > 1 else name): value
            for i, row in enumerate(body, 1)
            for name, value in zip(header, row)}


def _relative(old, new):
    try:
        old, new = float(old), float(new)
    except (TypeError, ValueError):
        return ""
    if old == new or old == 0.0:
        return ""
    return f" ({(new - old) / abs(old):+.2e})"


def changed_cells(old_run, new_run):
    """``file key: old → new (relative change)`` for each CSV cell that
    differs between two runs of one command line; the other differences
    (exit code, stdout, stderr, hashed or missing files) by name."""
    if old_run is None or new_run is None:
        return ["only in " + ("B" if old_run is None else "A")]
    lines = [f"{name} differs" for name in ("exit", "stdout", "stderr")
             if old_run[name] != new_run[name]]
    old_files, new_files = old_run["files"], new_run["files"]
    for name in dict.fromkeys([*old_files, *new_files]):
        old, new = old_files.get(name), new_files.get(name)
        if old == new:
            continue
        if old is None or new is None or name in HASHED:
            lines.append(f"{name} differs")
            continue
        a, b = _cells(old), _cells(new)
        lines += [f"{name} {key}: {a.get(key)} → {b.get(key)}"
                  f"{_relative(a.get(key), b.get(key))}"
                  for key in dict.fromkeys([*a, *b])
                  if a.get(key) != b.get(key)]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT),
                        help="checkout whose src/motslab runs")
    parser.add_argument("--out", help="where to write the record")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two records to compare")
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8"))
                         for p in args.compare)
        diff, total = compare(first, second)
        a, b = _by_line(first), _by_line(second)
        for key in diff:
            print(f"differs: {key}")
            for line in changed_cells(a.get(key), b.get(key)):
                print(f"  {line}")
        print(f"{len(diff)} of {total} command lines differ")
        return 1 if diff else 0
    if not args.out:
        parser.error("--out is required unless --compare is given")
    result = run_corpus(args.root)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                              encoding="utf-8")
    print(f"{len(result['runs'])} command lines recorded in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
