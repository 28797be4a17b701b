"""Checks over the package source: static scans, and the names the
benchmark tracer wraps."""

import ast
import json
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "motslab"

def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _functions(tree):
    """(qualified name, node) of every function, methods and nested ones
    included."""
    stack = [("", tree)]
    while stack:
        owner, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
                if not isinstance(child, ast.ClassDef):
                    yield name, child
            stack.append((name, child))


def _only_raises(fn):
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value,
                                                    ast.Constant):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _unread_parameters(path):
    for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
        if _only_raises(fn):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg]
                  if a is not None and a.arg != "self"]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield from (f"{path.name}::{name}({p})" for p in params
                    if p not in read)


def test_every_parameter_is_read():
    unread = [u for path in sorted(SRC.glob("*.py"))
              for u in _unread_parameters(path)]
    assert unread == []


def _slow_numpy_calls(path):
    """Calls of np.linalg.inv, and calls passing ``optimize=`` (einsum)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func).endswith("linalg.inv"):
            yield f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
        if any(kw.arg == "optimize" for kw in node.keywords):
            yield f"{path.name}:{node.lineno} {ast.unparse(node.func)}" \
                  "(optimize=...)"


def test_no_lapack_inverse_or_optimized_einsum():
    # At 8192 points the closed-form symmetric 3x3 inverse took 0.3-0.45 ms
    # against 5-10 ms for np.linalg.inv, and on numpy 2.4 an einsum with
    # optimize= goes through bmm_einsum at about 1 ms a call: chaining
    # two-operand calls took compute_geometry from 63 ms to 45 ms (64x128
    # sphere, 2-core VM).
    slow = [c for path in sorted(SRC.glob("*.py"))
            for c in _slow_numpy_calls(path)]
    assert slow == []


# attributes that change an array's layout: np.moveaxis, a.swapaxes,
# a.transpose, a.T and np.ascontiguousarray
_LAYOUT_CONVERSIONS = {"moveaxis", "swapaxes", "transpose", "T",
                       "ascontiguousarray"}


def _layout_conversions(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) \
                and node.attr in _LAYOUT_CONVERSIONS:
            yield f"{path.name}:{node.lineno} {ast.unparse(node)}"


def test_surface_layer_holds_one_layout():
    # charts, SurfaceGeometry and BoundaryData are component-major like the
    # ambient jet, so the surface layer and its audits never transpose
    found = [c for name in ("surfaces.py", "audits.py")
             for c in _layout_conversions(SRC / name)]
    assert found == []


# public names that nothing in the package calls, and why each stays
UNREFERENCED_EXEMPT = {
    "AuditReport.flag": "the report's lookup of a flag by name",
    "_Parser.error": "argparse calls it on bad input",
}


def _public_definitions(tree):
    """(qualified name, name, node) of each public top-level function and
    each public method of a top-level class."""
    for node in tree.body:
        children = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in children:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not fn.name.startswith("_"):
                qual = fn.name if fn is node else f"{node.name}.{fn.name}"
                yield qual, fn.name, fn


def _referenced_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _unreferenced():
    trees = _trees()
    refs = Counter(r for tree in trees.values()
                   for r in _referenced_names(tree))
    for module, tree in trees.items():
        for qual, name, fn in _public_definitions(tree):
            # a call from the function's own body does not keep it alive
            if refs[name] == Counter(_referenced_names(fn))[name] \
                    and qual not in UNREFERENCED_EXEMPT:
                yield f"{module}::{qual}"


def test_every_public_function_is_referenced():
    assert list(_unreferenced()) == []


# the records whose fields the scan below checks, by module
RECORDS = {"initialdata.py": ("InitialData", "AmbientJet"),
           "grids.py": ("Metric2Field",),
           "surfaces.py": ("SurfaceChart", "SurfaceGeometry", "BoundaryData"),
           "spectra.py": ("OperatorMatrix", "EigenResult")}

# the names that hold each record where the package reads its fields: a
# read counts only through one of them (the last name before the field, or
# the function whose call returns the record), or through ``self`` in the
# record's own methods. The first name is the record's own; each other one
# is listed with where it holds the record.
HOLDERS = {
    "InitialData": ("data",),
    "AmbientJet": ("jet",
                   "ring"),         # the last ring's jet, _boundary_data
    "Metric2Field": ("metric",),
    "SurfaceChart": ("chart",
                     "surface"),    # compute_geometry's chart argument
    "SurfaceGeometry": ("geom",
                        "geometry"),    # OperatorMatrix.geometry, spectra
    "BoundaryData": ("b",
                     "boundary"),   # SurfaceGeometry.boundary
    "OperatorMatrix": ("opmat",),
    "EigenResult": ("res",
                    "res_L", "res_Ls",      # audits
                    "result",               # cli.run_eigen
                    "principal_eigenvalue"),    # the call returns it
}

# fields that nothing in the package reads, and why each stays
UNREAD_FIELD_EXEMPT = {
    "SurfaceGeometry.A": "the definitional identity tests read it",
    "SurfaceGeometry.k_S": "the definitional identity tests read it",
    "SurfaceGeometry.chi_p": "the definitional identity tests read it",
    "SurfaceGeometry.chihat_m": "the definitional identity tests read it",
    "SurfaceGeometry.R_M": "the Gauss-equation test reads it",
    "BoundaryData.nu_chart": "tests/synthetic_fields.py recomputes W_nu",
    "BoundaryData.cos_gamma": "the free-boundary tests read it",
}


def _record_fields(trees):
    """(qualified name, name) of each field of the RECORDS classes: the
    annotated fields of a dataclass, the ``self`` attributes that
    ``__init__`` assigns otherwise."""
    for module, classes in RECORDS.items():
        for node in trees[module].body:
            if not (isinstance(node, ast.ClassDef) and node.name in classes):
                continue
            names = [f.target.id for f in node.body
                     if isinstance(f, ast.AnnAssign)]
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    names += [t.attr for n in ast.walk(fn)
                              if isinstance(n, ast.Assign)
                              for target in n.targets
                              for t in ast.walk(target)
                              if isinstance(t, ast.Attribute)
                              and isinstance(t.value, ast.Name)
                              and t.value.id == "self"]
            yield from ((f"{node.name}.{name}", name) for name in names)


def _holder(node):
    """The last name of the expression a field is read from."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _field_reads(tree):
    """(record, field) of each attribute load through a HOLDERS name or
    through ``self`` in a method of a record."""
    held = {name: record for record, names in HOLDERS.items()
            for name in names}
    stack = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) \
                    and isinstance(child.ctx, ast.Load):
                holder = _holder(child.value)
                record = owner if holder == "self" else held.get(holder)
                if record is not None:
                    yield record, child.attr
            stack.append((child.name if isinstance(child, ast.ClassDef)
                          else owner, child))


def _unread_fields():
    trees = _trees()
    read = {f"{record}.{name}" for tree in trees.values()
            for record, name in _field_reads(tree)}
    for qual, _ in _record_fields(trees):
        if qual not in read and qual not in UNREAD_FIELD_EXEMPT:
            yield qual


def test_every_record_field_is_read():
    # a field that nothing reads is computed (or stored) for nothing
    assert list(_unread_fields()) == []


def test_every_exemption_names_a_definition():
    # an exemption left behind by a name that moved or went would exempt a
    # later definition of that name unseen
    trees = _trees()
    defined = [
        (UNREFERENCED_EXEMPT, {qual for tree in trees.values()
                               for qual, _, _ in _public_definitions(tree)}),
        (UNREAD_FIELD_EXEMPT, {qual for qual, _ in _record_fields(trees)}),
    ]
    stale = [key for exempt, names in defined for key in exempt
             if key not in names]
    assert stale == []


def test_benchmark_tracer_installs():
    # the tracer wraps module attributes by name (spectra.splu and
    # spectra.eigsh among them), so a name it wraps must stay in place
    script = ("import sys; sys.path[:0] = sys.argv[1:]\n"
              "import motslab, motslab.cli\n"
              "from tracing import Tracer\n"
              "Tracer().install(motslab)\n")
    run = subprocess.run(
        [sys.executable, "-c", script, str(SRC.parent),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_import_motslab_loads_no_layer():
    # a layer is imported on first attribute access, so a process loads
    # only the layers its command runs
    script = ("import sys; sys.path[:0] = sys.argv[1:]\n"
              "import motslab\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('motslab.'))\n"
              "assert loaded == [], loaded\n"
              "assert motslab.spectra.__name__ == 'motslab.spectra'\n"
              "assert 'motslab.spectra' in sys.modules\n")
    run = subprocess.run([sys.executable, "-c", script, str(SRC.parent)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


_WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_traced_benchmark_cycle_is_correct(tmp_path, workload):
    # one traced cycle: every job passes its output check, each job has one
    # cli.main root span, and its self times sum to its wall time
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.01", "--trace", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"], run.stdout
