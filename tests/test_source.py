"""Checks over the package source: static scans, and the names the
benchmark tracer wraps."""

import ast
import pathlib
import subprocess
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "motslab"

# parameters an interface fixes: the vacuum extension's contraction ignores
# its vectors, and the oracle's fixed slice ignores its displacement
EXEMPT = {"ZeroExtension.contract", "variation_oracle.slice_at"}


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
        if name in EXEMPT or _only_raises(fn):
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


# public names that nothing in the package calls, and why each stays
UNREFERENCED_EXEMPT = {
    "variation_oracle": "test oracle of the first-variation formulas",
    "OracleResult.max_deviation": "read on the variation oracle's result",
    "finite_difference_clone": "test oracle of the analytic derivatives",
    "rescaled_clone": "test oracle of the scaling laws",
    "laplace_beltrami": "test oracle of the strong-form Laplacian",
    "stability_verdict": "becomes the stability audit (ROADMAP item 6)",
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
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
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
