"""Static checks over the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "motslab"

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
