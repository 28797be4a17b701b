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
