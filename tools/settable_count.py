"""Count the settable values of the rdlearn package.

A settable value is a name a caller or a subclass can give a value to:

- every parameter of every function, method, lambda and closure
  (positional-only, positional, *args, keyword-only and **kwargs), with
  `cls` counted and `self` not;
- every class-level data attribute: a name assigned, with or without an
  annotation, directly in a class body (dataclass fields among them).

The count is read from the source by the standard library's `ast`, so it
needs nothing installed. Run it from the root of a checkout; it prints
one total for src/rdlearn:

    python3 tools/settable_count.py
"""

from __future__ import annotations

import ast
import pathlib


def settable_values(tree: ast.AST) -> int:
    """The number of settable values defined anywhere in one module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            count += sum(name != "self" for name in names)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                count += sum(isinstance(t, ast.Name) for t in targets)
    return count


if __name__ == "__main__":
    files = sorted(pathlib.Path("src/rdlearn").glob("*.py"))
    if not files:
        raise SystemExit("no src/rdlearn/*.py here: run from the root of a checkout")
    print(sum(settable_values(ast.parse(path.read_text(), filename=str(path))) for path in files))
