"""Count the source lines of every module of src/contmeas: all lines,
docstring lines and code lines, per module and in total.

    python3 tools/sloc.py [SRC_DIR]

A docstring line is a line of a module, class or function docstring.
A code line is any other line that is neither blank nor a comment, so
deleting a docstring lowers the first two counts and leaves the third.
Only the standard library's `ast` reads the source.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int, int]:
    """(all lines, docstring lines, code lines) of the module at `path`."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source, path))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in docs and line.strip()
               and not line.lstrip().startswith("#"))
    return len(lines), len(docs), code


def main(argv: list[str]) -> None:
    src = argv[0] if argv else os.path.join(ROOT, "src", "contmeas")
    rows = [(name,) + count(os.path.join(src, name))
            for name in sorted(os.listdir(src)) if name.endswith(".py")]
    rows.append(("total",) + tuple(map(sum, zip(*(r[1:] for r in rows)))))
    print(f"{'module':<16}{'lines':>7}{'docs':>7}{'code':>7}")
    for name, *numbers in rows:
        print(f"{name:<16}" + "".join(f"{x:>7}" for x in numbers))


if __name__ == "__main__":
    main(sys.argv[1:])
