#!/usr/bin/env python
"""Count code-only lines of the source tree.

The size number every simplification PR quotes: physical lines that carry
code, i.e. not blank, not comment-only and not part of a docstring.
Shrinking a file by deleting its documentation does not move it, and
neither does reflowing comments.  Standard library only (:mod:`ast` finds
the docstrings, :mod:`tokenize` finds the lines that hold a real token).

Usage::

    python scripts/count_code_lines.py [PATH ...]

With no argument counts ``src/repro`` and prints one row per package
(top-level modules under ``(top level)``) and the total; with arguments
prints one row per given file or directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of ``path`` holding a token outside comments and docstrings."""
    source = path.read_text()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(path: Path) -> int:
    """Code-only lines of one file or of every ``*.py`` under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f) for f in files)


def main(argv: list[str]) -> int:
    if argv:
        rows = [(arg, count(Path(arg))) for arg in argv]
    else:
        rows = [
            (p.name + "/", count(p))
            for p in sorted(SRC.iterdir())
            if p.is_dir() and p.name != "__pycache__"
        ]
        rows.append((
            "(top level)", sum(code_lines(p) for p in sorted(SRC.glob("*.py")))
        ))
    width = max(len(label) for label, _ in rows)
    for label, n in rows:
        print(f"{label:<{width}}  {n:>7,}")
    print(f"{'total':<{width}}  {sum(n for _, n in rows):>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
