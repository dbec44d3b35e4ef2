#!/usr/bin/env python
"""Lint module-level imports that nothing in their module uses.

A dead import is a dependency the reader has to rule out by hand, and in
the hot packages an import ``import repro`` pays for nothing.  This lint
walks every module under ``src/``, ``tests/`` and ``scripts/`` with
:mod:`ast` (no imports, standard library only) and reports each name a
module-level ``import`` / ``from ... import`` binds that the module never
reads.  Exempt are:

* ``__init__.py`` files, whose imports are the package's re-exports;
* names listed in the module's ``__all__``;
* ``from __future__`` imports and star imports;
* an import line carrying ``# noqa`` (an import kept for its side
  effect).

A name counts as used wherever it is loaded, including inside a quoted
annotation.

Usage::

    python scripts/check_imports.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = ("src", "tests", "scripts")


def module_imports(tree: ast.Module):
    """``(name, line)`` of every name a module-level import binds,
    including imports nested in module-level ``if`` / ``try`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                stack += handler.body
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= used_names(ast.parse(ann.value, mode="eval"))
    return names


def declared_all(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every unused module-level import of ``path``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    keep = used_names(tree) | declared_all(tree)
    return sorted(
        (line, name) for name, line in module_imports(tree)
        if name not in keep and "noqa" not in lines[line - 1]
    )


def main() -> int:
    failures = 0
    for root in ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path):
                print(f"{path.relative_to(REPO)}:{line}: unused import "
                      f"{name!r}")
                failures += 1
    if failures:
        print(f"{failures} unused module-level import(s)")
        return 1
    print("imports: every module-level import is used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
