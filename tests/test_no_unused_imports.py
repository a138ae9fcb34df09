"""No module of the package imports a name it never uses.

A dead import keeps a module coupled to another for nothing (the kernel
once imported `semantics` only for a size measure no one read).  Only
imports at module level are checked.  Package `__init__.py` files
re-export what they import, and `from __future__` imports are
directives, so both are skipped.  A name counts as used when it is read anywhere in the module,
including in a quoted annotation.
"""

import ast
from pathlib import Path

import feaslab


def imported_names(tree):
    """(name bound by an import, line) for each module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def annotations(tree):
    for n in ast.walk(tree):
        if isinstance(n, ast.arg):
            yield n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield n.returns
        elif isinstance(n, ast.AnnAssign):
            yield n.annotation


def used_names(tree):
    """Names read in tree, also inside quoted annotations like "mod.Cls"."""
    nodes = list(ast.walk(tree))
    for a in annotations(tree):
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            nodes.extend(ast.walk(ast.parse(a.value, mode="eval")))
    return {n.id for n in nodes if isinstance(n, ast.Name)}


def unused_imports():
    found = []
    for path in sorted(Path(feaslab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = used_names(tree)
        for name, line in imported_names(tree):
            if name not in used:
                found.append(f"{path.name}:{line}: {name}")
    return found


def test_no_unused_imports():
    assert unused_imports() == []


def test_ratchet_sees_an_unused_import():
    tree = ast.parse(
        "import os, re\nfrom math import pi, tau\nprint(tau)\ndef f(x: 're.Match'): pass\n"
    )
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["os", "pi"]
