"""Every top-level function and class of the package has a caller.

A definition that nothing in src, benchmarks, demos or tools names is code
that no user reaches, kept alive only by its own tests (a triviality
theory and a matrix formula helper once sat in `theories` that way).  A
name counts as named when it occurs as a word anywhere in a module there,
docstrings and comments included, other than in its own definition and
in a package `__init__.py`, whose imports only re-export.  ALLOWED holds
the definitions that wait for a caller, each with the reason, and must
name only definitions that still have none.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
READERS = ("src", "benchmarks", "demos", "tools")

_ITEM_2 = "ROADMAP item 2 gives it a caller"
ALLOWED = {
    "exists_left": _ITEM_2,
    "not_left": _ITEM_2,
    "not_right": _ITEM_2,
    "or_left": _ITEM_2,
    "or_right": _ITEM_2,
}


def words(text):
    return Counter(re.findall(r"[A-Za-z_]\w*", text))


def definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def unnamed(sources):
    """(name, file, line) of each top-level definition in sources (file ->
    text) that no file but the definition itself names."""
    named = Counter()
    for text in sources.values():
        named += words(text)
    for path, text in sources.items():
        for name, line in definitions(ast.parse(text, path)):
            if named[name] == 1:  # the word of the definition alone
                yield name, path, line


def orphans():
    sources = {}
    for part in READERS:
        for path in sorted((ROOT / part).rglob("*.py")):
            if path.name != "__init__.py":
                sources[str(path.relative_to(ROOT))] = path.read_text()
    return {
        name: f"{path}:{line}"
        for name, path, line in unnamed(sources)
        if path.startswith("src/feaslab/")
    }


def test_no_orphans():
    found = orphans()
    assert {n: at for n, at in found.items() if n not in ALLOWED} == {}
    assert sorted(set(ALLOWED) - set(found)) == []  # a caller came: drop the entry


def test_scan_sees_an_orphan():
    sources = {
        "a.py": "def f(): return g\ndef g(): pass\nclass C: pass\n",
        "b.py": "# C is named here\ndef h(): pass\n",
    }
    assert [n for n, _, _ in unnamed(sources)] == ["f", "h"]
