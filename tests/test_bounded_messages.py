"""No error text spells out a term, formula or sequent in full.

A proof file of a few hundred bytes can hold a term of 2^40 nodes as a
tree, so a message that writes such a term with the full printers asks
for terabytes.  Messages name terms, formulas and sequents by `repr` or
`sequent_brief`, which write a size summary past `lang._MAX_PRINTED_NODES`
tree nodes.  This scan parses every module of the package, as
`test_no_unused_imports` does, and fails on a call of a full printer
inside a `raise` statement or an argument of `_fail`.
"""

import ast
from pathlib import Path

import feaslab

PRINTERS = {"formula_str", "term_str", "sequent_str", "Printer"}
PACKAGE = Path(feaslab.__file__).parent


def called_name(call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else None


def printer_calls(tree):
    """(line, printer) for each full-printer call inside a raise or a
    `_fail` call, in line order."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            parts = [node.exc, node.cause]
        elif isinstance(node, ast.Call) and called_name(node) == "_fail":
            parts = node.args + [k.value for k in node.keywords]
        else:
            continue
        for part in filter(None, parts):
            for n in ast.walk(part):
                if isinstance(n, ast.Call) and called_name(n) in PRINTERS:
                    found.add((n.lineno, called_name(n)))
    return sorted(found)


def test_no_message_spells_out_a_term():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in printer_calls(tree)]
    assert found == []


def test_scan_sees_a_full_printer_in_a_message():
    tree = ast.parse(
        'raise E(f"bad {formula_str(f)}")\n'
        '_fail(node, "x" + lang.term_str(t))\n'
        "raise E(Printer((s,)).sequent(s)) from None\n"
        'raise E(f"ok {f!r}")\n'
        "print(sequent_str(s))\n"
    )
    assert printer_calls(tree) == [(1, "formula_str"), (2, "term_str"), (3, "Printer")]


def test_checking_modules_import_no_full_printer():
    for name in ("kernel", "cutelim", "generators", "oracle"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not imported & {"formula_str", "term_str", "sequent_str"}, name
