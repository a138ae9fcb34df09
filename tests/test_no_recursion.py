"""No function of the package calls itself by name, except those listed.

Terms, formulas and proofs nest far deeper than the interpreter lets a
function recurse, so walkers use explicit stacks or `lang.fold`.  The
allowlist names each remaining self-call and why it stays bounded; a new
one must be added here with its reason, and one that is gone must leave.
"""

import ast
from pathlib import Path

import feaslab

ALLOWED = {
    "_in_fragment": "one frame per connective of a cut formula; goes with ROADMAP item 2",
    "_principalize_right": "one frame per inference it commutes past, like _mcut; ROADMAP item 4",
    "_rat_construction": "one frame per node of a small matrix-entry term",
    "peel_forall_left": "one frame per quantified matrix entry (four)",
    "nat_eq": "one frame per level of a power tower",
    "nat_log2": "one frame per level of a power tower",
    "nat_str": "one frame per level of a power tower",
    "_big_shift": "one frame per level of a power tower",
    "rational_term": "one level, for the sign of a negative rational",
}


def self_calls():
    """Names of the functions in the package that call themselves by name."""
    found = set()
    for path in sorted(Path(feaslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == node.name
                    ):
                        found.add(node.name)
    return found


def test_no_new_recursion():
    assert self_calls() == set(ALLOWED)
