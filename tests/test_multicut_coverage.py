"""Every statement of the multicut runs in some example, except those listed.

The generated families reach only part of the multicut, so a branch that
no test runs can break unseen.  This guard lists the statements of
`_mcut_leaf`, `_mcut_step`, `_split`, `_principalize_right`, `_weaken_to`
and the entries of the left-rule table with `ast`, runs the hand-built
cuts of `tests/multicut_cases.py` under a line trace limited to
`cutelim.py`, and fails on any statement none of them reaches.  The allowlist names each
exempt statement, by its function and its text, with the reason it
cannot run; a new branch must come with a case that runs it, and an entry
whose statement now runs, or is gone, must leave.
"""

import ast
import inspect
import sys
import textwrap

import pytest

from feaslab import cutelim
from feaslab.cutelim import FragmentError, eliminate_cuts
from multicut_cases import CASES, FRAGMENT_CASES

INTERNAL = "internal consistency: the multicut's own arguments never break it"

# (function, statement text) -> why no cut can run the statement
ALLOWED = {
    (
        "_mcut_leaf",
        'raise KernelError("multicut multiplicity exceeds the available occurrences")',
    ): INTERNAL,
    ("_mcut_leaf", 'raise KernelError("multicut premises must be cut-free")'): INTERNAL,
    (
        "_weaken_to",
        'raise KernelError("weakening target must extend the proved sequent")',
    ): INTERNAL,
    (
        "_split",
        'raise FragmentError( f"cut formula {a!r} is tied to rule '
        '{p2.rule.tag} in an unsupported way" )',
    ): (
        "a rule that does not introduce a fragment formula keeps each of its "
        "antecedent copies in some premise"
    ),
    ("_principalize_right", 'raise FragmentError("theory leaves conclude atoms only")'): (
        "only an implication or a universal formula is principalized, and a "
        "theory leaf concludes an atom"
    ),
    (
        "_principalize_right",
        'raise FragmentError("cannot principalize a weakened cut formula of this shape")',
    ): "only an implication or a universal formula is principalized",
    (
        "_principalize_right",
        'raise FragmentError(f"cannot locate {a!r} for principalization in {tag}")',
    ): (
        "a rule that does not introduce a compound formula on the right keeps "
        "each of its succedent copies in some premise"
    ),
}


def guarded_functions() -> list:
    return [
        cutelim._mcut_leaf,
        cutelim._mcut_step,
        cutelim._split,
        cutelim._principalize_right,
        cutelim._weaken_to,
        *cutelim._LEFT_RULES.values(),
    ]


def statements(fn) -> dict:
    """(function name, statement text) -> the line sets of fn that carry
    the code of each statement with that text alone, for the statements
    the interpreter can trace.  A compound statement owns its header, not
    its body, and its text is its header's."""
    source, first = inspect.getsourcelines(fn)
    root = ast.parse(textwrap.dedent("".join(source))).body[0]
    lines_with_code = {line for _, _, line in fn.__code__.co_lines() if line is not None}
    out = {}
    for node in ast.walk(root):
        if not isinstance(node, ast.stmt) or node is root:
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        own = range(node.lineno, end + 1)
        code = {first - 1 + line for line in own} & lines_with_code
        if code:
            text = " ".join(source[line - 1].strip() for line in own)
            out.setdefault((fn.__name__, text), []).append(code)
    return out


def traced_lines(run) -> set:
    """The lines of cutelim.py that run() executes."""
    path = cutelim.__file__
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def run_cases():
    for build in CASES.values():
        p, theory = build()
        eliminate_cuts(p, theory)
    for build, message in FRAGMENT_CASES.values():
        p, theory = build()
        with pytest.raises(FragmentError, match=message):
            eliminate_cuts(p, theory)


def test_every_multicut_statement_runs():
    seen = traced_lines(run_cases)
    missed = set()
    for fn in guarded_functions():
        for key, occurrences in statements(fn).items():
            if any(not code & seen for code in occurrences):
                missed.add(key)
    assert missed == set(ALLOWED)


def test_statements_own_their_headers_only():
    def sample(x):
        if x:
            y = 1
        else:
            y = 2
        return y

    got = statements(sample)
    assert set(got) == {
        ("sample", "if x:"),
        ("sample", "y = 1"),
        ("sample", "y = 2"),
        ("sample", "return y"),
    }
    assert all(len(code) == 1 for occurrences in got.values() for code in occurrences)
    assert traced_lines(lambda: sample(0)) == set()  # other files are not traced
