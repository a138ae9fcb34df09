"""The mutant table: would the tests notice a wrong fast path or message?

    python3 tools/mutants.py

Each mutant names a file of src/feaslab, an exact text that occurs there
once, its replacement, the tests that should fail on it and a timeout.
For each mutant the script copies src/ and tests/ of this checkout to a
fresh scratch directory, applies the one replacement and runs pytest on
the named tests in a child process.  The child runs under an
address-space limit of LIMIT_BYTES, since several mutants undo a bound
and would otherwise ask for terabytes.  The script prints a Markdown
table with one row per mutant: killed (some named test failed, listed),
survived (every named test passed) or timed out.

Before any mutant, every named test runs once on an unmutated copy under
the same limit; if one fails there, the table would mean nothing and the
script stops.  tests/test_mutants.py checks, in tier 1, that every
mutant's text still occurs exactly once.
"""

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT_BYTES = 2**30


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/feaslab
    text: str  # occurs exactly once in the file
    replacement: str
    tests: Tuple[str, ...]  # pytest arguments, relative to the checkout
    timeout: float  # seconds


# a call of the full printers that needs no import in the mutated module
_FULL = "__import__('feaslab.lang').lang."
_SCAN = "tests/test_bounded_messages.py"


def _on_printer(name, file, text, printer="formula_str", tests=()):
    """A message put back on a full printer: `{x!r}` in text becomes
    `{printer(x)}`."""
    spelled = re.sub(r"\{([^{}]+)!r\}", lambda m: "{" + _FULL + f"{printer}({m[1]})" + "}", text, 1)
    return Mutant(name, file, text, spelled, (_SCAN, *tests), 120)


_CLI = "tests/test_cli.py::"
_THEORIES = "tests/test_theories.py::"
_CUTELIM = "tests/test_cutelim.py::"
_FALLS_BACK = (
    f"{_THEORIES}test_rat_definedness_falls_back_on_a_zero_residue",
    f"{_THEORIES}test_check_never_evaluates_fibonacci_powers_exactly",
    f"{_CLI}test_check_decides_a_huge_multiple_of_the_first_prime_by_residues",
)
_PAST_BUDGET = f"{_CLI}test_a_true_equation_past_an_evaluation_budget_is_one_short_error_line"
_ENDPOINT = (
    f"{_THEORIES}test_orbit_endpoint_at_inf_is_refused_before_the_proof",
    f"{_CLI}test_error_paths",
    "tests/test_generators.py::test_orbit_rejects_infinite_points",
)

_MEMO = """out = st.mcut_memo.get(call)
        if out is None:
            out = _mcut_leaf(*call, st)
            if out is None:  # a new frame starts on None
                stack.append((call, _mcut_step(*call, st)))
            else:
                st.mcut_memo[call] = out
        while stack:  # run the top frame to its next call or its end
            args, frame = stack[-1]
            try:
                call = frame.send(out)
                break
            except StopIteration as stop:
                st.mcut_memo[args] = out = stop.value"""

MUTANTS = (
    # every message that names a term, formula or sequent, put back on a
    # full printer: the scan kills each, and a CLI test the ones it reaches
    _on_printer("kernel._remove_one message", "kernel.py", 'f"formula {f!r} not present"'),
    _on_printer("kernel.introduce message", "kernel.py", 'f"{rule.tag} cannot introduce {f!r}"'),
    _on_printer(
        "kernel._analyze_eq_oracle message",
        "kernel.py",
        'f"oracle verdict for {f!r} is {verdict!r}"',
        tests=(f"{_CLI}test_a_rejected_huge_equation_is_one_short_error_line",),
    ),
    _on_printer("kernel._ancestry message", "kernel.py", 'f"unmatched context occurrence {f!r}"'),
    _on_printer(
        "kernel._analyze_theory_axiom message",
        "kernel.py",
        'f"premise {k} must prove {phis[k]!r} on the right"',
    ),
    _on_printer(
        "cutelim budget message",
        "cutelim.py",
        'f"on {a!r}"',
        tests=(f"{_CLI}test_cut_elimination_past_its_budget_names_a_huge_cut_formula",),
    ),
    _on_printer("cutelim._split message", "cutelim.py", 'f"cut formula {a!r} is tied to rule'),
    _on_printer(
        "cutelim._principalize_right message",
        "cutelim.py",
        'f"cannot locate {a!r} for principalization',
    ),
    _on_printer(
        "cutelim.eliminate_cuts fragment message",
        "cutelim.py",
        'f"cut formula {a!r} lies outside the "',
        tests=(f"{_CLI}test_a_huge_cut_conjunction_is_one_short_error_line",),
    ),
    _on_printer(
        "generators._rat_construction message",
        "generators.py",
        'f"cannot build a feasibility proof for {u!r}"',
        printer="term_str",
    ),
    Mutant(
        "oracle: _bidi_bfs names its target eagerly",
        "oracle.py",
        "return _bidi_bfs(start, target, moves, radius, t)",
        f"return _bidi_bfs(start, target, moves, radius, {_FULL}term_str(t))",
        ("tests/test_oracle.py",),
        120,
    ),
    Mutant(
        "lang: _MAX_PRINTED_NODES past the CLI tests' terms",
        "lang.py",
        "_MAX_PRINTED_NODES = 10**6",
        "_MAX_PRINTED_NODES = 10**13",
        (
            f"{_CLI}test_flow_dot_summarizes_huge_labels",
            f"{_CLI}test_a_rejected_huge_equation_is_one_short_error_line",
            f"{_CLI}test_cut_elimination_past_its_budget_names_a_huge_cut_formula",
            f"{_CLI}test_a_huge_cut_conjunction_is_one_short_error_line",
        ),
        300,
    ),
    # the modular test for huge rationals (three primes, then eval_rat)
    Mutant(
        "semantics: only the first prime tried",
        "semantics.py",
        "            pass\n    eval_rat(t)",
        "            break\n    eval_rat(t)",
        _FALLS_BACK,
        300,
    ),
    Mutant(
        "semantics: one residue table shared by all primes",
        "semantics.py",
        "table = memo.get(p)\n        if table is None:\n            table = memo[p] = {}",
        "table = memo.get(0)\n        if table is None:\n            table = memo[0] = {}",
        _FALLS_BACK,
        300,
    ),
    Mutant(
        "semantics: an inconclusive last prime read as defined",
        "semantics.py",
        "            pass\n    eval_rat(t)",
        "            pass",
        (
            f"{_THEORIES}test_rat_validator_rejects_undefined_instantiation",
            f"{_THEORIES}test_rat_definedness_matches_exact_evaluation",
            f"{_THEORIES}test_rat_definedness_with_a_shared_memo_matches_exact_evaluation",
            f"{_THEORIES}test_rat_definedness_falls_back_on_a_zero_residue",
            f"{_CLI}test_check_rejects_an_undefined_conclusion",
            *_ENDPOINT,
        ),
        300,
    ),
    Mutant(
        "generators: the orbit's endpoint test dropped",
        "generators.py",
        'check_rat_defined(app("inv", den), {})',
        "pass",
        (*_ENDPOINT, "tests/test_no_unused_imports.py"),
        300,
    ),
    # the evaluation budgets: without one, a file of under 1 KB asks for
    # terabytes, and the child runs out of its address space
    Mutant(
        "semantics: no run budget on free-group words",
        "semantics.py",
        "if len(w) > WORD_RUN_BUDGET:",
        "if False:",
        (_PAST_BUDGET,),
        300,
    ),
    Mutant(
        "semantics: no bit budget on exact rationals",
        "semantics.py",
        "if q is not None and q.numerator.bit_length() + q.denominator.bit_length() > RAT_BIT_BUDGET:",
        "if False:",
        (_PAST_BUDGET,),
        300,
    ),
    # the multicut memo keyed without k: a premise asked for with two k
    # gets the first answer twice
    Mutant(
        "cutelim: the multicut memo ignores k",
        "cutelim.py",
        _MEMO,
        _MEMO.replace("get(call)", "get(call[:3])")
        .replace("memo[call]", "memo[call[:3]]")
        .replace("memo[args]", "memo[args[:3]]"),
        ("tests/test_cutelim.py", "tests/test_multicut_coverage.py"),
        300,
    ),
    # the multicuts answered without a frame, and the driver's pre-scan
    Mutant(
        "cutelim: the leaf path returns p1 for k = 0",
        "cutelim.py",
        "    if k == 0:\n        return p2",
        "    if k == 0:\n        return p1",
        (
            f"{_CUTELIM}test_each_multicut_branch_eliminates",
            f"{_CUTELIM}test_cut_free_serialization_frozen",
        ),
        300,
    ),
    Mutant(
        "cutelim: the leaf path skips its tick",
        "cutelim.py",
        "    st.tick()\n    if k == 0:",
        "    if k == 0:",
        (
            f"{_CUTELIM}test_square_cut_forty_budget_is_dag_nodes",
            f"{_CUTELIM}test_quantifier_budget_counts_substituted_nodes",
        ),
        300,
    ),
    Mutant(
        "cutelim: the fragment pre-scan is skipped",
        "cutelim.py",
        "if not _in_fragment(a):",
        "if False:",
        (
            f"{_CUTELIM}test_out_of_fragment_is_refused_before_any_cut_is_eliminated",
            f"{_CLI}test_bench_fragment_status_whatever_the_budget",
        ),
        300,
    ),
    Mutant(
        "cutelim: _kept ignores the consumed copies",
        "cutelim.py",
        "return fs.count(a) - used",
        "return fs.count(a)",
        (f"{_CUTELIM}test_commutation_keeps_consumed_occurrences",),
        300,
    ),
    Mutant(
        "oracle: the enumerator breaks ties toward the later split",
        "oracle.py",
        "if score < best:",
        "if score <= best:",
        ("tests/test_oracle.py::test_enumerated_proofs_are_frozen",),
        120,
    ),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def run_tests(tree: str, tests, timeout: float):
    """(outcome, failing test functions, seconds) of pytest on tests in tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("FEASLAB_NODE_BUDGET", None)
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        r = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, text=True,
            timeout=timeout, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timed out", [], time.perf_counter() - start
    seconds = time.perf_counter() - start
    # one entry per failing test function, with its count of failing cases
    cases = Counter(re.findall(r"^(?:FAILED|ERROR) [^:\s]+::([^\s\[]+)", r.stdout, re.M))
    failed = [name if k == 1 else f"{name} (x{k})" for name, k in cases.items()]
    if r.returncode == 0:
        return "survived", failed, seconds
    return "killed", failed or [f"pytest exit {r.returncode}"], seconds


def copy_checkout(dest: str):
    for part in ("src", "tests"):
        shutil.copytree(
            os.path.join(ROOT, part), os.path.join(dest, part),
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
        )


def mutate(tree: str, m: Mutant):
    path = os.path.join(tree, "src", "feaslab", m.file)
    with open(path) as fh:
        source = fh.read()
    if source.count(m.text) != 1:
        raise SystemExit(f"{m.name}: the text occurs {source.count(m.text)} times in {m.file}")
    with open(path, "w") as fh:
        fh.write(source.replace(m.text, m.replacement))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants_") as scratch:
        base = os.path.join(scratch, "base")
        copy_checkout(base)
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        outcome, failed, seconds = run_tests(base, every_test, max(m.timeout for m in MUTANTS))
        if outcome != "survived":
            print(f"unmutated copy: {outcome} {failed}; no mutant can be judged")
            return 1
        print(f"unmutated copy: {len(every_test)} named tests pass ({seconds:.1f} s)\n")
        print("| mutant | outcome | failing tests | s |")
        print("|---|---|---|---|")
        for k, m in enumerate(MUTANTS):
            tree = os.path.join(scratch, f"m{k}")
            copy_checkout(tree)
            mutate(tree, m)
            outcome, failed, seconds = run_tests(tree, m.tests, m.timeout)
            print(f"| {m.name} | {outcome} | {', '.join(failed) or '-'} | {seconds:.1f} |", flush=True)
            shutil.rmtree(tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
