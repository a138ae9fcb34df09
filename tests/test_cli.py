"""Command line behaviour: frozen output lines, files, error paths."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from feaslab import cli, cutelim, kernel, lang, semantics
from feaslab.cutelim import BLOWUP_COLUMNS
from feaslab.generators import gen_group_power, gen_unary
from feaslab.kernel import (
    FORMAT,
    RULE_TAGS,
    KernelError,
    Proof,
    Rule,
    cut,
    eq_leaf,
    forall_left,
    logical_axiom,
    parse_proof,
    proof_to_file,
    serialize_proof,
)
from feaslab.lang import app, arith_signature, atom, conj, const, forall, mul, plus, substitute, var
from feaslab.semantics import dominant_eigenvalue_abs, mat2, winding_growth
from feaslab.theories import arith_feasibility
from nested_format import serialize_nested


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_square_cut(capsys):
    rc, out, err = run(capsys, "gen", "square-cut", "3")
    assert rc == 0 and err == ""
    assert out == "F(256), lines=35, cuts=11, contractions=3\n"


def test_gen_group_power_options(capsys):
    rc, out, _ = run(
        capsys, "gen", "group-power", "3", "--mode", "linear",
        "--letter", "y", "--theory", "group:free:x,y",
    )
    assert rc == 0
    assert out == "F(y^3), lines=9, cuts=4, contractions=0\n"


def test_gen_emit_and_check_round_trip(tmp_path, capsys):
    f = tmp_path / "proof.json"
    rc, out, _ = run(capsys, "gen", "square-cut", "2", "--emit", str(f))
    assert rc == 0
    assert out.endswith(f"wrote {f}\n")
    rc, out, _ = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 0
    assert out.startswith("ok: |- F(")
    assert out.rstrip().endswith("lines=25")


def test_cutfree_generator(capsys):
    rc, out, _ = run(capsys, "cutfree", "square-cut", "3")
    assert rc == 0
    assert out == "lines 35 -> 45, ratio=1.28571, checked=ok\n"


def test_cutfree_file_round_trip(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    run(capsys, "gen", "square-cut", "2", "--emit", str(src))
    rc, out, _ = run(
        capsys, "cutfree", "--in", str(src), "--theory", "arith", "--emit", str(dst)
    )
    assert rc == 0
    assert out.startswith("lines 25 -> 21, ratio=0.84, checked=ok\n")
    rc, out, _ = run(capsys, "check", str(dst), "--theory", "arith")
    assert rc == 0 and out.startswith("ok:")


def test_cutfree_checks_its_input(tmp_path, capsys):
    # the left premise is an F(0) leaf relabelled to conclude |- F(s(s(0)));
    # cut elimination would drop it through the weakening, so only a check
    # of the input can reject the file
    leaf = (
        '{"rule":"TheoryAxiom","instantiation":{"axiom":"F(0)","subst":{}},'
        '"conclusion":"%s","premises":[]}'
    )
    bad = (
        '{"rule":"Cut","conclusion":"|- F(0)","premises":['
        + leaf % "|- F(s(s(0)))"
        + ',{"rule":"WeakenLeft","conclusion":"F(s(s(0))) |- F(0)","premises":['
        + leaf % "|- F(0)"
        + "]}]}"
    )
    f = tmp_path / "bad.json"
    f.write_text(bad)
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 1 and out == "" and err.startswith("error:")
    rc, out, err = run(capsys, "cutfree", "--in", str(f), "--theory", "arith")
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cutfree_needs_input(capsys):
    rc, _, err = run(capsys, "cutfree")
    assert rc == 1
    assert err.startswith("error:")
    rc, _, err = run(capsys, "cutfree", "--in", "whatever.json")
    assert rc == 1
    assert "--theory" in err


def test_flow_stats(capsys):
    rc, out, _ = run(capsys, "flow", "square-cut", "2")
    assert rc == 0
    assert out == "nodes=45 edges=48 components=1 cycles=4 bridges=22\n"


def test_flow_matrix_power_builds_no_labels(capsys):
    # the entry terms of FIB^(2^22) are small DAGs and astronomically large
    # trees; only --dot prints them
    rc, out, err = run(capsys, "flow", "matrix-power", "22")
    assert rc == 0 and err == ""
    assert out == "nodes=4179 edges=4508 components=1 cycles=330 bridges=306\n"


def test_flow_dot_output(tmp_path, capsys):
    # occurrence k is n{k}, placed by its block, side and index
    dot = tmp_path / "g.dot"
    rc, out, _ = run(capsys, "flow", "unary", "2", "--dot", str(dot))
    assert rc == 0
    assert out == f"nodes=7 edges=6 components=1 cycles=0 bridges=6\nwrote {dot}\n"
    assert dot.read_text() == (
        "graph flow {\n"
        "  node [shape=box, fontsize=10];\n"
        '  n0 [label="F(s(s(0)))\\n0:R0"];\n'
        '  n1 [label="F(s(0))\\n1:R0"];\n'
        '  n2 [label="F(s(0))\\n2:L0"];\n'
        '  n3 [label="F(s(s(0)))\\n2:R0"];\n'
        '  n4 [label="F(0)\\n3:R0"];\n'
        '  n5 [label="F(0)\\n4:L0"];\n'
        '  n6 [label="F(s(0))\\n4:R0"];\n'
        '  n1 -- n2 [label="cut-link", style=bold];\n'
        '  n3 -- n0 [label="ancestry", style=solid];\n'
        '  n2 -- n3 [label="axiom-link", style=dashed];\n'
        '  n4 -- n5 [label="cut-link", style=bold];\n'
        '  n6 -- n1 [label="ancestry", style=solid];\n'
        '  n5 -- n6 [label="axiom-link", style=dashed];\n'
        "}\n"
    )


def test_flow_dot_summarizes_huge_labels(tmp_path, capsys):
    # the conclusion F(x^(2^32)) is a DAG of 34 nodes and a tree of 2^33:
    # its label is a summary of its size, as `check` prints the sequent and
    # as the formula's repr reads
    (f,) = gen_group_power(gen="x", n=5, mode="quantifier").proof.conclusion.succ
    assert repr(f) == "<formula of 8589934592 nodes as a tree, 34 distinct>"
    dot = tmp_path / "g.dot"
    rc, out, err = run(capsys, "flow", "group-power", "5", "--mode", "quantifier", "--dot", str(dot))
    assert rc == 0 and err == ""
    assert out.endswith(f"wrote {dot}\n")
    text = dot.read_text()
    assert '  n0 [label="<formula of 8589934592 nodes as a tree, 34 distinct>\\n0:R0"];' in text
    summaries = re.findall(r"<formula of (\d+) nodes as a tree, (\d+) distinct>", text)
    assert Counter(summaries) == {
        ("8589934592", "34"): 10,
        ("8589934595", "36"): 2,
        ("8589934596", "37"): 3,
        ("8590065665", "36"): 1,
    }


def test_bench_csv(capsys):
    rc, out, _ = run(capsys, "bench", "square-cut", "0..3")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(BLOWUP_COLUMNS)
    assert rows[1] == ["0", "5", "3", "0.6", "2", "0", "", "ok"]
    assert rows[4] == ["3", "35", "45", "1.28571", "11", "3", "", "ok"]


def test_bench_output_file_and_budget(tmp_path, capsys):
    f = tmp_path / "sweep.csv"
    rc, out, _ = run(
        capsys, "bench", "square-cut", "5", "--budget", "50", "-o", str(f)
    )
    assert rc == 0
    assert out == f"wrote {f}\n"
    rows = list(csv.reader(f.open()))
    assert rows[1][-1] == "budget-exceeded"
    assert rows[1][2] == ""  # no cut-free count


def test_bench_fragment_status(capsys):
    rc, out, _ = run(capsys, "bench", "matrix-power", "1")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][-1] == "fragment-exceeded"


def test_bench_fragment_status_whatever_the_budget(capsys):
    # matrix-power 0 cuts on atoms only; the others are out of fragment
    # before their first cut spends the budget
    rc, out, _ = run(capsys, "bench", "matrix-power", "0..3", "--budget", "1")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [(row[0], row[-1]) for row in rows[1:]] == [
        ("0", "budget-exceeded"),
        ("1", "fragment-exceeded"),
        ("2", "fragment-exceeded"),
        ("3", "fragment-exceeded"),
    ]


def test_bench_checks_the_cut_free_proof(capsys, monkeypatch):
    # a cut-free form the kernel rejects was reported with status ok
    def wrong(p, theory, budget=None):
        return Proof(p.conclusion, Rule("LogicalAxiom"))

    monkeypatch.setattr(cutelim, "eliminate_cuts", wrong)
    rc, out, err = run(capsys, "bench", "square-cut", "2")
    assert rc == 1 and out == ""
    assert err == (
        "error: LogicalAxiom at |- F(exp(exp(s(s(0)), s(s(0))), s(s(0)))): "
        "logical axiom must be A |- A\n"
    )


@pytest.mark.parametrize("bad", ["3..x", "", "x", "1..2..3", "..3"])
def test_bench_bad_range_is_one_error_line(capsys, bad):
    rc, out, err = run(capsys, "bench", "square-cut", bad)
    assert rc == 1 and out == ""
    assert err == f"error: bench range must be n or a..b with integers, got {bad!r}\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        # written a proof file that check then rejected
        (("gen", "group-power", "2", "--letter", "x,y"), "x,y"),
        # printed F((x) * x)) * x) * x)) and F(^4)
        (("gen", "group-power", "2", "--letter", "x)"), "x)"),
        (("gen", "group-power", "2", "--letter", ""), ""),
        # built a theory whose constant reads as a quantifier
        (("check", "proof.json", "--theory", "group:free:forall"), "forall"),
        (("gen", "group-power", "2", "--letter", "exists"), "exists"),
    ],
)
def test_a_generator_the_syntax_cannot_read_is_one_error_line(capsys, argv, name):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == (
        f"error: generator {name!r} is not a name: a letter or _, then letters, digits, _ or '\n"
    )


def test_orbit_iteration(capsys):
    rc, out, _ = run(capsys, "orbit", "--n", "3", "--gen", "2")
    assert rc == 0
    assert out.splitlines() == [
        "0 0",
        "1 1",
        "2 3/2",
        "3 8/5",
        "proof: F(21/13), lines=112, cuts=30, contractions=24",
    ]


def test_orbit_from_a_negative_point(capsys):
    # "--x -1/2" reads -1/2 as an option; the help says to write --x=-1/2
    rc, out, _ = run(capsys, "orbit", "--x=-1/2", "--n", "2")
    assert rc == 0
    assert out.splitlines() == ["0 -1/2", "1 0", "2 1"]
    for command in ("orbit", "gen", "cutfree", "flow", "bench"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--x ORBIT_X orbit start point; use --x=-1/2 for a negative point" in help_text


def test_gen_rational_orbit_from_a_negative_point(capsys):
    rc, out, _ = run(capsys, "gen", "rational-orbit", "1", "--x=-1/2")
    assert rc == 0
    assert out == "F(1), lines=105, cuts=37, contractions=12\n"


def test_orbit_through_infinity(capsys):
    # the swap matrix sends 0 to inf and back
    rc, out, _ = run(capsys, "orbit", "--matrix", "(0 1; 1 0)", "--x", "0", "--n", "2")
    assert rc == 0
    assert out.splitlines() == ["0 0", "1 inf", "2 0"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (("orbit", "--x", "1/0"), "1/0"),
        (("orbit", "--x", "abc"), "abc"),
        (("orbit", "--x", "nan"), "nan"),
        (("gen", "matrix-power", "1", "--matrix", "(1/0 1; 1 1)"), "1/0"),
        (("cutfree", "rational-orbit", "1", "--x", "1/0"), "1/0"),
    ],
)
def test_malformed_rational_is_one_error_line(capsys, argv, text):
    # each ended in a ZeroDivisionError or ValueError traceback from Fraction
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"error: not a rational number: {text!r}\n"


@pytest.mark.parametrize(
    "argv, digits",
    [
        (("orbit", "--x", "7" * 20_000), 20_000),
        (("gen", "matrix-power", "1", "--matrix", f"({'3' * 11_000} 1; 1 1)"), 11_000),
    ],
)
def test_a_rational_past_the_digit_limit_is_named_so(capsys, argv, digits):
    # both were called "not a rational number", though well formed
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == (
        f"error: numeral of {digits} digits exceeds the limit of {sys.get_int_max_str_digits()}\n"
    )


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("gen", "rational-orbit", "0", "--x", str(7**300)), "lines=16746, cuts=8368, contractions=0"),
        (
            ("gen", "matrix-power", "1", "--matrix", f"({3**500} 1; 1 1)"),
            "lines=8002, cuts=3987, contractions=12",
        ),
    ],
)
def test_entries_of_hundreds_of_digits_build_their_proofs(capsys, argv, lines):
    # a binary numeral nests once per bit: both ended in "input nested too
    # deeply" while the entry's proof was built by recursion
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert out.endswith(f", {lines}\n")


def test_oracle_with_enumeration(capsys):
    rc, out, _ = run(capsys, "oracle", "16", "--enum")
    assert rc == 0
    assert out == "min-lines F(16) = 11\nenumerated proof lines = 11 (match)\n"


def test_oracle_enumeration_deep_in_the_limit(capsys):
    # the enumeration builds one table entry per value up to n, not one frame
    rc, out, err = run(capsys, "oracle", "1200", "--enum")
    assert rc == 0 and err == ""
    assert out == "min-lines F(1200) = 30\nenumerated proof lines = 30 (match)\n"


def test_oracle_costs_and_distortion(capsys):
    rc, out, _ = run(capsys, "oracle", "16", "--costs", "1,1,0")
    assert rc == 0
    assert out == "min-lines F(16) = 10\n"
    rc, out, _ = run(capsys, "oracle", "--distortion", "--max-n", "2")
    assert rc == 0
    assert out.splitlines() == [
        "n proof_lines normal_form conjugated_length word_distance",
        "0 15 (2, 0) 3 2",
        "1 17 (4, 0) 5 4",
        "2 23 (16, 0) 9 8",
    ]


@pytest.mark.parametrize(
    "costs, message",
    [
        ("1,x,1", "--costs needs integers succ,plus,times, got '1,x,1'"),
        ("", "--costs needs integers succ,plus,times, got ''"),
        ("1,1", "costs must be three nonnegative integers succ,plus,times, got (1, 1)"),
        ("1,1,1,1", "costs must be three nonnegative integers succ,plus,times, got (1, 1, 1, 1)"),
        ("-1,1,1", "costs must be three nonnegative integers succ,plus,times, got (-1, 1, 1)"),
    ],
)
def test_oracle_bad_costs_are_one_error_line(capsys, costs, message):
    # negative costs printed "min-lines F(16) = -15"
    rc, out, err = run(capsys, "oracle", "16", f"--costs={costs}")
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "n, costs, value",
    [
        # an int64 table wrapped this to -9223372036854775805 and exited 0
        (3, "3074457345618258603,0,1000", 9223372036854775810),
        # and this one ended in an OverflowError traceback
        (5, "4611686018427387904,1,1", 23058430092136939521),
    ],
)
def test_oracle_costs_beyond_int64_are_exact(capsys, n, costs, value):
    rc, out, err = run(capsys, "oracle", str(n), "--costs", costs)
    assert rc == 0 and err == ""
    assert out == f"min-lines F({n}) = {value}\n"


def test_oracle_enum_refuses_weighted_costs(capsys):
    # the enumerated proof counts unit-cost lines: comparing it with a
    # weighted table reported a MISMATCH that was no fault of either side
    rc, out, err = run(capsys, "oracle", "16", "--costs", "1,1,0", "--enum")
    assert rc == 1 and out == ""
    assert err == "error: --enum counts unit-cost proof lines and takes only --costs 1,1,1\n"
    rc, out, _ = run(capsys, "oracle", "16", "--costs", "1,1,1", "--enum")
    assert rc == 0
    assert out == "min-lines F(16) = 11\nenumerated proof lines = 11 (match)\n"


def test_torus_table(capsys):
    rc, out, _ = run(capsys, "torus", "--n", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "matrix (2 1; 1 1)"
    assert lines[1] == "eigenvalues 2.618033988750 0.381966011250"
    assert lines[2] == "k norm ratio"
    norms = [int(l.split()[1]) for l in lines[3:]]
    assert norms == [2, 5, 13, 34, 89]
    lam = (3 + 5**0.5) / 2
    ratios = [float(l.split()[2]) for l in lines[3:]]
    for k, r in enumerate(ratios, start=1):
        assert r == pytest.approx(norms[k - 1] / lam**k, abs=1e-9)


def test_torus_runs_past_the_float_range(capsys):
    # from k = 738 the norm and lambda^k pass the float range, and the
    # ratio comes from logarithms; every row before prints as it did
    rc, out, err = run(capsys, "torus", "--n", "760")
    assert rc == 0 and err == ""
    rows = out.splitlines()[3:]
    assert len(rows) == 760 and rows[-1].endswith(" 0.723606798")
    lam = dominant_eigenvalue_abs(mat2(2, 1, 1, 1))
    x, y = 1, 0
    for k, row in enumerate(rows[:737], start=1):
        x, y = 2 * x + y, x + y
        assert row == f"{k} {x} {float(x) / lam**k:.9f}"
    x, y = 2 * x + y, x + y
    with pytest.raises(OverflowError):  # row 738 by the float formula
        float(x) / lam**738
    # the whole text as it was printed when each row recomputed A^k
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e01e60c4b44cc73b633d234b258c6ce0660fa09a7e3a9a076eb9ff8746b426ce"
    )
    # each row carries A^k v from the row before: the rows at both ends
    # are what winding_growth computes for their k alone
    a = mat2(2, 1, 1, 1)
    for k in list(range(1, 61)) + list(range(730, 761)):
        norm, ratio = winding_growth(a, (1, 0), k)
        assert rows[k - 1] == f"{k} {norm} {ratio:.9f}"


def test_error_paths(capsys):
    rc, _, err = run(capsys, "gen", "geometric", "0")
    assert rc == 1
    assert err.startswith("error:")
    rc, _, err = run(capsys, "check", "no-such-file.json", "--theory", "arith")
    assert rc == 1
    assert err.startswith("error:")
    rc, _, err = run(capsys, "gen", "rational-orbit", "0", "--matrix", "(0 1; 1 0)")
    assert rc == 1
    assert "inf" in err


def test_check_rejects_an_undefined_conclusion(tmp_path, capsys):
    from feaslab.kernel import cut, proof_to_file, theory_leaf
    from feaslab.lang import atom, const
    from feaslab.theories import rational_feasibility

    th = rational_feasibility()
    zero = const("0")
    p = cut(theory_leaf(th, "F(0)", {}), theory_leaf(th, "F:invert", {"x": zero}), atom("F", zero))
    f = tmp_path / "inv0.json"
    proof_to_file(p, str(f))
    rc, out, err = run(capsys, "check", str(f), "--theory", "rat")
    assert rc == 1 and out == ""
    assert err == "error: undefined operation in instantiation of F:invert: 1/0 is undefined\n"


def test_check_decides_a_huge_multiple_of_the_first_prime_by_residues(
    tmp_path, capsys, monkeypatch
):
    # an F:invert leaf at x = (2^61 - 1) * 2^(2^40), numerals in binary:
    # x is 0 modulo the first prime of the modular test, the second
    # decides it, and its exact value would not fit in memory
    from feaslab import semantics, theories
    from feaslab.kernel import proof_to_file, theory_leaf
    from feaslab.lang import int_term

    def exact(t):
        raise AssertionError("exact evaluation")

    th = theories.rational_feasibility()
    power = plus(const("1"), const("1"))
    for _ in range(40):
        power = mul(power, power)
    x = mul(int_term(semantics.MODULAR_PRIMES[0], th.signature), power)
    f = tmp_path / "invert.json"
    proof_to_file(theory_leaf(th, "F:invert", {"x": x}), str(f))
    assert f.stat().st_size == 3267
    monkeypatch.setattr(theories, "eval_rat", exact)
    monkeypatch.setattr(semantics, "eval_rat", exact)
    rc, out, err = run(capsys, "check", str(f), "--theory", "rat")
    assert rc == 0 and err == ""
    assert out == "ok: <sequent of 8796093022933 nodes as a tree, 166 distinct>, lines=1\n"


@pytest.fixture
def digit_limit():
    """The setter of the interpreter's int-to-str digit limit; the limit
    the test started with comes back however the test ends."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def _doubled_axiom(n):
    """|- F(0) by n cuts of the proof so far against its own left
    weakening: more than 2^n lines as a tree, 2n + 1 nodes as a DAG."""
    f = atom("F", const("0"))
    q = kernel.theory_leaf(arith_feasibility(), "F(0)", {})
    for _ in range(n):
        q = kernel.cut(q, kernel.weaken_left(q, f), f)
    return q


@pytest.mark.parametrize(
    "argv",
    [
        ("torus", "--n", "1600"),
        ("orbit", "--n", "1600"),
        ("gen", "geometric", "2200"),
        ("gen", "group-power", "2200"),
        ("check", "{tmp}/doubled.json", "--theory", "arith"),
        ("flow", "group-power", "12", "--mode", "quantifier", "--dot", "{tmp}/flow.dot"),
    ],
)
def test_integers_past_the_digit_limit_print_the_same(tmp_path, capsys, digit_limit, argv):
    # each command writes an integer of more than 640 digits: under a
    # limit of 640 its output is the same bytes as under the default
    kernel.proof_to_file(_doubled_axiom(2200), str(tmp_path / "doubled.json"))
    argv = [a.format(tmp=tmp_path) for a in argv]

    def output():
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        return out + (open(argv[-1]).read() if argv[-2] == "--dot" else "")

    want = output()
    assert re.search(r"\d{641}", want)
    digit_limit(640)
    assert output() == want


def test_texts_of_huge_values_past_the_digit_limit(digit_limit):
    one = app("s", const("0"))
    x = plus(one, one)
    for _ in range(2200):
        x = mul(x, x)
    f = atom("F", x)
    bad = Proof(lang.Sequent((), (f,)), Rule("LogicalAxiom"), ())
    big = 3**1500

    def message():
        with pytest.raises(kernel.CheckError) as info:
            kernel.check(bad, arith_feasibility())
        return str(info.value)

    values = (
        lambda: lang.sequent_brief(lang.Sequent((), (f,))),
        lambda: repr(f),
        message,
        lambda: str(semantics.mat2(big, 1, 1, big)),
        lambda: str(semantics.ExtRational.of(Fraction(big, big + 2))),
        lambda: str(semantics.bs_element(-big, 0, 3)),
        lambda: semantics.nat_str(semantics.make_tower(big, big)),
    )
    want = [v() for v in values]
    assert all(re.search(r"\d{641}", w) for w in want)
    digit_limit(640)
    assert [v() for v in values] == want


def test_check_rejects_a_contraction_that_adds_a_formula(tmp_path, capsys):
    # F(0) |- F(0), weakened to F(0), F(0) |- F(0), "contracted" to
    # F(0), F(y) |- F(0): F(y) comes from no premise
    f = tmp_path / "contract.json"
    f.write_text(
        '{"format":"feaslab-dag/1",\n"exprs":[\n'
        '["const","0"],\n["atom","F",0],\n["var","y"],\n["atom","F",2]\n'
        '],\n"nodes":[\n'
        '{"rule":"LogicalAxiom","ant":[1],"succ":[1],"premises":[]},\n'
        '{"rule":"WeakenLeft","ant":[1,1],"succ":[1],"premises":[0]},\n'
        '{"rule":"ContractLeft","ant":[1,3],"succ":[1],"premises":[1]}\n'
        ']}\n'
    )
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 1 and out == ""
    assert err == "error: ContractLeft at F(0), F(y) |- F(0): contraction context mismatch\n"


def test_gen_deep_unary(capsys):
    rc, out, err = run(capsys, "gen", "unary", "1200")
    assert rc == 0 and err == ""
    assert out == "F(1200), lines=2401, cuts=1200, contractions=0\n"


def test_deep_input_is_one_error_line(tmp_path, capsys):
    # terms 1000 levels deep are written and read without recursion
    f = tmp_path / "unary.json"
    rc, _, _ = run(capsys, "gen", "unary", "1000", "--emit", str(f))
    assert rc == 0
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 0 and err == ""
    assert out.rstrip().endswith("lines=2001")
    # JSON nested far deeper than a flat file, and a file in the nested
    # format, are no proof files; a truncated file is no JSON
    deep = tmp_path / "deep.json"
    n = 60_000
    deep.write_text(
        '{"rule":"WeakenLeft","conclusion":"|-","premises":[' * n
        + '{"rule":"LogicalAxiom","conclusion":"F(0) |- F(0)","premises":[]}'
        + "]}" * n
    )
    nested = tmp_path / "nested.json"
    nested.write_text(serialize_nested(gen_unary(1000).proof) + "\n")
    for bad in (deep, nested):
        rc, out, err = run(capsys, "check", str(bad), "--theory", "arith")
        assert rc == 1 and out == ""
        assert err.startswith("error: not a proof file: ") and err.count("\n") == 1
        assert f"this reader knows {FORMAT!r}" in err
    cut = tmp_path / "cut.json"
    cut.write_text(f.read_text()[:5000])
    rc, out, err = run(capsys, "check", str(cut), "--theory", "arith")
    assert rc == 1 and out == ""
    assert err.startswith("error: proof file is not valid JSON") and err.count("\n") == 1


def test_check_instantiates_past_deep_capturing_quantifiers(tmp_path, capsys):
    # forall x over 400 nested forall y around F(x + y), instantiated with
    # y: every binder is renamed, and no walker recurses per quantifier
    phi = atom("F", plus(var("x"), var("y")))
    for _ in range(400):
        phi = forall("y", phi)
    inst = substitute(phi, "x", var("y"))
    p = forall_left(logical_axiom(inst), forall("x", phi), var("y"))
    f = tmp_path / "capture.json"
    f.write_text(serialize_proof(p))
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 0 and err == ""
    assert out.startswith("ok: forall x (forall y (") and out.endswith(", lines=2\n")


def test_check_decides_an_equation_between_tall_power_towers(tmp_path, capsys):
    # exp(2, T) = exp(2 * 1, T), T a tower of 3000 exponentials: the values
    # are compared, printed and logged down the tower without recursion
    two = app("s", app("s", const("0")))
    t = two
    for _ in range(3000):
        t = app("exp", two, t)
    p = eq_leaf(app("exp", two, t), app("exp", mul(two, app("s", const("0"))), t))
    f = tmp_path / "tower.json"
    f.write_text(serialize_proof(p))
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 0 and err == ""
    assert out.startswith("ok: |- exp(s(s(0)), exp(") and out.endswith(", lines=1\n")


def test_emit_failure_leaves_no_file(tmp_path, capsys, monkeypatch):
    from feaslab import kernel

    def fail(p):
        raise kernel.KernelError("cannot serialize")

    monkeypatch.setattr(kernel, "serialize_proof", fail)
    f = tmp_path / "proof.json"
    rc, _, err = run(capsys, "gen", "unary", "3", "--emit", str(f))
    assert rc == 1 and err == "error: cannot serialize\n"
    assert not f.exists()


def test_dot_failure_leaves_no_file(tmp_path, capsys, monkeypatch):
    def fail(g):
        raise MemoryError

    monkeypatch.setattr(cli, "emit_dot", fail)
    f = tmp_path / "g.dot"
    rc, out, err = run(capsys, "flow", "unary", "3", "--dot", str(f))
    assert rc == 1 and err == "error: out of memory\n"
    assert out == "nodes=10 edges=9 components=1 cycles=0 bridges=9\n"
    assert not f.exists()


def test_node_budget_env(capsys):
    rc, _, err = run(capsys, "cutfree", "square-cut", "5", "--budget", "50")
    assert rc == 1
    assert "budget" in err
    rc, out, _ = run(capsys, "cutfree", "square-cut", "5", "--budget", "10000")
    assert rc == 0
    assert out.startswith("lines 55 -> 189")


def test_cutfree_emits_a_cut_free_dag_past_the_budget(tmp_path, capsys):
    # 602 DAG nodes, 6,597,069,766,653 lines as a tree: the file holds the DAG
    f = tmp_path / "cf.json"
    rc, out, err = run(capsys, "cutfree", "square-cut", "40", "--emit", str(f))
    assert rc == 0 and err == ""
    assert out == (
        "lines 405 -> 6597069766653, ratio=1.62891e+10, checked=ok\n"
        f"wrote {f}\n"
    )
    assert f.stat().st_size < 20_000
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 0 and err == ""
    assert out.startswith("ok: |- F(") and out.endswith(", lines=6597069766653\n")
    rc, out, err = run(capsys, "cutfree", "--in", str(f), "--theory", "arith")
    assert rc == 0 and err == ""
    assert out == "lines 6597069766653 -> 6597069766653, ratio=1, checked=ok\n"


def test_gen_emit_and_check_past_the_nested_depth_cap(tmp_path, capsys):
    # a nested file of this proof would nest 24,000 levels deep, past what
    # json.loads reads; a flat one nests four levels whatever the proof's depth
    f = tmp_path / "unary.json"
    rc, _, _ = run(capsys, "gen", "unary", "12000", "--emit", str(f))
    assert rc == 0
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 0 and err == ""
    assert out.endswith(", lines=24001\n")


def test_check_prints_a_huge_end_sequent_as_its_size(tmp_path, capsys):
    # a 6.9 KB file proving F(x^4294967296): the term is a DAG of a few
    # dozen nodes, and a tree of 2^32 leaves
    f = tmp_path / "g.json"
    rc, _, _ = run(capsys, "gen", "group-power", "5", "--mode", "quantifier", "--emit", str(f))
    assert rc == 0
    rc, out, err = run(capsys, "check", str(f), "--theory", "group:free:x")
    assert rc == 0 and err == ""
    assert out == "ok: <sequent of 8589934592 nodes as a tree, 34 distinct>, lines=64\n"


def run_bounded(capsys, *argv):
    """cli.main(argv), which must fail with one short `error:` line in
    under a second and 50 MB of Python allocations; returns that line.
    The time is taken untraced and the peak in a second, traced run, so
    that the tracer's slowdown does not count against the time bound."""
    start = perf_counter()
    rc = cli.main(list(argv))
    seconds = perf_counter() - start
    captured = capsys.readouterr()
    tracemalloc.start()
    try:
        traced_rc = cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (traced_rc, capsys.readouterr()) == (rc, captured)
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) < 1000
    assert seconds < 1.0 and peak < 50 * 2**20
    return lines[0]


def squared_40_times(t):
    """t squared 40 times: a DAG of 40 more nodes, a tree 2^40 times t's."""
    for _ in range(40):
        t = mul(t, t)
    return t


_REJECTED_EQUATION = (
    "error: EqOracle at <sequent of 4398046511105 nodes as a tree, 44 distinct>: "
    "oracle verdict for <formula of 4398046511105 nodes as a tree, 44 distinct> is 'unequal'"
)


@pytest.mark.parametrize("command", [("check",), ("cutfree", "--in")])
def test_a_rejected_huge_equation_is_one_short_error_line(tmp_path, capsys, command):
    # an 88-expression file: `gen quantifier 2 --emit`, 40 self-products of
    # s(s(0)) and its EqOracle leaf retargeted to "that product = 0"; the
    # message spelled the product out, and ran out of memory under 1 GB
    f = tmp_path / "q2.json"
    run(capsys, "gen", "quantifier", "2", "--emit", str(f))
    data = json.loads(f.read_text())
    exprs = data["exprs"]
    zero = exprs.index(["const", "0"])
    top = exprs.index(["app", "s", exprs.index(["app", "s", zero])])  # s(s(0))
    for _ in range(40):
        exprs.append(["app", "*", top, top])
        top = len(exprs) - 1
    exprs.append(["atom", "=", top, zero])
    leaf = next(n for n in data["nodes"] if n["rule"] == "EqOracle")
    leaf["succ"] = [len(exprs) - 1]
    assert len(exprs) == 88
    f.write_text(json.dumps(data))
    line = run_bounded(capsys, *command, str(f), "--theory", "arith")
    assert line == _REJECTED_EQUATION


@pytest.mark.parametrize(
    "theory, base, pad, distinct",
    [
        ("group:free:x,y", mul(const("x"), const("y")), lambda t: mul(t, const("e")), 46),
        ("rat", plus(const("1"), const("1")), lambda t: plus(t, const("0")), 45),
    ],
)
def test_a_true_equation_past_an_evaluation_budget_is_one_short_error_line(
    tmp_path, capsys, theory, base, pad, distinct
):
    # (x*y) squared 40 times = the same times e, and (1+1) squared 40 times =
    # the same plus 0: one EqOracle leaf each, a file of under 1 KB that ran
    # out of memory under 1 GB while the oracle spelled out the word or the
    # value; past the budget the oracle is undecided, and the true
    # statement is rejected
    t = squared_40_times(base)
    f = tmp_path / "eq.json"
    proof_to_file(eq_leaf(t, pad(t)), str(f))
    assert f.stat().st_size < 1000
    size = f"<{{}} of 8796093022209 nodes as a tree, {distinct} distinct>"
    line = run_bounded(capsys, "check", str(f), "--theory", theory)
    assert line == (
        f"error: EqOracle at {size.format('sequent')}: "
        f"oracle verdict for {size.format('formula')} is 'undecided'"
    )


def test_cut_elimination_past_its_budget_names_a_huge_cut_formula(tmp_path, capsys):
    a = atom("F", squared_40_times(const("0")))  # 2^41 - 1 tree nodes
    f = tmp_path / "cut.json"
    proof_to_file(cut(logical_axiom(a), logical_axiom(a), a), str(f))
    line = run_bounded(capsys, "cutfree", "--in", str(f), "--theory", "arith", "--budget", "0")
    assert line == (
        "error: cut elimination exceeded its budget of 0 DAG nodes: built 1 while "
        "eliminating cut 1 of 1, on <formula of 2199023255552 nodes as a tree, 42 distinct>"
    )


def test_a_huge_cut_conjunction_is_one_short_error_line(tmp_path, capsys):
    a = atom("F", squared_40_times(const("0")))
    c = conj(a, a)
    f = tmp_path / "cut.json"
    proof_to_file(cut(logical_axiom(c), logical_axiom(c), c), str(f))
    line = run_bounded(capsys, "cutfree", "--in", str(f), "--theory", "arith")
    assert line == (
        "error: cut formula <formula of 4398046511105 nodes as a tree, 43 distinct> "
        "lies outside the atom/implication/forall fragment"
    )


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "check", exhausted)
    rc, out, err = run(capsys, "gen", "unary", "3")
    assert rc == 1 and out == ""
    assert err == "error: out of memory\n"


_F0 = (("const", "0"), ("atom", "F", 0))
_AXIOM = {"rule": "LogicalAxiom", "ant": [1], "succ": [1], "premises": []}


def _flat(exprs=_F0, nodes=(_AXIOM,)):
    """A flat proof file: by default the logical axiom F(0) |- F(0)."""
    return {"format": FORMAT, "exprs": list(exprs), "nodes": list(nodes)}

_LEAF_FIELDS = "node 0: a LogicalAxiom node has exactly the fields ['ant', 'premises', 'rule', 'succ']"

# one flat file for each way of breaking the format, with the message it gets
FLAT_HOSTILE = [
    # references: not an int, forward, out of range, of the wrong sort
    (_flat(nodes=[dict(_AXIOM, ant=[True])]), "node 0: True is not the index of an earlier entry"),
    (_flat(nodes=[dict(_AXIOM, succ=[1.0])]), "node 0: 1.0 is not the index of an earlier entry"),
    (_flat(nodes=[dict(_AXIOM, ant=["1"])]), "node 0: '1' is not the index of an earlier entry"),
    (
        _flat(exprs=(("atom", "F", 1), ("const", "0")), nodes=[dict(_AXIOM, ant=[0], succ=[0])]),
        "expression 0: 1 is not the index of an earlier entry",
    ),
    (
        _flat(nodes=[dict(_AXIOM, ant=[2], succ=[2])]),
        "node 0: 2 is not the index of an earlier entry",
    ),
    (
        _flat(nodes=[dict(_AXIOM, ant=[-1], succ=[-1])]),
        "node 0: -1 is not the index of an earlier entry",
    ),
    (_flat(nodes=[dict(_AXIOM, ant=[0], succ=[0])]), "node 0: entry 0 is not a formula"),
    (_flat(exprs=_F0 + (("atom", "F", 1),)), "expression 2: entry 1 is not a term"),
    (
        _flat(nodes=[{"rule": "WeakenLeft", "ant": [1, 1], "succ": [1], "premises": [1]}, _AXIOM]),
        "node 0: 1 is not the index of an earlier entry",
    ),
    (
        _flat(nodes=[_AXIOM, {"rule": "WeakenLeft", "ant": [1, 1], "succ": [1], "premises": [1]}]),
        "node 1: 1 is not the index of an earlier entry",
    ),
    (
        _flat(nodes=[_AXIOM, {"rule": "WeakenLeft", "ant": [1, 1], "succ": [1], "premises": [True]}]),
        "node 1: True is not the index of an earlier entry",
    ),
    # a bad reference after good ones in a longer list
    (_flat(nodes=[dict(_AXIOM, ant=[1, 1, 7])]), "node 0: 7 is not the index of an earlier entry"),
    (
        _flat(nodes=[_AXIOM, {"rule": "WeakenLeft", "ant": [1, 1], "succ": [1], "premises": [0, True]}]),
        "node 1: True is not the index of an earlier entry",
    ),
    (_flat(nodes=[dict(_AXIOM, succ=[1, -1])]), "node 0: -1 is not the index of an earlier entry"),
    (_flat(nodes=[dict(_AXIOM, ant=[1, 0])]), "node 0: entry 0 is not a formula"),
    (_flat(exprs=_F0 + (("app", "+", 0, 1),)), "expression 2: entry 1 is not a term"),
    (_flat(exprs=_F0 + (("and", 1, 0),)), "expression 2: entry 0 is not a formula"),
    # symbols: not in the signature, or of the wrong arity
    (
        _flat(exprs=(("const", "zero"), ("atom", "F", 0))),
        "expression 0: 'zero' is not a constant of arith",
    ),
    (
        _flat(exprs=(("const", "0"), ("atom", "G", 0))),
        "expression 1: 'G' is not a predicate of arith",
    ),
    (
        _flat(exprs=(("const", "0"), ("app", "s", 0, 0), ("atom", "F", 1))),
        "expression 1: s expects 1 arguments, got 2",
    ),
    (
        _flat(exprs=(("const", "0"), ("atom", "F", 0, 0))),
        "expression 1: F expects 1 arguments, got 2",
    ),
    (
        _flat(exprs=(("var", "s"), ("atom", "F", 0))),
        "expression 0: 's' is not a variable name in signature arith",
    ),
    (_flat(exprs=(("app", "s"), ("atom", "F", 0))), "expression 0: s expects 1 arguments, got 0"),
    # variable names: no identifier, or a signature symbol
    (
        _flat(exprs=(("var", "x y"), ("atom", "F", 0))),
        "expression 0: 'x y' is not a variable name in signature arith",
    ),
    (
        _flat(exprs=(("var", "0"), ("atom", "F", 0))),
        "expression 0: '0' is not a variable name in signature arith",
    ),
    (
        _flat(exprs=(("var", "F"), ("atom", "F", 0))),
        "expression 0: 'F' is not a variable name in signature arith",
    ),
    (
        _flat(exprs=(("var", 7), ("atom", "F", 0))),
        "expression 0: 7 is not a variable name in signature arith",
    ),
    (
        _flat(exprs=_F0 + (("forall", "+", 1),), nodes=[dict(_AXIOM, ant=[2], succ=[2])]),
        "expression 2: '+' is not a variable name in signature arith",
    ),
    # expression kinds and shapes
    (
        _flat(exprs=(("const", "0"), ("atom", "F", 0), ("nand", 1, 1))),
        "expression 2: no expression of kind 'nand' has 2 parts",
    ),
    (
        _flat(exprs=(("const", "0"), ("atom", "F", 0), ("not", 1, 1))),
        "expression 2: no expression of kind 'not' has 2 parts",
    ),
    (
        _flat(exprs=(("const", "0"), ("atom", "F", 0), ("and", 1))),
        "expression 2: no expression of kind 'and' has 1 parts",
    ),
    (
        _flat(exprs=(("const", "0"), ("atom", "F", 0), [])),
        "expression 2 must be a JSON list headed by its kind",
    ),
    (
        _flat(exprs=(("const", "0"), ("atom", "F", 0), {"kind": "not"})),
        "expression 2 must be a JSON list headed by its kind",
    ),
    # rule data: missing or extra for the tag, and unknown keys
    (
        _flat(nodes=[dict(_AXIOM, eigen="a")]),
        _LEAF_FIELDS,
    ),
    (
        _flat(nodes=[dict(_AXIOM, term=0)]),
        _LEAF_FIELDS,
    ),
    (
        _flat(nodes=[{"rule": "TheoryAxiom", "axiom": "F(0)", "succ": [1], "ant": [], "premises": []}]),
        "node 0: a TheoryAxiom node has exactly the fields ['ant', 'axiom', 'premises', 'rule', 'subst', 'succ']",
    ),
    (
        _flat(
            exprs=_F0 + (("forall", "x", 1),),
            nodes=[_AXIOM, {"rule": "ForallRight", "ant": [], "succ": [2], "premises": [0]}],
        ),
        "node 1: a ForallRight node has exactly the fields ['ant', 'eigen', 'premises', 'rule', 'succ']",
    ),
    (
        _flat(
            exprs=_F0 + (("forall", "x", 1),),
            nodes=[_AXIOM, {"rule": "ForallRight", "eigen": "0", "ant": [2], "succ": [2], "premises": [0]}],
        ),
        "node 1: '0' is not a variable name in signature arith",
    ),
    (
        _flat(nodes=[dict(_AXIOM, note="x")]),
        _LEAF_FIELDS,
    ),
    (
        _flat(nodes=[{"rule": "LogicalAxiom", "ant": [1], "succ": [1]}]),
        _LEAF_FIELDS,
    ),
    (_flat(nodes=[dict(_AXIOM, rule="Modus")]), "node 0: unknown rule tag 'Modus'"),
    (_flat(nodes=[[1, 1]]), "node 0 must be a JSON object"),
    # the tables themselves
    (_flat(nodes=[]), "proof file has no nodes"),
    (
        dict(_flat(), format="feaslab-dag/0"),
        "unknown proof format; this reader knows 'feaslab-dag/1'",
    ),
    (dict(_flat(), format=None), "unknown proof format; this reader knows 'feaslab-dag/1'"),
    (dict(_flat(), extra=1), "a flat proof file has exactly the fields format, exprs and nodes"),
    (
        {"format": FORMAT, "exprs": list(_F0)},
        "a flat proof file has exactly the fields format, exprs and nodes",
    ),
    (dict(_flat(), exprs={}), "proof field 'exprs' must be a JSON list"),
    (dict(_flat(), nodes=_AXIOM), "proof field 'nodes' must be a JSON list"),
]


def test_flat_hostile_files_fail_to_read():
    sig = arith_signature()
    assert parse_proof(json.dumps(_flat()), sig).rule.tag == "LogicalAxiom"
    for case, message in FLAT_HOSTILE:
        with pytest.raises(KernelError) as info:
            parse_proof(json.dumps(case), sig)
        assert str(info.value) == message


def test_hostile_json_shapes_are_error_lines(tmp_path, capsys):
    leaf = {"rule": "LogicalAxiom", "conclusion": "F(0) |- F(0)", "premises": []}
    cases = [
        dict(leaf, conclusion=5),
        {"rule": "WeakenLeft", "conclusion": "F(0), F(0) |- F(0)", "premises": [3]},
        {
            "rule": "TheoryAxiom",
            "instantiation": {"axiom": "F(0)", "subst": [1]},
            "conclusion": "|- F(0)",
            "premises": [],
        },
        # numeral literals: nine digits spelled in unary, 20,000 digits for int()
        dict(leaf, conclusion="|- F(111111111)"),
        dict(leaf, conclusion="|- F(" + "7" * 20_000 + ")"),
    ] + [case for case, _ in FLAT_HOSTILE]
    f = tmp_path / "hostile.json"
    for case in cases:
        f.write_text(json.dumps(case))
        rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_a_proof_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    f = tmp_path / "utf16.json"
    f.write_bytes(b"\xff\xfe" + json.dumps(_flat()).encode("utf-16-le"))
    rc, out, err = run(capsys, "check", str(f), "--theory", "arith")
    assert rc == 1 and out == ""
    assert err == (
        "error: proof file is not UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )


_FIELDS = ["rule", "instantiation", "conclusion", "premises", "axiom", "subst", "term", "eigen"]
_STRINGS = [
    "F(0) |- F(0)",
    "|- F(0)",
    "F(x) |- F(s(x))",
    "LogicalAxiom",
    "TheoryAxiom",
    "ForallRight",
    "WeakenLeft",
    "F:successor",
    "x",
    "s(0)",
    "",
]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(_STRINGS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=4),
    max_leaves=12,
)


def _check_file(text: str):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["check", path, "--theory", "arith"])
        return rc, out.getvalue(), err.getvalue()
    finally:
        os.unlink(path)


# proof-shaped objects whose fields hold anything
proof_nodes = st.recursive(
    st.fixed_dictionaries(
        {"rule": st.sampled_from(sorted(RULE_TAGS)) | json_values},
        optional={"conclusion": json_values, "instantiation": json_values},
    ),
    lambda inner: st.fixed_dictionaries(
        {
            "rule": st.sampled_from(sorted(RULE_TAGS)),
            "conclusion": st.sampled_from(_STRINGS) | json_values,
            "premises": st.lists(inner | json_values, max_size=2),
        },
        optional={
            "instantiation": st.dictionaries(st.sampled_from(_FIELDS), json_values, max_size=2)
        },
    ),
    max_leaves=4,
)


@settings(max_examples=200, deadline=None)
@given(json_values | proof_nodes)
def test_json_shape_fuzz_gives_only_error_lines(data):
    rc, out, err = _check_file(json.dumps(data))
    if rc == 0:
        assert err == "" and out.startswith("ok: ")
    else:
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _readme_commands():
    """The feaslab lines of README's "Command line" block, comments cut."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("feaslab ")
    ]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    # in order, in one directory: later lines read the files earlier ones wrote
    commands = _readme_commands()
    assert len(commands) == 11
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        rc, _, err = run(capsys, *argv)
        assert (rc, err) == (0, ""), argv
