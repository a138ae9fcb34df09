"""Cut elimination: frozen blowups, invariants, budgets, fragment limits.

Cut-free goldens were frozen from runs of the eliminator after verifying
the outputs check and match the closed forms: square-cut 3*2^(n+1) - 3,
group-power squaring 2^(n+1) - 1, distorted 2^(n+2) + 2 for n >= 1.

The budget counts DAG nodes built (multicut memo misses, rebuilt
inferences and proof nodes copied by substitution), not the tree lines of
the output.
"""

import gc
import hashlib
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from feaslab import cutelim, lang
from feaslab.cutelim import (
    BLOWUP_COLUMNS,
    FragmentError,
    NodeBudgetError,
    blowup_report,
    eliminate_cuts,
    node_budget,
    ratio_text,
)
from feaslab.generators import (
    gen_distorted,
    gen_group_power,
    gen_matrix_power,
    gen_quantifier,
    gen_square_cut,
    gen_unary,
)
from feaslab.kernel import (
    check,
    contract_left,
    contract_right,
    cut,
    forall_left,
    forall_right,
    implies_left,
    implies_right,
    logical_axiom,
    or_left,
    serialize_proof,
    size,
    theory_leaf,
    weaken_left,
    weaken_right,
)
from feaslab.lang import app, atom, conj, const, count_text, exists, forall, imp, neg, var
from feaslab.semantics import Mat2
from feaslab.theories import arith_feasibility
from multicut_cases import A, B, C, CASES, FRAGMENT_CASES, TH, f0
from nested_format import serialize_nested

FIB = Mat2(2, 1, 1, 1)


def cut_free_lines(report, budget=None):
    cf = eliminate_cuts(report.proof, report.theory, budget)
    stats = check(cf, report.theory)
    assert stats.cut_count == 0
    assert cf.conclusion == report.proof.conclusion
    return stats.lines


def test_unary_compresses():
    # cuts only glue axiom instances: the cut-free proof is one branch
    assert cut_free_lines(gen_unary(5)) == 6


def test_square_cut_blowup_table():
    golden = {0: 3, 1: 9, 2: 21, 3: 45, 4: 93, 5: 189}
    for n, want in golden.items():
        assert cut_free_lines(gen_square_cut(n)) == want


def test_square_cut_doubles_per_stage():
    counts = [cut_free_lines(gen_square_cut(n)) for n in range(0, 6)]
    for a, b in zip(counts, counts[1:]):
        assert b >= 2 * a


def test_quantifier_blowup_table():
    golden = {0: 9, 1: 23, 2: 105, 3: 1739, 4: 446157}
    for n, want in golden.items():
        assert cut_free_lines(gen_quantifier(n)) == want


def test_quantifier_stage_five_exact_lines():
    rep = gen_quantifier(5)
    cf = eliminate_cuts(rep.proof, rep.theory, budget=10**30)
    assert cf.conclusion == rep.proof.conclusion
    assert size(cf).lines == 29_239_594_703


def dag_nodes(p):
    seen = {id(p)}
    stack = [p]
    while stack:
        for q in stack.pop().premises:
            if id(q) not in seen:
                seen.add(id(q))
                stack.append(q)
    return len(seen)


def test_cut_free_output_keeps_sharing():
    gpq = [gen_group_power("x", n, mode="quantifier") for n in range(5)]
    quant = [gen_quantifier(n) for n in range(5)]
    for reps, want in ((gpq, [2, 3, 5, 9, 17]), (quant, [6, 11, 21, 41, 81])):
        got = [dag_nodes(eliminate_cuts(r.proof, r.theory)) for r in reps]
        assert got == want


def test_cut_free_serialization_frozen():
    # sha256 of the concatenated cut-free proofs in the nested format,
    # frozen from the eliminator before its multicut was memoized
    reps = (
        [gen_square_cut(n) for n in range(9)]
        + [gen_distorted(n) for n in range(8)]
        + [gen_group_power("x", n, mode="squaring") for n in range(9)]
        + [gen_quantifier(n) for n in range(4)]
        + [gen_group_power("x", n, mode="quantifier") for n in range(4)]
    )
    h = hashlib.sha256()
    for r in reps:
        h.update(serialize_nested(eliminate_cuts(r.proof, r.theory)).encode())
    assert h.hexdigest() == (
        "e6a77160d9e03caaf14c3cca26900daeb78adad60283ec648797e20542bbd877"
    )


def test_repeated_elimination_is_identical():
    # no multicut state survives from one call to the next
    rep = gen_quantifier(3)
    first = eliminate_cuts(rep.proof, rep.theory)
    second = eliminate_cuts(rep.proof, rep.theory)
    assert serialize_proof(first) == serialize_proof(second)


def test_group_blowup_at_stage_three():
    assert cut_free_lines(gen_group_power("x", 3, mode="linear")) == 5
    assert cut_free_lines(gen_group_power("x", 3, mode="squaring")) == 15
    assert cut_free_lines(gen_group_power("x", 3, mode="quantifier")) == 511


def test_distorted_blowup_table():
    golden = {0: 8, 1: 10, 2: 18}
    for n, want in golden.items():
        assert cut_free_lines(gen_distorted(n)) == want


def test_cut_free_input_is_fixed_point():
    th = arith_feasibility()
    leaf = logical_axiom(atom("F", const("0")))
    assert eliminate_cuts(leaf, th) is leaf
    cf = eliminate_cuts(gen_square_cut(2).proof, th)
    assert eliminate_cuts(cf, th) is cf


def test_simple_cut_collapses_to_axiom():
    th = arith_feasibility()
    a = atom("F", const("0"))
    p = cut(logical_axiom(a), logical_axiom(a), a)
    cf = eliminate_cuts(p, th)
    assert cf.rule.tag == "LogicalAxiom"
    assert size(cf).lines == 1


def test_deep_multicut_runs_at_the_default_recursion_limit(monkeypatch):
    # the cut formula A rides through 3,000 weakening/contraction pairs on
    # B, so the multicut descends 6,000 inferences of a narrow proof; a
    # raised recursion limit would hide a recursive multicut, so none takes
    monkeypatch.setattr(sys, "setrecursionlimit", lambda limit: None)
    th = arith_feasibility()
    a, b = atom("F", const("0")), atom("F", app("s", const("0")))
    p1 = weaken_left(logical_axiom(a), b)  # B, A |- A
    q = p1
    levels = 3000
    for _ in range(levels):
        q = contract_left(weaken_left(q, b), b)  # B, A |- A again
    p = cut(p1, q, a)
    cf = eliminate_cuts(p, th)
    assert cf.conclusion == p.conclusion
    stats = check(cf, th)
    assert stats.cut_count == 0
    assert stats.lines == 2 * levels + 3


def test_matrix_proofs_are_out_of_fragment():
    # conjunction cut formulas by construction
    rep = gen_matrix_power(FIB, 1)
    with pytest.raises(FragmentError):
        eliminate_cuts(rep.proof, rep.theory)


def test_fragment_membership(monkeypatch):
    # an atom is answered without a fold; a compound formula by its
    # connectives, whatever its terms
    a, b = atom("F", const("0")), atom("F", var("x"))
    inside = [a, imp(a, b), forall("x", imp(b, a)), forall("x", forall("y", b))]
    outside = [conj(a, b), neg(a), exists("x", b), imp(a, conj(a, a)), forall("x", neg(b))]
    assert [cutelim._in_fragment(f) for f in inside + outside] == [True] * 4 + [False] * 5

    def no_fold(*args):
        raise AssertionError("folded an atom")

    monkeypatch.setattr(cutelim, "fold", no_fold)
    assert cutelim._in_fragment(a) and cutelim._in_fragment(b)


def test_node_budget_argument():
    rep = gen_square_cut(5)  # cut-free form has 189 lines
    with pytest.raises(NodeBudgetError):
        eliminate_cuts(rep.proof, rep.theory, budget=50)
    assert cut_free_lines(rep, budget=200) == 189


def test_node_budget_environment():
    assert node_budget() == 10**6
    assert node_budget(123) == 123


def test_default_budget_decides_beyond_a_million_lines():
    # each of these builds fewer than 300 DAG nodes for more than 10^6 lines
    families = [
        (gen_square_cut, range(18, 21), lambda n: 3 * 2 ** (n + 1) - 3),
        (
            lambda n: gen_group_power("x", n, mode="squaring"),
            range(19, 21),
            lambda n: 2 ** (n + 1) - 1,
        ),
        (gen_distorted, range(18, 21), lambda n: 2 ** (n + 2) + 2),
    ]
    for make, ns, closed_form in families:
        for n in ns:
            want = closed_form(n)
            assert want > 10**6
            assert cut_free_lines(make(n)) == want


# DAG nodes that eliminating the cuts of square-cut 40 builds
SQUARE_CUT_40_TICKS = 602


def test_square_cut_forty_budget_is_dag_nodes():
    rep = gen_square_cut(40)
    assert cut_free_lines(rep) == 6_597_069_766_653
    assert cut_free_lines(rep, budget=SQUARE_CUT_40_TICKS) == 6_597_069_766_653
    with pytest.raises(NodeBudgetError):
        eliminate_cuts(rep.proof, rep.theory, budget=SQUARE_CUT_40_TICKS - 1)


# DAG nodes that eliminating the cuts of quantifier 3 builds, 125 of them
# proof nodes copied by eigenvariable substitution
QUANTIFIER_3_TICKS = 355


def test_quantifier_budget_counts_substituted_nodes():
    rep = gen_quantifier(3)
    assert cut_free_lines(rep, budget=QUANTIFIER_3_TICKS) == 1739
    with pytest.raises(NodeBudgetError):
        eliminate_cuts(rep.proof, rep.theory, budget=QUANTIFIER_3_TICKS - 1)


def test_node_budget_error_names_count_and_cut():
    rep = gen_square_cut(5)
    with pytest.raises(NodeBudgetError) as info:
        eliminate_cuts(rep.proof, rep.theory, budget=50)
    msg = str(info.value)
    assert msg.startswith(
        "cut elimination exceeded its budget of 50 DAG nodes: "
        "built 51 while eliminating cut 13 of 17, on F("
    )


def test_ratio_text_is_exact_past_the_float_range():
    assert ratio_text(9, 5) == f"{9 / 5:.6g}" == "1.8"
    assert ratio_text(10**6 + 1, 3) == f"{(10**6 + 1) / 3:.6g}"
    assert ratio_text(2 * 10**309, 1) == "2e+309"
    assert ratio_text(3 * 10**400, 7) == "4.28571e+399"
    assert ratio_text(10**5000, 10**4000 * 3) == "3.33333e+999"


def test_count_text_is_exact_past_the_digit_limit():
    assert count_text(6_597_069_766_653) == "6597069766653"
    n = 3 * 2**70_001 - 3  # about 21,000 digits; str(n) raises ValueError here
    text = count_text(n)
    assert len(text) == 21_073
    assert int(text[:4000]) == n // 10**17_073
    assert int(text[-4000:]) == n % 10**4000
    head, exp = ratio_text(n // 10**21_000, 55).split("e+")
    assert ratio_text(n, 55) == f"{head}e+{int(exp) + 21_000}" == "1.37241e+21071"


def test_quantifier_ratio_past_the_float_range():
    rows = blowup_report(gen_quantifier, [11])
    row = rows[0]
    assert row.status == "ok"
    assert len(str(row.lines_cut_free)) == 618
    assert row.ratio == float("inf")
    q = row.lines_cut_free * 10**5 // row.lines_with_cuts
    digits = str(q)
    # 6 significant digits, exponent of the quotient itself
    head = round(int(digits[:7]) / 10)
    assert ratio_text(row.lines_cut_free, row.lines_with_cuts) == (
        f"{head // 100000}.{head % 100000:05d}e+{len(digits) - 6}"
    )


def test_blowup_report_rows():
    rows = blowup_report(gen_square_cut, range(0, 4))
    assert [r.n for r in rows] == [0, 1, 2, 3]
    for r in rows:
        assert r.status == "ok"
        assert r.lines_with_cuts == 10 * r.n + 5
        assert r.lines_cut_free == 6 * 2**r.n - 3
        assert r.ratio == pytest.approx(r.lines_cut_free / r.lines_with_cuts)
        assert r.cut_count == 3 * r.n + 2
        assert r.contraction_count == r.n
        assert r.wall_time_ms is None  # byte-reproducible by default


def test_blowup_report_timings_and_budget():
    rows = blowup_report(gen_square_cut, [5], budget=50)
    assert rows[0].status == "budget-exceeded"
    assert rows[0].lines_cut_free is None and rows[0].ratio is None
    rows = blowup_report(lambda n: gen_matrix_power(FIB, n), [1])
    assert rows[0].status == "fragment-exceeded"
    rows = blowup_report(gen_square_cut, [2], timings=True)
    assert rows[0].wall_time_ms is not None and rows[0].wall_time_ms >= 0


def test_blowup_columns_match_row_fields():
    assert BLOWUP_COLUMNS == (
        "n",
        "lines_with_cuts",
        "lines_cut_free",
        "ratio",
        "cut_count",
        "contraction_count",
        "wall_time_ms",
        "status",
    )


def test_commutation_keeps_consumed_occurrences():
    # the multicut must not take the A that OrLeft consumes in its first
    # premise; the contraction makes it remove two copies of A
    th = arith_feasibility()
    a, b = atom("F", const("0")), atom("F", app("s", const("0")))
    q0 = weaken_left(logical_axiom(a), a)  # A, A |- A
    q1 = weaken_left(logical_axiom(b), a)  # A, B |- B
    p2 = contract_left(or_left(q0, q1, a, b), a)  # A v B, A |- A, B
    p = cut(theory_leaf(th, "F(0)", {}), p2, a)
    cf = eliminate_cuts(p, th)
    assert cf.conclusion == p.conclusion
    assert check(cf, th).cut_count == 0


# generate -> check -> eliminate_cuts -> check, every result dropped
REPEATED_GRID = [(gen_square_cut, range(9)), (gen_quantifier, range(3)), (gen_distorted, range(5))]


def _run_repeated_grid():
    for gen, ns in REPEATED_GRID:
        for n in ns:
            rep = gen(n)
            check(rep.proof, rep.theory)
            assert cut_free_lines(rep) > 0


def test_a_repeated_run_holds_no_more_memory():
    # the first run may fill caches whose lifetime is the process; a second
    # run of the same grid finds what it needs there and keeps nothing new
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        held = []
        for _ in range(2):
            _run_repeated_grid()
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held[1] <= held[0] + 64 * 1024, held


def test_a_sweep_keeps_one_substitution_entry_per_call(monkeypatch):
    # matrix-power quantifier 0..6 over a matrix no other test uses, so
    # every node is new: the process keeps one substitution entry per
    # call (8,210 entries and 2.4 MB held when it kept every pair)
    monkeypatch.setattr(lang, "_subst_memo", {})
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(7):
            rep = gen_matrix_power(Mat2(3, 2, 1, 1), n, mode="quantifier")
            check(rep.proof, rep.theory)
        del rep
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(lang._subst_memo) <= 300
    assert held < 1.5 * 2**20, held


def test_elimination_keeps_its_substitutions_to_itself(monkeypatch):
    # the formulas substituted in an elimination go to the run's memo,
    # freed with it (4,171 process entries when every pair was kept)
    monkeypatch.setattr(lang, "_subst_memo", {})
    rep = gen_quantifier(8)
    check(rep.proof, rep.theory)
    check(eliminate_cuts(rep.proof, rep.theory), rep.theory)
    assert len(lang._subst_memo) < 100


# lines and sha256 prefix of the serialized elimination of each hand-built
# cut in multicut_cases, frozen from the multicut before its left rules
# went through one table
MULTICUT_GOLDEN = {
    "axiom_on_the_left": (2, "0fb7bfae4d4d21d2"),
    "theory_leaf_absorbs": (3, "3db2b402455346c8"),
    "weaken_right_on_a": (3, "c1c4135f475e9c4b"),
    "weaken_left_on_a_with_context": (4, "d909632a0894764a"),
    "contract_left_below_count": (3, "762c852def279bd4"),
    "contract_left_with_context": (7, "a0e6ec31e9ac3825"),
    "forall_right_eigen_clash": (4, "9a6841efcabec444"),
    "exists_left_eigen_clash": (4, "27ce7f7dcc747e05"),
    "principalize_past_weaken_left": (2, "658dc8c4858980df"),
    "principalize_past_right_premise": (5, "9106fa79e79a913b"),
    "principalize_weakened_implication": (3, "0ef8ad105350ebf3"),
    "principalize_weakened_forall": (3, "683ce8a4126950e6"),
    "principalize_eigen_clash": (3, "55e5894d4fb5cad3"),
    "implies_left_not_principal": (3, "27de0866107b0804"),
    "forall_left_not_principal": (3, "63989d0150686454"),
    "implies_left_principal_and_context": (4, "976e6caf15c1d5b6"),
    "forall_left_principal_and_context": (7, "18cc4dda3339eabb"),
}


def test_every_hand_built_cut_is_pinned():
    assert list(MULTICUT_GOLDEN) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_each_multicut_branch_eliminates(name):
    p, theory = CASES[name]()
    assert check(p, theory).cut_count == 1
    cf = eliminate_cuts(p, theory)
    stats = check(cf, theory)
    assert stats.cut_count == 0
    assert cf.conclusion == p.conclusion
    digest = hashlib.sha256(serialize_proof(cf).encode()).hexdigest()[:16]
    assert (stats.lines, digest) == MULTICUT_GOLDEN[name]


@pytest.mark.parametrize("name", list(FRAGMENT_CASES))
def test_multicut_fragment_errors(name):
    build, message = FRAGMENT_CASES[name]
    p, theory = build()
    check(p, theory)
    with pytest.raises(FragmentError) as info:
        eliminate_cuts(p, theory)
    assert str(info.value) == message


# Random cut compositions: p1 introduces the cut formula a on the right,
# under 0-3 context rules; p2 uses a on the left, principal in its last
# logical rule, with extra context copies of a.
_Y = var("y")


def _implication_intros():
    ab = imp(A, B)
    by_rule = implies_right(theory_leaf(TH, "F:successor", {"x": const("0")}), A, B)
    return ab, [by_rule, weaken_right(f0(), ab)]  # |- A -> B;  |- A, A -> B


def _forall_intros():
    q = forall("x", atom("F", app("s", var("x"))))
    fy = atom("F", app("s", _Y))
    inner = forall_left(logical_axiom(fy), forall("z", atom("F", var("z"))), app("s", _Y))
    return q, [forall_right(inner, q, "y"), weaken_right(f0(), q)]  # Az F(z) |- q;  |- A, q


def _implication_use(a, copies0, copies1):
    q0, q1 = f0(), logical_axiom(B)
    for _ in range(copies0):
        q0 = weaken_left(q0, a)
    for _ in range(copies1):
        q1 = weaken_left(q1, a)
    return implies_left(q0, q1, A, B)  # a^(1 + copies0 + copies1) |- B


def _forall_use(a, t, copies):
    q = logical_axiom(atom("F", app("s", t)))
    for _ in range(copies):
        q = weaken_left(q, a)
    return forall_left(q, a, t)  # a^(1 + copies) |- F(s(t))


@st.composite
def _cut_compositions(draw):
    kind = draw(st.sampled_from(["implies", "forall"]))
    a, intros = _implication_intros() if kind == "implies" else _forall_intros()
    p1 = draw(st.sampled_from(intros))
    pool = [A, B, C, atom("F", _Y), a]
    rules = st.sampled_from(["wl", "wr", "cl", "cr", "il0", "il1"])
    for rule in draw(st.lists(rules, max_size=3)):
        if rule == "wl":
            p1 = weaken_left(p1, draw(st.sampled_from(pool)))
        elif rule == "wr":
            p1 = weaken_right(p1, draw(st.sampled_from(pool)))
        elif rule == "cl":
            f = draw(st.sampled_from(pool))
            p1 = contract_left(weaken_left(weaken_left(p1, f), f), f)
        elif rule == "cr":
            f = draw(st.sampled_from(p1.conclusion.succ))
            p1 = contract_right(weaken_right(p1, f), f)
        elif rule == "il0":  # a stays in the left premise
            p1 = implies_left(weaken_right(p1, A), logical_axiom(B), A, B)
        else:  # a stays in the right premise
            p1 = implies_left(f0(), weaken_left(p1, B), A, B)
    if kind == "implies":
        p2 = _implication_use(a, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    else:
        t = draw(st.sampled_from([const("0"), _Y]))
        p2 = _forall_use(a, t, draw(st.integers(0, 2)))
    if draw(st.booleans()) and p2.conclusion.ant.count(a) > 1:
        p2 = contract_left(p2, a)
    if draw(st.booleans()):
        p2 = weaken_left(p2, a)
    return cut(p1, p2, a)


_KNOWN_FRAGMENT_ERRORS = {message for _, message in FRAGMENT_CASES.values()}


@settings(max_examples=150, deadline=None)
@given(_cut_compositions())
def test_random_cut_compositions_eliminate(p):
    assert check(p, TH).cut_count == 1
    try:
        cf = eliminate_cuts(p, TH)
    except FragmentError as e:
        assert str(e) in _KNOWN_FRAGMENT_ERRORS
        return
    assert check(cf, TH).cut_count == 0
    assert cf.conclusion == p.conclusion
