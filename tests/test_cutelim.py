"""Cut elimination: frozen blowups, invariants, budgets, fragment limits.

Cut-free goldens were frozen from runs of the eliminator after verifying
the outputs check and match the closed forms (square-cut: 6*2^n - 3).
"""

import hashlib

import pytest

from feaslab.cutelim import (
    BLOWUP_COLUMNS,
    FragmentError,
    NodeBudgetError,
    blowup_report,
    eliminate_cuts,
    node_budget,
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
    cut,
    logical_axiom,
    or_left,
    serialize_proof,
    size,
    theory_leaf,
    weaken_left,
)
from feaslab.lang import app, atom, const
from feaslab.semantics import Mat2
from feaslab.theories import arith_feasibility

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
    # sha256 of the concatenated cut-free proofs, frozen from the eliminator
    # before its multicut was memoized
    reps = (
        [gen_square_cut(n) for n in range(9)]
        + [gen_distorted(n) for n in range(8)]
        + [gen_group_power("x", n, mode="squaring") for n in range(9)]
        + [gen_quantifier(n) for n in range(4)]
        + [gen_group_power("x", n, mode="quantifier") for n in range(4)]
    )
    h = hashlib.sha256()
    for r in reps:
        h.update(serialize_proof(eliminate_cuts(r.proof, r.theory)).encode())
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


def test_matrix_proofs_are_out_of_fragment():
    # conjunction cut formulas by construction
    rep = gen_matrix_power(FIB, 1)
    with pytest.raises(FragmentError):
        eliminate_cuts(rep.proof, rep.theory)


def test_node_budget_argument():
    rep = gen_square_cut(5)  # cut-free form has 189 lines
    with pytest.raises(NodeBudgetError):
        eliminate_cuts(rep.proof, rep.theory, budget=50)
    assert cut_free_lines(rep, budget=200) == 189


def test_node_budget_environment(monkeypatch):
    assert node_budget() == 10**6
    assert node_budget(123) == 123
    monkeypatch.setenv("FEASLAB_NODE_BUDGET", "50")
    assert node_budget() == 50
    rep = gen_square_cut(5)
    with pytest.raises(NodeBudgetError):
        eliminate_cuts(rep.proof, rep.theory)
    monkeypatch.setenv("FEASLAB_NODE_BUDGET", "not-a-number")
    with pytest.raises(NodeBudgetError):
        node_budget()


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
