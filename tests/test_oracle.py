"""Minimal-derivation baselines and word-metric distances."""

import hashlib
from math import isqrt
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feaslab.kernel import check, serialize_proof
from feaslab.lang import group_signature, mul, parse_term
from feaslab.oracle import (
    DistortionRow,
    OracleError,
    RadiusExhausted,
    distortion_table,
    enumerate_min_proof,
    min_proof_lines,
    min_tree_derivation,
    min_tree_table,
    word_metric_distance,
)
from feaslab.theories import arith_feasibility

# tree lines of a minimal F(n) derivation, unit costs
MIN_LINES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 10, 11, 10, 11, 12, 11, 11]


def naive_table(n_max, costs):
    """The recurrence with every split scored: no pruning, quadratic."""
    succ_c, plus_c, times_c = costs
    c = [1]
    for n in range(1, n_max + 1):
        options = [c[n - 1] + succ_c]
        options += [c[a] + c[n - a] + plus_c for a in range(1, n // 2 + 1)]
        options += [c[d] + c[n // d] + times_c for d in range(2, isqrt(n) + 1) if n % d == 0]
        c.append(min(options))
    return c


def test_min_tree_table_golden():
    c = min_tree_table(16)
    assert type(c) is list and all(type(x) is int for x in c)
    assert c == MIN_LINES
    # spot checks: 9 = 3*3 beats eight successors, 16 = 4*4 via two squarings
    assert c[9] == 9
    assert c[16] == 11


def test_min_tree_table_monotone_steps():
    c = min_tree_table(64)
    for n in range(1, 65):
        assert c[n] <= c[n - 1] + 1
        assert c[n] >= 1


def test_enumeration_matches_table():
    for n in range(0, 17):
        assert min_proof_lines(n) == MIN_LINES[n]


def test_enumerated_proofs_check():
    th = arith_feasibility()
    for n in (0, 1, 9, 12, 16):
        p = enumerate_min_proof(n)
        stats = check(p, th)
        assert stats.lines == MIN_LINES[n]
        assert th.evaluate(p.conclusion.succ[0].args[0]) == n


def test_enumerated_proofs_are_frozen():
    # the enumerated proof of every n <= 64, byte for byte: the tie-breaks
    # pick one optimum among several
    text = "\n".join(serialize_proof(enumerate_min_proof(n)) for n in range(65))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c95388deb40dcafda0a8c012ccbc3c03cbd9125059758a1eebd7eef9a1a251d9"
    )


def test_costs_change_the_optimum():
    # free multiplication makes composite targets cheap
    cheap_times = min_tree_table(16, costs=(1, 1, 0))
    assert cheap_times[16] < min_tree_table(16)[16]


def test_table_bounds():
    with pytest.raises(OracleError):
        min_tree_table(-1)
    with pytest.raises(OracleError):
        min_tree_table(10, bound=5)
    with pytest.raises(OracleError):
        enumerate_min_proof(100, limit=50)
    with pytest.raises(OracleError):
        min_tree_derivation(-3)


@pytest.mark.parametrize("costs", [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1)])
def test_table_refuses_negative_or_missing_costs(costs):
    # a negative cost would score a longer derivation lower: F(16) came out -15
    with pytest.raises(OracleError, match="nonnegative"):
        min_tree_table(16, costs=costs)


@pytest.mark.parametrize("costs", [(0.5, 0.5, 0.5), (1, 1.0, 1), (True, 1, 1), ("1", 1, 1)])
def test_table_refuses_non_int_costs(costs):
    # (0.5, 0.5, 0.5) was truncated into an int64 array and gave all 1s
    with pytest.raises(OracleError, match="nonnegative integers"):
        min_tree_table(16, costs=costs)


@settings(deadline=None)
@given(
    n_max=st.integers(0, 400),
    costs=st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
)
def test_table_matches_unpruned_dp(n_max, costs):
    assert min_tree_table(n_max, costs) == naive_table(n_max, costs)


@pytest.mark.parametrize(
    "costs",
    [(1, 1, 1), (1, 1, 0), (1, 0, 10**6), (100, 1, 1)],
    ids=["unit", "free-times", "linear", "costly-successor"],
)
def test_named_regimes_match_unpruned_dp(costs):
    assert min_tree_table(2000, costs) == naive_table(2000, costs)



# ---------------------------------------------------------------------------
# word metric


def g_term(s):
    return parse_term(s, group_signature(("x", "y")))


def test_bs_word_distances():
    assert word_metric_distance(g_term("y * y")) == 2
    # y^8 = x^2 y^2 x^-2, shorter than the naive x^3 y x^-3
    y8 = g_term("((((((y * y) * y) * y) * y) * y) * y) * y")
    assert word_metric_distance(y8) == 6
    assert word_metric_distance(g_term("e")) == 0
    assert word_metric_distance(g_term("x * inv(x)")) == 0


def test_free_word_distances():
    w = g_term("(x * (((y * y) * y) * y)) * inv(x)")
    assert word_metric_distance(w, presentation="free") == 6
    assert word_metric_distance(g_term("x * y"), presentation="free") == 2
    ab = parse_term("a * inv(b)", group_signature(("a", "b")))
    assert word_metric_distance(ab, presentation="free", generators=("a", "b")) == 2


def test_radius_exhausted():
    y8 = g_term("((((((y * y) * y) * y) * y) * y) * y) * y")
    with pytest.raises(RadiusExhausted):
        word_metric_distance(y8, radius=3)
    with pytest.raises(OracleError):
        word_metric_distance(y8, presentation="dihedral")


def test_radius_exhausted_names_a_huge_target_by_its_size():
    # y squared 40 times is a DAG of 41 nodes and a tree of 2^41 - 1: the
    # search names it only when it fails, and then by its size
    t = g_term("y")
    for _ in range(40):
        t = mul(t, t)
    start = perf_counter()
    with pytest.raises(RadiusExhausted) as info:
        word_metric_distance(t, radius=4)
    assert perf_counter() - start < 1.0
    assert str(info.value) == (
        "no word of length <= 4 reaches <term of 2199023255551 nodes as a tree, 41 distinct>"
    )


def test_distortion_table_golden():
    rows = distortion_table(3)
    assert [r.n for r in rows] == [0, 1, 2, 3]
    assert [r.proof_lines for r in rows] == [15, 17, 23, 29]
    assert [r.normal_form for r in rows] == ["(2, 0)", "(4, 0)", "(16, 0)", "(256, 0)"]
    assert [r.conjugated_length for r in rows] == [3, 5, 9, 17]
    # exact metric stays within one of the conjugated witness
    assert [r.word_distance for r in rows] == [2, 4, 8, 16]


def test_distortion_table_skips_large_bfs():
    rows = distortion_table(2, bfs_max_n=1)
    assert rows[1].word_distance == 4
    assert rows[2].word_distance is None
    assert isinstance(rows[0], DistortionRow)
