"""Acceptance gate: one test per shipped claim, one PASS line each.

Run with -s to see the lines.  Frozen constants come from the library's
own oracles (dynamic program, exact evaluators, word metric) computed
independently of the generators under test.
"""

import random
import time
from fractions import Fraction

import pytest

from feaslab.cutelim import eliminate_cuts
from feaslab.flowgraph import build_flow_graph
from feaslab.generators import (
    gen_distorted,
    gen_geometric,
    gen_group_power,
    gen_matrix_power,
    gen_quantifier,
    gen_rational_orbit,
    gen_square_cut,
    gen_unary,
)
from feaslab.kernel import CheckError, KernelError, Proof, check, serialize_proof, size
from feaslab.lang import Sequent, atom, var
from feaslab.oracle import min_proof_lines, min_tree_derivation, min_tree_table
from feaslab.semantics import (
    INF,
    BSElement,
    ExtRational,
    Mat2,
    UndefinedOperation,
    eigenvalues_sym2,
    mobius_apply,
    winding_growth,
)
from feaslab.theories import arith_feasibility

FIB = Mat2(2, 1, 1, 1)


def ok(k, detail):
    print(f"PASS criterion {k}: {detail}")


def group(n, mode):
    return gen_group_power("x", n, mode=mode)


def matrix(n, mode="squaring"):
    return gen_matrix_power(FIB, n, mode=mode)


def orbit(n):
    return gen_rational_orbit(FIB, 0, n)


# criterion 1: every generator output passes the checker, quickly


def test_criterion_01_all_generated_proofs_check():
    sweeps = [
        (gen_unary, range(0, 21)),
        (gen_geometric, range(1, 21)),
        (gen_square_cut, range(0, 21)),
        (gen_quantifier, range(0, 7)),
        (lambda n: group(n, "linear"), range(0, 21)),
        (lambda n: group(n, "squaring"), range(0, 21)),
        (lambda n: group(n, "quantifier"), range(0, 7)),
        (gen_distorted, range(0, 21)),
        (lambda n: matrix(n), range(0, 21)),
        (lambda n: matrix(n, "quantifier"), range(0, 7)),
        (orbit, range(0, 21)),
    ]
    t0 = time.perf_counter()
    total = 0
    for make, ns in sweeps:
        for n in ns:
            rep = make(n)
            stats = check(rep.proof, rep.theory)
            assert stats.lines == rep.stats.lines
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(1, f"{total} generated proofs re-checked in {elapsed:.2f}s (< 10s)")


# criterion 2: line counts are affine in the stage parameter


def test_criterion_02_line_counts_affine():
    families = [
        ("unary", gen_unary, range(2, 31), 2, 1),
        ("geometric", gen_geometric, range(2, 31), 8, -3),
        ("square-cut", gen_square_cut, range(2, 31), 10, 5),
        ("quantifier", gen_quantifier, range(2, 31), 15, 17),
        ("group-linear", lambda n: group(n, "linear"), range(2, 31), 4, -3),
        ("group-squaring", lambda n: group(n, "squaring"), range(2, 31), 3, 1),
        ("group-quantifier", lambda n: group(n, "quantifier"), range(2, 15), 11, 9),
        ("distorted", gen_distorted, range(2, 31), 6, 11),
        ("matrix-squaring", lambda n: matrix(n), range(2, 31), 39, 15),
        ("matrix-quantifier", lambda n: matrix(n, "quantifier"), range(2, 11), 22, 65),
        ("rational-orbit", orbit, range(2, 31), 39, 34),
    ]
    for name, make, ns, slope, intercept in families:
        lines = [make(n).stats.lines for n in ns]
        seconds = [a - 2 * b + c for a, b, c in zip(lines, lines[1:], lines[2:])]
        assert all(d == 0 for d in seconds), name
        assert all(
            L == slope * n + intercept for n, L in zip(ns, lines)
        ), name
    ok(2, f"{len(families)} families affine with the frozen slopes/intercepts")


# criterion 3: advertised values match independent evaluation


def test_criterion_03_advertised_values_exact():
    for n in range(0, 7):
        assert gen_square_cut(n).advertised_value == 2 ** (2**n)
    for n in range(0, 6):
        assert gen_distorted(n).advertised_value == BSElement(2 ** (2**n), 0, 0)
    for n in range(0, 11):
        rep = matrix(n)
        B = FIB ** (2**n)
        assert rep.advertised_value == B
        # proof-term evaluation agrees with the numeric power entrywise
        entries = tuple(rep.theory.evaluate(t).num for t in rep.target)
        assert entries == (B.a, B.b, B.c, B.d)
    ok(3, "square-cut to n=6, distorted to n=5, matrix powers to n=10 exact")


# criterion 4: cut elimination blows the short proofs up


def test_criterion_04_cut_elimination_blowup():
    t0 = time.perf_counter()
    th = arith_feasibility()
    cut_free = []
    for n in range(0, 21):
        rep = gen_square_cut(n)
        assert rep.stats.lines == 10 * n + 5  # affine with cuts
        cf = eliminate_cuts(rep.proof, th)
        stats = check(cf, th)
        assert stats.cut_count == 0
        assert cf.conclusion == rep.proof.conclusion
        cut_free.append(stats.lines)
    assert cut_free == [3 * 2 ** (n + 1) - 3 for n in range(0, 21)]
    for a, b in zip(cut_free, cut_free[1:]):
        assert b >= 2 * a
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(
        4,
        f"cut-free sizes {cut_free[:4]} ... {cut_free[-1]} (n=0..20) at least "
        f"double per stage in {elapsed:.2f}s (< 30s)",
    )


# criterion 5: minimality table agrees with proof enumeration


def test_criterion_05_minimality_oracle():
    table = min_tree_table(16)
    for n in range(0, 9):
        assert min_proof_lines(n) == int(table[n])
    assert min_tree_derivation(4) == 5
    assert min_proof_lines(4) == 5
    assert min_tree_derivation(16) == 11
    assert min_proof_lines(16) == 11
    ok(5, "DP equals enumeration for n <= 8; C(4)=5 and C(16)=11 recomputed")


# criterion 6: the projective action is a homomorphism


def test_criterion_06_mobius_homomorphism():
    rng = random.Random(6)

    def rand_matrix():
        while True:
            A = Mat2(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            if A.det() != 0:
                return A

    def rand_point():
        if rng.random() < 0.1:
            return INF
        return ExtRational(Fraction(rng.randint(-20, 20), rng.randint(1, 20)))

    failures = 0
    for _ in range(1000):
        A, B, x = rand_matrix(), rand_matrix(), rand_point()
        lhs = mobius_apply(A * B, x)
        rhs = mobius_apply(A, mobius_apply(B, x))
        if lhs != rhs:
            failures += 1
    assert failures == 0
    ok(6, "1000 randomized composition cases exact, 0 failures")


# criterion 7: toral automorphism growth


def test_criterion_07_torus_growth():
    lam1, lam2 = eigenvalues_sym2(FIB)
    assert lam1 == pytest.approx((3 + 5**0.5) / 2, abs=1e-12)
    assert lam2 == pytest.approx((3 - 5**0.5) / 2, abs=1e-12)
    A5 = FIB**5
    assert (A5.a, A5.c) == (89, 55)  # A^5 applied to (1, 0)
    norms = [winding_growth(FIB, (1, 0), k)[0] for k in range(1, 6)]
    assert norms == [2, 5, 13, 34, 89]
    r29 = winding_growth(FIB, (1, 0), 29)[1]
    r30 = winding_growth(FIB, (1, 0), 30)[1]
    assert abs(r30 - r29) < 1e-6
    ok(7, f"eigenvalues exact to 1e-12; ratio drift {abs(r30 - r29):.2e} < 1e-6")


# criterion 8: flow graph cycle structure


def test_criterion_08_flow_cycles():
    for n in range(1, 11):
        rep = gen_unary(n)
        assert build_flow_graph(rep.proof, rep.theory).cycle_count() == 0
    prev = 0
    for n in range(1, 11):
        rep = gen_square_cut(n)
        g = build_flow_graph(rep.proof, rep.theory)
        c = g.cycle_count()
        assert c > 0 and c >= prev
        assert c == 2 * n
        assert c == g.cycle_rank_by_forest()
        assert c == g.edge_count - g.node_count + g.component_count()
        prev = c
    ok(8, "unary proofs acyclic; square-cut cycles 2n, Euler identity holds")


# criterion 9: the projective line's partial arithmetic


def test_criterion_09_infinity_rules():
    two = ExtRational(Fraction(2))
    zero = ExtRational(Fraction(0))
    assert INF.mul(INF).is_inf
    assert two.mul(INF).is_inf and INF.mul(two).is_inf
    assert zero.mul(INF) == zero and INF.mul(zero) == zero
    assert two.div(INF) == zero
    assert INF.inv() == zero  # the a = 1 instance of a / inf
    undefined = [
        lambda: INF.add(two),
        lambda: two.add(INF),
        lambda: INF.add(INF),
        lambda: INF.neg(),
        lambda: INF.div(two),
        lambda: INF.div(zero),
        lambda: INF.div(INF),
        lambda: zero.inv(),
        lambda: two.div(zero),
    ]
    for f in undefined:
        with pytest.raises(UndefinedOperation):
            f()
    ok(9, "4 defined infinity rules hold; 9 other combinations raise")


# criterion 10: the checker rejects tampered proofs


def _paths(p):
    out = []
    stack = [(p, ())]
    while stack:
        node, path = stack.pop()
        out.append(path)
        for j, q in enumerate(node.premises):
            stack.append((q, path + (j,)))
    return out


def _node_at(p, path):
    for j in path:
        p = p.premises[j]
    return p


def _rebuild(p, path, new_node):
    if not path:
        return new_node
    j = path[0]
    prems = p.premises[:j] + (_rebuild(p.premises[j], path[1:], new_node),) + p.premises[j + 1 :]
    return Proof(p.conclusion, p.rule, prems)


def _mutate_sequent(seq, rng):
    rogue = atom("G", var("mut"))
    ops = []
    if seq.ant or seq.succ:
        ops += ["replace", "drop", "duplicate"]
    ops.append("swap")
    op = rng.choice(ops)
    ant, succ = list(seq.ant), list(seq.succ)
    if op == "swap":
        return Sequent(tuple(succ), tuple(ant))
    side = rng.choice([s for s in (ant, succ) if s])
    i = rng.randrange(len(side))
    if op == "replace":
        side[i] = rogue
    elif op == "drop":
        del side[i]
    else:
        side.insert(i, side[i])
    return Sequent(tuple(ant), tuple(succ))


def test_criterion_10_tampered_proofs_rejected():
    rng = random.Random(10)
    reps = [
        gen_square_cut(2),
        gen_unary(4),
        gen_quantifier(1),
        group(3, "squaring"),
        gen_distorted(1),
        orbit(1),
    ]
    baselines = [(r, serialize_proof(r.proof)) for r in reps]
    rejected = 0
    for _ in range(200):
        rep, base = rng.choice(baselines)
        while True:
            path = rng.choice(_paths(rep.proof))
            node = _node_at(rep.proof, path)
            mutated = Proof(_mutate_sequent(node.conclusion, rng), node.rule, node.premises)
            candidate = _rebuild(rep.proof, path, mutated)
            if serialize_proof(candidate) != base:
                break
        with pytest.raises((CheckError, KernelError)):
            check(candidate, rep.theory)
        rejected += 1
    assert rejected == 200
    ok(10, "200 random single-node mutations all rejected by the checker")
