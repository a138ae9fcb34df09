"""Short-proof generators.

Each generator assembles a checked-by-construction sequent proof whose end
formula asserts feasibility of a fast-growing value, together with size
statistics and the independently evaluated value.  Line counts are affine
in the stage parameter by design; the golden constants live in the tests.

Values are computed lazily: reports carry a cheap printable descriptor and
evaluate the exact value only on demand (matrix powers for large n are
astronomically expensive and are reported symbolically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from . import semantics
from .kernel import (
    Proof,
    SizeStats,
    and_left,
    and_right,
    contract_left,
    cut,
    eq_leaf,
    forall_left,
    forall_right,
    implies_left,
    implies_right,
    logical_axiom,
    size,
    theory_leaf,
)
from .lang import (
    Const,
    Forall,
    Formula,
    Term,
    app,
    arith_signature,
    atom,
    conj,
    const,
    forall,
    imp,
    int_term,
    mul,
    subst_term,
    substitute,
    term_str,
    var,
)
from .semantics import (
    ExtRational,
    Mat2,
    UndefinedOperation,
    eval_nat,
    mobius_apply,
    nat_str,
)
from .theories import (
    Theory,
    arith_feasibility,
    feasibility_formula,
    group_feasibility,
    matrix_entry_terms,
    rational_feasibility,
    rational_term,
)


class GeneratorError(Exception):
    pass


@dataclass
class GenReport:
    """A generated proof plus its bookkeeping.

    target is the end term (or tuple of matrix entry terms, or the end
    formula for matrix proofs); stats and advertised_value are computed on
    first use.
    """

    proof: Proof
    target: object
    theory: Theory
    value_desc: str
    _value_fn: Callable = field(repr=False, default=None)

    @cached_property
    def stats(self) -> SizeStats:
        return size(self.proof)

    @cached_property
    def advertised_value(self):
        return self._value_fn()


def _report(proof, target, theory, value_fn, value_desc) -> GenReport:
    return GenReport(
        proof=proof,
        target=target,
        theory=theory,
        value_desc=value_desc,
        _value_fn=value_fn,
    )


def numeral(n: int) -> Term:
    return int_term(n, arith_signature())


def _F(t: Term):
    return atom("F", t)


# ---------------------------------------------------------------------------
# Arithmetic generators


def gen_unary(n: int) -> GenReport:
    """|- F(n) by n successor steps: one theory leaf and one cut per unit."""
    if n < 0:
        raise GeneratorError("gen_unary needs n >= 0")
    th = arith_feasibility()
    p = theory_leaf(th, "F(0)", {})
    t = const("0")
    for k in range(n):
        step = theory_leaf(th, "F:successor", {"x": t})
        p = cut(p, step, _F(t))
        t = app("s", t)
    return _report(p, t, th, lambda: n, str(n))


def _unary_two(th) -> Proof:
    p = theory_leaf(th, "F(0)", {})
    t = const("0")
    for _ in range(2):
        step = theory_leaf(th, "F:successor", {"x": t})
        p = cut(p, step, _F(t))
        t = app("s", t)
    return p


def gen_geometric(n: int) -> GenReport:
    """|- F(2^n) by n-1 doublings; each stage re-derives |- F(2)."""
    if n < 1:
        raise GeneratorError("gen_geometric needs n >= 1")
    th = arith_feasibility()
    two = numeral(2)
    p = _unary_two(th)
    t = two
    for _ in range(n - 1):
        q = _unary_two(th)
        leaf = theory_leaf(th, "F:times", {"x": two, "y": t})
        half = cut(q, leaf, _F(two))
        p = cut(p, half, _F(t))
        t = mul(two, t)
    return _report(p, t, th, lambda: 2**n, str(2**n))


def gen_square_cut(n: int) -> GenReport:
    """|- F(2^(2^n)) via n squaring lemmas discharged by modus ponens.

    Each stage proves F(u) -> F(exp(u, 2)) in seven lines (times axiom,
    contraction, oracle equation u*u = exp(u,2), equality transport) and
    spends three more lines cutting it against the running proof.
    """
    if n < 0:
        raise GeneratorError("gen_square_cut needs n >= 0")
    th = arith_feasibility()
    two = numeral(2)
    p = _unary_two(th)
    u = two
    for _ in range(n):
        u2 = app("exp", u, two)
        times = theory_leaf(th, "F:times", {"x": u, "y": u})
        squared = contract_left(times, _F(u))
        eq = eq_leaf(mul(u, u), u2)
        transport = theory_leaf(th, "F:equality", {"x": mul(u, u), "y": u2})
        step1 = cut(eq, transport, eq.conclusion.succ[0])
        step2 = cut(squared, step1, _F(mul(u, u)))
        lemma = implies_right(step2, _F(u), _F(u2))
        la = logical_axiom(_F(u2))
        mp = implies_left(p, la, _F(u), _F(u2))
        p = cut(lemma, mp, imp(_F(u), _F(u2)))
        u = u2
    value_term = u

    def value():
        return eval_nat(value_term)

    return _report(p, u, th, value, nat_str(eval_nat(value_term)))


def gen_quantifier(n: int) -> GenReport:
    """|- F(2^(2^(2^n))) through a chain of quantified squaring lemmas.

    psi_j = forall x (F(x) -> F(exp(x, k_j))) with k_0 = 2 and k_{j+1} =
    k_j * k_j; each stage derives psi_j |- psi_{j+1} propositionally plus
    two quantifier rules, so the multiplication axiom is used exactly once.
    """
    if n < 0:
        raise GeneratorError("gen_quantifier needs n >= 0")
    th = arith_feasibility()
    two = numeral(2)
    x = var("x")
    a = var("a")

    def psi(k: Term) -> Forall:
        return forall("x", imp(_F(x), _F(app("exp", x, k))))

    # base: psi_0 from the times axiom at the eigenvariable
    times = theory_leaf(th, "F:times", {"x": a, "y": a})
    squared = contract_left(times, _F(a))
    eq = eq_leaf(mul(a, a), app("exp", a, two))
    transport = theory_leaf(th, "F:equality", {"x": mul(a, a), "y": app("exp", a, two)})
    step1 = cut(eq, transport, eq.conclusion.succ[0])
    step2 = cut(squared, step1, _F(mul(a, a)))
    body = implies_right(step2, _F(a), _F(app("exp", a, two)))
    chain = forall_right(body, psi(two), "a")

    k = two
    for _ in range(n):
        kk = mul(k, k)
        la1 = logical_axiom(_F(a))
        la2 = logical_axiom(_F(app("exp", a, k)))
        il1 = implies_left(la1, la2, _F(a), _F(app("exp", a, k)))
        fl1 = forall_left(il1, psi(k), a)
        la3 = logical_axiom(_F(app("exp", app("exp", a, k), k)))
        il2 = implies_left(fl1, la3, _F(app("exp", a, k)), _F(app("exp", app("exp", a, k), k)))
        fl2 = forall_left(il2, psi(k), app("exp", a, k))
        merged = contract_left(fl2, psi(k))
        eqs = eq_leaf(app("exp", app("exp", a, k), k), app("exp", a, kk))
        move = theory_leaf(
            th, "F:equality", {"x": app("exp", app("exp", a, k), k), "y": app("exp", a, kk)}
        )
        c1 = cut(eqs, move, eqs.conclusion.succ[0])
        c2 = cut(merged, c1, _F(app("exp", app("exp", a, k), k)))
        ir = implies_right(c2, _F(a), _F(app("exp", a, kk)))
        stage = forall_right(ir, psi(kk), "a")
        chain = cut(chain, stage, psi(k))
        k = kk

    base2 = _unary_two(th)
    target = app("exp", two, k)
    la = logical_axiom(_F(target))
    il = implies_left(base2, la, _F(two), _F(target))
    fl = forall_left(il, psi(k), two)
    p = cut(chain, fl, psi(k))

    def value():
        return eval_nat(target)

    return _report(p, target, th, value, nat_str(eval_nat(target)))


# ---------------------------------------------------------------------------
# Group generators


def _group_theory(gen: str, theory: Optional[Theory]) -> Theory:
    if theory is not None:
        return theory
    return group_feasibility((gen,), presentation="free")


def _power_desc(base: str, e) -> str:
    return f"{base}^{nat_str(e) if not isinstance(e, int) else e}"


def gen_group_power(gen: str = "x", n: int = 0, mode: str = "squaring", theory=None) -> GenReport:
    """Feasibility of a generator power.

    linear: |- F(x^n) one composition at a time (4 lines per letter);
    squaring: |- F(x^(2^n)) with one contraction per doubling;
    quantifier: |- F(x^(2^(2^n))) by a chain of quantified doubling lemmas
    built purely from composition, with no equality reasoning at all.
    """
    if n < 0:
        raise GeneratorError("gen_group_power needs n >= 0")
    th = _group_theory(gen, theory)
    if f"F({gen})" not in th.axioms:
        raise GeneratorError(f"{gen} is not a generator of theory {th.name}")
    g = const(gen)

    if mode == "linear":
        if n == 0:
            p = theory_leaf(th, "F(e)", {})
            return _report(p, const("e"), th, lambda: th.evaluate(const("e")), "e")
        p = theory_leaf(th, f"F({gen})", {})
        t = g
        for _ in range(n - 1):
            gx = theory_leaf(th, f"F({gen})", {})
            step = theory_leaf(th, "F:composition", {"x": t, "y": g})
            partial = cut(gx, step, _F(g))
            p = cut(p, partial, _F(t))
            t = mul(t, g)
        return _report(p, t, th, lambda: th.evaluate(t), _power_desc(gen, n))

    if mode == "squaring":
        p = theory_leaf(th, f"F({gen})", {})
        t = g
        for _ in range(n):
            step = theory_leaf(th, "F:composition", {"x": t, "y": t})
            doubled = contract_left(step, _F(t))
            p = cut(p, doubled, _F(t))
            t = mul(t, t)
        return _report(p, t, th, lambda: th.evaluate(t), _power_desc(gen, 2**n))

    if mode == "quantifier":
        if th.quantifier_free:
            raise GeneratorError(f"theory {th.name} forbids quantified proofs")
        w = var("w")
        a = var("a")

        def S(j: int, t: Term) -> Term:
            for _ in range(1 << j):
                t = mul(t, t)
            return t

        def psi(j: int) -> Forall:
            return forall("w", imp(_F(w), _F(S(j, w))))

        step = theory_leaf(th, "F:composition", {"x": a, "y": a})
        doubled = contract_left(step, _F(a))
        body = implies_right(doubled, _F(a), _F(mul(a, a)))
        chain = forall_right(body, psi(0), "a")
        for j in range(n):
            la1 = logical_axiom(_F(a))
            la2 = logical_axiom(_F(S(j, a)))
            il1 = implies_left(la1, la2, _F(a), _F(S(j, a)))
            fl1 = forall_left(il1, psi(j), a)
            la3 = logical_axiom(_F(S(j, S(j, a))))
            il2 = implies_left(fl1, la3, _F(S(j, a)), _F(S(j, S(j, a))))
            fl2 = forall_left(il2, psi(j), S(j, a))
            merged = contract_left(fl2, psi(j))
            ir = implies_right(merged, _F(a), _F(S(j + 1, a)))
            stage = forall_right(ir, psi(j + 1), "a")
            chain = cut(chain, stage, psi(j))
        leafg = theory_leaf(th, f"F({gen})", {})
        target = S(n, g)
        la = logical_axiom(_F(target))
        il = implies_left(leafg, la, _F(g), _F(target))
        fl = forall_left(il, psi(n), g)
        p = cut(chain, fl, psi(n))
        e = semantics.make_tower(2, 1 << n)
        return _report(p, target, th, lambda: th.evaluate(target), _power_desc(gen, e))

    raise GeneratorError(f"unknown mode {mode!r} (use linear, squaring, or quantifier)")


def gen_distorted(n: int) -> GenReport:
    """|- F(x^(2^n) y x^(-2^n)) in BS(1,2), about 6n + 11 lines.

    The conjugate equals y^(2^(2^n)) in the group, so a short proof
    certifies feasibility of a doubly exponential power of y.  For n = 0
    the proof additionally rewrites (x y) x^-1 to y*y via the oracle.
    """
    if n < 0:
        raise GeneratorError("gen_distorted needs n >= 0")
    th = group_feasibility(("x", "y"), presentation="bs12")
    x, y = const("x"), const("y")

    def conjugator_proof():
        p = theory_leaf(th, "F(x)", {})
        t = x
        for _ in range(n):
            step = theory_leaf(th, "F:composition", {"x": t, "y": t})
            doubled = contract_left(step, _F(t))
            p = cut(p, doubled, _F(t))
            t = mul(t, t)
        return p, t

    pa, c = conjugator_proof()
    pa2, _ = conjugator_proof()
    inv_c = app("inv", c)
    inv_leaf = theory_leaf(th, "F:inverse", {"x": c})
    pb = cut(pa2, inv_leaf, _F(c))

    py = theory_leaf(th, "F(y)", {})
    comp1 = theory_leaf(th, "F:composition", {"x": c, "y": y})
    d1 = cut(pa, comp1, _F(c))
    d2 = cut(py, d1, _F(y))  # |- F(c * y)

    w = mul(mul(c, y), inv_c)
    comp2 = theory_leaf(th, "F:composition", {"x": mul(c, y), "y": inv_c})
    e1 = cut(d2, comp2, _F(mul(c, y)))
    p = cut(pb, e1, _F(inv_c))  # |- F((c * y) * inv(c))
    target = w

    if n == 0:
        yy = mul(y, y)
        eq = eq_leaf(w, yy)
        transport = theory_leaf(th, "F:equality", {"x": w, "y": yy})
        c1 = cut(eq, transport, eq.conclusion.succ[0])
        p = cut(p, c1, _F(w))
        target = yy

    def value():
        return th.evaluate(target)

    m = 1 << n
    num = semantics.make_tower(2, m)
    return _report(p, target, th, value, f"({nat_str(num)}, 0)")


# ---------------------------------------------------------------------------
# Matrix and rational generators


def _rat_construction(th: Theory, t: Term) -> Proof:
    """|- F(t) for a closed term over 0, 1, +, *, neg, inv."""
    if isinstance(t, Const):
        name = f"F({t.sym})"
        if name not in th.axioms:
            raise GeneratorError(f"no feasibility axiom for constant {t.sym}")
        return theory_leaf(th, name, {})
    sym = t.sym
    if sym in ("+", "*"):
        left, right = t.args
        p1 = _rat_construction(th, left)
        p2 = _rat_construction(th, right)
        leaf = theory_leaf(th, "F:plus" if sym == "+" else "F:times", {"x": left, "y": right})
        partial = cut(p1, leaf, _F(left))
        return cut(p2, partial, _F(right))
    if sym in ("neg", "inv"):
        inner = t.args[0]
        p1 = _rat_construction(th, inner)
        leaf = theory_leaf(th, "F:negate" if sym == "neg" else "F:invert", {"x": inner})
        return cut(p1, leaf, _F(inner))
    raise GeneratorError(f"cannot build a feasibility proof for {term_str(t)}")


def _square_entries(ts: tuple) -> tuple:
    a, b, c, d = ts
    return (
        app("+", mul(a, a), mul(b, c)),
        app("+", mul(a, b), mul(b, d)),
        app("+", mul(c, a), mul(d, c)),
        app("+", mul(c, b), mul(d, d)),
    )


def _entry_lemma(th: Theory, ts: tuple) -> Proof:
    """F(a), F(b), F(c), F(d) |- phi(M^2 entries), then folded by AndLefts."""
    a, b, c, d = ts
    na, nb, nc, nd = _square_entries(ts)

    def prod(u, v):
        return theory_leaf(th, "F:times", {"x": u, "y": v})

    def tsum(u, v):
        return theory_leaf(th, "F:plus", {"x": u, "y": v})

    # F(a), F(b), F(c) |- F(a*a + b*c)
    m1 = contract_left(prod(a, a), _F(a))
    m2 = prod(b, c)
    pl = tsum(mul(a, a), mul(b, c))
    k1 = cut(m1, pl, _F(mul(a, a)))
    d_na = cut(m2, k1, _F(mul(b, c)))

    # F(b), F(d), F(a) |- F(a*b + b*d), one contraction on F(b)
    m1 = prod(a, b)
    m2 = prod(b, d)
    pl = tsum(mul(a, b), mul(b, d))
    k1 = cut(m1, pl, _F(mul(a, b)))
    k2 = cut(m2, k1, _F(mul(b, d)))
    d_nb = contract_left(k2, _F(b))

    # F(d), F(c), F(a) |- F(c*a + d*c), one contraction on F(c)
    m1 = prod(c, a)
    m2 = prod(d, c)
    pl = tsum(mul(c, a), mul(d, c))
    k1 = cut(m1, pl, _F(mul(c, a)))
    k2 = cut(m2, k1, _F(mul(d, c)))
    d_nc = contract_left(k2, _F(c))

    # F(d), F(c), F(b) |- F(c*b + d*d)
    m1 = prod(c, b)
    m2 = contract_left(prod(d, d), _F(d))
    pl = tsum(mul(c, b), mul(d, d))
    k1 = cut(m1, pl, _F(mul(c, b)))
    d_nd = cut(m2, k1, _F(mul(d, d)))

    ar3 = and_right(d_nc, d_nd, _F(nc), _F(nd))
    ar2 = and_right(d_nb, ar3, _F(nb), conj(_F(nc), _F(nd)))
    ar1 = and_right(d_na, ar2, _F(na), conj(_F(nb), conj(_F(nc), _F(nd))))

    p = ar1
    for entry in (a, b, c, d):
        for _ in range(2):
            p = contract_left(p, _F(entry))
    p = and_left(p, _F(c), _F(d))
    p = and_left(p, _F(b), conj(_F(c), _F(d)))
    p = and_left(p, _F(a), conj(_F(b), conj(_F(c), _F(d))))
    return p


def gen_matrix_power(A: Mat2, n: int = 0, mode: str = "squaring") -> GenReport:
    """Feasibility of all entries of a matrix power.

    squaring: |- phi(A^(2^n)) by n entrywise squaring lemmas (39 lines per
    stage); quantifier: |- phi(A^(2^(2^n))) via a chain of quantified
    squaring maps composed with themselves.
    """
    if n < 0:
        raise GeneratorError("gen_matrix_power needs n >= 0")
    if A.det() == 0:
        raise GeneratorError("matrix powers need det != 0")
    th = rational_feasibility()
    base_terms = matrix_entry_terms(A)

    def base_proof():
        parts = [_rat_construction(th, t) for t in base_terms]
        a, b, c, d = base_terms
        ar3 = and_right(parts[2], parts[3], _F(c), _F(d))
        ar2 = and_right(parts[1], ar3, _F(b), conj(_F(c), _F(d)))
        return and_right(parts[0], ar2, _F(a), conj(_F(b), conj(_F(c), _F(d))))

    if mode == "squaring":
        p = base_proof()
        ts = base_terms
        for _ in range(n):
            lemma = _entry_lemma(th, ts)
            p = cut(p, lemma, feasibility_formula(ts))
            ts = _square_entries(ts)
        exponent = 2**n

        def value():
            return A**exponent

        desc = str(A**exponent) if n <= 10 else f"A^{exponent}"
        return _report(p, ts, th, value, desc)

    if mode == "quantifier":
        names = ("a", "b", "c", "d")
        vs = tuple(var(z) for z in names)
        phiv = feasibility_formula(vs)

        def chi(ts: tuple) -> Formula:
            f = imp(phiv, feasibility_formula(ts))
            for z in reversed(names):
                f = forall(z, f)
            return f

        def peel_forall_left(p: Proof, qf: Formula, witnesses: tuple) -> Proof:
            if not witnesses:
                return p
            inner = substitute(qf.body, qf.v, witnesses[0])
            p = peel_forall_left(p, inner, witnesses[1:]) if witnesses[1:] else p
            return forall_left(p, qf, witnesses[0])

        P = _square_entries(vs)
        lemma0 = _entry_lemma(th, vs)
        ir = implies_right(lemma0, phiv, feasibility_formula(P))
        for z in reversed(names):
            body = ir.conclusion.succ[-1]
            ir = forall_right(ir, forall(z, body), z)
        chain = ir

        for _ in range(n):
            mapping = dict(zip(names, P))
            P2 = tuple(subst_term(t, mapping) for t in P)
            la1 = logical_axiom(phiv)
            la2 = logical_axiom(feasibility_formula(P))
            il1 = implies_left(la1, la2, phiv, feasibility_formula(P))
            first = peel_forall_left(il1, chi(P), vs)
            la3 = logical_axiom(feasibility_formula(P))
            la4 = logical_axiom(feasibility_formula(P2))
            il2 = implies_left(la3, la4, feasibility_formula(P), feasibility_formula(P2))
            second = peel_forall_left(il2, chi(P), P)
            mid = cut(first, second, feasibility_formula(P))
            merged = contract_left(mid, chi(P))
            ir = implies_right(merged, phiv, feasibility_formula(P2))
            for z in reversed(names):
                body = ir.conclusion.succ[-1]
                ir = forall_right(ir, forall(z, body), z)
            chain = cut(chain, ir, chi(P))
            P = P2

        base = base_proof()
        final_terms = tuple(subst_term(t, dict(zip(names, base_terms))) for t in P)
        la = logical_axiom(feasibility_formula(final_terms))
        il = implies_left(
            base, la, feasibility_formula(base_terms), feasibility_formula(final_terms)
        )
        fl = peel_forall_left(il, chi(P), base_terms)
        p = cut(chain, fl, chi(P))
        exponent = 2 ** (2**n)

        def value():
            return A**exponent

        desc = str(A**exponent) if exponent <= 1024 else f"A^{exponent}"
        return _report(p, final_terms, th, value, desc)

    raise GeneratorError(f"unknown mode {mode!r} (use squaring or quantifier)")


def gen_rational_orbit(A: Mat2, x, n: int = 0) -> GenReport:
    """|- F((a x + b) / (c x + d)) for the entries of A^(2^n).

    Builds on gen_matrix_power (squaring mode) and spends a constant number
    of extra lines on the Moebius expression.  Fails up front when the
    denominator vanishes or the orbit point is infinite, since no
    feasibility axiom covers inf.
    """
    if n < 0:
        raise GeneratorError("gen_rational_orbit needs n >= 0")
    if A.det() == 0:
        raise GeneratorError("the orbit map needs det != 0")
    x = ExtRational.of(x)
    if x.is_inf:
        raise UndefinedOperation("orbit proofs need a finite starting point")
    _reject_infinite_endpoint(A, x, n)
    mp = gen_matrix_power(A, n, mode="squaring")
    th = mp.theory
    ta, tb, tc, td = mp.target
    xt = rational_term(x.num)
    num = app("+", mul(ta, xt), tb)
    den = app("+", mul(tc, xt), td)
    target = mul(num, app("inv", den))

    px1 = _rat_construction(th, xt)
    m1 = theory_leaf(th, "F:times", {"x": ta, "y": xt})
    k1 = cut(px1, m1, _F(xt))
    pl1 = theory_leaf(th, "F:plus", {"x": mul(ta, xt), "y": tb})
    k2 = cut(k1, pl1, _F(mul(ta, xt)))

    px2 = _rat_construction(th, xt)
    m2 = theory_leaf(th, "F:times", {"x": tc, "y": xt})
    k3 = cut(px2, m2, _F(xt))
    pl2 = theory_leaf(th, "F:plus", {"x": mul(tc, xt), "y": td})
    k4 = cut(k3, pl2, _F(mul(tc, xt)))
    inv_leaf = theory_leaf(th, "F:invert", {"x": den})
    k5 = cut(k4, inv_leaf, _F(den))

    mt = theory_leaf(th, "F:times", {"x": num, "y": app("inv", den)})
    k6 = cut(k2, mt, _F(num))
    k7 = cut(k5, k6, _F(app("inv", den)))

    p = and_left(k7, _F(tc), _F(td))
    p = and_left(p, _F(tb), conj(_F(tc), _F(td)))
    p = and_left(p, _F(ta), conj(_F(tb), conj(_F(tc), _F(td))))
    p = cut(mp.proof, p, feasibility_formula(mp.target))

    def value():
        return mobius_apply(A ** (2**n), x)

    # entries of A^(2^n) grow doubly exponentially in n; keep the
    # descriptor printable and cheap
    desc = str(value()) if 2**n <= 2048 else f"A^{2 ** n} orbit point of {x}"
    return _report(p, target, th, value, desc)


_ENDPOINT_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


def _reject_infinite_endpoint(A: Mat2, x, n: int):
    """Raise when A^(2^n) sends x to inf, without the full bignum power.

    The endpoint is infinite iff c*num(x) + d*den(x) = 0 for the bottom
    row (c d) of A^(2^n).  Nonzero modulo any prime proves it nonzero;
    only the inconclusive case falls back to the exact power.
    """
    numx, denx = x.num.numerator, x.num.denominator
    scale = 1
    for e in (A.a, A.b, A.c, A.d):
        scale = scale * e.denominator // math.gcd(scale, e.denominator)
    ints = tuple(int(e * scale) for e in (A.a, A.b, A.c, A.d))
    for prime in _ENDPOINT_PRIMES:
        if scale % prime == 0:
            continue
        m = tuple(v % prime for v in ints)
        acc = (1, 0, 0, 1)
        base = m
        k = 2**n
        while k:
            if k & 1:
                acc = _mat_mul_mod(acc, base, prime)
            base = _mat_mul_mod(base, base, prime)
            k >>= 1
        den_mod = (acc[2] * numx + acc[3] * denx) % prime
        if den_mod:
            return
    value = mobius_apply(A ** (2**n), x)
    if value.is_inf:
        raise UndefinedOperation(
            f"A^(2^{n}) sends {x} to inf, which has no feasibility axiom"
        )


def _mat_mul_mod(p, q, m):
    return (
        (p[0] * q[0] + p[1] * q[2]) % m,
        (p[0] * q[1] + p[1] * q[3]) % m,
        (p[2] * q[0] + p[3] * q[2]) % m,
        (p[2] * q[1] + p[3] * q[3]) % m,
    )


GENERATORS = {
    "unary": gen_unary,
    "geometric": gen_geometric,
    "square-cut": gen_square_cut,
    "quantifier": gen_quantifier,
    "group-power": gen_group_power,
    "distorted": gen_distorted,
    "matrix-power": gen_matrix_power,
    "rational-orbit": gen_rational_orbit,
}
