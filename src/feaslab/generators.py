"""Short-proof generators.

Each generator assembles a checked-by-construction sequent proof whose end
formula asserts feasibility of a fast-growing value, together with size
statistics and the independently evaluated value.  Line counts are affine
in the stage parameter by design; the golden constants live in the tests.

The families share a handful of lemma shapes, each built by one private
function: unary successor steps (`_unary`), a binary axiom with both
premises cut (`_combined`), doubling by a contracted product axiom
(`_doubled`, `_squarings`), moving F(s) to F(t) by an oracle equation
(`_transport`, `_square_lemma`), applying a quantified lemma to itself
(`_self_composed`), modus ponens at witnesses (`_instances`, `_applied`),
universal closure (`_generalized`), and packing four entries into a
conjunction and unpacking it (`_conjoined`, `_split`).  Every proof the
generators build is a tree: no subproof is shared.

Values are computed lazily: reports carry a cheap printable descriptor and
evaluate the exact value only on demand (matrix powers for large n are
astronomically expensive and are reported symbolically).
"""

from __future__ import annotations

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
    And,
    Const,
    Forall,
    Formula,
    Term,
    app,
    arith_signature,
    atom,
    conj,
    const,
    count_text,
    forall,
    imp,
    int_term,
    mul,
    subst_term,
    substitute,
    var,
)
from .semantics import (
    ExtRational,
    Mat2,
    UndefinedOperation,
    check_rat_defined,
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


class GenReport:
    """A generated proof plus its bookkeeping.

    target is the end term (or tuple of matrix entry terms, or the end
    formula for matrix proofs); stats and advertised_value are computed on
    first use, and kept in the instance dict.  Reports are mutable and
    unhashable; two are equal when all five fields are, and the repr
    leaves out _value_fn.
    """

    __slots__ = ("proof", "target", "theory", "value_desc", "_value_fn", "__dict__")

    def __init__(
        self,
        proof: Proof,
        target,
        theory: Theory,
        value_desc: str,
        _value_fn: Optional[Callable] = None,
    ):
        self.proof = proof
        self.target = target
        self.theory = theory
        self.value_desc = value_desc
        self._value_fn = _value_fn

    def _key(self) -> tuple:
        return (self.proof, self.target, self.theory, self.value_desc, self._value_fn)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return (
            f"GenReport(proof={self.proof!r}, target={self.target!r}, "
            f"theory={self.theory!r}, value_desc={self.value_desc!r})"
        )

    @cached_property
    def stats(self) -> SizeStats:
        return size(self.proof)

    @cached_property
    def advertised_value(self):
        return self._value_fn()


def numeral(n: int) -> Term:
    return int_term(n, arith_signature())


# every stage of square-cut and quantifier names 2; int_term scans the
# signature's constants on each call
_TWO = numeral(2)


def _F(t: Term):
    return atom("F", t)


# ---------------------------------------------------------------------------
# Lemma shapes shared by the families


def _unary(th: Theory, n: int) -> tuple:
    """|- F(n) by n successor steps: one theory leaf and one cut per unit."""
    p = theory_leaf(th, "F(0)", {})
    t = const("0")
    for _ in range(n):
        p = cut(p, theory_leaf(th, "F:successor", {"x": t}), _F(t))
        t = app("s", t)
    return p, t


def _combined(th: Theory, axiom: str, p1: Proof, x: Term, p2: Proof, y: Term) -> Proof:
    """|- F(x op y) from p1 |- F(x) and p2 |- F(y), cutting p1 into the
    binary axiom first."""
    half = cut(p1, theory_leaf(th, axiom, {"x": x, "y": y}), _F(x))
    return cut(p2, half, _F(y))


def _doubled(th: Theory, axiom: str, t: Term) -> Proof:
    """F(t) |- F(t op t): the binary axiom at (t, t), its premises contracted."""
    return contract_left(theory_leaf(th, axiom, {"x": t, "y": t}), _F(t))


def _squarings(th: Theory, gen: str, n: int) -> tuple:
    """|- F(g^(2^n)) from the generator's axiom, one contraction per doubling."""
    t = const(gen)
    p = theory_leaf(th, f"F({gen})", {})
    for _ in range(n):
        p = cut(p, _doubled(th, "F:composition", t), _F(t))
        t = mul(t, t)
    return p, t


def _transport(th: Theory, p: Proof, s: Term, t: Term) -> Proof:
    """Move p |- F(s) to F(t) by the oracle equation s = t."""
    eq = eq_leaf(s, t)
    move = cut(eq, theory_leaf(th, "F:equality", {"x": s, "y": t}), eq.conclusion.succ[0])
    return cut(p, move, _F(s))


def _square_lemma(th: Theory, u: Term) -> Proof:
    """|- F(u) -> F(exp(u, 2)): the times axiom at (u, u), then u*u = exp(u, 2)."""
    u2 = app("exp", u, _TWO)
    squared = _transport(th, _doubled(th, "F:times", u), mul(u, u), u2)
    return implies_right(squared, _F(u), _F(u2))


def _self_composed(psi: Forall, a: Term, f1: Term, f2: Term) -> Proof:
    """psi, F(a) |- F(f2): psi applied at a gives F(f1), applied at f1 gives
    F(f2); the two copies of psi are contracted into one."""
    p = logical_axiom(_F(a))
    for s, t in ((a, f1), (f1, f2)):
        p = forall_left(implies_left(p, logical_axiom(_F(t)), _F(s), _F(t)), psi, s)
    return contract_left(p, psi)


def _instances(p: Proof, qf: Formula, ws: tuple) -> Proof:
    """Replace the instance of qf at the witnesses ws in p's antecedent by qf,
    one ForallLeft per witness."""
    layers = []
    for w in ws:
        layers.append((qf, w))
        qf = substitute(qf.body, qf.v, w)
    for f, w in reversed(layers):
        p = forall_left(p, f, w)
    return p


def _applied(chain: Proof, psi: Formula, base: Proof, ws: tuple) -> Proof:
    """Modus ponens: chain |- psi, whose instance at ws is A -> B, and
    base |- A give |- B."""
    target = psi
    for w in ws:
        target = substitute(target.body, target.v, w)
    target = target.right
    ante = base.conclusion.succ[0]
    mp = implies_left(base, logical_axiom(target), ante, target)
    return cut(chain, _instances(mp, psi, ws), psi)


def _generalized(p: Proof, names: tuple) -> Proof:
    """Close p's succedent universally over names, the last one innermost."""
    for z in reversed(names):
        p = forall_right(p, forall(z, p.conclusion.succ[-1]), z)
    return p


def _conjoined(parts: list, ts: tuple) -> Proof:
    """|- F(t1) /\\ (F(t2) /\\ ...) from the proofs |- F(ti)."""
    p, rest = parts[-1], _F(ts[-1])
    for q, t in zip(reversed(parts[:-1]), reversed(ts[:-1])):
        p = and_right(q, p, _F(t), rest)
        rest = conj(_F(t), rest)
    return p


def _split(p: Proof, ts: tuple) -> Proof:
    """Trade the antecedents F(ti) of p for their conjunction, as _conjoined
    nests it."""
    rest = _F(ts[-1])
    for t in reversed(ts[:-1]):
        p = and_left(p, _F(t), rest)
        rest = conj(_F(t), rest)
    return p


def _entry_terms(phi: Formula) -> tuple:
    """The terms ts of phi = F(t1) /\\ (F(t2) /\\ ...), as _conjoined nests it."""
    ts = []
    while isinstance(phi, And):
        ts.append(phi.left.args[0])
        phi = phi.right
    return (*ts, phi.args[0])


# ---------------------------------------------------------------------------
# Arithmetic generators


def gen_unary(n: int) -> GenReport:
    """|- F(n) by n successor steps: one theory leaf and one cut per unit."""
    if n < 0:
        raise GeneratorError("gen_unary needs n >= 0")
    th = arith_feasibility()
    p, t = _unary(th, n)
    return GenReport(p, t, th, str(n), lambda: n)


def gen_geometric(n: int) -> GenReport:
    """|- F(2^n) by n-1 doublings; each stage re-derives |- F(2)."""
    if n < 1:
        raise GeneratorError("gen_geometric needs n >= 1")
    th = arith_feasibility()
    p, _ = _unary(th, 2)
    t = _TWO
    for _ in range(n - 1):
        p = _combined(th, "F:times", _unary(th, 2)[0], _TWO, p, t)
        t = mul(_TWO, t)
    return GenReport(p, t, th, count_text(2**n), lambda: 2**n)


def gen_square_cut(n: int) -> GenReport:
    """|- F(2^(2^n)) via n squaring lemmas discharged by modus ponens.

    Each stage proves F(u) -> F(exp(u, 2)) in seven lines (times axiom,
    contraction, oracle equation u*u = exp(u,2), equality transport) and
    spends three more lines cutting it against the running proof.
    """
    if n < 0:
        raise GeneratorError("gen_square_cut needs n >= 0")
    th = arith_feasibility()
    p, u = _unary(th, 2)
    for _ in range(n):
        u2 = app("exp", u, _TWO)
        p = _applied(_square_lemma(th, u), imp(_F(u), _F(u2)), p, ())
        u = u2
    return GenReport(p, u, th, nat_str(eval_nat(u)), lambda: eval_nat(u))


def gen_quantifier(n: int) -> GenReport:
    """|- F(2^(2^(2^n))) through a chain of quantified squaring lemmas.

    psi_j = forall x (F(x) -> F(exp(x, k_j))) with k_0 = 2 and k_{j+1} =
    k_j * k_j; each stage derives psi_j |- psi_{j+1} propositionally plus
    two quantifier rules, so the multiplication axiom is used exactly once.
    """
    if n < 0:
        raise GeneratorError("gen_quantifier needs n >= 0")
    th = arith_feasibility()
    x = var("x")
    a = var("a")

    def psi(k: Term) -> Forall:
        return forall("x", imp(_F(x), _F(app("exp", x, k))))

    # base: psi_0 from the times axiom at the eigenvariable
    chain = forall_right(_square_lemma(th, a), psi(_TWO), "a")

    k = _TWO
    for _ in range(n):
        kk = mul(k, k)
        ak = app("exp", a, k)
        merged = _self_composed(psi(k), a, ak, app("exp", ak, k))
        moved = _transport(th, merged, app("exp", ak, k), app("exp", a, kk))
        ir = implies_right(moved, _F(a), _F(app("exp", a, kk)))
        stage = forall_right(ir, psi(kk), "a")
        chain = cut(chain, stage, psi(k))
        k = kk

    base2, _ = _unary(th, 2)
    target = app("exp", _TWO, k)
    p = _applied(chain, psi(k), base2, (_TWO,))
    return GenReport(p, target, th, nat_str(eval_nat(target)), lambda: eval_nat(target))


# ---------------------------------------------------------------------------
# Group generators


def _power_desc(base: str, e) -> str:
    return f"{base}^{nat_str(e)}"


def gen_group_power(gen: str = "x", n: int = 0, mode: str = "squaring", theory=None) -> GenReport:
    """Feasibility of a generator power.

    linear: |- F(x^n) one composition at a time (4 lines per letter);
    squaring: |- F(x^(2^n)) with one contraction per doubling;
    quantifier: |- F(x^(2^(2^n))) by a chain of quantified doubling lemmas
    built purely from composition, with no equality reasoning at all.
    """
    if n < 0:
        raise GeneratorError("gen_group_power needs n >= 0")
    th = theory if theory is not None else group_feasibility((gen,), presentation="free")
    if f"F({gen})" not in th.axioms:
        raise GeneratorError(f"{gen} is not a generator of theory {th.name}")
    g = const(gen)

    if mode == "linear":
        if n == 0:
            p = theory_leaf(th, "F(e)", {})
            return GenReport(p, const("e"), th, "e", lambda: th.evaluate(const("e")))
        p = theory_leaf(th, f"F({gen})", {})
        t = g
        for _ in range(n - 1):
            gx = theory_leaf(th, f"F({gen})", {})
            step = theory_leaf(th, "F:composition", {"x": t, "y": g})
            partial = cut(gx, step, _F(g))
            p = cut(p, partial, _F(t))
            t = mul(t, g)
        return GenReport(p, t, th, _power_desc(gen, n), lambda: th.evaluate(t))

    if mode == "squaring":
        p, t = _squarings(th, gen, n)
        return GenReport(p, t, th, _power_desc(gen, 2**n), lambda: th.evaluate(t))

    if mode == "quantifier":
        w = var("w")
        a = var("a")

        def S(j: int, t: Term) -> Term:
            for _ in range(1 << j):
                t = mul(t, t)
            return t

        def psi(j: int) -> Forall:
            return forall("w", imp(_F(w), _F(S(j, w))))

        body = implies_right(_doubled(th, "F:composition", a), _F(a), _F(mul(a, a)))
        chain = forall_right(body, psi(0), "a")
        for j in range(n):
            merged = _self_composed(psi(j), a, S(j, a), S(j, S(j, a)))
            ir = implies_right(merged, _F(a), _F(S(j + 1, a)))
            stage = forall_right(ir, psi(j + 1), "a")
            chain = cut(chain, stage, psi(j))
        leafg = theory_leaf(th, f"F({gen})", {})
        target = S(n, g)
        p = _applied(chain, psi(n), leafg, (g,))
        e = semantics.make_tower(2, 1 << n)
        return GenReport(p, target, th, _power_desc(gen, e), lambda: th.evaluate(target))

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
    y = const("y")
    pa, c = _squarings(th, "x", n)
    pa2, _ = _squarings(th, "x", n)
    inv_c = app("inv", c)
    pb = cut(pa2, theory_leaf(th, "F:inverse", {"x": c}), _F(c))
    py = theory_leaf(th, "F(y)", {})
    cy = _combined(th, "F:composition", pa, c, py, y)  # |- F(c * y)
    w = mul(mul(c, y), inv_c)
    p = _combined(th, "F:composition", cy, mul(c, y), pb, inv_c)  # |- F(w)
    target = w

    if n == 0:
        target = mul(y, y)
        p = _transport(th, p, w, target)

    num = semantics.make_tower(2, 1 << n)
    return GenReport(p, target, th, f"({nat_str(num)}, 0)", lambda: th.evaluate(target))


# ---------------------------------------------------------------------------
# Matrix and rational generators


_RAT_AXIOMS = {"+": "F:plus", "*": "F:times", "neg": "F:negate", "inv": "F:invert"}


def _rat_construction(th: Theory, t: Term) -> Proof:
    """|- F(t) for a closed term over 0, 1, +, *, neg, inv: a fresh proof per
    occurrence of a subterm, built in post-order on an explicit stack."""
    done = []  # proofs of the finished subterms, in order
    stack = [(t, False)]  # a subterm, and whether its arguments are done
    while stack:
        u, ready = stack.pop()
        if isinstance(u, Const):
            name = f"F({u.sym})"
            if name not in th.axioms:
                raise GeneratorError(f"no feasibility axiom for constant {u.sym}")
            done.append(theory_leaf(th, name, {}))
        elif not ready:
            if u.sym not in _RAT_AXIOMS:
                raise GeneratorError(f"cannot build a feasibility proof for {u!r}")
            stack.append((u, True))
            stack.extend((a, False) for a in reversed(u.args))
        elif u.sym in ("+", "*"):
            left, right = u.args
            p2 = done.pop()
            done.append(_combined(th, _RAT_AXIOMS[u.sym], done.pop(), left, p2, right))
        else:
            inner = u.args[0]
            leaf = theory_leaf(th, _RAT_AXIOMS[u.sym], {"x": inner})
            done.append(cut(done.pop(), leaf, _F(inner)))
    return done.pop()


def _square_entries(ts: tuple) -> tuple:
    a, b, c, d = ts
    return (
        app("+", mul(a, a), mul(b, c)),
        app("+", mul(a, b), mul(b, d)),
        app("+", mul(c, a), mul(d, c)),
        app("+", mul(c, b), mul(d, d)),
    )


def _entry_lemma(th: Theory, ts: tuple) -> Proof:
    """F(a), F(b), F(c), F(d) |- phi(M^2 entries), then folded by AndLefts
    into phi(M) |- phi(M^2)."""
    a, b, c, d = ts

    def prod(u, v):
        return theory_leaf(th, "F:times", {"x": u, "y": v})

    def entry(m1, x1, m2, x2):
        # m1 proves F(x1), m2 proves F(x2); the sum of the two products
        return _combined(th, "F:plus", m1, x1, m2, x2)

    # F(a), F(b), F(c) |- F(a*a + b*c)
    d_na = entry(_doubled(th, "F:times", a), mul(a, a), prod(b, c), mul(b, c))
    # F(b), F(d), F(a) |- F(a*b + b*d), one contraction on F(b)
    d_nb = contract_left(entry(prod(a, b), mul(a, b), prod(b, d), mul(b, d)), _F(b))
    # F(d), F(c), F(a) |- F(c*a + d*c), one contraction on F(c)
    d_nc = contract_left(entry(prod(c, a), mul(c, a), prod(d, c), mul(d, c)), _F(c))
    # F(d), F(c), F(b) |- F(c*b + d*d)
    d_nd = entry(prod(c, b), mul(c, b), _doubled(th, "F:times", d), mul(d, d))

    p = _conjoined([d_na, d_nb, d_nc, d_nd], _square_entries(ts))
    for entry_term in ts:
        for _ in range(2):
            p = contract_left(p, _F(entry_term))
    return _split(p, ts)


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
        return _conjoined([_rat_construction(th, t) for t in base_terms], base_terms)

    if mode == "squaring":
        p = base_proof()
        ts = base_terms
        for _ in range(n):
            p = cut(p, _entry_lemma(th, ts), feasibility_formula(ts))
            ts = _square_entries(ts)
        exponent = 2**n
        desc = str(A**exponent) if n <= 10 else f"A^{exponent}"
        return GenReport(p, ts, th, desc, lambda: A**exponent)

    if mode == "quantifier":
        names = ("a", "b", "c", "d")
        vs = tuple(var(z) for z in names)
        phiv = feasibility_formula(vs)

        def chi(ts: tuple) -> Formula:
            f = imp(phiv, feasibility_formula(ts))
            for z in reversed(names):
                f = forall(z, f)
            return f

        def instance(qf, ws, ts1, ts2):
            # qf, phi(ts1) |- phi(ts2) with qf instantiated at ws
            f1, f2 = feasibility_formula(ts1), feasibility_formula(ts2)
            mp = implies_left(logical_axiom(f1), logical_axiom(f2), f1, f2)
            return _instances(mp, qf, ws)

        P = _square_entries(vs)
        lemma0 = _entry_lemma(th, vs)
        chain = _generalized(implies_right(lemma0, phiv, feasibility_formula(P)), names)

        for _ in range(n):
            # one walk memo per mapping: the four entries share subterms
            mapping, memo = dict(zip(names, P)), {}
            P2 = tuple(subst_term(t, mapping, memo) for t in P)
            first = instance(chi(P), vs, vs, P)
            second = instance(chi(P), P, P, P2)
            merged = contract_left(cut(first, second, feasibility_formula(P)), chi(P))
            stage = _generalized(implies_right(merged, phiv, feasibility_formula(P2)), names)
            chain = cut(chain, stage, chi(P))
            P = P2

        p = _applied(chain, chi(P), base_proof(), base_terms)
        final_terms = _entry_terms(p.conclusion.succ[0])
        exponent = 2 ** (2**n)
        desc = str(A**exponent) if exponent <= 1024 else f"A^{exponent}"
        return GenReport(p, final_terms, th, desc, lambda: A**exponent)

    raise GeneratorError(f"unknown mode {mode!r} (use squaring or quantifier)")


def gen_rational_orbit(A: Mat2, x, n: int = 0) -> GenReport:
    """|- F((a x + b) / (c x + d)) for the entries of A^(2^n).

    Builds on gen_matrix_power (squaring mode) and spends a constant number
    of extra lines on the Moebius expression.  Fails up front when the
    starting point or the orbit point is infinite, since no feasibility
    axiom covers inf: the denominator c x + d of the F:invert instance is
    built from the entry terms of A^(2^n) and put to check_rat_defined,
    the test the rational theory validates that instance with, before any
    proof is built.
    """
    if n < 0:
        raise GeneratorError("gen_rational_orbit needs n >= 0")
    if A.det() == 0:
        raise GeneratorError("the orbit map needs det != 0")
    x = ExtRational.of(x)
    if x.is_inf:
        raise UndefinedOperation("orbit proofs need a finite starting point")
    ts = matrix_entry_terms(A)
    for _ in range(n):
        ts = _square_entries(ts)
    ta, tb, tc, td = ts
    xt = rational_term(x.num)
    den = app("+", mul(tc, xt), td)
    try:
        check_rat_defined(app("inv", den), {})
    except UndefinedOperation:
        raise UndefinedOperation(
            f"A^(2^{n}) sends {x} to inf, which has no feasibility axiom"
        ) from None
    mp = gen_matrix_power(A, n, mode="squaring")
    th = mp.theory
    num = app("+", mul(ta, xt), tb)
    target = mul(num, app("inv", den))

    def affine(u, v):
        """F(u), F(v) |- F(u*x + v)."""
        times = theory_leaf(th, "F:times", {"x": u, "y": xt})
        ux = cut(_rat_construction(th, xt), times, _F(xt))
        plus = theory_leaf(th, "F:plus", {"x": mul(u, xt), "y": v})
        return cut(ux, plus, _F(mul(u, xt)))

    inv_leaf = theory_leaf(th, "F:invert", {"x": den})
    inv_den = cut(affine(tc, td), inv_leaf, _F(den))
    p = _combined(th, "F:times", affine(ta, tb), num, inv_den, app("inv", den))
    p = cut(mp.proof, _split(p, mp.target), feasibility_formula(mp.target))

    def value():
        return mobius_apply(A ** (2**n), x)

    # entries of A^(2^n) grow doubly exponentially in n; keep the
    # descriptor printable and cheap
    desc = str(value()) if 2**n <= 2048 else f"A^{2 ** n} orbit point of {x}"
    return GenReport(p, target, th, desc, value)


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
