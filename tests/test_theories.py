"""Theory oracles, axiom schemas, and instantiation validation."""

import gc
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from feaslab.lang import (
    App,
    app,
    atom,
    conj,
    const,
    formula_str,
    free_vars,
    group_signature,
    imp,
    int_term,
    mul,
    parse_term,
    plus,
    subst_formula,
    term_str,
    var,
)
from feaslab import generators, semantics, theories
from feaslab.generators import gen_matrix_power, gen_rational_orbit
from feaslab.kernel import check, theory_leaf
from feaslab.semantics import (
    MODULAR_PRIMES,
    RAT_BIT_BUDGET,
    WORD_RUN_BUDGET,
    EvalBudgetError,
    ExtRational,
    Mat2,
    UndefinedOperation,
    check_rat_defined,
    eval_nat,
    eval_rat,
    nat_eq,
)
from feaslab.theories import (
    AxiomSchema,
    Theory,
    TheoryError,
    UnsupportedPresentation,
    arith_feasibility,
    group_feasibility,
    rational_feasibility,
    rational_term,
    theory_from_selector,
    _exp_law,
    _nat_oracle,
    _square_law,
)

ARITH = arith_feasibility()
RAT = rational_feasibility()
FREE_XY = group_feasibility(("x", "y"), presentation="free")
BS = group_feasibility(("x", "y"), presentation="bs12")


def num(n):
    return int_term(n, ARITH.signature)


# ---------------------------------------------------------------------------
# arithmetic oracle


def test_arith_oracle_closed_terms():
    assert ARITH.oracle(mul(num(2), num(2)), num(4)) == "equal"
    assert ARITH.oracle(mul(num(2), num(2)), num(5)) == "unequal"
    assert ARITH.oracle(plus(num(0), num(7)), num(7)) == "equal"


def test_arith_oracle_identity_shortcut():
    # identical interned term, even open
    t = plus(var("x"), num(1))
    assert ARITH.oracle(t, t) == "equal"


def test_arith_oracle_open_terms_undecided():
    x, y = var("x"), var("y")
    assert ARITH.oracle(plus(x, y), plus(y, x)) == "undecided"
    assert ARITH.oracle(x, num(0)) == "undecided"


def test_arith_oracle_iterated_exponent_law():
    # exp(exp(t,a),b) = exp(t, a*b) holds schematically
    t, a, b = var("t"), var("a"), var("b")
    lhs = app("exp", app("exp", t, a), b)
    rhs = app("exp", t, mul(a, b))
    assert ARITH.oracle(lhs, rhs) == "equal"
    assert ARITH.oracle(rhs, lhs) == "equal"
    # exponent product in the wrong order is not literally a*b
    assert ARITH.oracle(lhs, app("exp", t, mul(b, a))) == "undecided"


def test_arith_oracle_square_law():
    u = mul(var("u"), var("u"))
    assert ARITH.oracle(u, app("exp", var("u"), num(2))) == "equal"
    assert ARITH.oracle(app("exp", var("u"), num(2)), u) == "equal"
    assert ARITH.oracle(u, app("exp", var("u"), num(3))) == "undecided"


def test_arith_oracle_congruence():
    # s(u*u) = s(exp(u,2)) via the square law one level down
    u = var("u")
    lhs = app("s", mul(u, u))
    rhs = app("s", app("exp", u, num(2)))
    assert ARITH.oracle(lhs, rhs) == "equal"


def ref_nat_oracle(lhs, rhs):
    """The arithmetic oracle as it was, mutually recursive with
    ref_congruent and without memo: the oracle of the iterative one."""
    if not free_vars(lhs) and not free_vars(rhs):
        try:
            return "equal" if nat_eq(eval_nat(lhs), eval_nat(rhs)) else "unequal"
        except EvalBudgetError:
            return "undecided"
    if _exp_law(lhs, rhs) or _exp_law(rhs, lhs):
        return "equal"
    if _square_law(lhs, rhs) or _square_law(rhs, lhs):
        return "equal"
    if ref_congruent(lhs, rhs):
        return "equal"
    return "undecided"


def ref_congruent(lhs, rhs):
    if lhs is rhs:
        return True
    if isinstance(lhs, App) and isinstance(rhs, App) and lhs.sym == rhs.sym:
        return all(ref_nat_oracle(a, b) == "equal" for a, b in zip(lhs.args, rhs.args))
    return False


def _law_pair(t, a, b):
    """Two terms equal by the exp law or by the square law."""
    return st.sampled_from(
        [
            (app("exp", app("exp", t, a), b), app("exp", t, mul(a, b))),
            (mul(t, t), app("exp", t, num(2))),
        ]
    )


_atoms = st.sampled_from([var("x"), var("y"), num(0), num(2), num(3)])
_exps = st.sampled_from([num(2), num(3), var("y"), app("exp", num(2), num(40))])
# pairs built alike on both sides, with laws, closed parts and mismatches
_pairs = st.recursive(
    st.tuples(_atoms, _atoms) | st.tuples(_atoms, _exps, _exps).flatmap(lambda tab: _law_pair(*tab)),
    lambda kids: st.tuples(st.sampled_from(["s", "+", "*", "exp"]), kids, kids).map(
        lambda f: (
            app(f[0], f[1][0]) if f[0] == "s" else app(f[0], f[1][0], f[2][0]),
            app(f[0], f[1][1]) if f[0] == "s" else app(f[0], f[1][1], f[2][1]),
        )
    )
    | kids.map(lambda p: (mul(p[0], p[0]), mul(p[1], p[1]))),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_pairs)
def test_arith_oracle_matches_the_recursive_reference(pair):
    lhs, rhs = pair
    assert _nat_oracle(lhs, rhs) == ref_nat_oracle(lhs, rhs)
    assert _nat_oracle(rhs, lhs) == ref_nat_oracle(rhs, lhs)


def test_arith_oracle_deep_and_shared_congruence():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        # 3,000 and 20,000 levels of congruence, past the recursion limit
        a, b, u = var("a"), var("b"), var("u")
        lhs, rhs = a, b
        for _ in range(3000):
            lhs, rhs = app("s", lhs), app("s", rhs)
        assert ARITH.oracle(lhs, rhs) == "undecided"
        lhs, rhs = mul(u, u), app("exp", u, num(2))
        for _ in range(20_000):
            lhs, rhs = app("s", lhs), app("s", rhs)
        assert ARITH.oracle(lhs, rhs) == "equal"
    finally:
        sys.setrecursionlimit(old)
    # congruent halves shared by squaring: each distinct pair is shown once
    t, x, y = var("t"), var("x"), var("y")
    lhs, rhs = app("exp", app("exp", t, x), y), app("exp", t, mul(x, y))
    for _ in range(40):
        lhs, rhs = mul(lhs, lhs), mul(rhs, rhs)
    assert ARITH.oracle(lhs, rhs) == "equal"
    assert ARITH.oracle(mul(lhs, x), mul(rhs, y)) == "undecided"


def test_arith_oracle_huge_towers():
    # closed comparison survives numbers far beyond the digit budget
    two = num(2)
    t1 = app("exp", two, app("exp", two, num(40)))
    t2 = app("exp", app("exp", two, num(2)), app("exp", two, num(39)))
    assert ARITH.oracle(t1, t2) == "equal"


def _pair_runs():
    """Runs of equations drawn from one small pool, so that they share
    subterms, and repeated: a theory's value memo then serves most of each."""
    return st.lists(_pairs, min_size=1, max_size=8).map(lambda run: run + run[::-1])


@settings(max_examples=150, deadline=None)
@given(_pair_runs())
def test_an_arith_theorys_values_keep_its_verdicts(run):
    th = arith_feasibility()
    for lhs, rhs in run:
        assert th.oracle(lhs, rhs) == ref_nat_oracle(lhs, rhs)
        assert th.oracle(rhs, lhs) == ref_nat_oracle(rhs, lhs)


def test_a_budget_error_stays_undecided(monkeypatch):
    two = num(2)
    tower = app("exp", two, app("exp", two, num(40)))
    over = plus(tower, num(1))  # no exact representation: EvalBudgetError
    th = arith_feasibility()
    calls = []
    real = semantics._nat_step
    monkeypatch.setattr(semantics, "_nat_step", lambda t, vals: calls.append(t) or real(t, vals))
    for _ in range(3):
        assert th.oracle(over, num(7)) == "undecided"
        assert th.oracle(app("s", over), app("s", num(7))) == "undecided"
        assert th.oracle(mul(tower, tower), app("exp", two, app("exp", two, num(41)))) == "equal"
    # each value is computed once; the failing sum is tried on every call
    assert calls.count(over) == 6 and calls.count(tower) == 1
    assert calls.count(num(7)) == 1 and calls.count(app("s", num(7))) == 1


def test_two_theories_never_share_values(monkeypatch):
    memos = []
    real = theories.eval_nat
    monkeypatch.setattr(theories, "eval_nat", lambda t, memo=None: memos.append(memo) or real(t, memo))
    a, b = arith_feasibility(), arith_feasibility()
    six = mul(num(2), num(3))
    assert a.oracle(six, num(6)) == "equal"
    assert a.oracle(plus(num(1), num(2)), num(3)) == "equal"
    assert b.oracle(six, num(6)) == "equal"
    assert _nat_oracle(six, num(6)) == _nat_oracle(six, num(6)) == "equal"  # two arguments
    assert all(m is memos[0] for m in memos[:4])  # a keeps one memo across calls
    assert memos[4] is memos[5] and memos[4] is not memos[0]
    assert memos[6] is memos[7] and memos[8] is memos[9] and memos[6] is not memos[8]
    assert not ({id(m) for m in memos[6:]} & {id(memos[0]), id(memos[4])})
    assert memos[0][six] == 6 and memos[4][six] == 6


# ---------------------------------------------------------------------------
# instantiation


def instantiate(th, name, subst):
    """(antecedent, succedent) of th's instance of axiom name under subst
    (variable -> term), read off the leaf the kernel builds for it."""
    c = theory_leaf(th, name, subst).conclusion
    return c.ant, c.succ[0]


def test_instantiate_plus_schema():
    ant, succ = instantiate(ARITH, "F:plus", {"x": num(2), "y": num(3)})
    assert [formula_str(f) for f in ant] == ["F(s(s(0)))", "F(s(s(s(0))))"]
    assert formula_str(succ) == "F(s(s(0)) + s(s(s(0))))"


def test_instantiate_axiom_without_variables():
    ant, succ = instantiate(ARITH, "F(0)", {})
    assert ant == ()
    assert formula_str(succ) == "F(0)"


def test_instantiate_rejects_wrong_variables():
    cases = [
        ("F:plus", {"x": num(1)}),  # y missing
        ("F:successor", {"x": num(1), "y": num(2)}),
        ("F:nope", {}),
        ("F:successor", {"x": "not a term"}),
        ("F:successor", {"x": [num(1)]}),  # unhashable, still no term
        ("F:plus", {"x": num(1), 1: num(2)}),  # names that do not sort
    ]
    for name, subst in cases:
        messages = []
        for _ in range(2):  # a failed instantiation is never stored
            with pytest.raises(TheoryError) as info:
                instantiate(ARITH, name, subst)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


_instance_terms = st.recursive(
    st.sampled_from([var("x"), var("y"), var("z"), num(0), num(2)]),
    lambda kids: st.tuples(st.sampled_from(["s", "+", "*"]), kids, kids).map(
        lambda f: app(f[0], f[1]) if f[0] == "s" else app(f[0], f[1], f[2])
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ARITH.axioms)), _instance_terms, _instance_terms)
def test_a_stored_instance_is_a_fresh_theorys_instance(name, t, u):
    # ARITH is shared by every test of this module, so it has seen many instances
    subst = dict(zip(ARITH.axioms[name].vars, (t, u)))
    ant, succ = instantiate(ARITH, name, subst)
    assert instantiate(ARITH, name, dict(reversed(subst.items()))) == (ant, succ)
    fresh_ant, fresh_succ = instantiate(arith_feasibility(), name, subst)
    assert len(ant) == len(fresh_ant)
    assert all(f is g for f, g in zip(ant, fresh_ant))
    assert succ is fresh_succ


def _instantiated(th, name, subst):
    """The instance, or the type and text of the error instantiating raises."""
    try:
        return instantiate(th, name, subst)
    except Exception as e:
        return (type(e).__name__, str(e))


_bad_values = st.sampled_from(["not a term", [num(1)], 3, None, {"x": num(1)}])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(ARITH.axioms)),
    _instance_terms,
    _instance_terms,
    st.sampled_from(["extra", "missing", "renamed", "bad value", "unknown axiom", "none"]),
    _bad_values,
)
def test_a_stored_instance_never_admits_a_bad_call(name, t, u, change, bad):
    # the probe that finds stored instances must refuse what validation
    # refuses: ARITH has stored the good instance, a fresh theory has not
    vs = ARITH.axioms[name].vars
    good = dict(zip(vs, (t, u)))
    instantiate(ARITH, name, good)
    subst = dict(good)
    if change == "extra":
        subst["z"] = t
    elif change == "missing" and vs:
        del subst[vs[-1]]
    elif change == "renamed" and vs:
        subst["z"] = subst.pop(vs[0])
    elif change == "bad value" and vs:
        subst[vs[0]] = bad
    elif change == "unknown axiom":
        name = name + "'"
    for _ in range(2):
        got = _instantiated(ARITH, name, subst)
        want = _instantiated(arith_feasibility(), name, subst)
        if isinstance(want[1], str):
            assert got == want and want[0] == "TheoryError"
        else:  # unchanged, or a schema without variables had none to change
            assert subst == good and name in ARITH.axioms
            assert got[1] is want[1] and all(f is g for f, g in zip(got[0], want[0]))


# a schema over variables named out of sorted order, one of them twice in
# the succedent, a shape no theory of the package has
_W, _V = var("w"), var("v")
_CONJUGATION = AxiomSchema(
    "F:conjugation",
    ("w", "v"),
    (atom("F", _W), atom("F", _V)),
    atom("F", mul(mul(_V, _W), app("inv", _V))),
)

# every theory of the package, and one of that schema, made fresh for
# each example
_THEORIES = {
    "arith": arith_feasibility,
    "rat": rational_feasibility,
    "group:free": lambda: group_feasibility(("x", "y"), presentation="free"),
    "group:bs12": lambda: group_feasibility(("x", "y"), presentation="bs12"),
    "conjugation": lambda: Theory(
        "conjugation", group_signature(("x", "y")), [_CONJUGATION], lambda lhs, rhs: "undecided"
    ),
}


def _signature_terms(sig):
    """Closed and open terms over sig, in the variables of every schema
    (x, y, w, u, v) and one more (z)."""
    leaves = [var(n) for n in "xyzwuv"] + [const(c) for c in sig.constants]
    ops = sorted(sig.functions.items())
    return st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.sampled_from(ops).flatmap(
            lambda op: st.tuples(*[kids] * op[1]).map(lambda args: app(op[0], *args))
        ),
        max_leaves=8,
    )


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_THEORIES)), st.data())
def test_compiled_instances_are_the_substituted_schemas(which, data):
    # the compiled construction against the generic substitution, on a
    # fresh theory: each variable goes to itself, to another schema
    # variable (x -> y with y -> x) or to a drawn term
    th = _THEORIES[which]()
    name = data.draw(st.sampled_from(sorted(th.axioms)))
    schema = th.axioms[name]
    vs = schema.vars
    terms = _signature_terms(th.signature)
    subst = {}
    for i, v in enumerate(vs):
        kind = data.draw(st.sampled_from(["itself", "next", "term"]))
        if kind == "term":
            subst[v] = data.draw(terms)
        else:
            subst[v] = var(v if kind == "itself" else vs[(i + 1) % len(vs)])
    ant, succ = instantiate(th, name, subst)
    want = [subst_formula(f, subst) for f in schema.antecedent]
    assert len(ant) == len(want) and all(f is g for f, g in zip(ant, want))
    assert succ is subst_formula(schema.succedent, subst)
    # the stored instance is found by its rule's own sorted pairs, and
    # pairs out of order name none
    pairs = tuple(sorted(subst.items()))
    found = th.instance(name, pairs)
    assert found[:2] == (ant, succ) and found[2].subst == pairs
    assert th.instance(name, found[2].subst) is found
    if len(vs) < 2:
        assert th.instance(name, pairs[::-1]) is found
    else:
        with pytest.raises(TheoryError, match="each variable once, in sorted order"):
            th.instance(name, pairs[::-1])


def test_a_schema_formula_must_be_an_atom():
    F = atom("F", var("x"))
    for bad in (conj(F, F), imp(F, F)):
        with pytest.raises(TheoryError, match="is not an atom"):
            AxiomSchema("bad", ("x",), (F,), bad)
        with pytest.raises(TheoryError, match="is not an atom"):
            AxiomSchema("bad", ("x",), (bad,), F)
    good = AxiomSchema("good", ("x",), (F,), F)
    th = Theory("one", ARITH.signature, [good], _nat_oracle)
    assert instantiate(th, "good", {"x": num(3)}) == ((atom("F", num(3)),), atom("F", num(3)))


def validate(th, name, subst):
    """Validate an instance the way check does, with its rule's pairs and
    its succedent."""
    pairs = tuple(sorted(subst.items()))
    th.validate_instantiation(name, pairs, instantiate(th, name, subst)[1])


def test_arith_validation_is_permissive():
    # no validator installed: anything instantiable passes
    validate(ARITH, "F:times", {"x": num(0), "y": num(0)})


# ---------------------------------------------------------------------------
# rational theory


def test_rat_oracle_closed_terms():
    half_plus_half = plus(rational_term("1/2"), rational_term("1/2"))
    assert RAT.oracle(half_plus_half, rational_term(1)) == "equal"
    assert RAT.oracle(rational_term("2/3"), rational_term("3/2")) == "unequal"


def test_rat_oracle_undefined_is_undecided():
    bad = app("inv", const("0"))
    assert RAT.oracle(bad, bad) == "equal"  # identity shortcut fires first
    assert RAT.oracle(bad, rational_term(1)) == "undecided"


def test_rat_validator_rejects_undefined_instantiation():
    with pytest.raises(TheoryError):
        validate(RAT, "F:invert", {"x": app("inv", const("0"))})
    # open terms are waved through, closed well-defined ones too
    validate(RAT, "F:invert", {"x": var("x")})
    validate(RAT, "F:invert", {"x": rational_term("1/3")})


# numerals 0 modulo every prime of the modular test, and modulo only the
# first one or the first two
P1, P2, P3 = MODULAR_PRIMES
P_TERM = int_term(P1 * P2 * P3, RAT.signature)
P2_TERM = int_term(2 * P1 * P2 * P3, RAT.signature)
Q1_TERM = int_term(P1, RAT.signature)
Q12_TERM = int_term(P1 * P2, RAT.signature)


def ref_rat_validate(name, subst, succedent):
    """The rational validator as it was, evaluating every closed term
    exactly, applied to the substitution and to the succedent's terms:
    the oracle of the residue fold."""
    for t in (*subst.values(), *succedent.args):
        if free_vars(t):
            continue
        try:
            eval_rat(t)
        except UndefinedOperation as exc:
            raise TheoryError(f"undefined operation in instantiation of {name}: {exc}")


def _verdict(call, *args):
    try:
        call(*args)
    except (TheoryError, UndefinedOperation) as exc:
        return type(exc).__name__, str(exc)
    return "ok"


# closed terms with numerals p and 2p, whose residue 0 under inv or times
# inf leaves the fold inconclusive modulo every prime, and numerals 0
# modulo the first one or two primes only, next to 0, 1 and inf
_rat_terms = st.recursive(
    st.sampled_from([const("0"), const("1"), const("inf"), P_TERM, P2_TERM, Q1_TERM, Q12_TERM]),
    lambda kids: st.tuples(st.sampled_from(["+", "*"]), kids, kids).map(lambda f: app(*f))
    | st.tuples(st.sampled_from(["neg", "inv"]), kids).map(lambda f: app(*f)),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_rat_terms, _rat_terms)
def test_rat_definedness_matches_exact_evaluation(t, u):
    assert _verdict(check_rat_defined, t, {}) == _verdict(eval_rat, t)
    for name, subst in (
        ("F:plus", {"x": t, "y": u}),
        ("F:times", {"x": t, "y": u}),
        ("F:negate", {"x": t}),
        ("F:invert", {"x": u}),
        ("F:equality", {"x": t, "y": var("y")}),
    ):
        succedent = instantiate(RAT, name, subst)[1]
        want = _verdict(ref_rat_validate, name, subst, succedent)
        pairs = tuple(sorted(subst.items()))
        assert _verdict(RAT.validate_instantiation, name, pairs, succedent) == want


_SHARED_RESIDUES: dict = {}  # one memo for every draw, as a theory keeps it


@settings(max_examples=400, deadline=None)
@given(_rat_terms)
def test_rat_definedness_with_a_shared_memo_matches_exact_evaluation(t):
    assert _verdict(check_rat_defined, t, _SHARED_RESIDUES) == _verdict(eval_rat, t)


@pytest.mark.parametrize(
    "x, exact, verdict",
    [
        (P_TERM, True, "ok"),
        (app("inv", P_TERM), True, "ok"),
        (plus(P_TERM, app("neg", P_TERM)), True, "1/0 is undefined"),
        (mul(P_TERM, const("inf")), True, "ok"),
        (plus(P_TERM, const("1")), False, "ok"),
        (mul(plus(P_TERM, const("1")), const("inf")), False, "ok"),
        (plus(P2_TERM, P_TERM), True, "ok"),
        # 0 modulo the first prime or the first two only: a later prime decides
        (Q1_TERM, False, "ok"),
        (Q12_TERM, False, "ok"),
        (mul(Q1_TERM, const("inf")), False, "ok"),
        (plus(Q12_TERM, app("neg", Q1_TERM)), False, "ok"),
    ],
)
def test_rat_definedness_falls_back_on_a_zero_residue(monkeypatch, x, exact, verdict):
    # F:invert checks x and inv(x); the fold asks exact evaluation only
    # when every prime divides the value it would invert or multiply by inf
    calls = []
    real = semantics.eval_rat
    monkeypatch.setattr(semantics, "eval_rat", lambda t: calls.append(t) or real(t))
    got = _verdict(validate, rational_feasibility(), "F:invert", {"x": x})
    if verdict != "ok":
        verdict = ("TheoryError", f"undefined operation in instantiation of F:invert: {verdict}")
    assert got == verdict
    assert bool(calls) == exact


def test_check_never_evaluates_fibonacci_powers_exactly(monkeypatch):
    def exact(t):
        raise AssertionError(f"exact evaluation of {t!r}")  # a summary if huge

    monkeypatch.setattr(theories, "eval_rat", exact)
    monkeypatch.setattr(semantics, "eval_rat", exact)
    fib = Mat2(2, 1, 1, 1)
    for rep in (gen_matrix_power(fib, 20), gen_rational_orbit(fib, 0, 20)):
        check(rep.proof, rep.theory)
    # the denominator of this orbit point is 0 modulo the first prime, so
    # the generator's endpoint test and the checker need the second
    rep = gen_rational_orbit(fib, 747167105995432560, 24)
    check(rep.proof, rep.theory)


def squared(t, k):
    for _ in range(k):
        t = mul(t, t)
    return t


# (1+1) squared k times is 2^(2^k), of 2^k + 2 bits with its denominator;
# (x*y) squared k times is a reduced word of 2^(k+1) runs
_TWO, _XY = plus(const("1"), const("1")), mul(const("x"), const("y"))


def test_exact_rationals_stop_at_the_bit_budget():
    assert RAT_BIT_BUDGET == 1 << 18
    assert RAT.evaluate(squared(_TWO, 17)).num == 2**131072
    past, message = squared(_TWO, 18), "exact rational exceeds the budget of 262144 bits"
    with pytest.raises(EvalBudgetError, match=f"^{message}$"):
        rational_feasibility().evaluate(past)
    assert RAT.oracle(past, plus(past, const("0"))) == "undecided"
    # a multiple of every prime of the modular test sends inv(x) to exact
    # evaluation, which stops at the budget
    x = mul(P_TERM, past)
    got = _verdict(validate, rational_feasibility(), "F:invert", {"x": x})
    assert got == ("TheoryError", f"undecided instantiation of F:invert: {message}")


def test_free_words_stop_at_the_run_budget():
    assert WORD_RUN_BUDGET == 10_000
    assert len(FREE_XY.evaluate(squared(_XY, 12))) == 8192
    past = squared(_XY, 13)
    with pytest.raises(EvalBudgetError, match="^reduced word exceeds the budget of 10000 runs$"):
        FREE_XY.evaluate(past)
    assert FREE_XY.oracle(past, mul(past, const("e"))) == "undecided"


@pytest.mark.parametrize(
    "A, x, n",
    [
        (Mat2(0, 1, 1, 0), 0, 0),  # 0 to 1/0
        (Mat2(1, 0, 1, 1), Fraction(-1, 8), 3),  # (1 0; 8 1) sends -1/8 to inf
    ],
)
def test_orbit_endpoint_at_inf_is_refused_before_the_proof(monkeypatch, A, x, n):
    def built(*args):
        raise AssertionError("a proof was built")

    monkeypatch.setattr(generators, "gen_matrix_power", built)
    message = f"A^(2^{n}) sends {x} to inf, which has no feasibility axiom"
    with pytest.raises(UndefinedOperation) as info:
        gen_rational_orbit(A, x, n)
    assert str(info.value) == message


def test_rational_values_live_with_their_theory():
    # the values the theory's evaluator computes go with the theory
    fib = Mat2(2, 1, 1, 1)
    gen_rational_orbit(fib, 0, 16)  # interns the terms for the process
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        rep = gen_rational_orbit(fib, 0, 16)
        assert not rep.theory.evaluate(rep.target).is_inf
        del rep
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert after <= before + 64 * 1024, (before, after)


def test_rational_term_round_trip():
    sig = RAT.signature
    for q in ("0", "1", "7", "-3", "1/2", "-22/7", "355/113"):
        t = rational_term(q)
        assert RAT.evaluate(t).num == Fraction(q)
        parse_term(term_str(t), sig)  # printable and re-parseable


def test_rational_term_past_the_digit_limit():
    # int_term looked n up among the constants by str(n), which raises
    # past the interpreter's int-to-str limit
    n = 10**20000
    assert eval_rat(rational_term(n)).num == n


# ---------------------------------------------------------------------------
# group theories


def test_free_oracle_reduced_words():
    x = const("x")
    assert FREE_XY.oracle(mul(x, app("inv", x)), const("e")) == "equal"
    assert FREE_XY.oracle(mul(x, const("y")), mul(const("y"), x)) == "unequal"


def test_free_oracle_open_words():
    # variables are treated as letters: w * inv(w) still cancels
    w = var("w")
    assert FREE_XY.oracle(mul(w, app("inv", w)), const("e")) == "equal"
    # unequal open words might collide under substitution
    assert FREE_XY.oracle(mul(w, const("x")), const("x")) == "undecided"


def test_bs_oracle_defining_relation():
    x, y = const("x"), const("y")
    conj_y = mul(mul(x, y), app("inv", x))
    assert BS.oracle(conj_y, mul(y, y)) == "equal"
    assert BS.oracle(conj_y, y) == "unequal"
    assert BS.oracle(mul(var("w"), y), y) == "undecided"


def test_bs_presentation_requires_x_y():
    with pytest.raises(UnsupportedPresentation):
        group_feasibility(("a", "b"), presentation="bs12")
    with pytest.raises(TheoryError):
        group_feasibility(())
    with pytest.raises(UnsupportedPresentation):
        group_feasibility(("x",), presentation="dihedral")


def test_group_schemas_cover_generators():
    assert set(FREE_XY.axioms) == {
        "F(e)",
        "F(x)",
        "F(y)",
        "F:equality",
        "F:composition",
        "F:inverse",
    }
    ant, succ = instantiate(FREE_XY, "F:inverse", {"x": const("y")})
    assert formula_str(succ) == "F(inv(y))"


# ---------------------------------------------------------------------------
# selectors


def test_theory_from_selector():
    assert theory_from_selector("arith").name == "arith"
    assert theory_from_selector("rat").name == "rat"
    assert theory_from_selector("group:bs12").name == "group:bs12"
    gxy = theory_from_selector("group:free:x,y")
    assert "F(x)" in gxy.axioms and "F(y)" in gxy.axioms
    assert "F(x)" in theory_from_selector("group:free").axioms
    with pytest.raises(TheoryError):
        theory_from_selector("group:unknown")


def test_evaluate_requires_evaluator():
    th = theory_from_selector("arith")
    assert th.evaluate(num(3)) == 3
    bare = type(th)("bare", th.signature, [], lambda a, b: "undecided")
    with pytest.raises(TheoryError):
        bare.evaluate(num(3))
