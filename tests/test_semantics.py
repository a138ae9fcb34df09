import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from feaslab.lang import (
    Const,
    Var,
    arith_signature,
    const,
    parse_term,
    rational_signature,
    subst_term,
)
from feaslab.semantics import (
    BS_IDENTITY,
    BS_X,
    BS_Y,
    BSElement,
    DIGIT_BUDGET,
    EvalBudgetError,
    ExtRational,
    INF,
    Mat2,
    SemanticsError,
    OpenTermError,
    PowerTower,
    UndefinedOperation,
    bs_element,
    bs_eq,
    bs_inv,
    bs_mul,
    eigenvalues_sym2,
    eval_group_bs,
    eval_group_free,
    eval_nat,
    eval_rat,
    free_reduce,
    make_tower,
    mat2,
    mobius_apply,
    nat_add,
    nat_eq,
    nat_log2,
    nat_mul,
    nat_pow,
    nat_str,
    parse_ext_rational,
    _BigNeg,
    _big_shift,
    parse_mat2,
    winding_growth,
    winding_growth_rows,
    word_inv,
    word_mul,
)
from test_lang import SIGNATURES, VARS, sig_terms_shared

ARITH = arith_signature()
RAT = rational_signature()


def ev(text):
    return eval_nat(parse_term(text, ARITH))


def rv(text):
    return eval_rat(parse_term(text, RAT))


# -- natural number evaluation ------------------------------------------------


def test_eval_nat_basics():
    assert ev("0") == 0
    assert ev("s(s(s(0)))") == 3
    assert ev("s(s(0)) * s(s(s(0)))") == 6
    assert ev("s(0) + s(s(0))") == 3
    assert ev("exp(s(s(0)), s(s(s(0))))") == 8


def test_eval_nat_open_term():
    with pytest.raises(OpenTermError):
        ev("x + 0")


def test_towers_beyond_digit_budget():
    v = make_tower(2, 10**6)
    assert isinstance(v, PowerTower)
    assert nat_str(v) == "2^(1000000)"
    assert nat_eq(v, make_tower(2, 10**6))
    assert not nat_eq(v, make_tower(2, 10**6 + 1))
    assert not nat_eq(v, 4)


def test_tower_arithmetic_laws():
    t = make_tower(2, 10**7)
    assert nat_eq(nat_mul(t, 2), make_tower(2, 10**7 + 1))
    assert nat_eq(nat_mul(t, t), make_tower(2, 2 * 10**7))
    assert nat_eq(nat_add(t, t), make_tower(2, 10**7 + 1))
    assert nat_eq(nat_pow(t, 3), make_tower(2, 3 * 10**7))
    assert nat_log2(t) == pytest.approx(10**7)
    with pytest.raises(EvalBudgetError):
        nat_add(t, 1)  # no exact representation for 2^10^7 + 1


def test_tower_base_reduction():
    # 4^k collapses onto base 2
    v = make_tower(4, 10**6)
    assert isinstance(v, PowerTower) and v.base == 2
    assert nat_eq(v, make_tower(2, 2 * 10**6))


def test_nat_pow_huge_exponent_stays_symbolic():
    e = make_tower(2, 2**40)  # exponent itself beyond exact range
    v = nat_pow(2, e)
    assert isinstance(v, PowerTower)
    assert nat_eq(v, make_tower(2, e))


def _tall_tower(levels: int):
    t = 2
    for _ in range(levels):
        t = nat_pow(2, t)
    return t


def test_a_tall_tower_hashes_without_recursion():
    # 3,000 levels, past the interpreter's recursion limit; towers equal
    # under nat_eq hash alike
    t, u = _tall_tower(3000), _tall_tower(3000)
    assert t is not u and nat_eq(t, u)
    assert hash(t) == hash(u)
    assert len({t, u}) == 1
    assert len({t, _tall_tower(2999)}) == 2


def test_int_to_str_budget():
    # values inside the digit budget must print, even past the CPython default
    v = 2 ** 2 ** 14
    assert len(nat_str(v)) == 4933


# -- extended rationals --------------------------------------------------------


def test_parse_ext_rational():
    assert parse_ext_rational("3/4") == ExtRational(Fraction(3, 4))
    assert parse_ext_rational("inf") is INF or parse_ext_rational("inf").is_inf
    assert parse_ext_rational("-2") == ExtRational(Fraction(-2))


FIN = ExtRational(Fraction(5, 3))
ZERO = ExtRational(Fraction(0))


def test_defined_infinity_rules():
    # the four defined rules: inf*inf, a*inf (a != 0), 0*inf, a/inf
    assert INF.mul(INF).is_inf
    assert FIN.mul(INF).is_inf and INF.mul(FIN).is_inf
    assert ZERO.mul(INF) == ZERO and INF.mul(ZERO) == ZERO
    assert FIN.div(INF) == ZERO and ZERO.div(INF) == ZERO
    assert INF.inv() == ZERO  # 1/inf, the a=1 instance


def test_all_other_infinity_cases_undefined():
    undefined = [
        lambda: INF.add(FIN),
        lambda: FIN.add(INF),
        lambda: INF.add(INF),
        lambda: INF.neg(),
        lambda: INF.div(FIN),
        lambda: INF.div(ZERO),
        lambda: INF.div(INF),
    ]
    for f in undefined:
        with pytest.raises(UndefinedOperation):
            f()


def test_finite_partial_cases():
    with pytest.raises(UndefinedOperation):
        ZERO.inv()
    with pytest.raises(UndefinedOperation):
        FIN.div(ZERO)
    assert FIN.add(ZERO) == FIN
    assert FIN.inv() == ExtRational(Fraction(3, 5))
    assert FIN.neg() == ExtRational(Fraction(-5, 3))


def test_eval_rat_terms():
    assert rv("1 + 1") == ExtRational(Fraction(2))
    assert rv("inv(1 + 1)") == ExtRational(Fraction(1, 2))
    assert rv("neg(1) + 1") == ZERO
    assert rv("inf * (1 + 1)").is_inf
    assert rv("0 * inf") == ZERO
    with pytest.raises(UndefinedOperation):
        rv("inf + 1")
    with pytest.raises(UndefinedOperation):
        rv("inv(0)")


def test_eval_rat_reuses_interned_values():
    t = parse_term("inv(1 + 1) * inv(1 + 1)", RAT)
    memo = {}
    assert eval_rat(t, memo) == ExtRational(Fraction(1, 4))
    assert memo[t] == ExtRational(Fraction(1, 4))
    assert eval_rat(t, memo) == ExtRational(Fraction(1, 4))  # from the memo
    assert eval_rat(t) == ExtRational(Fraction(1, 4))  # with a memo of its own


# -- 2x2 matrices and the projective action ------------------------------------


A = mat2(2, 1, 1, 1)


def test_mat2_parse_and_str():
    assert parse_mat2("(2 1; 1 1)") == A
    assert str(A) == "(2 1; 1 1)"
    assert parse_mat2(str(mat2(Fraction(1, 2), 0, 0, 1))) == mat2(Fraction(1, 2), 0, 0, 1)


def test_mat2_power():
    assert A**2 == mat2(5, 3, 3, 2)
    assert A**4 == mat2(34, 21, 21, 13)
    assert A**0 == mat2(1, 0, 0, 1)
    got = A**16
    assert got == mat2(3524578, 2178309, 2178309, 1346269)


def test_mobius_basic():
    x0 = ExtRational(Fraction(0))
    assert mobius_apply(A, x0) == ExtRational(Fraction(1))
    assert mobius_apply(A, ExtRational(Fraction(-1))).is_inf  # denominator vanishes
    # x = inf maps to a/c
    assert mobius_apply(A, INF) == ExtRational(Fraction(2))
    rot = mat2(0, -1, 1, 0)
    assert mobius_apply(rot, INF) == ZERO


def test_mobius_homomorphism_spot():
    B = mat2(1, 1, 0, 1)
    x = ExtRational(Fraction(7, 2))
    assert mobius_apply(A * B, x) == mobius_apply(A, mobius_apply(B, x))


def test_eigenvalues_golden_mean_square():
    lam1, lam2 = eigenvalues_sym2(A)
    assert abs(lam1 - (3 + math.sqrt(5)) / 2) < 1e-12
    assert abs(lam2 - (3 - math.sqrt(5)) / 2) < 1e-12


def test_winding_growth():
    norm, ratio = winding_growth(A, (1, 0), 5)
    assert norm == 89
    lam = (3 + math.sqrt(5)) / 2
    assert ratio == pytest.approx(89 / lam**5)


@pytest.mark.parametrize(
    "m, v",
    [(mat2(2, 1, 1, 1), (1, 0)), (mat2(0, 1, 1, 1), (-2, 3)), (mat2(3, 2, 1, 1), (0, -1))],
)
def test_winding_growth_rows_equal_each_winding_growth(m, v):
    # one running vector gives every row's value exactly, past the float
    # range too for the larger eigenvalues
    rows = list(winding_growth_rows(m, v, 800))
    assert len(rows) == 800
    for k in list(range(1, 41)) + list(range(700, 801, 7)):
        assert rows[k - 1] == winding_growth(m, v, k)


def test_winding_growth_rows_check_the_map_before_the_first_row():
    for m, v in ((mat2(2, 1, 1, 2), (1, 0)), (mat2(2, 1, 1, 1), (0, 0))):
        with pytest.raises(SemanticsError):
            winding_growth_rows(m, v, 5)


# -- BS(1,2) normal forms --------------------------------------------------------


def test_bs_defining_relation():
    # y^2 = x y x^-1
    lhs = bs_mul(BS_Y, BS_Y)
    rhs = bs_mul(bs_mul(BS_X, BS_Y), bs_inv(BS_X))
    assert bs_eq(lhs, rhs)
    assert lhs == bs_element(2, 0, 0)


def test_bs_distortion_identity():
    # x^m y x^-m = y^(2^m)
    xm = BS_IDENTITY
    for m in range(8):
        conj = bs_mul(bs_mul(xm, BS_Y), bs_inv(xm))
        assert conj == bs_element(2**m, 0, 0)
        xm = bs_mul(xm, BS_X)


def test_bs_group_laws_small():
    # associativity and inverses over a small sample
    sample = [BS_IDENTITY, BS_X, BS_Y, bs_inv(BS_X), bs_element(3, 1, -2)]
    for g in sample:
        assert bs_mul(g, bs_inv(g)) == BS_IDENTITY
        assert bs_mul(BS_IDENTITY, g) == g
        for h in sample:
            for k in sample:
                assert bs_mul(bs_mul(g, h), k) == bs_mul(g, bs_mul(h, k))


def test_bs_canonical_form():
    assert bs_element(4, 2, 0) == BSElement(1, 0, 0)  # 4/2^2 = 1
    assert bs_element(6, 1, 5) == BSElement(3, 0, 5)
    assert bs_element(0, 3, 1) == BSElement(0, 0, 1)


def test_bs_oversized_powers():
    # y^a * y^a = y^(2a): dyadic parts add
    big = bs_element(make_tower(2, 10**6), 0, 0)
    assert bs_eq(bs_mul(big, big), bs_element(make_tower(2, 10**6 + 1), 0, 0))
    # conjugation by x doubles the exponent instead
    conj = bs_mul(bs_mul(BS_X, big), bs_inv(BS_X))
    assert bs_eq(conj, bs_element(make_tower(2, 10**6 + 1), 0, 0))


# -- free words -------------------------------------------------------------------


def test_free_reduce():
    assert free_reduce([("x", 1), ("x", -1)]) == ()
    assert free_reduce([("x", 2), ("x", 3)]) == (("x", 5),)
    assert word_mul((("x", 1),), (("x", -1), ("y", 2))) == (("y", 2),)
    assert word_inv((("x", 2), ("y", -1))) == (("y", 1), ("x", -2))


small_bs = st.builds(
    bs_element,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-4, max_value=4),
)


@given(small_bs, small_bs, small_bs)
def test_bs_associativity_property(g, h, k):
    assert bs_mul(bs_mul(g, h), k) == bs_mul(g, bs_mul(h, k))


@given(small_bs)
def test_bs_inverse_property(g):
    assert bs_mul(g, bs_inv(g)) == BS_IDENTITY
    assert bs_mul(bs_inv(g), g) == BS_IDENTITY


# -- the fold evaluators against the recursive ones they replaced ------------
#
# Each reference below is the implementation that walked terms by
# recursion (or by a stack of its own), kept as the oracle of the fold.


def ref_eval_nat(t, memo=None):
    if memo is None:
        memo = {}
    hit = memo.get(t)
    if hit is not None:
        return hit
    if isinstance(t, Var):
        raise OpenTermError(f"free variable {t.name}")
    if isinstance(t, Const):
        if t.sym == "0":
            return 0
        if t.sym == "1":
            return 1
        raise SemanticsError(f"constant {t.sym} has no natural-number value")
    sym = t.sym
    if sym == "s":
        out = nat_add(ref_eval_nat(t.args[0], memo), 1)
    elif sym == "+":
        out = nat_add(ref_eval_nat(t.args[0], memo), ref_eval_nat(t.args[1], memo))
    elif sym == "*":
        out = nat_mul(ref_eval_nat(t.args[0], memo), ref_eval_nat(t.args[1], memo))
    elif sym == "exp":
        out = nat_pow(ref_eval_nat(t.args[0], memo), ref_eval_nat(t.args[1], memo))
    else:
        raise SemanticsError(f"symbol {sym} has no natural-number meaning")
    memo[t] = out
    return out


def ref_eval_rat(t, memo=None):
    if memo is None:
        memo = {}
    hit = memo.get(t)
    if hit is not None:
        return hit
    if isinstance(t, Var):
        raise OpenTermError(f"free variable {t.name}")
    if isinstance(t, Const):
        table = {"0": ExtRational(Fraction(0)), "1": ExtRational(Fraction(1)), "inf": INF}
        if t.sym not in table:
            raise SemanticsError(f"constant {t.sym} has no extended-rational value")
        return table[t.sym]
    sym = t.sym
    if sym == "+":
        out = ref_eval_rat(t.args[0], memo).add(ref_eval_rat(t.args[1], memo))
    elif sym == "*":
        out = ref_eval_rat(t.args[0], memo).mul(ref_eval_rat(t.args[1], memo))
    elif sym == "neg":
        out = ref_eval_rat(t.args[0], memo).neg()
    elif sym == "inv":
        out = ref_eval_rat(t.args[0], memo).inv()
    else:
        raise SemanticsError(f"symbol {sym} has no extended-rational meaning")
    memo[t] = out
    return out


def ref_eval_group_free(t, memo=None, vars_as_letters=False):
    if memo is None:
        memo = {}
    hit = memo.get(t)
    if hit is not None:
        return hit
    if isinstance(t, Var):
        if not vars_as_letters:
            raise OpenTermError(f"free variable {t.name}")
        out = ((t.name, 1),)
    elif isinstance(t, Const):
        out = () if t.sym == "e" else ((t.sym, 1),)
    elif t.sym == "*":
        out = word_mul(
            ref_eval_group_free(t.args[0], memo, vars_as_letters),
            ref_eval_group_free(t.args[1], memo, vars_as_letters),
        )
    elif t.sym == "inv":
        out = word_inv(ref_eval_group_free(t.args[0], memo, vars_as_letters))
    else:
        raise SemanticsError(f"symbol {t.sym} has no group meaning")
    memo[t] = out
    return out


def ref_eval_group_bs(t, memo=None):
    if memo is None:
        memo = {}
    hit = memo.get(t)
    if hit is not None:
        return hit
    if isinstance(t, Var):
        raise OpenTermError(f"free variable {t.name}")
    if isinstance(t, Const):
        table = {"e": BS_IDENTITY, "x": BS_X, "y": BS_Y}
        if t.sym not in table:
            raise SemanticsError(f"constant {t.sym} is not a BS(1,2) generator")
        return table[t.sym]
    if t.sym == "*":
        out = bs_mul(ref_eval_group_bs(t.args[0], memo), ref_eval_group_bs(t.args[1], memo))
    elif t.sym == "inv":
        out = bs_inv(ref_eval_group_bs(t.args[0], memo))
    else:
        raise SemanticsError(f"symbol {t.sym} has no group meaning")
    memo[t] = out
    return out


def outcome(f, t):
    """("value", f(t)), or the type and message of what f raised."""
    try:
        return "value", f(t)
    except Exception as exc:
        return type(exc), str(exc)


EVALUATORS = {
    "arith": [(eval_nat, ref_eval_nat)],
    "group": [
        (eval_group_bs, ref_eval_group_bs),
        (eval_group_free, ref_eval_group_free),
        (
            lambda t: eval_group_free(t, vars_as_letters=True),
            lambda t: ref_eval_group_free(t, vars_as_letters=True),
        ),
    ],
    "rat": [(eval_rat, ref_eval_rat)],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_evaluators_match_the_recursive_references(name, data):
    sig = SIGNATURES[name]
    t = data.draw(sig_terms_shared(sig))
    consts = st.sampled_from([const(c) for c in sig.constants])
    closing = data.draw(st.dictionaries(st.sampled_from(VARS), consts))
    for u in (t, subst_term(t, closing)):
        for new, ref in EVALUATORS[name]:
            assert outcome(new, u) == outcome(ref, u)


# -- the tower loops against the recursive functions they replaced -----------


def ref_nat_eq(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, int) or isinstance(b, int):
        return False
    return a.base == b.base and ref_nat_eq(a.exp, b.exp)


def ref_nat_log2(a):
    if isinstance(a, int):
        if a <= 0:
            return float("-inf")
        if a.bit_length() <= 1024:
            return math.log2(a)
        return float(a.bit_length() - 1)
    try:
        e = float(a.exp) if isinstance(a.exp, int) else 2.0 ** ref_nat_log2(a.exp)
        return e * math.log2(a.base)
    except OverflowError:
        return float("inf")


def ref_nat_str(a):
    if isinstance(a, int):
        return str(a)
    return f"{a.base}^({ref_nat_str(a.exp)})"


def tower(bases, top):
    """bases[0] ** (bases[1] ** (... ** top)), one PowerTower per base."""
    for c in reversed(bases):
        top = PowerTower(c, top)
    return top


tower_bases = st.lists(st.integers(2, 9), max_size=40)
# tops whose float, and whose logarithm's power of two, fit and overflow
tower_tops = st.sampled_from([0, 1, 3, 1000, 10**6, 2**1100, 10**400])


@settings(max_examples=300, deadline=None)
@given(tower_bases, tower_tops, st.integers(0, 41), st.integers(0, 40))
def test_tower_loops_match_the_recursive_references(bases, top, changed, cut):
    a = tower(bases, top)
    assert nat_str(a) == ref_nat_str(a)
    assert nat_log2(a) == ref_nat_log2(a)  # the same float operations, in order
    assert nat_eq(a, tower(list(bases), top))
    # one level's base, or the top, differs; or the tower is cut short
    other, other_top = list(bases), top
    if changed < len(other):
        other[changed] += 1
    elif changed == len(other):
        other_top += 1
    b = tower(other, other_top)
    c = tower(bases[cut:], top)
    for x in (b, c):
        assert nat_eq(a, x) == ref_nat_eq(a, x)
        assert nat_eq(x, a) == ref_nat_eq(x, a)


def ref_big_shift(p, s):
    if s == 0:
        return p
    if isinstance(p, int):
        if (abs(p).bit_length() + s) * math.log10(2) > DIGIT_BUDGET:
            if p == 0:
                return 0
            mag = nat_mul(make_tower(2, s), abs(p))
            return mag if p > 0 else _BigNeg(mag)
        return p << s
    if isinstance(p, _BigNeg):
        return _BigNeg(ref_big_shift(p.mag, s))
    return nat_mul(p, make_tower(2, s))


def test_big_shift_matches_the_recursive_reference():
    big = make_tower(2, 10**6)
    numerators = [0, 6, -6, 2**30000, -(2**30000), 3**20000, big, _BigNeg(big), _BigNeg(4)]
    for p in numerators:
        for s in (0, 1, 100, 40000):
            got = outcome(lambda q: _big_shift(q, s), p)
            want = outcome(lambda q: ref_big_shift(q, s), p)
            if got[0] == "value":  # the kind of number, and its value
                got, want = (type(got[1]), repr(got[1])), (type(want[1]), repr(want[1]))
            assert got == want
