"""Independent evaluators used to cross-check proofs and report values.

Five small calculators live here:

  * big naturals with a power-tower fallback (`nat_add`, `nat_mul`,
    `nat_pow`, `eval_nat`) so values like 2^(2^j) stay exact far beyond
    native digit budgets,
  * extended rationals with a point at infinity and the partial
    multiplication/division conventions (`ExtRational`), and a check
    that a closed term is defined, decided modulo several primes in turn
    with an exact fallback (`check_rat_defined`), the package's one
    modular test,
  * exact 2x2 rational matrices, their Moebius action on the projective
    line, symmetric eigenvalues, and torus winding growth (`Mat2`),
  * Baumslag-Solitar BS(1,2) normal forms as dyadic pairs (`BSElement`),
  * reduced words in a free group (run-length encoded).

Everything is exact except the float eigenvalue/ratio helpers, which are
documented as such.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from typing import Optional, Union

from .lang import App, Record, Term, Var, count_text, digit_limit_error, fold


class SemanticsError(Exception):
    pass


class OpenTermError(SemanticsError):
    """Raised when a closed-term evaluator meets a free variable."""


class EvalBudgetError(SemanticsError):
    """Raised when an exact value cannot be kept within its budget."""


class UndefinedOperation(SemanticsError):
    """Raised for partial extended-rational operations (e.g. 1/0, inf+1)."""


# Exact integers are kept as Python ints while their decimal size stays
# within this budget; beyond it only power towers (or an error) remain.
DIGIT_BUDGET = 10_000
_LOG10_2 = math.log10(2)

# A term DAG of a few hundred bytes can denote a rational of 2^40 bits or a
# reduced free-group word of 2^40 runs.  `eval_rat` refuses a sum or
# product whose numerator and denominator take more bits than this, and
# `word_mul` a reduced product of more runs; both raise EvalBudgetError.
RAT_BIT_BUDGET = 1 << 18
WORD_RUN_BUDGET = 10_000

# ints within the digit budget must remain printable/parseable
import sys as _sys

if hasattr(_sys, "set_int_max_str_digits"):
    if _sys.get_int_max_str_digits() < DIGIT_BUDGET + 100:
        _sys.set_int_max_str_digits(DIGIT_BUDGET + 100)


# ---------------------------------------------------------------------------
# Big naturals: int or PowerTower


class PowerTower:
    """b0 ** (b1 ** (... ** (bk ** top))), kept as the flat chain
    (b0, ..., bk, top) of ints, so loops read a tower of any height.

    PowerTower(base, exp) puts base on top of exp, an int or a tower, and
    base and exp read the chain back that way.  Instances are normalized:
    the base is not itself a perfect power, and the value is too large to
    expand within DIGIT_BUDGET.
    """

    __slots__ = ("chain",)

    def __init__(self, base, exp):
        self.chain = (base, *exp.chain) if isinstance(exp, PowerTower) else (base, exp)

    @property
    def base(self):
        return self.chain[0]

    @property
    def exp(self):
        if len(self.chain) == 2:
            return self.chain[1]
        rest = object.__new__(PowerTower)
        rest.chain = self.chain[1:]
        return rest

    def __repr__(self):
        return nat_str(self)

    def __eq__(self, other):
        if isinstance(other, PowerTower):
            return self.chain == other.chain
        return NotImplemented

    def __hash__(self):
        return hash(self.chain)


Big = Union[int, PowerTower]


def _reduce_base(b: int) -> tuple[int, int]:
    """Write b as c**m with the smallest possible c; returns (c, m).

    Exact for powers of two and for b within float range; oversized
    irregular bases are left alone (they do not arise from the term
    languages used here).
    """
    if b < 2:
        return b, 1
    if b & (b - 1) == 0:
        return 2, b.bit_length() - 1
    if b.bit_length() > 1000:
        return b, 1
    top = b.bit_length()
    for m in range(top, 1, -1):
        c = round(b ** (1.0 / m))
        for cand in (c - 1, c, c + 1):
            if cand >= 2 and cand**m == b:
                return cand, m
    return b, 1


_NO_SUM = "sum of oversized values has no exact representation here"


def _power(base: int, exp: int) -> Big:
    """base ** exp: an int while affordable, else a tower over the smallest
    c with c ** m == base."""
    if exp == 0:
        return 1
    if exp == 1:
        return base
    if base == 0:
        return 0
    if base == 1:
        return 1
    if exp.bit_length() <= 64 and exp * math.log10(base) <= DIGIT_BUDGET:
        return base**exp
    c, m = _reduce_base(base)
    return PowerTower(c, exp * m)


def _tower_times(a: PowerTower, m: int) -> Big:
    """a * m for an int m >= 1: the top exponent of a grows by k where
    a.base ** k == m, which only a tower of one level can take."""
    if m == 1:
        return a
    k = _as_power_of(a.base, m)
    if k is None:
        raise EvalBudgetError("product of tower and unrelated factor")
    if len(a.chain) > 2:
        raise EvalBudgetError(_NO_SUM)
    return _power(a.base, a.chain[1] + k)


def make_tower(base: int, exp: Big) -> Big:
    if isinstance(exp, int):
        return _power(base, exp)
    # (c ** m) ** exp is c ** (exp * m)
    c, m = _reduce_base(base)
    return PowerTower(c, _tower_times(exp, m))


def _digits_budget_ok(a: int, b: int) -> bool:
    return (a.bit_length() + b.bit_length()) * _LOG10_2 <= DIGIT_BUDGET + 1


def nat_eq(a: Big, b: Big) -> bool:
    """a == b: towers are always beyond the int budget, and two towers are
    equal when their chains are."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return isinstance(a, PowerTower) and isinstance(b, PowerTower) and a.chain == b.chain


def nat_add(a: Big, b: Big) -> Big:
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if nat_eq(a, b):
        return _tower_times(a, 2)
    raise EvalBudgetError(_NO_SUM)


def _as_power_of(base: int, n: int) -> Optional[int]:
    """k with base**k == n, if any."""
    if n < 1 or base < 2:
        return None
    k = 0
    while n % base == 0:
        n //= base
        k += 1
    return k if n == 1 else None


def nat_mul(a: Big, b: Big) -> Big:
    if isinstance(a, int) and isinstance(b, int):
        if a == 0 or b == 0:
            return 0
        if _digits_budget_ok(a, b):
            return a * b
        ca, ma = _reduce_base(a)
        cb, mb = _reduce_base(b)
        if ca == cb:
            return _power(ca, ma + mb)
        raise EvalBudgetError("product exceeds the digit budget")
    if isinstance(a, int):
        a, b = b, a
    # a is a tower
    if isinstance(b, int):
        return 0 if b == 0 else _tower_times(a, b)
    if a.base == b.base:
        return make_tower(a.base, nat_add(a.exp, b.exp))
    raise EvalBudgetError("product of towers with unrelated bases")


def nat_pow(a: Big, b: Big) -> Big:
    if isinstance(b, int) and b == 0:
        return 1
    if isinstance(a, int):
        return a if a in (0, 1) else make_tower(a, b)
    # tower ** b: (c^e)^b = c^(e*b)
    return make_tower(a.base, nat_mul(a.exp, b))


def nat_str(a: Big) -> str:
    """a in decimal, a tower as base^(exp) at every level."""
    chain = a.chain if isinstance(a, PowerTower) else (a,)
    return "^(".join(map(count_text, chain)) + ")" * (len(chain) - 1)


def _closed_step(consts: dict, ops: dict, meaning: str, not_const: str):
    """The fold step of an evaluator of closed terms: constants take their
    value from consts, a function symbol applies its operation from ops to
    the values of the arguments."""

    def step(t, vals):
        if t.__class__ is App:
            op = ops.get(t.sym)
            if op is None:
                raise SemanticsError(f"symbol {t.sym} has no {meaning} meaning")
            return op(*vals)
        if t.__class__ is Var:
            raise OpenTermError(f"free variable {t.name}")
        if t.sym not in consts:
            raise SemanticsError(f"constant {t.sym} {not_const}")
        return consts[t.sym]

    return step


_nat_step = _closed_step(
    {"0": 0, "1": 1},
    {"s": lambda a: nat_add(a, 1), "+": nat_add, "*": nat_mul, "exp": nat_pow},
    "natural-number",
    "has no natural-number value",
)


def eval_nat(t: Term, memo: Optional[dict] = None) -> Big:
    """Value of a closed arithmetic term over 0, s, +, *, exp.  memo maps
    terms to their values and keeps the values computed, also those
    computed before an error; a call without one uses its own."""
    return fold(t, _nat_step, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# Extended rationals


_SUM_INF = "sum involving inf is undefined"
_NEG_INF = "negation of inf is undefined"


class ExtRational(Record):
    """A rational number or the single point at infinity (num=None)."""

    __slots__ = _fields = ("num",)

    def __init__(self, num: Optional[Fraction]):
        object.__setattr__(self, "num", num)

    @staticmethod
    def of(value) -> "ExtRational":
        if isinstance(value, ExtRational):
            return value
        return ExtRational(Fraction(value))

    @property
    def is_inf(self) -> bool:
        return self.num is None

    def add(self, other: "ExtRational") -> "ExtRational":
        if self.is_inf or other.is_inf:
            raise UndefinedOperation(_SUM_INF)
        return ExtRational(self.num + other.num)

    def neg(self) -> "ExtRational":
        if self.is_inf:
            raise UndefinedOperation(_NEG_INF)
        return ExtRational(-self.num)

    def mul(self, other: "ExtRational") -> "ExtRational":
        if self.is_inf and other.is_inf:
            return INF
        if self.is_inf or other.is_inf:
            fin = other if self.is_inf else self
            # 0 * inf = inf * 0 = 0; a * inf = inf for nonzero finite a
            return ExtRational(Fraction(0)) if fin.num == 0 else INF
        return ExtRational(self.num * other.num)

    def inv(self) -> "ExtRational":
        if self.is_inf:
            return ExtRational(Fraction(0))
        if self.num == 0:
            raise UndefinedOperation("1/0 is undefined")
        return ExtRational(1 / self.num)

    def div(self, other: "ExtRational") -> "ExtRational":
        if not self.is_inf and other.is_inf:
            return ExtRational(Fraction(0))
        if self.is_inf:
            raise UndefinedOperation("inf as dividend is undefined")
        if other.num == 0:
            raise UndefinedOperation("division by zero is undefined")
        return ExtRational(self.num / other.num)

    def __str__(self):
        return "inf" if self.is_inf else _fraction_text(self.num)


INF = ExtRational(None)


def _fraction_text(q: Fraction) -> str:
    """str(q), written with count_text, so no digit limit applies."""
    if q.denominator == 1:
        return count_text(q.numerator)
    return f"{count_text(q.numerator)}/{count_text(q.denominator)}"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        too_long = digit_limit_error(max(map(len, re.findall(r"\d+", text)), default=0))
        raise SemanticsError(too_long or f"not a rational number: {text!r}") from None


def parse_ext_rational(text: str) -> ExtRational:
    text = text.strip()
    if text == "inf":
        return INF
    return ExtRational(_fraction(text))


def _within_bits(op):
    """op, raising EvalBudgetError for a value past RAT_BIT_BUDGET."""

    def bounded(a: ExtRational, b: ExtRational) -> ExtRational:
        out = op(a, b)
        q = out.num
        if q is not None and q.numerator.bit_length() + q.denominator.bit_length() > RAT_BIT_BUDGET:
            raise EvalBudgetError(f"exact rational exceeds the budget of {RAT_BIT_BUDGET} bits")
        return out

    return bounded


# negation and inversion keep the bits of their argument
_rat_step = _closed_step(
    {"0": ExtRational(Fraction(0)), "1": ExtRational(Fraction(1)), "inf": INF},
    {
        "+": _within_bits(ExtRational.add),
        "*": _within_bits(ExtRational.mul),
        "neg": ExtRational.neg,
        "inv": ExtRational.inv,
    },
    "extended-rational",
    "has no extended-rational value",
)


def eval_rat(t: Term, memo: Optional[dict] = None) -> ExtRational:
    """Value of a closed term over 0, 1, inf, +, *, neg, inv.  memo maps
    terms to their values and keeps the values computed (a partial
    operation raises before its value is kept); a call without one uses
    its own.  A value past RAT_BIT_BUDGET raises EvalBudgetError."""
    return fold(t, _rat_step, {} if memo is None else memo)


# The primes for deciding definedness modulo p instead of exactly, tried
# in this order.  Residues of rationals whose denominators p does not
# divide add and multiply like the rationals, and a nonzero residue proves
# a nonzero value; a rational is 0 modulo all three only if it is 0 or
# its numerator is a multiple of their product, about 2^257.
MODULAR_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


class _Inconclusive(Exception):
    """A residue of 0 where only the exact value tells 0 from nonzero."""


def _residue_step(p: int):
    """The fold step giving a closed term inf or its residue modulo p."""

    def add(a, b):
        if a is INF or b is INF:
            raise UndefinedOperation(_SUM_INF)
        return (a + b) % p

    def neg(a):
        if a is INF:
            raise UndefinedOperation(_NEG_INF)
        return -a % p

    def times(a, b):
        if a is INF or b is INF:
            fin = b if a is INF else a
            if fin is INF or fin:
                return INF
            raise _Inconclusive  # 0 * inf = 0, but a * inf = inf
        return a * b % p

    def inv(a):
        if a is INF:
            return 0
        if not a:
            raise _Inconclusive  # 1/0 is undefined, 1/p is not
        return pow(a, -1, p)

    return _closed_step(
        {"0": 0, "1": 1, "inf": INF},
        {"+": add, "*": times, "neg": neg, "inv": inv},
        "extended-rational",
        "has no extended-rational value",
    )


_RESIDUE_STEPS = tuple((p, _residue_step(p)) for p in MODULAR_PRIMES)


def check_rat_defined(t: Term, memo: dict) -> None:
    """Raise what eval_rat(t) raises, without computing its exact value.

    For each prime p of MODULAR_PRIMES in turn, one fold over the DAG of t
    gives each node inf or its residue modulo p, with the post-order and
    the rules of eval_rat, and leaves them in memo[p], one table per
    prime.  Only a residue of 0 under inv or times inf leaves a fold
    inconclusive, and sends t to the next prime; when every prime is
    inconclusive, eval_rat decides the whole term.
    """
    for p, step in _RESIDUE_STEPS:
        table = memo.get(p)
        if table is None:
            table = memo[p] = {}
        try:
            fold(t, step, table)
            return
        except _Inconclusive:
            pass
    eval_rat(t)


# ---------------------------------------------------------------------------
# Exact 2x2 matrices and the projective action


class Mat2(Record):
    """The 2x2 matrix (a b; c d).  It multiplies and raises to powers as a
    matrix, and has no + and no scalar product."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, d: Fraction):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("only nonnegative matrix powers are supported")
        out = mat2(1, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Fraction:
        return self.a + self.d

    def __str__(self):
        a, b, c, d = map(_fraction_text, (self.a, self.b, self.c, self.d))
        return f"({a} {b}; {c} {d})"


def mat2(a, b, c, d) -> Mat2:
    return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def parse_mat2(text: str) -> Mat2:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    rows = body.split(";")
    if len(rows) != 2:
        raise SemanticsError(f"expected '(a b; c d)', got {text!r}")
    entries = []
    for row in rows:
        parts = row.split()
        if len(parts) != 2:
            raise SemanticsError(f"expected two entries per row in {text!r}")
        entries.extend(_fraction(p) for p in parts)
    return Mat2(*entries)


def mobius_apply(A: Mat2, x: ExtRational) -> ExtRational:
    """The projective action x -> (a x + b) / (c x + d); total for det != 0."""
    if A.det() == 0:
        raise SemanticsError("Moebius action needs det != 0")
    x = ExtRational.of(x)
    if x.is_inf:
        return ExtRational(A.a / A.c) if A.c != 0 else INF
    den = A.c * x.num + A.d
    num = A.a * x.num + A.b
    if den == 0:
        return INF
    return ExtRational(num / den)


def eigenvalues_sym2(A: Mat2) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix, larger first (floats)."""
    if A.b != A.c:
        raise SemanticsError("eigenvalues_sym2 expects a symmetric matrix")
    tr = float(A.trace())
    disc = tr * tr - 4.0 * float(A.det())
    root = math.sqrt(disc)
    return ((tr + root) / 2.0, (tr - root) / 2.0)


def dominant_eigenvalue_abs(A: Mat2) -> float:
    tr = complex(float(A.trace()))
    disc = tr * tr - 4.0 * complex(float(A.det()))
    root = cmath.sqrt(disc)
    return max(abs((tr + root) / 2.0), abs((tr - root) / 2.0))


def _check_torus_map(A: Mat2, v: tuple[int, int]):
    for entry in (A.a, A.b, A.c, A.d):
        if entry.denominator != 1:
            raise SemanticsError("winding growth needs an integer matrix")
    if abs(A.det()) != 1:
        raise SemanticsError("winding growth needs det = +1 or -1")
    if v == (0, 0):
        raise SemanticsError("winding growth needs a nonzero vector")


def _growth(w, lam: float, n: int) -> tuple[int, float]:
    """(sup-norm of the exact vector w, that norm over lam^n)."""
    norm = int(max(abs(w[0]), abs(w[1])))
    try:
        return norm, float(norm) / (lam**n)
    except OverflowError:
        return norm, math.exp(math.log(norm) - n * math.log(lam))


def winding_growth(A: Mat2, v: tuple[int, int], n: int) -> tuple[int, float]:
    """(sup-norm of A^n v computed exactly, that norm over lambda_max^n).

    A must be an integer matrix with determinant +-1 (a torus map) and v a
    nonzero integer vector.  Where the norm or lambda_max^n passes the
    float range, the ratio comes from their logarithms.
    """
    _check_torus_map(A, v)
    M = A**n
    w = (M.a * v[0] + M.b * v[1], M.c * v[0] + M.d * v[1])
    return _growth(w, dominant_eigenvalue_abs(A), n)


def winding_growth_rows(A: Mat2, v: tuple[int, int], n: int):
    """winding_growth(A, v, k) for k = 1, ..., n, in time linear in n:
    A^k v is carried from row to row as one integer vector, and each
    ratio divides by lambda_max^k as winding_growth does, so every value
    is the same.  A and v are checked before the first row."""
    _check_torus_map(A, v)
    lam = dominant_eigenvalue_abs(A)
    a, b, c, d = (int(e) for e in (A.a, A.b, A.c, A.d))

    def rows(x, y):
        for k in range(1, n + 1):
            x, y = a * x + b * y, c * x + d * y
            yield _growth((x, y), lam, k)

    return rows(*v)


# ---------------------------------------------------------------------------
# BS(1,2) normal forms.
#
# Elements act on Z[1/2] by z -> 2^t z + a with a = p / 2^k dyadic; the
# triple (p, k, t) is kept with k minimal (p odd or k == 0).  p may be a
# power tower for the very distorted elements.


class BSElement(Record):
    """The element (p/2^k, t) of BS(1,2); p is an int, a PowerTower or a
    _BigNeg of one."""

    __slots__ = _fields = ("p", "k", "t")

    def __init__(self, p, k: int, t: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "t", t)

    def __str__(self):
        p = self.p
        ptxt = repr(p) if isinstance(p, _BigNeg) else nat_str(p)
        if self.k == 0:
            return f"({ptxt}, {self.t})"
        return f"({ptxt}/2^{self.k}, {self.t})"


def _big_shift(p, s: int):
    """p * 2^s for s >= 0, p an int, a PowerTower or a _BigNeg of either."""
    if s == 0:
        return p
    if isinstance(p, int) and (abs(p).bit_length() + s) * _LOG10_2 <= DIGIT_BUDGET:
        return p << s
    neg, mag = _sign_mag(p)
    q = nat_mul(mag, make_tower(2, s))
    return _BigNeg(q) if neg else q


class _BigNeg:
    """Negative wrapper around a PowerTower magnitude."""

    __slots__ = ("mag",)

    def __init__(self, mag):
        self.mag = mag

    def __repr__(self):
        return f"-{nat_str(self.mag)}"


def _sign_mag(p):
    if isinstance(p, _BigNeg):
        return True, p.mag
    if isinstance(p, int):
        return p < 0, abs(p)
    return False, p


def _big_signed_add(x, y):
    if isinstance(x, int) and isinstance(y, int):
        return x + y
    if isinstance(x, int) and x == 0:
        return y
    if isinstance(y, int) and y == 0:
        return x
    xneg, xm = _sign_mag(x)
    yneg, ym = _sign_mag(y)
    if not isinstance(xm, int) and not isinstance(ym, int) and nat_eq(xm, ym):
        if xneg == yneg:
            total = nat_mul(2, xm)
            return _BigNeg(total) if xneg else total
        return 0
    raise EvalBudgetError("dyadic numerator leaves the representable range")


def bs_element(p, k: int, t: int) -> BSElement:
    """Canonical form: reduce the dyadic a = p/2^k until p is odd or k = 0."""
    if isinstance(p, int):
        while k > 0 and p != 0 and p % 2 == 0:
            p //= 2
            k -= 1
        if p == 0:
            k = 0
    elif k > 0:
        neg, mag = _sign_mag(p)
        if isinstance(mag, PowerTower) and len(mag.chain) == 2 and mag.base == 2 and mag.exp >= k:
            mag = make_tower(2, mag.exp - k)
            p = _BigNeg(mag) if neg else mag
            k = 0
        else:
            raise EvalBudgetError("cannot canonicalize an oversized dyadic")
    return BSElement(p, k, t)


BS_IDENTITY = BSElement(0, 0, 0)
BS_X = BSElement(0, 0, 1)
BS_Y = BSElement(1, 0, 0)


def bs_mul(g: BSElement, h: BSElement) -> BSElement:
    """(a1, t1) * (a2, t2) = (a1 + 2^t1 a2, t1 + t2)."""
    k = max(g.k, h.k - g.t)
    x = _big_shift(g.p, k - g.k)
    y = _big_shift(h.p, k - h.k + g.t)
    return bs_element(_big_signed_add(x, y), k, g.t + h.t)


def bs_inv(g: BSElement) -> BSElement:
    # inverse of z -> 2^t z + a is z -> 2^-t z - a 2^-t
    shift = g.k + g.t
    p = g.p
    if isinstance(p, int):
        p = -p
    elif isinstance(p, _BigNeg):
        p = p.mag
    else:
        p = _BigNeg(p)
    if shift >= 0:
        return bs_element(p, shift, -g.t)
    return bs_element(_big_shift(p, -shift), 0, -g.t)


def bs_eq(g: BSElement, h: BSElement) -> bool:
    if g.k != h.k or g.t != h.t:
        return False
    a, b = g.p, h.p
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    # magnitudes under a sign are equal only as two towers
    (aneg, am), (bneg, bm) = _sign_mag(a), _sign_mag(b)
    return aneg == bneg and isinstance(am, PowerTower) and am == bm


# ---------------------------------------------------------------------------
# Free-group words (run-length encoded, always reduced)

Word = tuple  # of (generator, nonzero int exponent) pairs


def free_reduce(pairs) -> Word:
    out = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return tuple(out)


def word_mul(w1: Word, w2: Word) -> Word:
    w = free_reduce(list(w1) + list(w2))
    if len(w) > WORD_RUN_BUDGET:
        raise EvalBudgetError(f"reduced word exceeds the budget of {WORD_RUN_BUDGET} runs")
    return w


def word_inv(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


_WORD_OPS = {"*": word_mul, "inv": word_inv}


def _word_step(t, vals):
    if t.__class__ is App:
        op = _WORD_OPS.get(t.sym)
        if op is None:
            raise SemanticsError(f"symbol {t.sym} has no group meaning")
        return op(*vals)
    if t.__class__ is Var:
        return ((t.name, 1),)
    return () if t.sym == "e" else ((t.sym, 1),)


def _closed_word_step(t, vals):
    if t.__class__ is Var:
        raise OpenTermError(f"free variable {t.name}")
    return _word_step(t, vals)


def eval_group_free(t: Term, vars_as_letters: bool = False) -> Word:
    """Reduced word of a group term; variables may count as fresh letters.
    A word past WORD_RUN_BUDGET runs raises EvalBudgetError."""
    return fold(t, _word_step if vars_as_letters else _closed_word_step, {})


_bs_step = _closed_step(
    {"e": BS_IDENTITY, "x": BS_X, "y": BS_Y},
    {"*": bs_mul, "inv": bs_inv},
    "group",
    "is not a BS(1,2) generator",
)


def eval_group_bs(t: Term) -> BSElement:
    """BS(1,2) normal form of a closed term over e, x, y, *, inv."""
    return fold(t, _bs_step, {})
