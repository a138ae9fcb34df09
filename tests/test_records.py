"""The package's records against the frozen dataclasses they replaced.

Each record is built beside a dataclass reference with the same fields,
defaults, validation and `__str__`, from the same arguments, and must
match it in field values, `==`, hash, `repr` and `str`, and in refusing
assignment.  The plain rows are NamedTuples; the rest are `lang.Record`s,
apart from the mutable GenReport.
"""

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Optional

import pytest
from hypothesis import given, settings, strategies as st

from feaslab.cutelim import BLOWUP_COLUMNS, BlowupRow
from feaslab.generators import GenReport, gen_square_cut
from feaslab.kernel import SizeStats
from feaslab.lang import LangError, Signature, atom, const, imp, var
from feaslab.oracle import DistortionRow
from feaslab.semantics import BSElement, ExtRational, Mat2, PowerTower, make_tower, nat_str
from feaslab.theories import AxiomSchema, TheoryError, _compile


@dataclass(frozen=True)
class SignatureRef:
    name: str
    constants: tuple = ()
    functions: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for s in list(self.constants) + list(self.functions) + list(self.predicates):
            if s in seen:
                raise LangError(f"duplicate symbol {s!r} in signature {self.name}")
            seen.add(s)
        for s, k in list(self.functions.items()) + list(self.predicates.items()):
            if k < 1:
                raise LangError(f"symbol {s!r} needs arity >= 1, got {k}")


@dataclass(frozen=True)
class ExtRationalRef:
    num: Optional[Fraction]

    def __str__(self):
        return "inf" if self.num is None else str(self.num)


@dataclass(frozen=True)
class Mat2Ref:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __str__(self):
        return f"({self.a} {self.b}; {self.c} {self.d})"


@dataclass(frozen=True)
class BSElementRef:
    p: object
    k: int
    t: int

    def __str__(self):
        p = self.p
        ptxt = nat_str(p) if isinstance(p, PowerTower) else str(p)
        if self.k == 0:
            return f"({ptxt}, {self.t})"
        return f"({ptxt}/2^{self.k}, {self.t})"


@dataclass(frozen=True)
class SizeStatsRef:
    lines: int
    cut_count: int
    contraction_count: int


@dataclass(frozen=True)
class AxiomSchemaRef:
    name: str
    vars: tuple
    antecedent: tuple
    succedent: object
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _compile(self))


@dataclass
class GenReportRef:
    proof: object
    target: object
    theory: object
    value_desc: str
    _value_fn: Callable = field(repr=False, default=None)


@dataclass(frozen=True)
class BlowupRowRef:
    n: int
    lines_with_cuts: int
    lines_cut_free: Optional[int]
    ratio: Optional[float]
    cut_count: int
    contraction_count: int
    wall_time_ms: Optional[float]
    status: str


@dataclass(frozen=True)
class DistortionRowRef:
    n: int
    proof_lines: int
    normal_form: str
    conjugated_length: int
    word_distance: Optional[int]


def _built(cls, args: tuple):
    """cls(*args), or the type and text of the error it raises."""
    try:
        return cls(*args)
    except (LangError, TheoryError) as e:
        return (type(e), str(e))


def _shown(ref, cls) -> str:
    return repr(ref).replace(f"{type(ref).__name__}(", f"{cls.__name__}(", 1)


def _assert_like(new, ref):
    """new behaves as ref, its reference built from the same arguments."""
    for f in fields(ref):
        assert getattr(new, f.name) == getattr(ref, f.name), f.name
    assert repr(new) == _shown(ref, type(new))
    assert str(new) == (str(ref) if type(ref).__str__ is not object.__str__ else repr(new))
    assert new != ref and not new == ref  # a record equals only its own kind
    assert _hash(new) == _hash(ref)


def _hash(x):
    """hash(x), or TypeError where x is unhashable."""
    try:
        return hash(x)
    except TypeError:
        return TypeError


def _assert_frozen(new):
    for name in new._fields:
        with pytest.raises(AttributeError):
            setattr(new, name, 0)
        with pytest.raises(AttributeError):
            delattr(new, name)
    with pytest.raises(AttributeError):
        new.no_such_field = 0


def _assert_pair(new1, new2, ref1, ref2):
    assert (new1 == new2) == (ref1 == ref2)
    assert (new1 != new2) == (ref1 != ref2)
    if ref1 == ref2:
        assert _hash(new1) == _hash(new2)


_fractions = st.fractions(max_denominator=50)
_fraction_or_int = _fractions | st.integers(-3, 3)
_small = st.integers(0, 99)
_maybe_int = st.none() | st.integers(-(10**30), 10**30)
_floats = st.none() | st.floats(allow_nan=False)
_bs_p = st.integers(-(10**6), 10**6) | st.integers(1, 5).map(lambda e: make_tower(2, 2**e))

# (record, reference, arguments) per record with hypothesis-drawable fields
_CASES = [
    (ExtRational, ExtRationalRef, st.tuples(st.none() | _fractions)),
    (Mat2, Mat2Ref, st.tuples(*[_fraction_or_int] * 4)),
    (BSElement, BSElementRef, st.tuples(_bs_p, st.integers(0, 3), st.integers(-3, 3))),
    (SizeStats, SizeStatsRef, st.tuples(*[st.integers(0, 10**40)] * 3)),
    (
        BlowupRow,
        BlowupRowRef,
        st.tuples(
            st.integers(0, 9),
            st.integers(0, 99),
            _maybe_int,
            _floats,
            st.integers(0, 9),
            st.integers(0, 9),
            _floats,
            st.sampled_from(["ok", "budget-exceeded", "fragment-exceeded"]),
        ),
    ),
    (
        DistortionRow,
        DistortionRowRef,
        st.tuples(st.integers(0, 9), st.integers(0, 99), st.text(max_size=5), _small, _maybe_int),
    ),
]


@pytest.mark.parametrize("cls, ref_cls, args", _CASES, ids=[c[0].__name__ for c in _CASES])
def test_records_behave_as_their_dataclasses(cls, ref_cls, args):
    @settings(max_examples=150, deadline=None)
    @given(args, args)
    def check(args1, args2):
        new1, new2 = cls(*args1), cls(*args2)
        ref1, ref2 = ref_cls(*args1), ref_cls(*args2)
        _assert_like(new1, ref1)
        _assert_like(new2, ref2)
        _assert_pair(new1, new2, ref1, ref2)
        _assert_pair(new1, cls(*args1), ref1, ref_cls(*args1))
        _assert_frozen(new1)
        kw = dict(zip(cls._fields, args1))
        assert cls(**kw) == new1

    check()


@pytest.mark.parametrize("cls, ref_cls, args", _CASES[:3], ids=[c[0].__name__ for c in _CASES[:3]])
def test_records_equal_only_their_own_class(cls, ref_cls, args):
    # an instance of a subclass with the same fields is not equal, as for
    # the dataclass; the rows are NamedTuples, which compare as tuples
    sub, sub_ref = type("Sub", (cls,), {"__slots__": ()}), type("Sub", (ref_cls,), {})

    @settings(max_examples=50, deadline=None)
    @given(args)
    def check(args):
        assert sub_ref(*args) != ref_cls(*args) and sub(*args) != cls(*args)
        assert sub(*args) == sub(*args)

    check()


_SYMBOLS = st.sampled_from(["0", "s", "F", "e", "+"])
_signature_args = st.tuples(
    st.sampled_from(["arith", "group"]),
    st.lists(_SYMBOLS, max_size=3).map(tuple),
    st.dictionaries(_SYMBOLS, st.integers(-1, 3), max_size=3),
    st.dictionaries(_SYMBOLS, st.integers(-1, 3), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(_signature_args, _signature_args, st.integers(1, 4))
def test_signatures_behave_as_the_dataclass(args1, args2, given_fields):
    # the same errors for colliding symbols and arities below 1, and
    # the same defaults when fewer fields are given
    args1 = args1[:given_fields]
    new1, ref1 = _built(Signature, args1), _built(SignatureRef, args1)
    new2, ref2 = _built(Signature, args2), _built(SignatureRef, args2)
    assert isinstance(new1, tuple) == isinstance(ref1, tuple)
    if isinstance(ref1, tuple):
        assert new1 == ref1
        return
    _assert_like(new1, ref1)  # unhashable for its dicts, as the dataclass
    _assert_frozen(new1)
    if not isinstance(ref2, tuple):
        _assert_pair(new1, new2, ref1, ref2)


def test_signature_defaults_are_fresh_dicts():
    s1, s2 = Signature("x"), Signature("y")
    assert s1.constants == () and s1.functions == {} and s1.predicates == {}
    assert s1.functions is not s2.functions and s1.predicates is not s2.predicates


_X, _Y = var("x"), var("y")
_SCHEMA_FORMULAS = [
    atom("F", _X),
    atom("F", const("0")),
    atom("F", _Y),
    atom("=", _X, _Y),
    imp(atom("F", _X), atom("F", _X)),  # not an atom: refused by _compile
]
_schema_args = st.tuples(
    st.sampled_from(["F(0)", "F:successor"]),
    st.sampled_from([("x",), ("x", "y")]),
    st.lists(st.sampled_from(_SCHEMA_FORMULAS), max_size=2).map(tuple),
    st.sampled_from(_SCHEMA_FORMULAS),
)


@settings(max_examples=200, deadline=None)
@given(_schema_args, _schema_args)
def test_axiom_schemas_behave_as_the_dataclass(args1, args2):
    new1, ref1 = _built(AxiomSchema, args1), _built(AxiomSchemaRef, args1)
    new2, ref2 = _built(AxiomSchema, args2), _built(AxiomSchemaRef, args2)
    assert isinstance(new1, tuple) == isinstance(ref1, tuple)
    if isinstance(ref1, tuple):
        assert new1 == ref1
        return
    _assert_like(new1, ref1)  # the steps too, which repr and == leave out
    assert "steps" not in repr(new1)
    _assert_frozen(new1)
    with pytest.raises(AttributeError):
        new1.steps = ()
    if not isinstance(ref2, tuple):
        _assert_pair(new1, new2, ref1, ref2)


def test_axiom_schemas_compare_without_their_steps():
    a = AxiomSchema("A", ("x",), (), atom("F", _X))
    b = AxiomSchema("A", ("x",), (), atom("F", _X))
    object.__setattr__(b, "steps", ())
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_gen_reports_behave_as_the_dataclass():
    rep = gen_square_cut(2)
    fn = rep._value_fn
    args = (rep.proof, rep.target, rep.theory, rep.value_desc, fn)
    new, ref = GenReport(*args), GenReportRef(*args)
    _assert_like(new, ref)
    assert "_value_fn" not in repr(new)
    assert GenReport(*args[:4]) == GenReport(*args[:4], None) != new
    assert new == GenReport(*args) and new != GenReport(*args[:3], "other", fn)
    assert (GenReport(*args[:4]) == new) == (GenReportRef(*args[:4]) == ref)
    # mutable, with the size and value computed on first use and kept
    assert new.stats is new.stats == rep.stats
    assert new.advertised_value == 16
    new.value_desc = "sixteen"
    assert new.value_desc == "sixteen"
    assert "stats" not in repr(new) and "advertised_value" not in repr(new)


def test_matrices_have_no_sum_and_no_scalar_product():
    m = Mat2(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    with pytest.raises(TypeError):
        m + m
    with pytest.raises(TypeError):
        2 * m
    assert m * m == Mat2(Fraction(7), Fraction(10), Fraction(15), Fraction(22))
    assert not isinstance(m, tuple)


def test_blowup_columns_are_the_row_fields():
    assert BLOWUP_COLUMNS is BlowupRow._fields
    assert BLOWUP_COLUMNS == tuple(f.name for f in fields(BlowupRowRef))


def test_records_show_as_before():
    # the repr and str of each record, as the dataclasses printed them
    assert repr(ExtRational(Fraction(1, 2))) == "ExtRational(num=Fraction(1, 2))"
    assert str(ExtRational(None)) == "inf"
    assert repr(Mat2(1, 2, 3, 4)) == "Mat2(a=1, b=2, c=3, d=4)"
    assert repr(BSElement(3, 1, -2)) == "BSElement(p=3, k=1, t=-2)"
    assert str(BSElement(3, 1, -2)) == "(3/2^1, -2)"
    assert str(SizeStats(35, 11, 3)) == "SizeStats(lines=35, cut_count=11, contraction_count=3)"
    assert repr(Signature("g", ("e",), {"*": 2})) == (
        "Signature(name='g', constants=('e',), functions={'*': 2}, predicates={})"
    )
    assert repr(AxiomSchema("F(0)", (), (), atom("F", const("0")))).startswith(
        "AxiomSchema(name='F(0)', vars=(), antecedent=(), succedent="
    )
    assert math.isinf(BlowupRow(1, 1, 1, math.inf, 0, 0, None, "ok").ratio)
