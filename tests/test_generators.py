"""Generator line counts, advertised values, and domain errors.

Line-count goldens were frozen from closed-form counts of the constructions
(leaves, cuts, and structural lines per stage) and confirmed by sweeps.
"""

import hashlib

import pytest

from feaslab.generators import (
    GENERATORS,
    GeneratorError,
    gen_distorted,
    gen_geometric,
    gen_group_power,
    gen_matrix_power,
    gen_quantifier,
    gen_rational_orbit,
    gen_square_cut,
    gen_unary,
)
from feaslab.kernel import _iter_unique_nodes, check, parse_proof, serialize_proof
from feaslab.lang import formula_str
from feaslab.semantics import BSElement, ExtRational, Mat2, UndefinedOperation, mat2
from feaslab.theories import group_feasibility
from nested_format import serialize_nested

FIB = Mat2(2, 1, 1, 1)


def lines(report):
    return report.stats.lines


# ---------------------------------------------------------------------------
# affine line counts


def test_unary_line_count():
    for n in range(0, 13):
        assert lines(gen_unary(n)) == 2 * n + 1


def test_geometric_line_count():
    for n in range(1, 13):
        assert lines(gen_geometric(n)) == 8 * n - 3


def test_square_cut_line_count():
    for n in range(0, 13):
        assert lines(gen_square_cut(n)) == 10 * n + 5


def test_quantifier_line_count():
    for n in range(0, 7):
        assert lines(gen_quantifier(n)) == 15 * n + 17


def test_group_power_line_counts():
    assert lines(gen_group_power("x", 0, mode="linear")) == 1
    for n in range(1, 13):
        assert lines(gen_group_power("x", n, mode="linear")) == 4 * n - 3
    for n in range(0, 13):
        assert lines(gen_group_power("x", n, mode="squaring")) == 3 * n + 1
    for n in range(0, 7):
        assert lines(gen_group_power("x", n, mode="quantifier")) == 11 * n + 9


def test_distorted_line_count():
    assert lines(gen_distorted(0)) == 15  # extra oracle rewrite to y*y
    for n in range(1, 13):
        assert lines(gen_distorted(n)) == 6 * n + 11


def test_matrix_power_line_counts():
    for n in range(0, 7):
        assert lines(gen_matrix_power(FIB, n, mode="squaring")) == 39 * n + 15
    for n in range(0, 5):
        assert lines(gen_matrix_power(FIB, n, mode="quantifier")) == 22 * n + 65


def test_rational_orbit_line_count():
    for n in range(0, 7):
        assert lines(gen_rational_orbit(FIB, 0, n)) == 39 * n + 34


# ---------------------------------------------------------------------------
# advertised values against independent evaluation


def test_unary_values():
    r = gen_unary(7)
    assert r.advertised_value == 7
    assert r.value_desc == "7"
    assert formula_str(r.proof.conclusion.succ[0]).startswith("F(")


def test_geometric_values():
    for n in (1, 4, 10):
        r = gen_geometric(n)
        assert r.advertised_value == 2**n
        assert r.value_desc == str(2**n)


def test_square_cut_values():
    for n in range(0, 7):
        r = gen_square_cut(n)
        assert r.advertised_value == 2 ** (2**n)
    assert gen_square_cut(3).value_desc == "256"


def test_quantifier_values():
    # stage n squares the exponent n times starting from 2
    for n in range(0, 3):
        r = gen_quantifier(n)
        assert r.advertised_value == 2 ** (2 ** (2**n))
    assert gen_quantifier(0).value_desc == "4"
    assert gen_quantifier(2).value_desc == "65536"


def test_group_power_values():
    assert gen_group_power("x", 3, mode="linear").advertised_value == (("x", 3),)
    assert gen_group_power("x", 0, mode="linear").advertised_value == ()
    r = gen_group_power("x", 3, mode="squaring")
    assert r.advertised_value == (("x", 8),)
    assert r.value_desc == "x^8"
    r = gen_group_power("x", 2, mode="quantifier")
    assert r.advertised_value == (("x", 16),)
    assert r.value_desc == "x^16"


def test_distorted_values():
    # conjugate x^(2^n) y x^(-2^n) normalises to y^(2^(2^n))
    for n in range(0, 4):
        r = gen_distorted(n)
        assert r.advertised_value == BSElement(p=2 ** (2**n), k=0, t=0)
    assert gen_distorted(2).value_desc == "(16, 0)"


def test_matrix_power_values():
    assert gen_matrix_power(FIB, 2).advertised_value == Mat2(34, 21, 21, 13)
    assert gen_matrix_power(FIB, 2).value_desc == "(34 21; 21 13)"
    for n in range(0, 8):
        assert gen_matrix_power(FIB, n).advertised_value == FIB ** (2**n)
    assert gen_matrix_power(FIB, 1, mode="quantifier").advertised_value == FIB**4


def test_rational_orbit_values():
    r = gen_rational_orbit(FIB, 0, 2)
    assert r.advertised_value == ExtRational.of("21/13")
    assert r.value_desc == "21/13"
    # x = 1/3 after one squaring: (5/3 + 3) / (3/3 + 2) = 14/9
    r = gen_rational_orbit(FIB, "1/3", 1)
    assert r.advertised_value == ExtRational.of("14/9")


# ---------------------------------------------------------------------------
# every report re-checks under its own theory


def test_reports_check():
    reports = [
        gen_unary(4),
        gen_geometric(3),
        gen_square_cut(2),
        gen_quantifier(1),
        gen_group_power("x", 3, mode="linear"),
        gen_group_power("x", 3, mode="squaring"),
        gen_group_power("x", 1, mode="quantifier"),
        gen_distorted(1),
        gen_matrix_power(FIB, 1),
        gen_matrix_power(FIB, 1, mode="quantifier"),
        gen_rational_orbit(FIB, 0, 1),
    ]
    for r in reports:
        stats = check(r.proof, r.theory)
        assert stats.lines == r.stats.lines
        assert r.proof.conclusion.ant == ()
        assert len(r.proof.conclusion.succ) == 1


# ---------------------------------------------------------------------------
# the generated proofs themselves, frozen


def _frozen_grid():
    yield from (gen_unary(n) for n in range(0, 6))
    yield from (gen_geometric(n) for n in range(1, 6))
    yield from (gen_square_cut(n) for n in range(0, 6))
    yield from (gen_quantifier(n) for n in range(0, 5))
    yield from (gen_group_power("x", n, mode="linear") for n in range(0, 6))
    yield from (gen_group_power("x", n, mode="squaring") for n in range(0, 6))
    yield from (gen_group_power("x", n, mode="quantifier") for n in range(0, 5))
    yield from (gen_distorted(n) for n in range(0, 6))
    yield from (gen_matrix_power(FIB, n, mode="squaring") for n in range(0, 3))
    yield from (gen_matrix_power(FIB, n, mode="quantifier") for n in range(0, 3))
    for x in (0, "1/2", -3):
        yield from (gen_rational_orbit(FIB, x, n) for n in range(0, 3))
    yield from (gen_matrix_power(mat2(1, "1/2", -1, 3), n) for n in range(0, 2))


def test_generated_proofs_frozen():
    # every generated proof, byte for byte: in the nested format, whose text
    # spells every formula out, and in its flat file.  Each one is a tree
    # (the generators build no shared subproofs, so distinct nodes = tree
    # lines), and its flat file reads back to the same bytes in both formats.
    nested = hashlib.sha256()
    flat = hashlib.sha256()
    count = 0
    for r in _frozen_grid():
        text = serialize_nested(r.proof)
        nested.update((text + "\n").encode())
        flat_text = serialize_proof(r.proof)
        flat.update((flat_text + "\n").encode())
        assert len(list(_iter_unique_nodes(r.proof))) == r.stats.lines
        back = parse_proof(flat_text, r.theory.signature)
        assert serialize_proof(back) == flat_text
        assert serialize_nested(back) == text
        count += 1
    assert count == 62
    assert nested.hexdigest() == (
        "71d51da92f2be8ec6ef174b7bcfa7e546f9d821342488926be19781f5abfb63d"
    )
    assert flat.hexdigest() == (
        "81802e7d38302073f0c76a8b7aec777164e282b31fa4983716608a85e131ccd0"
    )


# ---------------------------------------------------------------------------
# domains and failure modes


def test_negative_stage_rejected():
    for fn in (gen_unary, gen_square_cut, gen_quantifier, gen_distorted):
        with pytest.raises(GeneratorError):
            fn(-1)
    with pytest.raises(GeneratorError):
        gen_geometric(0)
    with pytest.raises(GeneratorError):
        gen_group_power("x", -2)
    with pytest.raises(GeneratorError):
        gen_matrix_power(FIB, -1)
    with pytest.raises(GeneratorError):
        gen_rational_orbit(FIB, 0, -1)


def test_unknown_modes_rejected():
    with pytest.raises(GeneratorError):
        gen_group_power("x", 2, mode="cubing")
    with pytest.raises(GeneratorError):
        gen_matrix_power(FIB, 2, mode="cubing")


def test_singular_matrices_rejected():
    with pytest.raises(GeneratorError):
        gen_matrix_power(Mat2(1, 1, 1, 1), 2)
    with pytest.raises(GeneratorError):
        gen_rational_orbit(Mat2(2, 2, 1, 1), 0, 1)


def test_group_power_generator_must_exist():
    th = group_feasibility(("x", "y"))
    with pytest.raises(GeneratorError):
        gen_group_power("z", 2, theory=th)


def test_orbit_rejects_infinite_points():
    with pytest.raises(UndefinedOperation):
        gen_rational_orbit(FIB, ExtRational(None), 1)
    # (0 1; 1 0) sends 0 to 1/0 = inf
    with pytest.raises(UndefinedOperation):
        gen_rational_orbit(Mat2(0, 1, 1, 0), 0, 0)


def test_generator_registry():
    assert set(GENERATORS) == {
        "unary",
        "geometric",
        "square-cut",
        "quantifier",
        "group-power",
        "distorted",
        "matrix-power",
        "rational-orbit",
    }
    assert GENERATORS["unary"] is gen_unary
