"""Shared test inputs."""

import pytest

from feaslab.cutelim import eliminate_cuts
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
from feaslab.kernel import (
    contract_right,
    exists_left,
    exists_right,
    logical_axiom,
    not_left,
    not_right,
    or_left,
    or_right,
    weaken_left,
    weaken_right,
)
from feaslab.lang import app, atom, const, exists, var
from feaslab.semantics import Mat2
from feaslab.theories import arith_feasibility

FIB = Mat2(2, 1, 1, 1)


def _hand_proofs():
    """Rules no generator emits: Or, Not, Exists, WeakenLeft, ContractRight."""
    a, b = atom("F", const("0")), atom("F", app("s", const("0")))
    ex = exists("x", atom("F", var("x")))
    ax = logical_axiom(a)
    return [
        or_right(weaken_right(ax, b), a, b),
        or_left(ax, logical_axiom(b), a, b),
        not_left(ax, a),
        not_right(ax, a),
        contract_right(weaken_right(ax, a), a),
        weaken_left(ax, b),
        exists_left(exists_right(logical_axiom(atom("F", var("a"))), ex, var("a")), ex, "a"),
        exists_right(weaken_right(ax, b), ex, const("0")),
    ]


@pytest.fixture(scope="session")
def small_proofs():
    """(proof, theory) pairs: every generator family at a small n, the
    cut-free forms of those that eliminate, and hand-built proofs for the
    remaining rules.  Every rule tag occurs."""
    eliminable = [
        gen_unary(3),
        gen_square_cut(2),
        gen_quantifier(1),
        gen_group_power("x", 2, mode="squaring"),
        gen_group_power("x", 1, mode="quantifier"),
        gen_distorted(1),
        gen_matrix_power(FIB, 0),
    ]
    others = [
        gen_geometric(3),
        gen_group_power("x", 3, mode="linear"),
        gen_matrix_power(FIB, 0, mode="quantifier"),
        gen_rational_orbit(FIB, "1/2", 0),
    ]
    out = [(r.proof, r.theory) for r in eliminable + others]
    out += [(eliminate_cuts(r.proof, r.theory), r.theory) for r in eliminable]
    th = arith_feasibility()
    out += [(p, th) for p in _hand_proofs()]
    return out
