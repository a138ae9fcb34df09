"""Hand-built cuts, one for each branch of the multicut in `cutelim`.

Each builder returns (proof, theory) for a proof that ends in one cut; the
generated families reach only some branches of the multicut, and these
reach the rest.  `CASES` eliminate; `FRAGMENT_CASES` raise FragmentError
with the message given.  The coverage guard runs all of them under a line
trace, and the example tests pin what each eliminates to.

Notation: A = F(0), B = F(s(0)), C = F(s(s(0))), I = A -> A.
"""

from feaslab.kernel import (
    contract_left,
    contract_right,
    cut,
    exists_left,
    exists_right,
    forall_left,
    forall_right,
    implies_left,
    implies_right,
    logical_axiom,
    theory_leaf,
    weaken_left,
    weaken_right,
)
from feaslab.lang import app, atom, const, exists, forall, imp, var
from feaslab.theories import arith_feasibility

TH = arith_feasibility()
ZERO = const("0")
A = atom("F", ZERO)
B = atom("F", app("s", ZERO))
C = atom("F", app("s", app("s", ZERO)))
I = imp(A, A)


def F(t):
    return atom("F", t)


def s(t):
    return app("s", t)


def f0():
    return theory_leaf(TH, "F(0)", {})  # |- A


def axiom_on_the_left():
    # p1 is A |- A: the cut changes nothing
    p2 = weaken_left(logical_axiom(B), A)  # A, B |- B
    return cut(logical_axiom(A), p2, A), TH


def theory_leaf_absorbs():
    # the leaf F(0), F(s(0)) |- F(0 + s(0)) takes p1 into its A slot
    p2 = theory_leaf(TH, "F:plus", {"x": ZERO, "y": s(ZERO)})
    return cut(f0(), p2, A), TH


def weaken_right_on_a():
    # p1 ends in WeakenRight on A: its premise, weakened to the end sequent
    p1 = weaken_right(logical_axiom(B), A)  # B |- B, A
    p2 = weaken_left(logical_axiom(A), B)  # B, A |- A
    return cut(p1, p2, A), TH


def weaken_left_on_a_with_context():
    # p2 weakens A in; p1's contexts on both sides are weakened in instead
    p1 = weaken_right(weaken_left(logical_axiom(A), B), C)  # B, A |- A, C
    p2 = weaken_left(logical_axiom(B), A)  # A, B |- B
    return cut(p1, p2, A), TH


def contract_left_below_count():
    # one copy of A is cut from a contraction of three: contract afterwards
    p2 = contract_left(weaken_left(weaken_left(logical_axiom(A), A), A), A)  # A, A |- A
    return cut(f0(), p2, A), TH


def contract_left_with_context():
    # the contraction merges the two copies of each side of p1's context
    p1 = weaken_left(weaken_right(f0(), B), C)  # C |- A, B
    p2 = contract_left(weaken_left(logical_axiom(A), A), A)  # A |- A
    return cut(p1, p2, A), TH


def forall_right_eigen_clash():
    # p2's eigenvariable x is free in p1's conclusion: renamed in commutation
    x = var("x")
    inner = forall_left(logical_axiom(F(x)), forall("y", F(var("y"))), x)  # Ay F(y) |- F(x)
    p2 = forall_right(weaken_left(inner, A), forall("x", F(x)), "x")  # A, Ay F(y) |- Ax F(x)
    p1 = weaken_left(f0(), F(x))  # F(x) |- A
    return cut(p1, p2, A), TH


def exists_left_eigen_clash():
    x = var("x")
    inner = exists_right(logical_axiom(F(x)), exists("y", F(var("y"))), x)  # F(x) |- Ey F(y)
    p2 = exists_left(weaken_left(inner, A), exists("x", F(x)), "x")  # Ex F(x), A |- Ey F(y)
    p1 = weaken_left(f0(), F(x))  # F(x) |- A
    return cut(p1, p2, A), TH


def principalize_past_weaken_left():
    # _principalize_right walks down one WeakenLeft to the ImpliesRight
    p1 = weaken_left(implies_right(logical_axiom(A), A, A), B)  # B |- I
    p2 = implies_left(f0(), logical_axiom(A), A, A)  # I |- A
    return cut(p1, p2, I), TH


def principalize_past_right_premise():
    # a sits in the right premise of an ImpliesLeft on B -> C: the walk and
    # the rebuild go through premise 1, not premise 0
    head = weaken_left(implies_right(logical_axiom(A), A, A), C)  # C |- I
    p1 = implies_left(theory_leaf(TH, "F:successor", {"x": ZERO}), head, B, C)  # B -> C, A |- I
    p2 = implies_left(f0(), logical_axiom(A), A, A)  # I |- A
    return cut(p1, p2, I), TH


def principalize_weakened_implication():
    # a = A -> B is weakened in under a WeakenLeft: principalized by weakening
    ab = imp(A, B)
    p1 = weaken_left(weaken_right(f0(), ab), B)  # B |- A, A -> B
    p2 = implies_left(f0(), logical_axiom(B), A, B)  # A -> B |- B
    return cut(p1, p2, ab), TH


def principalize_weakened_forall():
    # a = Ax F(x) is weakened in under a WeakenLeft; its witness is 0
    q = forall("x", F(var("x")))
    p1 = weaken_left(weaken_right(f0(), q), B)  # B |- A, Ax F(x)
    p2 = forall_left(logical_axiom(A), q, ZERO)  # Ax F(x) |- A
    return cut(p1, p2, q), TH


def principalize_eigen_clash():
    # the ForallRight's eigenvariable y is free in the WeakenLeft above it,
    # so the rebuild renames it
    y = var("y")
    q = forall("x", F(s(var("x"))))  # a = Ax F(s(x))
    inner = forall_left(logical_axiom(F(s(y))), forall("z", F(var("z"))), s(y))
    p1 = weaken_left(forall_right(inner, q, "y"), F(y))  # F(y), Az F(z) |- a
    p2 = forall_left(logical_axiom(F(s(ZERO))), q, ZERO)  # a |- F(s(0))
    return cut(p1, p2, q), TH


def implies_left_not_principal():
    # p2 has two copies of I; the one cut is a context copy in premise 0
    p1 = implies_right(logical_axiom(A), A, A)  # |- I
    p2 = implies_left(weaken_left(f0(), I), logical_axiom(A), A, A)  # I, I |- A
    return cut(p1, p2, I), TH


def forall_left_not_principal():
    z = var("z")
    q = forall("x", F(var("x")))
    p1 = forall_right(forall_left(logical_axiom(F(z)), forall("y", F(var("y"))), z), q, "z")
    p2 = forall_left(weaken_left(logical_axiom(A), q), q, ZERO)  # q, q |- A
    return cut(p1, p2, q), TH


def implies_left_principal_and_context():
    # the contraction makes the multicut take both copies of I: the context
    # copy in premise 0 first, then the principal one
    p1 = weaken_left(implies_right(logical_axiom(A), A, A), B)  # B |- I
    p2 = contract_left(implies_left(weaken_left(f0(), I), logical_axiom(A), A, A), I)  # I |- A
    return cut(p1, p2, I), TH


def forall_left_principal_and_context():
    q = forall("x", F(var("x")))
    inner = forall_left(logical_axiom(F(var("z"))), forall("y", F(var("y"))), var("z"))
    p1 = weaken_left(forall_right(inner, q, "z"), B)  # B, Ay F(y) |- q
    p2 = contract_left(forall_left(weaken_left(logical_axiom(A), q), q, ZERO), q)  # q |- A
    return cut(p1, p2, q), TH


def right_contraction_on_a():
    p1 = contract_right(weaken_right(implies_right(logical_axiom(A), A, A), I), I)  # |- I
    p2 = implies_left(f0(), logical_axiom(A), A, A)  # I |- A
    return cut(p1, p2, I), TH


def axiom_leaf_under_the_walk():
    p1 = weaken_left(logical_axiom(I), B)  # B, I |- I
    p2 = implies_left(f0(), logical_axiom(A), A, A)  # I |- A
    return cut(p1, p2, I), TH


CASES = {
    f.__name__: f
    for f in (
        axiom_on_the_left,
        theory_leaf_absorbs,
        weaken_right_on_a,
        weaken_left_on_a_with_context,
        contract_left_below_count,
        contract_left_with_context,
        forall_right_eigen_clash,
        exists_left_eigen_clash,
        principalize_past_weaken_left,
        principalize_past_right_premise,
        principalize_weakened_implication,
        principalize_weakened_forall,
        principalize_eigen_clash,
        implies_left_not_principal,
        forall_left_not_principal,
        implies_left_principal_and_context,
        forall_left_principal_and_context,
    )
}

FRAGMENT_CASES = {
    right_contraction_on_a.__name__: (
        right_contraction_on_a,
        "right contraction on the cut formula is outside the supported fragment",
    ),
    axiom_leaf_under_the_walk.__name__: (
        axiom_leaf_under_the_walk,
        "cut formula of this shape cannot head an axiom leaf",
    ),
}
