"""Independent baselines: minimal derivation sizes and word metrics.

Two views of the same quantity keep each other honest.  The dynamic
program scores abstract derivation trees for F(n) (leaf F(0), successor,
addition split, multiplication split) purely arithmetically; the
enumerator rebuilds the optimum as an actual checked proof whose line
count is measured on the proof object, not recomputed from the
recurrence.

The word-metric side answers how short a group word can be for a given
Baumslag-Solitar or free-group element, by bidirectional breadth-first
search over canonical forms.  Comparing generator-length against proof
lines exhibits distortion: elements of enormous normal form reachable by
short proofs and short conjugated words.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice
from math import isqrt
from operator import add
from typing import NamedTuple, Optional, Sequence, Tuple

from .generators import gen_distorted
from .kernel import Proof, size, theory_apply, theory_leaf
from .lang import Term
from .semantics import (
    BS_IDENTITY,
    BS_X,
    BS_Y,
    BSElement,
    bs_inv,
    bs_mul,
    eval_group_bs,
    eval_group_free,
    word_mul,
)
from .theories import arith_feasibility


class OracleError(Exception):
    pass


class RadiusExhausted(OracleError):
    """The search radius was used up before the element was found."""


DEFAULT_BOUND = 100_000


def min_tree_table(n_max: int, costs: Tuple[int, int, int] = (1, 1, 1), bound: int = DEFAULT_BOUND) -> list[int]:
    """Minimal derivation-tree lines for F(0)..F(n_max), as exact ints.

    c[0] = 1 for the base axiom; then
      c[n] = min(c[n-1] + succ, min over a+b=n of c[a]+c[b]+plus,
                 min over a*b=n of c[a]+c[b]+times),
    with a, b >= 1 in the sum and a, b >= 2 in the product.
    Subtrees are counted with multiplicity (tree lines, no sharing).
    Costs must be nonnegative ints, or a longer derivation scores lower.

    Products are pushed forward: once c[e] is known, every d*e <= n_max
    with 2 <= d <= e is offered c[d] + c[e] + times, about
    n_max*ln(n_max)/2 offers in all instead of a trial division per n.
    The addition split is where the work is, and two prunings keep it
    small without changing any value:

    - Chain prune.  Successor steps give c[n-1] <= c[n-a] + (a-1)*succ,
      so a split a + (n-a) can beat c[n-1] + succ only if
      c[a] + plus < a*succ.  And if a >= 2 and c[a] = c[a-1] + succ, the
      split (a-1) + (n-a) gives c[n-1] <= c[a] - succ + c[n-a] + plus, so
      the split cannot beat c[n-1] + succ either.  Only the "useful" k, with
      c[k] + plus < k*succ and c[k] < c[k-1] + succ, enter the candidate
      list, and both sides of an improving split are useful.  When
      successors are cheap (costs 1,0,10**6: c[n] = n+1) no k is, and the
      table is linear instead of quadratic.
    - Value prune.  The side of an improving split with the smaller value
      v has 2*v + plus < best, where best is c[n-1] + succ or the best
      product.  The useful k are kept sorted by value, so one bisection
      finds every k that can be that side; the other side is n-k.

    The enumerator below scores every split with no pruning, and the
    tests compare the table with an unpruned dynamic program.
    """
    if n_max < 0:
        raise OracleError("n must be nonnegative")
    if n_max > bound:
        raise OracleError(f"n={n_max} exceeds the table bound {bound}")
    costs = tuple(costs)
    if len(costs) != 3 or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in costs):
        raise OracleError(f"costs must be three nonnegative integers succ,plus,times, got {costs}")

    succ_c, plus_c, times_c = costs
    c = [1] * (n_max + 1)
    product: list[Optional[int]] = [None] * (n_max + 1)
    # the useful k >= 1 and their values, sorted by value, then by k
    values: list[int] = []
    useful: list[int] = []
    value_of = c.__getitem__
    for n in range(1, n_max + 1):
        chain = c[n - 1] + succ_c
        best = chain
        p = product[n]
        if p is not None and p < best:
            best = p
        count = bisect_right(values, (best - plus_c - 1) // 2)
        if count:
            other = map(value_of, map(n.__sub__, islice(useful, count)))
            split = min(map(add, islice(values, count), other)) + plus_c
            if split < best:
                best = split
        c[n] = best
        if best < chain and best < n * succ_c - plus_c:
            i = bisect_right(values, best)
            values.insert(i, best)
            useful.insert(i, n)
        with_times = best + times_c
        m = n + n
        for d in range(2, min(n, n_max // n) + 1):
            offer = c[d] + with_times
            p = product[m]
            if p is None or offer < p:
                product[m] = offer
            m += n
    return c


def min_tree_derivation(n: int, costs: Tuple[int, int, int] = (1, 1, 1), bound: int = DEFAULT_BOUND) -> int:
    return min_tree_table(n, costs, bound)[n]


def enumerate_min_proof(n: int, limit: int = 4096) -> Proof:
    """Construct a minimal-line proof of |- F(t) with t evaluating to n.

    Independent of the table: scores every decomposition of every m <= n
    with no pruning, then builds the proofs the optimum for n uses,
    applying the successor/plus/times axioms to the terms each premise
    proves.  Ties break toward successor, then addition with the smallest
    left part, then the smallest factor.  `min_proof_lines` measures the
    built proof, not the score.
    """
    if n < 0:
        raise OracleError("n must be nonnegative")
    if n > limit:
        raise OracleError(f"n={n} exceeds the enumeration limit {limit}")
    # lines[m]: the fewest tree lines of a proof of F(m); how[m]: the
    # axiom that ends one and the values its premises prove
    lines, how = [1], [None]
    for m in range(1, n + 1):
        best, choice = lines[m - 1] + 1, ("F:successor", m - 1)
        splits = chain(
            (("F:plus", a, m - a) for a in range(1, m // 2 + 1)),
            (("F:times", d, m // d) for d in range(2, isqrt(m) + 1) if m % d == 0),
        )
        for name, a, b in splits:
            score = lines[a] + lines[b] + 1
            if score < best:
                best, choice = score, (name, a, b)
        lines.append(best)
        how.append(choice)
    needed = {n}
    for m in range(n, 0, -1):  # every part is smaller than the value it splits
        if m in needed:
            needed.update(how[m][1:])
    th = arith_feasibility()
    proofs = {0: theory_leaf(th, "F(0)", {})}
    for m in sorted(needed - {0}):
        name, *parts = how[m]
        premises = [proofs[k] for k in parts]
        terms = {v: p.conclusion.succ[-1].args[0] for v, p in zip("xy", premises)}
        proofs[m] = theory_apply(th, name, terms, premises)
    return proofs[n]


def min_proof_lines(n: int, limit: int = 4096) -> int:
    """Tree lines of the enumerated proof, measured on the proof object."""
    return size(enumerate_min_proof(n, limit)).lines


# ---------------------------------------------------------------------------
# Word metric


def _bs_moves():
    gens = [BS_X, BS_Y, bs_inv(BS_X), bs_inv(BS_Y)]
    return [lambda u, g=g: bs_mul(u, g) for g in gens]


def _free_moves(generators: Sequence[str]):
    moves = []
    for g in generators:
        for e in (1, -1):
            moves.append(lambda u, w=((g, e),): word_mul(u, w))
    return moves


def _bidi_bfs(start, target, moves, radius: int, what) -> int:
    """Bidirectional level-synchronous BFS over a symmetric move set.

    Both searches multiply moves on the right; symmetry of the generating
    set makes the meeting sum d_f(v) + d_b(v) a true path length.  `what`
    names the target in RadiusExhausted, written only when that is raised.
    """
    if target == start:
        return 0
    fwd = {start: 0}
    bwd = {target: 0}
    fr, br = [start], [target]
    best: Optional[int] = None
    r_f = r_b = 0
    while fr or br:
        if best is not None and r_f + r_b >= best:
            return best
        if r_f + r_b >= radius:
            if best is not None:
                return best
            raise RadiusExhausted(f"no word of length <= {radius} reaches {what}")
        # expand the smaller nonempty frontier
        if fr and (not br or len(fr) <= len(br)):
            table, other, frontier, r = fwd, bwd, fr, r_f + 1
            r_f = r
        else:
            table, other, frontier, r = bwd, fwd, br, r_b + 1
            r_b = r
        nxt = []
        for u in frontier:
            for step in moves:
                v = step(u)
                if v in table:
                    continue
                table[v] = r
                nxt.append(v)
                d_other = other.get(v)
                if d_other is not None and (best is None or r + d_other < best):
                    best = r + d_other
        if table is fwd:
            fr = nxt
        else:
            br = nxt
    if best is not None:
        return best
    raise RadiusExhausted(f"search space exhausted before {what}")


def word_metric_distance(
    t: Term,
    presentation: str = "bs12",
    generators: Sequence[str] = ("x", "y"),
    radius: int = 20,
) -> int:
    """Distance from the identity in the word metric, by bidirectional BFS.

    t is a closed group term; its canonical form is the search target.
    Raises RadiusExhausted when no word of length <= radius reaches it.
    """
    if presentation == "bs12":
        target = eval_group_bs(t)
        start = BS_IDENTITY
        moves = _bs_moves()
    elif presentation == "free":
        target = eval_group_free(t)
        start = ()
        moves = _free_moves(generators)
    else:
        raise OracleError(f"unknown presentation {presentation!r}")
    return _bidi_bfs(start, target, moves, radius, t)


class DistortionRow(NamedTuple):
    """One row of `distortion_table`."""

    n: int
    proof_lines: int
    normal_form: str
    conjugated_length: int
    word_distance: Optional[int]


def distortion_table(max_n: int = 3, radius: int = 20, bfs_max_n: int = 3):
    """Proof length versus word length for the elements y^(2^(2^n)).

    conjugated_length is the length of the witnessing conjugated word
    x^m y x^-m with m = 2^n.  word_distance is the exact metric from
    bidirectional BFS, skipped (None) beyond bfs_max_n where the ball
    gets too large.
    """
    rows = []
    for n in range(max_n + 1):
        rep = gen_distorted(n)
        m = 2**n
        dist = None
        if n <= bfs_max_n and 2 * m + 1 <= radius:
            target = BSElement(2**m, 0, 0)
            dist = _bidi_bfs(BS_IDENTITY, target, _bs_moves(), radius, target)
        rows.append(
            DistortionRow(
                n=n,
                proof_lines=rep.stats.lines,
                normal_form=rep.value_desc,
                conjugated_length=2 * m + 1,
                word_distance=dist,
            )
        )
    return rows
