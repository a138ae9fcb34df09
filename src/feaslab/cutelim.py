"""Cut elimination for the feasibility fragment.

Supported cut formulas: atoms, implications and universal formulas built
from them.  Conjunction, disjunction, negation or existential cut formulas
raise FragmentError (generated matrix proofs cut on conjunctions by design
and are reported as out of fragment).

The engine is a multiplicity-aware multicut: mcut(p1, A, p2, k) removes k
antecedent occurrences of A from p2, pasting p1's context k times.  Left
contractions on the cut formula bump k instead of re-cutting a grown
proof, which keeps the reduction descending and makes termination a plain
lexicographic argument (cut-formula depth, then p2 structure).  Multicuts
are frames on an explicit stack, not Python calls, and their results are
memoized for the length of one eliminate_cuts call, keyed on the identity
of (p1, A, p2) and k, so a subproof shared in the input DAG is reduced
once and its result stays shared in the output: work and memory track the
DAG while the logical line count grows exponentially.

After its trivial cases (an axiom or a weakening of the cut formula a as
p1, an axiom or a theory leaf as p2), a multicut looks p2's last rule up
in `_LEFT_RULES`, the table of the left rules that can introduce a
fragment formula: WeakenLeft, ContractLeft, ImpliesLeft and ForallLeft.
When that rule is on a, its entry reduces it; every other rule commutes
with the cut.  One helper, `_split`, deals the k copies of a over p2's
premises, as many from each as its rule keeps, the first premises first.
Commutation uses it, and so do the ImpliesLeft and ForallLeft entries for
the context copies, before the principal reduction of the principal copy:
commute p1 until it ends in the right rule for a, then cut on a's parts.
A new connective is one table entry and one principal reduction.

Each rule's principal formula and consumed occurrences come from the
kernel's `analyze` step, read against the theory, applied theory axioms
included.  A logical inference is rebuilt over new premises by
`kernel.introduce`, from its rule and principal formula, so its shape
comes from the kernel's rule table; only cut, weakening and contraction
have rebuild entries here.

Theory-axiom leaves absorb cuts by turning into their applied form: a cut
of |- F(u) against the leaf F(u), F(v) |- F(u*v) becomes the applied axiom
with the derivation grafted into the matching slot.

Eigenvariable substitutions (`substitute_proof`) share two memos per
call too, one of proof nodes and one of the formulas and terms on them.

A node budget (default 10^6, the `budget` argument overrides) bounds the DAG
nodes built: multicut memo misses, rebuilt inferences and the nodes each
eigenvariable substitution adds to its memo.  An elimination
that would build more aborts with NodeBudgetError.  The line count of the
output is not bounded; `size` counts it as an exact int, `lang.count_text`
prints it past the interpreter's int-to-str digit limit, and `ratio_text`
prints its ratio to the input's without going through a float.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from decimal import Decimal, localcontext
from typing import NamedTuple, Optional

from .kernel import (
    KernelError,
    Proof,
    Rule,
    Step,
    _iter_unique_nodes,
    _remove_one,
    analyze,
    apply_instance,
    check,
    contract_left,
    contract_right,
    cut,
    forall_right,
    implies_right,
    introduce,
    logical_axiom,
    substitute_proof,
    weaken_left,
    weaken_right,
)
from .lang import (
    Atom,
    Forall,
    Formula,
    Implies,
    Sequent,
    _children,
    fold,
    formula_str,
    free_vars,
    fresh_name,
    sequent_brief,
    substitute,
    var,
)


class FragmentError(Exception):
    """The proof uses a cut or commutation outside the supported fragment."""


class NodeBudgetError(Exception):
    """Cut elimination exceeded the node budget."""


DEFAULT_NODE_BUDGET = 10**6


def node_budget(override: Optional[int] = None) -> int:
    return DEFAULT_NODE_BUDGET if override is None else int(override)


class _State:
    """Per-call state of one eliminate_cuts run.

    mcut_memo maps multicut arguments (p1, a, p2, k) to the result; proofs
    and formulas hash and compare by identity, and the key keeps them alive.
    subst_memo is substitute_proof's memo, keyed by (proof node, mapping
    items) pairs, and formula_memo its memo of (term or formula, key)
    pairs; both are shared by every substitution of the run and freed
    with it.  Ticks count the DAG nodes built: multicut memo misses,
    rebuilt inferences and the entries each substitution adds to
    subst_memo, not to formula_memo; more than `budget` of them abort the
    run.  `cut` is (index, total, formula) of the cut being eliminated,
    for the message.
    """

    __slots__ = ("theory", "budget", "ticks", "cut", "mcut_memo", "subst_memo", "formula_memo")

    def __init__(self, theory, budget: int):
        self.theory = theory
        self.budget = budget
        self.ticks = 0
        self.cut = None
        self.mcut_memo: dict = {}
        self.subst_memo: dict = {}
        self.formula_memo: dict = {}

    def tick(self):
        self.ticks += 1
        if self.ticks > self.budget:
            i, total, a = self.cut
            raise NodeBudgetError(
                f"cut elimination exceeded its budget of {self.budget} DAG nodes: "
                f"built {self.ticks} while eliminating cut {i} of {total}, "
                f"on {formula_str(a)}"
            )


def _in_fragment(f: Formula) -> bool:
    # most cut formulas are atoms, which a fold would answer at about ten times the cost
    return f.__class__ is Atom or fold(f, _fragment_step, {}, _fragment_children)


def _fragment_step(g, vals) -> bool:
    return isinstance(g, (Atom, Implies, Forall)) and all(vals)


def _fragment_children(g) -> tuple:
    # an atom's value does not depend on its terms
    return () if g.__class__ is Atom else _children(g)


def _kept(p: Proof, step: Step, j: int, side: str, a: Formula) -> int:
    """Occurrences of a on one side of premise j that p's rule leaves in
    its context, i.e. does not consume."""
    q = p.premises[j].conclusion
    fs = q.ant if side == "L" else q.succ
    used = [i for k, s, i in step.consumed if k == j and s == side]
    return sum(1 for i, f in enumerate(fs) if f is a and i not in used)


# The structural rules rebuilt over new premises q from their principal
# formula f; logical rules are rebuilt by `introduce`.
_REBUILD = {
    "Cut": lambda q, f: cut(q[0], q[1], f),
    "WeakenLeft": lambda q, f: weaken_left(q[0], f),
    "WeakenRight": lambda q, f: weaken_right(q[0], f),
    "ContractLeft": lambda q, f: contract_left(q[0], f),
    "ContractRight": lambda q, f: contract_right(q[0], f),
}


def _reapply(node: Proof, step: Step, new_premises: tuple, st: _State) -> Proof:
    """Rebuild node's inference over replacement premises (contexts may
    have changed; the principal formula comes from the node's step, and an
    applied theory axiom is re-instantiated from its rule)."""
    st.tick()
    tag = node.rule.tag
    if tag == "TheoryAxiom":
        return apply_instance(st.theory.instance(node.rule.axiom, node.rule.subst), new_premises)
    build = _REBUILD.get(tag)
    if build is None:
        return introduce(node.rule, new_premises, step.principal)
    return build(new_premises, step.principal)


def _weaken_to(p: Proof, target: Sequent) -> Proof:
    need_ant = Counter(target.ant) - Counter(p.conclusion.ant)
    need_succ = Counter(target.succ) - Counter(p.conclusion.succ)
    if (Counter(p.conclusion.ant) - Counter(target.ant)) or (
        Counter(p.conclusion.succ) - Counter(target.succ)
    ):
        raise KernelError("weakening target must extend the proved sequent")
    for f in target.ant:
        if need_ant.get(f, 0) > 0:
            need_ant[f] -= 1
            p = weaken_left(p, f)
    for f in target.succ:
        if need_succ.get(f, 0) > 0:
            need_succ[f] -= 1
            p = weaken_right(p, f)
    return p


# ---------------------------------------------------------------------------
# The multicut


def _mcut(p1: Proof, a: Formula, p2: Proof, k: int, st: _State) -> Proof:
    """Replace k antecedent occurrences of a in p2 by p1's contexts.

    p1 proves Gamma |- Delta, a and p2 proves a^k, Pi |- Lambda (plus any
    further a's that are to be kept); the result proves
    Gamma^k, Pi |- Delta^k, Lambda.  Both inputs are cut-free.

    Each multicut is a `_mcut_step` frame on an explicit stack that yields
    the (p1, a, p2, k) of each multicut it needs and is sent its result.
    Results are memoized per elimination, probed before a frame is made, so
    a subproof shared in the DAG is reduced once and shared in the output.
    """
    stack = []  # (args, frame) of each frame waiting on a result
    call = (p1, a, p2, k)
    while True:
        out = st.mcut_memo.get(call)
        if out is None:  # a new frame starts on None
            stack.append((call, _mcut_step(*call, st)))
        while stack:  # run the top frame to its next call or its end
            args, frame = stack[-1]
            try:
                call = frame.send(out)
                break
            except StopIteration as stop:
                st.mcut_memo[args] = out = stop.value
                stack.pop()
        else:
            return out


def _mcut_step(p1: Proof, a: Formula, p2: Proof, k: int, st: _State):
    st.tick()
    if k == 0:
        return p2
    if p2.conclusion.ant.count(a) < k:
        raise KernelError("multicut multiplicity exceeds the available occurrences")

    # trivial left premises
    r1 = p1.rule.tag
    if r1 == "LogicalAxiom":
        return p2
    if r1 == "WeakenRight" and analyze(p1, st.theory).principal is a:
        inner = p1.premises[0]
        gamma = p1.conclusion.ant
        delta = _remove_one(p1.conclusion.succ, a)
        rest = p2.conclusion.ant
        for _ in range(k):
            rest = _remove_one(rest, a)
        target_ant = gamma * k + rest
        target_succ = delta * k + p2.conclusion.succ
        return _weaken_to(inner, Sequent(target_ant, target_succ))

    tag = p2.rule.tag

    if tag == "LogicalAxiom":
        return p1  # p2 is a |- a with k = 1

    if tag == "TheoryAxiom" and not p2.premises:
        found = st.theory.instance(p2.rule.axiom, p2.rule.subst)
        phis = found[0]
        premises = []
        quota = k
        for phi in phis:
            if quota and phi is a:
                premises.append(p1)
                quota -= 1
            else:
                premises.append(logical_axiom(phi))
        return apply_instance(found, premises)

    if tag == "Cut":
        raise KernelError("multicut premises must be cut-free")

    step = analyze(p2, st.theory)
    if step.principal is a and tag in _LEFT_RULES:
        return (yield from _LEFT_RULES[tag](p1, a, p2, k, step, st))

    # context commutation; an eigenvariable free in p1 is renamed first
    eigen = p2.rule.eigen
    if tag in ("ForallRight", "ExistsLeft") and eigen in _names_around(p1):
        fresh = fresh_name(eigen, _names_around(p1, p2))
        q = _substitute(p2.premises[0], {eigen: var(fresh)}, st)
        # renaming keeps every premise occurrence in place: step still fits
        p2 = introduce(Rule(tag, eigen=fresh), (q,), step.principal)
    return _reapply(p2, step, (yield from _split(p1, a, p2, step, k)), st)


def _split(p1: Proof, a: Formula, p2: Proof, step: Step, k: int):
    """Frame part: multicut k copies of a out of p2's premises, from each
    as many as p2's rule keeps in it, the first premises first; returns the
    new premises."""
    remaining = k
    new_premises = []
    for j, q in enumerate(p2.premises):
        take = min(_kept(p2, step, j, "L", a), remaining)
        remaining -= take
        new_premises.append((yield (p1, a, q, take)))
    if remaining:
        raise FragmentError(
            f"cut formula {formula_str(a)} is tied to rule {p2.rule.tag} in an unsupported way"
        )
    return tuple(new_premises)


def _names_around(*proofs) -> set:
    names = set()
    for p in proofs:
        for f in p.conclusion.ant + p.conclusion.succ:
            names |= free_vars(f)
    return names


def _substitute(p: Proof, mapping: dict, st: _State) -> Proof:
    """substitute_proof with the run's memos, one tick per node it builds."""
    before = len(st.subst_memo)
    out = substitute_proof(p, mapping, st.subst_memo, st.formula_memo)
    for _ in range(len(st.subst_memo) - before):
        st.tick()
    return out


def _principalize_right(p1: Proof, a: Formula, st: _State) -> Proof:
    """Commute p1 until its last rule introduces a on the right.

    The first loop walks down the premise that keeps a, one level per
    inference, to a proof whose last rule introduces a; the second
    rebuilds the inferences passed on the way back up, over that proof's
    premise, and introduces a again at the bottom."""
    path = []  # (node, step, j): node's premise j keeps a
    while True:
        st.tick()
        tag = p1.rule.tag
        if tag in ("LogicalAxiom", "EqOracle"):
            raise FragmentError("cut formula of this shape cannot head an axiom leaf")
        if tag == "TheoryAxiom" and not p1.premises:
            raise FragmentError("theory leaves conclude atoms only")
        step = analyze(p1, st.theory)
        on_a = step.principal is a
        if on_a and tag in ("ImpliesRight", "ForallRight"):
            head = p1
            break
        if on_a and tag == "WeakenRight":
            q = p1.premises[0]
            if isinstance(a, Implies):
                body = weaken_right(weaken_left(q, a.left), a.right)
                head = implies_right(body, a.left, a.right)
            elif isinstance(a, Forall):
                e = fresh_name("w", _names_around(p1))
                body = weaken_right(q, substitute(a.body, a.v, var(e)))
                head = forall_right(body, a, e)
            else:
                raise FragmentError("cannot principalize a weakened cut formula of this shape")
            break
        if on_a and tag == "ContractRight":
            raise FragmentError(
                "right contraction on the cut formula is outside the supported fragment"
            )
        for j, q in enumerate(p1.premises):
            if _kept(p1, step, j, "R", a) > 0:
                break
        else:
            raise FragmentError(
                f"cannot locate {formula_str(a)} for principalization in {tag}"
            )
        path.append((p1, step, j))
        p1 = q
    for p1, step, j in reversed(path):
        inner = head.premises[0]
        e = head.rule.eigen  # None when head is ImpliesRight
        if e is not None:
            outer_names = _names_around(p1, *p1.premises)
            if e in outer_names:
                e2 = fresh_name(e, outer_names)
                inner = _substitute(inner, {e: var(e2)}, st)
                e = e2
        rebuilt = _reapply(p1, step, _swap(p1.premises, j, inner), st)
        head = implies_right(rebuilt, a.left, a.right) if e is None else forall_right(rebuilt, a, e)
    return head


def _swap(premises: tuple, j: int, new) -> tuple:
    return premises[:j] + (new,) + premises[j + 1 :]


def _reduce_weaken(p1: Proof, a: Formula, p2: Proof, k: int, step: Step, st: _State):
    """WeakenLeft on a: cut the other k - 1 copies, weaken p1's contexts in."""
    inner = yield (p1, a, p2.premises[0], k - 1)
    for f in p1.conclusion.ant:
        inner = weaken_left(inner, f)
    for f in _remove_one(p1.conclusion.succ, a):
        inner = weaken_right(inner, f)
    return inner


def _reduce_contract(p1: Proof, a: Formula, p2: Proof, k: int, step: Step, st: _State):
    """ContractLeft on a: with copies to spare, cut k and contract a after;
    else cut both merged copies and contract p1's doubled contexts."""
    if k < p2.conclusion.ant.count(a):
        # enough untouched copies remain to contract afterwards
        inner = yield (p1, a, p2.premises[0], k)
        return contract_left(inner, a)
    inner = yield (p1, a, p2.premises[0], k + 1)
    for f in p1.conclusion.ant:
        inner = contract_left(inner, f)
    for f in _remove_one(p1.conclusion.succ, a):
        inner = contract_right(inner, f)
    return inner


def _reduce_implies(p1: Proof, a: Formula, p2: Proof, k: int, step: Step, st: _State):
    """ImpliesLeft on a = B -> C: the context copies first, the principal
    copy last, when it is among the k."""
    principal = k == p2.conclusion.ant.count(a)
    q0p, q1p = premises = yield from _split(p1, a, p2, step, k - principal)
    if not principal:
        return _reapply(p2, step, premises, st)
    head = _principalize_right(p1, a, st)
    r = head.premises[0]  # B, Gamma |- Delta0, C
    step1 = yield (q0p, a.left, r, 1)
    return (yield (step1, a.right, q1p, 1))


def _reduce_forall(p1: Proof, a: Formula, p2: Proof, k: int, step: Step, st: _State):
    """ForallLeft on a = forall x B, witness t: the context copies first,
    the principal copy last, when it is among the k."""
    principal = k == p2.conclusion.ant.count(a)
    (qp,) = premises = yield from _split(p1, a, p2, step, k - principal)
    if not principal:
        return _reapply(p2, step, premises, st)
    head = _principalize_right(p1, a, st)
    t = p2.rule.term
    r_inst = _substitute(head.premises[0], {head.rule.eigen: t}, st)
    return (yield (r_inst, substitute(a.body, a.v, t), qp, 1))


# The frame part for p2 ending in a left rule on a, for each rule that can
# introduce a fragment formula; p2 ending in any other rule commutes.
_LEFT_RULES = {
    "WeakenLeft": _reduce_weaken,
    "ContractLeft": _reduce_contract,
    "ImpliesLeft": _reduce_implies,
    "ForallLeft": _reduce_forall,
}


# ---------------------------------------------------------------------------
# Driver


def eliminate_cuts(p: Proof, theory, budget: Optional[int] = None) -> Proof:
    """Innermost-first cut elimination; returns a cut-free proof of the
    same end sequent.  Raises FragmentError/NodeBudgetError as documented."""
    st = _State(theory, node_budget(budget))
    nodes = _iter_unique_nodes(p)
    total = sum(1 for node in nodes if node.rule.tag == "Cut")
    index = 0
    done: dict = {}
    for node in nodes:
        prems = tuple(done[id(q)] for q in node.premises)
        if node.rule.tag == "Cut":
            a = analyze(node, theory).principal
            if not _in_fragment(a):
                raise FragmentError(
                    f"cut formula {formula_str(a)} lies outside the "
                    "atom/implication/forall fragment"
                )
            index += 1
            st.cut = (index, total, a)
            out = _mcut(prems[0], a, prems[1], 1, st)
            if out.conclusion != node.conclusion:
                raise KernelError(
                    "internal: cut elimination changed the sequent from "
                    f"{sequent_brief(node.conclusion)} to {sequent_brief(out.conclusion)}"
                )
        elif all(x is y for x, y in zip(prems, node.premises)):
            out = node
        else:
            out = Proof(node.conclusion, node.rule, prems)
        done[id(node)] = out
    return done[id(p)]


# ---------------------------------------------------------------------------
# Compression reporting


class BlowupRow(NamedTuple):
    """One row of `blowup_report`, the columns of the `bench` CSV."""

    n: int
    lines_with_cuts: int
    lines_cut_free: Optional[int]
    ratio: Optional[float]  # inf past the float range; ratio_text is exact
    cut_count: int
    contraction_count: int
    wall_time_ms: Optional[float]
    status: str


BLOWUP_COLUMNS = BlowupRow._fields


def _quotient(num: int, den: int) -> float:
    try:
        return num / den
    except OverflowError:
        return math.inf


def ratio_text(num: int, den: int) -> str:
    """num / den in `.6g` form, from the exact integers: the text of the
    nearest float where there is one, and the same form past the float
    range, where true division raises OverflowError."""
    q = _quotient(num, den)
    if q != math.inf:
        return f"{q:.6g}"
    with localcontext() as ctx:
        ctx.prec = 6
        # normalized, so trailing zeros go as they do from a float's text
        return format((Decimal(num) / den).normalize(), "g")


def blowup_report(make_report, ns, budget: Optional[int] = None, timings: bool = False):
    """Rows comparing generated proofs against their cut-free forms.

    make_report: n -> GenReport.  Both counts come from `check`, on the
    generated proof and on its cut-free form, so a row reports only proofs
    the kernel accepted; a rejected one raises CheckError.  Budget or
    fragment failures are flagged in the status column rather than
    aborting the sweep.  wall_time_ms stays empty unless timings is
    requested, keeping default output byte-reproducible.
    """
    rows = []
    for n in ns:
        t0 = time.perf_counter()
        rep = make_report(n)
        stats = check(rep.proof, rep.theory)
        lines_cf = None
        ratio = None
        status = "ok"
        try:
            cf = eliminate_cuts(rep.proof, rep.theory, budget)
            lines_cf = check(cf, rep.theory).lines
            ratio = _quotient(lines_cf, stats.lines)
        except NodeBudgetError:
            status = "budget-exceeded"
        except FragmentError:
            status = "fragment-exceeded"
        elapsed = (time.perf_counter() - t0) * 1000.0 if timings else None
        rows.append(
            BlowupRow(
                n=n,
                lines_with_cuts=stats.lines,
                lines_cut_free=lines_cf,
                ratio=ratio,
                cut_count=stats.cut_count,
                contraction_count=stats.contraction_count,
                wall_time_ms=elapsed,
                status=status,
            )
        )
    return rows
