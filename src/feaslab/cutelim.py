"""Cut elimination for the feasibility fragment.

Supported cut formulas: atoms, implications and universal formulas built
from them.  Conjunction, disjunction, negation or existential cut formulas
raise FragmentError (generated matrix proofs cut on conjunctions by design
and are reported as out of fragment).

The engine is a multiplicity-aware multicut: mcut(p1, A, p2, k) removes k
antecedent occurrences of A from p2, pasting p1's context k times.  Left
contractions on the cut formula bump k instead of re-cutting a grown
proof, which keeps the recursion descending and makes termination a plain
lexicographic argument (cut-formula depth, then p2 structure).  Multicut
results are memoized for the length of one eliminate_cuts call, keyed on
the identity of (p1, A, p2) and k, so a subproof shared in the input DAG is
reduced once and its result stays shared in the output: work and memory
track the DAG while the logical line count grows exponentially.

Theory-axiom leaves absorb cuts by turning into their applied form: a cut
of |- F(u) against the leaf F(u), F(v) |- F(u*v) becomes the applied axiom
with the derivation grafted into the matching slot.

A node budget (default 10^6 lines, FEASLAB_NODE_BUDGET overrides) aborts
oversized eliminations with NodeBudgetError.  It still counts tree lines,
each shared subproof once per occurrence, not the DAG nodes built.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .kernel import (
    KernelError,
    Proof,
    and_left,
    and_right,
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
    not_left,
    not_right,
    or_left,
    or_right,
    size,
    substitute_proof,
    theory_apply,
    weaken_left,
    weaken_right,
)
from .lang import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Sequent,
    formula_str,
    free_vars,
    fresh_name,
    sequent_str,
    substitute,
    var,
)


class FragmentError(Exception):
    """The proof uses a cut or commutation outside the supported fragment."""


class NodeBudgetError(Exception):
    """Cut elimination exceeded the node budget."""


DEFAULT_NODE_BUDGET = 10**6
_BUDGET_ENV = "FEASLAB_NODE_BUDGET"


def node_budget(override: Optional[int] = None) -> int:
    if override is not None:
        return int(override)
    raw = os.environ.get(_BUDGET_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise NodeBudgetError(f"{_BUDGET_ENV} must be an integer, got {raw!r}")
    return DEFAULT_NODE_BUDGET


class _State:
    """Per-call state of one eliminate_cuts run.

    mcut_memo maps (id(p1), id(a), id(p2), k) to (result, p1, a, p2); keeping
    the argument objects alive means no id is reused while the memo lives.
    Ticks count multicut memo misses and rebuilt inferences, so the working
    bound tracks the work actually done on the shared DAG.
    """

    __slots__ = ("theory", "budget", "ticks", "tick_cap", "mcut_memo")

    def __init__(self, theory, budget: int):
        self.theory = theory
        self.budget = budget
        self.ticks = 0
        self.tick_cap = max(budget * 8, 1 << 20)
        self.mcut_memo: dict = {}

    def tick(self):
        self.ticks += 1
        if self.ticks > self.tick_cap:
            raise NodeBudgetError(
                f"cut elimination exceeded {self.budget} nodes (working bound)"
            )


def _in_fragment(f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, Implies):
        return _in_fragment(f.left) and _in_fragment(f.right)
    if isinstance(f, Forall):
        return _in_fragment(f.body)
    return False


def _count(fs: tuple, f: Formula) -> int:
    return sum(1 for g in fs if g is f)


def _tree_lines(p: Proof) -> int:
    memo: dict = {}
    stack = [(p, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            memo[id(node)] = 1 + sum(memo[id(q)] for q in node.premises)
            continue
        if id(node) in memo:
            continue
        stack.append((node, True))
        for q in node.premises:
            if id(q) not in memo:
                stack.append((q, False))
    return memo[id(p)]


# ---------------------------------------------------------------------------
# Principal-formula inference (first multiset-consistent match, mirroring
# the checker's search order)


def _infer_cut_formula(p1: Proof, p2: Proof, conclusion: Sequent) -> Formula:
    for f in p1.conclusion.succ:
        if _count(p2.conclusion.ant, f) == 0:
            continue
        ant_ok = (
            Counter(p1.conclusion.ant) + Counter(p2.conclusion.ant) - Counter((f,))
            == Counter(conclusion.ant)
        )
        succ_ok = (
            Counter(p1.conclusion.succ) - Counter((f,)) + Counter(p2.conclusion.succ)
            == Counter(conclusion.succ)
        )
        if ant_ok and succ_ok:
            return f
    raise KernelError("cannot infer the cut formula")


def _infer_contract(node: Proof) -> Formula:
    side = "L" if node.rule.tag == "ContractLeft" else "R"
    c, p = (
        (node.conclusion.ant, node.premises[0].conclusion.ant)
        if side == "L"
        else (node.conclusion.succ, node.premises[0].conclusion.succ)
    )
    diff = Counter(p) - Counter(c)
    (f,) = diff
    return f


def _infer_weaken(node: Proof) -> Formula:
    side = "L" if node.rule.tag == "WeakenLeft" else "R"
    c, p = (
        (node.conclusion.ant, node.premises[0].conclusion.ant)
        if side == "L"
        else (node.conclusion.succ, node.premises[0].conclusion.succ)
    )
    diff = Counter(c) - Counter(p)
    (f,) = diff
    return f


def _infer_binop(node: Proof) -> Formula:
    """Principal formula of And/Or/Implies/Not rules (first hit)."""
    tag = node.rule.tag
    c = node.conclusion
    ps = [q.conclusion for q in node.premises]
    if tag == "AndLeft":
        pool, cls = c.ant, And
    elif tag == "AndRight":
        pool, cls = c.succ, And
    elif tag == "OrLeft":
        pool, cls = c.ant, Or
    elif tag == "OrRight":
        pool, cls = c.succ, Or
    elif tag == "ImpliesLeft":
        pool, cls = c.ant, Implies
    elif tag == "ImpliesRight":
        pool, cls = c.succ, Implies
    elif tag == "NotLeft":
        pool, cls = c.ant, Not
    else:
        pool, cls = c.succ, Not
    for f in pool:
        if not isinstance(f, cls):
            continue
        if _binop_fits(tag, f, c, ps):
            return f
    raise KernelError(f"cannot infer the principal formula of {tag}")


def _binop_fits(tag: str, f: Formula, c: Sequent, ps: list) -> bool:
    one = Counter((f,))
    if tag == "AndLeft":
        return Counter(ps[0].ant) == Counter(c.ant) - one + Counter((f.left, f.right)) and Counter(
            ps[0].succ
        ) == Counter(c.succ)
    if tag == "OrRight":
        return Counter(ps[0].succ) == Counter(c.succ) - one + Counter(
            (f.left, f.right)
        ) and Counter(ps[0].ant) == Counter(c.ant)
    if tag == "AndRight":
        return (
            Counter(ps[0].ant) + Counter(ps[1].ant) == Counter(c.ant)
            and Counter(ps[0].succ)
            - Counter((f.left,))
            + Counter(ps[1].succ)
            - Counter((f.right,))
            + one
            == Counter(c.succ)
            and _count(ps[0].succ, f.left) > 0
            and _count(ps[1].succ, f.right) > 0
        )
    if tag == "OrLeft":
        return (
            Counter(ps[0].succ) + Counter(ps[1].succ) == Counter(c.succ)
            and Counter(ps[0].ant)
            - Counter((f.left,))
            + Counter(ps[1].ant)
            - Counter((f.right,))
            + one
            == Counter(c.ant)
            and _count(ps[0].ant, f.left) > 0
            and _count(ps[1].ant, f.right) > 0
        )
    if tag == "ImpliesLeft":
        return (
            _count(ps[0].succ, f.left) > 0
            and _count(ps[1].ant, f.right) > 0
            and Counter(ps[0].ant) + Counter(ps[1].ant) - Counter((f.right,)) + one
            == Counter(c.ant)
            and Counter(ps[0].succ) - Counter((f.left,)) + Counter(ps[1].succ)
            == Counter(c.succ)
        )
    if tag == "ImpliesRight":
        return (
            _count(ps[0].ant, f.left) > 0
            and _count(ps[0].succ, f.right) > 0
            and Counter(ps[0].ant) - Counter((f.left,)) == Counter(c.ant)
            and Counter(ps[0].succ) - Counter((f.right,)) + one == Counter(c.succ)
        )
    if tag == "NotLeft":
        return Counter(ps[0].ant) + one == Counter(c.ant) and Counter(ps[0].succ) - Counter(
            (f.body,)
        ) == Counter(c.succ)
    return Counter(ps[0].succ) + one == Counter(c.succ) and Counter(ps[0].ant) - Counter(
        (f.body,)
    ) == Counter(c.ant)


def _infer_quant(node: Proof) -> Formula:
    tag = node.rule.tag
    c = node.conclusion
    p = node.premises[0].conclusion
    if tag in ("ForallLeft", "ExistsRight"):
        side_c, side_p = (c.ant, p.ant) if tag == "ForallLeft" else (c.succ, p.succ)
        cls = Forall if tag == "ForallLeft" else Exists
        witness = node.rule.term
    else:
        side_c, side_p = (c.succ, p.succ) if tag == "ForallRight" else (c.ant, p.ant)
        cls = Forall if tag == "ForallRight" else Exists
        witness = var(node.rule.eigen)
    for f in side_c:
        if not isinstance(f, cls):
            continue
        inst = substitute(f.body, f.v, witness)
        if Counter(side_p) == Counter(side_c) - Counter((f,)) + Counter((inst,)):
            return f
    raise KernelError(f"cannot infer the principal formula of {tag}")


def _consumed_ant(node: Proof) -> list:
    """Per-premise Counter of antecedent occurrences the rule consumes."""
    tag = node.rule.tag
    empty = Counter()
    if tag == "ImpliesRight":
        f = _infer_binop(node)
        return [Counter((f.left,))]
    if tag == "NotRight":
        f = _infer_binop(node)
        return [Counter((f.body,))]
    if tag == "AndLeft":
        f = _infer_binop(node)
        return [Counter((f.left, f.right))]
    if tag == "OrLeft":
        f = _infer_binop(node)
        return [Counter((f.left,)), Counter((f.right,))]
    if tag == "ImpliesLeft":
        f = _infer_binop(node)
        return [empty, Counter((f.right,))]
    if tag in ("ForallLeft", "ExistsLeft"):
        f = _infer_quant(node)
        w = node.rule.term if tag == "ForallLeft" else var(node.rule.eigen)
        return [Counter((substitute(f.body, f.v, w),))]
    if tag == "Cut":
        a = _infer_cut_formula(node.premises[0], node.premises[1], node.conclusion)
        return [empty, Counter((a,))]
    return [empty for _ in node.premises]


def _consumed_succ(node: Proof, st: _State) -> list:
    tag = node.rule.tag
    empty = Counter()
    if tag == "ImpliesRight":
        f = _infer_binop(node)
        return [Counter((f.right,))]
    if tag == "NotLeft":
        f = _infer_binop(node)
        return [Counter((f.body,))]
    if tag == "OrRight":
        f = _infer_binop(node)
        return [Counter((f.left, f.right))]
    if tag == "AndRight":
        f = _infer_binop(node)
        return [Counter((f.left,)), Counter((f.right,))]
    if tag == "ImpliesLeft":
        f = _infer_binop(node)
        return [Counter((f.left,)), empty]
    if tag in ("ForallRight", "ExistsRight"):
        f = _infer_quant(node)
        w = var(node.rule.eigen) if tag == "ForallRight" else node.rule.term
        return [Counter((substitute(f.body, f.v, w),))]
    if tag == "Cut":
        a = _infer_cut_formula(node.premises[0], node.premises[1], node.conclusion)
        return [Counter((a,)), empty]
    if tag == "TheoryAxiom" and node.premises:
        phis, _psi = st.theory.instantiate(node.rule.axiom, node.rule.subst_dict())
        return [Counter((phi,)) for phi in phis]
    return [empty for _ in node.premises]


def _reapply(node: Proof, new_premises: tuple, st: _State) -> Proof:
    """Rebuild node's inference over replacement premises (contexts may
    have changed; principal data is taken from the original node)."""
    st.tick()
    tag = node.rule.tag
    q = new_premises
    if tag in ("WeakenLeft", "WeakenRight"):
        f = _infer_weaken(node)
        return weaken_left(q[0], f) if tag == "WeakenLeft" else weaken_right(q[0], f)
    if tag in ("ContractLeft", "ContractRight"):
        f = _infer_contract(node)
        return contract_left(q[0], f) if tag == "ContractLeft" else contract_right(q[0], f)
    if tag == "AndLeft":
        f = _infer_binop(node)
        return and_left(q[0], f.left, f.right)
    if tag == "AndRight":
        f = _infer_binop(node)
        return and_right(q[0], q[1], f.left, f.right)
    if tag == "OrLeft":
        f = _infer_binop(node)
        return or_left(q[0], q[1], f.left, f.right)
    if tag == "OrRight":
        f = _infer_binop(node)
        return or_right(q[0], f.left, f.right)
    if tag == "ImpliesLeft":
        f = _infer_binop(node)
        return implies_left(q[0], q[1], f.left, f.right)
    if tag == "ImpliesRight":
        f = _infer_binop(node)
        return implies_right(q[0], f.left, f.right)
    if tag == "NotLeft":
        f = _infer_binop(node)
        return not_left(q[0], f.body)
    if tag == "NotRight":
        f = _infer_binop(node)
        return not_right(q[0], f.body)
    if tag == "ForallLeft":
        f = _infer_quant(node)
        return forall_left(q[0], f, node.rule.term)
    if tag == "ExistsRight":
        f = _infer_quant(node)
        return exists_right(q[0], f, node.rule.term)
    if tag == "ForallRight":
        f = _infer_quant(node)
        return forall_right(q[0], f, node.rule.eigen)
    if tag == "ExistsLeft":
        f = _infer_quant(node)
        return exists_left(q[0], f, node.rule.eigen)
    if tag == "TheoryAxiom":
        return theory_apply(st.theory, node.rule.axiom, node.rule.subst_dict(), q)
    if tag == "Cut":
        a = _infer_cut_formula(node.premises[0], node.premises[1], node.conclusion)
        return cut(q[0], q[1], a)
    raise FragmentError(f"cannot commute past rule {tag}")


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

    The result depends only on the arguments and the theory, so it is
    memoized per elimination: a subproof shared in the DAG is reduced once
    and its result is shared in the output.
    """
    key = (id(p1), id(a), id(p2), k)
    hit = st.mcut_memo.get(key)
    if hit is not None:
        return hit[0]
    out = _mcut_step(p1, a, p2, k, st)
    st.mcut_memo[key] = (out, p1, a, p2)
    return out


def _mcut_step(p1: Proof, a: Formula, p2: Proof, k: int, st: _State) -> Proof:
    st.tick()
    if k == 0:
        return p2
    if _count(p2.conclusion.ant, a) < k:
        raise KernelError("multicut multiplicity exceeds the available occurrences")

    # trivial left premises
    r1 = p1.rule.tag
    if r1 == "LogicalAxiom":
        return p2
    if r1 == "WeakenRight" and _infer_weaken(p1) is a:
        inner = p1.premises[0]
        gamma = p1.conclusion.ant
        delta = _drop_one(p1.conclusion.succ, a)
        target_ant = gamma * k + _drop_n(p2.conclusion.ant, a, k)
        target_succ = delta * k + p2.conclusion.succ
        return _weaken_to(inner, Sequent(target_ant, target_succ))

    tag = p2.rule.tag

    if tag == "LogicalAxiom":
        return p1  # p2 is a |- a with k = 1

    if tag == "TheoryAxiom" and not p2.premises:
        phis, _psi = st.theory.instantiate(p2.rule.axiom, p2.rule.subst_dict())
        premises = []
        quota = k
        for phi in phis:
            if quota and phi is a:
                premises.append(p1)
                quota -= 1
            else:
                premises.append(logical_axiom(phi))
        return theory_apply(st.theory, p2.rule.axiom, p2.rule.subst_dict(), premises)

    if tag == "WeakenLeft" and _infer_weaken(p2) is a:
        inner = _mcut(p1, a, p2.premises[0], k - 1, st)
        gamma = p1.conclusion.ant
        delta = tuple(_drop_one(p1.conclusion.succ, a))
        for f in gamma:
            inner = weaken_left(inner, f)
        for f in delta:
            inner = weaken_right(inner, f)
        return inner

    if tag == "ContractLeft" and _infer_contract(p2) is a:
        if k < _count(p2.conclusion.ant, a):
            # enough untouched copies remain to contract afterwards
            inner = _mcut(p1, a, p2.premises[0], k, st)
            return contract_left(inner, a)
        inner = _mcut(p1, a, p2.premises[0], k + 1, st)
        for f in p1.conclusion.ant:
            inner = contract_left(inner, f)
        for f in _drop_one(p1.conclusion.succ, a):
            inner = contract_right(inner, f)
        return inner

    # principal on the left of p2?
    if tag == "ImpliesLeft":
        f = _infer_binop(p2)
        if f is a:
            return _reduce_implies(p1, a, p2, k, st)
    if tag == "ForallLeft":
        f = _infer_quant(p2)
        if f is a:
            return _reduce_forall(p1, a, p2, k, st)
    if tag in ("AndLeft", "OrLeft", "NotLeft", "ExistsLeft"):
        # fragment cut formulas are never principal for these
        pass
    if tag == "Cut":
        raise KernelError("multicut premises must be cut-free")

    # context commutation: distribute the quota over the premises
    if tag in ("ForallRight", "ExistsLeft"):
        eigen = p2.rule.eigen
        clash = any(
            eigen in free_vars(g)
            for g in p1.conclusion.ant + p1.conclusion.succ
        )
        if clash:
            fresh = fresh_name(eigen, _names_around(p1, p2))
            q = substitute_proof(p2.premises[0], {eigen: var(fresh)})
            qf = _infer_quant(p2)
            p2 = (
                forall_right(q, qf, fresh)
                if tag == "ForallRight"
                else exists_left(q, qf, fresh)
            )
    consumed = _consumed_ant(p2)
    remaining = k
    new_premises = []
    for j, q in enumerate(p2.premises):
        avail = _count(q.conclusion.ant, a) - consumed[j].get(a, 0)
        take = min(avail, remaining)
        remaining -= take
        new_premises.append(_mcut(p1, a, q, take, st))
    if remaining:
        raise FragmentError(
            f"cut formula {formula_str(a)} is tied to rule {tag} in an unsupported way"
        )
    return _reapply(p2, tuple(new_premises), st)


def _drop_one(fs: tuple, f: Formula) -> tuple:
    for i, g in enumerate(fs):
        if g is f:
            return fs[:i] + fs[i + 1 :]
    raise KernelError("formula missing")


def _drop_n(fs: tuple, f: Formula, n: int) -> tuple:
    out = []
    for g in fs:
        if n and g is f:
            n -= 1
            continue
        out.append(g)
    if n:
        raise KernelError("formula missing")
    return tuple(out)


def _names_around(*proofs) -> set:
    names = set()
    for p in proofs:
        for f in p.conclusion.ant + p.conclusion.succ:
            names |= free_vars(f)
    return names


def _principalize_right(p1: Proof, a: Formula, st: _State) -> Proof:
    """Commute p1 until its last rule introduces a on the right."""
    st.tick()
    tag = p1.rule.tag
    if tag == "ImpliesRight" and isinstance(a, Implies) and _infer_binop(p1) is a:
        return p1
    if tag == "ForallRight" and isinstance(a, Forall) and _infer_quant(p1) is a:
        return p1
    if tag == "WeakenRight" and _infer_weaken(p1) is a:
        q = p1.premises[0]
        if isinstance(a, Implies):
            body = weaken_right(weaken_left(q, a.left), a.right)
            return implies_right(body, a.left, a.right)
        if isinstance(a, Forall):
            e = fresh_name("w", _names_around(p1))
            body = weaken_right(q, substitute(a.body, a.v, var(e)))
            return forall_right(body, a, e)
        raise FragmentError("cannot principalize a weakened cut formula of this shape")
    if tag in ("LogicalAxiom", "EqOracle"):
        raise FragmentError("cut formula of this shape cannot head an axiom leaf")
    if tag == "TheoryAxiom" and not p1.premises:
        raise FragmentError("theory leaves conclude atoms only")
    if tag == "ContractRight" and _infer_contract(p1) is a:
        raise FragmentError(
            "right contraction on the cut formula is outside the supported fragment"
        )
    consumed = _consumed_succ(p1, st)
    for j, q in enumerate(p1.premises):
        if _count(q.conclusion.succ, a) - consumed[j].get(a, 0) <= 0:
            continue
        qp = _principalize_right(q, a, st)
        inner = qp.premises[0]
        if qp.rule.tag == "ForallRight":
            e = qp.rule.eigen
            outer_names = _names_around(p1)
            for sib in p1.premises:
                outer_names |= _names_around(sib)
            if e in outer_names:
                e2 = fresh_name(e, outer_names)
                inner = substitute_proof(inner, {e: var(e2)})
                e = e2
            rebuilt = _reapply(p1, _swap(p1.premises, j, inner), st)
            return forall_right(rebuilt, a, e)
        # ImpliesRight
        rebuilt = _reapply(p1, _swap(p1.premises, j, inner), st)
        return implies_right(rebuilt, a.left, a.right)
    raise FragmentError(
        f"cannot locate {formula_str(a)} for principalization in {tag}"
    )


def _swap(premises: tuple, j: int, new) -> tuple:
    return premises[:j] + (new,) + premises[j + 1 :]


def _reduce_implies(p1: Proof, a: Formula, p2: Proof, k: int, st: _State) -> Proof:
    """p2 ends with ImpliesLeft on a = B -> C."""
    q0, q1 = p2.premises
    k0_avail = _count(q0.conclusion.ant, a)
    k1_avail = _count(q1.conclusion.ant, a)
    # strip context copies first; the principal occurrence is the last one
    principal = k > k0_avail + k1_avail
    ctx = k - 1 if principal else k
    k0 = min(k0_avail, ctx)
    k1 = min(k1_avail, ctx - k0)
    q0p = _mcut(p1, a, q0, k0, st)
    q1p = _mcut(p1, a, q1, k1, st)
    if not principal:
        return implies_left(q0p, q1p, a.left, a.right)
    head = _principalize_right(p1, a, st)
    r = head.premises[0]  # B, Gamma |- Delta0, C
    step1 = _mcut(q0p, a.left, r, 1, st)
    return _mcut(step1, a.right, q1p, 1, st)


def _reduce_forall(p1: Proof, a: Formula, p2: Proof, k: int, st: _State) -> Proof:
    """p2 ends with ForallLeft on a = forall x B, witness t."""
    (q,) = p2.premises
    t = p2.rule.term
    inst = substitute(a.body, a.v, t)
    avail = _count(q.conclusion.ant, a) - (1 if inst is a else 0)
    principal = k > avail
    ctx = k - 1 if principal else k
    qp = _mcut(p1, a, q, ctx, st)
    if not principal:
        return forall_left(qp, a, t)
    head = _principalize_right(p1, a, st)
    r = head.premises[0]
    r_inst = substitute_proof(r, {head.rule.eigen: t})
    return _mcut(r_inst, inst, qp, 1, st)


# ---------------------------------------------------------------------------
# Driver


def eliminate_cuts(p: Proof, theory, budget: Optional[int] = None) -> Proof:
    """Innermost-first cut elimination; returns a cut-free proof of the
    same end sequent.  Raises FragmentError/NodeBudgetError as documented."""
    limit = node_budget(budget)
    st = _State(theory, limit)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 200_000))
    try:
        done: dict = {}
        stack = [(p, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                if id(node) in done:
                    continue
                stack.append((node, True))
                for q in node.premises:
                    if id(q) not in done:
                        stack.append((q, False))
                continue
            if id(node) in done:
                continue
            prems = tuple(done[id(q)] for q in node.premises)
            if node.rule.tag == "Cut":
                a = _infer_cut_formula(node.premises[0], node.premises[1], node.conclusion)
                if not _in_fragment(a):
                    raise FragmentError(
                        f"cut formula {formula_str(a)} lies outside the "
                        "atom/implication/forall fragment"
                    )
                out = _mcut(prems[0], a, prems[1], 1, st)
                if out.conclusion != node.conclusion:
                    raise KernelError(
                        "internal: cut elimination changed the sequent from "
                        f"{sequent_str(node.conclusion)} to {sequent_str(out.conclusion)}"
                    )
                if _tree_lines(out) > limit:
                    raise NodeBudgetError(
                        f"cut-free proof exceeds the node budget of {limit}"
                    )
            elif all(x is y for x, y in zip(prems, node.premises)):
                out = node
            else:
                out = Proof(node.conclusion, node.rule, prems)
            done[id(node)] = out
        return done[id(p)]
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Compression reporting


@dataclass(frozen=True)
class BlowupRow:
    n: int
    lines_with_cuts: int
    lines_cut_free: Optional[int]
    ratio: Optional[float]
    cut_count: int
    contraction_count: int
    wall_time_ms: Optional[float]
    status: str


BLOWUP_COLUMNS = (
    "n",
    "lines_with_cuts",
    "lines_cut_free",
    "ratio",
    "cut_count",
    "contraction_count",
    "wall_time_ms",
    "status",
)


def blowup_report(make_report, ns, budget: Optional[int] = None, timings: bool = False):
    """Rows comparing generated proofs against their cut-free forms.

    make_report: n -> GenReport.  Budget or fragment failures are flagged
    in the status column rather than aborting the sweep.  wall_time_ms
    stays empty unless timings is requested, keeping default output
    byte-reproducible.
    """
    rows = []
    for n in ns:
        t0 = time.perf_counter()
        rep = make_report(n)
        stats = rep.stats
        lines_cf = None
        ratio = None
        status = "ok"
        try:
            cf = eliminate_cuts(rep.proof, rep.theory, budget)
            lines_cf = size(cf).lines
            ratio = lines_cf / stats.lines
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
