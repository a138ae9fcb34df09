"""Sequent-calculus proof kernel.

A proof is a DAG of shared nodes: every node stores its full conclusion
sequent, a rule tag, and premises, and a subproof used several times is
one Python object.  Size accounting counts it once per occurrence, as in
the expanded tree.  Rules carry no principal-formula annotations except
where genuinely needed (theory-axiom instantiations, quantifier witnesses
and eigenvariables); the checker re-infers everything else by multiset
bookkeeping.

The shape of each logical rule lives in one place, the `_INTRO` table:
the principal formula's connective, the side it is introduced on and the
premise side each of its parts comes from.  `introduce` builds every
logical inference from that table (the twelve constructors `and_left` ...
`exists_right` call it), and `analyze` checks every one against it.

Theory axioms come in two shapes sharing one tag:

  * leaf (no premises): the instantiated schema itself as a sequent,
  * applied (one premise per schema antecedent): premise i proves
    Gamma_i |- Delta_i, Phi_i and the conclusion merges the contexts and
    concludes the schema's succedent.

The applied shape is what makes genuinely cut-free derivations of facts
like |- F(n) possible at all; with leaves only, no right rule could ever
discharge the antecedents.

`analyze` is the single source of truth for rule correctness and for the
occurrence-level correspondences.  It validates one inference against the
theory and returns its `Step`: the principal formula, its occurrence in
the conclusion, the premise occurrences the rule consumes and the tag of
the edges that link them.  The checker, the flow-graph builder (through
`step_edges`) and cut elimination all consume that step, for every rule,
and each of them analyzes the nodes it reads for itself.

Proof files keep the sharing: `serialize_proof` writes each distinct term,
formula and proof node once, as a flat JSON table whose entries refer to
earlier ones, and `parse_proof` rebuilds the DAG from those tables without
the text parser.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import NamedTuple, Optional

from .lang import (
    And,
    App,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Quant,
    Record,
    Sequent,
    Signature,
    Term,
    Var,
    app,
    atom,
    conj,
    const,
    disj,
    exists,
    fold,
    forall,
    formula_str,
    free_vars,
    imp,
    is_variable_name,
    neg,
    rebind,
    sequent_brief,
    subst_key,
    substitute,
    var,
    _children,
)


class KernelError(Exception):
    pass


class CheckError(KernelError):
    """A proof failed validation; the message names the offending node."""


class TheoryError(Exception):
    """A theory refused a request: axiom data that name no instance of its
    schemas, or an inadmissible instance.  `feaslab.theories` raises it;
    it is defined here, below that module, so that `check` can report a
    rule naming no instance as a CheckError naming the node."""


# Each logical rule: the class of the principal formula, the side the rule
# introduces it on, the (premise, side) each of its parts comes from, and
# its name in messages.  The parts are left and right for the binary
# connectives, the body for a negation and, for a quantifier, its body
# instantiated with the rule's witness term or eigenvariable.
_INTRO = {
    "AndLeft": (And, "L", ((0, "L"), (0, "L")), "conjunction"),
    "AndRight": (And, "R", ((0, "R"), (1, "R")), "conjunction"),
    "OrLeft": (Or, "L", ((0, "L"), (1, "L")), "disjunction"),
    "OrRight": (Or, "R", ((0, "R"), (0, "R")), "disjunction"),
    "ImpliesLeft": (Implies, "L", ((0, "R"), (1, "L")), "implication"),
    "ImpliesRight": (Implies, "R", ((0, "L"), (0, "R")), "implication"),
    "NotLeft": (Not, "L", ((0, "R"),), "negation"),
    "NotRight": (Not, "R", ((0, "L"),), "negation"),
    "ForallLeft": (Forall, "L", ((0, "L"),), "quantifier"),
    "ForallRight": (Forall, "R", ((0, "R"),), "quantifier"),
    "ExistsLeft": (Exists, "L", ((0, "L"),), "quantifier"),
    "ExistsRight": (Exists, "R", ((0, "R"),), "quantifier"),
}

# Premises per rule; None for TheoryAxiom, whose schema decides.
_ARITY = {
    "LogicalAxiom": 0,
    "EqOracle": 0,
    "TheoryAxiom": None,
    "Cut": 2,
    "WeakenLeft": 1,
    "WeakenRight": 1,
    "ContractLeft": 1,
    "ContractRight": 1,
    **{tag: 1 + max(k for k, _ in intro[2]) for tag, intro in _INTRO.items()},
}

RULE_TAGS = frozenset(_ARITY)

_TERM_RULES = ("ForallLeft", "ExistsRight")
_EIGEN_RULES = ("ForallRight", "ExistsLeft")


# The fields each rule tag sets, as flags (axiom, subst, term, eigen).
_RULE_SHAPES = {
    tag: (tag == "TheoryAxiom", tag == "TheoryAxiom", tag in _TERM_RULES, tag in _EIGEN_RULES)
    for tag in RULE_TAGS
}


def _rule_error(tag, has_axiom: bool, has_subst: bool, has_term: bool, has_eigen: bool) -> str:
    """Why a rule cannot have this tag and set these fields."""
    if tag not in RULE_TAGS:
        return f"unknown rule tag {tag!r}"
    if (has_axiom or has_subst) and tag != "TheoryAxiom":
        return f"{tag} carries no axiom data"
    if tag == "TheoryAxiom" and not (has_axiom and has_subst):
        return "TheoryAxiom needs an axiom name and substitution"
    if has_term and tag not in _TERM_RULES:
        return f"{tag} carries no witness term"
    if tag in _TERM_RULES and not has_term:
        return f"{tag} needs a witness term"
    if has_eigen and tag not in _EIGEN_RULES:
        return f"{tag} carries no eigenvariable"
    return f"{tag} needs an eigenvariable"


class Rule(Record):
    """The rule of one inference: its tag and the data the tag needs.

    axiom and subst (sorted (variable, Term) pairs) for TheoryAxiom, the
    witness term for ForallLeft and ExistsRight, the eigenvariable for
    ForallRight and ExistsLeft; every other field is None.  The kernel's
    constructors share one Rule per tag that carries no data.
    """

    __slots__ = _fields = ("tag", "axiom", "subst", "term", "eigen")

    def __init__(
        self,
        tag: str,
        axiom: Optional[str] = None,
        subst: Optional[tuple] = None,
        term: Optional[Term] = None,
        eigen: Optional[str] = None,
    ):
        has = (axiom is not None, subst is not None, term is not None, eigen is not None)
        if _RULE_SHAPES.get(tag) != has:
            raise KernelError(_rule_error(tag, *has))
        if eigen is not None and not isinstance(eigen, str):
            raise KernelError(f"eigenvariable {eigen!r} is not a string")
        _set_tag(self, tag)
        _set_axiom(self, axiom)
        _set_subst(self, subst)
        _set_term(self, term)
        _set_eigen(self, eigen)


_set_tag = Rule.tag.__set__
_set_axiom = Rule.axiom.__set__
_set_subst = Rule.subst.__set__
_set_term = Rule.term.__set__
_set_eigen = Rule.eigen.__set__

# One shared Rule per tag whose rule carries no data.
_PLAIN_RULES = {tag: Rule(tag) for tag, shape in _RULE_SHAPES.items() if not any(shape)}


class Proof:
    """One node of a proof DAG.  Premises may be shared as Python objects;
    all size accounting still counts them once per occurrence.
    """

    __slots__ = ("conclusion", "rule", "premises")

    def __init__(self, conclusion: Sequent, rule: Rule, premises: tuple = ()):
        expected = _ARITY.get(rule.tag)
        if expected is not None and len(premises) != expected:
            raise KernelError(f"{rule.tag} takes {expected} premises, got {len(premises)}")
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_premises(self, tuple(premises))

    def __setattr__(self, *a):
        raise AttributeError("proofs are immutable")

    def __repr__(self):
        return f"<Proof {self.rule.tag}: {sequent_brief(self.conclusion)}>"


# The slots' own setters: they pass by the raising __setattr__, and cost
# less than object.__setattr__, which looks the name up on every call.
_set_conclusion = Proof.conclusion.__set__
_set_rule = Proof.rule.__set__
_set_premises = Proof.premises.__set__


# ---------------------------------------------------------------------------
# Multiset helpers (formulas are interned, so hashing is identity-based)


# Terms and formulas define no __eq__, so the tuple methods `in` and
# `index` compare them by identity, in C.


def _remove_one(fs: tuple, f: Formula) -> tuple:
    if f not in fs:
        raise KernelError(f"formula {formula_str(f)} not present")
    i = fs.index(f)
    return fs[:i] + fs[i + 1 :]


def _first_index(fs: tuple, f: Formula, skip: int = -1) -> int:
    """The index of the first occurrence of f in fs other than skip, or -1."""
    if f not in fs:
        return -1
    i = fs.index(f)
    if i != skip:
        return i
    return fs.index(f, i + 1) if f in fs[i + 1 :] else -1


# ---------------------------------------------------------------------------
# Constructors.  Each builds the canonical conclusion: principal formulas go
# first in antecedents and last in succedents.


def logical_axiom(a: Formula) -> Proof:
    return Proof(Sequent((a,), (a,)), _PLAIN_RULES["LogicalAxiom"])


def eq_leaf(lhs: Term, rhs: Term) -> Proof:
    return Proof(Sequent((), (atom("=", lhs, rhs),)), _PLAIN_RULES["EqOracle"])


def _pairs(subst: dict) -> tuple:
    """subst's (variable, term) pairs in variable order, as a TheoryAxiom
    rule holds them."""
    try:
        return tuple(sorted(subst.items()))
    except TypeError:  # names that do not sort, which the theory refuses
        return tuple(subst.items())


def theory_leaf(theory, name: str, subst: dict) -> Proof:
    ant, succ, rule = theory.instance(name, _pairs(subst))
    return Proof(Sequent(ant, (succ,)), rule)


def theory_apply(theory, name: str, subst: dict, premises) -> Proof:
    return apply_instance(theory.instance(name, _pairs(subst)), premises)


def apply_instance(instance: tuple, premises) -> Proof:
    """The applied form of instance, an (antecedent, succedent, rule) that
    `Theory.instance` returns: premise i proves its antecedent formula i on
    the right."""
    phis, psi, rule = instance
    premises = tuple(premises)
    if len(premises) != len(phis):
        raise KernelError(f"{rule.axiom} applied form needs {len(phis)} premises")
    ant = []
    succ = []
    for p, phi in zip(premises, phis):
        ant.extend(p.conclusion.ant)
        succ.extend(_remove_one(p.conclusion.succ, phi))
    succ.append(psi)
    return Proof(Sequent(tuple(ant), tuple(succ)), rule, premises)


def cut(p1: Proof, p2: Proof, a: Formula) -> Proof:
    ant = p1.conclusion.ant + _remove_one(p2.conclusion.ant, a)
    succ = _remove_one(p1.conclusion.succ, a) + p2.conclusion.succ
    return Proof(Sequent(ant, succ), _PLAIN_RULES["Cut"], (p1, p2))


def weaken_left(p: Proof, a: Formula) -> Proof:
    c = p.conclusion
    return Proof(Sequent((a,) + c.ant, c.succ), _PLAIN_RULES["WeakenLeft"], (p,))


def weaken_right(p: Proof, a: Formula) -> Proof:
    c = p.conclusion
    return Proof(Sequent(c.ant, c.succ + (a,)), _PLAIN_RULES["WeakenRight"], (p,))


def contract_left(p: Proof, a: Formula) -> Proof:
    ant = _remove_one(p.conclusion.ant, a)
    if _first_index(ant, a) < 0:
        raise KernelError("contraction needs two occurrences")
    return Proof(Sequent(ant, p.conclusion.succ), _PLAIN_RULES["ContractLeft"], (p,))


def contract_right(p: Proof, a: Formula) -> Proof:
    succ = _remove_one(p.conclusion.succ, a)
    if _first_index(succ, a) < 0:
        raise KernelError("contraction needs two occurrences")
    return Proof(Sequent(p.conclusion.ant, succ), _PLAIN_RULES["ContractRight"], (p,))


def _parts(f: Formula, witness: Optional[Term]) -> tuple:
    """The parts of f, in _INTRO order; witness is the term a quantifier
    rule instantiates f's body with, None for the other logical rules."""
    if witness is not None:
        return (substitute(f.body, f.v, witness),)
    if isinstance(f, Not):
        return (f.body,)
    return (f.left, f.right)


def _witness(rule: Rule) -> Optional[Term]:
    return rule.term if rule.eigen is None else var(rule.eigen)


def introduce(rule: Rule, premises: tuple, f: Formula) -> Proof:
    """The logical inference `rule` over premises, introducing f.

    Each part of f is removed (its first occurrence) from the premise side
    _INTRO names for it, the premise contexts are concatenated in order and
    f goes first in the antecedent or last in the succedent.  An
    eigenvariable must not occur free in the conclusion.
    """
    intro = _INTRO.get(rule.tag)
    if intro is None:
        raise KernelError(f"{rule.tag} is not a logical rule")
    cls, side, places, _ = intro
    if not isinstance(f, cls):
        raise KernelError(f"{rule.tag} cannot introduce {formula_str(f)}")
    ants = [q.conclusion.ant for q in premises]
    succs = [q.conclusion.succ for q in premises]
    for (k, s), part in zip(places, _parts(f, _witness(rule))):
        if s == "L":
            ants[k] = _remove_one(ants[k], part)
        else:
            succs[k] = _remove_one(succs[k], part)
    ant, succ = sum(ants, ()), sum(succs, ())
    if side == "L":
        ant = (f,) + ant
    else:
        succ = succ + (f,)
    if rule.eigen is not None:
        for g in ant + succ:
            if rule.eigen in free_vars(g):
                raise KernelError(f"eigenvariable {rule.eigen} occurs free in the conclusion")
    return Proof(Sequent(ant, succ), rule, premises)


def and_left(p: Proof, a: Formula, b: Formula) -> Proof:
    return introduce(_PLAIN_RULES["AndLeft"], (p,), conj(a, b))


def and_right(p1: Proof, p2: Proof, a: Formula, b: Formula) -> Proof:
    return introduce(_PLAIN_RULES["AndRight"], (p1, p2), conj(a, b))


def or_right(p: Proof, a: Formula, b: Formula) -> Proof:
    return introduce(_PLAIN_RULES["OrRight"], (p,), disj(a, b))


def or_left(p1: Proof, p2: Proof, a: Formula, b: Formula) -> Proof:
    return introduce(_PLAIN_RULES["OrLeft"], (p1, p2), disj(a, b))


def implies_right(p: Proof, a: Formula, b: Formula) -> Proof:
    return introduce(_PLAIN_RULES["ImpliesRight"], (p,), imp(a, b))


def implies_left(p1: Proof, p2: Proof, a: Formula, b: Formula) -> Proof:
    return introduce(_PLAIN_RULES["ImpliesLeft"], (p1, p2), imp(a, b))


def not_left(p: Proof, a: Formula) -> Proof:
    return introduce(_PLAIN_RULES["NotLeft"], (p,), neg(a))


def not_right(p: Proof, a: Formula) -> Proof:
    return introduce(_PLAIN_RULES["NotRight"], (p,), neg(a))


def forall_left(p: Proof, qf: Forall, t: Term) -> Proof:
    return introduce(Rule("ForallLeft", term=t), (p,), qf)


def forall_right(p: Proof, qf: Forall, eigen: str) -> Proof:
    return introduce(Rule("ForallRight", eigen=eigen), (p,), qf)


def exists_left(p: Proof, qf: Exists, eigen: str) -> Proof:
    return introduce(Rule("ExistsLeft", eigen=eigen), (p,), qf)


def exists_right(p: Proof, qf: Exists, t: Term) -> Proof:
    return introduce(Rule("ExistsRight", term=t), (p,), qf)


# ---------------------------------------------------------------------------
# Rule analysis: validation + occurrence correspondences.
#
# Occurrence endpoints are ('c', side, i) for the conclusion and
# (premise_index, side, i) for premises, with side in {'L', 'R'}.


class Step(NamedTuple):
    """What one inference does to formula occurrences.

    principal: the principal formula; for Cut, the cut formula.
    at: the principal formula's occurrence in the conclusion (None for Cut).
    consumed: the premise occurrences the rule consumes, as (k, side, i);
        for axiom leaves these are conclusion occurrences ('c', side, i).
    link: the tag of the edges joining each consumed occurrence to `at`
        (for Cut, the two consumed occurrences to each other): one of
        ancestry / cut-link / contraction-merge / axiom-link.
    """

    principal: Formula
    at: Optional[tuple]
    consumed: tuple
    link: str


def _sides(s: Sequent, side: str) -> tuple:
    """(the given side, the other side) of a sequent; side is 'L' or 'R'."""
    return (s.ant, s.succ) if side == "L" else (s.succ, s.ant)


def _same(xs: tuple, ys: tuple) -> bool:
    """Multiset equality of formula tuples (formulas are interned).

    Equal tuples are tried first: the analyzers pass the two sides in the
    order the constructors build them, so a node built by the kernel
    passes with one comparison in C, and any other order falls back to
    comparing the sorted ids."""
    return xs == ys or len(xs) == len(ys) and sorted(map(id, xs)) == sorted(map(id, ys))


def _difference(xs: tuple, ys: tuple) -> tuple:
    """(xs - ys, ys - xs) as multisets of formulas: the formulas each tuple
    has more often than the other, repeated by the excess.  Both are empty
    exactly when _same(xs, ys)."""
    count: dict = {}
    for x in xs:
        count[x] = count.get(x, 0) + 1
    for y in ys:
        count[y] = count.get(y, 0) - 1
    more = [f for f, n in count.items() if n > 0 for _ in range(n)]
    fewer = [f for f, n in count.items() if n < 0 for _ in range(-n)]
    return more, fewer


def _one_more(xs: tuple, ys: tuple) -> tuple:
    """_difference(xs, ys), tried first in the layout of the weakening and
    contraction constructors: ys is xs without the formula at the first
    index where the two differ."""
    if len(xs) == len(ys) + 1:
        d = 0
        for y in ys:
            if y is not xs[d]:
                break
            d += 1
        if _same(xs[:d] + xs[d + 1 :], ys):
            return [xs[d]], []
    return _difference(xs, ys)


def analyze(node: Proof, theory) -> Step:
    """Validate one inference step against the theory and return its Step.

    Raises CheckError naming the node when the step is not a valid
    instance of its rule.  When several formulas could be principal, the
    first match wins, in conclusion order (for Cut, in the order of the
    left premise's succedent).
    """
    return _ANALYZERS.get(node.rule.tag, _analyze_intro)(node, theory)


def _analyze_logical_axiom(node: Proof, theory) -> Step:
    c = node.conclusion
    if len(c.ant) != 1 or len(c.succ) != 1 or c.ant[0] is not c.succ[0]:
        _fail(node, "logical axiom must be A |- A")
    return Step(c.succ[0], ("c", "R", 0), (("c", "L", 0),), "axiom-link")


def _analyze_eq_oracle(node: Proof, theory) -> Step:
    c = node.conclusion
    if c.ant or len(c.succ) != 1:
        _fail(node, "equality oracle concludes a single equation")
    f = c.succ[0]
    if not (isinstance(f, Atom) and f.pred == "="):
        _fail(node, "equality oracle concludes an equation")
    verdict = theory.oracle(f.args[0], f.args[1])
    if verdict != "equal":
        _fail(node, f"oracle verdict for {formula_str(f)} is {verdict!r}")
    return Step(f, ("c", "R", 0), (), "axiom-link")


# The multiset checks below read "premises - consumed = conclusion -
# principal": each side of the conclusion against the premises' sides
# without the occurrences the rule consumes, removed at the indices found
# for them, concatenated in the order the constructors concatenate them.


def _analyze_cut(node: Proof, theory) -> Step:
    c = node.conclusion
    p0, p1 = node.premises[0].conclusion, node.premises[1].conclusion
    for i, f in enumerate(p0.succ):
        j = _first_index(p1.ant, f)
        if j < 0:
            continue
        if _same(p0.ant + p1.ant[:j] + p1.ant[j + 1 :], c.ant) and _same(
            p0.succ[:i] + p0.succ[i + 1 :] + p1.succ, c.succ
        ):
            return Step(f, None, ((0, "R", i), (1, "L", j)), "cut-link")
    _fail(node, "no cut formula matches the premises")


def _analyze_weakening(node: Proof, theory) -> Step:
    side = "L" if node.rule.tag == "WeakenLeft" else "R"
    cs, co = _sides(node.conclusion, side)
    pside, po = _sides(node.premises[0].conclusion, side)
    more, fewer = _one_more(cs, pside)
    if len(more) != 1:
        _fail(node, "weakening must add exactly one formula")
    (f,) = more
    if fewer:
        _fail(node, "weakening context mismatch")
    if not _same(co, po):
        _fail(node, "weakening must leave the other side unchanged")
    return Step(f, ("c", side, _first_index(cs, f)), (), "ancestry")


def _analyze_contraction(node: Proof, theory) -> Step:
    """The premise side must be the conclusion side plus one more copy of
    a formula the conclusion side still holds, the other side unchanged."""
    side = "L" if node.rule.tag == "ContractLeft" else "R"
    cs, co = _sides(node.conclusion, side)
    pside, po = _sides(node.premises[0].conclusion, side)
    more, fewer = _one_more(pside, cs)
    if len(more) != 1:
        _fail(node, "contraction must merge exactly one duplicate")
    (f,) = more
    jc = _first_index(cs, f)
    if jc < 0:
        _fail(node, "contracted formula must remain in the conclusion")
    if not _same(co, po):
        _fail(node, "contraction must leave the other side unchanged")
    if fewer:
        _fail(node, "contraction context mismatch")
    i1 = _first_index(pside, f)
    i2 = _first_index(pside, f, skip=i1)
    return Step(f, ("c", side, jc), ((0, side, i1), (0, side, i2)), "contraction-merge")


def _analyze_intro(node: Proof, theory) -> Step:
    tag = node.rule.tag
    intro = _INTRO.get(tag)
    if intro is None:
        _fail(node, f"unhandled rule {tag}")
    c = node.conclusion
    ps = [q.conclusion for q in node.premises]
    cls, side, places, what = intro
    witness = _witness(node.rule)
    cs = c.ant if side == "L" else c.succ
    for i, f in enumerate(cs):
        if not isinstance(f, cls):
            continue
        # each part at its first occurrence not taken by the part before it
        consumed = []
        for (k, s), part in zip(places, _parts(f, witness)):
            skip = consumed[-1][2] if consumed and consumed[-1][:2] == (k, s) else -1
            j = _first_index(ps[k].ant if s == "L" else ps[k].succ, part, skip)
            if j < 0:
                break
            consumed.append((k, s, j))
        else:
            rest = {"L": [q.ant for q in ps], "R": [q.succ for q in ps]}
            for k, s, j in sorted(consumed, reverse=True):  # later indices first
                fs = rest[s][k]
                rest[s][k] = fs[:j] + fs[j + 1 :]
            ant, succ = sum(rest["L"], ()), sum(rest["R"], ())
            if side == "L":
                ok = _same(ant, cs[:i] + cs[i + 1 :]) and _same(succ, c.succ)
            else:
                ok = _same(ant, c.ant) and _same(succ, cs[:i] + cs[i + 1 :])
            if not ok:
                continue
            eigen = node.rule.eigen
            if eigen is not None:
                for g in c.ant + c.succ:
                    if eigen in free_vars(g):
                        _fail(node, f"eigenvariable {eigen} occurs free in the conclusion")
            return Step(f, ("c", side, i), tuple(consumed), "ancestry")
    # "an" before the binary connectives' rules, "a" before the others
    _fail(node, f"no {what} matches {'an' if len(places) == 2 else 'a'} {tag} step")


def _fail(node: Proof, msg: str):
    raise CheckError(f"{node.rule.tag} at {sequent_brief(node.conclusion)}: {msg}")


def step_edges(node: Proof, step: Step) -> list:
    """Flow edges of one inference, given its Step.

    Edges are (end, end, tag) triples over local endpoints: the step's
    link edges first, then ancestry edges.  Raises CheckError when a
    context occurrence finds no partner in the conclusion.
    """
    if step.at is None:
        edges = [(step.consumed[0], step.consumed[1], step.link)]
    else:
        edges = [(occ, step.at, step.link) for occ in step.consumed]
    if node.premises:
        edges += _ancestry(node, step)
    return edges


def _ancestry(node: Proof, step: Step) -> list:
    """Greedy identity-based matching of context occurrences.

    Maps every non-consumed premise occurrence to the first available
    non-principal conclusion occurrence of the same formula.
    """
    c = node.conclusion
    free_concl = {"L": {}, "R": {}}
    for side, fs in (("L", c.ant), ("R", c.succ)):
        for i, f in enumerate(fs):
            if ("c", side, i) == step.at:
                continue
            free_concl[side].setdefault(f, []).append(i)
    for sidefs in free_concl.values():
        for lst in sidefs.values():
            lst.reverse()  # pop from the front cheaply
    consumed = set(step.consumed)
    edges = []
    for k, q in enumerate(node.premises):
        for side, fs in (("L", q.conclusion.ant), ("R", q.conclusion.succ)):
            for i, f in enumerate(fs):
                if (k, side, i) in consumed:
                    continue
                lst = free_concl[side].get(f)
                if not lst:
                    _fail(node, f"unmatched context occurrence {formula_str(f)}")
                j = lst.pop()
                edges.append(((k, side, i), ("c", side, j), "ancestry"))
    return edges


# The links of a theory-axiom leaf's antecedent occurrences, for the
# antecedents of every schema in the package; longer ones build theirs.
_LEAF_LINKS = tuple(("c", "L", i) for i in range(4))


def _leaf_links(n: int) -> tuple:
    return _LEAF_LINKS[:n] if n <= len(_LEAF_LINKS) else tuple(("c", "L", i) for i in range(n))


def _analyze_theory_axiom(node: Proof, theory) -> Step:
    c = node.conclusion
    if not c.succ:
        _fail(node, "theory axiom concludes a formula on the right")
    name, pairs = node.rule.axiom, node.rule.subst
    try:
        phis, psi, _ = theory.instance(name, pairs)
    except TheoryError as e:
        _fail(node, str(e))
    theory.validate_instantiation(name, pairs, psi)
    if not node.premises:
        if not _same(c.ant, phis) or not _same(c.succ, (psi,)):
            _fail(node, "leaf does not match the instantiated schema")
        return Step(psi, ("c", "R", 0), _leaf_links(len(phis)), "axiom-link")
    if len(node.premises) != len(phis):
        _fail(node, f"applied form needs {len(phis)} premises")
    consumed = []
    ant = succ = ()
    for k, q in enumerate(node.premises):
        qs = q.conclusion.succ
        i = _first_index(qs, phis[k])
        if i < 0:
            _fail(node, f"premise {k} must prove {formula_str(phis[k])} on the right")
        consumed.append((k, "R", i))
        ant += q.conclusion.ant
        succ += qs[:i] + qs[i + 1 :]
    if not _same(ant, c.ant) or not _same(succ + (psi,), c.succ):
        _fail(node, "applied form context mismatch")
    return Step(psi, ("c", "R", _first_index(c.succ, psi)), tuple(consumed), "axiom-link")


# The analysis of each rule that is not a logical one (those: _analyze_intro).
_ANALYZERS = {
    "LogicalAxiom": _analyze_logical_axiom,
    "EqOracle": _analyze_eq_oracle,
    "TheoryAxiom": _analyze_theory_axiom,
    "Cut": _analyze_cut,
    "WeakenLeft": _analyze_weakening,
    "WeakenRight": _analyze_weakening,
    "ContractLeft": _analyze_contraction,
    "ContractRight": _analyze_contraction,
}


# ---------------------------------------------------------------------------
# Checking and size accounting


class SizeStats(NamedTuple):
    """Lines, cuts and contractions of a proof's expanded tree."""

    lines: int
    cut_count: int
    contraction_count: int


def _iter_unique_nodes(p: Proof) -> list:
    """Distinct Proof objects below p, premises before conclusions, the
    last premise's subproof first, p last: the one walk over a proof DAG,
    which fixes the node `check` analyzes first and how `eliminate_cuts`
    numbers its cuts.  Written out on an explicit stack, it costs about
    half a `lang.fold` per node."""
    done: set = set()
    order = []
    stack = [p]  # nodes entered, not finished: a path down from p
    while stack:
        node = stack[-1]
        for q in node.premises[::-1]:  # enter the last premise not finished
            if q not in done:
                stack.append(q)
                break
        else:
            stack.pop()
            done.add(node)
            order.append(node)
    return order


def _size_of(nodes: list) -> SizeStats:
    """Tree lines, cuts and contractions of the last node of nodes, a list
    of distinct nodes with every premise before its conclusion.  A
    subproof shared by several premises counts once per occurrence, as in
    the expanded tree."""
    sizes: dict = {}  # node -> (lines, cuts, contractions) of its tree
    for node in nodes:
        tag = node.rule.tag
        lines, cuts = 1, int(tag == "Cut")
        contractions = int(tag in ("ContractLeft", "ContractRight"))
        for q in node.premises:  # a premise used twice counts twice
            sub_lines, sub_cuts, sub_contractions = sizes[q]
            lines += sub_lines
            cuts += sub_cuts
            contractions += sub_contractions
        sizes[node] = (lines, cuts, contractions)
    return SizeStats(lines=lines, cut_count=cuts, contraction_count=contractions)


def size(p: Proof) -> SizeStats:
    """Tree lines, cuts and contractions of p, as exact ints, counted over
    the distinct nodes of `_iter_unique_nodes`."""
    return _size_of(_iter_unique_nodes(p))


def _wellformed(root, sig: Signature, memo: set):
    """Check every symbol below root against sig, in pre-order; memo holds
    the (interned) terms and formulas already checked."""
    stack = [root]
    while stack:
        f = stack.pop()
        if f in memo:
            continue
        memo.add(f)
        cls = f.__class__
        if cls is Var:
            continue
        if cls is Const:
            if f.sym not in sig.constants:
                raise CheckError(f"constant {f.sym!r} not in signature {sig.name}")
            continue
        if cls is App:
            if sig.functions.get(f.sym) != len(f.args):
                raise CheckError(f"function {f.sym!r} does not fit signature {sig.name}")
        elif cls is Atom:
            if sig.predicates.get(f.pred) != len(f.args):
                raise CheckError(f"predicate {f.pred!r} does not fit signature {sig.name}")
        stack.extend(reversed(_children(f)))


def check(p: Proof, theory) -> SizeStats:
    """Validate every inference in p against the theory; return sizes.

    Nodes are checked in the order of `_iter_unique_nodes`, each distinct
    node once, so the first error reported is that of the first bad node
    in that order, and no node after it is analyzed.  Each distinct term
    and formula is checked against the signature once.
    """
    nodes = _iter_unique_nodes(p)
    sig = theory.signature
    wf_memo: set = set()
    for node in nodes:
        c = node.conclusion
        for f in c.ant + c.succ:
            if f not in wf_memo:
                _wellformed(f, sig, wf_memo)
        rule = node.rule
        if rule.term is not None and rule.term not in wf_memo:
            _wellformed(rule.term, sig, wf_memo)
        if rule.subst is not None:
            for _, t in rule.subst:
                if t not in wf_memo:
                    _wellformed(t, sig, wf_memo)
        analyze(node, theory)
    return _size_of(nodes)


# ---------------------------------------------------------------------------
# Serialization: the proof DAG as flat, deterministic JSON
#
#   {"format": "feaslab-dag/1",
#    "exprs": [...],   every distinct term and formula, once
#    "nodes": [...]}   every distinct proof node, once; the root comes last
#
# An expression is a list headed by its kind:
#
#   ["var", name]  ["const", sym]  ["app", sym, t1, ..., tk]
#   ["atom", pred, t1, ..., tk]  ["not", f]  ["and" | "or" | "imp", f, g]
#   ["forall" | "exists", name, f]
#
# and a node is an object {"rule": tag, <rule data>, "ant": [f, ...],
# "succ": [f, ...], "premises": [n, ...]}, whose rule data is "axiom" and
# "subst" (variable -> t) for TheoryAxiom, "term": t for ForallLeft and
# ExistsRight, "eigen": name for ForallRight and ExistsLeft, and nothing for
# the other rules.  t, f and n are indices of earlier entries: a term, a
# formula, a node.  A file's size tracks the DAG, not the tree, and reading
# it builds each entry from its parts without the text parser.
#
# The writer formats each line itself: strings through the JSON encoder's
# own escaping under its default ensure_ascii=True, ints through str.  So a
# file is byte for byte what one encoder call per entry, with separators
# (",", ":"), would write, without the cost of such a call.  The reader
# checks each list of references (a node's ant, succ and premises, an
# expression's parts) in one pass; the first bad reference gets the message
# `_ref` gives for it alone.

FORMAT = "feaslab-dag/1"

# each expression class's kind, quoted
_EXPR_KINDS = {
    cls: _quote(kind)
    for cls, kind in (
        (Var, "var"),
        (Const, "const"),
        (App, "app"),
        (Atom, "atom"),
        (Not, "not"),
        (And, "and"),
        (Or, "or"),
        (Implies, "imp"),
        (Forall, "forall"),
        (Exists, "exists"),
    )
}
_CONNECTIVE_FACTORIES = {"not": neg, "and": conj, "or": disj, "imp": imp}

# The fields of a node of each rule: four, and the rule data for the rules
# that carry some.
_RULE_DATA = {
    "TheoryAxiom": ("axiom", "subst"),
    **{tag: ("term",) for tag in _TERM_RULES},
    **{tag: ("eigen",) for tag in _EIGEN_RULES},
}
_NODE_FIELDS = {
    tag: frozenset(("rule", "ant", "succ", "premises") + _RULE_DATA.get(tag, ()))
    for tag in RULE_TAGS
}


def _expr_entry(x, ids: list) -> str:
    cls = x.__class__
    if cls is Var:
        name = x.name
    elif cls is Const or cls is App:
        name = x.sym
    elif cls is Atom:
        name = x.pred
    elif isinstance(x, Quant):
        name = x.v
    else:
        return f"[{','.join([_EXPR_KINDS[cls], *ids])}]"
    return f"[{','.join([_EXPR_KINDS[cls], _quote(name), *ids])}]"


def serialize_proof(p: Proof) -> str:
    """The text of p's proof file, without its final newline: one line per
    distinct term, formula and proof node."""
    exprs: list = []
    expr_ids: dict = {}
    nodes: list = []

    def expr_step(x, ids):
        exprs.append(_expr_entry(x, ids))
        return str(len(exprs) - 1)

    def ref(x) -> str:
        return expr_ids.get(x) or fold(x, expr_step, expr_ids)

    def node_step(node, premises):
        rule = node.rule
        data = ""
        if rule.subst is not None:
            # a JSON object names each variable once: one that a hand-built
            # rule repeats, which check refuses, keeps its last term
            ids = {v: ref(t) for v, t in rule.subst}
            subst = ",".join([f"{_quote(v)}:{i}" for v, i in ids.items()])
            data = f',"axiom":{_quote(rule.axiom)},"subst":{{{subst}}}'
        elif rule.term is not None:
            data = f',"term":{ref(rule.term)}'
        elif rule.eigen is not None:
            data = f',"eigen":{_quote(rule.eigen)}'
        ant = ",".join([ref(f) for f in node.conclusion.ant])
        succ = ",".join([ref(f) for f in node.conclusion.succ])
        nodes.append(
            f'{{"rule":{_quote(rule.tag)}{data},"ant":[{ant}],"succ":[{succ}],'
            f'"premises":[{",".join(premises)}]}}'
        )
        return str(len(nodes) - 1)

    fold(p, node_step, {}, children=attrgetter("premises"))
    return (
        f'{{"format":{_quote(FORMAT)},\n"exprs":[\n'
        + ",\n".join(exprs)
        + '\n],\n"nodes":[\n'
        + ",\n".join(nodes)
        + "\n]}"
    )


def proof_to_file(p: Proof, path: str):
    # the text is built first, so a failure leaves no partial file behind
    text = serialize_proof(p) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_proof(text: str, sig: Signature) -> Proof:
    """Read a proof file's text under sig."""
    try:
        data = json.loads(text)
    except RecursionError:
        # json.loads recurses once per nesting level; a flat file nests four
        raise KernelError(
            f"not a proof file: it nests too deeply; this reader knows {FORMAT!r}"
        ) from None
    except ValueError as e:
        raise KernelError(f"proof file is not valid JSON: {e}") from None
    if not (isinstance(data, dict) and "format" in data):
        raise KernelError(f"not a proof file: it names no format; this reader knows {FORMAT!r}")
    return _proof_from_flat(data, sig)


def proof_from_file(path: str, sig: Signature) -> Proof:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise KernelError(f"proof file is not UTF-8: {e}") from None
    return parse_proof(text, sig)


_JSON_KIND = {str: "string", list: "list", dict: "object"}


def _field(d: dict, key: str, kind: type):
    """d[key], which must be a `kind`."""
    x = d[key]
    if not isinstance(x, kind):
        raise KernelError(f"proof field {key!r} must be a JSON {_JSON_KIND[kind]}")
    return x


_SORTS = {Term: "term", Formula: "formula", Proof: "node"}


def _ref(table: list, r, sort: type, at: str):
    """table[r], which must be an earlier entry of the given sort."""
    if type(r) is not int or not 0 <= r < len(table):
        raise KernelError(f"{at}: {r!r:.20} is not the index of an earlier entry")
    x = table[r]
    if not isinstance(x, sort):
        raise KernelError(f"{at}: entry {r} is not a {_SORTS[sort]}")
    return x


def _refs(table: list, rs: list, sort: type, at: str) -> list:
    """[table[r] for r in rs], checked as `_ref` checks each r in one pass;
    the first bad r raises `_ref`'s message."""
    n = len(table)
    out = []
    for r in rs:
        if type(r) is int and 0 <= r < n:
            x = table[r]
            if isinstance(x, sort):
                out.append(x)
                continue
        _ref(table, r, sort, at)
    return out


def _name(x, sig: Signature, at: str) -> str:
    if not (isinstance(x, str) and is_variable_name(x, sig)):
        raise KernelError(f"{at}: {x!r:.20} is not a variable name in signature {sig.name}")
    return x


def _expr_from_flat(e, table: list, sig: Signature, at: str):
    if not (isinstance(e, list) and e and isinstance(e[0], str)):
        raise KernelError(f"{at} must be a JSON list headed by its kind")
    kind, rest = e[0], e[1:]
    n = len(rest)
    if kind == "var" and n == 1:
        return var(_name(rest[0], sig, at))
    if kind in ("forall", "exists") and n == 2:
        body = _ref(table, rest[1], Formula, at)
        return (forall if kind == "forall" else exists)(_name(rest[0], sig, at), body)
    if kind == "const" and n == 1:
        if not (isinstance(rest[0], str) and rest[0] in sig.constants):
            raise KernelError(f"{at}: {rest[0]!r:.20} is not a constant of {sig.name}")
        return const(rest[0])
    if kind in ("app", "atom") and n >= 1:
        arities = sig.functions if kind == "app" else sig.predicates
        sym = rest[0]
        what = "function" if kind == "app" else "predicate"
        if not (isinstance(sym, str) and sym in arities):
            raise KernelError(f"{at}: {sym!r:.20} is not a {what} of {sig.name}")
        if n - 1 != arities[sym]:
            raise KernelError(f"{at}: {sym} expects {arities[sym]} arguments, got {n - 1}")
        args = _refs(table, rest[1:], Term, at)
        return app(sym, *args) if kind == "app" else atom(sym, *args)
    make = _CONNECTIVE_FACTORIES.get(kind)
    if make is not None and n == (1 if kind == "not" else 2):
        return make(*_refs(table, rest, Formula, at))
    raise KernelError(f"{at}: no expression of kind {kind!r:.20} has {n} parts")


def _node_from_flat(d, exprs: list, proofs: list, sig: Signature, at: str) -> Proof:
    if not isinstance(d, dict):
        raise KernelError(f"{at} must be a JSON object")
    tag = d.get("rule")
    fields = _NODE_FIELDS.get(tag) if isinstance(tag, str) else None
    if fields is None:
        raise KernelError(f"{at}: unknown rule tag {tag!r:.40}")
    if d.keys() != fields:
        raise KernelError(f"{at}: a {tag} node has exactly the fields {sorted(fields)}")
    axiom = subst = term = eigen = None
    if tag == "TheoryAxiom":
        axiom = _field(d, "axiom", str)
        pairs = _field(d, "subst", dict).items()
        subst = tuple(sorted((v, _ref(exprs, r, Term, at)) for v, r in pairs))
    elif "term" in d:
        term = _ref(exprs, d["term"], Term, at)
    elif "eigen" in d:
        eigen = _name(d["eigen"], sig, at)
    concl = Sequent(
        _refs(exprs, _field(d, "ant", list), Formula, at),
        _refs(exprs, _field(d, "succ", list), Formula, at),
    )
    premises = tuple(_refs(proofs, _field(d, "premises", list), Proof, at))
    rule = _PLAIN_RULES.get(tag) or Rule(tag, axiom=axiom, subst=subst, term=term, eigen=eigen)
    return Proof(concl, rule, premises)


def _proof_from_flat(data: dict, sig: Signature) -> Proof:
    if set(data) != {"format", "exprs", "nodes"}:
        raise KernelError("a flat proof file has exactly the fields format, exprs and nodes")
    if data["format"] != FORMAT:
        raise KernelError(f"unknown proof format; this reader knows {FORMAT!r}")
    exprs: list = []
    for i, e in enumerate(_field(data, "exprs", list)):
        exprs.append(_expr_from_flat(e, exprs, sig, f"expression {i}"))
    proofs: list = []
    for i, d in enumerate(_field(data, "nodes", list)):
        proofs.append(_node_from_flat(d, exprs, proofs, sig, f"node {i}"))
    if not proofs:
        raise KernelError("proof file has no nodes")
    return proofs[-1]


# ---------------------------------------------------------------------------
# Proof-level substitution (used by cut elimination at quantifier steps)


def _binder_scope(node: Proof):
    return (f for q in node.premises for f in q.conclusion.ant + q.conclusion.succ)


def _proof_subst_children(pair):
    node, key = pair
    if not key:
        return ()
    if node.rule.eigen is not None:
        key = rebind(node.rule.eigen, key, _binder_scope(node))[1]
    return tuple((q, key) for q in node.premises)


def _proof_subst_step(formula_memo: dict, pair, premises: list) -> Proof:
    node, key = pair
    if not key:
        return node
    rule = node.rule
    if rule.eigen is not None:
        e = rebind(rule.eigen, key, _binder_scope(node))[0]
        if e != rule.eigen:
            rule = Rule(rule.tag, eigen=e)
    elif rule.term is not None:
        rule = Rule(rule.tag, term=subst_key(rule.term, key, formula_memo))
    elif rule.subst is not None:
        rule = Rule(
            rule.tag,
            axiom=rule.axiom,
            subst=tuple((v, subst_key(t, key, formula_memo)) for v, t in rule.subst),
        )
    concl = Sequent(
        tuple(subst_key(f, key, formula_memo) for f in node.conclusion.ant),
        tuple(subst_key(f, key, formula_memo) for f in node.conclusion.succ),
    )
    return Proof(concl, rule, tuple(premises))


def substitute_proof(
    p: Proof, mapping: dict, memo: Optional[dict] = None, formula_memo: Optional[dict] = None
) -> Proof:
    """Apply a variable -> term substitution throughout a proof.

    Eigenvariables bind their subtree as quantifiers bind their body
    (`lang.rebind`): mapped names stop at the binding node, and an
    eigenvariable clashing with an incoming term is renamed in the same
    pass.  The proof is folded over (node, key) pairs, key the sorted
    mapping items, so the result is a function of the pair and `memo`
    may be shared by many calls.  Every formula and term of a node takes
    the items of the node's key that act on it (`lang.subst_key`), and
    `formula_memo` keeps their (node, key) pairs; it too may be shared.
    A new memo stands for each one not given.
    """
    key = tuple(sorted(mapping.items()))
    memo = {} if memo is None else memo
    formula_memo = {} if formula_memo is None else formula_memo
    step = partial(_proof_subst_step, formula_memo)
    return fold((p, key), step, memo, _proof_subst_children)
