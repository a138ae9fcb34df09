"""The flat proof-file writer with one JSON encoder call per entry, kept as
a test oracle.

`kernel.serialize_proof` formats each line itself.  This writer builds each
entry as a list or dict and hands it to a JSON encoder with separators
(",", ":"), as the kernel's writer once did; the two must write the same
bytes for every proof, whatever characters its names hold.
"""

import json
from operator import attrgetter

from feaslab.kernel import FORMAT, Proof
from feaslab.lang import And, App, Atom, Const, Exists, Forall, Implies, Not, Or, Quant, Var, fold

_dumps = json.JSONEncoder(separators=(",", ":")).encode

_EXPR_KINDS = {
    Var: "var",
    Const: "const",
    App: "app",
    Atom: "atom",
    Not: "not",
    And: "and",
    Or: "or",
    Implies: "imp",
    Forall: "forall",
    Exists: "exists",
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
        return _dumps([_EXPR_KINDS[cls], *ids])
    return _dumps([_EXPR_KINDS[cls], name, *ids])


def serialize_flat(p: Proof) -> str:
    """p's proof file without its final newline, one encoder call per entry."""
    exprs: list = []
    expr_ids: dict = {}
    nodes: list = []

    def expr_step(x, ids):
        exprs.append(_expr_entry(x, ids))
        return len(exprs) - 1

    def ref(x) -> int:
        return fold(x, expr_step, expr_ids)

    def node_step(node, premises):
        rule = node.rule
        d = {"rule": rule.tag}
        if rule.subst is not None:
            d["axiom"] = rule.axiom
            d["subst"] = {v: ref(t) for v, t in rule.subst}
        elif rule.term is not None:
            d["term"] = ref(rule.term)
        elif rule.eigen is not None:
            d["eigen"] = rule.eigen
        d["ant"] = [ref(f) for f in node.conclusion.ant]
        d["succ"] = [ref(f) for f in node.conclusion.succ]
        d["premises"] = premises
        nodes.append(_dumps(d))
        return len(nodes) - 1

    fold(p, node_step, {}, children=attrgetter("premises"))
    return (
        f'{{"format":{_dumps(FORMAT)},\n"exprs":[\n'
        + ",\n".join(exprs)
        + '\n],\n"nodes":[\n'
        + ",\n".join(nodes)
        + "\n]}"
    )
