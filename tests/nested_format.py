"""The nested proof-file writer, kept as a test oracle.

Before proof files became flat DAGs, each file was one JSON object per
proof occurrence, in a fixed field order

    {"rule": ..., "instantiation": {...}?, "conclusion": "...", "premises": [...]}

with every conclusion, witness and substitution term as text.  The kernel
no longer reads such files.  The frozen digests of the generated and cut-free
proofs hash this writer's bytes, so they keep pinning the proofs
themselves across changes of the file format.
"""

import json
from typing import Optional

from feaslab.kernel import Proof, Rule, _iter_unique_nodes
from feaslab.lang import Printer


def proof_printer(p: Proof) -> Printer:
    """One printer for the conclusions and witness terms of every node of p,
    so that each formula and repeated subterm is rendered once."""
    roots = []
    for node in _iter_unique_nodes(p):
        roots += node.conclusion.ant
        roots += node.conclusion.succ
        if node.rule.term is not None:
            roots.append(node.rule.term)
        if node.rule.subst:
            roots += (t for _, t in node.rule.subst)
    return Printer(roots)


def _rule_inst_json(rule: Rule, printer: Printer) -> Optional[str]:
    if rule.tag == "TheoryAxiom":
        pairs = ",".join(
            f"{json.dumps(v)}:{json.dumps(printer.text(t))}" for v, t in rule.subst
        )
        return f'{{"axiom":{json.dumps(rule.axiom)},"subst":{{{pairs}}}}}'
    if rule.term is not None:
        return f'{{"term":{json.dumps(printer.text(rule.term))}}}'
    if rule.eigen is not None:
        return f'{{"eigen":{json.dumps(rule.eigen)}}}'
    return None


def serialize_nested(p: Proof) -> str:
    """p in the nested format, each shared subproof once per occurrence."""
    printer = proof_printer(p)
    out = []
    stack = [("node", p)]
    while stack:
        op, x = stack.pop()
        if op == "txt":
            out.append(x)
            continue
        inst = _rule_inst_json(x.rule, printer)
        head = f'{{"rule":{json.dumps(x.rule.tag)},'
        if inst is not None:
            head += f'"instantiation":{inst},'
        head += f'"conclusion":{json.dumps(printer.sequent(x.conclusion))},"premises":['
        out.append(head)
        tail = [("txt", "]}")]
        parts = []
        for i, q in enumerate(x.premises):
            if i:
                parts.append(("txt", ","))
            parts.append(("node", q))
        stack.extend(reversed(parts + tail))
    return "".join(out)
