import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from feaslab import kernel
from feaslab.cutelim import _State, _reapply, eliminate_cuts
from feaslab.flowgraph import build_flow_graph, emit_dot
from feaslab.kernel import (
    FORMAT,
    RULE_TAGS,
    CheckError,
    KernelError,
    Proof,
    Rule,
    _iter_unique_nodes,
    analyze,
    check,
    contract_left,
    contract_right,
    cut,
    eq_leaf,
    forall_left,
    forall_right,
    implies_left,
    implies_right,
    introduce,
    logical_axiom,
    parse_proof,
    proof_from_file,
    proof_to_file,
    serialize_proof,
    size,
    step_edges,
    substitute_proof,
    theory_apply,
    theory_leaf,
    weaken_left,
    weaken_right,
)
from feaslab.lang import (
    Sequent,
    fold as lang_fold,
    app,
    atom,
    const,
    forall,
    formula_str,
    free_vars,
    fresh_name,
    imp,
    int_term,
    is_variable_name,
    mul,
    neg,
    parse_formula,
    subst_formula,
    subst_term,
    var,
)
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
from feaslab.semantics import Mat2, mat2
from feaslab.theories import (
    Theory,
    TheoryError,
    arith_feasibility,
    group_feasibility,
    rational_feasibility,
)
from fractions import Fraction

from flat_format import serialize_flat
from nested_format import serialize_nested

TH = arith_feasibility()
SIG = TH.signature


def F(t):
    return atom("F", t)


def test_logical_axiom_shape():
    a = F(const("0"))
    p = logical_axiom(a)
    assert p.conclusion == Sequent((a,), (a,))
    assert p.rule.tag == "LogicalAxiom"
    check(p, TH)


def test_cut_composition():
    a = F(const("0"))
    b = F(int_term(1, SIG))
    p1 = theory_leaf(TH, "F(0)", {})
    p2 = theory_leaf(TH, "F:successor", {"x": const("0")})
    q = cut(p1, p2, a)
    assert q.conclusion == Sequent((), (b,))
    stats = check(q, TH)
    assert stats.lines == 3 and stats.cut_count == 1


def test_contract_needs_two_occurrences():
    a = F(const("0"))
    p = logical_axiom(a)
    with pytest.raises(KernelError):
        contract_left(p, a)  # only one occurrence on the left
    w = weaken_left(p, a)
    c = contract_left(w, a)
    assert c.conclusion == Sequent((a,), (a,))
    check(c, TH)


def test_forall_right_eigen_violation():
    x = var("x")
    body = imp(F(x), F(mul(x, x)))
    qf = forall("x", body)
    # premise still mentions the eigenvariable in context: rejected
    leaf = logical_axiom(F(var("a")))
    step = implies_right(weaken_left(leaf, F(var("a"))), F(var("a")), F(var("a")))
    with pytest.raises(KernelError):
        forall_right(weaken_left(step, F(var("a"))), qf, "a")


def test_introduce_refuses_what_its_rule_cannot_build():
    a, b = F(const("0")), F(var("a"))
    ax = logical_axiom(a)
    with pytest.raises(KernelError, match="Cut is not a logical rule"):
        introduce(Rule("Cut"), (ax, ax), a)
    with pytest.raises(KernelError, match="AndLeft cannot introduce F"):
        introduce(Rule("AndLeft"), (ax,), imp(a, a))
    with pytest.raises(KernelError, match="not present"):
        introduce(Rule("ImpliesRight"), (ax,), imp(a, b))
    qf = forall("x", F(var("x")))
    with pytest.raises(KernelError, match="eigenvariable a occurs free"):
        introduce(Rule("ForallRight", eigen="a"), (weaken_left(logical_axiom(b), b),), qf)
    p = introduce(Rule("ImpliesRight"), (weaken_left(ax, b),), imp(b, a))
    assert p.conclusion == Sequent((a,), (imp(b, a),))


def test_quantifier_round_trip_rules():
    x = var("x")
    qf = forall("x", imp(F(x), F(mul(x, x))))
    la1 = logical_axiom(F(const("0")))
    la2 = logical_axiom(F(mul(const("0"), const("0"))))
    il = implies_left(la1, la2, F(const("0")), F(mul(const("0"), const("0"))))
    fl = forall_left(il, qf, const("0"))
    assert qf in fl.conclusion.ant
    check(fl, TH)


def test_eq_oracle_accepts_true_equations():
    p = eq_leaf(mul(int_term(2, SIG), int_term(2, SIG)), int_term(4, SIG))
    check(p, TH)


def test_eq_oracle_rejects_false_equations():
    p = eq_leaf(mul(int_term(2, SIG), int_term(2, SIG)), int_term(5, SIG))
    with pytest.raises(CheckError):
        check(p, TH)


def test_theory_leaf_validates_substitution():
    with pytest.raises(TheoryError):
        theory_leaf(TH, "F:plus", {"x": const("0")})  # missing y
    with pytest.raises(TheoryError):
        theory_leaf(TH, "no-such-axiom", {})


def test_check_rejects_an_undefined_succedent():
    # the substitutions are defined, the conclusions F(inv(0)) and
    # F(1 + inf) are not
    th = rational_feasibility()
    zero = const("0")
    inv0 = cut(theory_leaf(th, "F(0)", {}), theory_leaf(th, "F:invert", {"x": zero}), atom("F", zero))
    with pytest.raises(TheoryError) as exc:
        check(inv0, th)
    assert str(exc.value) == "undefined operation in instantiation of F:invert: 1/0 is undefined"
    sum_inf = theory_leaf(th, "F:plus", {"x": const("1"), "y": const("inf")})
    with pytest.raises(TheoryError) as exc:
        check(sum_inf, th)
    assert str(exc.value) == "undefined operation in instantiation of F:plus: sum involving inf is undefined"


def test_theory_apply_premise_count():
    p0 = theory_leaf(TH, "F(0)", {})
    with pytest.raises(KernelError):
        theory_apply(TH, "F:plus", {"x": const("0"), "y": const("0")}, (p0,))


def test_check_rejects_tampered_conclusion():
    r = gen_square_cut(2)
    # graft a foreign formula into the root conclusion
    bogus = Sequent(r.proof.conclusion.ant, r.proof.conclusion.succ + (F(const("0")),))
    fake = Proof(bogus, r.proof.rule, r.proof.premises)
    with pytest.raises(CheckError):
        check(fake, r.theory)


def test_check_rejects_wrong_rule_tag():
    a = F(const("0"))
    p = logical_axiom(a)
    # same arity, wrong rule: an EqOracle leaf must conclude an equation
    relabeled = Proof(p.conclusion, Rule("EqOracle"), ())
    with pytest.raises(KernelError):
        check(relabeled, TH)
    # arity mismatches are refused at construction time
    with pytest.raises(KernelError):
        Proof(p.conclusion, Rule("WeakenLeft"), ())


def test_check_names_the_first_foreign_symbol():
    # symbols are checked in pre-order, left to right, at any depth
    t = app("+", const("c"), const("d"))
    for _ in range(5000):
        t = app("s", t)
    with pytest.raises(CheckError, match="constant 'c' not in signature"):
        check(logical_axiom(F(t)), TH)


def test_check_reports_the_first_bad_node_in_visiting_order(monkeypatch):
    # two bad axioms, one under each premise of a cut: check names the one
    # under the last premise, the first bad node _iter_unique_nodes reaches
    a, b, c, d = (F(int_term(i, SIG)) for i in range(4))
    bad_left = Proof(Sequent((a,), (b,)), Rule("LogicalAxiom"))
    bad_right = Proof(Sequent((b,), (c,)), Rule("LogicalAxiom"))
    root = cut(weaken_left(bad_left, d), weaken_left(bad_right, d), b)
    order = list(_iter_unique_nodes(root))
    first_bad = None
    for node in order:
        try:
            analyze(node, TH)
        except CheckError as e:
            first_bad = (node, str(e))
            break
    assert first_bad[0] is bad_right
    seen = []
    monkeypatch.setattr(kernel, "analyze", lambda node, th: seen.append(node) or analyze(node, th))
    with pytest.raises(CheckError) as info:
        check(root, TH)
    assert str(info.value) == first_bad[1]
    assert str(info.value).startswith("LogicalAxiom at F(s(0)) |- F(s(s(0))): ")
    # the walk stops there: no node after it in that order is analyzed
    assert seen == order[: order.index(bad_right) + 1]


def test_size_counts():
    r = gen_square_cut(3)
    st = size(r.proof)
    assert st.lines == 35
    assert st.cut_count == 11
    assert st.contraction_count == 3


def expanded_counts(p):
    """(lines, cuts, contractions) counted once per occurrence by expanding
    the tree on an explicit stack: the oracle for `size`."""
    lines = cuts = contractions = 0
    stack = [p]
    while stack:
        node = stack.pop()
        lines += 1
        cuts += node.rule.tag == "Cut"
        contractions += node.rule.tag in ("ContractLeft", "ContractRight")
        stack.extend(node.premises)
    return lines, cuts, contractions


def reference_order(p):
    """The distinct nodes below p by a recursive post-order that enters
    the last premise first: the oracle for `_iter_unique_nodes`."""
    seen, out = set(), []

    def visit(node):
        if node not in seen:
            for q in node.premises[::-1]:
                visit(q)
            seen.add(node)
            out.append(node)

    visit(p)
    return out


def assert_walk_and_counts(p, theory):
    order = _iter_unique_nodes(p)
    assert order == reference_order(p)
    position = {node: i for i, node in enumerate(order)}
    assert len(position) == len(order) and order[-1] is p
    assert all(position[q] < i for i, node in enumerate(order) for q in node.premises)
    assert tuple(size(p)) == tuple(check(p, theory)) == expanded_counts(p)


def shared_dag(steps):
    """A proof of F(0) |- F(0) built by steps, each of which takes its
    premises from the proofs built before it, so that one subproof can be
    used twice at several depths."""
    a = F(const("0"))
    built = [logical_axiom(a)]
    for kind, i, j in steps:
        p, q = built[i % len(built)], built[j % len(built)]
        if kind == "axiom":
            built.append(logical_axiom(a))
        elif kind == "cut":
            built.append(cut(p, q, a))
        elif kind == "contract_left":
            built.append(contract_left(weaken_left(p, a), a))
        else:
            built.append(contract_right(weaken_right(p, a), a))
    return built[-1]


_dag_steps = st.lists(
    st.tuples(
        st.sampled_from(["axiom", "cut", "contract_left", "contract_right"]),
        st.integers(0, 99),
        st.integers(0, 99),
    ),
    max_size=10,
)


def test_size_matches_tree_expansion(small_proofs):
    for p, theory in small_proofs:
        assert_walk_and_counts(p, theory)


@settings(max_examples=200, deadline=None)
@given(_dag_steps)
def test_size_matches_tree_expansion_on_shared_dags(steps):
    assert_walk_and_counts(shared_dag(steps), TH)


def test_size_counts_shared_subtrees_per_occurrence():
    a = F(const("0"))
    ax = logical_axiom(a)
    c = cut(ax, ax, a)  # same object twice: a |- a
    assert size(c).lines == 3
    k = contract_left(weaken_left(c, a), a)  # a |- a, with c inside
    top = cut(k, k, a)  # k twice, so c twice
    assert len(list(_iter_unique_nodes(top))) == 5
    assert tuple(size(top)) == tuple(check(top, TH)) == expanded_counts(top) == (11, 3, 2)


def test_serialize_round_trip_families():
    A = mat2(2, 1, 1, 1)
    reports = [
        gen_unary(4),
        gen_square_cut(3),
        gen_quantifier(1),
        gen_distorted(2),
        gen_matrix_power(A, 1),
        gen_rational_orbit(A, Fraction(0), 1),
    ]
    for r in reports:
        text = serialize_proof(r.proof)
        back = parse_proof(text, r.theory.signature)
        assert back.conclusion == r.proof.conclusion
        check(back, r.theory)
        assert serialize_proof(back) == text


def test_proof_file_round_trip(tmp_path):
    r = gen_square_cut(2)
    path = tmp_path / "p.json"
    proof_to_file(r.proof, str(path))
    back = proof_from_file(str(path), r.theory.signature)
    assert back.conclusion == r.proof.conclusion
    check(back, r.theory)


_FAMILIES = {
    "unary": (gen_unary, 40),
    "geometric": (gen_geometric, 6),
    "square-cut": (gen_square_cut, 6),
    "quantifier": (gen_quantifier, 3),
    "group-power": (lambda n: gen_group_power("x", n, mode="squaring"), 6),
    "distorted": (gen_distorted, 5),
    "matrix-power": (lambda n: gen_matrix_power(mat2(2, 1, 1, 1), n, mode="quantifier"), 2),
    "rational-orbit": (lambda n: gen_rational_orbit(mat2(2, 1, 1, 1), "1/2", n), 2),
}


def _same_proofs(p: Proof, q: Proof):
    """p and q have the same rule and conclusion at every tree position."""
    stack = [(p, q)]
    while stack:
        a, b = stack.pop()
        assert a.rule == b.rule
        assert a.conclusion.ant == b.conclusion.ant
        assert a.conclusion.succ == b.conclusion.succ
        assert len(a.premises) == len(b.premises)
        stack.extend(zip(a.premises, b.premises))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), data=st.data())
def test_flat_file_round_trip(family, data):
    gen, top = _FAMILIES[family]
    r = gen(data.draw(st.integers(1 if family == "geometric" else 0, top), label="n"))
    _same_proofs(r.proof, parse_proof(serialize_proof(r.proof), r.theory.signature))


# Names a library caller may give: quotes, backslashes, control characters
# and non-ASCII need escaping, and only some of them are variable names.
_ODD_NAMES = st.sampled_from(['a"b', "a\\b", "\x00", "t\n", "\x7f", "é", "\u2028", "😀", "x y"])
_FLAT_NAMES = st.sampled_from(["x", "y", "a'", "_z"]) | _ODD_NAMES | st.text(min_size=1, max_size=3)


@st.composite
def _odd_proofs(draw):
    """A proof over SIG's symbols whose variable, eigenvariable, axiom and
    substitution names are drawn."""
    names = draw(st.lists(_FLAT_NAMES, min_size=1, max_size=3, unique=True))
    name = st.sampled_from(names)
    terms = st.recursive(
        st.builds(var, name) | st.just(const("0")),
        lambda t: st.builds(lambda u: app("s", u), t) | st.builds(mul, t, t),
        max_leaves=4,
    )
    formulas = st.recursive(
        st.builds(F, terms),
        lambda f: st.builds(imp, f, f) | st.builds(forall, name, f) | st.builds(neg, f),
        max_leaves=4,
    )
    nodes: list = []
    for _ in range(draw(st.integers(1, 5))):
        tag = draw(st.sampled_from(sorted(RULE_TAGS)))
        arity = kernel._ARITY[tag]
        if arity is None:
            arity = draw(st.integers(0, 2))
        if arity and not nodes:
            tag, arity = "LogicalAxiom", 0
        if tag == "TheoryAxiom":
            subst = draw(st.dictionaries(name | st.text(max_size=2), terms, max_size=2))
            rule = Rule(tag, axiom=draw(_FLAT_NAMES), subst=tuple(sorted(subst.items())))
        elif tag in kernel._TERM_RULES:
            rule = Rule(tag, term=draw(terms))
        elif tag in kernel._EIGEN_RULES:
            rule = Rule(tag, eigen=draw(name))
        else:
            rule = Rule(tag)
        ant, succ = (draw(st.lists(formulas, max_size=3)) for _ in "as")
        premises = [draw(st.sampled_from(nodes)) for _ in range(arity)]
        nodes.append(Proof(Sequent(ant, succ), rule, premises))
    return nodes[-1]


@settings(max_examples=150, deadline=None)
@given(p=_odd_proofs())
def test_serialize_proof_matches_the_encoder_writer(p):
    text = serialize_proof(p)
    assert text == serialize_flat(p)
    text.encode("ascii")
    data = json.loads(text)
    names = [e[1] for e in data["exprs"] if e[0] in ("var", "forall", "exists")]
    names += [d["eigen"] for d in data["nodes"] if "eigen" in d]
    if all(is_variable_name(n, SIG) for n in names):
        back = parse_proof(text, SIG)
        _same_proofs(p, back)
        assert serialize_proof(back) == text
    else:
        with pytest.raises(KernelError, match="is not a variable name"):
            parse_proof(text, SIG)


def test_a_repeated_substitution_variable_is_written_once():
    # check reads a rule that names x twice by its last pair; so does the file
    ok = theory_apply(TH, "F:successor", {"x": const("0")}, [theory_leaf(TH, "F(0)", {})])
    pairs = (("x", int_term(1, SIG)), ("x", const("0")))
    p = Proof(ok.conclusion, Rule("TheoryAxiom", axiom="F:successor", subst=pairs), ok.premises)
    text = serialize_proof(p)
    assert text == serialize_flat(p)
    assert '"subst":{"x":0}' in text
    assert parse_proof(text, SIG).rule == ok.rule


def test_a_substitution_the_file_cannot_carry_is_refused():
    # a file carries the pairs as an object, read back sorted and once each,
    # so a rule naming a variable twice or out of order would be read back
    # as another rule than the one checked
    ok = theory_apply(TH, "F:successor", {"x": const("0")}, [theory_leaf(TH, "F(0)", {})])
    twice = (("x", int_term(1, SIG)), ("x", const("0")))
    leaf = theory_leaf(TH, "F:plus", {"x": int_term(1, SIG), "y": const("0")})
    swapped = leaf.rule.subst[::-1]
    assert [v for v, _ in swapped] == ["y", "x"]
    for good, pairs in ((ok, twice), (leaf, swapped)):
        assert check(good, TH).lines > 0
        rule = Rule("TheoryAxiom", axiom=good.rule.axiom, subst=pairs)
        with pytest.raises(CheckError, match="each variable once, in sorted order"):
            check(Proof(good.conclusion, rule, good.premises), TH)


def test_a_non_string_eigenvariable_is_refused():
    # a file could not carry it, and var would refuse the name
    with pytest.raises(KernelError, match="eigenvariable 7 is not a string"):
        Rule("ForallRight", eigen=7)
    with pytest.raises(KernelError, match="eigenvariable 7 is not a string"):
        forall_right(logical_axiom(F(const("0"))), forall("a", F(const("0"))), 7)


def test_serializing_calls_no_encoder_per_entry(monkeypatch):
    # the JSON encoder runs at most once, for the format line, not once per
    # entry; fold is entered once per expression the file does not hold yet,
    # plus once for the walk over the nodes
    encodes = []
    real_iterencode = json.JSONEncoder.iterencode

    def counting_iterencode(self, o, *args, **kw):
        encodes.append(o)
        return real_iterencode(self, o, *args, **kw)

    folds = []
    real_fold = kernel.fold

    def counting_fold(x, *args, **kw):
        folds.append(x)
        return real_fold(x, *args, **kw)

    p = gen_square_cut(20).proof
    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
    monkeypatch.setattr(kernel, "fold", counting_fold)
    text = serialize_proof(p)
    monkeypatch.undo()
    assert text == serialize_flat(p)
    n_exprs = len(json.loads(text)["exprs"])
    assert len(encodes) <= 1
    assert len(folds) <= n_exprs + 1
    assert len(set(map(id, folds))) == len(folds)


def test_parse_proof_rejects_malformed():
    def flat(*nodes):
        exprs = [["const", "0"], ["atom", "F", 0]]
        return json.dumps({"format": FORMAT, "exprs": exprs, "nodes": nodes})

    leaf = {"rule": "LogicalAxiom", "ant": [1], "succ": [1], "premises": []}
    assert parse_proof(flat(leaf), SIG).conclusion == Sequent([F(const("0"))], [F(const("0"))])
    with pytest.raises(KernelError, match="unknown rule tag"):
        parse_proof(flat(dict(leaf, rule="NoSuchRule")), SIG)
    with pytest.raises(KernelError, match="Cut takes 2 premises, got 0"):
        parse_proof(flat({"rule": "Cut", "ant": [], "succ": [1], "premises": []}), SIG)
    with pytest.raises(KernelError, match="premises"):
        parse_proof(flat(leaf, {"rule": "WeakenLeft", "ant": [1, 1], "succ": [1], "premises": 0}), SIG)
    # no format named: a JSON list, or a file in the nested format
    for text in ("[1, 2]", serialize_nested(gen_unary(1).proof)):
        with pytest.raises(KernelError, match=f"names no format; this reader knows '{FORMAT}'"):
            parse_proof(text, SIG)


def test_check_error_names_a_huge_conclusion_by_its_size():
    # the end sequent of a proof of F(x^4294967296) is a tree of 2^33 nodes
    r = gen_group_power("x", 5, mode="quantifier")
    assert repr(r.proof) == "<Proof Cut: <sequent of 8589934592 nodes as a tree, 34 distinct>>"
    bad = Proof(r.proof.conclusion, Rule("WeakenRight"), (r.proof.premises[0],))
    with pytest.raises(CheckError) as exc:
        check(bad, r.theory)
    assert str(exc.value) == (
        "WeakenRight at <sequent of 8589934592 nodes as a tree, 34 distinct>: "
        "weakening context mismatch"
    )


def test_substitute_proof_keeps_validity():
    x = var("x")
    leafx = logical_axiom(F(x))
    w = implies_right(leafx, F(x), F(x))
    out = substitute_proof(w, {"x": int_term(2, SIG)})
    t = int_term(2, SIG)
    assert out.conclusion == Sequent((), (imp(F(t), F(t)),))
    check(out, TH)


def test_substitute_proof_respects_eigen_binding():
    # proof of |- forall x (F(x) -> F(x)); substituting x leaves it unchanged
    a = var("a")
    leaf = logical_axiom(F(a))
    ir = implies_right(leaf, F(a), F(a))
    qf = forall("x", imp(F(var("x")), F(var("x"))))
    fr = forall_right(ir, qf, "a")
    out = substitute_proof(fr, {"a": const("0")})
    assert out.conclusion == fr.conclusion
    check(out, TH)


def substitute_proof_recursive(p, mapping):
    """The recursive substitution the iterative one replaced, kept as its
    oracle: a fresh memo per call and per eigenvariable node."""
    mapping = dict(mapping)
    if not mapping:
        return p
    memo = {}

    def walk(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        rule = node.rule
        prems = node.premises
        if rule.eigen is not None:
            e = rule.eigen
            sub = {k: v for k, v in mapping.items() if k != e}
            if any(e in free_vars(v) for v in sub.values()):
                avoid = set(sub)
                for v in sub.values():
                    avoid |= free_vars(v)
                for q in prems:
                    for f in q.conclusion.ant + q.conclusion.succ:
                        avoid |= free_vars(f)
                e2 = fresh_name(e, avoid)
                prems = tuple(substitute_proof_recursive(q, {e: var(e2)}) for q in prems)
                rule = Rule(rule.tag, eigen=e2)
            if sub != mapping or rule is not node.rule:
                prems = tuple(substitute_proof_recursive(q, sub) for q in prems)
            else:
                prems = tuple(walk(q) for q in prems)
        else:
            prems = tuple(walk(q) for q in prems)
            if rule.term is not None:
                rule = Rule(rule.tag, term=subst_term(rule.term, mapping))
            elif rule.subst is not None:
                rule = Rule(
                    rule.tag,
                    axiom=rule.axiom,
                    subst=tuple((v, subst_term(t, mapping)) for v, t in rule.subst),
                )
        concl = Sequent(
            tuple(subst_formula(f, mapping) for f in node.conclusion.ant),
            tuple(subst_formula(f, mapping) for f in node.conclusion.succ),
        )
        out = Proof(concl, rule, prems)
        memo[id(node)] = out
        return out

    return walk(p)


# names that occur free or as eigenvariables in the small proofs, so that
# mapped terms mentioning them force eigenvariable renaming
NAMES = ["a", "x", "y", "w", "a'"]
small_terms = st.recursive(
    st.sampled_from([var(n) for n in NAMES] + [const("0"), const("e")]),
    lambda t: st.builds(lambda u: app("s", u), t) | st.builds(mul, t, t),
    max_leaves=4,
)
mappings = st.dictionaries(st.sampled_from(NAMES), small_terms, max_size=3)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_substitute_proof_matches_recursive_oracle(small_proofs, data):
    p, _ = data.draw(st.sampled_from(small_proofs))
    m1 = data.draw(mappings)
    m2 = data.draw(mappings)
    memo, formula_memo = {}, {}
    for m in (m1, m2, m1):
        want = serialize_nested(substitute_proof_recursive(p, m))
        assert serialize_nested(substitute_proof(p, m)) == want
        # memos shared by several calls give the same proofs
        assert serialize_nested(substitute_proof(p, m, memo)) == want
        assert serialize_nested(substitute_proof(p, m, None, formula_memo)) == want


def test_substitute_proof_renames_clashing_eigenvariables(small_proofs):
    # every proof with an eigenvariable a, under a mapping that brings a in
    seen = 0
    for p, _ in small_proofs:
        if not any(n.rule.eigen == "a" for n in _iter_unique_nodes(p)):
            continue
        for m in ({"x": var("a")}, {"y": app("s", var("a")), "a": const("0")}):
            out = substitute_proof(p, m)
            assert serialize_nested(out) == serialize_nested(substitute_proof_recursive(p, m))
            assert any(n.rule.eigen == "a'" for n in _iter_unique_nodes(out))
            seen += 1
    assert seen >= 4


def test_substitute_proof_handles_deep_proofs():
    # no recursion: 40,000 inferences deep below one substitution
    x = var("x")
    p = logical_axiom(F(x))
    for _ in range(20_000):
        p = contract_left(weaken_left(p, F(x)), F(x))
    out = substitute_proof(p, {"x": const("0")})
    assert size(out).lines == 40_001
    assert out.conclusion == Sequent((F(const("0")),), (F(const("0")),))


def test_step_edges_report_the_cut_link():
    a = F(const("0"))
    p = cut(logical_axiom(a), logical_axiom(a), a)
    edges = step_edges(p, analyze(p, TH))
    assert edges  # local correspondences exist
    tags = {tag for (_, _, tag) in edges}
    assert "cut-link" in tags


def test_step_accounts_for_every_node(small_proofs):
    # the step alone fixes each inference: the premises' unconsumed
    # occurrences plus the principal formula at `at` make up the conclusion,
    # and rebuilding from the principal formula gives the conclusion back
    tags = set()
    for p, theory in small_proofs:
        st = _State(theory, 10**6)
        for node in _iter_unique_nodes(p):
            step = analyze(node, theory)
            tags.add(node.rule.tag)
            c = node.conclusion
            if step.at is not None:
                _, side, i = step.at
                assert (c.ant if side == "L" else c.succ)[i] is step.principal
            for side, fs in (("L", c.ant), ("R", c.succ)):
                if not node.premises:
                    break
                have = Counter()
                for k, q in enumerate(node.premises):
                    qs = q.conclusion.ant if side == "L" else q.conclusion.succ
                    kept = (f for i, f in enumerate(qs) if (k, side, i) not in step.consumed)
                    have += Counter(kept)
                if step.at is not None and step.at[1] == side:
                    have[step.principal] += 1
                assert have == Counter(fs)
            if node.premises:
                rebuilt = _reapply(node, step, node.premises, st)
            elif node.rule.tag == "LogicalAxiom":
                rebuilt = logical_axiom(step.principal)
            elif node.rule.tag == "EqOracle":
                rebuilt = eq_leaf(*step.principal.args)
            else:
                rebuilt = theory_leaf(theory, node.rule.axiom, node.rule.subst_dict())
            # same formulas in the same positions, not just the same multiset
            assert len(rebuilt.conclusion.ant) == len(c.ant)
            assert all(x is y for x, y in zip(rebuilt.conclusion.ant, c.ant))
            assert len(rebuilt.conclusion.succ) == len(c.succ)
            assert all(x is y for x, y in zip(rebuilt.conclusion.succ, c.succ))
    assert tags == RULE_TAGS


def _tampered(node: Proof):
    """The node, then variants of it that analyze must judge: each other
    tag its rule data and premise count allow, each conclusion formula
    dropped or duplicated, the sides swapped and the premises swapped."""
    c, rule, prems = node.conclusion, node.rule, node.premises
    yield node
    for tag in sorted(RULE_TAGS - {rule.tag}):
        try:
            relabelled = Rule(tag, rule.axiom, rule.subst, rule.term, rule.eigen)
            yield Proof(c, relabelled, prems)
        except KernelError:
            pass
    for i in range(len(c.ant)):
        yield Proof(Sequent(c.ant[:i] + c.ant[i + 1 :], c.succ), rule, prems)
        yield Proof(Sequent(c.ant[: i + 1] + c.ant[i:], c.succ), rule, prems)
    for i in range(len(c.succ)):
        yield Proof(Sequent(c.ant, c.succ[:i] + c.succ[i + 1 :]), rule, prems)
        yield Proof(Sequent(c.ant, c.succ[: i + 1] + c.succ[i:]), rule, prems)
    yield Proof(Sequent(c.succ, c.ant), rule, prems)
    if len(prems) == 2:
        yield Proof(c, rule, prems[::-1])


def test_analyze_verdicts_frozen(small_proofs):
    # pins analyze's verdict on every node of small_proofs and on tampered
    # copies of it, against its theory: the Step and its edges for an
    # accepted case, the exception type and message otherwise.  The
    # accepted count per rule tag names the rule whose verdicts moved.
    h = hashlib.sha256()
    records = accepted = 0
    by_tag = Counter()
    for p, theory in small_proofs:
        for node in _iter_unique_nodes(p):
            for case in _tampered(node):
                try:
                    step = analyze(case, theory)
                    edges = step_edges(case, step)
                    rec = (formula_str(step.principal), step.at, step.consumed, step.link, edges)
                    accepted += 1
                    by_tag[case.rule.tag] += 1
                except KernelError as e:
                    rec = (type(e).__name__, str(e))
                h.update(repr(rec).encode() + b"\n")
                records += 1
    assert dict(by_tag) == {
        "AndLeft": 6,
        "AndRight": 19,
        "ContractLeft": 22,
        "ContractRight": 2,
        "Cut": 87,
        "EqOracle": 9,
        "ExistsLeft": 2,
        "ExistsRight": 2,
        "ForallLeft": 10,
        "ForallRight": 8,
        "ImpliesLeft": 9,
        "ImpliesRight": 7,
        "LogicalAxiom": 40,
        "NotLeft": 1,
        "NotRight": 1,
        "OrLeft": 1,
        "OrRight": 1,
        "TheoryAxiom": 156,
        "WeakenLeft": 1,
        "WeakenRight": 3,
    }
    assert (records, accepted) == (3001, 387)
    assert h.hexdigest() == "bd6f40de89aa3d87c5d7dd2f826d04523c651703587907cb8ee559d19f2b63ab"



# ---------------------------------------------------------------------------
# The per-node fast paths, each against the path it replaced


_POOL = [F(int_term(i, SIG)) for i in range(4)]
_formula_lists = st.lists(st.sampled_from(_POOL), max_size=8).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_formula_lists, _formula_lists)
def test_difference_is_the_exact_counter_difference(xs, ys):
    more, fewer = kernel._difference(xs, ys)
    assert Counter(more) == Counter(xs) - Counter(ys)
    assert Counter(fewer) == Counter(ys) - Counter(xs)
    assert (not more and not fewer) == kernel._same(xs, ys)


def _sorted_same(xs: tuple, ys: tuple) -> bool:
    """Multiset equality by sorted ids alone, without the layout test."""
    return len(xs) == len(ys) and sorted(map(id, xs)) == sorted(map(id, ys))


def _verdict(node: Proof, theory):
    """The Step the kernel's analysis gives node, or its error's type and
    text."""
    try:
        return analyze(node, theory)
    except KernelError as e:
        return (type(e).__name__, str(e))


def _shuffled(node: Proof, rng) -> Proof:
    """node with each side of its conclusion and of its premises'
    conclusions put in an order drawn from rng."""

    def mix(fs: tuple) -> tuple:
        fs = list(fs)
        rng.shuffle(fs)
        return tuple(fs)

    def remake(q: Proof, premises: tuple) -> Proof:
        return Proof(Sequent(mix(q.conclusion.ant), mix(q.conclusion.succ)), q.rule, premises)

    return remake(node, tuple(remake(q, q.premises) for q in node.premises))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_layout_tests_agree_with_the_multiset_tests(small_proofs, data):
    # every node of a small proof and its tampered variants, as built and
    # with their sides shuffled so that the constructors' layout misses:
    # the analysis gives what it gives with every layout test missing,
    # multiset equality by sorted ids and _difference alone
    p, theory = data.draw(st.sampled_from(small_proofs))
    rng = data.draw(st.randoms(use_true_random=False))
    cases = [case for node in _iter_unique_nodes(p) for case in _tampered(node)]
    cases += [_shuffled(case, rng) for case in cases]
    fast = [_verdict(case, theory) for case in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_same", _sorted_same)
        mp.setattr(kernel, "_one_more", kernel._difference)
        slow = [_verdict(case, theory) for case in cases]
    assert fast == slow


def test_kernel_built_proofs_pass_the_layout_tests(small_proofs, monkeypatch):
    # the fast path is the one taken: every inference of the small proofs,
    # cut-free ones included, passes with _same reduced to tuple equality
    # and no _difference to fall back on
    def no_difference(xs, ys):
        raise AssertionError("fell back to _difference")

    expected = [_verdict(node, th) for p, th in small_proofs for node in _iter_unique_nodes(p)]
    monkeypatch.setattr(kernel, "_same", tuple.__eq__)
    monkeypatch.setattr(kernel, "_difference", no_difference)
    got = [_verdict(node, th) for p, th in small_proofs for node in _iter_unique_nodes(p)]
    assert got == expected
    assert all(isinstance(step, kernel.Step) for step in got)


def _rule_variants(rule: Rule):
    """(axiom, subst) for a TheoryAxiom rule: its own, then unsorted, a
    pair dropped, one added, one renamed, one repeated, a value that is
    no term, the pairs as a list, and an unknown axiom name."""
    pairs = rule.subst
    t = pairs[0][1] if pairs else const("0")
    yield rule.axiom, pairs
    yield rule.axiom, pairs[::-1]
    yield rule.axiom, pairs[:-1]
    yield rule.axiom, tuple(sorted(pairs + (("z", t),)))
    if pairs:
        yield rule.axiom, (("z", t),) + pairs[1:]
        yield rule.axiom, pairs[:1] + pairs
        yield rule.axiom, ((pairs[0][0], 5),) + pairs[1:]
    yield rule.axiom, list(pairs)
    yield rule.axiom + "'", pairs


def _theory_verdict(node: Proof, theory):
    try:
        return analyze(node, theory)
    except (KernelError, TheoryError) as e:
        return (type(e).__name__, str(e))


def test_stored_instances_give_the_verdicts_of_the_substitution_checks(small_proofs):
    # every TheoryAxiom node of the small proofs, its instance stored, with
    # its rule's substitution changed: the analysis gives what it gives
    # when the stored-instance probe always misses and the substitution
    # is checked as a dict against the schema's variables
    cases = []
    for p, theory in small_proofs:
        for node in _iter_unique_nodes(p):
            if node.rule.tag == "TheoryAxiom":
                for name, subst in _rule_variants(node.rule):
                    rule = Rule("TheoryAxiom", axiom=name, subst=subst)
                    cases.append((Proof(node.conclusion, rule, node.premises), theory))
    # one applied instance against its theory, a second arith theory and a
    # group theory, which has no such axiom
    p = theory_apply(TH, "F:successor", {"x": int_term(0, SIG)}, [theory_leaf(TH, "F(0)", {})])
    cases += [(p, TH), (p, arith_feasibility()), (p, group_feasibility(("x",)))]
    fast = [_theory_verdict(case, th) for case, th in cases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Theory, "stored_instance", lambda self, name, pairs: None)
        slow = [_theory_verdict(case, th) for case, th in cases]
    assert fast == slow
    errors = [v[1] for v in fast if not isinstance(v, kernel.Step)]
    steps = [v for v in fast if isinstance(v, kernel.Step)]
    assert len(steps) > len(cases) // 4
    assert isinstance(fast[-3], kernel.Step) and fast[-2] == fast[-3]
    for text in (
        "unknown axiom 'F:successor'",
        "instantiation must cover exactly ('x', 'y')",
        "instantiation must cover exactly ('x',)",
        "unknown axiom \"F:plus'\"",
        "instantiation for x is not a term",
    ):
        assert any(text in e for e in errors), text


def test_an_instance_has_one_rule(monkeypatch):
    # leaves and applied forms of one instance share the Rule their theory
    # made with the instance, the one sorted pairs name
    th = arith_feasibility()
    u, t = int_term(2, SIG), int_term(3, SIG)
    a = theory_leaf(th, "F:plus", {"y": t, "x": u})
    b = theory_leaf(th, "F:plus", {"x": u, "y": t})
    pu = theory_leaf(th, "F:successor", {"x": int_term(1, SIG)})
    c = theory_apply(th, "F:plus", {"x": u, "y": t}, [pu, logical_axiom(F(t))])
    assert a.rule is b.rule is c.rule
    assert a.rule == Rule("TheoryAxiom", axiom="F:plus", subst=(("x", u), ("y", t)))
    built = []
    real_init = Rule.__init__
    monkeypatch.setattr(
        Rule, "__init__", lambda self, *a, **kw: built.append(a) or real_init(self, *a, **kw)
    )
    for _ in range(3):
        theory_leaf(th, "F:plus", {"x": u, "y": t})
    assert built == []


def test_every_theory_axiom_is_validated(monkeypatch):
    # the stored instances spare the substitution checks, not validation
    rep = gen_rational_orbit(Mat2(2, 1, 1, 1), 0, 3)
    calls = []
    real = Theory.validate_instantiation
    monkeypatch.setattr(
        Theory, "validate_instantiation", lambda self, *a: calls.append(a) or real(self, *a)
    )
    check(rep.proof, rep.theory)
    nodes = [n for n in _iter_unique_nodes(rep.proof) if n.rule.tag == "TheoryAxiom"]
    assert len(calls) == len(nodes) > 0
    for (name, subst, succ), node in zip(calls, nodes):
        assert name == node.rule.axiom and subst == node.rule.subst_dict()
        assert succ is rep.theory.instantiate(name, subst)[1]


@dataclass(frozen=True)
class _DataclassRule:
    """Rule as a frozen dataclass validating field by field: the reference
    for the table-driven Rule."""

    tag: str
    axiom: Optional[str] = None
    subst: Optional[tuple] = None
    term: Optional[object] = None
    eigen: Optional[str] = None

    def __post_init__(self):
        term_rules, eigen_rules = ("ForallLeft", "ExistsRight"), ("ForallRight", "ExistsLeft")
        if self.tag not in RULE_TAGS:
            raise KernelError(f"unknown rule tag {self.tag!r}")
        if (self.axiom is not None or self.subst is not None) and self.tag != "TheoryAxiom":
            raise KernelError(f"{self.tag} carries no axiom data")
        if self.tag == "TheoryAxiom" and (self.axiom is None or self.subst is None):
            raise KernelError("TheoryAxiom needs an axiom name and substitution")
        if self.term is not None and self.tag not in term_rules:
            raise KernelError(f"{self.tag} carries no witness term")
        if self.tag in term_rules and self.term is None:
            raise KernelError(f"{self.tag} needs a witness term")
        if self.eigen is not None and self.tag not in eigen_rules:
            raise KernelError(f"{self.tag} carries no eigenvariable")
        if self.tag in eigen_rules and self.eigen is None:
            raise KernelError(f"{self.tag} needs an eigenvariable")


def _built(cls, args: tuple):
    """cls(*args), or the text of the KernelError it raises."""
    try:
        return cls(*args)
    except KernelError as e:
        return str(e)


def _fields(rule) -> tuple:
    return (rule.tag, rule.axiom, rule.subst, rule.term, rule.eigen)


_TAGS = sorted(RULE_TAGS) + ["NoSuchRule"]
_RULE_DATA_VALUES = (
    ("F:plus", "F:times"),
    ((("x", const("0")),), ()),
    (const("0"), var("x")),
    ("a", "b"),
)


def test_rule_validates_every_tag_and_data_like_the_dataclass():
    for tag, present in product(_TAGS, product((False, True), repeat=4)):
        args = (tag, *(vals[0] if p else None for vals, p in zip(_RULE_DATA_VALUES, present)))
        new, ref = _built(Rule, args), _built(_DataclassRule, args)
        if isinstance(ref, str):
            assert new == ref
        else:
            assert _fields(new) == _fields(ref)
            assert kernel._PLAIN_RULES.get(tag, new) == new
            assert hash(kernel._PLAIN_RULES.get(tag, new)) == hash(new)


_rule_args = st.tuples(
    st.sampled_from(_TAGS), *(st.sampled_from((None,) + vals) for vals in _RULE_DATA_VALUES)
)


@settings(max_examples=400, deadline=None)
@given(_rule_args, _rule_args)
def test_rules_compare_and_hash_like_the_dataclass(args1, args2):
    new1, ref1 = _built(Rule, args1), _built(_DataclassRule, args1)
    new2, ref2 = _built(Rule, args2), _built(_DataclassRule, args2)
    assert isinstance(new1, str) == isinstance(ref1, str)
    assert isinstance(new2, str) == isinstance(ref2, str)
    if isinstance(ref1, str):
        assert new1 == ref1
    elif not isinstance(ref2, str):
        assert (new1 == new2) == (ref1 == ref2)
        if new1 == new2:
            assert hash(new1) == hash(new2)
        assert new1 != ref1  # a Rule equals only Rules


def test_rules_are_immutable():
    rule = Rule("ForallLeft", term=const("0"))
    with pytest.raises(AttributeError):
        rule.term = var("x")
    assert rule.term is const("0")


def test_building_and_checking_pay_no_per_node_overhead(monkeypatch):
    # the largest matrix-power-quantifier proof of the survey: building it
    # makes no Rule without data (those are shared), and checking it asks
    # _wellformed once per distinct term or formula at most.  Only counts
    # are asserted: these terms print as huge trees.
    rules = {"built": 0, "without data": 0}
    real_init = Rule.__init__

    def counting_init(self, *args, **kw):
        rules["built"] += 1
        rules["without data"] += all(x is None for x in args[1:] + tuple(kw.values()))
        real_init(self, *args, **kw)

    monkeypatch.setattr(Rule, "__init__", counting_init)
    rep = gen_matrix_power(Mat2(2, 1, 1, 1), 6, mode="quantifier")
    assert rules["built"] > 0 and rules["without data"] == 0

    roots = []
    real_wellformed = kernel._wellformed

    def counting_wellformed(root, sig, memo):
        roots.append(id(root))
        real_wellformed(root, sig, memo)

    monkeypatch.setattr(kernel, "_wellformed", counting_wellformed)
    check(rep.proof, rep.theory)
    below: dict = {}
    nodes = list(_iter_unique_nodes(rep.proof))
    for node in nodes:
        rule = node.rule
        data = [t for _, t in rule.subst or ()] + [rule.term] * (rule.term is not None)
        for x in node.conclusion.ant + node.conclusion.succ + tuple(data):
            lang_fold(x, lambda y, vals: None, below)
    calls, distinct, n_below, n_nodes = len(roots), len(set(roots)), len(below), len(nodes)
    assert calls == distinct <= n_below
    assert calls < n_nodes


# ---------------------------------------------------------------------------
# Verdicts across checks, readers and theory objects


def test_a_rejected_inference_stays_rejected():
    leaf = theory_leaf(TH, "F(0)", {})
    ok = theory_apply(TH, "F:successor", {"x": int_term(0, SIG)}, [leaf])
    bad = Proof(Sequent((), (F(int_term(2, SIG)),)), ok.rule, ok.premises)
    messages = []
    for judge in (check, check, analyze):
        with pytest.raises(CheckError) as info:
            judge(bad, TH)
        messages.append(str(info.value))
    assert messages == [messages[0]] * 3
    assert "applied form context mismatch" in messages[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_square_cut(3),
        lambda: gen_quantifier(1),
        lambda: gen_group_power("x", 1, mode="quantifier"),
        lambda: gen_distorted(1),
    ],
)
def test_a_fresh_theory_gives_the_same_flow_graph_and_cut_free_proof(make):
    # after check against one theory object, a fresh theory of the same
    # kind reads the proof to the same graph and the same cut-free proof
    rep = make()
    p, th = rep.proof, rep.theory
    check(p, th)
    g = build_flow_graph(p, th)
    cf = eliminate_cuts(p, th)
    fresh = make().theory
    g_fresh = build_flow_graph(p, fresh)
    assert emit_dot(g) == emit_dot(g_fresh)
    assert g.stats() == g_fresh.stats()
    assert serialize_proof(cf) == serialize_proof(eliminate_cuts(p, fresh))


def test_dropped_checked_proofs_free_their_memory():
    # checking leaves no reference from the theory to the proof, so a
    # long-lived theory keeps no checked proof alive
    th = arith_feasibility()

    def checked_proofs():
        proofs = [gen_square_cut(4).proof for _ in range(200)]
        for p in proofs:
            check(p, th)
        return proofs

    checked_proofs()  # fill the intern tables and th's instances first
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        proofs = checked_proofs()
        held = tracemalloc.get_traced_memory()[0] - base
        del proofs
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held > 1_000_000
    assert kept < held / 50
