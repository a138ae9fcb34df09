from collections import Counter

import pytest

from feaslab.cutelim import _State, _reapply
from feaslab.kernel import (
    RULE_TAGS,
    CheckError,
    KernelError,
    Proof,
    Rule,
    _iter_unique_nodes,
    analyze,
    check,
    contract_left,
    cut,
    eq_leaf,
    forall_left,
    forall_right,
    implies_left,
    implies_right,
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
)
from feaslab.lang import (
    Sequent,
    app,
    atom,
    const,
    forall,
    imp,
    int_term,
    mul,
    parse_formula,
    var,
)
from feaslab.generators import (
    gen_distorted,
    gen_matrix_power,
    gen_quantifier,
    gen_rational_orbit,
    gen_square_cut,
    gen_unary,
)
from feaslab.semantics import mat2
from feaslab.theories import TheoryError, arith_feasibility
from fractions import Fraction

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


def test_size_counts():
    r = gen_square_cut(3)
    st = size(r.proof)
    assert st.lines == 35
    assert st.cut_count == 11
    assert st.contraction_count == 3
    assert st.max_formula_dag_nodes >= 3


def test_size_counts_shared_subtrees_per_occurrence():
    a = F(const("0"))
    leaf = logical_axiom(a)
    two = cut(leaf, leaf, a)  # same object twice
    assert size(two).lines == 3


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


def test_parse_proof_rejects_malformed():
    with pytest.raises(KernelError):
        parse_proof('{"rule": "NoSuchRule", "conclusion": "|- F(0)", "premises": []}', SIG)
    with pytest.raises(KernelError):
        parse_proof('{"rule": "Cut", "conclusion": "|- F(0)", "premises": []}', SIG)
    with pytest.raises(KernelError):
        parse_proof('[1, 2]', SIG)


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
            assert rebuilt.conclusion == c
    assert tags == RULE_TAGS
