"""Occurrence graphs: frozen counts, the Euler identity, dot output."""

import hashlib

from feaslab.flowgraph import build_flow_graph, emit_dot
from feaslab.generators import (
    gen_distorted,
    gen_group_power,
    gen_matrix_power,
    gen_quantifier,
    gen_square_cut,
    gen_unary,
)
from feaslab.kernel import cut, logical_axiom
from feaslab.lang import atom, const
from feaslab.semantics import Mat2

FIB = Mat2(2, 1, 1, 1)


def test_single_cut_graph():
    a = atom("F", const("0"))
    p = cut(logical_axiom(a), logical_axiom(a), a)
    g = build_flow_graph(p)
    # root sequent has 1 occurrence, each axiom leaf 2, plus cut-link
    assert g.stats() == {
        "nodes": 6,
        "edges": 5,
        "components": 1,
        "cycles": 0,
        "bridges": 5,
    }
    tags = sorted(tag for _, _, tag in g.edges)
    assert tags.count("cut-link") == 1
    assert tags.count("axiom-link") == 2
    assert tags.count("ancestry") == 2


def test_unary_graphs_are_trees():
    for n in range(1, 11):
        g = build_flow_graph(gen_unary(n).proof)
        assert g.cycle_count() == 0
        assert g.component_count() == 1
    g = build_flow_graph(gen_unary(5).proof)
    assert g.node_count == 16
    assert g.edge_count == 15


def test_square_cut_cycles_grow_linearly():
    # one contraction per squaring stage closes two independent cycles
    for n in (1, 2, 3, 5, 10):
        g = build_flow_graph(gen_square_cut(n).proof)
        s = g.stats()
        assert s["components"] == 1
        assert s["cycles"] == 2 * n
        assert s["bridges"] == 8 * n + 6


def test_cycles_nondecreasing_and_positive():
    prev = 0
    for n in range(1, 11):
        c = build_flow_graph(gen_square_cut(n).proof).cycle_count()
        assert c > 0
        assert c >= prev
        prev = c


def test_euler_identity_across_families():
    proofs = [
        gen_unary(4).proof,
        gen_square_cut(3).proof,
        gen_quantifier(1).proof,
        gen_group_power("x", 3, mode="squaring").proof,
        gen_group_power("x", 1, mode="quantifier").proof,
        gen_distorted(2).proof,
        gen_matrix_power(FIB, 1).proof,
    ]
    for p in proofs:
        g = build_flow_graph(p)
        assert g.cycle_count() == g.cycle_rank_by_forest()
        assert g.cycle_count() == g.edge_count - g.node_count + g.component_count()


def test_theory_argument_matches_structural_reading():
    rep = gen_square_cut(2)
    with_theory = build_flow_graph(rep.proof, rep.theory).stats()
    without = build_flow_graph(rep.proof).stats()
    assert with_theory == without


def test_shared_subproofs_counted_per_occurrence():
    # gen_distorted builds the conjugator proof twice as one shared object
    rep = gen_distorted(2)
    g = build_flow_graph(rep.proof)
    assert g.node_count > rep.stats.lines  # at least one occ per line
    assert len(set(g.nodes)) == g.node_count  # paths disambiguate


def test_emit_dot_deterministic():
    rep = gen_square_cut(1)
    g1 = build_flow_graph(rep.proof)
    g2 = build_flow_graph(rep.proof)
    assert emit_dot(g1) == emit_dot(g2)
    text = emit_dot(g1, name="blowup")
    assert text.startswith("graph blowup {")
    assert text.endswith("}\n")
    assert 'style=bold' in text  # cut-link present
    assert text.count("--") == g1.edge_count


def test_flow_graphs_frozen(small_proofs):
    # pins every occurrence, label, edge and tag, with and without the theory
    h = hashlib.sha256()
    for p, theory in small_proofs:
        for th in (theory, None):
            h.update(emit_dot(build_flow_graph(p, th)).encode())
    assert h.hexdigest() == "e4a435fe6c9b12ac6bf7ca3d864c405dc41408e94fb27a416bdb0f13261c6bdb"
