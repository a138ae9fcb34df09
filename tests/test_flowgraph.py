"""Occurrence graphs: frozen counts, the Euler identity, dot output, and
agreement with the path-addressed oracle and with networkx."""

import hashlib
import tracemalloc

import pytest

import feaslab.flowgraph as flowgraph
from feaslab.cutelim import eliminate_cuts
from feaslab.flowgraph import build_flow_graph, emit_dot
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
from feaslab.kernel import _iter_unique_nodes, cut, logical_axiom, size
from feaslab.lang import Printer, atom, const, dag_size, tree_size
from feaslab.semantics import Mat2
from feaslab.theories import arith_feasibility
from flow_oracle import build_oracle_graph, emit_path_dot, path_view

FIB = Mat2(2, 1, 1, 1)


def test_single_cut_graph():
    a = atom("F", const("0"))
    p = cut(logical_axiom(a), logical_axiom(a), a)
    g = build_flow_graph(p, arith_feasibility())
    # root sequent has 1 occurrence, each axiom leaf 2, plus cut-link
    assert g.stats() == {
        "nodes": 6,
        "edges": 5,
        "components": 1,
        "cycles": 0,
        "bridges": 5,
    }
    tags = sorted(tag for _, _, tag in path_view(g).edges)
    assert tags.count("cut-link") == 1
    assert tags.count("axiom-link") == 2
    assert tags.count("ancestry") == 2


def test_unary_graphs_are_trees():
    for n in range(1, 11):
        rep = gen_unary(n)
        g = build_flow_graph(rep.proof, rep.theory)
        assert g.cycle_count() == 0
        assert g.component_count() == 1
    rep = gen_unary(5)
    g = build_flow_graph(rep.proof, rep.theory)
    assert g.node_count == 16
    assert g.edge_count == 15


def test_square_cut_cycles_grow_linearly():
    # one contraction per squaring stage closes two independent cycles
    for n in (1, 2, 3, 5, 10):
        rep = gen_square_cut(n)
        g = build_flow_graph(rep.proof, rep.theory)
        s = g.stats()
        assert s["components"] == 1
        assert s["cycles"] == 2 * n
        assert s["bridges"] == 8 * n + 6


def test_cycles_nondecreasing_and_positive():
    prev = 0
    for n in range(1, 11):
        rep = gen_square_cut(n)
        c = build_flow_graph(rep.proof, rep.theory).cycle_count()
        assert c > 0
        assert c >= prev
        prev = c


def test_euler_identity_across_families():
    reports = [
        gen_unary(4),
        gen_square_cut(3),
        gen_quantifier(1),
        gen_group_power("x", 3, mode="squaring"),
        gen_group_power("x", 1, mode="quantifier"),
        gen_distorted(2),
        gen_matrix_power(FIB, 1),
    ]
    for rep in reports:
        g = build_flow_graph(rep.proof, rep.theory)
        assert g.cycle_count() == g.cycle_rank_by_forest()
        assert g.cycle_count() == g.edge_count - g.node_count + g.component_count()


def test_shared_subproofs_counted_per_occurrence(monkeypatch):
    # generated proofs are trees; the cut-free square-cut proof is a DAG
    rep = gen_square_cut(4)
    cf = eliminate_cuts(rep.proof, rep.theory)
    distinct = sum(1 for _ in _iter_unique_nodes(cf))
    assert (distinct, size(cf).lines) == (15, 93)
    analyzed = []
    real = flowgraph.analyze

    def counting(node, theory):
        analyzed.append(node)
        return real(node, theory)

    monkeypatch.setattr(flowgraph, "analyze", counting)
    g = build_flow_graph(cf, rep.theory)
    assert g.node_count == 93  # one occurrence per line of the tree
    assert len(set(path_view(g).nodes)) == g.node_count  # paths disambiguate
    assert len(analyzed) == len({id(q) for q in analyzed}) == distinct


def test_deep_tree_memory_is_linear():
    # path tuples made the unary graph's memory grow with the square of its
    # depth: over 1 GB for n = 8000
    rep = gen_unary(8000)
    tracemalloc.start()
    try:
        g = build_flow_graph(rep.proof, rep.theory)
        s = g.stats()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s["nodes"] == 24001 and s["cycles"] == 0
    assert peak < 1000 * s["nodes"]


def test_emit_dot_deterministic():
    rep = gen_square_cut(1)
    g1 = build_flow_graph(rep.proof, rep.theory)
    g2 = build_flow_graph(rep.proof, rep.theory)
    assert emit_dot(g1) == emit_dot(g2)
    text = emit_dot(g1, name="blowup")
    assert text.startswith("graph blowup {")
    assert text.endswith("}\n")
    assert 'style=bold' in text  # cut-link present
    assert text.count("--") == g1.edge_count


def test_flow_graphs_frozen(small_proofs):
    # pins every occurrence, label, edge and tag, by path
    h = hashlib.sha256()
    for p, theory in small_proofs:
        h.update(emit_path_dot(path_view(build_flow_graph(p, theory))).encode())
    assert h.hexdigest() == "982d1184800c6ed30e6017b7746e8da183b6a1530c1f1926036f82f75e2ab6c2"


def test_dot_text_frozen(small_proofs):
    # pins the Graphviz text on occurrence ids: labels (the disjunctions
    # pin the escaping of their backslashes), places and edge order
    h = hashlib.sha256()
    for p, theory in small_proofs:
        h.update(emit_dot(build_flow_graph(p, theory)).encode())
    assert h.hexdigest() == "e3dabfc5fdc11da71fcf15015443d4c52c757e0f281ae06b5aae00a3e2c8245a"


def test_dot_labels_spell_no_path():
    # a label's place is its block, not its path: for unary 2000 a path
    # label spelled up to 2000 premise positions
    rep = gen_unary(2000)
    g = build_flow_graph(rep.proof, rep.theory)
    formulas = [f for _, _, q in g._blocks for f in q.conclusion.ant + q.conclusion.succ]
    printer = Printer(formulas)  # formula_str for each would take seconds
    texts = [printer.text(f) for f in formulas]
    lines = [line for line in emit_dot(g).splitlines() if "[label=" in line and " -- " not in line]
    assert len(lines) == len(texts) == g.node_count
    width = len(str(len(g._blocks))) + 3
    for k, (line, text) in enumerate(zip(lines, texts)):
        head = f'  n{k} [label="{text}\\n'
        assert line.startswith(head) and line.endswith('"];'), line[:80]
        assert len(line) - len(head) - len('"];') <= width, line[len(head) :]


def test_dot_text_summarizes_every_label_past_its_cap(monkeypatch):
    # labels are spelled out while the text's total fits the cap; from the
    # first label that would pass it on, every label is a summary, smaller
    # ones after it included
    rep = gen_square_cut(2)
    g = build_flow_graph(rep.proof, rep.theory)
    formulas = [f for _, _, q in g._blocks for f in q.conclusion.ant + q.conclusion.succ]
    sizes = [tree_size(f) for f in formulas]
    j = next(j for j in range(1, len(sizes)) if min(sizes[j + 1 :]) < sizes[j])
    full = emit_dot(g).splitlines()
    nodes = slice(2, 2 + len(formulas))
    for spelled, cap in ((j, sum(sizes[: j + 1]) - 1), (j + 1, sum(sizes[: j + 1]))):
        monkeypatch.setattr(flowgraph, "_MAX_DOT_NODES", cap)
        capped = emit_dot(g).splitlines()
        assert capped[: nodes.start] == full[: nodes.start]
        assert capped[nodes.stop :] == full[nodes.stop :]
        for k, (line, full_line) in enumerate(zip(capped[nodes], full[nodes])):
            if k < spelled:
                assert line == full_line
            else:
                place = full_line.rsplit("\\n", 1)[1]
                distinct = dag_size(formulas[k])
                summary = f"<formula of {sizes[k]} nodes as a tree, {distinct} distinct>"
                assert line == f'  n{k} [label="{summary}\\n{place}'


def _survey_items():
    """Every generator family at a small n."""
    return [
        gen_unary(4),
        gen_geometric(4),
        gen_square_cut(3),
        gen_quantifier(2),
        gen_group_power("x", 4, mode="linear"),
        gen_group_power("x", 3, mode="squaring"),
        gen_group_power("x", 2, mode="quantifier"),
        gen_distorted(3),
        gen_matrix_power(FIB, 2),
        gen_matrix_power(FIB, 1, mode="quantifier"),
        gen_rational_orbit(FIB, 0, 2),
    ]


@pytest.fixture(scope="module")
def oracle_inputs(small_proofs):
    """(proof, theory) pairs: small_proofs, the survey families at small n,
    and the cut-free DAGs of square-cut 6 and quantifier 2."""
    out = list(small_proofs)
    out += [(r.proof, r.theory) for r in _survey_items()]
    for r in (gen_square_cut(6), gen_quantifier(2)):
        out.append((eliminate_cuts(r.proof, r.theory), r.theory))
    return out


def test_matches_path_addressed_oracle(oracle_inputs):
    for p, theory in oracle_inputs:
        g, want = build_flow_graph(p, theory), build_oracle_graph(p, theory)
        view = path_view(g)
        assert view.nodes == want.nodes
        assert view.edges == want.edges
        assert view.formulas == want.formulas
        assert g.stats() == want.stats()
        assert g.cycle_rank_by_forest() == want.cycle_rank_by_forest()
        assert emit_path_dot(view) == emit_path_dot(want)


def test_matches_networkx(oracle_inputs):
    nx = pytest.importorskip("networkx")
    for p, theory in oracle_inputs:
        g = build_flow_graph(p, theory)
        view = path_view(g)
        h = nx.MultiGraph()
        h.add_nodes_from(view.nodes)
        h.add_edges_from((u, v) for u, v, _tag in view.edges)
        forest = sum(1 for _ in nx.minimum_spanning_edges(h, data=False))
        s = g.stats()
        assert s["components"] == nx.number_connected_components(h)
        assert s["bridges"] == sum(1 for _ in nx.bridges(h))
        assert s["cycles"] == h.number_of_edges() - forest
