"""The path-addressed flow-graph builder, kept as a test oracle.

Before flow graphs numbered their occurrences with integers, the builder
addressed each occurrence as (path, side, index) from the start, called
`analyze` once per tree occurrence of a node, and ran its statistics as
depth-first searches over a dict adjacency keyed by those tuples.  Its
cost grew with the square of the proof's depth.  It stays here so that the
integer graph's statistics, and through `path_view` its occurrences, edges
and formulas, can be checked against it.

`path_view` replays an integer graph's blocks into the same path-addressed
form, and `emit_path_dot` renders that form as Graphviz text, each
occurrence labelled with its path.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from feaslab.flowgraph import TAGS, FlowGraph
from feaslab.kernel import Proof, analyze, step_edges
from feaslab.lang import Formula, Printer

Occ = Tuple[Tuple[int, ...], str, int]
Edge = Tuple[Occ, Occ, str]


@dataclass
class OracleGraph:
    nodes: List[Occ]
    edges: List[Edge]
    formulas: Dict[Occ, Formula]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _adjacency(self):
        adj: Dict[Occ, list] = {u: [] for u in self.nodes}
        for eid, (u, v, _tag) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return adj

    def component_count(self) -> int:
        adj = self._adjacency()
        seen = set()
        comps = 0
        for start in self.nodes:
            if start in seen:
                continue
            comps += 1
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for v, _eid in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return comps

    def cycle_count(self) -> int:
        """First Betti number: independent cycles of the multigraph."""
        return self.edge_count - self.node_count + self.component_count()

    def cycle_rank_by_forest(self) -> int:
        """Independent recount: edges left out of a spanning forest."""
        adj = self._adjacency()
        seen = set()
        used_edges = set()
        tree_edges = 0
        for start in self.nodes:
            if start in seen:
                continue
            seen.add(start)
            stack = [start]
            while stack:
                u = stack.pop()
                for v, eid in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        used_edges.add(eid)
                        tree_edges += 1
                        stack.append(v)
        return self.edge_count - tree_edges

    def bridge_count(self) -> int:
        """Bridges of the multigraph (parallel edges are never bridges)."""
        adj = self._adjacency()
        disc: Dict[Occ, int] = {}
        low: Dict[Occ, int] = {}
        timer = 0
        bridges = 0
        for start in self.nodes:
            if start in disc:
                continue
            # iterative DFS; each frame remembers the edge id used to enter
            stack = [(start, -1, iter(adj[start]))]
            disc[start] = low[start] = timer
            timer += 1
            while stack:
                u, in_eid, it = stack[-1]
                advanced = False
                for v, eid in it:
                    if eid == in_eid:
                        continue
                    if v == u:
                        continue  # self-loop
                    if v not in disc:
                        disc[v] = low[v] = timer
                        timer += 1
                        stack.append((v, eid, iter(adj[v])))
                        advanced = True
                        break
                    low[u] = min(low[u], disc[v])
                if advanced:
                    continue
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] > disc[parent]:
                        bridges += 1
        return bridges

    def stats(self) -> dict:
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "components": self.component_count(),
            "cycles": self.cycle_count(),
            "bridges": self.bridge_count(),
        }


def build_oracle_graph(p: Proof, theory) -> OracleGraph:
    """Walk the proof tree and assemble the occurrence graph, analyzing
    every tree occurrence of a node afresh and addressing each formula
    occurrence by its path."""
    nodes: List[Occ] = []
    formulas: Dict[Occ, Formula] = {}
    edges: List[Edge] = []
    stack = [(p, ())]
    while stack:
        node, path = stack.pop()
        c = node.conclusion
        for side, fs in (("L", c.ant), ("R", c.succ)):
            for i, f in enumerate(fs):
                occ = (path, side, i)
                nodes.append(occ)
                formulas[occ] = f
        for end1, end2, tag in step_edges(node, analyze(node, theory)):
            edges.append((_to_global(end1, path), _to_global(end2, path), tag))
        for j, q in enumerate(node.premises):
            stack.append((q, path + (j,)))
    nodes.sort()
    edges.sort()
    return OracleGraph(nodes=nodes, edges=edges, formulas=formulas)


def _to_global(end, path) -> Occ:
    where, side, i = end
    if where == "c":
        return (path, side, i)
    return (path + (where,), side, i)


def path_view(g: FlowGraph) -> OracleGraph:
    """Replay the blocks of g into sorted occurrences (path, side, index),
    sorted edges (occurrence, occurrence, tag) and each occurrence's
    formula."""
    paths = []
    occs = []
    formulas = {}
    for parent, j, node in g._blocks:
        path = paths[parent] + (j,) if paths else ()
        paths.append(path)
        c = node.conclusion
        for side, fs in (("L", c.ant), ("R", c.succ)):
            for i, f in enumerate(fs):
                occ = (path, side, i)
                occs.append(occ)
                formulas[occ] = f
    edges = sorted((occs[u], occs[v], TAGS[t]) for u, v, t in zip(g._us, g._vs, g._tags))
    occs.sort()
    return OracleGraph(nodes=occs, edges=edges, formulas=formulas)


def emit_path_dot(graph: OracleGraph, name: str = "flow") -> str:
    """Graphviz rendering of a path-addressed graph, nodes and edges in
    sorted order, each occurrence labelled with its formula's text and
    its path."""
    # one printer for every formula, so each is rendered once
    printer = Printer(graph.formulas.values())
    order = {occ: k for k, occ in enumerate(sorted(graph.nodes))}
    out = [f"graph {name} {{"]
    out.append("  node [shape=box, fontsize=10];")
    for occ in sorted(graph.nodes):
        path, side, i = occ
        loc = ".".join(str(x) for x in path) or "root"
        label = printer.text(graph.formulas[occ]).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  n{order[occ]} [label="{label}\\n{loc}:{side}{i}"];')
    for u, v, tag in sorted(graph.edges):
        style = {
            "ancestry": "solid",
            "axiom-link": "dashed",
            "cut-link": "bold",
            "contraction-merge": "dotted",
        }.get(tag, "solid")
        out.append(f'  n{order[u]} -- n{order[v]} [label="{tag}", style={style}];')
    out.append("}")
    return "\n".join(out) + "\n"
