"""The path-addressed flow-graph builder, kept as a test oracle.

Before flow graphs numbered their occurrences with integers, the builder
addressed each occurrence as (path, side, index) from the start, called
`analyze` once per tree occurrence of a node, and ran its statistics as
depth-first searches over a dict adjacency keyed by those tuples.  Its
cost grew with the square of the proof's depth.  It stays here so that the
integer graph's tuple view, statistics and Graphviz text can be checked
against it.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from feaslab.kernel import Proof, analyze, step_edges
from feaslab.lang import Formula

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
