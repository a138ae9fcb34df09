"""Logical flow graphs over sequent proofs.

Nodes are formula occurrences: one per formula per sequent in the proof
tree.  Edges follow the checker's occurrence accounting: ancestry for
context formulas and introductions, axiom-link across axiom leaves,
cut-link between the two cut occurrences, and contraction-merge where two
occurrences collapse into one.

The graph numbers the occurrences with integers and keeps its edges as
parallel integer lists; its statistics and its Graphviz text run on
those.  Each sequent of the tree is a block of consecutive ids,
antecedent first, so an occurrence is also (block, side, index) with side
"L" or "R"; `emit_dot` labels it so.

Cycles appear exactly where contractions share material across branches;
the cycle count is the first Betti number E - V + C of the undirected
multigraph.  Bridges are edges whose removal disconnects their component.
"""

from __future__ import annotations

from .kernel import Proof, analyze, step_edges
from .lang import _MAX_PRINTED_NODES, Printer, _tree_step, count_text, dag_size, fold

TAGS = ("ancestry", "axiom-link", "cut-link", "contraction-merge")
_TAG_ID = {tag: k for k, tag in enumerate(TAGS)}
# The Graphviz style of an edge, by tag id, parallel to TAGS.
_STYLES = ("solid", "dashed", "bold", "dotted")
# The formula tree nodes all labels of one `emit_dot` text may spell out;
# each label may spell out at most _MAX_PRINTED_NODES.
_MAX_DOT_NODES = 10**7


class FlowGraph:
    """The occurrence graph of one proof tree, on integer ids.

    Blocks are (parent block, premise index, proof node), one per node of
    the tree in id order: block 0 is the root sequent, and each block's
    occurrences take the ids after the previous block's.  The parent and
    premise index place a block in the tree.  Edge k joins occurrences
    us[k] and vs[k] with tag TAGS[tags[k]].
    """

    def __init__(self, blocks: list, node_count: int, us: list, vs: list, tags: list):
        self._blocks = blocks
        self._n = node_count
        self._us, self._vs, self._tags = us, vs, tags
        self._adj = None

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._us)

    def _adjacency(self) -> list:
        """Per occurrence, the ids of its edges (a self-loop twice); built once."""
        if self._adj is None:
            adj = [[] for _ in range(self._n)]
            for e, (u, v) in enumerate(zip(self._us, self._vs)):
                adj[u].append(e)
                adj[v].append(e)
            self._adj = adj
        return self._adj

    def component_count(self) -> int:
        """Connected components, by union-find with path halving."""
        parent = list(range(self._n))
        comps = self._n
        for u, v in zip(self._us, self._vs):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                comps -= 1
        return comps

    def cycle_count(self) -> int:
        """First Betti number: independent cycles of the multigraph."""
        return self.edge_count - self.node_count + self.component_count()

    def cycle_rank_by_forest(self) -> int:
        """Independent recount: edges left out of a spanning forest."""
        adj = self._adjacency()
        us, vs = self._us, self._vs
        seen = bytearray(self._n)
        tree_edges = 0
        for start in range(self._n):
            if seen[start]:
                continue
            seen[start] = 1
            stack = [start]
            while stack:
                u = stack.pop()
                for e in adj[u]:
                    v = us[e] + vs[e] - u
                    if not seen[v]:
                        seen[v] = 1
                        tree_edges += 1
                        stack.append(v)
        return self.edge_count - tree_edges

    def bridge_count(self) -> int:
        """Bridges of the multigraph (parallel edges are never bridges)."""
        adj = self._adjacency()
        us, vs = self._us, self._vs
        disc = [-1] * self._n
        low = [0] * self._n
        timer = 0
        bridges = 0
        for start in range(self._n):
            if disc[start] >= 0:
                continue
            # iterative DFS; each frame remembers the edge id used to enter
            stack = [(start, -1, iter(adj[start]))]
            disc[start] = low[start] = timer
            timer += 1
            while stack:
                u, in_e, it = stack[-1]
                for e in it:
                    if e == in_e:
                        continue
                    v = us[e] + vs[e] - u
                    if v == u:
                        continue  # self-loop
                    if disc[v] < 0:
                        disc[v] = low[v] = timer
                        timer += 1
                        stack.append((v, e, iter(adj[v])))
                        break
                    if disc[v] < low[u]:
                        low[u] = disc[v]
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        if low[u] < low[parent]:
                            low[parent] = low[u]
                        if low[u] > disc[parent]:
                            bridges += 1
        return bridges

    def stats(self) -> dict:
        comps = self.component_count()
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "components": comps,
            "cycles": self.edge_count - self.node_count + comps,
            "bridges": self.bridge_count(),
        }


def build_flow_graph(p: Proof, theory) -> FlowGraph:
    """Walk the proof tree and assemble the occurrence graph.

    A subproof shared in the DAG is visited once per occurrence in the
    tree, so the graph has as many vertices as the tree has formula
    occurrences; the walk costs time linear in that number.  Each distinct
    node is analyzed once, against the theory, and every tree occurrence
    of it shifts the same local edges to its own block.
    """
    blocks = [(-1, 0, p)]
    n = _sequent_size(p)
    us: list = []
    vs: list = []
    tags: list = []
    local: dict = {}  # id(node) -> (conclusion size, local edges), for this call
    stack = [(p, 0, 0)]  # (node, its block, the block's first id)
    while stack:
        node, b, first = stack.pop()
        info = local.get(id(node))
        if info is None:
            info = local[id(node)] = _local_edges(node, analyze(node, theory))
        nc, edges = info
        shift = n - nc  # local ids from nc on are the premises' blocks, from id n on
        for j, q in enumerate(node.premises):
            blocks.append((b, j, q))
            stack.append((q, len(blocks) - 1, n))
            n += _sequent_size(q)
        for a, c, t in edges:
            us.append(a + (first if a < nc else shift))
            vs.append(c + (first if c < nc else shift))
            tags.append(t)
    return FlowGraph(blocks, n, us, vs, tags)


def _sequent_size(node: Proof) -> int:
    c = node.conclusion
    return len(c.ant) + len(c.succ)


def _local_edges(node: Proof, step) -> tuple:
    """(conclusion size, edges) of one inference over local ids: the
    conclusion's occurrences first, then each premise's, each sequent
    antecedent first; tags are indexes into TAGS."""
    start = {}  # (where, side) -> local id of that side's first occurrence
    k = 0
    for where, s in (("c", node.conclusion), *enumerate(q.conclusion for q in node.premises)):
        start[where, "L"] = k
        start[where, "R"] = k = k + len(s.ant)
        k += len(s.succ)
    edges = tuple(
        (start[w1, s1] + i1, start[w2, s2] + i2, _TAG_ID[tag])
        for (w1, s1, i1), (w2, s2, i2), tag in step_edges(node, step)
    )
    return _sequent_size(node), edges


def emit_dot(g: FlowGraph, name: str = "flow") -> str:
    """Deterministic Graphviz rendering of the occurrence graph.

    Occurrence k is node n{k}, labelled with its formula's text and its
    place {block}:{side}{index}; nodes come in id order, edges in build
    order.  A formula whose tree has more than _MAX_PRINTED_NODES nodes is
    labelled with a summary of its size instead, as in `sequent_brief`,
    and so is every formula from the first whose text would take the
    labels spelled out so far past _MAX_DOT_NODES tree nodes.
    """
    # one printer for every formula, so each is rendered once
    printer = Printer(f for _, _, q in g._blocks for f in q.conclusion.ant + q.conclusion.succ)
    sizes: dict = {}  # the tree size of every node below a label, for this call
    left = _MAX_DOT_NODES  # the tree nodes further labels may spell out
    out = [f"graph {name} {{", "  node [shape=box, fontsize=10];"]
    k = 0
    for b, (_, _, q) in enumerate(g._blocks):
        for side, fs in (("L", q.conclusion.ant), ("R", q.conclusion.succ)):
            for i, f in enumerate(fs):
                nodes = fold(f, _tree_step, sizes)
                if nodes <= min(left, _MAX_PRINTED_NODES):
                    left -= nodes
                    label = printer.text(f).replace("\\", "\\\\").replace('"', '\\"')
                else:
                    if nodes <= _MAX_PRINTED_NODES:
                        left = 0  # the text is full: summarize every further label
                    label = f"<formula of {count_text(nodes)} nodes as a tree, {dag_size(f)} distinct>"
                out.append(f'  n{k} [label="{label}\\n{b}:{side}{i}"];')
                k += 1
    for u, v, t in zip(g._us, g._vs, g._tags):
        out.append(f'  n{u} -- n{v} [label="{TAGS[t]}", style={_STYLES[t]}];')
    out.append("}")
    return "\n".join(out) + "\n"
