# Occurrence graphs over proofs: cycles mark where contractions share
# material across branches, and they are exactly what cut elimination
# has to unfold.

from feaslab.flowgraph import build_flow_graph, emit_dot
from feaslab.generators import gen_square_cut, gen_unary

# a contraction-free proof is a forest
rep = gen_unary(6)
g = build_flow_graph(rep.proof, rep.theory)
print("unary:", g.stats())

# each squaring stage contracts once and closes two independent cycles
for n in (1, 2, 4, 8):
    rep = gen_square_cut(n)
    g = build_flow_graph(rep.proof, rep.theory)
    s = g.stats()
    print(f"square-cut n={n}: cycles={s['cycles']} bridges={s['bridges']}")

# two independent counts of the first Betti number agree
rep = gen_square_cut(3)
g = build_flow_graph(rep.proof, rep.theory)
assert g.cycle_count() == g.cycle_rank_by_forest()
print("Euler identity holds: E - V + C =", g.cycle_count())

# Graphviz output for inspection (stable ordering, diff-friendly)
dot = emit_dot(g, name="square_cut_3")
print(dot.splitlines()[0], "...", len(dot.splitlines()), "lines of dot")
