# What cuts are worth: eliminate them and watch the proof explode.

from feaslab.cutelim import NodeBudgetError, blowup_report, eliminate_cuts
from feaslab.generators import gen_square_cut
from feaslab.kernel import check, size
from feaslab.theories import arith_feasibility

th = arith_feasibility()

# with cuts the square-cut proofs are 10n + 5 lines; cut-free they double
# per stage (6 * 2^n - 3)
print("n  with-cuts  cut-free  ratio")
for row in blowup_report(gen_square_cut, range(0, 6)):
    print(f"{row.n}  {row.lines_with_cuts:9d}  {row.lines_cut_free:8d}  {row.ratio:.3f}")

# the eliminated proof still checks and proves the same sequent
rep = gen_square_cut(3)
cf = eliminate_cuts(rep.proof, th)
assert cf.conclusion == rep.proof.conclusion
print("cut-free n=3 re-checked:", check(cf, th).lines, "lines")

# a node budget guards against runaway blowup; `feaslab cutfree --budget`
# sets the same bound from the command line
try:
    eliminate_cuts(gen_square_cut(8).proof, th, budget=100)
except NodeBudgetError as e:
    print("budget stop:", e)

# sharing keeps memory tame: the cut-free proof of stage 8 has 1533 lines
# but far fewer distinct nodes
cf8 = eliminate_cuts(gen_square_cut(8).proof, th)
print("stage 8 cut-free lines:", size(cf8).lines)
