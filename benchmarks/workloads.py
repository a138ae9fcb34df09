"""The three workloads: their items and the per-item pipelines.

An item is one (family, n) pipeline, or the survey's single oracle item.
Every feaslab call goes through `tr.call(layer, ...)` so that a traced run
gets one span per layer call.  Each pipeline returns a status ("ok",
"budget-exceeded", "fragment-exceeded" or "error") and a list of
mismatches against the tables in expected.py.  Work counters (tree lines,
DAG nodes, bytes) are only collected when tracing, outside the layer spans.

Workloads:
  compress   generate -> check -> eliminate_cuts -> check -> size.  Cut
             elimination and the re-check of its output dominate; one item
             (group-power quantifier n=4) shows the nonelementary blow-up.
  roundtrip  read file -> parse_proof -> check, then regenerate ->
             serialize_proof, byte-compared with the file.  Parse dominates;
             no cut elimination and no flow graphs run.
  survey     generate -> check on the acceptance grid, plus advertised
             values, flow graphs under per-family caps, and one oracle item.
"""

import os
import random
import traceback
from collections import Counter
from time import perf_counter

from feaslab.cutelim import FragmentError, NodeBudgetError, eliminate_cuts
from feaslab.flowgraph import build_flow_graph
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
from feaslab.kernel import check, parse_proof, proof_to_file, serialize_proof, size
from feaslab.oracle import distortion_table, min_proof_lines, min_tree_table
from feaslab.semantics import Mat2
from feaslab.theories import theory_from_selector

import expected
from hostspeed import probe

FIB = Mat2(*expected.FIB)

GENERATORS = {
    "unary": gen_unary,
    "geometric": gen_geometric,
    "square-cut": gen_square_cut,
    "quantifier": gen_quantifier,
    "group-power-linear": lambda n: gen_group_power("x", n, mode="linear"),
    "group-power-squaring": lambda n: gen_group_power("x", n, mode="squaring"),
    "group-power-quantifier": lambda n: gen_group_power("x", n, mode="quantifier"),
    "distorted": gen_distorted,
    "matrix-power-squaring": lambda n: gen_matrix_power(FIB, n, mode="squaring"),
    "matrix-power-quantifier": lambda n: gen_matrix_power(FIB, n, mode="quantifier"),
    "rational-orbit": lambda n: gen_rational_orbit(FIB, 0, n),
}

# `feaslab check --theory` selectors for the families the roundtrip reads.
SELECTORS = {
    "square-cut": "arith",
    "quantifier": "arith",
    "group-power-squaring": "group:free:x",
    "distorted": "group:bs12",
    "matrix-power-quantifier": "rat",
    "rational-orbit": "rat",
}

ORACLE_ITEM = ("oracle", 0)

GRIDS = {
    # 84 items: 65 ok, 8 budget-exceeded, 11 fragment-exceeded on the parent.
    # Quantifier n=4 is left out: it alone takes about 12 s.
    "compress": [
        ("square-cut", range(0, 21)),
        ("group-power-squaring", range(0, 21)),
        ("distorted", range(0, 21)),
        ("quantifier", range(0, 4)),
        ("group-power-quantifier", range(0, 5)),
        ("matrix-power-squaring", range(0, 4)),
        ("rational-orbit", range(0, 4)),
        ("matrix-power-quantifier", range(0, 4)),
    ],
    # 62 items, about 3.2 MB of proof files.
    "roundtrip": [
        ("square-cut", range(0, 21)),
        ("group-power-squaring", range(0, 13)),
        ("distorted", range(0, 11)),
        ("quantifier", range(0, 9)),
        ("matrix-power-quantifier", range(0, 3)),
        ("rational-orbit", range(0, 5)),
    ],
    # The 188 proofs of acceptance criterion 01, plus the oracle item.
    "survey": [
        ("unary", range(0, 21)),
        ("geometric", range(1, 21)),
        ("square-cut", range(0, 21)),
        ("quantifier", range(0, 7)),
        ("group-power-linear", range(0, 21)),
        ("group-power-squaring", range(0, 21)),
        ("group-power-quantifier", range(0, 7)),
        ("distorted", range(0, 21)),
        ("matrix-power-squaring", range(0, 21)),
        ("matrix-power-quantifier", range(0, 7)),
        ("rational-orbit", range(0, 21)),
    ],
}


def items(workload: str, seed: int, round_index: int = 0) -> list:
    """The workload's fixed item set, in an order drawn from the seed and
    the measurement round, so that the rounds of one run average over
    several orders."""
    out = [(family, n) for family, ns in GRIDS[workload] for n in ns]
    if workload == "survey":
        out.append(ORACLE_ITEM)
    random.Random(f"{seed}:{round_index}").shuffle(out)
    return out


def proof_path(directory: str, family: str, n: int) -> str:
    return os.path.join(directory, f"{family}-{n}.json")


def write_inputs(workload: str, directory: str):
    """Set-up: write the roundtrip's proof files.  Other workloads need none."""
    if workload != "roundtrip":
        return
    for family, ns in GRIDS[workload]:
        for n in ns:
            proof_to_file(GENERATORS[family](n).proof, proof_path(directory, family, n))


def dag_nodes(proof) -> int:
    """Distinct proof nodes, found by walking premises by identity."""
    seen = {id(proof)}
    stack = [proof]
    while stack:
        for q in stack.pop().premises:
            if id(q) not in seen:
                seen.add(id(q))
                stack.append(q)
    return len(seen)


class Context:
    """What a pass needs besides the tracer: file directory and counters."""

    def __init__(self, tr, directory: str):
        self.tr = tr
        self.directory = directory
        self.count = Counter()

    def add(self, name: str, value):
        if self.tr.enabled:
            self.count[name] += value


def _generate(ctx, family, n, errors):
    rep = ctx.tr.call("generators", GENERATORS[family], n)
    want = expected.generated_lines(family, n)
    if rep.stats.lines != want:
        errors.append(f"generated {rep.stats.lines} lines, expected {want}")
    if ctx.tr.enabled:
        ctx.add("generators.tree_lines", rep.stats.lines)
        ctx.add("generators.dag_nodes", dag_nodes(rep.proof))
    return rep


def _check_generated(ctx, rep, errors):
    st = ctx.tr.call("kernel.check", check, rep.proof, rep.theory)
    if st.lines != rep.stats.lines:
        errors.append(f"check counts {st.lines} lines, generator {rep.stats.lines}")
    if ctx.tr.enabled:
        ctx.add("kernel.check.dag_nodes", dag_nodes(rep.proof))


def compress_item(ctx, family, n, errors) -> str:
    tr = ctx.tr
    rep = _generate(ctx, family, n, errors)
    _check_generated(ctx, rep, errors)
    ctx.add("cutelim.cuts_in", rep.stats.cut_count)
    try:
        cf = tr.call("cutelim", eliminate_cuts, rep.proof, rep.theory)
    except NodeBudgetError:
        ctx.add("cutelim.budget_exceeded", 1)
        return "budget-exceeded"
    except FragmentError:
        ctx.add("cutelim.fragment_exceeded", 1)
        return "fragment-exceeded"
    st = tr.call("kernel.check_cutfree", check, cf, rep.theory)
    sz = tr.call("kernel.size", size, cf)
    if st.cut_count != 0:
        errors.append(f"cut-free proof has {st.cut_count} cuts")
    if cf.conclusion != rep.proof.conclusion:
        errors.append("cut elimination changed the end sequent")
    if sz.lines != st.lines:
        errors.append(f"size counts {sz.lines} lines, check {st.lines}")
    want = expected.cut_free_lines(family, n)
    if want is not None and st.lines != want:
        errors.append(f"cut-free proof has {st.lines} lines, expected {want}")
    ctx.add("cutelim.ok", 1)
    if tr.enabled:
        nodes = dag_nodes(cf)
        ctx.add("cutelim.cf_tree_lines", st.lines)
        ctx.add("cutelim.cf_dag_nodes", nodes)
        ctx.add("kernel.check_cutfree.dag_nodes", nodes)
    return "ok"


def roundtrip_item(ctx, family, n, errors) -> str:
    tr = ctx.tr
    with open(proof_path(ctx.directory, family, n), "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    theory = theory_from_selector(SELECTORS[family])
    proof = tr.call("kernel.parse", parse_proof, text, theory.signature)
    st = tr.call("kernel.check", check, proof, theory)
    want = expected.generated_lines(family, n)
    if st.lines != want:
        errors.append(f"parsed proof checks with {st.lines} lines, expected {want}")
    rep = _generate(ctx, family, n, errors)
    out = tr.call("kernel.serialize", serialize_proof, rep.proof)
    if out + "\n" != text:
        errors.append("serialized proof differs from the file")
    if proof.conclusion != rep.proof.conclusion:
        errors.append("parsed end sequent differs from the regenerated one")
    if tr.enabled:
        ctx.add("kernel.check.dag_nodes", dag_nodes(proof))
        ctx.add("kernel.parse.bytes", len(raw))
        ctx.add("kernel.serialize.bytes", len(out.encode("utf-8")))
    return "ok"


def _matrix_entries(rep):
    return tuple(rep.theory.evaluate(t).num for t in rep.target)


def survey_item(ctx, family, n, errors) -> str:
    if (family, n) == ORACLE_ITEM:
        return oracle_item(ctx, errors)
    tr = ctx.tr
    rep = _generate(ctx, family, n, errors)
    _check_generated(ctx, rep, errors)
    if n in expected.VALUE_RANGES.get(family, ()):
        v = tr.call("semantics", getattr, rep, "advertised_value")
        if family == "square-cut":
            got, want = v, 2 ** (2**n)
        elif family == "distorted":
            got, want = (v.p, v.k, v.t), (2 ** (2**n), 0, 0)
        else:
            entries = tr.call("semantics", _matrix_entries, rep)
            got = ((v.a, v.b, v.c, v.d), entries)
            want = (expected.fib_power_2n(n),) * 2
        if got != want:
            errors.append("advertised value differs from the independent one")
    if n <= expected.FLOW_CAPS[family]:
        g = tr.call("flowgraph.build", build_flow_graph, rep.proof, rep.theory)
        s = tr.call("flowgraph.stats", g.stats)
        rank = tr.call("flowgraph.stats", g.cycle_rank_by_forest)
        euler = s["edges"] - s["nodes"] + s["components"]
        if not s["cycles"] == rank == euler:
            errors.append(f"cycle counts disagree: {s['cycles']}, {rank}, {euler}")
        want = expected.flow_cycles(family, n)
        if want is not None and s["cycles"] != want:
            errors.append(f"{s['cycles']} flow cycles, expected {want}")
        for key in ("nodes", "edges", "cycles"):
            ctx.add(f"flowgraph.{key}", s[key])
    return "ok"


def _enumerated(n_max):
    return [min_proof_lines(n) for n in range(n_max + 1)]


def oracle_item(ctx, errors) -> str:
    tr = ctx.tr
    table = tr.call("oracle.dp", min_tree_table, 4096)
    if [int(x) for x in table[: len(expected.MIN_LINES)]] != expected.MIN_LINES:
        errors.append("minimal-derivation table differs from the golden prefix")
    enum = tr.call("oracle.enum", _enumerated, 64)
    if enum != [int(x) for x in table[:65]]:
        errors.append("enumeration and dynamic program disagree for some n <= 64")
    rows = tr.call("oracle.bfs", distortion_table, 3)
    for key, want in expected.DISTORTION.items():
        if [getattr(r, key) for r in rows] != want:
            errors.append(f"distortion table column {key} differs")
    return "ok"


PIPELINES = {"compress": compress_item, "roundtrip": roundtrip_item, "survey": survey_item}


def run_pass(workload, order, tr, directory):
    """Run every item once; return the pass time without the host-speed
    probes, the probe times, per-item results and counters."""
    ctx = Context(tr, directory)
    pipeline = PIPELINES[workload]
    results = []
    probes = []
    start = perf_counter()
    for index, (family, n) in enumerate(order):
        errors = []
        probes.append(probe())
        t0 = perf_counter()
        tr.begin("item", item=index)
        try:
            status = pipeline(ctx, family, n, errors)
        except Exception as exc:  # an unexpected failure is a counted error
            errors.append(f"{type(exc).__name__}: {exc}")
            if not isinstance(exc, MemoryError):
                errors.append(traceback.format_exc(limit=3))
        finally:
            tr.end()
        ms = (perf_counter() - t0) * 1000.0
        if errors:
            status = "error"
        results.append({"item": f"{family}:{n}", "ms": ms, "status": status, "errors": errors})
    probes.append(probe())
    wall_s = perf_counter() - start - sum(probes)
    return {"wall_s": wall_s, "probes": probes, "items": results, "counters": dict(ctx.count)}
