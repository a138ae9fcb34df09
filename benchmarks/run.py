"""Benchmark for feaslab: one workload per invocation.

    python3 benchmarks/run.py --workload compress --seed 1 --seconds 30 --trace 0

Run from the root of a feaslab checkout; the package is imported from
src/.  Set-up runs SETUPS fresh interpreters that each import feaslab and
prepare the workload's inputs (the roundtrip writes its proof files).
Measurement then starts rounds of fresh worker processes for --seconds,
and at least MIN_ROUNDS rounds; each round runs the items in its own order
drawn from the seed.  With --trace 0 a round is one worker
that makes a cold pass and an identical warm pass, and the last stdout
line carries the end-to-end metrics, medians over workers.  With
--trace 1 a round is a traced and an untraced worker, each making one cold
pass, and the last line carries the per-layer metrics, medians over the
traced passes; the report above it lists each span's busy and self time
and each layer's share of the busy time.  trace.overhead_s is traced
minus untraced cold pass time, both medians.

Every time in the result is in seconds at reference host speed: each pass
and each set-up is scaled by the host-speed probes timed beside it (see
hostspeed.py).  A comment line above the result gives the unscaled
end-to-end medians and the probes' median.

--record FILE appends the result with its seed, Python version, CPU
count, commit and node budget as one JSON line; compare.py reads two such
files.  Workers run without FEASLAB_NODE_BUDGET and under an address-space
limit (see worker.py).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from hostspeed import REFERENCE_S, scale
from tracing import busy_and_self

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compress", "roundtrip", "survey")
SETUPS = 3
MIN_ROUNDS = 3  # a median over three workers ignores one slowed by the host
RUN_LIMIT_S = 170.0

# per-layer metric name -> span name, for the layers timed by span
LAYER_TIMES = {
    "generators.busy_s": "generators",
    "kernel.check.busy_s": "kernel.check",
    "kernel.check_cutfree.busy_s": "kernel.check_cutfree",
    "cutelim.busy_s": "cutelim",
    "kernel.size.busy_s": "kernel.size",
    "kernel.parse.busy_s": "kernel.parse",
    "kernel.serialize.busy_s": "kernel.serialize",
    "flowgraph.build_s": "flowgraph.build",
    "flowgraph.stats_s": "flowgraph.stats",
    "semantics.busy_s": "semantics",
    "oracle.dp_s": "oracle.dp",
    "oracle.enum_s": "oracle.enum",
    "oracle.bfs_s": "oracle.bfs",
}
COUNTERS = (
    "generators.tree_lines",
    "generators.dag_nodes",
    "kernel.check.dag_nodes",
    "kernel.check_cutfree.dag_nodes",
    "cutelim.cuts_in",
    "cutelim.cf_tree_lines",
    "cutelim.cf_dag_nodes",
    "cutelim.ok",
    "cutelim.budget_exceeded",
    "cutelim.fragment_exceeded",
    "kernel.parse.bytes",
    "kernel.serialize.bytes",
    "flowgraph.nodes",
    "flowgraph.edges",
    "flowgraph.cycles",
)


# first matching name suffix gives the unit; anything else is a count
UNIT_SUFFIXES = (
    ("mb_per_s", "MB/s"),
    ("_per_s", "1/s"),
    ("bytes", "bytes"),
    ("_share", "share"),
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("_s", "s"),
)


class WorkerFailed(Exception):
    pass


def unit_of(name: str) -> str:
    for suffix, unit in UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FEASLAB_NODE_BUDGET", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(config: dict, deadline: float) -> dict:
    """Run one worker in a fresh interpreter and return its JSON output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)]
    timeout = max(5.0, deadline - perf_counter())
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    try:
        data = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerFailed(f"worker printed no result: {err.strip()[-2000:]}")
    if not os.path.realpath(data["feaslab"]).startswith(os.path.realpath(ROOT) + os.sep):
        raise WorkerFailed(f"worker imported feaslab from {data['feaslab']}, not this checkout")
    return data


def commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def scaled_wall(p: dict) -> float:
    return p["wall_s"] * scale(p["probes"])


def cold_metrics(rep: dict, adjust: bool = True) -> dict:
    """End-to-end metrics of one worker's cold and warm pass, at reference
    host speed, or as measured when `adjust` is false."""
    cold, warm = rep["passes"]
    k_cold = scale(cold["probes"]) if adjust else 1.0
    k_warm = scale(warm["probes"]) if adjust else 1.0
    ms = [it["ms"] * k_cold for it in cold["items"]]
    return {
        "cold_s": cold["wall_s"] * k_cold,
        "warm_s": warm["wall_s"] * k_warm,
        # interpolated, so that a gap between item sizes does not make
        # the percentile jump from one item to the next
        "item_p50_ms": statistics.median(ms),
        "item_p80_ms": statistics.quantiles(ms, n=5, method="inclusive")[3],
        "decided_share": sum(it["status"] == "ok" for it in cold["items"]) / len(ms),
        "peak_rss_mb": rep["rss_mb"],
    }


def layer_metrics(p: dict) -> tuple:
    """Per-layer metrics of one traced pass, and its busy/self table, with
    times at reference host speed."""
    k = scale(p["probes"])
    busy, self_time = busy_and_self(p["spans"])
    busy = {name: t * k for name, t in busy.items()}
    self_time = {name: t * k for name, t in self_time.items()}
    m = {name: busy.get(span, 0.0) for name, span in LAYER_TIMES.items()}
    m.update({name: p["counters"].get(name, 0) for name in COUNTERS})

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m["kernel.check.dag_nodes_per_s"] = rate(m["kernel.check.dag_nodes"], m["kernel.check.busy_s"])
    m["kernel.parse.mb_per_s"] = rate(m["kernel.parse.bytes"] / 1e6, m["kernel.parse.busy_s"])
    m["kernel.serialize.mb_per_s"] = rate(
        m["kernel.serialize.bytes"] / 1e6, m["kernel.serialize.busy_s"]
    )
    m["file_mb"] = m["kernel.parse.bytes"] / 1e6
    m["item.self_s"] = self_time.get("item", 0.0)
    return m, busy, self_time


def median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def print_layer_table(busy: dict, self_time: dict):
    layers = {k: v for k, v in busy.items() if k != "item"}
    total = sum(layers.values()) or 1.0
    print(f"# {'span':<22}{'busy_s':>10}{'self_s':>10}{'share':>8}")
    for name in sorted(busy, key=busy.get, reverse=True):
        share = f"{layers[name] / total:8.1%}" if name in layers else " " * 8
        print(f"# {name:<22}{busy[name]:10.4f}{self_time[name]:10.4f}{share}")


def measure(args, directory: str, deadline: float) -> tuple:
    """Start rounds of workers while the next round is expected to end
    within --seconds, or fewer than MIN_ROUNDS have run, and never past
    the deadline; return (reps, failures)."""
    reps, failures = [], []
    start = perf_counter()
    base = {"mode": "passes", "workload": args.workload, "seed": args.seed, "directory": directory}
    plan = [(1, True), (1, False)] if args.trace else [(2, False)]
    rounds = 0
    while True:
        if rounds:
            next_end = (perf_counter() - start) * (rounds + 1) / rounds
            if (next_end > args.seconds and rounds >= MIN_ROUNDS) or start + next_end > deadline:
                break
        rounds += 1
        for passes, traced in plan:
            try:
                rep = spawn(dict(base, round=rounds, passes=passes, trace=traced), deadline)
            except WorkerFailed as exc:
                failures.append(str(exc))
                return reps, failures
            rep["traced"] = traced
            reps.append(rep)
    return reps, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result and its metadata to this JSON-lines file")
    args = ap.parse_args(argv)

    run_start = perf_counter()
    deadline = run_start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "feaslab", "__init__.py")):
        print(f"error: no feaslab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setup_cfg = {"mode": "setup", "workload": args.workload, "seed": args.seed, "directory": directory}
        try:
            spawn(dict(setup_cfg, mode="import"), deadline)  # untimed: compiles bytecode
            setups = [spawn(setup_cfg, deadline) for _ in range(SETUPS)]
        except WorkerFailed as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        reps, failures = measure(args, directory, deadline)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if not reps or (args.trace and not any(r["traced"] for r in reps)):
        print(f"error: no pass completed: {'; '.join(failures)}", file=sys.stderr)
        return 1

    statuses = [it for r in reps for p in r["passes"] for it in p["items"]]
    attempted = len(statuses)
    failed = sum(it["status"] == "error" for it in statuses)
    for it in statuses:
        if it["status"] == "error":
            print(f"# error {it['item']}: {' | '.join(it['errors'])[:500]}")
    for f in failures:
        print(f"# worker failure: {f[:500]}")
    for s in setups:
        s["scale"] = scale(s["probes"])
    setup = {
        "setup.import_s": statistics.median(s["import_s"] * s["scale"] for s in setups),
        "setup.inputs_s": statistics.median(s["inputs_s"] * s["scale"] for s in setups),
        "setup_s": statistics.median((s["import_s"] + s["inputs_s"]) * s["scale"] for s in setups),
    }
    probe_ms = 1000 * statistics.median(
        [x for s in setups for x in s["probes"]] + [x for r in reps for p in r["passes"] for x in p["probes"]]
    )

    if args.trace:
        traced = [layer_metrics(r["passes"][0]) for r in reps if r["traced"]]
        plain = [scaled_wall(r["passes"][0]) for r in reps if not r["traced"]]
        values = median_of([m for m, _, _ in traced])
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.inputs_s"] = setup["setup.inputs_s"]
        values["error_share"] = failed / attempted
        traced_cold = statistics.median(scaled_wall(r["passes"][0]) for r in reps if r["traced"])
        values["trace.overhead_s"] = traced_cold - statistics.median(plain) if plain else 0.0
        names = traced[0][1].keys()
        print_layer_table(
            {k: statistics.median(b[k] for _, b, _ in traced) for k in names},
            {k: statistics.median(st[k] for _, _, st in traced) for k in names},
        )
    else:
        values = median_of([cold_metrics(r) for r in reps])
        values["setup_s"] = setup["setup_s"]
        raw = median_of([cold_metrics(r, adjust=False) for r in reps])
        raw["setup_s"] = statistics.median(s["import_s"] + s["inputs_s"] for s in setups)
        print(f"# error_share {failed / attempted:.4f} ({failed} of {attempted} item passes)")
        print("# unscaled " + " ".join(f"{k} {raw[k]:.6g}" for k in sorted(raw)))
    print(f"# host probe median {probe_ms:.4f} ms, reference {REFERENCE_S * 1000:.4f} ms")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "workers": len(reps),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "node_budget": setups[0]["node_budget"],
        "probe_ms": probe_ms,
        "wall_s": perf_counter() - run_start,
    }
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())},
    }
    print("# meta " + json.dumps(meta))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
