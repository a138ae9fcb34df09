"""Compare two result sets, parent and change, written by run.py --record.

    python3 benchmarks/compare.py parent.jsonl change.jsonl

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the share of pairs the change wins, and a verdict:

  better      at least 10 pairs, the change wins at least 90% of them
              (ties count for neither), and the medians differ by more
              than the distance between the parent's quartiles;
  unresolved  not better, and the parent's quartile spread is wider than
              the metric's bound, unless every change run beats every
              parent run; also a would-be gain on fewer than 10 pairs;
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json;
  unchanged   otherwise.

Runs are paired by seed where both sides share seeds, else in file order.
Per-layer deltas come from the traced runs (--trace 1) of each side.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> tuple:
    """({(workload, trace): [(seed, {metric: value}), ...]}, [meta, ...])."""
    runs = defaultdict(list)
    metas = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            meta = rec["meta"]
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            runs[(meta["workload"], meta["trace"])].append((meta["seed"], metrics))
            metas.append(meta)
    return runs, metas


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pairs(parent, change, name):
    p_by_seed = {seed: m[name] for seed, m in parent}
    c_by_seed = {seed: m[name] for seed, m in change}
    common = sorted(set(p_by_seed) & set(c_by_seed))
    if common:
        return [(p_by_seed[s], c_by_seed[s]) for s in common]
    return list(zip((m[name] for _, m in parent), (m[name] for _, m in change)))


def verdict(p_vals, c_vals, paired, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(p_vals), statistics.median(c_vals)
    q1, q3 = quartiles(p_vals)
    gain = sign * (pm - cm)
    wins = sum(sign * (p - c) > 0 for p, c in paired)
    share = wins / len(paired) if paired else 0.0
    dominates = min(sign * -c for c in c_vals) > max(sign * -p for p in p_vals)
    if share >= 0.9 and gain > q3 - q1:
        if len(paired) >= 10:
            return "better", share
        return "unresolved", share
    if q3 - q1 > bound * abs(pm) and not dominates:
        return "unresolved", share
    if -gain > bound * abs(pm):
        return "worse", share
    return "unchanged", share


def fmt(x) -> str:
    return f"{x:.6g}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    (parent, p_meta), (change, c_meta) = load(argv[0]), load(argv[1])
    for side, metas in (("parent", p_meta), ("change", c_meta)):
        keys = ("commit", "python", "nproc", "node_budget", "seconds")
        seen = {k: sorted({str(m.get(k)) for m in metas}) for k in keys}
        print(f"{side}: {len(metas)} runs, " + ", ".join(f"{k}={'/'.join(v)}" for k, v in seen.items()))

    print()
    print(f"{'workload':<10} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'pairs':>5} {'wins':>5}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get((workload, 0), []), change.get((workload, 0), [])
        if not p_runs or not c_runs:
            print(f"{workload:<10} (no untraced runs on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [m[name] for _, m in p_runs]
            c_vals = [m[name] for _, m in c_runs]
            paired = pairs(p_runs, c_runs, name)
            word, share = verdict(p_vals, c_vals, paired, metric["better"], metric["bound"])
            cols = []
            for vals in (p_vals, c_vals):
                q1, q3 = quartiles(vals)
                cols.append(f"{fmt(statistics.median(vals))} [{fmt(q1)}, {fmt(q3)}]")
            print(f"{workload:<10} {name:<14} {cols[0]:<34} {cols[1]:<34} "
                  f"{len(paired):>5} {share:>5.0%}  {word}")

    print()
    print(f"{'workload':<10} {'per-layer metric':<34} {'parent':>14} {'change':>14} {'delta':>9}")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get((workload, 1), []), change.get((workload, 1), [])
        if not p_runs or not c_runs:
            print(f"{workload:<10} (no traced runs on one side)")
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            pm = statistics.median(m[name] for _, m in p_runs)
            cm = statistics.median(m[name] for _, m in c_runs)
            delta = f"{(cm - pm) / abs(pm):+9.1%}" if pm else f"{'n/a':>9}"
            print(f"{workload:<10} {name:<34} {fmt(pm):>14} {fmt(cm):>14} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
