"""Command line front end.

Subcommands mirror the library surface: gen builds and checks a proof,
check validates a serialized one, cutfree checks its input, eliminates
cuts and re-checks, flow prints occurrence-graph statistics, bench sweeps
a generator and emits CSV, orbit iterates a Moebius action, oracle prints
minimal derivation sizes, torus prints the toral automorphism growth
table.

Output is deterministic; timing columns stay empty unless requested.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .cutelim import (
    BLOWUP_COLUMNS,
    FragmentError,
    NodeBudgetError,
    blowup_report,
    eliminate_cuts,
    ratio_text,
)
from .flowgraph import build_flow_graph, emit_dot
from .generators import (
    GeneratorError,
    gen_group_power,
    gen_matrix_power,
    gen_rational_orbit,
    GENERATORS,
)
from .kernel import KernelError, check, proof_from_file, proof_to_file
from .lang import LangError, count_text, sequent_brief
from .oracle import (
    OracleError,
    distortion_table,
    min_proof_lines,
    min_tree_derivation,
)
from .semantics import (
    SemanticsError,
    eigenvalues_sym2,
    mat2,
    mobius_apply,
    parse_ext_rational,
    parse_mat2,
    winding_growth_rows,
)
from .theories import TheoryError, theory_from_selector

_X_HELP = "orbit start point; use --x=-1/2 for a negative point"


def _add_gen_arguments(sp, positional: bool = True):
    if positional:
        sp.add_argument("generator", choices=sorted(GENERATORS))
        sp.add_argument("n", type=int)
    sp.add_argument(
        "--mode",
        default="squaring",
        choices=("linear", "squaring", "quantifier"),
        help="variant for group-power and matrix-power",
    )
    sp.add_argument("--letter", default="x", help="group generator letter")
    sp.add_argument(
        "--theory",
        default=None,
        help="theory selector: arith, rat, group:bs12, group:free:<g1,g2,..>",
    )
    sp.add_argument("--matrix", default="(2 1; 1 1)", help='matrix "(a b; c d)"')
    sp.add_argument("--x", dest="orbit_x", default="0", help=_X_HELP)


def _make_report(name: str, n: int, args):
    if name == "group-power":
        theory = theory_from_selector(args.theory) if args.theory else None
        return gen_group_power(gen=args.letter, n=n, mode=args.mode, theory=theory)
    if name == "matrix-power":
        return gen_matrix_power(parse_mat2(args.matrix), n, mode=args.mode)
    if name == "rational-orbit":
        return gen_rational_orbit(
            parse_mat2(args.matrix), parse_ext_rational(args.orbit_x), n
        )
    return GENERATORS[name](n)


def _headline(name: str, rep) -> str:
    if name == "matrix-power":
        return f"Phi {rep.value_desc}"
    return f"F({rep.value_desc})"


def _cmd_gen(args) -> int:
    rep = _make_report(args.generator, args.n, args)
    s = check(rep.proof, rep.theory)
    print(
        f"{_headline(args.generator, rep)}, lines={s.lines}, "
        f"cuts={s.cut_count}, contractions={s.contraction_count}"
    )
    if args.emit:
        proof_to_file(rep.proof, args.emit)
        print(f"wrote {args.emit}")
    return 0


def _cmd_check(args) -> int:
    theory = theory_from_selector(args.theory)
    p = proof_from_file(args.file, theory.signature)
    stats = check(p, theory)
    print(f"ok: {sequent_brief(p.conclusion)}, lines={count_text(stats.lines)}")
    return 0


def _cmd_cutfree(args) -> int:
    if args.infile:
        if not args.theory:
            raise TheoryError("--in needs --theory to interpret the proof")
        theory = theory_from_selector(args.theory)
        p = proof_from_file(args.infile, theory.signature)
    else:
        if args.generator is None or args.n is None:
            raise GeneratorError("give a generator and n, or --in FILE --theory SEL")
        rep = _make_report(args.generator, args.n, args)
        p, theory = rep.proof, rep.theory
    before = check(p, theory).lines
    cf = eliminate_cuts(p, theory, budget=args.budget)
    after = check(cf, theory).lines
    print(
        f"lines {count_text(before)} -> {count_text(after)}, "
        f"ratio={ratio_text(after, before)}, checked=ok"
    )
    if args.emit:
        proof_to_file(cf, args.emit)
        print(f"wrote {args.emit}")
    return 0


def _cmd_flow(args) -> int:
    rep = _make_report(args.generator, args.n, args)
    g = build_flow_graph(rep.proof, rep.theory)
    s = g.stats()
    print(
        f"nodes={s['nodes']} edges={s['edges']} components={s['components']} "
        f"cycles={s['cycles']} bridges={s['bridges']}"
    )
    if args.dot:
        text = emit_dot(g)  # before the file is opened, so a failure leaves none
        with open(args.dot, "w") as fh:
            fh.write(text)
        print(f"wrote {args.dot}")
    return 0


def _parse_range(text: str):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(text)]
    except ValueError:
        raise GeneratorError(f"bench range must be n or a..b with integers, got {text!r}") from None


def _cmd_bench(args) -> int:
    ns = _parse_range(args.range)
    rows = blowup_report(
        lambda n: _make_report(args.generator, n, args),
        ns,
        budget=args.budget,
        timings=args.timings,
    )
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(BLOWUP_COLUMNS)
        for r in rows:
            w.writerow(
                [
                    r.n,
                    r.lines_with_cuts,
                    "" if r.lines_cut_free is None else count_text(r.lines_cut_free),
                    "" if r.ratio is None else ratio_text(r.lines_cut_free, r.lines_with_cuts),
                    r.cut_count,
                    r.contraction_count,
                    "" if r.wall_time_ms is None else f"{r.wall_time_ms:.3f}",
                    r.status,
                ]
            )
    finally:
        if args.output:
            out.close()
            print(f"wrote {args.output}")
    return 0


def _cmd_orbit(args) -> int:
    a = parse_mat2(args.matrix)
    x = parse_ext_rational(args.orbit_x)
    cur = x
    for k in range(args.n + 1):
        print(f"{k} {cur}")
        if k < args.n:
            cur = mobius_apply(a, cur)
    if args.gen is not None:
        rep = gen_rational_orbit(a, x, args.gen)
        s = rep.stats
        print(
            f"proof: F({rep.value_desc}), lines={s.lines}, cuts={s.cut_count}, "
            f"contractions={s.contraction_count}"
        )
    return 0


def _cmd_oracle(args) -> int:
    if args.distortion:
        rows = distortion_table(max_n=args.max_n, radius=args.radius)
        print("n proof_lines normal_form conjugated_length word_distance")
        for r in rows:
            dist = "-" if r.word_distance is None else r.word_distance
            print(
                f"{r.n} {r.proof_lines} {r.normal_form} "
                f"{r.conjugated_length} {dist}"
            )
        return 0
    try:
        costs = tuple(int(x) for x in args.costs.split(","))
    except ValueError:
        raise OracleError(f"--costs needs integers succ,plus,times, got {args.costs!r}") from None
    if args.enum and costs != (1, 1, 1):
        raise OracleError("--enum counts unit-cost proof lines and takes only --costs 1,1,1")
    best = min_tree_derivation(args.n, costs)
    print(f"min-lines F({args.n}) = {best}")
    if args.enum:
        lines = min_proof_lines(args.n)
        verdict = "match" if lines == best else "MISMATCH"
        print(f"enumerated proof lines = {lines} ({verdict})")
    return 0


def _cmd_torus(args) -> int:
    a = mat2(2, 1, 1, 1)
    lam1, lam2 = eigenvalues_sym2(a)
    print(f"matrix {a}")
    print(f"eigenvalues {lam1:.12f} {lam2:.12f}")
    v = (1, 0)
    print("k norm ratio")
    for k, (norm, ratio) in enumerate(winding_growth_rows(a, v, args.n), start=1):
        print(f"{k} {count_text(norm)} {ratio:.9f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="feaslab",
        description="feasibility proofs: generators, checking, cut elimination, flow graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate and check a proof")
    _add_gen_arguments(sp)
    sp.add_argument("--emit", default=None, help="write the proof as JSON")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("check", help="check a serialized proof")
    sp.add_argument("file")
    sp.add_argument("--theory", required=True)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("cutfree", help="eliminate cuts and re-check")
    sp.add_argument("generator", nargs="?", choices=sorted(GENERATORS))
    sp.add_argument("n", nargs="?", type=int)
    _add_gen_arguments(sp, positional=False)
    sp.add_argument("--in", dest="infile", default=None, help="read a proof file")
    sp.add_argument("--emit", default=None, help="write the cut-free proof")
    sp.add_argument("--budget", type=int, default=None, help="node budget override")
    sp.set_defaults(fn=_cmd_cutfree)

    sp = sub.add_parser("flow", help="print flow graph statistics")
    _add_gen_arguments(sp)
    sp.add_argument("--dot", default=None, help="write Graphviz output")
    sp.set_defaults(fn=_cmd_flow)

    sp = sub.add_parser("bench", help="compression sweep as CSV")
    sp.add_argument("generator", choices=sorted(GENERATORS))
    sp.add_argument("range", help="single n or a..b inclusive")
    _add_gen_arguments(sp, positional=False)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--timings", action="store_true", help="fill wall_time_ms")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=_cmd_bench)

    sp = sub.add_parser("orbit", help="iterate a Moebius action")
    sp.add_argument("--matrix", default="(2 1; 1 1)")
    sp.add_argument("--x", dest="orbit_x", default="0", help=_X_HELP)
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--gen", type=int, default=None, help="also prove stage 2^m")
    sp.set_defaults(fn=_cmd_orbit)

    sp = sub.add_parser("oracle", help="minimal derivation sizes")
    sp.add_argument("n", type=int, nargs="?", default=16)
    sp.add_argument("--enum", action="store_true", help="cross-check by enumeration")
    sp.add_argument("--costs", default="1,1,1", help="succ,plus,times costs")
    sp.add_argument("--distortion", action="store_true", help="distortion table")
    sp.add_argument("--max-n", type=int, default=3, dest="max_n")
    sp.add_argument("--radius", type=int, default=20)
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("torus", help="toral automorphism growth table")
    sp.add_argument("--n", type=int, default=30)
    sp.set_defaults(fn=_cmd_torus)

    return ap


_ERRORS = (
    KernelError,
    LangError,
    TheoryError,
    GeneratorError,
    SemanticsError,
    OracleError,
    FragmentError,
    NodeBudgetError,
    OSError,
)


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError as e:
        print(f"error: input nested too deeply ({e})", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
