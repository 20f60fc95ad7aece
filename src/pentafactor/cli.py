"""Command-line workbench.

Verbs: solve5, oddness, oracle, reduce, patterns, gen, verify, batch.
Inputs are graph6/sparse6 lines or cubicmg blocks, from a file or stdin.
Exit codes: 0 all bounds satisfied, 2 a bound violation was found, 1
operational error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .errors import CapExceeded, UnclassifiableP3b
from .factors import TwoFactor
from .formats import parse_graph, serialize_graph
from .graphs import CubicGraph
from .solver import (
    Certificate,
    solve_5cyc,
    solve_oddness,
    verify_certificate,
)
from .workbench import (
    ORACLE_DEFAULT_CAP,
    batch_run,
    load_graphs,
    oracle_exact,
    parse_generator_spec,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _read_input(path: str, format_hint: str | None = None) -> str:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if format_hint is not None:
        looks_cubicmg = text.lstrip().startswith("cubicmg")
        if looks_cubicmg != (format_hint == "cubicmg"):
            raise ValueError(f"input does not look like {format_hint}")
    return text


def _single_graph(path: str, format_hint: str | None = None) -> CubicGraph:
    text = _read_input(path, format_hint)
    items = list(load_graphs(text.splitlines()))
    if not items:
        raise ValueError("no graph in input")
    idx, item = items[0]
    if isinstance(item, Exception):
        raise item
    return item


def _factor_json(factor: TwoFactor) -> dict[str, Any]:
    return {
        "edge_ids": sorted(factor.edge_ids),
        "circuits": [list(c.vertices) for c in factor.circuits],
        "lengths": factor.length_counts(),
        "odd_count": factor.odd_count,
        "count5": factor.count5,
        "count3": factor.count3,
        "invariant_I": str(factor.invariant_I),
    }


def _emit(payload: dict[str, Any], json_path: str | None) -> None:
    if json_path:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if json_path == "-":
            print(text)
        else:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")


def _solve_common(args, solver, label: str) -> int:
    g = _single_graph(args.input, args.format)
    try:
        factor, cert = solver(g)
    except UnclassifiableP3b as exc:
        print(f"{label}: UnclassifiableP3b: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(
        f"{label} n={g.n} achieved={cert.achieved} bound={cert.bound_value}"
        f" floor={cert.bound_floor} flags={','.join(sorted(cert.flags)) or '-'}"
    )
    payload = {
        "graph": serialize_graph(g),
        "certificate": cert.to_json(),
        "factor": _factor_json(factor),
    }
    _emit(payload, args.json)
    return EXIT_OK if cert.within_bound else EXIT_VIOLATION


def cmd_solve5(args) -> int:
    return _solve_common(args, solve_5cyc, "solve5")


def cmd_oddness(args) -> int:
    return _solve_common(args, solve_oddness, "oddness")


def cmd_oracle(args) -> int:
    g = _single_graph(args.input, args.format)
    try:
        w5, w = oracle_exact(g, cap=args.oracle_cap)
    except CapExceeded as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"oracle n={g.n} five_cyclicity={w5} oddness={w}")
    _emit({"graph": serialize_graph(g), "five_cyclicity": w5, "oddness": w}, args.json)
    return EXIT_OK


def cmd_reduce(args) -> int:
    from .coloring import UNCOLORABLE, three_edge_color
    from .reductions import full_reduce

    g = _single_graph(args.input, args.format)
    if three_edge_color(g) is not UNCOLORABLE:
        print("reduce: input is 3-edge-colorable; reduction does not apply")
        _emit({"graph": serialize_graph(g), "colorable": True}, args.json)
        return EXIT_OK
    trace = full_reduce(g)
    print(
        f"reduce n={g.n} -> n={trace.reduced.n} steps={len(trace.steps)}"
        f" terminal={trace.terminal_flag}"
    )
    payload = {
        "graph": serialize_graph(g),
        "reduced": serialize_graph(trace.reduced),
        "terminal": trace.terminal_flag,
        "steps": trace.summary(),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_patterns(args) -> int:
    from .patterns import KINDS, classify_occurrences, find_occurrences

    g = _single_graph(args.input, args.format)
    found = find_occurrences(g, *KINDS)
    occ = {kind: [o for o in found if o.kind == kind] for kind in KINDS}
    census = classify_occurrences(
        g, occ["P1"], occ["P2"], occ["P3"], mode=args.mode, enforce_disjoint=False
    )
    report = []
    for o in census.occurrences:
        report.append({
            "kind": o.kind,
            "vertices": sorted(o.host_vertices),
            "boundary": list(o.boundary),
            "class_tag": o.class_tag,
        })
    print(f"patterns n={g.n} P1={len(occ['P1'])} P2={len(occ['P2'])} P3={len(occ['P3'])}"
          f" classified: p1={len(census.p1)} p2={len(census.p2)} p3={len(census.p3)}")
    _emit({"graph": serialize_graph(g), "occurrences": report}, args.json)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = args.family if args.param is None else f"{args.family}:{args.param}"
    graphs = parse_generator_spec(spec)
    for g in graphs:
        print(serialize_graph(g))
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.bundle, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    g = parse_graph(payload["graph"])
    cert = Certificate.from_json(payload["certificate"])
    from .factors import two_factor_from_edges

    factor = two_factor_from_edges(g, frozenset(payload["factor"]["edge_ids"]))
    verdict = verify_certificate(g, factor, cert)
    if verdict.ok:
        print("verify: all checks passed")
        return EXIT_OK
    for f in verdict.failures:
        print(f"verify: FAIL {f}")
    return EXIT_VIOLATION


def cmd_batch(args) -> int:
    if args.input.startswith(("chain:", "p3ring:", "census:")) or args.input == "petersen":
        graphs = list(enumerate(parse_generator_spec(args.input)))
    else:
        graphs = list(load_graphs(_read_input(args.input, args.format).splitlines()))
    report = batch_run(
        graphs,
        modes=args.mode.split("+"),
        oracle_cap=args.oracle_cap,
        include_timings=args.timings,
    )
    for row in report.rows:
        if row.status == "skipped":
            print(f"[{row.index}] skipped: {row.reason}")
            continue
        bits = [f"[{row.index}] n={row.n}", f"girth={row.girth}",
                f"colorable={'y' if row.colorable else 'n'}"]
        if row.cyclic_connectivity is not None:
            bits.append(f"cec={row.cyclic_connectivity}")
        if row.achieved5 is not None:
            bits.append(f"five={row.achieved5}/{row.bound5}")
        if row.k_odd is not None:
            bits.append(f"odd={row.k_odd}/{row.bound_odd}")
        if row.odd_note:
            bits.append("odd=unclassifiable")
        if row.oracle_w5 is not None:
            bits.append(f"oracle=({row.oracle_w5},{row.oracle_w})")
        if row.violations:
            bits.append("VIOLATION:" + ";".join(row.violations))
        print(" ".join(bits))
    print(f"batch: {report.summary['graphs']} graphs,"
          f" {report.summary['skipped']} skipped,"
          f" {report.summary['violations']} violations")
    _emit(report.to_json(), args.json)
    return EXIT_VIOLATION if report.has_violation else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pentafactor",
        description="2-factors of bridgeless cubic graphs with few 5-circuits",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", nargs="?", default="-",
                           help="graph file (graph6/sparse6/cubicmg) or - for stdin")
        p.add_argument("--format", choices=["graph6", "cubicmg"], default=None,
                       help="input format hint (auto-detected by default)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write a JSON report (- for stdout)")

    p = sub.add_parser("solve5", help="triangle-free 2-factor with <= 2(n-2)/15 5-circuits")
    common(p)
    p.set_defaults(fn=cmd_solve5)

    p = sub.add_parser("oddness", help="2-factor with few odd circuits (6n/35 on reduced)")
    common(p)
    p.set_defaults(fn=cmd_oddness)

    p = sub.add_parser("oracle", help="exact 5-cyclicity and oddness by enumeration")
    common(p)
    p.add_argument("--oracle-cap", type=int, default=ORACLE_DEFAULT_CAP)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("reduce", help="run the girth/cut reductions to a fixpoint")
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("patterns", help="P1/P2/P3 occurrence report")
    common(p)
    p.add_argument("--mode", choices=["oddness", "fivecyc"], default="oddness")
    p.set_defaults(fn=cmd_patterns)

    p = sub.add_parser("gen", help="emit a generated family member")
    p.add_argument("family", help="petersen | chain | p3ring | census")
    p.add_argument("param", nargs="?", default=None, help="k, copies, or n (ranges: A..B)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="re-verify a solve JSON bundle")
    p.add_argument("bundle", help="JSON written by solve5/oddness --json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("batch", help="run pipelines over a file or generator spec")
    common(p)
    p.add_argument("--mode", default="five",
                   help="five | odd | both | oracle, combinable with + "
                        "(e.g. both+oracle)")
    p.add_argument("--oracle-cap", type=int, default=ORACLE_DEFAULT_CAP)
    p.add_argument("--timings", action="store_true",
                   help="include per-row timings (breaks byte-identical output)")
    p.set_defaults(fn=cmd_batch)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
