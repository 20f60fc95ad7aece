"""Certify benchmark for pentafactor.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``snarks``, ``reducible``, ``p2ring``, ``census14``, or
``all`` of them one after another) in this single process and thread, checks
every output, prints each metric by name and unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` spends half the time untraced and half
with every library layer wrapped, and gives the per-layer metrics.  The exit
code is 0 when every check passed, 1 when one failed, 2 when the benchmark
could not start.

    python3 bench/run.py --write-reference [--workload NAME]

recomputes the stored output digests in bench/reference.json (seeds 0 to 63
for the seeded workloads).  See
bench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"
WORKLOADS = ("snarks", "reducible", "p2ring", "census14")
SETUP_REPEATS = 5
IMPORT_REPEATS = 8
REFERENCE_SEEDS = range(64)
# Fixed per workload so that the tail means the same on every commit; each
# is the highest percentile with at least ten samples beyond it at the
# default run length (see README.md).
TAIL_PERCENTILE = {"snarks": 50, "reducible": 75, "p2ring": 50, "census14": 99}
# Layers each workload exists to exercise (README.md).  The traced run fails
# when one of them records no call: a layer reached through a name the tracer
# did not wrap would otherwise hide its time in its caller's self time.
_ENTRY = ("solver.solve_5cyc", "solver.solve_oddness", "solver.verify_certificate")
EXERCISED = {
    "snarks": _ENTRY + ("connectivity.small_cuts", "connectivity.bridges_skipping",
                        "reductions.reduce_cut_step", "patterns.find_occurrences",
                        "matching.min_weight_perfect_matching"),
    "reducible": _ENTRY + ("reductions.full_reduce", "reductions.reduce_cut_step",
                           "reductions.reduce_girth_step", "reductions.lift_two_factor",
                           "coloring.three_edge_color", "patterns.find_occurrences"),
    "p2ring": _ENTRY + ("solver.p2_tiebreak", "solver.enumerate_optimal_matchings",
                        "matching.min_weight_perfect_matching",
                        "factors.two_factor_from_edges"),
    "census14": _ENTRY + ("workbench.batch_run", "connectivity.cyclic_edge_connectivity",
                          "graphs.enumerate_circuits_up_to", "graphs.girth",
                          "graphs.is_petersen", "coloring.three_edge_color"),
}

clock = time.perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("graphs_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("solve5_s", "s"),
    ("oddness_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
)


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import pentafactor; print(time.perf_counter() - t0)"
)


def _import_library() -> float:
    """Import pentafactor from this checkout's src/ and return the shortest
    import time of this import and of IMPORT_REPEATS more in fresh
    interpreters, each waited for.  Import times on a shared host come in two
    clusters about 40 % apart, and a median flips between them from run to
    run; the shortest time is the import's own cost."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = clock()
    import pentafactor

    times = [clock() - t0]
    if Path(pentafactor.__file__).resolve().parent != src / "pentafactor":
        raise ImportError(f"pentafactor imported from {pentafactor.__file__}, not from src/")
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)],
                               capture_output=True, text=True, check=True, timeout=60)
        times.append(float(probe.stdout))
    return min(times)


def host_speed_s() -> float:
    """Best of 5 timings of a fixed pure-Python loop that does not touch the
    library.  A host that runs it slower runs everything slower, so compare
    it before blaming a commit for a slowdown."""
    best = math.inf
    for _ in range(5):
        t0 = clock()
        total = 0
        for i in range(1_000_000):
            total += i * i
        best = min(best, clock() - t0)
    return best


def host_info() -> dict:
    import networkx

    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "speed_s": host_speed_s(),
        "platform": platform.platform(),
    }


# -- timing loop ---------------------------------------------------------------------


def run_passes(one_pass, seconds: float) -> list:
    """Whole passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = clock()
    while True:
        gc.collect()
        t0 = clock()
        passes.append(one_pass())
        now = clock()
        if now - start + (now - t0) > seconds:
            return passes


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """(value at the q-th percentile by nearest rank, samples beyond it)."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload: str, setup_s: float, passes: list, alone: bool) -> tuple[dict, dict]:
    """The end-to-end metrics and the notes printed next to them.  Peak RSS
    covers the whole process, so it is given only when this workload is the
    only one the process ran."""
    lat = sorted(x for p in passes for x in p.latencies_s)
    q = TAIL_PERCENTILE[workload]
    tail, beyond = nearest_rank(lat, q)
    values = {
        "setup_s": setup_s,
        "graphs_per_s": statistics.median(p.done / p.done_wall_s for p in passes),
        "latency_ms_p50": 1000 * statistics.median(lat),
        "latency_ms_tail": 1000 * tail,
        "solve5_s": statistics.median(p.solve5_s for p in passes),
        "oddness_s": statistics.median(p.oddness_s for p in passes),
        "verify_s": statistics.median(p.verify_s for p in passes),
    }
    if alone:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "latency_ms_p50": f"{len(lat)} samples",
        "latency_ms_tail": f"p{q}, {len(lat)} samples, {beyond} beyond"
        + ("" if beyond >= 10 else " (fewer than 10: run longer)"),
        "solve5_s": "per pass",
        "oddness_s": "per pass",
        "verify_s": "per pass",
    }
    if not alone:
        notes["peak_rss_mb"] = "absent: covers earlier workloads too; run one workload"
    return {k: (values[k], unit) for k, unit in END_TO_END if k in values}, notes


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics of the traced passes, per pass, plus coverage and overhead."""
    from spans import TRACED

    n = len(traced)
    totals = tracer.layer_totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for mod, funcs in TRACED.items():
        for func in funcs:
            name = f"{mod}.{func}"
            row = totals.get(name, {})
            out[f"{name}.calls"] = (row.get("calls", 0) / n, "count")
            out[f"{name}.self_s"] = (row.get("self_s", 0.0) / n, "s")
    skip = totals.get("connectivity.bridges_skipping", {})
    for parent, label in (("connectivity.small_cuts", "in_small_cuts"),
                          ("coloring.three_edge_color", "in_three_edge_color")):
        out[f"connectivity.bridges_skipping.{label}.self_s"] = (
            skip.get(f"self_s.under.{parent}", 0.0) / n, "s")

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    out["connectivity.small_cuts.cuts"] = (counts["connectivity.small_cuts.cuts"] / n, "count")
    out["coloring.three_edge_color.colorable_ratio"] = (
        ratio(counts["coloring.three_edge_color.colorable"], calls("coloring.three_edge_color")),
        "ratio")
    out["graphs.enumerate_circuits_up_to.circuits"] = (
        counts["graphs.enumerate_circuits_up_to.circuits"] / n, "count")
    out["reductions.reduce_cut_step.yield_ratio"] = (
        ratio(counts["reductions.reduce_cut_step.yielded"], calls("reductions.reduce_cut_step")),
        "ratio")
    # Each yielded cut step recolours its chosen side once more, always
    # successfully; those calls are not candidate sides and are left out.
    yielded = counts["reductions.reduce_cut_step.yielded"]
    out["reductions.side_colorable_ratio"] = (
        ratio(counts["reductions.side_colorable"] - yielded,
              counts["reductions.side_colorings"] - yielded), "ratio")
    out["reductions.steps_applied"] = (counts["reductions.steps_applied"] / n, "count")
    out["patterns.find_occurrences.found"] = (counts["patterns.find_occurrences.found"] / n, "count")
    out["solver.enumerate_optimal_matchings.optima"] = (
        counts["solver.enumerate_optimal_matchings.optima"] / n, "count")
    out["solver.enumerate_optimal_matchings.useful_ratio"] = (
        ratio(counts["solver.enumerate_optimal_matchings.optima"],
              counts["solver.enumerate_optimal_matchings.blossom_calls"]), "ratio")
    out["solver.degraded_ratio"] = (
        ratio(sum(p.degraded for p in traced), sum(p.oddness_certs for p in traced)), "ratio")
    traced_wall = sum(p.wall_s for p in traced)
    out["trace.coverage_ratio"] = (ratio(tracer.layer_seconds(), traced_wall), "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1, "ratio")
    return out


# -- one workload ----------------------------------------------------------------------


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(workload, {})
    return ref.get("*", ref.get(str(seed)))


def pass_function(workload: str, inputs, refs, tracer=None):
    import passes

    if workload == "census14":
        return lambda: passes.census_pass(inputs, refs, tracer)
    return lambda: passes.certify_pass(inputs, refs, tracer)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
                 alone: bool) -> dict:
    import passes
    import workloads

    build = workloads.GENERATORS[workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        inputs = build(seed)
        setup_times.append(clock() - t0)
    setup_s = import_s + statistics.median(setup_times)
    workloads.validate(workload, inputs)
    refs = load_reference(workload, seed)

    # Warm-up outside the timed region: lazy imports and module-level caches.
    if workload == "census14":
        passes.census_pass(inputs[:40], None)
    else:
        passes.certify_pass(inputs[:1], None)

    tracer = None
    if not trace:
        timed = run_passes(pass_function(workload, inputs, refs), seconds)
        metrics, notes = end_to_end(workload, setup_s, timed, alone)
        all_passes = timed
    else:
        from spans import Tracer

        untraced = run_passes(pass_function(workload, inputs, refs), seconds / 2)
        with Tracer() as tracer:
            t_trace = clock()
            traced = run_passes(pass_function(workload, inputs, refs, tracer), seconds / 2)
        metrics = per_layer(tracer, traced, untraced)
        notes = {}
        all_passes = untraced + traced

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    oddness_certs = sum(p.oddness_certs for p in all_passes)
    degraded = sum(p.degraded for p in all_passes)
    failures = [f for p in all_passes for f in p.failures][:20]
    checks_ok = failed == 0
    if trace:
        if metrics["trace.coverage_ratio"][0] < 0.95:
            checks_ok = False
            failures.append(f"trace coverage {metrics['trace.coverage_ratio'][0]:.3f} < 0.95")
        for name in EXERCISED[workload]:
            if metrics[f"{name}.calls"][0] == 0:
                checks_ok = False
                failures.append(f"trace: {name} recorded no call")

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_info(),
        "inputs": len(inputs),
        "passes": len(all_passes),
        "reference": "checked" if refs is not None else f"none stored for seed {seed}",
        "correct": checks_ok,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": ratio(failed, attempted),
        "degraded_ratio": ratio(degraded, oddness_certs),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        result["layer_shares"] = layer_shares(tracer, len(traced))
        tracer.write(OUT / f"{stem}-spans.json", t_trace)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_result(result, degraded, oddness_certs)
    return result


def layer_shares(tracer, n_passes: int) -> list[tuple[str, float, float]]:
    """(span name, self seconds per pass, share of all self time), largest first."""
    totals = tracer.layer_totals()
    total = sum(row["self_s"] for row in totals.values()) or 1.0
    return sorted(((name, row["self_s"] / n_passes, row["self_s"] / total)
                   for name, row in totals.items()), key=lambda r: -r[1])


def print_result(result: dict, degraded: int, oddness_certs: int) -> None:
    host = result["host"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"inputs {result['inputs']}  passes {result['passes']}  reference {result['reference']}")
    print(f"   host: python {host['python']}, networkx {host['networkx']}, "
          f"nproc {host['nproc']}, loadavg {' '.join(map(str, host['loadavg']))}, "
          f"speed_s {host['speed_s']:.4f}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"   {name:<58} {m['value']:>14.6g} {m['unit']:<6} {note}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"   {name:<58} {'-':>14} {'':<6} {note}")
    print(f"   {'failed_ratio':<58} {result['failed_ratio']:>14.6g} ratio  "
          f"{result['failed']}/{result['attempted']} operations")
    print(f"   {'degraded_ratio':<58} {result['degraded_ratio']:>14.6g} ratio  "
          f"{degraded}/{oddness_certs} oddness certificates best-effort")
    for name, self_s, share in result.get("layer_shares", [])[:12]:
        print(f"   self time per pass {name:<39} {self_s:>10.4f} s {100 * share:6.1f} %")
    for f in result["failures"]:
        print(f"   FAILED: {f}")


# -- reference digests ---------------------------------------------------------------


def write_reference(names: list[str]) -> int:
    import passes
    import workloads

    ref = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref["schema"] = "pentafactor.bench.reference/1"
    for workload in names:
        seed_keys = [str(s) for s in REFERENCE_SEEDS] if workload in workloads.SEEDED else ["*"]
        entry = {}
        for key in seed_keys:
            inputs = workloads.GENERATORS[workload](0 if key == "*" else int(key))
            workloads.validate(workload, inputs)
            res = pass_function(workload, inputs, None)()
            if res.failed:
                print(f"{workload} seed {key}: {res.failures}", file=sys.stderr)
                return 1
            entry[key] = res.digests
            print(f"{workload} seed {key}: {len(inputs)} inputs digested", flush=True)
        ref[workload] = entry
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


# -- entry point -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        import_s = _import_library()
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"cannot import the library: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    if args.write_reference:
        return write_reference(names)

    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), import_s,
                                alone=len(names) == 1) for w in names]
    except (OSError, RuntimeError) as exc:
        # Missing inputs or an invalid workload: no result is printed.
        print(f"benchmark could not run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
