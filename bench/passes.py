"""One timed pass over a workload's inputs, and the checks on its outputs.

A pass is a closed loop in one thread: the next library call is issued only
after the previous one returns.  Everything that is not a library call
(copying inputs, digesting and checking outputs) happens outside the timed
region.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import pentafactor.solver as solver
import pentafactor.workbench as workbench

from workloads import Input, fresh

clock = time.perf_counter


@dataclass
class PassResult:
    """Timings and check outcomes of one pass."""

    wall_s: float = 0.0  # time in library calls, loop included
    solve5_s: float = 0.0
    oddness_s: float = 0.0
    verify_s: float = 0.0
    done: int = 0  # inputs fully certified (census14: batch rows that passed)
    done_wall_s: float = 0.0  # the part of wall_s that ``done`` is counted over
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    oddness_certs: int = 0
    degraded: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def certificate_digest(factor, cert) -> str:
    """Digest of the certificate JSON plus the factor's edge set."""
    return _digest({"certificate": cert.to_json(), "factor": sorted(factor.edge_ids)})


def _call(fn, *args):
    """(result, None) or (None, exception): a failing call is recorded as a
    failed operation and the pass goes on."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none is fatal
        return None, exc


def _check_solve(res: PassResult, label: str, out, exc, ref: str | None) -> str | None:
    """Digest of a solver result that raised nothing, kept within the bound
    and matches the reference; None otherwise."""
    res.attempted += 1
    if exc is not None:
        res.fail(f"{label}: raised {type(exc).__name__}: {exc}")
        return None
    factor, cert = out
    if solver.FLAG_EXCEPTIONAL not in cert.flags and cert.achieved > cert.bound_floor:
        res.fail(f"{label}: achieved {cert.achieved} > floor(bound) {cert.bound_floor}")
        return None
    digest = certificate_digest(factor, cert)
    if ref is not None and digest != ref:
        res.fail(f"{label}: output differs from the reference")
        return None
    return digest


def _check_verdict(res: PassResult, label: str, out, exc) -> bool:
    res.attempted += 1
    if exc is not None:
        res.fail(f"{label}: raised {type(exc).__name__}: {exc}")
        return False
    if not out.ok:
        res.fail(f"{label}: verifier rejected: {'; '.join(out.failures)}")
        return False
    return True


def _count_oddness(res: PassResult, out) -> None:
    if out is not None:
        res.oddness_certs += 1
        res.degraded += solver.FLAG_BEST_EFFORT in out[1].flags


def certify_pass(inputs: list[Input], refs: dict | None, tracer=None) -> PassResult:
    """solve_5cyc, solve_oddness and verify_certificate on both results, for
    every input in turn."""
    res = PassResult()
    graphs = [fresh(inp.graph) for inp in inputs]
    timings = []
    outputs = []
    t_start = clock()
    for inp, g in zip(inputs, graphs):
        if tracer is not None:
            tracer.current_input = inp.name
        t0 = clock()
        five = _call(solver.solve_5cyc, g)
        t1 = clock()
        odd = _call(solver.solve_oddness, g)
        t2 = clock()
        v5 = _call(solver.verify_certificate, g, *five[0]) if five[1] is None else None
        vo = _call(solver.verify_certificate, g, *odd[0]) if odd[1] is None else None
        t3 = clock()
        timings.append((t0, t1, t2, t3))
        outputs.append((five, odd, v5, vo))
    res.wall_s = clock() - t_start
    res.done_wall_s = res.wall_s

    for inp, (t0, t1, t2, t3), (five, odd, v5, vo) in zip(inputs, timings, outputs):
        res.solve5_s += t1 - t0
        res.oddness_s += t2 - t1
        res.verify_s += t3 - t2
        res.latencies_s.append(t3 - t0)
        ref = (refs or {}).get(inp.name, {})
        digests = {label: _check_solve(res, f"{inp.name} {label}", *out, ref.get(label))
                   for label, out in (("five", five), ("odd", odd))}
        res.digests[inp.name] = digests
        ok = None not in digests.values()
        _count_oddness(res, odd[0])
        for label, verdict in (("five", v5), ("odd", vo)):
            if verdict is None:  # the solve raised; its verification never ran
                res.attempted += 1
                res.fail(f"{inp.name} verify {label}: not run")
                ok = False
            else:
                ok &= _check_verdict(res, f"{inp.name} verify {label}", *verdict)
        res.done += ok
    return res


def census_pass(rows: list, refs: dict | None, tracer=None) -> PassResult:
    """``batch_run`` in five+odd mode over the census rows, then
    verify_certificate on every certificate the batch issued.

    Row latency is the time between the batch pulling one row and the next
    from its input iterator.  solve_5cyc and solve_oddness are timed and
    their results kept by a thin wrapper under ``workbench``'s own names.
    """
    res = PassResult()
    rows = [(i, g if isinstance(g, Exception) else fresh(g)) for i, g in rows]
    captured: list[tuple] = []
    spent = {"five": 0.0, "odd": 0.0}

    def capturing(label, fn):
        def call(g, *args, **kwargs):
            t0 = clock()
            try:
                out = fn(g, *args, **kwargs)
            finally:
                spent[label] += clock() - t0
            captured.append((label, g, out))
            return out
        return call

    stamps: list[float] = []

    def feed():
        for row in rows:
            stamps.append(clock())
            if tracer is not None:
                tracer.current_input = f"census14#{row[0]}"
            yield row

    originals = (workbench.solve_5cyc, workbench.solve_oddness)
    workbench.solve_5cyc = capturing("five", originals[0])
    workbench.solve_oddness = capturing("odd", originals[1])
    try:
        t0 = clock()
        report, exc = _call(workbench.batch_run, feed(), ("five", "odd"))
        t1 = clock()
    finally:
        workbench.solve_5cyc, workbench.solve_oddness = originals
    verdicts = []
    for label, g, out in captured:
        if tracer is not None:
            tracer.current_input = f"census14 verify {label}"
        verdicts.append(_call(solver.verify_certificate, g, *out))
    t2 = clock()

    res.wall_s = t2 - t0
    res.done_wall_s = t1 - t0
    res.solve5_s, res.oddness_s = spent["five"], spent["odd"]
    res.verify_s = t2 - t1
    res.latencies_s = [b - a for a, b in zip(stamps, stamps[1:] + [t1])]
    if exc is not None:
        res.attempted += len(rows)
        res.fail(f"batch_run raised {type(exc).__name__}: {exc}")
        res.failed += len(rows) - 1
        return res

    row_digests = [_digest(r.to_json()) for r in report.rows]
    res.digests = {"rows": row_digests, "summary": _digest(report.summary)}
    ref_rows = (refs or {}).get("rows")
    for i, row in enumerate(report.rows):
        res.attempted += 1
        if row.violations:
            res.fail(f"row {row.index}: {', '.join(row.violations)}")
        elif ref_rows is not None and i < len(ref_rows) and row_digests[i] != ref_rows[i]:
            res.fail(f"row {row.index}: output differs from the reference")
        else:
            res.done += 1
    res.attempted += 1  # the summary also covers the row count
    if refs is not None and res.digests["summary"] != refs["summary"]:
        res.fail("batch summary differs from the reference")
    for (label, g, out), (verdict, vexc) in zip(captured, verdicts):
        if label == "odd":
            _count_oddness(res, out)
        _check_verdict(res, f"census14 verify {label}", verdict, vexc)
    return res
