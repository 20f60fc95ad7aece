"""Objectives, tie-break, pipelines, certificates, verification."""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from pentafactor import solver
from pentafactor.errors import (
    CertificationError,
    HasBridge,
    NoPerfectMatching,
    UnclassifiableP3b,
)
from pentafactor.factors import complement_two_factor, two_factor_from_edges
from pentafactor.families import gen_chain_family, gen_p3_ring, gen_petersen
from pentafactor.formats import parse_graph
from pentafactor.graphs import CubicGraph, MultiGraph, PETERSEN_EDGES, enumerate_circuits_up_to
from pentafactor.matching import enumerate_perfect_matchings, min_weight_perfect_matching
from pentafactor.patterns import Census, find_occurrences, goes_through, take_census
from pentafactor.reductions import full_reduce
from pentafactor.solver import (
    Certificate,
    build_weights,
    enumerate_optimal_matchings,
    p2_tiebreak,
    nontrivial_certificate,
    solve_5cyc,
    solve_oddness,
    verify_certificate,
)

from tests.hosts import exceptional_22_host, relabeled, two_cut_fixture, two_cycle_fixture


def test_complement_factor_examples(petersen, k4, cube):
    for m in enumerate_perfect_matchings(petersen):
        f = complement_two_factor(petersen, m)
        assert f.length_counts() == {5: 2}
        assert f.invariant_I == 2
    f = complement_two_factor(k4, enumerate_perfect_matchings(k4)[0])
    assert f.length_counts() == {4: 1} and f.invariant_I == -2
    for m in enumerate_perfect_matchings(cube):
        f = complement_two_factor(cube, m)
        assert f.invariant_I == Fraction(7 * f.odd_count, 2) - Fraction(cube.n, 2)
        assert f.invariant_I == -4  # all cube 2-factors are even


def test_i_identity_everywhere(petersen, k4, k33, cube):
    for g in (petersen, k4, k33, cube, gen_chain_family(1)):
        for m in enumerate_perfect_matchings(g)[:20]:
            f = complement_two_factor(g, m)
            assert f.invariant_I == Fraction(7 * f.odd_count - g.n, 2)


def test_weights_5cyc_isolated_circuit():
    # A free 5-circuit weighs one quarter-unit on each boundary edge.
    # With no occurrence classified, every 5-circuit is free.
    g = gen_p3_ring(4)
    c5 = tuple(c for c in enumerate_circuits_up_to(g, 5) if c.length == 5)
    assert c5
    w = build_weights(g, Census("fivecyc", (), (), (), c5=c5))
    for c in c5:
        for e in g.boundary_edge_ids(c.vertex_set):
            assert w[e] >= 1


def test_weights_5cyc_chain():
    g = gen_chain_family(1)
    census = take_census(g, "fivecyc")
    assert census.p3 == ()
    assert census.c5 == ()  # every 5-circuit lives inside a block
    w = build_weights(g, census)
    values = sorted(w.values())
    assert values == [4, 4, 4]  # one e_S per block


def test_weights_oddness_formula():
    g = gen_p3_ring(4)
    filled = take_census(g, "oddness")
    assert filled.p1 == filled.p2 == ()
    w = build_weights(g, filled)
    # Each P3a occurrence puts weight 4 on both edges of its pair; shared
    # boundary edges (ring links selected from both sides) stack additively.
    assert sum(w.values()) == 4 * 2 * 4
    for occ in filled.p3:
        assert all(w[e] >= 4 for e in occ.E_S)


def test_weights_oddness_chain_p1_rule():
    # One P1 occurrence with no other patterns and no free 5-circuits puts a
    # single weight-8 entry on its chosen boundary edge.
    g = gen_chain_family(1)
    filled = take_census(g, "oddness")
    assert filled.p2 == filled.p3 == ()
    assert filled.c5 == ()
    w = build_weights(g, filled)
    assert sorted(w.values()) == [8, 8, 8]  # one edge per block


def test_p2_tiebreak_minimizes_pairs():
    # On the 22-vertex host with two P2 occurrences, the tie-break picks a
    # minimum-weight matching whose through-pair count is minimal over the
    # whole optimal set.
    g = exceptional_22_host()
    filled = take_census(g, "oddness")
    assert filled.p1 == filled.p3 == () and len(filled.p2) == 2
    w = build_weights(g, filled)
    m, wt, best_effort = p2_tiebreak(g, w, filled)
    assert not best_effort

    def pairs(matching):
        f = complement_two_factor(g, matching)
        return sum(1 for s in filled.p2 for c in f.circuits if goes_through(c, s))

    optima, capped = enumerate_optimal_matchings(g, w, cap=10_000)
    assert not capped
    assert pairs(m) == min(pairs(mm) for mm in optima)


def test_optimal_matching_enumeration(petersen):
    uniform = {e: 4 for e in petersen.edge_ids}
    ms, capped = enumerate_optimal_matchings(petersen, uniform, cap=100)
    assert not capped and len(ms) == 6
    skewed = dict(uniform)
    skewed[5] = 0
    ms, _ = enumerate_optimal_matchings(petersen, skewed, cap=100)
    assert all(5 in m for m in ms) and len(ms) == 2


def test_optimal_matching_enumeration_solves_root_once(monkeypatch, petersen):
    # The root cell gives the optimum weight; no separate pre-solve.
    calls = []
    original = solver._constrained_min

    def counting(g, w, forced, forbidden):
        calls.append((forced, forbidden))
        return original(g, w, forced, forbidden)

    monkeypatch.setattr(solver, "_constrained_min", counting)
    enumerate_optimal_matchings(petersen, {e: 4 for e in petersen.edge_ids}, cap=100)
    assert calls.count((frozenset(), frozenset())) == 1
    with pytest.raises(NoPerfectMatching):
        enumerate_optimal_matchings(MultiGraph([(0, 1), (1, 2), (2, 0)]), {}, cap=10)


def test_p2_tiebreak_no_p2_passthrough(petersen):
    census = Census("oddness", (), (), ())
    m, wt, best_effort = p2_tiebreak(petersen, {e: 4 for e in petersen.edge_ids}, census)
    assert wt == 20 and not best_effort


# The k = 3 ring of P2 blocks under an edge relabelling (bench/README.md).
P2_RING_3_RELABELLED = (
    "c??A??O??@?A?O?A?_???A??g???AC???GO??CCCA??A??O?GA_C?OGG?E?@A?A???_O??GGCC?C?????G_"
    "CAC_??P@????K?_??C??@@?"
)


@pytest.mark.parametrize("host", [exceptional_22_host, lambda: parse_graph(P2_RING_3_RELABELLED)],
                         ids=["exception-22", "p2ring-3"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=None)
def test_p2_pair_count_is_constant(host, seed):
    # A P2 occurrence has two boundary edges, and by parity a perfect matching
    # holds both or neither; either way exactly two circuits of the
    # complementary factor go through the occurrence.  So every perfect
    # matching ties on the P2 tie-break's criterion.
    g = host() if seed is None else relabeled(host(), seed)
    occurrences = find_occurrences(g, "P2")
    assert occurrences
    for m in enumerate_perfect_matchings(g):
        f = complement_two_factor(g, m)
        for s in occurrences:
            assert sum(goes_through(c, s) for c in f.circuits) == 2


@pytest.mark.parametrize("host", [exceptional_22_host, lambda: parse_graph(P2_RING_3_RELABELLED)],
                         ids=["exception-22", "p2ring-3"])
def test_p2_tiebreak_keeps_blossom_optimum(host):
    # Every optimum ties on the P2 pair count, and the blossom's rank bonus
    # already picks the lexicographically smallest optimum.
    reduced = full_reduce(host()).reduced
    census = take_census(reduced, "oddness")
    assert census.p2
    w = build_weights(reduced, census)
    assert p2_tiebreak(reduced, w, census)[0] == min_weight_perfect_matching(reduced, w)[0]


def test_solve5_colorable(k33, cube):
    for g in (k33, cube):
        f, cert = solve_5cyc(g)
        assert cert.achieved == 0 and f.count5 == 0 and f.count3 == 0
        assert "colorable" in cert.flags
        assert verify_certificate(g, f, cert).ok


def test_solve5_petersen_exceptional(petersen):
    f, cert = solve_5cyc(petersen)
    assert cert.achieved == 2 and "exceptional" in cert.flags
    assert f.length_counts() == {5: 2}


def test_solve5_chain_tightness():
    for k in (1, 2):
        g = gen_chain_family(k)
        f, cert = solve_5cyc(g)
        assert cert.achieved == 4 * k
        assert cert.bound_value == Fraction(2 * (g.n - 2), 15) == 4 * k
        assert cert.matching_weight == cert.fractional_bound == 4 * k
        assert verify_certificate(g, f, cert).ok


def test_solve5_reduced_to_petersen_meets_bound():
    g = two_cycle_fixture()  # n = 12, floor(2*10/15) = 1
    f, cert = solve_5cyc(g)
    assert "reduced-to-petersen" in cert.flags
    assert cert.achieved == 1 <= cert.bound_floor
    assert verify_certificate(g, f, cert).ok


def test_solve5_rejects_bridged():
    subdiv_k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    bridged = CubicGraph(subdiv_k4 + [(u + 5, v + 5) for u, v in subdiv_k4] + [(4, 9)])
    with pytest.raises(HasBridge):
        solve_5cyc(bridged)


def test_solve_oddness_chain():
    g = gen_chain_family(1)
    f, cert = solve_oddness(g)
    assert cert.achieved % 2 == 0
    assert cert.achieved <= math.floor(Fraction(6 * 32, 35)) == 5
    assert cert.achieved <= 4
    assert cert.invariant_I == Fraction(7 * cert.achieved - g.n, 2)
    assert verify_certificate(g, f, cert).ok


def test_solve_oddness_petersen(petersen):
    f, cert = solve_oddness(petersen)
    assert cert.achieved == 2 and "exceptional" in cert.flags


def test_solve_oddness_colorable(k33):
    f, cert = solve_oddness(k33)
    assert cert.achieved == 0 and f.odd_count == 0


def test_solve_oddness_ring4():
    g = gen_p3_ring(4)
    f, cert = solve_oddness(g)
    assert cert.census is not None
    c5, p1, p2, p3a, p3b, p3 = cert.census
    assert (p1, p2, p3a, p3b, p3) == (0, 0, 4, 0, 4)
    assert cert.achieved % 2 == 0 and cert.achieved <= cert.bound_floor
    assert verify_certificate(g, f, cert).ok


def test_solve_oddness_ring2_unclassifiable():
    with pytest.raises(UnclassifiableP3b):
        solve_oddness(gen_p3_ring(2))


def test_vertex_count_inequality_on_reduced():
    # Vertex-count inequality, exact rationals, on generic reduced graphs.
    for g, mode_counts in [
        (gen_chain_family(1), None),
        (gen_p3_ring(4), None),
    ]:
        try:
            f, cert = solve_oddness(g)
        except UnclassifiableP3b:
            continue
        c5, p1, p2, p3a, p3b, _ = cert.census
        assert Fraction(cert.reduced_n) >= (
            Fraction(5, 3) * c5 + 10 * p1 + 10 * p2 + 9 * p3a + 10 * p3b
        )


TAMPER_HOSTS = {
    "chain:1": lambda: gen_chain_family(1),
    "p3ring:4": lambda: gen_p3_ring(4),
    "host22": exceptional_22_host,
    "k33": lambda: CubicGraph([(a, b) for a in range(3) for b in range(3, 6)]),
}
TAMPER_SOLVERS = {"five": solve_5cyc, "odd": solve_oddness}


@functools.lru_cache(maxsize=None)
def _solved(host: str, theorem: str):
    g = TAMPER_HOSTS[host]()
    return g, *TAMPER_SOLVERS[theorem](g)


def _bump(field: str, delta: int):
    def mutate(cert):
        if field == "census":
            return replace(cert, census=(cert.census[0] + delta,) + cert.census[1:])
        return replace(cert, **{field: getattr(cert, field) + delta})
    return mutate


TAMPER_CASES = [
    (host, theorem, "achieved", delta)
    for host in TAMPER_HOSTS
    for theorem in TAMPER_SOLVERS
    for delta in (2, -2)
] + [
    ("p3ring:4", theorem, field, 2)
    for theorem in TAMPER_SOLVERS
    for field in ("bound_value", "n", "census", "fractional_bound", "reduced_n",
                  "achieved_reduced")
] + [(host, "odd", "invariant_I", 2) for host in ("p3ring:4", "k33")]


@pytest.mark.parametrize(
    "host,theorem,field,delta", TAMPER_CASES,
    ids=[f"{h}-{t}-{f}{d:+d}" for h, t, f, d in TAMPER_CASES],
)
def test_verify_flags_tampering(host, theorem, field, delta):
    g, f, cert = _solved(host, theorem)
    assert verify_certificate(g, f, cert).ok
    verdict = verify_certificate(g, f, _bump(field, delta)(cert))
    assert not verdict.ok
    if field == "achieved":
        assert any("achieved" in msg for msg in verdict.failures)


def test_check_step_raises_typed_error(monkeypatch):
    # A bound the claim cannot meet fails in the check step with a typed
    # error, which python -O does not strip.
    row = solver._THEOREMS["T2-fivecirc"]
    monkeypatch.setitem(solver._THEOREMS, "T2-fivecirc",
                        replace(row, bound=lambda n, reduced_n: Fraction(1)))
    with pytest.raises(CertificationError, match="count5 bound violated"):
        solve_5cyc(gen_chain_family(1))


def test_certificate_json_round_trip():
    g = gen_p3_ring(4)
    f, cert = solve_oddness(g)
    back = Certificate.from_json(cert.to_json())
    assert back.achieved == cert.achieved
    assert back.bound_value == cert.bound_value
    assert back.census == cert.census
    assert back.invariant_I == cert.invariant_I
    assert verify_certificate(g, f, back).ok


def test_nontrivial_certificate(petersen):
    assert nontrivial_certificate(petersen) is None  # the exception
    assert nontrivial_certificate(gen_chain_family(1)) is None  # cec = 2
    g = gen_p3_ring(4)
    result = nontrivial_certificate(g)
    if result is not None:
        f, cert = result
        assert cert.theorem == "T4-nontrivial"
        assert cert.bound_value == Fraction(g.n, 10)
        assert cert.achieved <= cert.bound_floor


def test_nontrivial_certificate_needs_a_connected_host():
    # Two dodecahedra: girth 5 and no small cut, but not connected.
    dodeca = sorted(nx.dodecahedral_graph().edges())
    g = CubicGraph(dodeca + [(u + 20, v + 20) for u, v in dodeca])
    assert nontrivial_certificate(g) is None


def test_exceptional_22_host_end_to_end():
    # Two P2 occurrences sharing one edge and two vertices: the one allowed
    # intersection.  The solver surfaces it as a flag and both bounds hold.
    g = exceptional_22_host()
    f, cert = solve_oddness(g)
    assert "disjointness-exception-22" in cert.flags
    assert cert.census[2] == 2  # two P2 occurrences
    assert cert.achieved == 2 <= cert.bound_floor == 3
    assert verify_certificate(g, f, cert).ok
    f5, cert5 = solve_5cyc(g)
    assert cert5.achieved <= cert5.bound_floor == 2


def test_best_effort_fallback_certifies(monkeypatch):
    # With a tie-break cap of 2, the host has more optima than the cap, so
    # the certificate is flagged best-effort; the kept matching is the
    # blossom's either way, and the bound and the verifier still hold.
    monkeypatch.setattr(solver, "P2_TIEBREAK_CAP", 2)
    g = exceptional_22_host()
    f, cert = solve_oddness(g)
    assert cert.flags == frozenset({"best-effort", "disjointness-exception-22"})
    assert cert.achieved == 2 <= cert.bound_floor == 3
    assert verify_certificate(g, f, cert).ok


# A ring of two P2 blocks: bridgeless, uncolourable, with three 2-cuts.
P2_RING_2 = "WHeA@GUAs?G@??????G?@??c?A??A??@G??U??Ao?K??@G@"


@pytest.mark.parametrize("solve", [solve_5cyc, solve_oddness])
def test_p2_ring_of_two_blocks(solve):
    # The first reconnection of one 4-circuit splits this graph in two; the
    # girth step takes the other one, so the census sees one connected host.
    g = parse_graph(P2_RING_2)
    assert g.n == 24
    f, cert = solve(g)
    assert verify_certificate(g, f, cert).ok


@pytest.mark.xfail(strict=True, raises=CertificationError,
                   reason="open defect: invariant_I accounting violated after edge relabelling")
def test_relabelled_p2_ring_accounting_defect():
    g = parse_graph(P2_RING_3_RELABELLED)
    f, cert = solve_oddness(g)
    assert verify_certificate(g, f, cert).ok


def test_census_snark_certificates_verify():
    # End-to-end verification over every uncolorable census graph plus a
    # deterministic sample of colorable ones.
    from pathlib import Path

    from pentafactor.coloring import UNCOLORABLE, three_edge_color
    from pentafactor.connectivity import bridges
    from pentafactor.formats import parse_graph

    path = Path(__file__).parent / "data" / "cubic_simple_connected_14.g6"
    graphs = [parse_graph(line) for line in path.read_text().splitlines() if line]
    graphs = [g for g in graphs if not bridges(g)]
    snarks = [g for g in graphs if three_edge_color(g) is UNCOLORABLE]
    sample = snarks + graphs[::97]
    assert len(snarks) == 7  # Petersen, one on 12 vertices, five on 14
    for g in sample:
        f, cert = solve_5cyc(g)
        verdict = verify_certificate(g, f, cert)
        assert verdict.ok, verdict.failures


def test_five_circuit_accounting_on_reduced():
    # count5 on the reduced graph respects 1/6 c5 + 4/3 p1' + p3.
    for g in (gen_chain_family(1), gen_p3_ring(4)):
        f, cert = solve_5cyc(g)
        c5, p1, _, _, _, p3 = cert.census
        assert cert.achieved_reduced <= (
            Fraction(1, 6) * c5 + Fraction(4, 3) * p1 + p3
        )
