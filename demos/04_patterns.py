"""Petersen-derived patterns: find, classify, and equip occurrences.

P1 = Petersen minus an edge, P2 = Petersen with an edge subdivided twice,
P3 = Petersen minus a vertex.  Subgraphs isomorphic to these are treated
separately by both solvers because they force 5-circuits locally.
"""

from pentafactor import (
    find_occurrences,
    gen_chain_family,
    gen_p3_ring,
    pattern_graph,
    take_census,
)

for kind in ("P1", "P2", "P3"):
    pat = pattern_graph(kind)
    print(kind, "has", pat.n, "vertices,", pat.m, "edges,",
          len(pat.degree2_vertices), "degree-2 vertices")

host = gen_chain_family(1)
print("\nchain k=1 as host:")
p1 = find_occurrences(host, "P1")
p3 = find_occurrences(host, "P3")
print("P1 occurrences:", len(p1), "| P3 occurrences:", len(p3))
census = take_census(host, "fivecyc")
print("classified: P1' =", len(census.p1), ", P3 =", len(census.p3),
      "(every P3 extends to a P1 inside its block)")

ring = gen_p3_ring(4)
print("\nP3 ring with 4 copies as host:")
census = take_census(ring, "oddness")
for occ in census.p3:
    print("  occurrence on", sorted(occ.host_vertices)[:3], "... ->",
          occ.class_tag, "pair", sorted(occ.E_S))
