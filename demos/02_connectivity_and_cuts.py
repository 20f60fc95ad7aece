"""Small edge-cuts, the E2/E3 edge sets, and cyclic edge connectivity."""

from pentafactor import (
    bridges,
    cyclic_edge_connectivity,
    edges_in_small_cuts,
    gen_chain_family,
    gen_petersen,
    small_cuts,
)

petersen = gen_petersen()
print("Petersen bridges:", bridges(petersen))
# small_cuts leaves out the trivial 3-cuts (the three edges at one vertex),
# and those are the only small cuts Petersen has.
print("Petersen non-trivial cuts of size <= 3:", len(small_cuts(petersen, 3)))
print("Petersen cyclic edge connectivity:", cyclic_edge_connectivity(petersen))

chain = gen_chain_family(1)
print("\nchain family k=1: n =", chain.n)
cuts2 = small_cuts(chain, 2)
print("2-edge-cuts:", len(cuts2), "- one per chain block")
for cut in cuts2:
    print("  cut", sorted(cut.edge_ids), "splits off", len(cut.side_small), "vertices")
e2, e3 = edges_in_small_cuts(chain)
print("E2 (edges in 2-cuts):", sorted(e2))
print("E2 is a subset of E3:", e2 <= e3)
print("cyclic edge connectivity:", cyclic_edge_connectivity(chain))
