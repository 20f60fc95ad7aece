"""The oddness pipeline: at most 6n'/35 odd circuits, n' the reduced graph's
vertex count.

The bound is proved on the reduced graph, and every lift step keeps the odd
count, so ``achieved`` is the odd count of the factor returned on the input.
"""

from pentafactor import gen_chain_family, gen_p3_ring, solve_oddness, verify_certificate
from pentafactor.errors import UnclassifiableP3b

for name, g in [("chain k=1", gen_chain_family(1)), ("P3 ring, 4 copies", gen_p3_ring(4))]:
    factor, cert = solve_oddness(g)
    print(f"{name}: n={g.n}")
    print("  odd circuits:", cert.achieved, "<= floor(6n'/35) =", cert.bound_floor)
    print("  I(M) =", cert.invariant_I, "= 7k/2 - n/2 check:",
          cert.invariant_I == (7 * cert.achieved - cert.reduced_n) / 2)
    print("  lifted factor lengths:", factor.length_counts())
    print("  verified:", verify_certificate(g, factor, cert).ok)

# Two fully glued P3 copies defeat the boundary-pair case analysis; the
# solver refuses loudly instead of certifying something unsupported.
try:
    solve_oddness(gen_p3_ring(2))
except UnclassifiableP3b as exc:
    print("\nP3 ring with 2 copies:", type(exc).__name__)
    print(" ", exc)
