"""2-factors of bridgeless cubic graphs with few 5-circuits and odd circuits.

Library layout mirrors the pipeline: graph core and formats, connectivity,
edge coloring, Petersen patterns, reductions with lift-back, exact weighted
matching, the two bound solvers, extremal families, and a batch workbench.
"""

from .coloring import EdgeColoring, UNCOLORABLE, even_two_factor_from_coloring, three_edge_color
from .connectivity import (
    EdgeCut,
    bridges,
    cyclic_edge_connectivity,
    edges_in_small_cuts,
    small_cuts,
)
from .errors import (
    BridgeCreated,
    CapExceeded,
    CertificationError,
    ConstructionFailed,
    HasBridge,
    ImproperColoring,
    InvalidFactor,
    LoopEdge,
    NoPerfectMatching,
    NotCubic,
    NotDefined,
    OverlapViolation,
    ParseError,
    UnclassifiableP3b,
)
from .factors import TwoFactor, complement_two_factor, two_factor_from_edges
from .families import gen_chain_family, gen_p3_ring, gen_petersen, simple_cubic_census
from .formats import parse_graph, serialize_graph
from .graphs import (
    Circuit,
    CubicGraph,
    MultiGraph,
    PatternGraph,
    enumerate_circuits_up_to,
    girth,
    is_isomorphic,
    is_petersen,
)
from .matching import (
    enumerate_perfect_matchings,
    fractional_objective_value,
    has_two_factor,
    min_weight_perfect_matching,
)
from .patterns import (
    Census,
    PatternOccurrence,
    classify_occurrences,
    find_occurrences,
    pattern_graph,
    take_census,
)
from .reductions import (
    NO_COLORABLE_CUT,
    NO_SHORT_CIRCUIT,
    ReductionStep,
    ReductionTrace,
    full_reduce,
    lift_two_factor,
    reduce_cut_step,
    reduce_girth_step,
)
from .solver import (
    Certificate,
    Verdict,
    build_weights,
    nontrivial_certificate,
    p2_tiebreak,
    solve_5cyc,
    solve_oddness,
    verify_certificate,
)
from .workbench import BatchReport, batch_run, oracle_exact

__version__ = "0.1.0"
