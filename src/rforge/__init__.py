"""Combinatorial reconfiguration toolkit.

Instance types and feasibility checks (`core`), exact bottleneck solvers
with an independent oracle (`solve`), the 2-factor cover approximation
(`approx`), explicit-table proof verifiers (`verifier`), expander-walk
acceptance amplification (`amplify`), the squared-alphabet
verifier-to-constraint-graph reduction (`fglss`), gap-preserving
reductions to set cover and hypergraph vertex cover (`reductions`),
seeded generators (`generate`), property-check suites (`checks`), and a
CLI (`cli`).
"""

from .core import (
    BOTTOM,
    BudgetExhaustedError,
    ConstraintGraph,
    Hypergraph,
    HvcInstance,
    KIND_COVER,
    KIND_MULTI,
    KIND_PARTIAL,
    KIND_PROOF,
    KIND_VERTEX_COVER,
    LabelCoverInstance,
    P2cspInstance,
    ReconfigSequence,
    RforgeError,
    SetCoverInstance,
    SetSystem,
    StructuralError,
    ValidationReport,
    is_cover,
    is_vertex_cover,
    multi_size,
    normalize_self_loops,
    partial_size,
    satisfies_assignment,
    satisfies_multi,
    satisfies_partial,
    validate_sequence,
)
from .solve import (
    SolveResult,
    min_cover,
    min_vertex_cover,
    oracle_value,
    solve_cost_hvc,
    solve_cost_setcover,
    solve_maxpar,
    solve_minlab,
)
from .approx import two_factor_cover
from .verifier import (
    TableVerifier,
    accept_prob,
    csp_to_verifier,
    degree,
    degrees,
    encode_assignment,
    regularity,
)
from .amplify import (
    ExpanderGraph,
    build_expander,
    choose_rho,
    degree_report,
    walk_hit_prob,
)
from .fglss import (
    build_fglss,
    completeness_sequence,
    decode_sequence,
    embed_proof,
    interpolate_proofs,
    plurality_decode,
)
from .reductions import (
    cover_to_labels,
    labelcover_to_hvc,
    labelcover_to_setcover,
    labels_to_cover,
    lift_partial_sequence,
    p2csp_to_labelcover,
)

__version__ = "0.1.0"
