"""Gauge-invariant ideal lattices and spectra of graph algebras under Condition (K)."""

from .errors import (
    CkSpectraError,
    ConditionKRequired,
    DuplicateLabel,
    InvalidPath,
    NotAMaximalTail,
    NotSaturatedHereditary,
    ParseError,
    SizeLimitExceeded,
    UndeclaredVertex,
    UnknownVertex,
    VerificationFailure,
)
from .gcg import emit_gcg, parse_graph
from .generators import (
    ea_graph,
    random_condition_k_graph,
    random_graph,
    running_example,
)
from .graph_core import (
    DEFAULT_ENUMERATION_LIMIT,
    OMEGA,
    Bundle,
    Check,
    CycleClass,
    Graph,
    Mult,
    condition_K,
    condition_L,
    is_downward_directed,
    is_omega,
    mult_sum,
    upward_set,
)
from .ideals import (
    AdmissiblePair,
    IdealClass,
    IdealKind,
    QuotientGraph,
    admissible_pair,
    classify_ideal,
    classify_via_quotient,
    meet,
    quotient_graph,
)
from .render import emit_dot, emit_json, graph_payload, quotient_payload
from .tails import (
    BoundaryPath,
    MtReport,
    clusters,
    finite_return_vertices,
    maximal_tails,
    mt_report,
    realize_as_tail,
    tail_of_boundary,
)
from .topology import (
    ClusterPoint,
    FRPoint,
    SpecPoint,
    SpecSpace,
    check_kuratowski,
    graph_closure,
    h_map,
    ideal_closure,
    prim_points,
    prim_space,
    prim_spec_density_check,
    separation_report,
    spec_points,
    spec_space,
    verify_homeomorphism,
)

__version__ = "0.1.0"
