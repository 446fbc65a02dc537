"""
Exact computations on the quantum Bruhat graph of the symmetric group:
minimal path weights, tilted Bruhat intervals, tilted Rothe diagrams with
their Plucker equation ledgers, and an exact-rational geometry layer for
tilted Richardson varieties (membership, stratum location, sampling).
"""
from .errors import (
    InternalInvariantError,
    ParseError,
    PreconditionError,
    QbgError,
    ResourceLimitError,
    SamplingError,
)
from .permcore import (
    apply_transposition,
    coxeter_length,
    cyclic_contains,
    cyclic_set,
    format_permutation,
    identity,
    long_cycle_rotate,
    longest_element,
    parse_permutation,
    prefix_set,
    reflection_ordering,
)
from .latticepath import (
    depth,
    find_shift_sequence,
    path_heights,
    prefix_paths,
    shift_leq,
    shifted_gale_leq,
    shifted_interval,
    valid_shifts,
)
from .qbgraph import (
    QbgEdge,
    QuantumBruhatGraph,
    bfp_greedy_path,
    build_graph,
    edge_weight,
    export_graph,
    formula_weight,
    graph_distance,
    graph_from_json,
    monomial_str,
    oracle_distance,
)
from .tiltedorder import (
    TiltedInterval,
    hasse_export,
    interval,
    interval_member_set,
    interval_members_criterion,
    tilted_leq,
)
from .diagrams import (
    EquationSet,
    PluckerEquation,
    equations,
    equations_with_x,
    find_flat,
    is_flat,
    tilted_rothe,
)
from .exactgeom import (
    Flag,
    StratumLabel,
    complete_to_permutation,
    member_T_grassmann,
    member_T_plucker,
    member_T_rank,
    parse_matrix,
    permutation_flag,
    sample_in_open_stratum,
    stratum,
)

__version__ = "0.1.0"
