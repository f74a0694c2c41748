"""Exact solvers for the one-shot capacity of discrete channels.

Everything capacity-relevant is exact: a `Channel` is its matrix as
integer weights over one common denominator, the searches compare integer
masses, and `fractions.Fraction` appears only at the boundary (epsilon
parsing, the `Channel.rows` view, error metrics, results).  Capacity
values are exact codebook sizes with log2 rendered only for display.  See
the README for the library tour and the `demos/` scripts for worked
examples.
"""

from .channel import (
    Channel,
    ChannelFormatError,
    CubicGraph,
    FunnelSpec,
    as_prob,
    format_prob,
    gen_from_cubic_graph,
    gen_funnel,
    gen_random,
    identity_channel,
    parse_channel,
    parse_cubic_graph,
    serialize_channel,
    serialize_cubic_graph,
)
from .decoding import (
    Scheme,
    SimulationReport,
    avg_error,
    enumerate_min_decoding_sets,
    max_error,
    optimal_avg_decoder,
    per_codeword_errors,
    scheme_from_disjoint_sets,
    simulate,
)
from .graphs import (
    AvgOneShotGraph,
    MaxOneShotGraph,
    OneShotNode,
    build_avg_graph,
    build_max_graph,
    dump_graph,
    independence_number,
    induced_weight_sum,
    is_sparse_set,
    max_independent_set,
    sparse_number,
)
from .capacity import (
    METRIC_AVG,
    METRIC_MAX,
    CapacityCurve,
    CapacityResult,
    avg_capacity,
    brute_force_capacity,
    capacity_curve,
    funnel_closed_form,
    max_capacity,
)
from .hardness import (
    ReductionReport,
    gen_random_cubic,
    graph_independence_number,
    named_cubic_graphs,
    verify_reduction,
)

__version__ = "0.1.0"
