"""Stochastic dynamic traffic assignment over routing policies.

Pipeline: travel-time distributions define adaptive routing policies
(backward dynamic programming over events), a logit model splits departing
demand across policies, and a link transmission loader realizes the
resulting flows; a successive-averages loop closes the fixed point.
"""

from .errors import (
    DegenerateChoiceSet,
    MonotonicityRequired,
    NonTerminatingTranslation,
    NotYetReached,
    ParseError,
    ProbabilityMassError,
    SdtaError,
    UnsupportedNodeType,
    ValidationError,
)
from .network import (
    LinkSpec,
    Network,
    NodeKind,
    classify_node,
    parse_network,
    serialize_network,
)
from .scenario import (
    Realization,
    Scenario,
    parse_scenario,
    perturbed,
    with_realizations,
)
from .events import (
    Event,
    EventTree,
    LinkRef,
    TravelTimeDistribution,
    event_probability,
    free_flow_distribution,
    generate_events,
    links_of,
    nearest_event,
    parse_ttd,
    pick_nearest,
    prefix_distances,
    round_to_grid,
)
from .policy import (
    Policy,
    PolicyKind,
    ZFactors,
    check_monotone,
    dot_spi,
    expected_origin_time,
    generate_policies,
    horizon_shortest,
    lp_policy,
)
from .choice import (
    ChoiceParams,
    SplitSchedule,
    logit_splits,
    splits_for,
    utilities,
)
from .kernels import (
    CumulativeCurve,
    LinkState,
    disaggregate,
    interp,
    inverse,
    link_travel_time,
    receiving_flow,
    sending_flow,
    transition_destination,
    transition_diverge,
    transition_inhomogeneous,
    transition_merge,
    transition_origin,
)
from .loading import (
    LoaderStats,
    LoadResult,
    PathSet,
    iterative_loading,
    link_policy_incidence,
    path_ltm,
    po_ltm,
    single_route_pathset,
    translate,
)
from .equilibrium import (
    EquilibriumResult,
    IterationRecord,
    SolverConfig,
    average_expected_time,
    convergence_metric,
    expected_times_at,
    monte_carlo_std,
    msa_solve,
)
from .fixtures import FIXTURES, fixture_path

__version__ = "0.1.0"

__all__ = [
    "SdtaError", "ParseError", "ValidationError", "UnsupportedNodeType",
    "ProbabilityMassError", "MonotonicityRequired", "DegenerateChoiceSet",
    "NonTerminatingTranslation", "NotYetReached",
    "LinkSpec", "Network", "NodeKind", "classify_node", "parse_network",
    "serialize_network",
    "Realization", "Scenario", "parse_scenario", "perturbed",
    "with_realizations",
    "Event", "EventTree", "LinkRef", "TravelTimeDistribution",
    "event_probability", "free_flow_distribution", "generate_events",
    "links_of", "nearest_event", "parse_ttd", "pick_nearest",
    "prefix_distances", "round_to_grid",
    "Policy", "PolicyKind", "ZFactors", "check_monotone", "dot_spi",
    "expected_origin_time", "generate_policies", "horizon_shortest",
    "lp_policy",
    "ChoiceParams", "SplitSchedule", "logit_splits", "splits_for",
    "utilities",
    "CumulativeCurve", "LinkState", "disaggregate", "interp", "inverse",
    "link_travel_time", "receiving_flow", "sending_flow",
    "transition_destination", "transition_diverge",
    "transition_inhomogeneous", "transition_merge", "transition_origin",
    "LoaderStats", "LoadResult", "PathSet", "iterative_loading",
    "link_policy_incidence", "path_ltm", "po_ltm", "single_route_pathset",
    "translate",
    "EquilibriumResult", "IterationRecord", "SolverConfig",
    "average_expected_time", "convergence_metric", "expected_times_at",
    "monte_carlo_std", "msa_solve",
    "FIXTURES", "fixture_path",
    "__version__",
]
