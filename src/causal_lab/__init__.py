"""Tools for auditing causality of detection statistics on spacetime slices."""

from .region import Region
from .spacetime import (
    EPS_CAUSAL,
    BoostedFrame,
    CausalStructure,
    Event,
    boost,
    causal_future_on_slice,
    causally_precedes,
    chronologically_precedes,
)
from .measure import EPS_MASS, SliceMeasure, mixture, restriction_distance
from .transport import (
    EPS_FLOW,
    CeVerdict,
    FlowNetwork,
    build_flow_network,
    check_ce_bruteforce,
    check_ce_maxflow,
)
from .conditions import (
    ConditionReport,
    MeasurementScenario,
    check_a1,
    check_a2,
    check_ce,
    check_ns,
    evaluate_conditions,
    find_ns_witness,
    make_abc_scenario,
    ns_gap_support,
    truth_table,
    validate,
)
from .quantum import (
    DiracPacket,
    ScaleReport,
    WavePacket,
    analytic_ce_gaussian,
    born_measure,
    collapse,
    evolve_dirac_1p1,
    evolve_relativistic,
    evolve_schrodinger_free,
    gaussian_packet,
    min_violation_halfwidth,
)
from .protocol import (
    ABC_LATTICE,
    LatticeSpec,
    ProtocolSearchError,
    SignallingProtocol,
    SignallingStats,
    audit_protocol,
    construct_protocol,
    make_annulus_scenario,
    round_trip_check,
    simulate_signalling,
)

__version__ = "0.1.0"
