"""Approximate maximin-share fair division over hereditary set systems."""

from .allocator import (
    Allocation,
    EstimateVector,
    RunStats,
    TraceEvent,
    VerificationReport,
    Violation,
    allocate_from_estimates,
    allocate_naive,
    fair_divide,
    iteration_bound,
    minimal_set,
    query_budget,
    verify_allocation,
)
from .errors import DeskCapError, FairdivError, InputError, ParseError
from .instances import (
    Instance,
    footnote_instance,
    parse_allocation,
    parse_instance,
    random_instance,
    replicate_agents,
    serialize_allocation,
    serialize_instance,
    table1_instance,
)
from .mms import MmsResult, mms_bounds, mms_exact
from .rationals import format_rational, parse_rational
from .setsystem import (
    Capacity,
    ExplicitMaximal,
    SetSystemSpec,
    capacity,
    equivalence_classes,
    explicit_maximal,
    is_feasible,
)
from .valuation import Valuation, bundle_value, normalize_to_partition, nth_value

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Capacity",
    "DeskCapError",
    "EstimateVector",
    "ExplicitMaximal",
    "FairdivError",
    "InputError",
    "Instance",
    "MmsResult",
    "ParseError",
    "RunStats",
    "SetSystemSpec",
    "TraceEvent",
    "Valuation",
    "VerificationReport",
    "Violation",
    "allocate_from_estimates",
    "allocate_naive",
    "bundle_value",
    "capacity",
    "equivalence_classes",
    "explicit_maximal",
    "fair_divide",
    "footnote_instance",
    "format_rational",
    "is_feasible",
    "iteration_bound",
    "minimal_set",
    "mms_bounds",
    "mms_exact",
    "normalize_to_partition",
    "nth_value",
    "parse_allocation",
    "parse_instance",
    "parse_rational",
    "query_budget",
    "random_instance",
    "replicate_agents",
    "serialize_allocation",
    "serialize_instance",
    "table1_instance",
    "verify_allocation",
]
