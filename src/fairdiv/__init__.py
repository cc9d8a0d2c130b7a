"""Approximate maximin-share fair division over hereditary set systems."""

from .allocator import (
    Allocation,
    RunStats,
    TraceEvent,
    VerificationReport,
    Violation,
    allocate_from_estimates,
    allocate_naive,
    fair_divide,
    iteration_bound,
    verify_allocation,
)
from .errors import DeskCapError, FairdivError, InputError, ParseError
from .instances import (
    Instance,
    footnote_instance,
    parse_allocation,
    parse_instance,
    random_instance,
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
)
from .valuation import Valuation, bundle_value

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Capacity",
    "DeskCapError",
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
    "iteration_bound",
    "mms_bounds",
    "mms_exact",
    "parse_allocation",
    "parse_instance",
    "parse_rational",
    "random_instance",
    "serialize_allocation",
    "serialize_instance",
    "table1_instance",
    "verify_allocation",
]
