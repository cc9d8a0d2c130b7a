"""Wire format for exact rational values.

Rationals travel as "num/den" strings in canonical reduced form; bare
integers are accepted as shorthand on input.  Input must already be
canonical: an optional "-" on the numerator only, no leading zeros, no
whitespace, a positive denominator, and numerator and denominator
coprime.  So every value has exactly one spelling ("1/2", never "2/4",
"1/-2" or " 1/2"), and decimal notation is rejected so that no value can
silently lose exactness.  ``scale_row`` maps a row of values to integers
over the lcm of its denominators, for the code that computes on them.
``parameter_fault`` holds each run parameter's one rule, for library and CLI,
and the document cap on agents, for the objects, the reader and the CLI.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Any, Callable, Sequence

from .errors import InputError, ParseError

_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")
# The most agents an instance may hold: a tiny one-row document builds a Valuation per agent.
MAX_AGENTS = 100_000

_RULES: dict[str, tuple[Any, Callable[[Any], bool], str]] = {
    "agents": (int, lambda v: 1 <= v <= MAX_AGENTS, f"must lie in [1, {MAX_AGENTS}]"),
    "alpha": ((int, Fraction), lambda v: v > 0, "must be positive"),
    "delta": ((int, Fraction), lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "estimate": ((int, Fraction), lambda v: v >= 0, "is negative"),
    "floor": ((int, Fraction), lambda v: True, ""),
    "max_items": (int, lambda v: v >= 0, "must be nonnegative"),
    "n": (int, lambda v: v >= 1, "must be >= 1"),
    "m": (int, lambda v: v >= 0, "must be >= 0"),
    "value_bound": (int, lambda v: v >= 1, "must be >= 1"),
    "table1_n": (int, lambda v: v > 0 and v % 330 == 0, "must be a positive multiple of 330"),
}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parameter_fault(name: str, value: object) -> str | None:
    """What is wrong with ``value`` as parameter ``name``, or None: its exact
    types (never a bool, float or str), then its range, by ``_RULES``."""
    types, holds, fault = _RULES[name]
    if isinstance(value, bool) or not isinstance(value, types):
        return f"must be {'an int' if types is int else 'an int or a Fraction'}, got {value!r}"
    return None if holds(value) else f"{fault}, got {value}"


def check_parameters(agent: int | None = None, /, **params: object) -> None:
    """Raise ``InputError`` naming the first of ``params`` with a fault, as agent's if given."""
    for name, value in params.items():
        if fault := parameter_fault(name, value):
            where = name if agent is None else f"{name} for agent {agent}"
            raise InputError(f"{where} {fault}")


def parse_rational(value: str | int) -> Fraction:
    """Parse canonical "num/den" or an integer (int or canonical digit
    string) into a Fraction."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ParseError(f"not a rational: {value!r}")
    return _parse_text(value)


@lru_cache(maxsize=4096)
def _parse_text(value: str) -> Fraction:
    # An instance's value row, a JSON list, parses each distinct string
    # once through its own memo (``instances._parse_values_row``); this
    # cache serves the values and thresholds of ``parse_allocation``,
    # which repeat across events.
    match = _RATIONAL_RE.fullmatch(value)
    if match is None:
        raise ParseError(f"not a canonical rational: {value!r}")
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise ParseError(f"a rational of {len(value)} characters has too many digits") from None
    result = Fraction(num, den)
    if result.denominator != den:
        raise ParseError(f"not in lowest terms: {value!r}")
    return result


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "num/den" (reduced; denominator always shown)."""
    return f"{value.numerator}/{value.denominator}"


def scale_row(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(L, row * L)``: L is the lcm of the values' denominators, so every
    scaled value is an integer.  An empty row has L = 1."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)
