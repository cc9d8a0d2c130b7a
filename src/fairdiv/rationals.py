"""Wire format for exact rational values.

Rationals travel as "num/den" strings in canonical reduced form; bare
integers are accepted as shorthand on input.  Decimal notation is
rejected so that no value can silently lose exactness.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_rational(value: str | int) -> Fraction:
    """Parse "num/den" or an integer (int or digit string) into a Fraction."""
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ParseError(f"not a rational: {value!r}")
    return _parse_text(value)


@lru_cache(maxsize=4096)
def _parse_text(value: str) -> Fraction:
    # Value rows repeat few distinct strings (table1's 42570 items carry
    # six), so most parses are cache hits.
    match = _RATIONAL_RE.match(value.strip())
    if match is None:
        raise ParseError(f"not a rational: {value!r}")
    num = int(match.group(1))
    den = match.group(2)
    if den is None:
        return Fraction(num)
    if int(den) == 0:
        raise ParseError(f"zero denominator: {value!r}")
    return Fraction(num, int(den))


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "num/den" (reduced; denominator always shown)."""
    return f"{value.numerator}/{value.denominator}"
