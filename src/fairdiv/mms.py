"""Maximin-share values: exact search at desk scale, order-statistic bounds.

The maximin share of an agent over ``n`` parts is the best value the
agent can guarantee by partitioning all items into ``n`` parts and
receiving the worst part.  Exact computation enumerates set partitions
canonically (item 0 opens part 0; each later item may open at most one
new part) with branch-and-bound pruning, so it is only offered below a
configurable item cap.  The bounds variant sandwiches the value between
the n-th largest value of an item that is feasible alone and m times
that value.

The exact search computes in integers: a part is an ``int`` bitmask
over the items, valued by ``valuation.item_set_evaluator`` and memoized
on first use, so memory grows with the parts visited, not with 2^m.  A
leaf replaces the best so far only when strictly better, so the witness
is the first optimum in enumeration order.  ``Fraction(best, L)`` and
the witness, a tuple of exactly n frozensets (empty parts included), are
built once, at return.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable

from .errors import DeskCapError, InputError
from .rationals import check_parameters
from .setsystem import SetSystemSpec, feasible_alone
from .valuation import Valuation, _row_fault, item_set_evaluator

DEFAULT_MMS_CAP = 12


@dataclass(frozen=True)
class MmsResult:
    """An exact maximin share and a partition that attains it."""

    value: Fraction
    witness: tuple[frozenset[int], ...]


class _PartValues(dict):
    """Memo ``mask -> scaled part value``, filled on first lookup."""

    __slots__ = ("value_of",)

    def __init__(self, value_of: Callable[[int], int]):
        super().__init__()
        self.value_of = value_of

    def __missing__(self, mask: int) -> int:
        value = self[mask] = self.value_of(mask)
        return value


def mms_exact(
    spec: SetSystemSpec,
    valuation: Valuation,
    n: int,
    *,
    max_items: int = DEFAULT_MMS_CAP,
) -> MmsResult:
    """Exhaustive maximin-share search with a witness partition.

    Parts are unordered; the enumeration is canonicalized (item 0 opens
    part 0; each later item joins an open part, in opening order, or
    opens the next one) and a branch whose upper bound does not beat the
    best leaf so far is pruned.  A leaf replaces the best only when it
    is strictly better, so the witness is the first optimum in
    enumeration order (bit-reproducible).  Parts may be infeasible;
    their value is that of their best feasible subset.  Empty parts are
    permitted, so n > m simply yields value 0.

    Parts are integer bitmasks valued by ``item_set_evaluator``, which
    scales every value by L; the value ``best / L`` and the frozenset
    parts are built once, on return.  No valuation query is charged.
    """
    check_parameters(n=n, max_items=max_items)
    m = spec.num_items
    if m > max_items:
        raise DeskCapError(f"mms_exact capped at {max_items} items, instance has {m}")

    scale, value_of = item_set_evaluator(spec, valuation, range(m))
    part_value = _PartValues(value_of)
    # suffixes[k]: the items k..m-1 not yet placed at depth k.
    suffixes = [(1 << m) - (1 << k) for k in range(m + 1)]
    parts: list[int] = []
    best = -1
    best_parts: tuple[int, ...] = ()

    def search(k: int) -> None:
        nonlocal best, best_parts
        if k == m:
            if len(parts) < n:
                candidate = 0
            else:
                candidate = min([part_value[p] for p in parts])
            if candidate > best:
                best = candidate
                best_parts = tuple(parts)
            return
        rest = suffixes[k]
        # Upper bound: each open part can at best absorb all remaining
        # items; a part not yet opened can at best become all of `rest`.
        # With all n parts open, start above `best` so that only the
        # open parts' bounds can prune.
        opening = len(parts) < n
        bound = part_value[rest] if opening else best + 1
        for p in parts:
            pb = part_value[p | rest]
            if pb < bound:
                bound = pb
        if bound <= best:
            return
        bit = 1 << k
        for i in range(len(parts)):
            parts[i] |= bit
            search(k + 1)
            parts[i] ^= bit
        if opening:
            parts.append(bit)
            search(k + 1)
            parts.pop()

    search(0)
    witness = tuple(frozenset(j for j in range(m) if p >> j & 1) for p in best_parts)
    padded = witness + (frozenset(),) * (n - len(witness))
    return MmsResult(value=Fraction(best, scale), witness=padded)


def mms_bounds(spec: SetSystemSpec, valuation: Valuation, n: int) -> tuple[Fraction, Fraction]:
    """Certified sandwich ``(v, m * v)`` around the maximin share over n
    parts, where v is the n-th largest value of an item feasible alone
    (0 when fewer than n are) and m the item count.

    Lower: the top n such items, one per part, give every part at least
    v.  Upper: in any partition some part holds none of the top n - 1
    such items, so each of its items is worth at most v alone, and an
    item infeasible alone adds nothing to any set (heredity); the part
    is worth at most m * v.  Charges no query.
    """
    check_parameters(n=n)
    if fault := _row_fault(spec, valuation):
        raise InputError(f"valuation {fault}")
    alone = sorted(compress(valuation.values, feasible_alone(spec)), reverse=True)
    nth = alone[n - 1] if n <= len(alone) else Fraction(0)
    return nth, spec.num_items * nth
