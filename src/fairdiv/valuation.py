"""Per-agent valuations over item sets.

An agent has a nonnegative exact-rational value for each item, additive
on feasible sets.  The value of an arbitrary set is the value of its best
feasible subset, which makes the valuation fractionally subadditive (a
pointwise maximum of additive functions, one per maximal feasible set).

``item_set_evaluator`` is the package's one item-set valuation kernel:
``bundle_value`` runs it on a bundle's own items and charges one query;
``mms.mms_exact`` runs it on all items behind a memo and charges none.
``scale_row`` is the row scaling it shares with the allocator.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .errors import DegenerateInputError, InputError
from .rationals import parse_rational
from .setsystem import Capacity, SetSystemSpec, coerce_items

ZERO = Fraction(0)


class Valuation:
    """Item values plus a bundle-value query counter.

    Value data is immutable after construction; the counter is the only
    mutable state and only ever increases.  Equality ignores the counter.
    """

    __slots__ = ("_values", "_queries")

    def __init__(self, values: Iterable[Fraction | int | str]):
        vals = []
        for v in values:
            f = v if isinstance(v, Fraction) else parse_rational(v)
            if f < 0:
                raise InputError(f"item values must be nonnegative, got {f}")
            vals.append(f)
        self._values: tuple[Fraction, ...] = tuple(vals)
        self._queries = 0

    @classmethod
    def _wrap(cls, canonical: tuple[Fraction, ...]) -> "Valuation":
        # Trusted constructor: shares the tuple so identical agents keep
        # one value row (identity is what the block machinery dedupes on).
        val = cls.__new__(cls)
        val._values = canonical
        val._queries = 0
        return val

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self._values

    @property
    def num_items(self) -> int:
        return len(self._values)

    @property
    def query_count(self) -> int:
        return self._queries

    def _count_query(self) -> None:
        self._queries += 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        return f"Valuation({len(self._values)} items)"


def scale_row(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(L, row * L)``: L is the lcm of the values' denominators, so every
    scaled value is an integer.  An empty row has L = 1."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def item_set_evaluator(
    spec: SetSystemSpec, valuation: Valuation, items: Sequence[int]
) -> tuple[int, Callable[[int], int]]:
    """``(L, value_of)``: the subsets of ``items`` valued in integers.

    Bit b of a mask stands for ``items[b]``; ``value_of(mask)`` is L times
    the value of the mask's best feasible subset, where L is the lcm of
    the listed items' denominators.  Capacity specs take, per class, the
    ``cap`` largest values in the mask; explicit specs take the best sum
    over the mask's intersection with a maximal set, which by heredity
    dominates every feasible subset.  Classes and maximal sets are cut
    down to the listed items, so setup costs O(|items|) per class or
    maximal set, not O(m).  Charges no query.
    """
    if valuation.num_items != spec.num_items:
        raise InputError(
            f"valuation covers {valuation.num_items} items, spec has {spec.num_items}"
        )
    scale, scaled = scale_row([valuation.values[j] for j in items])

    if isinstance(spec, Capacity):
        # Per class: its mask, its cap and its bits by descending value;
        # a mask takes the first ``cap`` of them it holds.
        by_class: dict[int, list[int]] = {}
        for b, j in enumerate(items):
            by_class.setdefault(spec.class_of[j], []).append(b)
        classes = []
        for c, bits in by_class.items():
            cap = spec.classes[c][1]
            if cap > 0:
                ranked = sorted(bits, key=scaled.__getitem__, reverse=True)
                classes.append(
                    (sum(1 << b for b in bits), cap, [(1 << b, scaled[b]) for b in ranked])
                )

        def value_of(mask: int) -> int:
            total = 0
            for class_mask, cap, ranked in classes:
                if mask & class_mask:
                    taken = 0
                    for bit, v in ranked:
                        if mask & bit:
                            total += v
                            taken += 1
                            if taken == cap:
                                break
            return total
    else:
        set_masks = [
            sum(1 << b for b, j in enumerate(items) if j in maximal)
            for maximal in spec.maximal_sets
        ]

        def value_of(mask: int) -> int:
            best = 0
            for set_mask in set_masks:
                inside = mask & set_mask
                total = 0
                while inside:
                    low = inside & -inside
                    total += scaled[low.bit_length() - 1]
                    inside ^= low
                if total > best:
                    best = total
            return best

    return scale, value_of


def bundle_value(spec: SetSystemSpec, valuation: Valuation, items: Iterable[int]) -> Fraction:
    """Value of a set: the best feasible subset's value sum, computed by
    ``item_set_evaluator`` on the set's own items.  An item listed twice
    counts once.  Increments the valuation's query counter.
    """
    listed = tuple(coerce_items(spec, items))
    scale, value_of = item_set_evaluator(spec, valuation, listed)
    valuation._count_query()
    return Fraction(value_of((1 << len(listed)) - 1), scale)


def nth_value(valuation: Valuation, n: int) -> Fraction:
    """The ``n``-th largest item value (order statistic); 0 when n > m."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n > valuation.num_items:
        return ZERO
    return sorted(valuation.values, reverse=True)[n - 1]


def normalize_to_partition(
    valuation: Valuation,
    partition: Iterable[Iterable[int]],
    spec: SetSystemSpec,
) -> Valuation:
    """Divide each item value by the bundle value of the part holding it.

    The parts must be disjoint and cover all items, and every part must
    have positive bundle value.  In the result, each part's bundle value
    is exactly 1 (scaling all values of a part by one constant commutes
    with the max over feasible subsets).
    """
    m = spec.num_items
    if valuation.num_items != m:
        raise InputError(
            f"valuation covers {valuation.num_items} items, spec has {m}"
        )
    part_of: list[int] = [-1] * m
    parts: list[frozenset[int]] = []
    for idx, raw in enumerate(partition):
        part = coerce_items(spec, raw)
        for j in part:
            if part_of[j] != -1:
                raise InputError(f"item {j} appears in more than one part")
            part_of[j] = idx
        parts.append(part)
    uncovered = [j for j in range(m) if part_of[j] == -1]
    if uncovered:
        raise InputError(f"items not covered by the partition: {uncovered}")

    scales: list[Fraction] = []
    for idx, part in enumerate(parts):
        pv = bundle_value(spec, valuation, part)
        if pv == 0:
            raise DegenerateInputError(
                f"part {idx} has bundle value 0 and cannot be normalized"
            )
        scales.append(pv)
    new_values = tuple(
        valuation.values[j] / scales[part_of[j]] for j in range(m)
    )
    return Valuation._wrap(new_values)
