"""Hereditary set systems over a dense ground set of items 0..m-1.

Two concrete families sit behind one feasibility interface:

* ``ExplicitMaximal`` -- the downward closure of an antichain of maximal
  sets.  A set is feasible iff it is contained in some listed maximal set.
* ``Capacity`` -- per-class item limits (a partition matroid).  A set is
  feasible iff it takes at most ``capacity`` items from every class.

Both families are downward closed by construction, so heredity never has
to be checked at query time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError


@dataclass(frozen=True)
class ExplicitMaximal:
    """Downward closure of an antichain of maximal feasible sets."""

    num_items: int
    maximal_sets: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Capacity:
    """Feasible sets take at most ``capacity`` items from each class.

    ``classes`` partition the ground set; ``class_of`` maps each item to
    the index of its class.
    """

    num_items: int
    classes: tuple[tuple[frozenset[int], int], ...]
    class_of: tuple[int, ...]


SetSystemSpec = ExplicitMaximal | Capacity


def explicit_maximal(num_items: int, maximal_sets: Iterable[Iterable[int]]) -> ExplicitMaximal:
    """Build an explicit spec, discarding dominated sets and duplicates.

    Inputs that are not antichains are normalized here so the stored
    family is always the antichain of its maximal members.
    """
    if num_items < 0:
        raise InputError(f"num_items must be >= 0, got {num_items}")
    sets = [_item_set(raw, num_items) for raw in maximal_sets]
    kept: list[frozenset[int]] = []
    for s in sorted(sets, key=len, reverse=True):
        if not any(s <= other for other in kept):
            kept.append(s)
    kept.sort(key=lambda s: tuple(sorted(s)))
    return ExplicitMaximal(num_items, tuple(kept))


def capacity(num_items: int, classes: Iterable[tuple[Iterable[int], int]]) -> Capacity:
    """Build a capacity spec; classes must partition the ground set."""
    if num_items < 0:
        raise InputError(f"num_items must be >= 0, got {num_items}")
    norm: list[tuple[frozenset[int], int]] = []
    class_of = [-1] * num_items
    for idx, (members, cap) in enumerate(classes):
        ms = _item_set(members, num_items)
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise InputError(f"class {idx}: capacity must be an integer >= 0, got {cap!r}")
        for j in ms:
            if class_of[j] != -1:
                raise InputError(f"item {j} appears in more than one class")
            class_of[j] = idx
        norm.append((ms, cap))
    missing = [j for j in range(num_items) if class_of[j] == -1]
    if missing:
        raise InputError(f"items not covered by any class: {missing}")
    return Capacity(num_items, tuple(norm), tuple(class_of))


def _item_set(items: Iterable[int], num_items: int) -> frozenset[int]:
    """Freeze item ids, rejecting any that is not an int in [0, num_items).
    The exact type test also rejects bools, though ``True == 1``."""
    s = frozenset(items)
    for j in s:
        if type(j) is not int or not 0 <= j < num_items:
            raise InputError(f"item {j!r} outside ground set [0, {num_items})")
    return s


def coerce_items(spec: SetSystemSpec, items: Iterable[int]) -> frozenset[int]:
    """Validate item ids against the ground set and freeze them."""
    return _item_set(items, spec.num_items)


def is_feasible(spec: SetSystemSpec, items: Iterable[int]) -> bool:
    """Feasibility query.  The empty set is always feasible.

    Downward closed: a true answer for a set implies true for all of its
    subsets.
    """
    s = coerce_items(spec, items)
    if not s:
        return True
    if isinstance(spec, Capacity):
        used = [0] * len(spec.classes)
        for j in s:
            c = spec.class_of[j]
            used[c] += 1
            if used[c] > spec.classes[c][1]:
                return False
        return True
    return any(s <= maximal for maximal in spec.maximal_sets)


def equivalence_classes(
    spec: SetSystemSpec, item_values: Sequence[Sequence[Fraction]]
) -> tuple[frozenset[int], ...]:
    """Partition items into interchangeability blocks.

    Two items share a block iff every agent values them identically and
    they play the same feasibility role (same class for capacity specs,
    identical membership pattern across maximal sets for explicit specs).
    Swapping same-block items in any set preserves feasibility and value,
    which is what lets subset searches enumerate multisets over blocks
    instead of raw subsets.

    ``item_values`` holds one row per agent; rows shared between agents
    (identical-agent instances) are deduplicated by object identity.
    """
    m = spec.num_items
    unique_rows: list[Sequence[Fraction]] = []
    seen: set[int] = set()
    for row in item_values:
        if len(row) != m:
            raise InputError(f"value row has {len(row)} entries, expected {m}")
        if id(row) not in seen:
            seen.add(id(row))
            unique_rows.append(row)

    if isinstance(spec, Capacity):
        feas_key = spec.class_of
    else:
        masks = [0] * m
        for t, maximal in enumerate(spec.maximal_sets):
            bit = 1 << t
            for j in maximal:
                masks[j] |= bit
        feas_key = masks

    groups: dict[tuple, list[int]] = {}
    for j in range(m):
        key = (feas_key[j], tuple(row[j] for row in unique_rows))
        groups.setdefault(key, []).append(j)
    blocks = sorted(groups.values(), key=lambda b: b[0])
    return tuple(frozenset(b) for b in blocks)
