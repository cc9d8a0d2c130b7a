"""Per-agent valuations, and the package's two valuation kernels.

An agent has a nonnegative exact-rational value for each item, additive
on feasible sets.  The value of an arbitrary set is the value of its best
feasible subset, which makes the valuation fractionally subadditive (a
pointwise maximum of additive functions, one per maximal feasible set).

This module is the only one that applies that rule to a set-system
family.  Both kernels compute in integers, each value row scaled by the
lcm of its denominators (``rationals.scale_row``):

* ``item_set_evaluator`` values subsets of an item list as bitmasks.
  ``bundle_value`` runs it on a bundle's own items and charges one query;
  ``mms.mms_exact`` runs it on all items behind a memo and charges none.
* The block-count kernel values multisets of item-equivalence blocks
  for the allocator's searches: ``BlockTable.value`` from scratch,
  optionally capped at a size, and ``RunningValues`` for the removal
  scan's one multiset, changed a block at a time.  The kernel charges
  each value it returns as one query on the value group's
  representative, so its callers keep no query accounting.

Both kernels prepare a family the same way, with a unit standing for an
item (a bit) or for a block: capacity systems list each class's units by
descending value (``_by_class``), explicit systems each maximal set's
units (``_set_members``).  Both take a class's or a set's best items
greedily along such an order.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import InputError
from .rationals import parse_rational, scale_row
from .setsystem import Capacity, ExplicitMaximal, SetSystemSpec, coerce_items


class Valuation:
    """Item values plus a valuation-query counter, which this module's
    kernels increment by one per value they return.

    Value data is immutable after construction; the counter is the only
    mutable state and only ever increases.  Equality ignores the counter.
    """

    __slots__ = ("_values", "_queries")

    def __init__(self, values: Iterable[Fraction | int | str]):
        vals = []
        for v in values:
            f = v if isinstance(v, Fraction) else parse_rational(v)
            if f.numerator < 0:
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        return f"Valuation({len(self._values)} items)"


def _by_class(spec: Capacity, firsts: Sequence[int], row: Sequence[int]) -> list[list[int]]:
    """Per class of ``spec``, its units by descending ``row`` value, ties
    by unit; unit u stands for item ``firsts[u]``."""
    by_class: list[list[int]] = [[] for _ in spec.caps]
    for u in sorted(range(len(firsts)), key=row.__getitem__, reverse=True):
        by_class[spec.class_of[firsts[u]]].append(u)
    return by_class


def _set_members(spec: ExplicitMaximal, firsts: Sequence[int]) -> list[list[int]]:
    """Per maximal set of ``spec``, its units in ascending order; unit u
    stands for item ``firsts[u]``."""
    return [[u for u, j in enumerate(firsts) if j in maximal] for maximal in spec.maximal_sets]


def _take(order: Sequence[int], places: int, counts: Mapping[int, int], row: Sequence[int]) -> int:
    """Value of the first ``places`` items that ``counts`` holds along
    ``order``."""
    acc = 0
    for b in order:
        k = counts.get(b, 0)
        if k:
            if k >= places:
                return acc + row[b] * places
            acc += row[b] * k
            places -= k
    return acc


def _row_fault(spec: SetSystemSpec, valuation: Valuation) -> str | None:
    """What is wrong with ``valuation`` as a value row over ``spec``'s items, or None."""
    k, m = valuation.num_items, spec.num_items
    return None if k == m else f"covers {k} items, spec has {m}"


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
    if fault := _row_fault(spec, valuation):
        raise InputError(f"valuation {fault}")
    scale, scaled = scale_row([valuation.values[j] for j in items])

    if isinstance(spec, Capacity):
        # Per class: its mask, its cap and its bits by descending value;
        # a mask takes the first ``cap`` of them it holds.
        classes = [
            (sum(1 << b for b in bits), cap, [(1 << b, scaled[b]) for b in bits])
            for bits, cap in zip(_by_class(spec, items, scaled), spec.caps)
            if bits and cap
        ]

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
        set_masks = [sum(1 << b for b in bits) for bits in _set_members(spec, items)]

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
    valuation._queries += 1
    return Fraction(value_of((1 << len(listed)) - 1), scale)


def value_groups(valuations: Iterable[Valuation]) -> tuple[list[Valuation], list[int]]:
    """``(reps, group_of)``: agents sharing one value row object form a
    value group (identical agents share one row, ``Valuation._wrap``).
    ``reps[g]`` is group g's first agent's valuation and ``group_of[i]``
    agent i's group, so groups are numbered by first appearance."""
    reps: list[Valuation] = []
    group_of: list[int] = []
    index: dict[int, int] = {}
    for val in valuations:
        g = index.setdefault(id(val.values), len(reps))
        if g == len(reps):
            reps.append(val)
        group_of.append(g)
    return reps, group_of


class BlockTable:
    """Values of multisets of block counts, per value group.

    ``blocks`` are item-equivalence blocks (``setsystem.
    equivalence_classes`` of the spec and the valuations' rows, possibly
    cut down to some items; empty ones are dropped).  Items in one block
    carry identical value for every agent and an identical feasibility
    role, so a multiset of block counts is worth what ``bundle_value``
    gives any set realizing it.  ``reps`` and ``group_of`` are the
    agents' ``value_groups``: ``reps[g]`` is group g's representative
    valuation, and every value this kernel returns for group g, here or
    in ``RunningValues``, charges one query on it.

    ``val[g]`` holds group g's block values as integers over the group's
    scale ``scale[g]`` (L_g, the lcm of the row's denominators), and
    ``value`` returns the integer sum S, so the true bundle value is
    S / L_g.  No fraction arithmetic happens per call.

    ``value(group, counts, size=None)`` values a multiset from scratch
    and charges one query.  It optionally caps the bundle at ``size``
    items, giving the best value any size-``size`` subset of the pool
    reaches (padding with surplus items is free since values are
    monotone).  Both families take items greedily in descending value:
    capacity systems in one global order under per-class caps (a
    truncated partition matroid, where greedy is optimal), explicit
    systems in one order per maximal set.  Without a cap the size never
    binds, so the value touches only the multiset's own blocks and costs
    O(blocks in the multiset).  It is the oracle that ``RunningValues``
    is tested against.

    ``phase_memo``, empty at first, maps a multiset of block counts to
    its uncapped value per group as the allocator's phases read them.
    ``phase_log``, None at first, holds the allocator's record of the last
    round's phase sweeps on this table (``allocator._PhaseLog``), which
    the next round replays while its decisions still hold.
    """

    def __init__(
        self,
        spec: SetSystemSpec,
        reps: Sequence[Valuation],
        group_of: Sequence[int],
        blocks: Iterable[frozenset[int]],
    ):
        self.reps = reps
        self.group_of = group_of
        self.block_items: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(b)) for b in blocks if b
        )
        self.phase_memo: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
        self.phase_log: Any = None
        nb = len(self.block_items)
        firsts = [block[0] for block in self.block_items]
        self.scale: list[int] = []
        self.val: list[tuple[int, ...]] = []
        for rep in self.reps:
            scale, row = scale_row([rep.values[j] for j in firsts])
            self.scale.append(scale)
            self.val.append(row)

        self.capacity = isinstance(spec, Capacity)
        if self.capacity:
            self.caps = spec.caps
            self.block_class = tuple(spec.class_of[j] for j in firsts)
            self.greedy_orders = [
                sorted(range(nb), key=row.__getitem__, reverse=True) for row in self.val
            ]
            # per group: each class's blocks in greedy order
            self.class_orders = [_by_class(spec, firsts, row) for row in self.val]
        else:
            set_blocks = _set_members(spec, firsts)
            self.set_orders = [
                [sorted(bs, key=row.__getitem__, reverse=True) for bs in set_blocks]
                for row in self.val
            ]
            self.num_sets = len(set_blocks)
            sets_of: list[list[int]] = [[] for _ in range(nb)]
            for t, bs in enumerate(set_blocks):
                for b in bs:
                    sets_of[b].append(t)
            self.sets_of = tuple(tuple(ts) for ts in sets_of)
            self.set_mask = tuple(sum(1 << t for t in ts) for ts in sets_of)

    @property
    def num_blocks(self) -> int:
        return len(self.block_items)

    @property
    def num_groups(self) -> int:
        return len(self.reps)

    def value(self, group: int, counts: Mapping[int, int], size: int | None = None) -> int:
        """Scaled bundle value of the multiset ``counts`` (a count of 0
        reads as absent), optionally capped at ``size`` items.  Costs one
        query."""
        self.reps[group]._queries += 1
        vrow = self.val[group]
        if size is None:
            return self._uncapped(group, counts, vrow)
        left = size
        total = 0
        if not self.capacity:
            for order in self.set_orders[group]:
                acc = _take(order, left, counts, vrow)
                if acc > total:
                    total = acc
            return total
        cap_left = list(self.caps)
        for b in self.greedy_orders[group]:
            k = counts.get(b, 0)
            if not k:
                continue
            c = self.block_class[b]
            room = cap_left[c]
            if not room:
                continue
            if k > room:
                k = room
            if k >= left:
                return total + vrow[b] * left
            total += vrow[b] * k
            cap_left[c] = room - k
            left -= k
        return total

    def _uncapped(self, group: int, counts: Mapping[int, int], vrow: Sequence[int]) -> int:
        """``value`` without a size cap, in time linear in the multiset's
        blocks: explicit systems add each block to the maximal sets that
        hold it (``sets_of``), capacity systems take each class's best
        ``cap`` items, its blocks sorted by descending value."""
        if not self.capacity:
            sums: dict[int, int] = {}
            for b, k in counts.items():
                if k:
                    v = vrow[b] * k
                    for t in self.sets_of[b]:
                        sums[t] = sums.get(t, 0) + v
            return max(sums.values(), default=0)
        by_class: dict[int, list[int]] = {}
        for b, k in counts.items():
            if k:
                by_class.setdefault(self.block_class[b], []).append(b)
        total = 0
        for c, blocks in by_class.items():
            room = self.caps[c]
            blocks.sort(key=vrow.__getitem__, reverse=True)
            for b in blocks:
                if not room:
                    break
                k = min(counts[b], room)
                total += vrow[b] * k
                room -= k
        return total


class RunningValues:
    """Scaled values of one changing multiset of block counts, for every
    group in play: the removal scan's pool.

    ``change(b, k)`` adds k items of block b (k < 0 removes them);
    ``value(g)`` is group g's value of the current multiset, and
    ``without(g, b, k)`` its value were k of b's items gone, with nothing
    changed.  Each answer equals ``BlockTable.value(g, counts)`` on
    ``counts``, the current multiset, and charges one query on
    ``table.reps[g]`` the same way; ``change`` charges none.

    Capacity values separate by class, each class giving its best ``cap``
    items.  The state keeps per (group, class) that best value and the
    class's plain sum, plus each group's total.  A class holding at most
    ``cap`` items is worth its plain sum.  A class over its cap is walked
    greedily along its own blocks, on ``change`` and again on ``without``,
    which lowers b's count for the walk and puts it back.  The start
    state adds every count first and then walks each touched class once.

    Explicit systems keep a running sum per (group, maximal set); a value
    is the largest sum.
    """

    def __init__(self, table: BlockTable, groups: Sequence[int], counts: Mapping[int, int]):
        self.table = table
        self.groups = groups
        self.counts: dict[int, int] = {}
        self.capacity = table.capacity
        num_groups = table.num_groups
        if self.capacity:
            num_classes = len(table.caps)
            self.class_count = [0] * num_classes
            self.plain = [[0] * num_classes for _ in range(num_groups)]
            self.best = [[0] * num_classes for _ in range(num_groups)]
            self.total = [0] * num_groups
        else:
            self.sums = [[0] * table.num_sets for _ in range(num_groups)]
            self.ranked: list[list[int] | None] = [None] * num_groups
        start = [(b, k) for b, k in counts.items() if k]
        if self.capacity:
            settle: dict[int, int] = {}
            for b, k in start:
                self.counts[b] = k
                c = table.block_class[b]
                self.class_count[c] += k
                for g in groups:
                    self.plain[g][c] += table.val[g][b] * k
                settle[c] = b
            # change(b, 0) walks b's class once, with every count in place
            start = [(b, 0) for b in settle.values()]
        for b, k in start:
            self.change(b, k)

    def change(self, b: int, k: int) -> None:
        table = self.table
        counts = self.counts
        left = counts.get(b, 0) + k
        if left:
            counts[b] = left
        else:
            del counts[b]
        if self.capacity:
            c = table.block_class[b]
            in_class = self.class_count[c] + k
            self.class_count[c] = in_class
            cap = table.caps[c]
            for g in self.groups:
                vrow = table.val[g]
                plain = self.plain[g]
                plain[c] += vrow[b] * k
                if in_class > cap:
                    v = _take(table.class_orders[g][c], cap, counts, vrow)
                else:
                    v = plain[c]
                best = self.best[g]
                self.total[g] += v - best[c]
                best[c] = v
        else:
            sets = table.sets_of[b]
            for g in self.groups:
                d = table.val[g][b] * k
                sums = self.sums[g]
                for t in sets:
                    sums[t] += d
                self.ranked[g] = None

    def value(self, g: int) -> int:
        self.table.reps[g]._queries += 1
        if self.capacity:
            return self.total[g]
        return max(self.sums[g], default=0)

    def without(self, g: int, b: int, k: int) -> int:
        table = self.table
        table.reps[g]._queries += 1
        vrow = table.val[g]
        if self.capacity:
            c = table.block_class[b]
            rest = self.total[g] - self.best[g][c]
            cap = table.caps[c]
            if self.class_count[c] - k <= cap:
                return rest + self.plain[g][c] - vrow[b] * k
            counts = self.counts
            counts[b] -= k
            v = _take(table.class_orders[g][c], cap, counts, vrow)
            counts[b] += k
            return rest + v
        # Walk the sets by descending sum: the first set holding b is the
        # best of those, less b's share; the first set without b ends it.
        sums = self.sums[g]
        ranked = self.ranked[g]
        if ranked is None:
            ranked = sorted(range(len(sums)), key=sums.__getitem__, reverse=True)
            self.ranked[g] = ranked
        holds = table.set_mask[b]
        hit = -1
        for t in ranked:
            s = sums[t]
            if s <= hit:
                return hit
            if not holds >> t & 1:
                return s
            if hit < 0:
                hit = s - vrow[b] * k
        return max(hit, 0)
