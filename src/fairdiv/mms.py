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

Two additions prune the search without moving the value or the witness.

- **Seed.**  Before the search, ``best`` starts at L - 1, where L is the
  worst part of a greedy partition (items by descending own value, each
  to a part of least current value).  L is a partition's worst part, so
  L <= OPT.  Every leaf before the first optimum W* is worth less than
  OPT, so ``best`` stays below OPT until W*; every node on W*'s path has
  an upper bound >= OPT > ``best`` and is not pruned.  W* is therefore
  reached and is the first leaf to reach OPT, as without the seed.
- **Gap-covering bound.**  A node can only lead to a better leaf if every
  part, open or not yet opened, reaches t = best + 1.  Heredity makes the
  value subadditive over single items: the best feasible subset of
  A + B splits into a feasible subset of A and single items of B, each
  feasible alone, so v(A + B) <= v(A) + sum of v({j}) over j in B.  A
  part p with gap t - v(p) > 0 must thus receive remaining items whose
  own values sum to its gap; capping each own value at the widest gap G
  keeps that true (an item worth G or more covers any gap alone).  So a
  node whose positive gaps (t for each unopened part) sum to more than
  the sum over remaining items of min(v({j}), G) is pruned.  It is
  tested before the per-part bound v(p + rest), whose masks mostly miss
  the memo.
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

    Two prunes come before the enumeration's own "each open part absorbs
    every remaining item" bound (the module docstring proves both):
    ``best`` starts one below a greedy partition's worst part, a lower
    bound on the share, so the first optimum is still the first leaf to
    beat it; and a node is cut when the parts' gaps to ``best + 1`` sum to
    more than the remaining items can cover, each item covering at most
    its own value, which heredity makes an upper bound on what it adds
    to any part.  When n > m the share is 0 and the seed is skipped.

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
    alone = [part_value[1 << j] for j in range(m)]
    parts: list[int] = []
    best = -1
    best_parts: tuple[int, ...] = ()
    if n <= m:
        # Greedy seed: items by descending own value, each to a part of
        # least current value; its worst part is at most the share.
        greedy = [0] * n
        for j in sorted(range(m), key=alone.__getitem__, reverse=True):
            i = min(range(n), key=lambda part: part_value[greedy[part]])
            greedy[i] |= 1 << j
        best = min([part_value[p] for p in greedy]) - 1

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
        # Gap-covering bound: every part, open or not yet opened, must
        # reach t, and an item j can close at most min(v({j}), widest
        # gap) of the gaps.
        t = best + 1
        opening = len(parts) < n
        need = (n - len(parts)) * t
        widest = t if opening else 0
        for p in parts:
            gap = t - part_value[p]
            if gap > 0:
                need += gap
                if gap > widest:
                    widest = gap
        if need:
            cover = 0
            for v in alone[k:]:
                cover += v if v < widest else widest
            if need > cover:
                return
        rest = suffixes[k]
        # Upper bound: each open part can at best absorb all remaining
        # items; a part not yet opened can at best become all of `rest`.
        # With all n parts open, start above `best` so that only the
        # open parts' bounds can prune.
        bound = part_value[rest] if opening else t
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
