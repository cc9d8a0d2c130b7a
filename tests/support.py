"""Shared test helpers: independent brute-force oracles, seeded suites,
and the helpers only tests need (``is_feasible``, ``replicate_agents``,
``nth_value``, ``minimal_set``, ``normalize_to_partition``,
``round_query_bound``).

The oracles here deliberately avoid the production evaluation paths:
``brute_bundle_value`` enumerates every subset and filters through the
feasibility query, ``brute_mms`` enumerates labeled part assignments
directly, and ``value_of_subset`` values item sets in ``Fraction``s
without the package's integer evaluator, and
``reference_equivalence_classes`` groups items on tuples of ``Fraction``
values instead of scaled integers.  They exist to cross-check the fast
implementations.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from fairdiv import (
    Capacity,
    DeskCapError,
    ExplicitMaximal,
    InputError,
    Instance,
    Valuation,
    bundle_value,
    equivalence_classes,
    explicit_maximal,
    mms_exact,
    random_instance,
)
from fairdiv.allocator import _block_table, _minimal_set_scan, _Pool, _Roster
from fairdiv.setsystem import coerce_items
from fairdiv.valuation import BlockTable, value_groups

FAMILIES = ("capacity", "explicit-antichain", "free")
EXPLICIT_EXPANSION_CAP = 200_000
ZERO = Fraction(0)


def is_feasible(spec, items) -> bool:
    """Feasibility query.  The empty set is always feasible; an item id
    outside the ground set is an ``InputError``."""
    s = coerce_items(spec, items)
    if not s:
        return True
    if isinstance(spec, Capacity):
        used = [0] * len(spec.caps)
        for j in s:
            c = spec.class_of[j]
            used[c] += 1
            if used[c] > spec.caps[c]:
                return False
        return True
    return any(s <= maximal for maximal in spec.maximal_sets)


def replicate_agents(instance: Instance, n: int) -> Instance:
    """Clone a single-agent template into n identical agents, which share
    the template's one value row."""
    if instance.n != 1:
        raise InputError("replicate_agents expects a single-agent template")
    row = instance.valuations[0].values
    return Instance(
        name=instance.name,
        n=n,
        spec=instance.spec,
        valuations=tuple(Valuation._wrap(row) for _ in range(n)),
        seed=instance.seed,
    )


def nth_value(valuation, n: int) -> Fraction:
    """The ``n``-th largest item value (order statistic); 0 when n > m."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n > valuation.num_items:
        return ZERO
    return sorted(valuation.values, reverse=True)[n - 1]


def table1_labels(instance: Instance) -> list[str]:
    """Each item's Table 1 class letter: classes 0..5 are A..F."""
    return ["ABCDEF"[c] for c in instance.spec.class_of]


def value_of_subset(spec, values, s: frozenset[int]) -> Fraction:
    """Max over feasible subsets of ``s`` of the value sum, in ``Fraction``s
    over item sets: per class the ``cap`` largest values, or the best
    intersection with a maximal set.  Independent of the package's integer
    evaluator, which it cross-checks; charges no query."""
    if not s:
        return ZERO
    if isinstance(spec, Capacity):
        buckets: dict[int, list[Fraction]] = {}
        for j in s:
            buckets.setdefault(spec.class_of[j], []).append(values[j])
        total = ZERO
        for c, vals in buckets.items():
            cap = spec.caps[c]
            if cap <= 0:
                continue
            if len(vals) > cap:
                vals.sort(reverse=True)
                vals = vals[:cap]
            for v in vals:
                total += v
        return total
    best = ZERO
    for maximal in spec.maximal_sets:
        acc = ZERO
        for j in s & maximal:
            acc += values[j]
        if acc > best:
            best = acc
    return best


def capacity_as_explicit(spec: Capacity) -> ExplicitMaximal:
    """Expand a capacity spec into its explicit maximal-set family.

    Maximal sets take exactly min(capacity, class size) items from every
    class.  A desk-scale cross-check oracle; the expansion is refused
    beyond ``EXPLICIT_EXPANSION_CAP`` sets.
    """
    per_class: list[list[tuple[int, ...]]] = []
    total = 1
    for c, cap in enumerate(spec.caps):
        members = [j for j, k in enumerate(spec.class_of) if k == c]
        combos = list(combinations(members, min(cap, len(members))))
        total *= len(combos)
        if total > EXPLICIT_EXPANSION_CAP:
            raise DeskCapError(
                f"explicit expansion would exceed {EXPLICIT_EXPANSION_CAP} maximal sets"
            )
        per_class.append(combos)

    sets: list[frozenset[int]] = [frozenset()]
    for combos in per_class:
        sets = [s | frozenset(c) for s in sets for c in combos]
    return explicit_maximal(spec.num_items, sets)


def brute_bundle_value(spec, values, items) -> Fraction:
    """Max value-sum over all feasible subsets, by full enumeration."""
    items = sorted(items)
    best = Fraction(0)
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            if is_feasible(spec, combo):
                total = sum((values[j] for j in combo), Fraction(0))
                if total > best:
                    best = total
    return best


def brute_mms(spec, values, n) -> Fraction:
    """Maximin share by enumerating labeled assignments (m <= ~6)."""
    m = spec.num_items
    best = Fraction(0) if n > m else None
    assignment = [0] * m

    def walk(k: int):
        nonlocal best
        if k == m:
            worst = None
            for part_idx in range(n):
                part = [j for j in range(m) if assignment[j] == part_idx]
                pv = brute_bundle_value(spec, values, part)
                if worst is None or pv < worst:
                    worst = pv
            if best is None or worst > best:
                best = worst
            return
        for part_idx in range(n):
            assignment[k] = part_idx
            walk(k + 1)

    walk(0)
    return best


def reference_mms_exact(spec, valuation, n):
    """The frozenset/Fraction partition search ``mms_exact`` replaced.

    Same canonical enumeration (item 0 opens part 0; each later item
    joins an open part or opens the next one), the same ``bound <= best``
    prune and the same ``candidate > best`` rule, over exact rationals.
    Returns ``(value, parts)`` with the parts padded to ``n``.
    """
    m = spec.num_items
    values = valuation.values
    memo: dict[frozenset[int], Fraction] = {}

    def val_of(s: frozenset[int]) -> Fraction:
        cached = memo.get(s)
        if cached is None:
            cached = value_of_subset(spec, values, s)
            memo[s] = cached
        return cached

    suffixes = [frozenset(range(k, m)) for k in range(m + 1)]
    best = None
    best_parts = None

    def search(k: int, parts: list[frozenset[int]]) -> None:
        nonlocal best, best_parts
        if k == m:
            if len(parts) < n:
                candidate = Fraction(0)
            else:
                candidate = min(val_of(p) for p in parts)
            if best is None or candidate > best:
                best = candidate
                best_parts = tuple(parts)
            return
        rest = suffixes[k]
        bound = None
        for p in parts:
            pb = val_of(p | rest)
            if bound is None or pb < bound:
                bound = pb
        if len(parts) < n:
            rb = val_of(rest)
            if bound is None or rb < bound:
                bound = rb
        if best is not None and bound is not None and bound <= best:
            return
        for i in range(len(parts)):
            parts[i] = parts[i] | {k}
            search(k + 1, parts)
            parts[i] = parts[i] - {k}
        if len(parts) < n:
            parts.append(frozenset((k,)))
            search(k + 1, parts)
            parts.pop()

    search(0, [])
    return best, best_parts + (frozenset(),) * (n - len(best_parts))


def reference_equivalence_classes(spec, item_values) -> tuple[frozenset[int], ...]:
    """``equivalence_classes`` as it grouped items before integer keys: on
    the feasibility key and the tuple of each unique row's ``Fraction``
    value, blocks ordered by their least item."""
    m = spec.num_items
    unique_rows = []
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


def suite_instance(i: int, base_seed: int) -> Instance:
    """Deterministic suite member: families cycle, m and n vary with i."""
    meta = random.Random(1_000_003 * (base_seed + i))
    n = meta.choice((2, 3))
    m = meta.randint(n, 8)
    return random_instance(base_seed + i, m, n, FAMILIES[i % len(FAMILIES)])


def iter_suite(count: int, base_seed: int):
    for i in range(count):
        yield suite_instance(i, base_seed)


def normalize_to_partition(valuation, partition, spec) -> Valuation:
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
            raise InputError(
                f"part {idx} has bundle value 0 and cannot be normalized"
            )
        scales.append(pv)
    new_values = tuple(
        valuation.values[j] / scales[part_of[j]] for j in range(m)
    )
    return Valuation._wrap(new_values)


def normalized_by_witnesses(instance: Instance):
    """Rescale every agent by its own exact maximin witness.

    Returns (normalized instance, list of exact maximin values).  Every
    part of each witness has positive value on these suites (positive
    item values, feasible singletons, m >= n), so normalization is
    always defined.
    """

    normalized = []
    exact_values = []
    for val in instance.valuations:
        result = mms_exact(instance.spec, val, instance.n)
        exact_values.append(result.value)
        parts = [p for p in result.witness if p]
        normalized.append(normalize_to_partition(val, parts, instance.spec))
    ninst = Instance(
        name=f"{instance.name}-normalized",
        n=instance.n,
        spec=instance.spec,
        valuations=tuple(normalized),
    )
    return ninst, exact_values


def random_subset(rng: random.Random, m: int) -> list[int]:
    return [j for j in range(m) if rng.random() < 0.5]


def reference_allocate_naive(instance, alpha):
    """Literal reference search: raw subsets via itertools, restart after
    every allocation.  Validates the block-level enumeration, whose
    continue-instead-of-restart scan must be indistinguishable."""
    from itertools import combinations

    from fairdiv import bundle_value

    items = sorted(range(instance.num_items))
    agents = sorted(range(instance.n))
    trace = []
    for tau in range(1, instance.num_items + 1):
        while True:
            hit = None
            for combo in combinations(items, tau):
                for agent in agents:
                    value = bundle_value(instance.spec, instance.valuations[agent], combo)
                    if value >= alpha:
                        hit = (combo, agent, value)
                        break
                if hit:
                    break
            if not hit:
                break
            combo, agent, value = hit
            trace.append((tau, agent, combo, value))
            items = [j for j in items if j not in combo]
            agents.remove(agent)
    return trace, agents


def ratio_greater(v1, t1, v2, t2) -> bool:
    """v1/t1 > v2/t2 by cross-multiplication; a zero threshold reads as
    an infinite ratio, and value 0 over threshold 0 compares equal to
    everything."""
    return v1 * t2 > v2 * t1


def reference_pick(values, thresholds, remaining) -> int:
    """One-at-a-time agent pick: scan ascending indices and replace the
    pick only on a strictly greater ratio."""
    pick = None
    for pos in sorted(remaining):
        if pick is None or ratio_greater(
            values[pos], thresholds[pos], values[pick], thresholds[pick]
        ):
            pick = pos
    return pick


def reference_minimal_set(spec, valuations, items, thresholds):
    """Literal one-item-at-a-time removal scan; no blocks, no batching."""
    from fairdiv import bundle_value

    current = sorted(items)
    agents = sorted(valuations)
    while True:
        pick = None
        for agent in agents:
            v = bundle_value(spec, valuations[agent], current)
            t = thresholds[agent]
            if pick is None or ratio_greater(v, t, pick[1], pick[2]):
                pick = (agent, v, t)
        agent, _, threshold = pick
        order = sorted(current, key=lambda j: (valuations[agent].values[j], j))
        for j in order:
            rest = [x for x in current if x != j]
            if bundle_value(spec, valuations[agent], rest) >= threshold:
                current = rest
                break
        else:
            return frozenset(current), agent


def minimal_set(spec, valuations, items, thresholds):
    """One run of ``_minimal_set_scan`` over ``items``: a 1-minimal bundle
    within them that meets some agent's positive threshold, as
    (bundle, agent id), or None when no agent values ``items`` at its
    threshold."""
    agents = sorted(valuations)
    thr = [thresholds[a] for a in agents]
    assert all(t > 0 for t in thr)
    vals = [valuations[a] for a in agents]
    keep = frozenset(items)
    reps, group_of = value_groups(vals)
    blocks = [b & keep for b in equivalence_classes(spec, [rep.values for rep in reps])]
    table = BlockTable(spec, reps, group_of, blocks)
    roster = _Roster(table.group_of, table.scale, thr, range(len(agents)))
    found = _minimal_set_scan(table, _Pool(table), roster)
    if found is None:
        return None
    bundle, pick, _value = found
    return frozenset(bundle), agents[pick]


def round_query_bound(instance) -> int:
    """Queries one ``allocate_from_estimates`` round may spend, for G value
    groups and B blocks of the run's block table, n agents and m items:
    G * sum over s = 1..3 of (1 + C(B+s-1, s)) for the phases (a size-capped
    existence check plus one read per size-s multiset), plus at most n + 1
    removal scans, each within the per-scan bound
    G + (G+1) * B + p * (2 + ceil(log2 p) + G) at p <= m.

    A phase also reruns its existence check, G queries, after each of its
    allocations, which the phase term leaves out.  The formula still
    holds: with a phase allocations in the round, at most n + 1 - a scans
    run, and each scan costs at least G, so the n + 1 scan terms pay for
    the a rerun checks."""
    table = _block_table(instance.spec, instance.valuations)
    g, b, n, m = table.num_groups, table.num_blocks, instance.n, instance.num_items
    phases = g * sum(1 + comb(b + s - 1, s) for s in (1, 2, 3))
    scan = g + (g + 1) * b + m * (2 + (m - 1).bit_length() + g)
    return phases + (n + 1) * scan


def reference_allocate_from_estimates(instance, mu, alpha):
    """Literal ``allocate_from_estimates``: no blocks, no batching, no pool
    windows.  Zero-estimate grants come first, in index order.  Sizes 1..3
    then hand the first raw subset of the pool, in ``combinations`` order,
    to the first remaining agent by index that values it at its threshold
    alpha * mu_i, restarting after every allocation.  Last,
    ``reference_minimal_set`` runs on the remaining pool for as long as
    some remaining agent values that pool at its threshold.  Returns the
    events as (kind, phase, agent, bundle, value, threshold) tuples and
    the unallocated agents."""
    from fairdiv import bundle_value
    from fairdiv.allocator import MINIMAL, PHASE, ZERO_ESTIMATE

    spec, valuations = instance.spec, instance.valuations
    thresholds = [alpha * entry for entry in mu]
    events = [
        (ZERO_ESTIMATE, 0, agent, (), ZERO, ZERO)
        for agent in range(instance.n)
        if mu[agent] == 0
    ]
    agents = [agent for agent in range(instance.n) if mu[agent]]
    pool = list(range(instance.num_items))

    def grant(kind, agent, bundle, value):
        events.append((kind, len(bundle), agent, bundle, value, thresholds[agent]))
        agents.remove(agent)
        pool[:] = [j for j in pool if j not in bundle]

    for size in (1, 2, 3):
        while True:
            hit = None
            for combo in combinations(pool, size):
                for agent in agents:
                    value = bundle_value(spec, valuations[agent], combo)
                    if value >= thresholds[agent]:
                        hit = (agent, combo, value)
                        break
                if hit:
                    break
            if hit is None:
                break
            grant(PHASE, *hit)

    while any(bundle_value(spec, valuations[a], pool) >= thresholds[a] for a in agents):
        bundle, agent = reference_minimal_set(
            spec, {a: valuations[a] for a in agents}, pool, {a: thresholds[a] for a in agents}
        )
        bundle = tuple(sorted(bundle))
        grant(MINIMAL, agent, bundle, bundle_value(spec, valuations[agent], bundle))
    return events, frozenset(agents)
