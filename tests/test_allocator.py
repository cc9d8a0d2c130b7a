import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from fairdiv import (
    Allocation,
    DeskCapError,
    InputError,
    Instance,
    ParseError,
    RunStats,
    TraceEvent,
    Valuation,
    allocate_from_estimates,
    allocate_naive,
    bundle_value,
    capacity,
    explicit_maximal,
    fair_divide,
    footnote_instance,
    iteration_bound,
    mms_exact,
    random_instance,
    serialize_allocation,
    table1_instance,
    verify_allocation,
)
import fairdiv.allocator
from fairdiv.allocator import PHASE, _Pool, _realizations, _Roster
from fairdiv.allocator import _block_table as _BlockTable
from fairdiv.valuation import BlockTable
from fairdiv.valuation import RunningValues as _RunningValues
from support import (
    FAMILIES,
    brute_bundle_value,
    is_feasible,
    iter_suite,
    minimal_set,
    normalized_by_witnesses,
    reference_allocate_from_estimates,
    reference_allocate_naive,
    reference_minimal_set,
    reference_pick,
    replicate_agents,
    round_query_bound,
    table1_labels,
    value_of_subset,
)

ALPHA = Fraction(11, 30)
DELTA = Fraction(1, 16)
UPPER_ALPHA = Fraction(40, 107) + Fraction(1, 10**7)


@pytest.fixture(scope="module")
def footnote2():
    return replicate_agents(footnote_instance(), 2)


@pytest.fixture(scope="module")
def table1():
    return table1_instance(330)


def test_naive_normalized_footnote(footnote2):
    normalized, _ = normalized_by_witnesses(footnote2)
    alloc = allocate_naive(normalized, ALPHA)
    assert not alloc.unallocated_agents
    assert [(e.phase, e.agent, e.bundle) for e in alloc.trace] == [
        (1, 0, (0,)),
        (1, 1, (1,)),
    ]
    assert alloc.trace[0].value == 1
    assert alloc.trace[1].value == Fraction(1, 2)


def test_naive_unreachable_alpha(footnote2):
    alloc = allocate_naive(footnote2, Fraction(100))
    assert alloc.bundles == {}
    assert alloc.unallocated_agents == frozenset({0, 1})


def test_naive_table1_phase_histogram(table1):
    alloc = allocate_naive(table1, UPPER_ALPHA)
    hist = Counter(e.phase for e in alloc.trace)
    assert dict(hist) == {2: 165, 3: 110, 5: 44, 11: 10}
    assert len(alloc.unallocated_agents) == 1
    labels = table1_labels(table1)
    compositions = {2: "AA", 3: "BCC", 5: "DDDDD", 11: "E" * 11}
    for event in alloc.trace:
        assert "".join(sorted(labels[j] for j in event.bundle)) == compositions[event.phase]


def test_naive_desk_cap():
    spec = explicit_maximal(17, [range(17)])
    values = tuple(Fraction(j + 1, 1) for j in range(17))
    inst = Instance(name="big", n=1, spec=spec, valuations=(Valuation._wrap(values),))
    with pytest.raises(DeskCapError):
        allocate_naive(inst, Fraction(1))
    with pytest.raises(InputError, match="max_items must be nonnegative, got -1"):
        allocate_naive(inst, Fraction(1), max_items=-1)
    with pytest.raises(InputError, match="alpha must be positive, got 0"):
        allocate_naive(inst, Fraction(0))
    # pruning admits large instances whose items collapse into few blocks
    allocate_naive(table1_instance(330), UPPER_ALPHA)


def test_naive_node_budget_is_a_desk_cap(footnote2, monkeypatch):
    monkeypatch.setattr(fairdiv.allocator, "NAIVE_NODE_CAP", 2)
    with pytest.raises(DeskCapError, match="node budget"):
        allocate_naive(footnote2, Fraction(1))


def test_minimal_set_spec_states(table1):
    labels = table1_labels(table1)
    vals = {i: table1.valuations[i] for i in range(4)}
    thresholds = {i: UPPER_ALPHA for i in range(4)}
    def_items = [j for j in range(table1.num_items) if labels[j] in "DEF"]
    bundle, agent = minimal_set(table1.spec, vals, def_items, thresholds)
    assert agent == 0
    assert sorted(labels[j] for j in bundle) == ["D"] * 5
    ef_items = [j for j in range(table1.num_items) if labels[j] in "EF"]
    bundle, _ = minimal_set(table1.spec, vals, ef_items, thresholds)
    assert sorted(labels[j] for j in bundle) == ["E"] * 11


def test_minimal_set_singleton_at_threshold():
    spec = explicit_maximal(1, [{0}])
    val = Valuation([Fraction(2, 5)])
    bundle, agent = minimal_set(spec, {3: val}, [0], {3: Fraction(2, 5)})
    assert bundle == frozenset({0})
    assert agent == 3


def test_minimal_set_requires_eligible_agent():
    spec = explicit_maximal(1, [{0}])
    val = Valuation([Fraction(1, 5)])
    assert minimal_set(spec, {0: val}, [0], {0: Fraction(1)}) is None


def test_minimal_set_is_one_minimal():
    for inst in iter_suite(25, base_seed=6000):
        grand = range(inst.num_items)
        vals = {i: inst.valuations[i] for i in range(inst.n)}
        thresholds = {
            i: Fraction(2, 5) * bundle_value(inst.spec, inst.valuations[i], grand)
            for i in range(inst.n)
        }
        if all(t == 0 for t in thresholds.values()):
            continue
        bundle, agent = minimal_set(inst.spec, vals, grand, thresholds)
        value = bundle_value(inst.spec, inst.valuations[agent], bundle)
        assert value >= thresholds[agent]
        for j in sorted(bundle):
            assert (
                bundle_value(inst.spec, inst.valuations[agent], bundle - {j})
                < thresholds[agent]
            )


def test_naive_matches_literal_subset_search():
    """Block-level enumeration replays the raw lexicographic subset scan."""
    for i, inst in enumerate(iter_suite(30, base_seed=6500)):
        grand_values = [
            bundle_value(inst.spec, val, range(inst.num_items))
            for val in inst.valuations
        ]
        alpha = Fraction(1 + (i % 3), 4) * min(grand_values)
        if alpha <= 0:
            continue
        expected_trace, expected_left = reference_allocate_naive(inst, alpha)
        alloc = allocate_naive(inst, alpha)
        got_trace = [(e.phase, e.agent, e.bundle, e.value) for e in alloc.trace]
        assert got_trace == expected_trace
        assert alloc.unallocated_agents == frozenset(expected_left)


def test_minimal_set_matches_literal_scan():
    """Batched block removals replay the one-item-at-a-time scan."""
    for inst in iter_suite(30, base_seed=6600):
        grand = range(inst.num_items)
        vals = {i: inst.valuations[i] for i in range(inst.n)}
        thresholds = {
            i: Fraction(3, 7) * bundle_value(inst.spec, inst.valuations[i], grand)
            for i in range(inst.n)
        }
        if all(t == 0 for t in thresholds.values()):
            continue
        expected = reference_minimal_set(inst.spec, vals, grand, thresholds)
        assert minimal_set(inst.spec, vals, grand, thresholds) == expected


def test_every_fair_divide_round_matches_the_literal_run():
    """Each round of ``fair_divide`` replays through the literal oracle:
    the same events field by field and the same unallocated agents, which
    are the round's stranded agents.  Value range (2, 1) makes multi-item
    blocks, so batched removals and equal-value ties run too; m = n - 1
    gives zero estimates."""
    rounds = 0
    for i in range(150):
        meta = random.Random(31_000 + i)
        n = meta.choice((2, 3, 4))
        m = meta.randint(n - 1, 10)
        value_range = ((8, 4), (2, 1))[i // 3 % 2]
        inst = random_instance(32_000 + i, m, n, FAMILIES[i % 3], value_range)
        stats = RunStats()
        fair_divide(inst, ALPHA, DELTA, stats=stats)
        for mu, stranded in stats.rounds:
            fast = allocate_from_estimates(inst, mu, ALPHA)
            events, unallocated = reference_allocate_from_estimates(inst, mu, ALPHA)
            got = [(e.kind, e.phase, e.agent, e.bundle, e.value, e.threshold) for e in fast.trace]
            assert got == events, (inst.name, mu)
            assert fast.unallocated_agents == unallocated == stranded
        rounds += len(stats.rounds)
    assert rounds > 150


@pytest.mark.parametrize("seed", range(4))
def test_block_value_matches_brute_force_with_size_cap(seed):
    """Block-count evaluation, on the counts and on the counts with some
    of one block's items taken out, equals the best size-s sub-multiset
    of the pool by brute force once the integer sum is divided by the
    group's scale; every call costs exactly one query."""
    rng = random.Random(seed)
    for trial in range(2 * len(FAMILIES)):
        # one agent with values in {1, 2} makes multi-item blocks, so
        # counts exceed one and can overrun a class capacity or the size
        n, value_range = (2, (8, 4)) if trial % 2 else (1, (2, 1))
        family = FAMILIES[trial % len(FAMILIES)]
        inst = random_instance(rng.randrange(10**9), rng.randint(1, 8), n, family, value_range)
        table = _BlockTable(inst.spec, inst.valuations)
        counts = {b: rng.randint(0, len(block)) for b, block in enumerate(table.block_items)}
        nonempty = [b for b, c in counts.items() if c]
        reduced = dict(counts)
        if nonempty:
            taken = rng.choice(nonempty)
            reduced[taken] -= rng.randint(1, counts[taken])
        for query in (counts, reduced):
            pool = [j for b, c in query.items() for j in table.block_items[b][:c]]
            for g in range(table.num_groups):
                val = table.reps[g]
                for size in [None, *range(len(pool) + 1)]:
                    combos = [pool] if size is None else combinations(pool, size)
                    best = max(brute_bundle_value(inst.spec, val.values, c) for c in combos)
                    before = val.query_count
                    scaled = table.value(g, query, size=size)
                    assert Fraction(scaled, table.scale[g]) == best
                    assert val.query_count == before + 1


@pytest.mark.parametrize("family", FAMILIES)
def test_uncapped_block_value_matches_the_fraction_oracle(family):
    """``BlockTable.value`` without a size cap, which touches only the
    multiset's own blocks, equals ``value_of_subset`` on a realization of
    seeded multisets of 1-3 blocks, zero counts included: over-cap
    capacity classes and explicit multisets that no maximal set holds
    whole come up, and each call costs exactly one query."""
    rng = random.Random(f"uncapped-{family}")
    zero_counts = over_cap = uncovered = 0
    for trial in range(80):
        # value range (2, 1) makes multi-item blocks that overrun caps
        n, value_range = (2, (8, 4)) if trial % 2 else (1, (2, 1))
        inst = random_instance(rng.randrange(10**9), rng.randint(1, 14), n, family, value_range)
        spec = inst.spec
        table = _BlockTable(spec, inst.valuations)
        picked = rng.sample(range(table.num_blocks), min(table.num_blocks, rng.randint(1, 3)))
        counts = {b: rng.randint(0, len(table.block_items[b])) for b in picked}
        items = frozenset(j for b, k in counts.items() for j in table.block_items[b][:k])
        for g in range(table.num_groups):
            val = table.reps[g]
            before = val.query_count
            got = Fraction(table.value(g, counts), table.scale[g])
            assert got == value_of_subset(spec, val.values, items)
            assert val.query_count == before + 1
        zero_counts += 0 in counts.values()
        if family == "capacity":
            held = Counter(spec.class_of[j] for j in items)
            over_cap += any(k > spec.caps[c] for c, k in held.items())
        else:
            uncovered += not any(items <= maximal for maximal in spec.maximal_sets)
    assert zero_counts
    assert over_cap or family != "capacity"
    assert uncovered or family != "explicit-antichain"


def test_uncapped_block_value_of_items_in_no_maximal_set():
    """A block that no maximal set holds adds nothing, alone or beside
    blocks that a set does hold."""
    spec = explicit_maximal(4, [{0, 1}, {1, 2}])
    inst = Instance("outside", 1, spec, (Valuation([1, 2, 4, 8]),))
    table = _BlockTable(spec, inst.valuations)
    block_of = {table.block_items[b][0]: b for b in range(table.num_blocks)}
    for items, expected in (({3}, 0), ({0, 3}, 1), ({0, 2, 3}, 4), ({0, 1, 2, 3}, 6)):
        counts = {block_of[j]: 1 for j in items}
        assert table.value(0, counts) == expected * table.scale[0]
        assert value_of_subset(spec, inst.valuations[0].values, frozenset(items)) == expected


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(4))
def test_running_values_match_block_value_oracle(family, seed):
    """Along random add/remove sequences the running state's ``value`` and
    ``without`` equal ``_BlockTable.value`` on the same counts, for every
    group it follows; each ``value`` and ``without`` read charges exactly
    one query, and ``change`` charges none."""
    rng = random.Random(f"{family}-{seed}")
    for trial in range(6):
        # value range (2, 1) makes multi-item blocks that overrun caps
        n, value_range = (rng.randint(2, 3), (8, 4)) if trial % 2 else (1, (2, 1))
        inst = random_instance(rng.randrange(10**9), rng.randint(1, 14), n, family, value_range)
        table = _BlockTable(inst.spec, inst.valuations)
        if not table.num_blocks:
            continue
        groups = sorted(rng.sample(range(table.num_groups), rng.randint(1, table.num_groups)))
        start = {b: rng.randint(0, len(block)) for b, block in enumerate(table.block_items)}
        state = _RunningValues(table, groups, start)
        counts = {b: k for b, k in start.items() if k}

        def queries():
            return sum(val.query_count for val in inst.valuations)

        for _ in range(25):
            b = rng.randrange(table.num_blocks)
            have, room = counts.get(b, 0), len(table.block_items[b])
            k = rng.choice([d for d in range(-have, room - have + 1) if d])
            before = queries()
            state.change(b, k)
            assert queries() == before
            counts[b] = have + k
            if not counts[b]:
                del counts[b]
            assert state.counts == counts
            for g in groups:
                before = queries()
                got = state.value(g)
                assert queries() == before + 1
                got_without = {
                    (c, j): state.without(g, c, j) for c, kc in counts.items() for j in range(1, kc + 1)
                }
                assert queries() == before + 1 + len(got_without)
                assert state.counts == counts
                assert got == table.value(g, counts)
                for (c, j), v in got_without.items():
                    assert v == table.value(g, {**counts, c: counts[c] - j})


def test_group_pick_matches_one_at_a_time_scan():
    """The pick over each group's least-threshold member equals the ratio
    scan over every remaining agent, for positive thresholds and at least
    one positive group value, while agents leave one at a time; groups of
    value 0 stay in play.  After every discard each group's leader is
    its remaining member of least (threshold, index), and the groups in
    play are exactly those with a remaining member."""
    rng = random.Random(11)
    zero_group_picks = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        num_groups = rng.randint(1, 4)
        group_of = [rng.randrange(num_groups) for _ in range(n)]
        scale = [rng.randint(1, 12) for _ in range(num_groups)]
        thresholds = [Fraction(rng.choice((1, 2, 3, 5)), rng.randint(1, 3)) for _ in range(n)]
        remaining = [p for p in range(n) if rng.random() < 0.8] or [0]
        roster = _Roster(group_of, scale, thresholds, remaining)
        while roster:
            groups = roster.groups()
            assert groups == sorted({group_of[p] for p in roster.ascending})
            for g in groups:
                members = [p for p in roster.ascending if group_of[p] == g]
                assert roster.leader(g) == min(members, key=lambda p: (thresholds[p], p))
            group_vals = {g: rng.choice((0, rng.randint(1, 30))) for g in groups}
            group_vals[rng.choice(groups)] = rng.randint(1, 30)
            values = [
                Fraction(group_vals.get(group_of[p], 0), scale[group_of[p]]) for p in range(n)
            ]
            expected = reference_pick(values, thresholds, roster.ascending)
            leaders = sorted(map(roster.leader, groups))
            assert roster.pick(leaders, group_vals) == expected
            zero_group_picks += 0 in group_vals.values()
            roster.discard(rng.choice(roster.ascending))
        assert roster.groups() == []
    assert zero_group_picks >= 100


@pytest.mark.parametrize("spec", [explicit_maximal(3, [{0, 1, 2}]), capacity([0, 0, 0], [3])])
def test_minimal_set_threshold_equal_to_value_is_met(spec):
    """Integer thresholds ceil(t * L) keep the comparison exact: a
    threshold equal to a bundle's value qualifies, one a hair above it
    does not, with denominators that differ within the row."""
    val = Valuation([Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)])
    hair = Fraction(1, 10**12)
    whole = Fraction(1, 3) + Fraction(2, 7) + Fraction(5, 11)
    assert minimal_set(spec, {0: val}, range(3), {0: whole}) == (frozenset({0, 1, 2}), 0)
    assert minimal_set(spec, {0: val}, range(3), {0: whole + hair}) is None
    # the scan tries item 1 (least value) first; dropping it lands
    # exactly on the threshold, so it goes
    rest = Fraction(1, 3) + Fraction(5, 11)
    assert minimal_set(spec, {0: val}, range(3), {0: rest}) == (frozenset({0, 2}), 0)
    assert minimal_set(spec, {0: val}, range(3), {0: rest + hair}) == (frozenset({0, 1, 2}), 0)


def test_batch_stops_before_an_equal_value_front():
    """Block {0, 2} goes first for agent 0, but item 1, of another block of
    the same value, precedes item 2 in the scan order: the one-item scan
    removes 0, then 1, and keeps {2}, so a batch of two off {0, 2} is
    wrong although it changes no group's value."""
    spec = capacity([0, 0, 0], [1])
    vals = {0: Valuation([1, 1, 1]), 1: Valuation([1, 2, 1])}
    thresholds = {0: Fraction(2, 5), 1: Fraction(4, 5)}
    assert minimal_set(spec, vals, range(3), thresholds) == (frozenset({2}), 0)
    assert reference_minimal_set(spec, vals, range(3), thresholds) == (frozenset({2}), 0)


def test_dead_blocks_are_kept_per_picked_agent():
    """Agent 0 is picked first: block {0} fails its test (dead for agent 0)
    and its first removable block {1, 2} goes, which lowers its value
    from 6 to 5.  Agent 1 now has the higher ratio, and for agent 1 item 0
    is worth nothing and removable.  One dead set shared by both agents
    would skip it and keep {0, 3}."""
    spec = explicit_maximal(4, [{0, 1, 2}, {0, 3}])
    vals = {0: Valuation([2, 2, 2, 3]), 1: Valuation([0, 1, 1, 11])}
    thresholds = {0: Fraction(5), 1: Fraction(10)}
    assert reference_minimal_set(spec, vals, range(4), thresholds) == (frozenset({3}), 1)
    assert minimal_set(spec, vals, range(4), thresholds) == (frozenset({3}), 1)


def test_rival_search_walks_past_a_dead_block():
    """Agent 0 values every item 1.  Block {0, 3} goes first; block {1},
    next in the walk with equal value, is not removable; block {2}, after
    it, is, and its front caps the batch at one item.  The literal scan
    removes 0 and then 2; a rival search that stopped at {1} would batch
    0 and 3 off together, since neither group's value changes, and keep
    {1, 2}."""
    spec = capacity([0, 1, 0, 0], [1, 1])
    vals = {0: Valuation([1, 1, 1, 1]), 1: Valuation([1, 0, 2, 1])}
    thresholds = {0: Fraction(2), 1: Fraction(100)}
    assert reference_minimal_set(spec, vals, range(4), thresholds) == (frozenset({1, 3}), 0)
    assert minimal_set(spec, vals, range(4), thresholds) == (frozenset({1, 3}), 0)


def test_scan_reads_a_losing_group_once():
    """Agent 0 wins every pick of the scan: its ratio never falls below
    6/4, while agent 1's is 1 on the whole pool and only falls.  The lazy
    re-pick reads agent 1's group once, in the first step, and trusts
    that stale upper bound afterwards; a scan that re-reads every group
    after each of its five removals charges agent 1 six queries."""
    spec = explicit_maximal(6, [range(6)])
    vals = {0: Valuation([1, 2, 3, 4, 5, 6]), 1: Valuation([1] * 6)}
    thresholds = {0: Fraction(4), 1: Fraction(6)}
    assert minimal_set(spec, vals, range(6), thresholds) == (frozenset({5}), 0)
    assert vals[1].query_count == 1


@pytest.mark.parametrize("seed", range(6))
def test_realizations_match_the_combination_oracle(seed):
    """``_realizations`` against every size-s combination of the pool's
    remaining items: the lexicographically least combination of each
    block multiset, in ascending order, kept when its first item lies
    above the floor.  The pool is checked whole and after each of three
    random front takes."""
    rng = random.Random(seed)
    inst = random_instance(seed, rng.randint(4, 10), 2, FAMILIES[seed % 3], (3, 2))
    table = _BlockTable(inst.spec, inst.valuations)
    pool = _Pool(table)
    block_of = {j: b for b, items in enumerate(table.block_items) for j in items}
    for _ in range(4):
        remaining = sorted(
            j for b, items in enumerate(table.block_items) for j in items[pool.lo[b] : pool.hi[b]]
        )
        for size in range(1, 5):
            least: dict = {}
            for combo in combinations(remaining, size):
                least.setdefault(tuple(sorted(Counter(map(block_of.get, combo)).items())), combo)
            expected = sorted((combo, ms) for ms, combo in least.items())
            for floor in {-1, *remaining[:3], *remaining[-2:]}:
                got = list(_realizations(pool, size, floor, None))
                assert got == [(key, ms) for key, ms in expected if key[0] > floor]
        b = rng.choice([b for b in range(table.num_blocks) if pool.hi[b] > pool.lo[b]])
        pool.take_front(b, rng.randint(1, pool.hi[b] - pool.lo[b]))


def test_scan_queries_stay_within_the_bound(monkeypatch, table1):
    """Each removal scan spends at most G + (G+1)·B + p·(2 + ceil(log2 p) + G)
    queries, for G value groups in play, B blocks and p items in the pool.
    The first step values the pool once per group.  At most G + 1 agents
    can be picked, and each fails a block's test at most once; each step
    tests at most two removable blocks (bstar and its rival), probes the
    batch on the picked group in at most ceil(log2 p) queries, and
    refreshes at most G - 1 stale groups before its pick.  Three
    identical agents (G = 1) at m = 60 make the bound bite: a scan that
    tests every live block at every step spends up to 2.7 times it
    there."""
    scan = fairdiv.allocator._minimal_set_scan
    ratios = []

    def bounded_scan(table, pool, roster):
        g, b, p = len(roster.groups()), len(pool.counts()), pool.total()
        bound = g + (g + 1) * b + p * (2 + (p - 1).bit_length() + g)
        before = sum(rep.query_count for rep in table.reps)
        found = scan(table, pool, roster)
        spent = sum(rep.query_count for rep in table.reps) - before
        assert spent <= bound, (g, b, p, spent, bound)
        ratios.append(spent / bound)
        return found

    monkeypatch.setattr(fairdiv.allocator, "_minimal_set_scan", bounded_scan)
    for family in FAMILIES:
        for seed, m, n in ((0, 12, 4), (1, 24, 5), (2, 40, 6), (3, 60, 8)):
            fair_divide(random_instance(seed, m, n, family), ALPHA, DELTA)
        fair_divide(replicate_agents(random_instance(0, 60, 1, family), 3), ALPHA, DELTA)
    allocate_from_estimates(table1, (Fraction(1),) * table1.n, UPPER_ALPHA)
    assert len(ratios) > 1000
    print(f"worst scan queries/bound over {len(ratios)} scans: {max(ratios):.3f}")


def test_phase_queries_stay_within_the_bound(monkeypatch, table1):
    """A phase with G value groups in play, B blocks in the pool and a
    allocations spends at most G·(1 + a) + G·C(B+s-1, s) queries: a
    size-capped existence check per group before the first allocation
    and at most one after each, and at most one read per (size-s
    multiset, group).  The phases' memo lives as long as the block
    table, so no (multiset, group) value is read twice within a
    ``fair_divide`` run, nor within one ``allocate_from_estimates`` or
    ``allocate_naive`` call.  ``allocate_naive``'s gate, outside the
    phases, values the whole pool only after a size that allocated, so
    none of its (pool, group) reads repeats within one call either."""
    run_phase = fairdiv.allocator._run_phase
    block_value = BlockTable.value
    reads = []
    gate_reads = []
    ratios = []
    in_phase = [False]

    def recorded_value(self, group, counts, size=None):
        if size is None:
            read = (group, tuple(sorted((b, k) for b, k in counts.items() if k)))
            (reads if in_phase[0] else gate_reads).append(read)
        return block_value(self, group, counts, size)

    def bounded_phase(table, pool, size, roster, trace, budget):
        g, b = len(roster.groups()), len(pool.counts())
        events = len(trace)
        before = sum(rep.query_count for rep in table.reps)
        in_phase[0] = True
        run_phase(table, pool, size, roster, trace, budget)
        in_phase[0] = False
        spent = sum(rep.query_count for rep in table.reps) - before
        bound = g * (1 + len(trace) - events) + g * comb(b + size - 1, size)
        assert spent <= bound, (g, b, size, spent, bound)
        assert len(set(reads)) == len(reads)
        if spent:
            ratios.append(spent / bound)

    monkeypatch.setattr(BlockTable, "value", recorded_value)
    monkeypatch.setattr(fairdiv.allocator, "_run_phase", bounded_phase)
    for family in FAMILIES:
        for seed, m, n in ((0, 12, 4), (1, 16, 4), (2, 24, 5), (3, 40, 6)):
            reads.clear()
            fair_divide(random_instance(seed, m, n, family), ALPHA, DELTA)
    reads.clear()
    allocate_from_estimates(table1, (Fraction(1),) * table1.n, UPPER_ALPHA)
    reads.clear()
    gate_reads.clear()
    allocate_naive(table1, UPPER_ALPHA)
    assert len(gate_reads) > 1
    assert len(set(gate_reads)) == len(gate_reads)
    assert len(ratios) > 500
    print(f"worst phase queries/bound over {len(ratios)} phases: {max(ratios):.3f}")


def test_warmed_table_replays_a_fresh_one(monkeypatch):
    """Every round of a ``fair_divide`` run reads a block table whose
    phase memo earlier rounds have filled; rerun on a fresh table, with
    an empty memo, the round gives the same trace and stranded agents."""
    allocate = fairdiv.allocator.allocate_from_estimates
    rounds = []

    def replayed(instance, mu, alpha, *, _table=None):
        rounds.append(bool(_table.phase_memo))
        warmed = allocate(instance, mu, alpha, _table=_table)
        fresh = allocate(instance, mu, alpha)
        assert warmed.trace_records() == fresh.trace_records()
        assert warmed.unallocated_agents == fresh.unallocated_agents
        return warmed

    monkeypatch.setattr(fairdiv.allocator, "allocate_from_estimates", replayed)
    driver_configs = [
        ("capacity", 12, 3),
        ("free", 12, 3),
        ("explicit-antichain", 12, 3),
        ("capacity", 24, 4),
        ("free", 24, 4),
        ("explicit-antichain", 16, 4),
    ]
    instances = [random_instance(0, m, n, family) for family, m, n in driver_configs]
    for inst in [*iter_suite(25, base_seed=12_000), *instances]:
        fair_divide(inst, ALPHA, DELTA)
    assert len(rounds) > 100 and sum(rounds) > 50


def test_estimates_footnote(footnote2):
    mu = (Fraction(6), Fraction(6))
    alloc = allocate_from_estimates(footnote2, mu, ALPHA)
    assert [(e.phase, e.agent, e.bundle, e.value) for e in alloc.trace] == [
        (1, 0, (0,), Fraction(3)),
        (2, 1, (1, 2), Fraction(4)),
    ]
    assert alloc.trace[0].threshold == Fraction(11, 5)
    assert not alloc.unallocated_agents


def test_estimates_no_items():
    spec = capacity([], [])
    inst = Instance(
        name="empty",
        n=2,
        spec=spec,
        valuations=(Valuation([]), Valuation([])),
    )
    alloc = allocate_from_estimates(inst, (Fraction(1), Fraction(1)), ALPHA)
    assert alloc.unallocated_agents == frozenset({0, 1})
    assert alloc.trace == ()


@pytest.mark.parametrize(
    "mu, message",
    [
        ((Fraction(1),), "has 1 entries, expected 2"),
        ((Fraction(1), Fraction(-1)), "agent 1 is negative"),
    ],
    ids=["wrong-length", "negative"],
)
def test_estimates_reject_bad_estimate_vectors(footnote2, mu, message):
    with pytest.raises(InputError, match=message):
        allocate_from_estimates(footnote2, mu, ALPHA)


def test_estimates_thresholds_vary_within_identical_agents(footnote2):
    """Identical valuations with different estimates qualify independently.
    With the shared row (2, 3, 3), item 0 meets only agent 1's need, so
    the pick steps past agent 0, the group's least index."""
    mu = (Fraction(6), Fraction(3))
    alloc = allocate_from_estimates(footnote2, mu, ALPHA)
    assert [(e.phase, e.agent, e.bundle, e.threshold) for e in alloc.trace] == [
        (1, 0, (0,), Fraction(11, 5)),
        (1, 1, (1,), Fraction(11, 10)),
    ]
    row = Valuation([2, 3, 3])
    shared = Instance("shared", 2, footnote2.spec, (row, row))
    alloc = allocate_from_estimates(shared, mu, ALPHA)
    assert [(e.agent, e.bundle, e.threshold) for e in alloc.trace] == [
        (1, (0,), Fraction(11, 10)),
        (0, (1,), Fraction(11, 5)),
    ]
    events, unallocated = reference_allocate_from_estimates(shared, mu, ALPHA)
    assert [(e.kind, e.phase, e.agent, e.bundle, e.value, e.threshold) for e in alloc.trace] == events
    assert alloc.unallocated_agents == unallocated


def test_estimates_zero_mu_grants_empty_bundle(footnote2):
    mu = (Fraction(0), Fraction(6))
    alloc = allocate_from_estimates(footnote2, mu, ALPHA)
    assert alloc.bundles[0] == frozenset()
    assert alloc.trace[0].kind == "zero-estimate"
    assert alloc.trace[0].phase == 0
    assert 1 not in alloc.unallocated_agents


def test_estimates_matches_naive_on_adversarial_instance(table1):
    naive = allocate_naive(table1, UPPER_ALPHA)
    mu = (Fraction(1),) * table1.n
    fast = allocate_from_estimates(table1, mu, UPPER_ALPHA)
    assert set(naive.bundles) == set(fast.bundles)
    assert naive.unallocated_agents == fast.unallocated_agents
    assert len(fast.bundles) == 329


def test_table1_query_counts_are_pinned(table1):
    """The cost model on Table 1 at n=330, pinned so that any change to
    either count is a deliberate edit.  The minimal-bundle tail values
    the pool once per bundle, in the removal scan's first step; the
    reference path keeps its lazy eligibility check, which runs before
    the first size and after each size that allocated, and stops at the
    first group that qualifies."""

    def queries(run):
        before = sum(val.query_count for val in table1.valuations)
        run()
        return sum(val.query_count for val in table1.valuations) - before

    mu = (Fraction(1),) * table1.n
    assert queries(lambda: allocate_from_estimates(table1, mu, UPPER_ALPHA)) == 4321
    assert queries(lambda: allocate_naive(table1, UPPER_ALPHA)) == 29


def test_table1_event_values_match_both_item_set_evaluators(table1):
    """Block-count values in the trace agree with the integer item-set
    evaluator and the ``Fraction`` oracle on 14190 items, far beyond
    what a brute-force test can reach."""
    mu = (Fraction(1),) * table1.n
    alloc = allocate_from_estimates(table1, mu, UPPER_ALPHA)
    assert len(alloc.trace) == 329
    for event in alloc.trace:
        val = table1.valuations[event.agent]
        assert event.value == bundle_value(table1.spec, val, event.bundle)
        assert event.value == value_of_subset(table1.spec, val.values, frozenset(event.bundle))


@pytest.mark.parametrize(
    "family, m, n, queries, digest",
    [
        (
            "capacity",
            60,
            8,
            14777,
            "720bd47f6d84dd90af8d07fa682f5a858edde4850a2682bf91fe475d76b29ee8",
        ),
        (
            "explicit-antichain",
            60,
            8,
            14241,
            "624e70b5e304ef010c3f66b9af7b337e6a8d8fb9ac65e39c6e3a7b8748f18ca7",
        ),
        (
            "capacity",
            120,
            12,
            67857,
            "d7813aae1d992c67178cd449c7919331336b1318b1885968f618524864725e23",
        ),
        (
            "explicit-antichain",
            16,
            4,
            2631,
            "76c46b6af5667ca11c81138eb7edf9015b46d4ee4689920a9e6fa3c0e06111a8",
        ),
    ],
    ids=["capacity-m60", "explicit-antichain-m60", "capacity-m120", "explicit-antichain-m16"],
)
def test_fair_divide_cost_model_is_pinned(family, m, n, queries, digest):
    """The queries and the trace of runs well beyond the benchmark's
    m <= 24, where the removal scan dominates, pinned so that any change
    to either is a deliberate edit.  At m=120 capacity classes hold many
    blocks, so removability tests walk over-cap classes whose removed
    block sits anywhere in the class's greedy order.  The m=16 run is a
    ``driver`` config whose many rounds are phase-bound, so its count
    pins the phase memo's reuse across rounds."""
    inst = random_instance(0, m, n, family)
    alloc, _ = fair_divide(inst, ALPHA, DELTA)
    assert sum(val.query_count for val in inst.valuations) == queries
    assert hashlib.sha256("\n".join(alloc.trace_records()).encode()).hexdigest() == digest


def test_estimates_table1_at_n3300():
    """Table 1 at ten times the base multiple strands exactly ten agents."""
    inst = table1_instance(3300)
    alloc = allocate_from_estimates(inst, (Fraction(1),) * inst.n, UPPER_ALPHA)
    assert len(alloc.unallocated_agents) == 10
    phase = Counter(e.phase for e in alloc.trace if e.kind == "phase")
    minimal = Counter(e.phase for e in alloc.trace if e.kind == "minimal")
    assert dict(phase) == {2: 1650, 3: 1100}
    assert dict(minimal) == {5: 440, 11: 100}


def test_estimates_matches_naive_when_all_bundles_small():
    """With uniform unit estimates, runs that finish within sizes 1..3 in
    the reference path produce byte-identical traces in the fast path."""
    compared = 0
    for inst in iter_suite(60, base_seed=7000):
        grand_values = [
            bundle_value(inst.spec, val, range(inst.num_items))
            for val in inst.valuations
        ]
        alpha = Fraction(2, 5) * min(grand_values)
        if alpha <= 0:
            continue
        naive = allocate_naive(inst, alpha)
        if any(e.phase > 3 for e in naive.trace):
            continue
        mu = (Fraction(1),) * inst.n
        fast = allocate_from_estimates(inst, mu, alpha)
        assert fast.trace == naive.trace
        assert fast.unallocated_agents == naive.unallocated_agents
        compared += 1
    assert compared >= 20


def test_trace_invariants():
    """Traced bundles are disjoint, feasible, and meet their thresholds.

    Feasibility is a consequence, not a precondition: an infeasible
    bundle always contains either a removable item or a smaller subset
    that would have qualified in an earlier phase.
    """
    for inst in iter_suite(20, base_seed=7500):
        alloc, _ = fair_divide(inst, ALPHA, DELTA)
        seen: set[int] = set()
        for event in alloc.trace:
            assert event.value >= event.threshold
            assert not seen & set(event.bundle)
            seen |= set(event.bundle)
            assert is_feasible(inst.spec, event.bundle)


def test_naive_phases_non_decreasing():
    for inst in iter_suite(20, base_seed=7600):
        alloc = allocate_naive(inst, Fraction(3, 2))
        phases = [e.phase for e in alloc.trace]
        assert phases == sorted(phases)


def test_naive_phase_soundness_replay():
    """When a size-tau bundle is allocated, no size-(tau-1) subset of the
    then-remaining items met any remaining agent's threshold."""
    checked = 0
    for inst in iter_suite(25, base_seed=7700):
        grand_values = [
            bundle_value(inst.spec, val, range(inst.num_items))
            for val in inst.valuations
        ]
        alpha = Fraction(1, 2) * min(grand_values)
        if alpha <= 0:
            continue
        alloc = allocate_naive(inst, alpha)
        items = set(range(inst.num_items))
        agents = set(range(inst.n))
        for event in alloc.trace:
            if event.phase >= 2:
                for combo in combinations(sorted(items), event.phase - 1):
                    for agent in sorted(agents):
                        assert (
                            bundle_value(inst.spec, inst.valuations[agent], combo)
                            < alpha
                        )
                        checked += 1
            items -= set(event.bundle)
            agents.discard(event.agent)
    assert checked > 0


def test_fair_divide_footnote(footnote2):
    stats = RunStats()
    alloc, estimates = fair_divide(footnote2, ALPHA, DELTA, stats=stats)
    assert len(stats.rounds) == 1
    assert alloc.bundles == {0: frozenset({0}), 1: frozenset({1, 2})}
    assert estimates == (Fraction(6), Fraction(6))
    floor = (1 - DELTA) * ALPHA * 3  # exact share is 3 for both agents
    assert floor == Fraction(33, 32)
    for agent, bundle in alloc.bundles.items():
        assert bundle_value(footnote2.spec, footnote2.valuations[agent], bundle) >= floor


def test_fair_divide_single_agent_single_item():
    spec = explicit_maximal(1, [{0}])
    inst = Instance(name="one", n=1, spec=spec, valuations=(Valuation([Fraction(7, 2)]),))
    alloc, estimates = fair_divide(inst, ALPHA, DELTA)
    assert alloc.bundles == {0: frozenset({0})}
    assert estimates == (Fraction(7, 2),)


def test_fair_divide_all_zero_values():
    spec = explicit_maximal(2, [{0, 1}])
    inst = Instance(
        name="zeros",
        n=2,
        spec=spec,
        valuations=(Valuation([0, 0]), Valuation([0, 0])),
    )
    alloc, estimates = fair_divide(inst, ALPHA, DELTA)
    assert estimates == (Fraction(0), Fraction(0))
    assert alloc.bundles == {0: frozenset(), 1: frozenset()}
    assert not alloc.unallocated_agents


@pytest.mark.parametrize(
    "instance, calls",
    [
        (replicate_agents(footnote_instance(), 4), 1),
        (random_instance(5, m=6, n=3, family="capacity"), 3),
    ],
    ids=["shared-row", "own-rows"],
)
def test_fair_divide_bounds_each_value_row_once(monkeypatch, instance, calls):
    """Agents sharing one value row share its starting estimate, which is
    still the upper end of each agent's ``mms_bounds(spec, val, n)``."""
    bounds = fairdiv.allocator.mms_bounds
    seen = []
    monkeypatch.setattr(
        fairdiv.allocator,
        "mms_bounds",
        lambda spec, val, n: seen.append(val) or bounds(spec, val, n),
    )
    stats = RunStats()
    fair_divide(instance, ALPHA, DELTA, stats=stats)
    assert len(seen) == calls
    uppers = tuple(bounds(instance.spec, val, instance.n)[1] for val in instance.valuations)
    assert stats.rounds[0][0] == uppers


def test_fair_divide_validates_delta(footnote2):
    with pytest.raises(InputError, match="delta"):
        fair_divide(footnote2, ALPHA, Fraction(0))
    with pytest.raises(InputError, match="delta"):
        fair_divide(footnote2, ALPHA, Fraction(1))


def test_fair_divide_guarantee_small_suite():
    for inst in iter_suite(30, base_seed=8000):
        alloc, _ = fair_divide(inst, ALPHA, DELTA)
        assert not alloc.unallocated_agents
        for agent in range(inst.n):
            exact = mms_exact(inst.spec, inst.valuations[agent], inst.n)
            floor = (1 - DELTA) * ALPHA * exact.value
            got = bundle_value(inst.spec, inst.valuations[agent], alloc.bundles[agent])
            assert got >= floor


def test_fair_divide_contrapositive_and_estimate_shrink():
    """Whoever leaves a round unallocated had overestimated its share, and
    each shrink multiplies by exactly (1 - delta)."""
    shrink = 1 - DELTA
    for inst in iter_suite(25, base_seed=9000):
        stats = RunStats()
        fair_divide(inst, ALPHA, DELTA, stats=stats)
        exact = [
            mms_exact(inst.spec, inst.valuations[i], inst.n).value
            for i in range(inst.n)
        ]
        for (mu, unallocated), later in zip(stats.rounds, stats.rounds[1:] + [None]):
            for agent in sorted(unallocated):
                assert mu[agent] > exact[agent]
            if later is not None:
                next_mu = later[0]
                for agent in range(inst.n):
                    expected = mu[agent] * shrink if agent in unallocated else mu[agent]
                    assert next_mu[agent] == expected


def test_fair_divide_iteration_and_query_budget(monkeypatch, table1):
    """Every ``fair_divide`` round, and Table 1's one round at n=330, spends
    at most ``round_query_bound`` queries; the runs stay within the proven
    round bound."""
    run_round = fairdiv.allocator.allocate_from_estimates
    ratios = []

    def bounded_round(instance, mu, alpha, **kwargs):
        bound = round_query_bound(instance)
        before = sum(val.query_count for val in instance.valuations)
        allocation = run_round(instance, mu, alpha, **kwargs)
        spent = sum(val.query_count for val in instance.valuations) - before
        assert spent <= bound, (instance.name, spent, bound)
        ratios.append(spent / bound)
        return allocation

    monkeypatch.setattr(fairdiv.allocator, "allocate_from_estimates", bounded_round)
    for inst in iter_suite(25, base_seed=10_000):
        stats = RunStats()
        fair_divide(inst, ALPHA, DELTA, stats=stats)
        assert len(stats.rounds) <= iteration_bound(inst.n, inst.num_items, DELTA)
    bounded_round(table1, (Fraction(1),) * table1.n, UPPER_ALPHA)
    assert len(ratios) > 25
    print(f"worst queries/round bound: {max(ratios):.3f}")


def test_run_stats_count_each_rounds_queries(table1):
    """``RunStats.queries`` has one entry per round; the entries add up to
    the run's whole query count, and each is within
    ``round_query_bound``."""
    for inst in [*iter_suite(12, base_seed=10_500), random_instance(0, 24, 5, "capacity")]:
        stats = RunStats()
        fair_divide(inst, ALPHA, DELTA, stats=stats)
        assert len(stats.queries) == len(stats.rounds)
        assert sum(stats.queries) == sum(val.query_count for val in inst.valuations)
        assert max(stats.queries) <= round_query_bound(inst)


def test_iteration_bound_values():
    assert iteration_bound(1, 1, DELTA) == 1
    # (15/16)^k <= 1/8 first holds at k = 33
    assert iteration_bound(2, 8, DELTA) == 2 * 33 + 1


def test_determinism_byte_identical():
    for inst in iter_suite(10, base_seed=11_000):
        runs = []
        for _ in range(2):
            alloc, _ = fair_divide(inst, ALPHA, DELTA)
            runs.append(
                serialize_allocation(alloc, alpha=ALPHA)
                + "\n".join(alloc.trace_records())
            )
        assert runs[0] == runs[1]


def test_verify_allocation_passes_on_driver_output(footnote2):
    alloc, estimates = fair_divide(footnote2, ALPHA, DELTA)
    floors = {
        agent: (1 - DELTA) * ALPHA * mms_exact(footnote2.spec, footnote2.valuations[agent], 2).value
        for agent in alloc.bundles
    }
    report = verify_allocation(footnote2, alloc, floors)
    assert report.ok


def test_verify_allocation_reports_overlap(footnote2):
    alloc, _ = fair_divide(footnote2, ALPHA, DELTA)
    bundles = dict(alloc.bundles)
    grown = tuple(sorted(bundles[1] | bundles[0]))
    trace = tuple(
        replace(event, bundle=grown) if event.agent == 1 else event for event in alloc.trace
    )
    bad = Allocation(trace, alloc.unallocated_agents)
    report = verify_allocation(footnote2, bad, {})
    assert any(v.kind == "overlap" for v in report.violations)


def test_verify_allocation_reports_floor_violation(footnote2):
    alloc, _ = fair_divide(footnote2, ALPHA, DELTA)
    floors = {agent: Fraction(1000) for agent in alloc.bundles}
    report = verify_allocation(footnote2, alloc, floors)
    kinds = [v.kind for v in report.violations]
    assert kinds.count("below-floor") == len(alloc.bundles)


def test_verify_allocation_reports_unknown_agents_and_items(footnote2):
    """A hand-built allocation naming item 7 of 3 and agent 5 of 2 does
    not fit the instance: the first misfit is a located ParseError."""
    bad = Allocation(
        (
            TraceEvent(PHASE, 0, (0, 7), Fraction(3), Fraction(3)),
            TraceEvent(PHASE, 5, (1,), Fraction(2), Fraction(2)),
        ),
        frozenset({1}),
    )
    with pytest.raises(ParseError) as info:
        verify_allocation(footnote2, bad, {0: Fraction(3)})
    assert str(info.value) == "events[0].bundle: items [7] outside [0, 3)"


def test_verify_allocation_checks_floors_of_stranded_agents(footnote2):
    """An agent without an event holds the empty bundle: worth 0, valued
    without a query, and below any positive floor."""
    alloc, _ = fair_divide(footnote2, ALPHA, DELTA)
    stranded = Allocation(
        tuple(event for event in alloc.trace if event.agent != 1),
        alloc.unallocated_agents | {1},
    )
    before = [val.query_count for val in footnote2.valuations]
    report = verify_allocation(footnote2, stranded, {0: Fraction(0), 1: Fraction(1, 2)})
    assert [(v.kind, v.agent, v.message) for v in report.violations] == [
        ("below-floor", 1, "agent 1 bundle value 0/1 below floor 1/2")
    ]
    after = [val.query_count for val in footnote2.valuations]
    assert [a - b for a, b in zip(after, before)] == [1, 0]
    assert verify_allocation(footnote2, stranded, {1: Fraction(0)}).ok
    with pytest.raises(InputError, match=r"floors for agents \[2\] outside \[0, 2\)"):
        verify_allocation(footnote2, alloc, {2: Fraction(0)})
