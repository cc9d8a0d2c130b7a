"""Phase-based allocation procedures.

``allocate_naive`` is the reference path: for bundle sizes 1..m it
repeatedly hands the first qualifying size-tau set to the first
qualifying agent.  ``allocate_from_estimates`` runs sizes 1..3 the same
way against per-agent thresholds alpha * mu_i, then repeatedly strips a
1-minimal qualifying bundle out of the remaining pool until no remaining
agent values the pool at its threshold.  That removal scan
(``_minimal_set_scan``) is the one minimal-bundle path; ``minimal_set``
runs it once on a given item set.
``fair_divide`` drives it with shrinking share estimates mu, multiplying
the estimate of every unallocated agent by (1 - delta) between rounds.

Every choice point follows one of three fixed orders, so equal inputs
give identical traces:

* subsets: lexicographic order of their sorted item indices;
* agents: ascending index;
* removal scans: ascending (item value for the chosen agent, item index).

All searches run over item-equivalence blocks, which collapses
symmetric instances to small multiset enumerations while preserving the
raw-subset tie-break order exactly (the first qualifying subset is the
lexicographically smallest realization over qualifying multisets).
This module never looks at how a set system is represented, and keeps
no query accounting: every valuation query values one multiset of block
counts for one value group through ``valuation``'s block-count kernel,
which charges each value it returns as one query on that group's
representative.  The phases' size-capped existence check and
``allocate_naive``'s per-size gate value from scratch with
``BlockTable.value``.  The phase enumeration and the removal scan change
their multiset one block at a time and read a ``RunningValues`` state,
whose reads are charged like from-scratch values, so the query counts
are those of valuing every multiset from scratch.

The kernel computes in integers.  Agents sharing one value row form a
value group g, whose row is scaled by L_g, the lcm of the row's
denominators, so every bundle value is an integer sum S.  Each run
converts an agent's threshold t once to ceil(t * L_g); S meets t exactly
when S >= ceil(t * L_g), because S is an integer.  A value becomes the
fraction S / L_g only where it leaves the search: in trace events and in
the minimal-set scan's result.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import DeskCapError, FairdivError, InputError, ParseError
from .mms import mms_bounds
from .rationals import format_rational
from .setsystem import SetSystemSpec, coerce_items, equivalence_classes
from .valuation import BlockTable, RunningValues, Valuation, bundle_value

if TYPE_CHECKING:
    from .instances import Instance

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_NAIVE_CAP = 16
NAIVE_NODE_CAP = 2_000_000
QUERY_BUDGET_CONSTANT = 8

PHASE = "phase"
MINIMAL = "minimal"
ZERO_ESTIMATE = "zero-estimate"


@dataclass(frozen=True)
class TraceEvent:
    """One allocation: recipient, bundle, value, threshold.

    ``kind`` distinguishes fixed-size phase allocations, minimal-set
    allocations from the grouped tail, and the empty bundles granted to
    agents whose estimate is zero.
    """

    kind: str
    agent: int
    bundle: tuple[int, ...]
    value: Fraction
    threshold: Fraction

    @property
    def phase(self) -> int:
        """The bundle's cardinality: the phase size that allocated it, the
        size of a minimal bundle, or 0 for a zero-estimate grant."""
        return len(self.bundle)

    def record(self) -> str:
        ids = ",".join(str(j) for j in self.bundle)
        return (
            f"phase={self.phase} agent={self.agent} bundle=[{ids}] "
            f"value={format_rational(self.value)} threshold={format_rational(self.threshold)}"
        )


@dataclass(frozen=True)
class Allocation:
    """The ordered trace of allocations plus the agents left without one."""

    trace: tuple[TraceEvent, ...]
    unallocated_agents: frozenset[int]

    @cached_property
    def bundles(self) -> dict[int, frozenset[int]]:
        """Each traced agent's bundle, read off its event."""
        return {event.agent: frozenset(event.bundle) for event in self.trace}

    def trace_records(self) -> list[str]:
        return [event.record() for event in self.trace]


@dataclass(frozen=True)
class EstimateVector:
    """Per-agent share estimates; entries only ever shrink by (1 - delta)."""

    mu: tuple[Fraction, ...]


@dataclass
class RunStats:
    """Optional instrumentation collected by fair_divide."""

    rounds: list[tuple[tuple[Fraction, ...], frozenset[int]]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.rounds)


def check_parameters(
    alpha: Fraction | None = None,
    delta: Fraction | None = None,
    max_items: int | None = None,
) -> None:
    """Reject alpha <= 0, delta outside (0, 1) and max_items < 0; every
    entry point that takes one of these parameters checks it here."""
    if alpha is not None and alpha <= 0:
        raise InputError(f"alpha must be positive, got {alpha}")
    if delta is not None and not 0 < delta < 1:
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    if max_items is not None and max_items < 0:
        raise InputError(f"max_items must be nonnegative, got {max_items}")


def _block_table(
    spec: SetSystemSpec, valuations: Sequence[Valuation], items: frozenset[int] | None = None
) -> BlockTable:
    """The block-count table of ``valuations`` over the item-equivalence
    blocks of ``spec``, cut down to ``items`` when given.  The table
    depends only on the set system and the valuations, so one table
    serves every round of a ``fair_divide`` run."""
    blocks = equivalence_classes(spec, [val.values for val in valuations])
    if items is not None:
        blocks = tuple(b & items for b in blocks)
    return BlockTable(spec, valuations, blocks)


class _Pool:
    """Remaining items per block as contiguous windows of the sorted ids.

    Phase allocations consume the front of a window (lexicographically
    smallest realization); minimal-set allocations consume the back
    (survivors of a front-first removal scan).  Windows therefore stay
    contiguous for the whole run.
    """

    def __init__(self, table: BlockTable):
        self.table = table
        self.lo = [0] * table.num_blocks
        self.hi = [len(block) for block in table.block_items]

    def count(self, b: int) -> int:
        return self.hi[b] - self.lo[b]

    def counts(self) -> dict[int, int]:
        return {
            b: self.hi[b] - self.lo[b]
            for b in range(self.table.num_blocks)
            if self.hi[b] > self.lo[b]
        }

    def total(self) -> int:
        return sum(self.hi) - sum(self.lo)

    def front(self, b: int, k: int) -> tuple[int, ...]:
        return self.table.block_items[b][self.lo[b] : self.lo[b] + k]

    def take_front(self, b: int, k: int) -> None:
        self.lo[b] += k

    def take_back(self, b: int, k: int) -> tuple[int, ...]:
        items = self.table.block_items[b][self.hi[b] - k : self.hi[b]]
        self.hi[b] -= k
        return items


class _Roster:
    """The remaining agents of one run, with thresholds in group scale.

    ``need[pos]`` is ceil(t * L_g) for the agent's threshold t and its
    group's scale L_g: a scaled group value S meets t exactly when
    S >= need[pos].  ``weight[pos]`` holds t * L_g exactly, as a
    (numerator, denominator) pair, for the ratio test in ``pick``.

    Agents only ever leave.  ``ascending`` lists the remaining positions
    in index order.  Each group keeps its members in ascending
    (threshold, index) order behind a head pointer that skips departed
    agents, so the group's leader costs amortized O(1).
    """

    def __init__(
        self,
        group_of: Sequence[int],
        scale: Sequence[int],
        thresholds: Sequence[Fraction],
        remaining: Iterable[int],
    ):
        self.group_of = group_of
        self.thresholds = thresholds
        self.need: list[int] = []
        self.weight: list[tuple[int, int]] = []
        for pos, t in enumerate(thresholds):
            scaled = t.numerator * scale[group_of[pos]]
            self.need.append(-(-scaled // t.denominator))
            self.weight.append((scaled, t.denominator))
        self.ascending = sorted(remaining)
        self._alive = set(self.ascending)
        members: list[list[int]] = [[] for _ in scale]
        for pos in self.ascending:
            members[group_of[pos]].append(pos)
        self._by_threshold = [
            sorted(group, key=lambda p: (thresholds[p], p)) for group in members
        ]
        self._head = [0] * len(scale)

    def __bool__(self) -> bool:
        return bool(self.ascending)

    def __contains__(self, pos: int) -> bool:
        return pos in self._alive

    def discard(self, pos: int) -> None:
        self._alive.remove(pos)
        del self.ascending[bisect_left(self.ascending, pos)]

    def leader(self, g: int) -> int:
        """Group g's remaining member of least (threshold, index), or -1."""
        order = self._by_threshold[g]
        i = self._head[g]
        while i < len(order) and order[i] not in self._alive:
            i += 1
        self._head[g] = i
        return order[i] if i < len(order) else -1

    def groups(self) -> list[int]:
        """Groups with a remaining member, ascending."""
        return [g for g in range(len(self._head)) if self.leader(g) >= 0]

    def any_meets(self, group_vals: Mapping[int, int]) -> bool:
        """Whether some remaining agent's group value meets its threshold;
        a group's leader has the group's least threshold."""
        return any(s >= self.need[self.leader(g)] for g, s in group_vals.items())

    def pick(self, group_vals: Mapping[int, int]) -> int:
        """The agent with the highest value-to-threshold ratio, ties by index.

        ``group_vals`` maps every group in play to its scaled value.  The
        result is that of a scan over all remaining agents in ascending
        index that keeps its current pick unless a later agent's ratio is
        strictly greater, compared by cross-multiplication: a zero
        threshold reads as an infinite ratio, and an agent with value 0
        and threshold 0 neither displaces nor is displaced.  That scan can
        only end on the first remaining agent or on some group's leader,
        since a group's members share one value and its leader has the
        group's best ratio.  A group of value 0 gives each member ratio 0
        or the (0, 0) standstill; it can decide the pick only when every
        ratio is 0, and then the scan keeps the first agent.  So the scan
        runs over at most #groups + 1 candidates, in integers:
        S1 / t1 > S2 / t2 reads S1 * (t2 L2) > S2 * (t1 L1), the same test
        scaled by L1 * L2 > 0.
        """
        candidates = sorted({self.ascending[0], *map(self.leader, group_vals)})
        best = candidates[0]
        best_s = group_vals[self.group_of[best]]
        for pos in candidates[1:]:
            s = group_vals[self.group_of[pos]]
            num, den = self.weight[pos]
            best_num, best_den = self.weight[best]
            if s * best_num * den > best_s * num * best_den:
                best, best_s = pos, s
        return best


def _run_phase(
    table: BlockTable,
    pool: _Pool,
    size: int,
    roster: _Roster,
    trace: list[TraceEvent],
    budget: list[int] | None,
) -> None:
    """Repeatedly allocate the first qualifying size-``size`` bundle,
    appending one trace event per allocation and discarding its agent
    from ``roster``.

    One enumeration pass computes the value of every realizable multiset
    per group; no multiset repeats within a phase, so each value is
    queried once.  The depth-first enumeration adds and removes one
    block's items at a time in a ``RunningValues`` state, and each
    multiset it reaches reads every group's value from that state, which
    charges one query per group.  The existence check before the
    enumeration is a size-capped ``BlockTable.value`` call per group.
    Within the phase, values and thresholds never change
    and removals only shrink the pool, so a multiset that failed to
    qualify can never start qualifying; the allocation loop just re-picks
    the lexicographically smallest realization among surviving
    candidates.  Each candidate keeps its per-group values for the trace
    event and lists its qualifying agents in descending index, so
    departed agents pop off the end and the first remaining one is last.
    """
    if not roster or pool.total() < size:
        return
    counts0 = pool.counts()
    groups = roster.groups()

    # Existence short-circuit: skip the enumeration when even the best
    # size-`size` bundle misses every remaining agent's threshold.
    if not roster.any_meets({g: table.value(g, counts0, size=size) for g in groups}):
        return

    avail = sorted(counts0)
    suffix = [0] * (len(avail) + 1)
    for i in range(len(avail) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + counts0[avail[i]]

    descending = roster.ascending[::-1]
    Candidate = tuple[tuple[tuple[int, int], ...], list[int], dict[int, int]]
    candidates: list[Candidate] = []
    chosen: list[tuple[int, int]] = []
    state = RunningValues(table, groups, {})

    def emit() -> None:
        vals = {g: state.value(g) for g in groups}
        quals = [
            pos for pos in descending if vals[table.group_of[pos]] >= roster.need[pos]
        ]
        if quals:
            candidates.append((tuple(chosen), quals, vals))

    def enumerate_multisets(i: int, left: int) -> None:
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise DeskCapError("subset enumeration exceeded the node budget")
        if left == 0:
            emit()
            return
        if i == len(avail) or suffix[i] < left:
            return
        b = avail[i]
        top = min(counts0[b], left)
        # k = top, ..., 1 items of b, then none: one step down each time
        if top:
            state.change(b, top)
        for k in range(top, 0, -1):
            chosen.append((b, k))
            enumerate_multisets(i + 1, left - k)
            chosen.pop()
            state.change(b, -1)
        enumerate_multisets(i + 1, left)

    enumerate_multisets(0, size)

    while candidates:
        alive: list[Candidate] = []
        best_key: tuple[int, ...] | None = None
        best: Candidate | None = None
        for candidate in candidates:
            ms, quals, _vals = candidate
            if any(pool.count(b) < k for b, k in ms):
                continue
            while quals and quals[-1] not in roster:
                quals.pop()
            if not quals:
                continue
            alive.append(candidate)
            realization: list[int] = []
            for b, k in ms:
                realization.extend(pool.front(b, k))
            realization.sort()
            key = tuple(realization)
            if best_key is None or key < best_key:
                best_key, best = key, candidate
        candidates = alive
        if best is None:
            return
        ms, quals, vals = best
        for b, k in ms:
            pool.take_front(b, k)
        agent = quals[-1]
        g = table.group_of[agent]
        value = Fraction(vals[g], table.scale[g])
        trace.append(TraceEvent(PHASE, agent, best_key, value, roster.thresholds[agent]))
        roster.discard(agent)


def _minimal_set_scan(
    table: BlockTable,
    pool: _Pool,
    roster: _Roster,
) -> tuple[tuple[int, ...], int, Fraction] | None:
    """Strip removable items off the whole pool until it is 1-minimal.

    The first step values the pool once per group in play.  If no
    remaining agent's group value meets its threshold, the scan returns
    None and the pool is untouched.  Each round re-picks the agent with
    the highest value-to-threshold ratio (``_Roster.pick``: cross-
    multiplied in integers, ties by index, over the first remaining agent
    and each group's least-threshold member), then removes the first item
    in ascending (value for that agent, item index) order whose removal
    keeps the agent's scaled value at or above ceil(threshold * L_g).
    Within a block all items are interchangeable, so removability is
    tested once per block and the front (smallest-index) item is the one
    removed.  The roster does not change during a scan, so the groups in
    play are fixed up front.  One ``RunningValues`` state holds the
    scan's pool and answers every query: the first valuation of the
    pool, each removability test and batch probe (``without``: the value
    were k items of one block gone) and the re-valuation after each
    removal.  The state charges each answer as one query, exactly as if
    it had been valued from scratch.

    Ordered walk: each step walks the pool's blocks in ascending
    (value for the picked agent's group, front item) order and tests
    them one by one; the first removable block is ``bstar``.  The walk
    then goes on only through blocks of bstar's value, to find bstar's
    rival: the first other removable block of equal value, which has the
    least front among them.

    Dead blocks: values are monotone and the scan's set only shrinks, so
    a block that fails the test for an agent fails it for that agent for
    the rest of the scan.  Each picked agent keeps its own set of such
    blocks, which the walk skips untested: a block dead for one agent can
    be removable for another, of another group or of a lower threshold.

    Kept order: each group's walk order is a sorted list of
    (value, front, block), built the first time one of its agents is
    picked.  A removal moves only bstar's front, so each list drops
    bstar's entry by ``bisect_left`` and, if the block keeps items,
    puts it back with ``insort``.

    Batching: a run of removals from one block is collapsed when it
    provably replays the one-at-a-time scan, which requires (a) no
    group's value changes, so the agent re-pick is stable and previously
    non-removable blocks stay non-removable (values only shrink with the
    set), and (b) the block's front index stays below the rival's front,
    so the scan order cannot switch mid-batch.

    Removals come off each block's front, so the kept items are the back
    of its window; the scan takes them off the pool and returns (bundle
    in ascending item order, chosen agent position, that agent's value
    for the bundle as a fraction).
    """
    groups = roster.groups()
    state = RunningValues(table, groups, pool.counts())
    local = state.counts

    def front(b: int) -> int:
        return table.block_items[b][pool.hi[b] - local[b]]

    group_vals = {g: state.value(g) for g in groups}
    if not roster.any_meets(group_vals):
        return None
    orders: dict[int, list[tuple[int, int, int]]] = {}
    dead: dict[int, set[int]] = {}
    while True:
        pick = roster.pick(group_vals)
        gj = table.group_of[pick]
        need = roster.need[pick]
        order = orders.get(gj)
        if order is None:
            vrow = table.val[gj]
            order = orders[gj] = sorted((vrow[b], front(b), b) for b in local)
        dead_j = dead.setdefault(pick, set())

        first = rival = None
        for entry in order:
            vb, fb, b = entry
            if first is not None and vb != first[0]:
                break
            if b in dead_j:
                continue
            if state.without(gj, b, 1) < need:
                dead_j.add(b)
            elif first is None:
                first = entry
            else:
                rival = fb
                break
        if first is None:
            break

        _vb, fstar, bstar = first
        have = k_bound = local[bstar]
        if rival is not None:
            start = pool.hi[bstar] - have
            block = table.block_items[bstar]
            # >= 1: bstar's front precedes its rival's by the walk order
            k_bound = bisect_left(block, rival, start, start + have) - start

        k = 1
        if k_bound > 1:
            lo_k, hi_k = 0, k_bound
            while lo_k < hi_k:
                mid = (lo_k + hi_k + 1) // 2
                if all(state.without(g, bstar, mid) == s for g, s in group_vals.items()):
                    lo_k = mid
                else:
                    hi_k = mid - 1
            k = max(1, lo_k)

        state.change(bstar, -k)
        for g, keyed in orders.items():
            vb = table.val[g][bstar]
            del keyed[bisect_left(keyed, (vb, fstar, bstar))]
            if bstar in local:
                insort(keyed, (vb, front(bstar), bstar))
        group_vals = {g: state.value(g) for g in groups}

    bundle = sorted(j for b, k in local.items() for j in pool.take_back(b, k))
    return tuple(bundle), pick, Fraction(group_vals[gj], table.scale[gj])


def minimal_set(
    spec: SetSystemSpec,
    valuations: Mapping[int, Valuation],
    items: Iterable[int],
    thresholds: Mapping[int, Fraction],
) -> tuple[frozenset[int], int]:
    """Find a 1-minimal bundle within ``items`` meeting some agent's threshold.

    Starts from all of ``items`` and strips elements until no single
    removal keeps the chosen agent at or above its threshold.  Requires
    at least one agent whose value for ``items`` meets its threshold.
    Returns the bundle and the chosen agent id.
    """
    agent_ids = sorted(valuations)
    if not agent_ids:
        raise InputError("no agents given")
    missing = [a for a in agent_ids if a not in thresholds]
    if missing:
        raise InputError(f"agents without thresholds: {missing}")
    if any(thresholds[a] < 0 for a in agent_ids):
        raise InputError("thresholds must be nonnegative")
    table = _block_table(
        spec, [valuations[a] for a in agent_ids], items=coerce_items(spec, items)
    )
    thr = [thresholds[a] for a in agent_ids]
    roster = _Roster(table.group_of, table.scale, thr, range(len(agent_ids)))
    found = _minimal_set_scan(table, _Pool(table), roster)
    if found is None:
        raise InputError("no remaining agent values the remaining items at its threshold")
    bundle, pick, _value = found
    return frozenset(bundle), agent_ids[pick]


def allocate_from_estimates(
    instance: "Instance",
    mu: EstimateVector,
    alpha: Fraction,
    *,
    _table: BlockTable | None = None,
) -> Allocation:
    """Allocate against per-agent thresholds alpha * mu_i.

    Runs bundle sizes 1..3 exactly like the reference path, then loops:
    while some remaining agent values the whole remaining pool at or
    above its threshold, strip a minimal bundle out of the pool and hand
    it over.  Agents with mu_i = 0 receive the empty bundle up front.
    Thresholds are formed by multiplication, so a zero estimate never
    forces a division.

    The block table depends only on the instance; ``fair_divide`` builds
    it once per run and hands it to every round as ``_table``.
    """
    check_parameters(alpha=alpha)
    n = instance.n
    if len(mu.mu) != n:
        raise InputError(f"estimate vector has {len(mu.mu)} entries, expected {n}")
    for i, entry in enumerate(mu.mu):
        if entry < 0:
            raise InputError(f"estimate for agent {i} is negative: {entry}")

    table = _block_table(instance.spec, instance.valuations) if _table is None else _table
    pool = _Pool(table)
    thresholds = [alpha * entry for entry in mu.mu]
    # A zero estimate certifies a zero maximin share (m * nth_value = 0
    # bounds it above), so the empty bundle already meets the guarantee.
    trace = [
        TraceEvent(ZERO_ESTIMATE, pos, (), ZERO, ZERO)
        for pos in range(n)
        if mu.mu[pos] == 0
    ]
    roster = _Roster(
        table.group_of, table.scale, thresholds, (pos for pos in range(n) if mu.mu[pos])
    )

    for size in (1, 2, 3):
        _run_phase(table, pool, size, roster, trace, None)

    while roster:
        found = _minimal_set_scan(table, pool, roster)
        if found is None:
            break
        bundle, pick, value = found
        trace.append(TraceEvent(MINIMAL, pick, bundle, value, thresholds[pick]))
        roster.discard(pick)

    return Allocation(tuple(trace), frozenset(roster.ascending))


def allocate_naive(
    instance: "Instance",
    alpha: Fraction,
    *,
    max_items: int = DEFAULT_NAIVE_CAP,
) -> Allocation:
    """Reference path: search every bundle size 1..m against a uniform alpha.

    Exponential in general, so it refuses instances where both the item
    count and the number of equivalence blocks exceed ``max_items``;
    block-level enumeration admits large instances whose items collapse
    into few blocks.  Before each size the pool is valued once per
    remaining value group, and the loop stops once no remaining agent
    values the whole pool at alpha (values are monotone, so nothing can
    qualify afterwards).
    """
    check_parameters(alpha=alpha, max_items=max_items)
    table = _block_table(instance.spec, instance.valuations)
    if instance.num_items > max_items and table.num_blocks > max_items:
        raise DeskCapError(
            f"allocate_naive capped at {max_items} items or equivalence blocks; "
            f"instance has {instance.num_items} items in {table.num_blocks} blocks"
        )
    pool = _Pool(table)
    n = instance.n
    roster = _Roster(table.group_of, table.scale, [alpha] * n, range(n))
    trace: list[TraceEvent] = []
    budget = [NAIVE_NODE_CAP]

    for size in range(1, instance.num_items + 1):
        if pool.total() < size:
            break
        counts = pool.counts()
        if not roster.any_meets({g: table.value(g, counts) for g in roster.groups()}):
            break
        _run_phase(table, pool, size, roster, trace, budget)

    return Allocation(tuple(trace), frozenset(roster.ascending))


def fair_divide(
    instance: "Instance",
    alpha: Fraction,
    delta: Fraction,
    *,
    stats: RunStats | None = None,
) -> tuple[Allocation, EstimateVector]:
    """Estimate-driven driver around ``allocate_from_estimates``.

    Estimates start at ``mms_bounds(val, n).upper``, m * (n-th largest
    item value), a certified upper bound on each agent's maximin share.
    Each round reruns the allocation from scratch on one block table built
    for the whole run (it depends only on the instance); if everyone is
    allocated it returns, otherwise every unallocated agent's estimate
    shrinks by (1 - delta).
    An agent whose estimate has dropped to its maximin share or below is
    always allocated, so the loop ends within
    n * ceil(log_{1/(1-delta)} m) + 1 rounds and every agent receives
    value at least (1 - delta) * alpha * (its maximin share).
    """
    check_parameters(alpha=alpha, delta=delta)
    n = instance.n
    m = instance.num_items
    mu = [mms_bounds(val, n).upper for val in instance.valuations]
    shrink = ONE - delta
    allowed = iteration_bound(n, m, delta)
    table = _block_table(instance.spec, instance.valuations)

    for _ in range(allowed):
        estimates = EstimateVector(tuple(mu))
        allocation = allocate_from_estimates(instance, estimates, alpha, _table=table)
        if stats is not None:
            stats.rounds.append((estimates.mu, allocation.unallocated_agents))
        if not allocation.unallocated_agents:
            return allocation, estimates
        for pos in allocation.unallocated_agents:
            mu[pos] *= shrink
    raise FairdivError(
        f"fair_divide did not converge within the proven bound of {allowed} rounds"
    )


def iteration_bound(n: int, m: int, delta: Fraction) -> int:
    """n * ceil(log_{1/(1-delta)} m) + 1, computed exactly."""
    check_parameters(delta=delta)
    steps = 0
    if m > 1:
        shrink = ONE - delta
        power = ONE
        target = Fraction(1, m)
        while power > target:
            power *= shrink
            steps += 1
    return n * steps + 1


def query_budget(n: int, m: int, delta: Fraction) -> int:
    """Valuation-query allowance for one fair_divide run."""
    log_factor = (iteration_bound(n, m, delta) - 1) // n if n else 0
    return QUERY_BUDGET_CONSTANT * (n * m**3 + n**2 * m**2) * log_factor


@dataclass(frozen=True)
class Violation:
    """One failed check: ``overlap``, ``value-mismatch`` or ``below-floor``."""

    kind: str
    agent: int
    message: str


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def require_fits_instance(allocation: Allocation, instance: "Instance") -> None:
    """Reject an allocation document that names an agent or item the
    instance lacks, or that does not account for each agent 0..n-1
    exactly once.  ``parse_allocation`` already rejects an agent listed
    twice; this adds the checks that need the instance: no agent id
    outside [0, n), no bundle item outside [0, m), and no agent left out
    of both the events and ``unallocated_agents``."""
    n, m = instance.n, instance.num_items
    for idx, event in enumerate(allocation.trace):
        if not 0 <= event.agent < n:
            raise ParseError(
                f"agent {event.agent} outside [0, {n})", location=f"events[{idx}].agent"
            )
        outside = [j for j in event.bundle if not 0 <= j < m]
        if outside:
            raise ParseError(
                f"items {outside} outside [0, {m})", location=f"events[{idx}].bundle"
            )
    outside = sorted(a for a in allocation.unallocated_agents if not 0 <= a < n)
    if outside:
        raise ParseError(f"agents {outside} outside [0, {n})", location="unallocated_agents")
    missing = sorted(set(range(n)) - allocation.bundles.keys() - allocation.unallocated_agents)
    if missing:
        raise ParseError(
            f"agents {missing} appear in neither events nor unallocated_agents",
            location="allocation",
        )


def verify_allocation(
    instance: "Instance",
    allocation: Allocation,
    floors: Mapping[int, Fraction],
) -> VerificationReport:
    """Check that the bundles are disjoint and that every agent with a
    floor meets it, after ``require_fits_instance``; a floor for an agent
    outside [0, n) is an ``InputError``.

    An agent without an event holds the empty bundle, worth 0 at no
    query.  For any other floored agent, the event's recorded ``value``
    must equal the bundle's true value (``value-mismatch``).  The value
    check reuses the floor check's ``bundle_value`` call, so verification
    charges one query per floored agent with an event and no more.
    """
    require_fits_instance(allocation, instance)
    outside = sorted(agent for agent in floors if not 0 <= agent < instance.n)
    if outside:
        raise InputError(f"floors for agents {outside} outside [0, {instance.n})")
    violations: list[Violation] = []
    owner: dict[int, int] = {}
    bundles = allocation.bundles
    for agent in sorted(bundles):
        for j in sorted(bundles[agent]):
            if j in owner:
                violations.append(
                    Violation(
                        "overlap",
                        agent,
                        f"item {j} allocated to both agent {owner[j]} and agent {agent}",
                    )
                )
            else:
                owner[j] = agent
    events = {event.agent: event for event in allocation.trace}
    for agent, floor in sorted(floors.items()):
        event = events.get(agent)
        value = ZERO
        if event is not None:
            value = bundle_value(instance.spec, instance.valuations[agent], bundles[agent])
            if event.value != value:
                violations.append(
                    Violation(
                        "value-mismatch",
                        agent,
                        f"agent {agent} event value {format_rational(event.value)} "
                        f"but bundle value {format_rational(value)}",
                    )
                )
        if value < floor:
            violations.append(
                Violation(
                    "below-floor",
                    agent,
                    f"agent {agent} bundle value {format_rational(value)} "
                    f"below floor {format_rational(floor)}",
                )
            )
    return VerificationReport(tuple(violations))
