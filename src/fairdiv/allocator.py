"""Phase-based allocation procedures.

``allocate_naive`` is the reference path: for bundle sizes 1..m it
repeatedly hands the first qualifying size-tau set to the first
qualifying agent.  ``allocate_from_estimates`` runs sizes 1..3 the same
way against per-agent thresholds alpha * mu_i, then repeatedly strips a
minimal qualifying bundle out of the remaining pool (``minimal_set``).
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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import (
    ConfigError,
    DeskCapError,
    FairdivError,
    InputError,
    NoEligibleAgentError,
)
from .rationals import format_rational
from .setsystem import Capacity, SetSystemSpec, coerce_items, equivalence_classes
from .valuation import Valuation, bundle_value, nth_value

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
    """One allocation: bundle cardinality, recipient, value, threshold.

    ``kind`` distinguishes fixed-size phase allocations, minimal-set
    allocations from the grouped tail, and the empty bundles granted to
    agents whose estimate is zero (phase recorded as 0 for those).
    """

    kind: str
    phase: int
    agent: int
    bundle: tuple[int, ...]
    value: Fraction
    threshold: Fraction

    def record(self) -> str:
        ids = ",".join(str(j) for j in self.bundle)
        return (
            f"phase={self.phase} agent={self.agent} bundle=[{ids}] "
            f"value={format_rational(self.value)} threshold={format_rational(self.threshold)}"
        )


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles for a subset of agents plus the ordered trace."""

    bundles: dict[int, frozenset[int]]
    trace: tuple[TraceEvent, ...]
    unallocated_agents: frozenset[int]

    def trace_records(self) -> list[str]:
        return [event.record() for event in self.trace]


@dataclass(frozen=True)
class EstimateVector:
    """Per-agent share estimates; entries only ever shrink by (1 - delta)."""

    mu: tuple[Fraction, ...]


@dataclass
class RunStats:
    """Optional instrumentation collected by fair_divide."""

    iterations: int = 0
    rounds: list[tuple[tuple[Fraction, ...], frozenset[int]]] = field(default_factory=list)


def check_parameters(
    alpha: Fraction | None = None, delta: Fraction | None = None
) -> None:
    """Reject alpha <= 0 and delta outside (0, 1); every entry point that
    takes either parameter checks it here."""
    if alpha is not None and alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if delta is not None and not 0 < delta < 1:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")


def _ratio_greater(v1: Fraction, t1: Fraction, v2: Fraction, t2: Fraction) -> bool:
    # v1/t1 > v2/t2 via cross-multiplication; a zero threshold reads as an
    # infinite ratio.  Thresholds are nonnegative throughout.
    return v1 * t2 > v2 * t1


class _BlockTable:
    """Item-equivalence blocks with values evaluated on block counts.

    Counts-based evaluation matches ``bundle_value`` exactly because
    items in one block carry identical value for every agent and an
    identical feasibility role.  Agents sharing one value row form a
    group; each value evaluated here costs one query on the group's
    representative valuation.

    ``value`` optionally caps the bundle at ``size`` items, giving the
    best value any size-``size`` subset of the pool reaches (padding
    with surplus items is free since values are monotone).  Both families
    take items greedily in descending value: capacity systems in one
    global order under per-class caps (a truncated partition matroid,
    where greedy is optimal), explicit systems in one order per maximal
    set.
    """

    def __init__(
        self,
        spec: SetSystemSpec,
        valuations: Sequence[Valuation],
        agent_ids: Sequence[int] | None = None,
        items: Iterable[int] | None = None,
    ):
        self.spec = spec
        self.valuations = list(valuations)
        self.agents = tuple(agent_ids) if agent_ids is not None else tuple(range(len(self.valuations)))

        self.group_of: list[int] = []
        self.group_reps: list[int] = []
        seen: dict[int, int] = {}
        for pos, val in enumerate(self.valuations):
            g = seen.get(id(val.values))
            if g is None:
                g = len(self.group_reps)
                seen[id(val.values)] = g
                self.group_reps.append(pos)
            self.group_of.append(g)
        num_groups = len(self.group_reps)

        rows = [val.values for val in self.valuations]
        blocks = equivalence_classes(spec, rows)
        if items is not None:
            allowed = frozenset(items)
            blocks = tuple(b & allowed for b in blocks)
        self.block_items: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(b)) for b in blocks if b
        )
        nb = len(self.block_items)
        self.val: list[tuple[Fraction, ...]] = [
            tuple(
                self.valuations[self.group_reps[g]].values[block[0]]
                for block in self.block_items
            )
            for g in range(num_groups)
        ]

        if isinstance(spec, Capacity):
            self.caps = tuple(cap for _, cap in spec.classes)
            self.block_class = tuple(
                spec.class_of[block[0]] for block in self.block_items
            )
            self.greedy_orders: list[list[int]] = [
                sorted(range(nb), key=lambda b: (-self.val[g][b], b))
                for g in range(num_groups)
            ]
        else:
            member_of = {block[0]: b for b, block in enumerate(self.block_items)}
            set_blocks = [
                [member_of[j] for j in maximal if j in member_of]
                for maximal in spec.maximal_sets
            ]
            self.set_orders: list[list[list[int]]] = [
                [sorted(bs, key=lambda b: (-self.val[g][b], b)) for bs in set_blocks]
                for g in range(num_groups)
            ]

    @property
    def num_blocks(self) -> int:
        return len(self.block_items)

    @property
    def num_groups(self) -> int:
        return len(self.group_reps)

    def _count(self, group: int) -> None:
        self.valuations[self.group_reps[group]]._count_query()

    def value(
        self,
        group: int,
        counts: Mapping[int, int],
        minus_block: int = -1,
        minus: int = 0,
        size: int | None = None,
    ) -> Fraction:
        """Bundle value of the multiset ``counts``, optionally minus
        ``minus`` items of one block and capped at ``size`` items.
        Costs one query."""
        self._count(group)
        vrow = self.val[group]
        limit = self.spec.num_items if size is None else size
        if isinstance(self.spec, Capacity):
            total = ZERO
            left = limit
            cap_left = list(self.caps)
            for b in self.greedy_orders[group]:
                k = counts.get(b, 0)
                if b == minus_block:
                    k -= minus
                if k <= 0:
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
        best = ZERO
        for order in self.set_orders[group]:
            acc = ZERO
            left = limit
            for b in order:
                k = counts.get(b, 0)
                if b == minus_block:
                    k -= minus
                if k <= 0:
                    continue
                if k >= left:
                    acc += vrow[b] * left
                    break
                acc += vrow[b] * k
                left -= k
            if acc > best:
                best = acc
        return best


class _Pool:
    """Remaining items per block as contiguous windows of the sorted ids.

    Phase allocations consume the front of a window (lexicographically
    smallest realization); minimal-set allocations consume the back
    (survivors of a front-first removal scan).  Windows therefore stay
    contiguous for the whole run.
    """

    def __init__(self, table: _BlockTable):
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

    def take_front(self, b: int, k: int) -> tuple[int, ...]:
        items = self.front(b, k)
        self.lo[b] += k
        return items

    def take_back(self, b: int, k: int) -> tuple[int, ...]:
        items = self.table.block_items[b][self.hi[b] - k : self.hi[b]]
        self.hi[b] -= k
        return items


def _any_eligible(
    table: _BlockTable,
    counts: Mapping[int, int],
    remaining: set[int],
    thresholds: Sequence[Fraction],
) -> bool:
    if not remaining:
        return False
    group_vals: dict[int, Fraction] = {}
    for pos in sorted(remaining):
        g = table.group_of[pos]
        if g not in group_vals:
            group_vals[g] = table.value(g, counts)
        if group_vals[g] >= thresholds[pos]:
            return True
    return False


def _run_phase(
    table: _BlockTable,
    pool: _Pool,
    size: int,
    thresholds: Sequence[Fraction],
    remaining: set[int],
    trace: list[TraceEvent],
    value_cache: dict[tuple[int, tuple[tuple[int, int], ...]], Fraction],
    budget: list[int] | None,
) -> None:
    """Repeatedly allocate the first qualifying size-``size`` bundle.

    One enumeration pass computes the value of every realizable multiset
    per group.  Within the phase, values and thresholds never change and
    removals only shrink the pool, so a multiset that failed to qualify
    can never start qualifying; the allocation loop just re-picks the
    lexicographically smallest realization among surviving candidates.
    """
    if not remaining or pool.total() < size:
        return
    counts0 = pool.counts()

    # Existence short-circuit: skip the enumeration when even the best
    # size-`size` bundle misses every remaining agent's threshold.
    best_by_group: dict[int, Fraction] = {}
    for pos in sorted(remaining):
        g = table.group_of[pos]
        if g not in best_by_group:
            best_by_group[g] = table.value(g, counts0, size=size)
    if not any(
        best_by_group[table.group_of[pos]] >= thresholds[pos] for pos in remaining
    ):
        return

    avail = sorted(counts0)
    suffix = [0] * (len(avail) + 1)
    for i in range(len(avail) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + counts0[avail[i]]

    groups_in_play = sorted({table.group_of[pos] for pos in remaining})
    candidates: list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]] = []
    chosen: list[tuple[int, int]] = []

    def emit() -> None:
        ms = tuple(chosen)
        quals: list[int] = []
        val_by_group: dict[int, Fraction] = {}
        for g in groups_in_play:
            key = (g, ms)
            v = value_cache.get(key)
            if v is None:
                v = table.value(g, dict(ms))
                value_cache[key] = v
            val_by_group[g] = v
        for pos in sorted(remaining):
            g = table.group_of[pos]
            if val_by_group.get(g, ZERO) >= thresholds[pos]:
                quals.append(pos)
        if quals:
            candidates.append((ms, tuple(quals)))

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
        for k in range(top, -1, -1):
            if k:
                chosen.append((b, k))
            enumerate_multisets(i + 1, left - k)
            if k:
                chosen.pop()

    enumerate_multisets(0, size)

    while candidates:
        alive: list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]] = []
        best_key: tuple[int, ...] | None = None
        best_ms: tuple[tuple[int, int], ...] | None = None
        best_agent = -1
        for ms, quals in candidates:
            if any(pool.count(b) < k for b, k in ms):
                continue
            agent = next((p for p in quals if p in remaining), None)
            if agent is None:
                continue
            alive.append((ms, quals))
            realization: list[int] = []
            for b, k in ms:
                realization.extend(pool.front(b, k))
            realization.sort()
            key = tuple(realization)
            if best_key is None or key < best_key:
                best_key, best_ms, best_agent = key, ms, agent
        candidates = alive
        if best_ms is None:
            return
        for b, k in best_ms:
            pool.take_front(b, k)
        g = table.group_of[best_agent]
        value = value_cache[(g, best_ms)]
        trace.append(
            TraceEvent(
                PHASE,
                size,
                table.agents[best_agent],
                best_key,
                value,
                thresholds[best_agent],
            )
        )
        remaining.discard(best_agent)


def _minimal_set_scan(
    table: _BlockTable,
    counts: Mapping[int, int],
    base_lo: Sequence[int],
    remaining: set[int],
    thresholds: Sequence[Fraction],
) -> tuple[dict[int, int], dict[int, int], int, Fraction]:
    """Strip removable items off the candidate set until it is 1-minimal.

    Each round re-picks the agent with the highest value-to-threshold
    ratio (cross-multiplied, ties by index), then removes the first item
    in ascending (value for that agent, item index) order whose removal
    keeps the agent at or above threshold.  Within a block all items are
    interchangeable, so removability is tested once per block and the
    front (smallest-index) item is the one removed.

    Batching: a run of removals from one block is collapsed when it
    provably replays the one-at-a-time scan, which requires (a) no
    group's value changes, so the agent re-pick is stable and previously
    non-removable blocks stay non-removable (values only shrink with the
    set), and (b) the block's front index stays below the front of every
    other currently removable block of equal item value, so the scan
    order cannot switch mid-batch.

    Returns (kept counts, removed-from-front counts, chosen agent
    position, final value for that agent).
    """
    local = {b: c for b, c in counts.items() if c > 0}
    removed: dict[int, int] = {}

    def min_index(b: int) -> int:
        return table.block_items[b][base_lo[b] + removed.get(b, 0)]

    while True:
        group_vals: dict[int, Fraction] = {}
        for g in sorted({table.group_of[p] for p in remaining}):
            group_vals[g] = table.value(g, local)
        pick = -1
        pick_v = pick_t = ZERO
        for pos in sorted(remaining):
            v = group_vals[table.group_of[pos]]
            t = thresholds[pos]
            if pick < 0 or _ratio_greater(v, t, pick_v, pick_t):
                pick, pick_v, pick_t = pos, v, t
        gj = table.group_of[pick]
        vrow = table.val[gj]

        removable = [
            b
            for b in sorted(local)
            if table.value(gj, local, minus_block=b, minus=1) >= pick_t
        ]
        if not removable:
            return local, removed, pick, pick_v

        bstar = min(removable, key=lambda b: (vrow[b], min_index(b)))
        k_bound = local[bstar]
        vb = vrow[bstar]
        same_value_fronts = [
            min_index(b) for b in removable if b != bstar and vrow[b] == vb
        ]
        if same_value_fronts:
            nxt = min(same_value_fronts)
            start = base_lo[bstar] + removed.get(bstar, 0)
            block = table.block_items[bstar]
            below = 0
            while below < k_bound and block[start + below] < nxt:
                below += 1
            k_bound = below  # >= 1: bstar's front precedes nxt by choice of bstar

        k = 1
        if k_bound > 1:
            def unchanged(step: int) -> bool:
                return all(
                    table.value(g, local, minus_block=bstar, minus=step) == group_vals[g]
                    for g in group_vals
                )

            lo_k, hi_k = 0, k_bound
            while lo_k < hi_k:
                mid = (lo_k + hi_k + 1) // 2
                if unchanged(mid):
                    lo_k = mid
                else:
                    hi_k = mid - 1
            k = max(1, lo_k)

        removed[bstar] = removed.get(bstar, 0) + k
        local[bstar] -= k
        if not local[bstar]:
            del local[bstar]


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
        raise NoEligibleAgentError("no agents given")
    missing = [a for a in agent_ids if a not in thresholds]
    if missing:
        raise InputError(f"agents without thresholds: {missing}")
    if any(thresholds[a] < 0 for a in agent_ids):
        raise InputError("thresholds must be nonnegative")
    table = _BlockTable(
        spec,
        [valuations[a] for a in agent_ids],
        agent_ids=agent_ids,
        items=coerce_items(spec, items),
    )
    counts = {b: len(block) for b, block in enumerate(table.block_items)}
    thr = [thresholds[a] for a in agent_ids]
    remaining = set(range(len(agent_ids)))
    if not _any_eligible(table, counts, remaining, thr):
        raise NoEligibleAgentError(
            "no remaining agent values the remaining items at its threshold"
        )
    base_lo = [0] * table.num_blocks
    kept, removed, pick, _value = _minimal_set_scan(table, counts, base_lo, remaining, thr)
    bundle: list[int] = []
    for b, keep in kept.items():
        start = removed.get(b, 0)
        bundle.extend(table.block_items[b][start : start + keep])
    return frozenset(bundle), table.agents[pick]


def _grant_zero_estimates(
    mu: Sequence[Fraction],
    remaining: set[int],
    bundles: dict[int, frozenset[int]],
    trace: list[TraceEvent],
) -> None:
    # A zero estimate certifies a zero maximin share (m * nth_value = 0
    # bounds it above), so the empty bundle already meets the guarantee.
    for pos in sorted(remaining):
        if mu[pos] == 0:
            bundles[pos] = frozenset()
            trace.append(TraceEvent(ZERO_ESTIMATE, 0, pos, (), ZERO, ZERO))
    for pos in list(bundles):
        remaining.discard(pos)


def allocate_from_estimates(
    instance: "Instance",
    mu: EstimateVector,
    alpha: Fraction,
) -> Allocation:
    """Allocate against per-agent thresholds alpha * mu_i.

    Runs bundle sizes 1..3 exactly like the reference path, then loops:
    while some remaining agent values the whole remaining pool at or
    above its threshold, strip a minimal bundle out of the pool and hand
    it over.  Agents with mu_i = 0 receive the empty bundle up front.
    Thresholds are formed by multiplication, so a zero estimate never
    forces a division.
    """
    check_parameters(alpha=alpha)
    n = instance.n
    if len(mu.mu) != n:
        raise InputError(f"estimate vector has {len(mu.mu)} entries, expected {n}")
    for i, entry in enumerate(mu.mu):
        if entry < 0:
            raise InputError(f"estimate for agent {i} is negative: {entry}")

    table = _BlockTable(instance.spec, instance.valuations)
    pool = _Pool(table)
    thresholds = [alpha * entry for entry in mu.mu]
    remaining = set(range(n))
    bundles: dict[int, frozenset[int]] = {}
    trace: list[TraceEvent] = []
    _grant_zero_estimates(mu.mu, remaining, bundles, trace)

    value_cache: dict[tuple[int, tuple[tuple[int, int], ...]], Fraction] = {}
    for size in (1, 2, 3):
        _run_phase(table, pool, size, thresholds, remaining, trace, value_cache, None)

    while remaining:
        counts = pool.counts()
        if not _any_eligible(table, counts, remaining, thresholds):
            break
        kept, removed, pick, value = _minimal_set_scan(
            table, counts, pool.lo, remaining, thresholds
        )
        bundle: list[int] = []
        for b in sorted(kept):
            if kept[b]:
                bundle.extend(pool.take_back(b, kept[b]))
        bundle.sort()
        trace.append(
            TraceEvent(
                MINIMAL,
                len(bundle),
                table.agents[pick],
                tuple(bundle),
                value,
                thresholds[pick],
            )
        )
        remaining.discard(pick)

    for event in trace:
        bundles.setdefault(event.agent, frozenset(event.bundle))
    return Allocation(bundles, tuple(trace), frozenset(remaining))


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
    into few blocks.  The size loop stops early once no remaining agent
    values the whole remaining pool at alpha (values are monotone, so
    nothing can qualify afterwards).
    """
    check_parameters(alpha=alpha)
    table = _BlockTable(instance.spec, instance.valuations)
    if instance.num_items > max_items and table.num_blocks > max_items:
        raise DeskCapError(
            f"allocate_naive capped at {max_items} items or equivalence blocks; "
            f"instance has {instance.num_items} items in {table.num_blocks} blocks"
        )
    pool = _Pool(table)
    n = instance.n
    thresholds = [alpha] * n
    remaining = set(range(n))
    trace: list[TraceEvent] = []
    value_cache: dict[tuple[int, tuple[tuple[int, int], ...]], Fraction] = {}
    budget = [NAIVE_NODE_CAP]

    for size in range(1, instance.num_items + 1):
        if not remaining or pool.total() < size:
            break
        if not _any_eligible(table, pool.counts(), remaining, thresholds):
            break
        _run_phase(table, pool, size, thresholds, remaining, trace, value_cache, budget)

    bundles = {event.agent: frozenset(event.bundle) for event in trace}
    return Allocation(bundles, tuple(trace), frozenset(remaining))


def fair_divide(
    instance: "Instance",
    alpha: Fraction,
    delta: Fraction,
    *,
    stats: RunStats | None = None,
) -> tuple[Allocation, EstimateVector]:
    """Estimate-driven driver around ``allocate_from_estimates``.

    Estimates start at m * (n-th largest item value), a certified upper
    bound on each agent's maximin share.  Each round reruns the
    allocation from scratch; if everyone is allocated it returns,
    otherwise every unallocated agent's estimate shrinks by (1 - delta).
    An agent whose estimate has dropped to its maximin share or below is
    always allocated, so the loop ends within
    n * ceil(log_{1/(1-delta)} m) + 1 rounds and every agent receives
    value at least (1 - delta) * alpha * (its maximin share).
    """
    check_parameters(alpha=alpha, delta=delta)
    n = instance.n
    m = instance.num_items
    mu = [m * nth_value(val, n) for val in instance.valuations]
    shrink = ONE - delta
    allowed = iteration_bound(n, m, delta)

    for _ in range(allowed):
        estimates = EstimateVector(tuple(mu))
        allocation = allocate_from_estimates(instance, estimates, alpha)
        if stats is not None:
            stats.iterations += 1
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
    kind: str
    agent: int | None
    message: str


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_allocation(
    instance: "Instance",
    allocation: Allocation,
    floors: Mapping[int, Fraction],
) -> VerificationReport:
    """Check disjointness, ground-set membership, and per-agent floors."""
    violations: list[Violation] = []
    owner: dict[int, int] = {}
    for agent in sorted(allocation.bundles):
        if not 0 <= agent < instance.n:
            violations.append(
                Violation("unknown-agent", agent, f"agent {agent} not in [0, {instance.n})")
            )
            continue
        for j in sorted(allocation.bundles[agent]):
            if not 0 <= j < instance.num_items:
                violations.append(
                    Violation(
                        "unknown-item", agent, f"item {j} outside [0, {instance.num_items})"
                    )
                )
            elif j in owner:
                violations.append(
                    Violation(
                        "overlap",
                        agent,
                        f"item {j} allocated to both agent {owner[j]} and agent {agent}",
                    )
                )
            else:
                owner[j] = agent
    for agent in sorted(allocation.bundles):
        floor = floors.get(agent)
        if floor is None or not 0 <= agent < instance.n:
            continue
        bundle = frozenset(
            j for j in allocation.bundles[agent] if 0 <= j < instance.num_items
        )
        value = bundle_value(instance.spec, instance.valuations[agent], bundle)
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
