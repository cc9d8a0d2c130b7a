"""Phase-based allocation procedures.

``allocate_naive`` is the reference path: for bundle sizes 1..m it
repeatedly hands the first qualifying size-tau set to the first
qualifying agent.  ``allocate_from_estimates`` runs sizes 1..3 the same
way against per-agent thresholds alpha * mu_i, then repeatedly strips a
1-minimal qualifying bundle out of the remaining pool until no remaining
agent values the pool at its threshold.  That removal scan
(``_minimal_set_scan``) is the one minimal-bundle path.
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
A fixed-size phase sweeps its multisets in that order once per
allocation, from above the first item of the bundle it took last:
realizations only rise, so the ones below were swept and missed.
This module never looks at how a set system is represented, and keeps
no query accounting: every valuation query values one multiset of block
counts for one value group through ``valuation``'s block-count kernel,
which charges each value it returns as one query on that group's
representative.  The phases value from scratch with
``BlockTable.value``: their size-capped existence check,
``allocate_naive``'s gate, and each (multiset, group) value a
sweep reads, once per table (``BlockTable.phase_memo``).  The removal
scan changes its multiset one block at a time and reads a
``RunningValues`` state, whose reads are charged like from-scratch
values.  Both read lazily, the way accelerated greedy does: a value is
read only once it can decide a pick.  Between the rounds of
``fair_divide``, which share one table, only the stranded agents' needs
fall, and a lowered need can only add qualifying (multiset, agent)
pairs for its own agent; so each round replays, at no query, the
previous round's phase sweeps whose pick no lowered agent can undercut
(``_PhaseLog``), and sweeps from the first that it can.

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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import DeskCapError, FairdivError, InputError, ParseError
from .mms import mms_bounds
from .rationals import _is_int, check_parameters, format_rational, parameter_fault
from .setsystem import SetSystemSpec, equivalence_classes
from .valuation import BlockTable, RunningValues, Valuation, bundle_value, value_groups

if TYPE_CHECKING:
    from .instances import Instance

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_NAIVE_CAP = 16
NAIVE_NODE_CAP = 2_000_000

PHASE = "phase"
MINIMAL = "minimal"
ZERO_ESTIMATE = "zero-estimate"
_EVENT_KINDS = (PHASE, MINIMAL, ZERO_ESTIMATE)

# A multiset of blocks: ascending (block, count) pairs.
Multiset = tuple[tuple[int, int], ...]


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


def _distinct_ints(value: object, kind: type, where: str) -> None:
    """Raise a ``ParseError`` at ``where`` unless ``value`` is a ``kind`` of distinct ints."""
    if not isinstance(value, kind) or not all(map(_is_int, value)):
        raise ParseError(f"expected a {kind.__name__} of integers", location=where)
    if len(set(value)) != len(value):
        raise ParseError("lists an entry more than once", location=where)


@dataclass(frozen=True)
class Allocation:
    """The ordered trace of allocations plus the agents left without one,
    held to an allocation document's rules: each fault is a ``ParseError``
    located as in a document."""

    trace: tuple[TraceEvent, ...]
    unallocated_agents: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.trace, tuple) or not all(
            isinstance(event, TraceEvent) for event in self.trace
        ):
            raise ParseError("expected a tuple of trace events", location="events")
        agents: set[int] = set()
        for idx, event in enumerate(self.trace):
            kind, agent, bundle, where = event.kind, event.agent, event.bundle, f"events[{idx}]"
            if kind not in _EVENT_KINDS:
                raise ParseError(f"unknown event kind {kind!r}", location=where)
            if not _is_int(agent):
                raise ParseError(f"agent must be an int, got {agent!r}", location=f"{where}.agent")
            if agent in agents:
                raise ParseError(f"agent {agent} already has an event", location=where)
            agents.add(agent)
            _distinct_ints(bundle, tuple, f"{where}.bundle")
            if (kind == ZERO_ESTIMATE) != (not bundle):
                fault = f"only zero-estimate bundles are empty; {kind!r} has {len(bundle)} items"
                raise ParseError(fault, location=f"{where}.kind")
            for key in ("value", "threshold"):
                if fault := parameter_fault("estimate", getattr(event, key)):
                    raise ParseError(f"{key} {fault}", location=f"{where}.{key}")
        _distinct_ints(self.unallocated_agents, frozenset, "unallocated_agents")
        if both := sorted(self.unallocated_agents & agents):
            raise ParseError(f"agents {both} also have events", location="unallocated_agents")

    @cached_property
    def bundles(self) -> dict[int, frozenset[int]]:
        """Each traced agent's bundle, read off its event."""
        return {event.agent: frozenset(event.bundle) for event in self.trace}

    def trace_records(self) -> list[str]:
        return [event.record() for event in self.trace]


# Per-agent share estimates.  Calling the alias builds a plain tuple, which
# keeps ``EstimateVector(entries)`` working where the benchmark still
# spells it; the allocator itself takes and returns plain tuples.
EstimateVector = tuple[Fraction, ...]


@dataclass
class RunStats:
    """Optional instrumentation collected by fair_divide: per round, the
    estimates with the agents they stranded, the valuation queries the
    round spent, and the phase events it replayed from the previous
    round's log."""

    rounds: list[tuple[tuple[Fraction, ...], frozenset[int]]] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)
    replayed: list[int] = field(default_factory=list)


def _block_table(spec: SetSystemSpec, valuations: Sequence[Valuation]) -> BlockTable:
    """The block-count table of ``valuations`` over the item-equivalence
    blocks of ``spec``.  The table depends only on the set system and the
    valuations, so one table serves every round of a ``fair_divide`` run."""
    reps, group_of = value_groups(valuations)
    blocks = equivalence_classes(spec, [rep.values for rep in reps])
    return BlockTable(spec, reps, group_of, blocks)


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

    def counts(self) -> dict[int, int]:
        return {
            b: self.hi[b] - self.lo[b]
            for b in range(self.table.num_blocks)
            if self.hi[b] > self.lo[b]
        }

    def total(self) -> int:
        return sum(self.hi) - sum(self.lo)

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
    in index order, and ``members[g]`` group g's remaining positions in
    ascending (threshold, index) order.  ``discard`` deletes an agent
    from both, so group g's leader is ``members[g][0]``.
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
        self.members: list[list[int]] = [[] for _ in scale]
        for pos in sorted(self.ascending, key=thresholds.__getitem__):  # stable: ties by index
            self.members[group_of[pos]].append(pos)

    def __bool__(self) -> bool:
        return bool(self.ascending)

    def discard(self, pos: int) -> None:
        del self.ascending[bisect_left(self.ascending, pos)]
        self.members[self.group_of[pos]].remove(pos)

    def leader(self, g: int) -> int:
        """Group g's remaining member of least (threshold, index)."""
        return self.members[g][0]

    def firsts(self) -> dict[int, int]:
        """Each group in play mapped to its least remaining index, in
        ascending order of that index."""
        num_groups = len(self.groups())
        firsts: dict[int, int] = {}
        for pos in self.ascending:
            firsts.setdefault(self.group_of[pos], pos)
            if len(firsts) == num_groups:
                break
        return firsts

    def first_meeting(self, g: int, s: int, first: int) -> int:
        """Group g's remaining member of least index whose need the scaled
        value ``s`` meets, searched from ``first``, the group's least
        remaining index; ``s`` must meet the leader's need."""
        ascending = self.ascending
        i = bisect_left(ascending, first)
        while self.group_of[ascending[i]] != g or self.need[ascending[i]] > s:
            i += 1
        return ascending[i]

    def groups(self) -> list[int]:
        """Groups with a remaining member, ascending."""
        return [g for g, group in enumerate(self.members) if group]

    def any_meets(self, value_of: Callable[[int], int]) -> bool:
        """Whether some remaining agent's group value ``value_of(g)`` meets
        its threshold; a group's leader has the group's least threshold.
        Reads the groups in ascending order and stops at the first hit."""
        return any(value_of(g) >= self.need[self.leader(g)] for g in self.groups())

    def pick(self, leaders: Sequence[int], group_vals: Mapping[int, int]) -> int:
        """The agent with the highest value-to-threshold ratio, ties by index.

        ``leaders`` lists the leader of every group in play in ascending
        index order, and ``group_vals`` maps each such group to its scaled
        value.  Every roster has positive thresholds, so every need is at
        least 1, and every call has a group whose value meets its leader's
        need: the first pick follows ``any_meets``, and afterwards the
        picked group's value never drops below its need.  So the best ratio
        is positive, and the first agent of best ratio is its group's
        leader, since a group's members share one value and the leader has
        the group's least (threshold, index).  A scan over the leaders in
        index order that keeps its pick unless a later ratio is strictly
        greater thus replays the scan over every remaining agent.  It runs
        in integers: S1 / t1 > S2 / t2 reads S1 * (t2 L2) > S2 * (t1 L1),
        the same test scaled by L1 * L2 > 0.
        """
        best = leaders[0]
        best_s = group_vals[self.group_of[best]]
        for pos in leaders[1:]:
            s = group_vals[self.group_of[pos]]
            num, den = self.weight[pos]
            best_num, best_den = self.weight[best]
            if s * best_num * den > best_s * num * best_den:
                best, best_s = pos, s
        return best

    def pick_floor(self, leaders: Sequence[int], pick: int, group_vals: Mapping[int, int]) -> int:
        """The least scaled value S of ``pick``'s group that meets the
        pick's need and, set as that group's value in ``group_vals``,
        leaves ``pick(leaders, group_vals)`` returning ``pick``, a leader.

        ``pick`` returns the first leader of greatest ratio, so S must beat
        every earlier leader's ratio strictly and match every later one's.
        Against leader l of value s, S / t > s / t_l reads
        S * (t_l L_l) * den > s * den_l * (t L), where (t L, den) is the
        pick's weight and (t_l L_l, den_l) leader l's.  With
        y = (t_l L_l) * den and x = s * den_l * (t L), S >= x // y + 1 beats
        l, and S >= ceil(x / y) matches it.  Every threshold is positive,
        so y > 0.
        """
        num, den = self.weight[pick]
        floor = self.need[pick]
        strict = True
        for pos in leaders:
            if pos == pick:
                strict = False
                continue
            other_num, other_den = self.weight[pos]
            x = group_vals[self.group_of[pos]] * other_den * num
            y = other_num * den
            floor = max(floor, x // y + 1 if strict else -(-x // y))
        return floor


def _run_phase(
    table: BlockTable,
    pool: _Pool,
    size: int,
    roster: _Roster,
    trace: list[TraceEvent],
    budget: list[int] | None,
    log: _PhaseLog | None = None,
) -> None:
    """Repeatedly allocate the first qualifying size-``size`` bundle,
    appending one trace event per allocation and discarding its agent
    from ``roster``.

    Each allocation is one sweep over the realizable multisets in
    ascending order of their smallest realization (``_realizations``),
    and at each one over the groups in play in ascending order of their
    least remaining index (``_Roster.firsts``), stopping at the first
    group whose least index comes after the agent already found (no
    agent leaves mid-sweep, so leader needs are read once per sweep).  A
    group whose value meets its leader's need offers its least-index
    member of met need (``_Roster.first_meeting``); the first multiset
    with an offer goes to the least offer.  That is the first qualifying
    (multiset, agent) of the whole search.  An existence check values
    the pool per group in play, capped at ``size`` items, until a group's
    value meets its leader's need; the phase ends when none does.  It
    runs before the first sweep, and before each later one as soon as
    that sweep needs a value not in the memo.  Skipping it never changes
    a trace: had it failed, no multiset would meet a leader's need.

    The memo, ``table.phase_memo``, keeps each uncapped (multiset, group)
    value read; it depends only on the table, which ``fair_divide`` shares
    across rounds and ``allocate_naive`` across sizes.  A hit is free.

    The floor: a sweep after an allocation starts above ``key[0]``, the
    first item of the bundle just taken.  Taking items only moves window
    fronts up, so each multiset's smallest realization only rises.  One
    that now starts at or below the floor started below it before (the
    floor item is gone), so the last sweep, or by induction an earlier
    one, reached it before its pick and it missed every group leader.
    It still does: values and thresholds never change within the phase,
    agents only leave, and a group's next leader has a need at least as
    high.  A multiset swept again after its realization rose past the
    floor is answered from the memo, since each (multiset, group) value
    is read at most once per table, from scratch with
    ``BlockTable.value``.  So a phase with G groups in play, B blocks in
    the pool and a allocations spends at most
    G * (1 + a) + G * C(B+size-1, size) queries, fewer after earlier ones.

    Replay: given a ``log`` (``_PhaseLog``), the phase first takes the
    previous round's sweeps of this size that still stand, at no query
    (``_PhaseLog.replay``), then resumes the first that does not from the
    last replayed pick's floor, or through the existence check when none
    was replayed.  It logs every sweep it runs: at a multiset with no
    offer every group in play is read, since the early stop fires only
    after an offer, so the largest value each group reached before the
    pick costs no query; a phase that ends on its existence check logs
    that check's size-capped values, which bound every multiset's.
    """
    def reachable() -> bool:
        # the best size-`size` bundle of the pool meets some leader's need
        counts = pool.counts()
        capped: dict[int, int] = {}
        if roster.any_meets(lambda g: capped.setdefault(g, table.value(g, counts, size=size))):
            return True
        if log is not None:
            log.sweeps.append((size, capped, None))
        return False

    floor = -1 if log is None else log.replay(table, pool, size, roster, trace)
    if floor is None or (floor < 0 and (not roster or pool.total() < size or not reachable())):
        return
    memo = table.phase_memo
    checked = floor < 0
    while roster and pool.total() >= size:
        firsts = [(g, first, roster.need[roster.leader(g)]) for g, first in roster.firsts().items()]
        agent = -1
        missed: list[dict[int, int]] = []
        for key, ms in _realizations(pool, size, floor, budget):
            vals = memo.get(ms)
            if vals is None:
                vals = memo[ms] = {}
            for g, first, need in firsts:
                if 0 <= agent < first:
                    break  # no later group has an earlier member
                v = vals.get(g)
                if v is None:
                    if not checked:
                        if not reachable():
                            return
                        checked = True
                    v = vals[g] = table.value(g, dict(ms))
                if v >= need:
                    pos = roster.first_meeting(g, v, first)
                    if agent < 0 or pos < agent:
                        agent, agent_s = pos, v
            if agent >= 0:
                break
            if log is not None:
                missed.append(vals)
        else:
            if log is not None:
                log.sweeps.append((size, _tops(missed, firsts), None))
            return

        g = table.group_of[agent]
        for b, k in ms:
            pool.take_front(b, k)
        value = Fraction(agent_s, table.scale[g])
        trace.append(TraceEvent(PHASE, agent, key, value, roster.thresholds[agent]))
        if log is not None:
            log.sweeps.append((size, _tops(missed, firsts), (key, ms, agent, value)))
        roster.discard(agent)
        floor, checked = key[0], False


def _tops(
    missed: Sequence[dict[int, int]], firsts: Sequence[tuple[int, int, int]]
) -> dict[int, int]:
    """Each group in play mapped to the largest value it has among the
    ``missed`` multisets' memo entries; empty when none was missed."""
    if not missed:
        return {}
    return {g: max(vals[g] for vals in missed) for g, _first, _need in firsts}


# One logged phase sweep: its size; each group in play mapped to the largest
# value the sweep read for it before its pick; and its pick (smallest
# realization, multiset, agent, value), or None where the phase ended.
Sweep = tuple[int, dict[int, int], tuple[tuple[int, ...], Multiset, int, Fraction] | None]


class _PhaseLog:
    """One round's phase sweeps on a shared block table, with the previous
    round's log to replay.

    ``fair_divide`` reruns the allocation each round with only the
    stranded agents' estimates shrunk, so the phases mostly repeat the
    previous round's decisions.  A sweep returns the least (multiset,
    agent) pair that qualifies, multisets in the order of their smallest
    realization, from the same floor when the pool and roster are the
    same.  The phases compare values only with the scaled needs, so
    when no need rose and the roster is the same, lowering some needs
    only adds qualifying pairs, and only for the lowered agents.  A
    logged sweep therefore still stands unless a lowered agent still in
    the roster
    (a) meets its new need at or below its group's logged largest value,
    so some multiset before the pick, or where the phase ended some
    multiset of the sweep or size-capped bundle of the pool, now
    qualifies; or
    (b) meets it at the pick's own multiset with a smaller index than the
    pick.  Its group's value there is in the memo: the sweep read every
    group whose least index precedes the pick's.
    Replaying a sweep that stands takes its pick's items and agent, as
    the sweep would, so by induction every replayed sweep starts from the
    pool, roster and floor it was logged at.  The log has no entry for a
    phase that ended because its roster emptied or its pool ran short,
    and the same state ends the replayed phase the same way.  Skipping an
    existence check never changes a trace (``_run_phase``), so the rounds
    trace what rounds run from scratch trace, with fewer queries.

    ``needs`` and ``roster`` are this round's scaled needs and starting
    roster, ``sweeps`` the sweeps it ran or replayed, and ``replayed`` the
    number of phase events it took from the previous log.
    """

    def __init__(self, roster: _Roster, previous: _PhaseLog | None):
        self.needs = roster.need
        self.roster = tuple(roster.ascending)
        self.sweeps: list[Sweep] = []
        self.replayed = 0
        self.pending: Sequence[Sweep] = ()
        self.at = 0  # the next pending sweep to test
        self.lowered: list[int] = []
        if (
            previous is not None
            and previous.roster == self.roster
            and all(map(int.__le__, self.needs, previous.needs))
        ):
            self.pending = previous.sweeps
            self.lowered = [
                pos for pos in self.roster if self.needs[pos] < previous.needs[pos]
            ]

    def replay(
        self,
        table: BlockTable,
        pool: _Pool,
        size: int,
        roster: _Roster,
        trace: list[TraceEvent],
    ) -> int | None:
        """Take the pending sweeps of size ``size`` that stand, in order.
        Returns None when a replayed sweep ended the phase, else the floor
        to resume from: the last replayed bundle's first item, or -1 when
        none was replayed.  The first sweep that does not stand ends the
        replay for the rest of the round."""
        floor = -1
        memo = table.phase_memo
        while self.at < len(self.pending) and self.pending[self.at][0] == size:
            sweep = self.pending[self.at]
            _size, tops, pick = sweep
            for pos in self.lowered:
                g, need = table.group_of[pos], roster.need[pos]
                if need <= tops.get(g, -1) or (
                    pick is not None and pos < pick[2] and need <= memo[pick[1]][g]
                ):
                    self.pending = ()
                    return floor
            self.sweeps.append(sweep)
            self.at += 1
            if pick is None:
                return None
            key, ms, agent, value = pick
            for b, k in ms:
                pool.take_front(b, k)
            trace.append(TraceEvent(PHASE, agent, key, value, roster.thresholds[agent]))
            roster.discard(agent)
            if agent in self.lowered:
                self.lowered.remove(agent)
            self.replayed += 1
            floor = key[0]
        return floor


def _realizations(
    pool: _Pool, size: int, floor: int, budget: list[int] | None
) -> Iterator[tuple[tuple[int, ...], Multiset]]:
    """(smallest realization, multiset) for each realizable size-``size``
    multiset of the pool's blocks whose smallest realization starts above
    item ``floor``, in ascending order of the realization.

    The smallest realization takes the front k items of each block the
    multiset holds k of, so, sorted, it lists each block's items in
    window order.  A depth-first walk whose every node appends the next
    item of some block above the last item appended thus reaches each
    one once, and in ascending order when it tries those items in
    ascending order.  Each node of the walk costs one unit of ``budget``
    when one is given, and overrunning it raises ``DeskCapError``.
    Costs no query.
    """
    items = pool.table.block_items
    lo, hi = pool.lo, pool.hi
    Step = tuple[int, int, int]  # (item, block, position in the block)

    def walk(nexts: list[Step], path: tuple[Step, ...]) -> Iterator:
        # nexts: each block's next item above the path's last, ascending
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise DeskCapError("subset enumeration exceeded the node budget")
        if len(path) == size:
            counts = {b: p + 1 - lo[b] for _j, b, p in path}
            yield tuple(j for j, _b, _p in path), tuple(sorted(counts.items()))
            return
        for i, (_j, b, p) in enumerate(nexts):
            rest = nexts[i + 1 :]
            if p + 1 < hi[b]:
                insort(rest, (items[b][p + 1], b, p + 1))
            yield from walk(rest, path + (nexts[i],))

    heads = [(items[b][lo[b]], b, lo[b]) for b in range(len(items)) if lo[b] < hi[b]]
    return walk(sorted(head for head in heads if head[0] > floor), ())


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
    multiplied in integers, ties by index, over each group's
    least-threshold member), then removes the first item
    in ascending (value for that agent, item index) order whose removal
    keeps the agent's scaled value at or above ceil(threshold * L_g).
    Within a block all items are interchangeable, so removability is
    tested once per block and the front (smallest-index) item is the one
    removed.  The roster does not change during a scan, so the groups in
    play and their leaders, the only agents a pick can return, are listed
    once up front, the leaders in index order.  One ``RunningValues``
    state holds the scan's pool and answers every query: the first
    valuation of the pool, each refresh of a stale group value, and each
    removability test and batch probe (``without``: the value were k
    items of one block gone).  The state charges each answer as one
    query, exactly as if it had been valued from scratch.

    Lazy re-pick: within a scan the roster is fixed and every group's
    value only falls, so a value read earlier is an upper bound on the
    value now.  The pick runs on the values at hand; if the winner's
    group is stale, its value is read, and the pick runs again, until
    the winner's group is fresh.  The winner's ratio is then exact and
    every stale ratio is at least the true one, so no agent's true ratio
    beats it and no earlier agent ties it: the pick is the one-at-a-time
    pick.  After a removal only the picked group is fresh: its value is
    the answer for the k items the batch took off bstar, the walk's own
    ``without`` answer when k = 1 and the last passing probe's otherwise,
    so it is never read again.

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

    Batching: each step takes k items off bstar's front at once, for the
    largest k <= k_bound for which the picked group's value without them,
    ``without(gj, bstar, k)``, meets the need and, set as the group's
    value, leaves ``pick`` the pick over the values at hand.  k_bound is
    the number of bstar's items below its rival's front, or all of them
    without a rival; k = 1 is always taken, as the one-at-a-time scan
    takes it.  Both tests are one comparison with the step's pick floor
    (``_Roster.pick_floor``), the least value of the picked group that
    meets the need and keeps the pick against the values at hand: a
    value passes exactly when it is at least the floor, so the tests
    hold on a prefix of k, as the value only falls while k grows.  When
    the walk's own answer for one item is below the floor, no larger k
    is probed.  The batch replays k one-at-a-time steps, since before
    each removal i < k the scan would pick the same agent and walk to
    bstar again:
    (a) stale group values are upper bounds, and the picked group's true
    value after i removals is at least the k-th one, so ``pick``, which
    wins with the k-th value against the values at hand, wins against
    every true ratio, ties by index included: it is the exact pick;
    (b) dead blocks stay dead, and every block the walk tested before
    bstar, or between bstar and its rival, failed and so is dead for the
    pick;
    (c) k_bound keeps bstar's front below its rival's, so bstar stays
    first among the live blocks of its value, and bstar stays removable
    because the value without i + 1 items is at least the k-th, which
    meets the need.
    The search (``_batch``) probes k_bound first.  Removing one item
    lowers a value by at most that item's own value vb (the best
    feasible subset less the item stays feasible), so a failed probe
    rules out every k within ceil((floor - value) / vb) items below it
    at no query; the search probes the largest k left, cand, then
    gallops and bisects below it.  When the same bound, or a probe at
    k + 1, shows that the value without k + 1 items fails the need,
    that is the next step's test of bstar, so bstar is dead for the
    pick.

    Query bound: a scan with G groups in play, B blocks and p items in
    its pool spends at most G + (G+1)·B + p·(2 + ceil(log2 p) + G): the
    first values, at most B failed tests per agent picked, and per step
    at most two passing tests (bstar and its rival), at most G - 1
    refreshes and the batch's probes, which leaves 1 + ceil(log2 p)
    probes per step.  A step that takes k items stands for k of the p
    steps the term allows.  At k = 1 its probes are k_bound, cand when
    cand >= 2, and 2 when cand >= 3; as cand < k_bound, that is one
    probe when k_bound = 2, two when k_bound = 3 and three when
    k_bound >= 4, so at most 1 + ceil(log2 k_bound) <= 1 + ceil(log2 p).
    At k >= 2 they are k_bound, cand, a gallop of a passes and one
    failure with 2^a <= k, and at most a bisection probes: at most
    3 + 2·log2 k <= 3 + 2·ceil(log2 p).  So the step's whole cost, at
    most 2 + (G - 1) + 3 + 2·ceil(log2 p) = 4 + G + 2·ceil(log2 p), fits
    the 2·(2 + ceil(log2 p) + G) of two steps, as G >= 1.

    Removals come off each block's front, so the kept items are the back
    of its window; the scan takes them off the pool and returns (bundle
    in ascending item order, chosen agent position, that agent's value
    for the bundle as a fraction).
    """
    groups = roster.groups()
    leaders = sorted(map(roster.leader, groups))
    state = RunningValues(table, groups, pool.counts())
    local = state.counts

    def front(b: int) -> int:
        return table.block_items[b][pool.hi[b] - local[b]]

    group_vals = {g: state.value(g) for g in groups}
    if not roster.any_meets(group_vals.__getitem__):
        return None
    fresh = set(groups)
    orders: dict[int, list[tuple[int, int, int]]] = {}
    dead: dict[int, set[int]] = {}
    while True:
        pick = roster.pick(leaders, group_vals)
        gj = table.group_of[pick]
        if gj not in fresh:
            group_vals[gj] = state.value(gj)
            fresh.add(gj)
            continue
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
            after = state.without(gj, b, 1)
            if after < need:
                dead_j.add(b)
            elif first is None:
                first, s_after = entry, after
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

        k, s, bstar_dead = 1, s_after, False
        if k_bound > 1:
            k, s, bstar_dead = _batch(
                state, roster, leaders, group_vals, pick, bstar, k_bound, s_after
            )
        state.change(bstar, -k)
        for g, keyed in orders.items():
            vb = table.val[g][bstar]
            del keyed[bisect_left(keyed, (vb, fstar, bstar))]
            if bstar in local:
                insort(keyed, (vb, front(bstar), bstar))
        group_vals[gj] = s
        if bstar_dead:
            dead_j.add(bstar)
        fresh = {gj}

    bundle = sorted(j for b, k in local.items() for j in pool.take_back(b, k))
    return tuple(bundle), pick, Fraction(group_vals[gj], table.scale[gj])


def _batch(
    state: RunningValues,
    roster: _Roster,
    leaders: Sequence[int],
    group_vals: Mapping[int, int],
    pick: int,
    bstar: int,
    k_bound: int,
    s_after: int,
) -> tuple[int, int, bool]:
    """(k, value, dead) for one scan step: the largest k in [1, k_bound]
    whose value, ``state.without(g, bstar, k)`` for the pick's group g,
    meets the pick's need and, set as g's value in ``group_vals``, leaves
    ``pick`` the pick; that k's value; and whether the value without
    k + 1 items provably fails the need.  ``s_after`` is the value
    without one item, which the walk read.

    Both tests are one comparison with the step's pick floor
    (``_Roster.pick_floor``): a value passes exactly when it is at least
    the floor.  When ``s_after`` fails it, k is 1 at no query.

    Otherwise the search probes k_bound first.  Removing one more item
    lowers the value by at most vb, one bstar item's scaled value for g,
    since the best feasible subset minus that item stays feasible
    (heredity), so without(k) is at most without(j) + (j - k)·vb for
    every j > k.  When k_bound fails with
    value s, every k above cand = k_bound - ceil((floor - s) / vb) fails
    too (vb > 0 there, as the value moved), and cand >= 1 since k = 1
    passes.  The search then probes cand; if cand fails as well, it
    gallops 2, 4, 8, ... below cand and bisects between the last pass
    and the first failure.  When the result is k, with 2^a <= k the last
    gallop pass, that is at most 3 + 2a probes: 1 when k_bound passes, 2
    when cand does, and at k = 1 at most 1 + ceil(log2 k_bound) (k_bound,
    then cand only when cand >= 2, so k_bound >= 3, then 2 only when
    cand >= 3, so k_bound >= 4).  The same bound proves bstar dead for
    the pick, at no query, when some failed probe j gives
    without(k + 1) <= without(j) + (j - k - 1)·vb < need.
    """
    floor = roster.pick_floor(leaders, pick, group_vals)
    if s_after < floor:
        return 1, s_after, False
    g = roster.group_of[pick]
    vb = state.table.val[g][bstar]
    probed = {1: s_after}

    def keeps(k: int) -> bool:
        if k not in probed:
            probed[k] = state.without(g, bstar, k)
        return probed[k] >= floor

    lo = 1
    if keeps(k_bound):
        lo = k_bound
    else:
        cand = k_bound - (floor - probed[k_bound] + vb - 1) // vb
        if cand > 1 and keeps(cand):
            lo = cand
        else:
            k = 2
            while k < cand and keeps(k):
                lo, k = k, 2 * k
            hi = min(k, cand)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if keeps(mid):
                    lo = mid
                else:
                    hi = mid
    need = roster.need[pick]
    dead = any(v + (j - lo - 1) * vb < need for j, v in probed.items() if j > lo)
    return lo, probed[lo], dead


def allocate_from_estimates(
    instance: "Instance",
    mu: tuple[Fraction, ...],
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
    it once per run and hands it to every round as ``_table``.  On a table
    passed in, the phases replay the sweeps of the table's last logged
    call that still stand and log this call's (``_PhaseLog``); a fresh
    table logs nothing.
    """
    check_parameters(alpha=alpha)
    n = instance.n
    if len(mu) != n:
        raise InputError(f"estimate vector has {len(mu)} entries, expected {n}")
    for i, entry in enumerate(mu):
        check_parameters(i, estimate=entry)

    table = _block_table(instance.spec, instance.valuations) if _table is None else _table
    pool = _Pool(table)
    thresholds = [alpha * entry for entry in mu]
    # A zero estimate gets the empty bundle.  Under ``fair_divide`` an
    # estimate is zero only where ``mms_bounds`` certifies a zero maximin
    # share (m * v = 0), so the empty bundle meets the guarantee.
    trace = [
        TraceEvent(ZERO_ESTIMATE, pos, (), ZERO, ZERO)
        for pos in range(n)
        if mu[pos] == 0
    ]
    roster = _Roster(
        table.group_of, table.scale, thresholds, (pos for pos in range(n) if mu[pos])
    )

    log = None if _table is None else _PhaseLog(roster, table.phase_log)
    for size in (1, 2, 3):
        _run_phase(table, pool, size, roster, trace, None, log)
    if log is not None:
        table.phase_log = log

    while roster and pool.total():
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
    into few blocks.  A gate stops the loop once no remaining agent values
    the whole pool at alpha (values are monotone, so nothing can qualify
    afterwards).  It values the pool once per remaining value group, first
    and after each size that allocated: one that allocates nothing leaves
    the pool and the roster, and so the gate's answer, as they were.
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

    gated = -1  # the trace length at the last gate
    for size in range(1, instance.num_items + 1):
        if pool.total() < size:
            break
        if len(trace) != gated:
            gated = len(trace)
            counts = pool.counts()
            if not roster.any_meets(lambda g: table.value(g, counts)):
                break
        _run_phase(table, pool, size, roster, trace, budget)

    return Allocation(tuple(trace), frozenset(roster.ascending))


def fair_divide(
    instance: "Instance",
    alpha: Fraction,
    delta: Fraction,
    *,
    stats: RunStats | None = None,
) -> tuple[Allocation, tuple[Fraction, ...]]:
    """Estimate-driven driver around ``allocate_from_estimates``.

    Estimates start at the upper end of ``mms_bounds(spec, val, n)``,
    m * (n-th largest value of an item feasible alone), a certified upper
    bound on each agent's maximin share, taken once per value group
    (agents sharing one value row).
    Each round reruns the allocation on one block table built for the
    whole run (it depends only on the instance): its phase memo spares
    later rounds the values earlier ones read, and its phase log lets a
    round replay the previous round's phase decisions that still hold.
    If everyone is allocated it returns, otherwise every unallocated
    agent's estimate shrinks by (1 - delta).
    For alpha <= 11/30, an agent whose estimate has dropped to its
    maximin share or below is always allocated, so the loop ends within
    n * ceil(log_{1/(1-delta)} m) + 1 rounds and every agent receives
    value at least (1 - delta) * alpha * (its maximin share).  Overrunning
    that bound is a ``FairdivError``, or an ``InputError`` above 11/30,
    where no bound is proven.  ``stats``, when given, gets one entry per
    round in ``rounds``, ``queries`` and ``replayed``, the latter two read
    off the block table: its query counters and its phase log.
    """
    check_parameters(alpha=alpha, delta=delta)
    n = instance.n
    m = instance.num_items
    table = _block_table(instance.spec, instance.valuations)
    uppers = [mms_bounds(instance.spec, rep, n)[1] for rep in table.reps]
    mu = [uppers[g] for g in table.group_of]
    shrink = ONE - delta
    allowed = iteration_bound(n, m, delta)

    for _ in range(allowed):
        estimates = tuple(mu)
        before = sum(rep.query_count for rep in table.reps)
        allocation = allocate_from_estimates(instance, estimates, alpha, _table=table)
        if stats is not None:
            stats.rounds.append((estimates, allocation.unallocated_agents))
            stats.queries.append(sum(rep.query_count for rep in table.reps) - before)
            stats.replayed.append(table.phase_log.replayed)
        if not allocation.unallocated_agents:
            return allocation, estimates
        for pos in allocation.unallocated_agents:
            mu[pos] *= shrink
    if alpha > Fraction(11, 30):
        raise InputError(
            f"fair_divide did not converge within {allowed} rounds; that bound is "
            f"proven only for alpha <= 11/30, got alpha = {alpha}"
        )
    raise FairdivError(
        f"fair_divide did not converge within the proven bound of {allowed} rounds"
    )


def iteration_bound(n: int, m: int, delta: Fraction) -> int:
    """n * ceil(log_{1/(1-delta)} m) + 1, computed exactly."""
    check_parameters(n=n, m=m, delta=delta)
    steps = 0
    if m > 1:
        shrink = ONE - delta
        power = ONE
        target = Fraction(1, m)
        while power > target:
            power *= shrink
            steps += 1
    return n * steps + 1


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
    """Reject an allocation that does not fit the instance, by the rules
    that need it (``Allocation`` holds the others): no agent id outside
    [0, n), no bundle item outside [0, m), and no agent left out of both
    the events and ``unallocated_agents``."""
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
    floor meets it, after ``require_fits_instance``; a floor keyed by
    anything but an int agent in [0, n) is an ``InputError``.

    An agent without an event holds the empty bundle, worth 0 at no
    query.  For any other floored agent, the event's recorded ``value``
    must equal the bundle's true value (``value-mismatch``).  The value
    check reuses the floor check's ``bundle_value`` call, so verification
    charges one query per floored agent with an event and no more.
    """
    require_fits_instance(allocation, instance)
    for agent, floor in floors.items():
        if not _is_int(agent):
            raise InputError(f"floor keys must be int agents, got {agent!r}")
        check_parameters(agent, floor=floor)
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
