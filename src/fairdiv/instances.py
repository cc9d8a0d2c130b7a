"""Instance builders, random families, and JSON wire formats.

An instance bundles a hereditary set system with one valuation per
agent.  A serialized instance is one JSON document in which position
implies every item and agent id: ``valuations`` holds either one row that
every agent shares or n rows in agent order, each row a list of m
canonical rationals with item j's value at position j, and a capacity
set system's ``class_of`` holds item j's class at position j, indexing
its ``caps``.  Allocations serialize to a JSON document mirroring the
trace plus a summary block.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .allocator import MINIMAL, PHASE, ZERO_ESTIMATE, Allocation, TraceEvent
from .errors import InputError, ParseError
from .rationals import format_rational, parse_rational
from .setsystem import Capacity, SetSystemSpec, capacity, explicit_maximal
from .valuation import Valuation

RANDOM_FAMILIES = ("free", "explicit-antichain", "capacity")
# The most agents a document may declare: a one-row document of a few
# hundred bytes otherwise builds one Valuation per agent.
MAX_AGENTS = 100_000

_EVENT_KINDS = (PHASE, MINIMAL, ZERO_ESTIMATE)


@dataclass(frozen=True)
class Instance:
    """Agents, items (dense ids 0..m-1), a set system, and valuations."""

    name: str
    n: int
    spec: SetSystemSpec
    valuations: tuple[Valuation, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"need at least one agent, got {self.n}")
        if len(self.valuations) != self.n:
            raise InputError(
                f"{len(self.valuations)} valuations for {self.n} agents"
            )
        for i, val in enumerate(self.valuations):
            if val.num_items != self.spec.num_items:
                raise InputError(
                    f"valuation {i} covers {val.num_items} items, "
                    f"spec has {self.spec.num_items}"
                )

    @property
    def num_items(self) -> int:
        return self.spec.num_items

    @property
    def identical_agents(self) -> bool:
        """Whether all agents share one value row object: one ``value_groups`` group."""
        row = self.valuations[0].values
        return all(val.values is row for val in self.valuations)


def footnote_instance() -> Instance:
    """Three items a, b, c (ids 0, 1, 2) with maximal sets {a} and {b, c}
    and values 3, 2, 2.  One agent; replicate to taste."""
    spec = explicit_maximal(3, [{0}, {1, 2}])
    values = (Fraction(3), Fraction(2), Fraction(2))
    return Instance(
        name="footnote",
        n=1,
        spec=spec,
        valuations=(Valuation._wrap(values),),
    )


# Table 1's classes A..F, as classes 0..5: (value, capacity).
_ADVERSARIAL_ROWS: tuple[tuple[Fraction, int], ...] = (
    (Fraction(40, 107), 2),
    (Fraction(23, 107), 1),
    (Fraction(17, 107), 2),
    (Fraction(10, 107), 5),
    (Fraction(4, 107), 11),
    (Fraction(1, 107), 40),
)


def table1_instance(n: int) -> Instance:
    """The adversarial capacity instance with identical agents.

    Six item classes A..F, which are classes 0..5, with quantities
    (n, n/3, 2n/3, 2n/3, n/3, 40n), values (40, 23, 17, 10, 4, 1)/107 and
    capacities (2, 1, 2, 5, 11, 40).  n must be a positive multiple of
    330 so all quantities are integers.  Items are laid out class by
    class, A first.
    """
    if n <= 0 or n % 330:
        raise InputError(f"agent count must be a positive multiple of 330, got {n}")
    quantities = (n, n // 3, 2 * n // 3, 2 * n // 3, n // 3, 40 * n)
    class_of = [c for c, count in enumerate(quantities) for _ in range(count)]
    spec = capacity(class_of, [cap for _, cap in _ADVERSARIAL_ROWS])
    row = tuple(_ADVERSARIAL_ROWS[c][0] for c in class_of)
    return Instance(
        name=f"table1-n{n}",
        n=n,
        spec=spec,
        valuations=tuple(Valuation._wrap(row) for _ in range(n)),
    )


def random_instance(
    seed: int,
    m: int,
    n: int,
    family: str,
    value_range: tuple[int, int] = (8, 4),
) -> Instance:
    """Seed-deterministic random instance from one of three families.

    ``free`` makes every subset feasible (one maximal set holding all
    items).  ``explicit-antichain`` draws random subsets, prunes
    dominated ones, and covers stray items with singletons so every item
    is feasible on its own.  ``capacity`` assigns items to random classes
    with capacities of at least one.  Values are uniform positive
    rationals with numerators and denominators bounded by ``value_range``.
    """
    if m < 0 or n < 1:
        raise InputError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    if family not in RANDOM_FAMILIES:
        raise InputError(f"unknown family {family!r}, expected one of {RANDOM_FAMILIES}")
    max_num, max_den = value_range
    if max_num < 1 or max_den < 1:
        raise InputError(f"value bounds must be >= 1, got {max_num} and {max_den}")
    rng = random.Random(seed)
    valuations = tuple(
        Valuation._wrap(
            tuple(
                Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
                for _ in range(m)
            )
        )
        for _ in range(n)
    )

    if family == "free":
        spec: SetSystemSpec = explicit_maximal(m, [range(m)])
    elif family == "capacity":
        k = rng.randint(1, max(1, m))
        assignment = [rng.randrange(k) for _ in range(m)]
        # classes in drawn order, the empty ones left out
        drawn = sorted(set(assignment))
        caps = [rng.randint(1, assignment.count(c)) for c in drawn]
        index = {c: i for i, c in enumerate(drawn)}
        spec = capacity([index[c] for c in assignment], caps)
    else:
        num_sets = rng.randint(1, max(2, m))
        sets: list[set[int]] = []
        for _ in range(num_sets):
            s = {j for j in range(m) if rng.random() < 0.5}
            if s:
                sets.append(s)
        covered = set().union(*sets) if sets else set()
        for j in range(m):
            if j not in covered:
                sets.append({j})
        spec = explicit_maximal(m, sets)

    return Instance(
        name=f"random-{family}-{seed}",
        n=n,
        spec=spec,
        valuations=valuations,
        seed=seed,
    )


def _spec_to_doc(spec: SetSystemSpec) -> dict[str, Any]:
    if isinstance(spec, Capacity):
        return {"type": "capacity", "caps": list(spec.caps), "class_of": list(spec.class_of)}
    return {
        "type": "explicit",
        "maximal_sets": [sorted(s) for s in spec.maximal_sets],
    }


def serialize_instance(instance: Instance) -> str:
    """Render an instance document: item j at position j of every row and
    of ``class_of``, and one value row when all agents share one
    (``Instance.identical_agents``), else n rows in agent order."""
    doc: dict[str, Any] = {"name": instance.name, "n": instance.n}
    doc["set_system"] = _spec_to_doc(instance.spec)
    rows = instance.valuations[:1] if instance.identical_agents else instance.valuations
    doc["valuations"] = [[format_rational(v) for v in val.values] for val in rows]
    if instance.seed is not None:
        doc["seed"] = instance.seed
    return json.dumps(doc) + "\n"


def _load_json(text: str) -> Any:
    """The JSON document ``text``; a ``ParseError`` where it is not JSON,
    or where Python cannot read it: an integer literal longer than
    ``sys.get_int_max_str_digits()`` digits, or nesting deeper than the
    recursion limit.  Neither has a line and column, so both are located
    at the whole document."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, location=f"line {exc.lineno} column {exc.colno}") from exc
    except ValueError:
        raise ParseError("an integer literal has too many digits", location="document") from None
    except RecursionError:
        raise ParseError("lists and objects nested too deeply", location="document") from None


def _require(doc: Any, key: str, where: str) -> Any:
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object, got {type(doc).__name__}", location=where)
    if key not in doc:
        raise ParseError(f"missing field {key!r}", location=where)
    return doc[key]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _distinct_ints(value: Any, where: str) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise ParseError("expected a list of integers", location=where)
    if len(set(value)) != len(value):
        raise ParseError("lists an entry more than once", location=where)
    return value


def _nonnegative(text: Any, what: str, location: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ParseError as exc:
        raise ParseError(str(exc), location=location) from None
    if value.numerator < 0:
        raise ParseError(f"{what} must be nonnegative, got {text!r}", location=location)
    return value


def _parse_values_row(row: Any, m: int, where: str) -> tuple[Fraction, ...]:
    """One agent's values, item j's at position j.  Each distinct value
    string is checked and parsed once per row; only strings are memoized,
    since JSON ``true`` and ``1.0`` hash like ``1``."""
    if not isinstance(row, list) or len(row) != m:
        raise ParseError(f"expected a list of {m} rationals, like the first row", location=where)
    values = []
    parsed: dict[str, Fraction] = {}
    for j, text in enumerate(row):
        value = parsed.get(text) if type(text) is str else None
        if value is None:
            value = _nonnegative(text, "item values", f"{where}[{j}]")
            if type(text) is str:
                parsed[text] = value
        values.append(value)
    return tuple(values)


def parse_instance(text: str) -> Instance:
    """Read an instance document, which holds no item or agent ids: m is
    the length of the first value row, and ``valuations`` holds one row
    that every agent shares or n rows in agent order.  Any fault is a
    located ``ParseError``, raised before any ``Valuation`` is built."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    name = _require(doc, "name", "instance")
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}", location="name")
    n = _require(doc, "n", "instance")
    if not _is_int(n) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}", location="n")
    if n > MAX_AGENTS:
        raise ParseError(f"n must be at most {MAX_AGENTS}, got {n}", location="n")
    val_docs = _require(doc, "valuations", "instance")
    if not isinstance(val_docs, list) or len(val_docs) not in (1, n):
        raise ParseError(
            f"valuations must hold one row that every agent shares or {n} rows",
            location="valuations",
        )
    if not isinstance(val_docs[0], list):
        raise ParseError("a value row must be a list of rationals", location="valuations[0]")
    m = len(val_docs[0])

    ss = _require(doc, "set_system", "instance")
    sstype = _require(ss, "type", "set_system")
    if sstype not in ("capacity", "explicit"):
        raise ParseError(f"unknown set_system type {sstype!r}", location="set_system.type")
    try:
        if sstype == "capacity":
            caps, class_of = (_require(ss, key, "set_system") for key in ("caps", "class_of"))
            if not isinstance(caps, list) or not isinstance(class_of, list) or len(class_of) != m:
                raise InputError(f"caps must be a list and class_of a list of {m} classes")
            spec: SetSystemSpec = capacity(class_of, caps)
        else:
            spec = explicit_maximal(m, _require(ss, "maximal_sets", "set_system"))
    except (InputError, TypeError) as exc:
        raise ParseError(f"bad set system: {exc}", location="set_system") from exc

    seed = doc.get("seed")
    if "seed" in doc and not _is_int(seed):
        raise ParseError(f"seed must be an integer, got {seed!r}", location="seed")
    rows = [_parse_values_row(row, m, f"valuations[{i}]") for i, row in enumerate(val_docs)]
    if len(rows) == 1:
        rows *= n  # one shared row object, which ``value_groups`` groups on
    valuations = tuple(Valuation._wrap(row) for row in rows)

    return Instance(
        name=name,
        n=n,
        spec=spec,
        valuations=valuations,
        seed=seed,
    )


def _summary(allocation: Allocation, alpha: Fraction | None) -> dict[str, Any]:
    """The ``summary`` block of an allocation document: the event and
    unallocated counts, and the least alpha * value / threshold over the
    events with positive thresholds (thresholds store alpha * mu), or
    None without alpha or such an event."""
    ratios = [e.value / e.threshold for e in allocation.trace if e.threshold > 0]
    return {
        "allocated": len(allocation.trace),
        "unallocated": len(allocation.unallocated_agents),
        "min_ratio_to_mu": alpha * min(ratios) if alpha is not None and ratios else None,
    }


def serialize_allocation(allocation: Allocation, *, alpha: Fraction) -> str:
    """Render an allocation document: the trace events, their ``_summary``
    and alpha."""
    events = [
        {
            "kind": event.kind,
            "phase": event.phase,
            "agent": event.agent,
            "bundle": list(event.bundle),
            "value": format_rational(event.value),
            "threshold": format_rational(event.threshold),
        }
        for event in allocation.trace
    ]
    summary = _summary(allocation, alpha)
    ratio = summary["min_ratio_to_mu"]
    doc = {
        "events": events,
        "unallocated_agents": sorted(allocation.unallocated_agents),
        "summary": dict(summary, min_ratio_to_mu=None if ratio is None else format_rational(ratio)),
        "alpha": format_rational(alpha),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_allocation(text: str) -> Allocation:
    """Read an allocation document.  Each event's ``phase`` must equal its
    bundle's size, and its kind is zero-estimate exactly when the bundle
    is empty; ``alpha`` and ``summary`` may be absent, but where present
    must be what ``serialize_allocation`` writes for the events
    (``_check_summary``).  Any fault is a located ``ParseError``."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("allocation document must be a JSON object")
    raw_events = _require(doc, "events", "allocation")
    if not isinstance(raw_events, list):
        raise ParseError("events must be a list", location="events")
    events: list[TraceEvent] = []
    agents: set[int] = set()
    for idx, entry in enumerate(raw_events):
        where = f"events[{idx}]"
        kind = _require(entry, "kind", where)
        if kind not in _EVENT_KINDS:
            raise ParseError(f"unknown event kind {kind!r}", location=where)
        agent = _require(entry, "agent", where)
        if not _is_int(agent):
            raise ParseError(f"agent must be an integer, got {agent!r}", location=f"{where}.agent")
        if agent in agents:
            raise ParseError(f"agent {agent!r} already has an event", location=where)
        agents.add(agent)
        phase = _require(entry, "phase", where)
        bundle = _distinct_ints(_require(entry, "bundle", where), f"{where}.bundle")
        if not _is_int(phase) or phase != len(bundle):
            raise ParseError(
                f"phase must be the bundle size {len(bundle)}, got {phase!r}",
                location=f"{where}.phase",
            )
        if (kind == ZERO_ESTIMATE) != (not bundle):
            raise ParseError(
                f"only zero-estimate bundles are empty, got {kind!r} with {len(bundle)} items",
                location=f"{where}.kind",
            )
        value, threshold = (
            _nonnegative(_require(entry, key, where), key, f"{where}.{key}")
            for key in ("value", "threshold")
        )
        events.append(TraceEvent(kind, agent, tuple(bundle), value, threshold))
    unallocated = frozenset(
        _distinct_ints(_require(doc, "unallocated_agents", "allocation"), "unallocated_agents")
    )
    both = sorted(unallocated & agents)
    if both:
        raise ParseError(
            f"agents {both} have events but are listed as unallocated",
            location="unallocated_agents",
        )
    allocation = Allocation(tuple(events), unallocated)
    _check_summary(doc, allocation)
    return allocation


def _check_summary(doc: dict[str, Any], allocation: Allocation) -> None:
    """Reject a ``summary`` other than the ``_summary`` of the document's
    events and ``alpha``, field by field; the ratio is compared by value,
    so ``"1"`` and ``"1/1"`` agree."""
    alpha = _nonnegative(doc["alpha"], "alpha", "alpha") if "alpha" in doc else None
    if "summary" not in doc:
        return
    for key, expected in _summary(allocation, alpha).items():
        where = f"summary.{key}"
        text = _require(doc["summary"], key, "summary")
        got = _nonnegative(text, key, where) if key == "min_ratio_to_mu" and text is not None else text
        # the type test keeps true from passing for 1
        if type(got) is not type(expected) or got != expected:
            raise ParseError(f"the events give {expected}, not {text!r}", location=where)
