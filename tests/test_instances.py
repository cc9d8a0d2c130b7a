import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    Capacity,
    InputError,
    Instance,
    ParseError,
    Valuation,
    bundle_value,
    footnote_instance,
    parse_allocation,
    parse_instance,
    parse_rational,
    random_instance,
    serialize_allocation,
    serialize_instance,
    table1_instance,
)
from fairdiv import Allocation, TraceEvent, allocate_from_estimates, fair_divide
from fairdiv.instances import MAX_AGENTS
from support import is_feasible, replicate_agents, table1_labels

ALPHA_PRIME = Fraction(40, 107)


@pytest.fixture(scope="module")
def table1():
    return table1_instance(330)


def test_table1_shape(table1):
    assert table1.n == 330
    assert table1.num_items == 43 * 330
    assert isinstance(table1.spec, Capacity)
    assert table1.spec.caps == (2, 1, 2, 5, 11, 40)
    counts = {}
    for label in table1_labels(table1):
        counts[label] = counts.get(label, 0) + 1
    n = 330
    assert counts == {"A": n, "B": n // 3, "C": 2 * n // 3, "D": 2 * n // 3, "E": n // 3, "F": 40 * n}


def test_table1_value_identities(table1):
    """Class values expressed in terms of the 40/107 ratio."""
    value_of = {}
    for j, label in enumerate(table1_labels(table1)):
        value_of.setdefault(label, table1.valuations[0].values[j])
    assert value_of["A"] == ALPHA_PRIME
    assert value_of["B"] == Fraction(13, 4) * ALPHA_PRIME - 1 == Fraction(23, 107)
    assert value_of["C"] == 1 - Fraction(9, 4) * ALPHA_PRIME == Fraction(17, 107)
    assert value_of["D"] == Fraction(1, 4) * ALPHA_PRIME == Fraction(10, 107)
    assert value_of["E"] == 2 - Fraction(21, 4) * ALPHA_PRIME == Fraction(4, 107)
    assert value_of["F"] == Fraction(1, 40) * ALPHA_PRIME == Fraction(1, 107)


def test_table1_two_part_types_consume_everything(table1):
    """2n/3 parts of one A, C, D + forty F and n/3 parts of one A, B, E +
    forty F partition the items, each part feasible with value 1."""
    by_class: dict[str, list[int]] = {}
    for j, label in enumerate(table1_labels(table1)):
        by_class.setdefault(label, []).append(j)
    n = table1.n
    f_iter = iter(by_class["F"])
    a_iter = iter(by_class["A"])
    parts = []
    for i in range(2 * n // 3):
        parts.append(
            [next(a_iter), by_class["C"][i], by_class["D"][i]]
            + [next(f_iter) for _ in range(40)]
        )
    for i in range(n // 3):
        parts.append(
            [next(a_iter), by_class["B"][i], by_class["E"][i]]
            + [next(f_iter) for _ in range(40)]
        )
    used = [j for part in parts for j in part]
    assert len(used) == len(set(used)) == table1.num_items
    assert next(f_iter, None) is None and next(a_iter, None) is None
    val = table1.valuations[0]
    for part in parts[:2] + parts[-2:]:
        assert is_feasible(table1.spec, part)
        assert bundle_value(table1.spec, val, part) == 1


def test_table1_requires_multiple_of_330():
    for bad in (0, -330, 100, 331):
        with pytest.raises(InputError):
            table1_instance(bad)
    assert table1_instance(660).n == 660


def test_footnote_template():
    inst = footnote_instance()
    assert inst.n == 1
    assert bundle_value(inst.spec, inst.valuations[0], {1, 2}) == 4
    assert not is_feasible(inst.spec, {0, 1})
    two = replicate_agents(inst, 2)
    assert two.n == 2
    assert two.valuations[0].values is two.valuations[1].values


def test_random_instance_deterministic():
    a = random_instance(42, m=7, n=3, family="explicit-antichain")
    b = random_instance(42, m=7, n=3, family="explicit-antichain")
    assert a == b
    c = random_instance(43, m=7, n=3, family="explicit-antichain")
    assert a != c


def test_random_free_family_everything_feasible():
    inst = random_instance(5, m=6, n=2, family="free")
    assert is_feasible(inst.spec, range(6))


def test_random_explicit_items_all_covered():
    for seed in range(10):
        inst = random_instance(seed, m=8, n=2, family="explicit-antichain")
        for j in range(8):
            assert is_feasible(inst.spec, {j})


def test_random_instance_rejects_unknown_family():
    with pytest.raises(InputError):
        random_instance(1, m=4, n=2, family="matroid")


_ROW = Valuation([3, 2, 2])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda spec: Instance("x", 0, spec, ()), r"^n: must lie in \[1, 100000\], got 0$"),
        (lambda spec: Instance("x", 2, spec, (_ROW,)), "1 valuations for 2 agents"),
        (lambda spec: Instance("x", 1, spec, (Valuation([1, 2]),)), "valuation 0 covers 2 items"),
        (lambda spec: replicate_agents(Instance("x", 2, spec, (_ROW, _ROW)), 3), "single-agent"),
        (
            lambda spec: replicate_agents(Instance("x", 1, spec, (_ROW,)), 0),
            r"^n: must lie in \[1, 100000\], got 0$",
        ),
        (lambda spec: random_instance(1, m=-1, n=2, family="free"), "m=-1"),
        (lambda spec: random_instance(1, m=4, n=0, family="free"), "n=0"),
    ],
    ids=[
        "no-agents",
        "rows-not-n",
        "row-length",
        "replicate-two-agents",
        "replicate-to-zero",
        "random-negative-m",
        "random-no-agents",
    ],
)
def test_instance_builders_reject_bad_arguments(build, message):
    with pytest.raises(InputError, match=message):
        build(footnote_instance().spec)


# Values that no int field of an instance or an allocation accepts.
_NOT_INTS = st.sampled_from([True, False, 1.5, "2", None])
_FRACTIONS = st.fractions(0, 5, max_denominator=7)
# What may replace one field of a well-formed event: anything of any kind.
_ANY_FIELD = {
    "kind": st.sampled_from(["phase", "minimal", "zero-estimate", "gift", None]),
    "agent": st.one_of(st.integers(-2, 5), _NOT_INTS),
    "bundle": st.one_of(
        st.lists(st.one_of(st.integers(0, 6), _NOT_INTS), max_size=3).map(tuple),
        st.lists(st.integers(0, 6), max_size=2),
    ),
    "value": st.one_of(st.fractions(-1, 5), st.integers(-1, 5), st.sampled_from([True, 0.5])),
}
_ANY_FIELD["threshold"] = _ANY_FIELD["value"]
_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _mostly(valid, invalid):
    """``valid`` three draws in four, else ``invalid``."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else invalid)


@st.composite
def _traces(draw):
    """A well-formed trace, then perhaps one field of one event replaced;
    one draw in four holds the events in a list."""
    events = []
    for agent in draw(st.lists(st.integers(-2, 5), unique=True, max_size=4)):
        bundle = tuple(draw(st.lists(st.integers(0, 6), unique=True, max_size=3)))
        kind = draw(st.sampled_from(["phase", "minimal"])) if bundle else "zero-estimate"
        events.append(TraceEvent(kind, agent, bundle, draw(_FRACTIONS), draw(_FRACTIONS)))
    if events and draw(st.booleans()):
        idx = draw(st.integers(0, len(events) - 1))
        field = draw(st.sampled_from(sorted(_ANY_FIELD)))
        events[idx] = replace(events[idx], **{field: draw(_ANY_FIELD[field])})
    return draw(_mostly(st.just(tuple), st.just(list)))(events)


def _reads_back(build, parse, serialize, fields):
    """Either ``build`` raises a ``ParseError`` located at one of the
    object's ``fields``, or the reader reads back what the writer writes
    for the object built."""
    try:
        built = build()
    except ParseError as exc:
        assert exc.location.split("[")[0].split(".")[0] in fields
        return
    assert parse(serialize(built)) == built


@_SETTINGS
@given(
    name=_mostly(st.text(max_size=3), st.one_of(st.integers(), st.none())),
    n=_mostly(st.integers(1, 4), st.one_of(st.sampled_from([0, -1, MAX_AGENTS + 1]), _NOT_INTS)),
    seed=_mostly(st.one_of(st.none(), st.integers(-(2**70), 2**70)), _NOT_INTS),
    extra_row=_mostly(st.just(0), st.just(1)),
    short_row=_mostly(st.just(False), st.just(True)),
)
def test_every_instance_built_reads_back(name, n, seed, extra_row, short_row):
    """Whatever ``Instance`` accepts, ``parse_instance`` reads back."""
    rows = [_ROW] * ((n if isinstance(n, int) and 1 <= n <= 4 else 1) + extra_row)
    if short_row:
        rows[-1] = Valuation([3, 2])
    build = lambda: Instance(name, n, footnote_instance().spec, tuple(rows), seed)  # noqa: E731
    _reads_back(build, parse_instance, serialize_instance, ("name", "n", "seed", "valuations"))


@_SETTINGS
@given(
    trace=_traces(),
    unallocated=_mostly(
        st.frozensets(st.integers(-2, 5), max_size=2),
        st.frozensets(st.one_of(st.integers(-2, 5), _NOT_INTS), min_size=1, max_size=2),
    ),
)
def test_every_allocation_built_reads_back(trace, unallocated):
    """Whatever ``Allocation`` accepts, ``parse_allocation`` reads back."""
    build = lambda: Allocation(trace, unallocated)  # noqa: E731
    serialize = lambda alloc: serialize_allocation(alloc, alpha=Fraction(1, 2))  # noqa: E731
    _reads_back(build, parse_allocation, serialize, ("events", "unallocated_agents"))


_EVENT = TraceEvent("phase", 0, (0, 1), Fraction(2), Fraction(1))


@pytest.mark.parametrize(
    "build, location",
    [
        (lambda: Allocation((_EVENT, replace(_EVENT, bundle=(2,))), frozenset()), "events[1]"),
        (lambda: Allocation((replace(_EVENT, kind="zero-estimate"),), frozenset()), "events[0].kind"),
        (
            lambda: Allocation((replace(_EVENT, kind="minimal", bundle=()),), frozenset()),
            "events[0].kind",
        ),
        (lambda: Allocation((replace(_EVENT, bundle=(1, 1)),), frozenset()), "events[0].bundle"),
        (lambda: Allocation((replace(_EVENT, kind="gift"),), frozenset()), "events[0]"),
        (lambda: Allocation((_EVENT,), frozenset({0})), "unallocated_agents"),
        (lambda: Allocation((replace(_EVENT, agent=True),), frozenset()), "events[0].agent"),
        (lambda: Allocation((replace(_EVENT, value=Fraction(-1)),), frozenset()), "events[0].value"),
        (lambda: Allocation([_EVENT], frozenset()), "events"),
        (lambda: Allocation(("phase",), frozenset()), "events"),
        (lambda: Instance("x", True, footnote_instance().spec, (_ROW,)), "n"),
        (lambda: Instance("x", "2", footnote_instance().spec, (_ROW, _ROW)), "n"),
        (lambda: random_instance("abc", 4, 2, "free"), "seed"),
        (lambda: Instance("x", 1, footnote_instance().spec, (_ROW,), 1.5), "seed"),
        (lambda: Instance(5, 1, footnote_instance().spec, (_ROW,)), "name"),
        (lambda: Instance("x", 1, footnote_instance().spec, ([3, 2, 2],)), "valuations[0]"),
        (lambda: Instance("x", 1, "spec", (_ROW,)), "set_system"),
        (lambda: Instance("x", 1, footnote_instance().spec, _ROW), "valuations"),
    ],
    ids=[
        "agent-with-two-events",
        "zero-estimate-with-items",
        "minimal-without-items",
        "item-twice-in-bundle",
        "kind-unknown",
        "agent-with-event-unallocated",
        "agent-bool",
        "value-negative",
        "trace-list",
        "trace-of-strings",
        "n-bool",
        "n-string",
        "random-seed-string",
        "seed-float",
        "name-int",
        "row-list",
        "spec-string",
        "valuations-one-row",
    ],
)
def test_objects_the_readers_refuse_are_not_built(build, location):
    """Built, each would be written to a document that its own reader
    refuses, or end in a ``TypeError``."""
    with pytest.raises(ParseError) as info:
        build()
    assert info.value.location == location


def test_instance_round_trips():
    fixtures = [
        footnote_instance(),
        table1_instance(330),
        random_instance(11, m=6, n=2, family="capacity"),
        random_instance(12, m=6, n=3, family="explicit-antichain"),
        random_instance(13, m=5, n=2, family="free"),
    ]
    for inst in fixtures:
        assert parse_instance(serialize_instance(inst)) == inst
    # the earlier per-item labels are read as any unknown field: not at all
    doc = json.loads(serialize_instance(fixtures[2]))
    doc["item_classes"] = ["A"] * 6
    assert parse_instance(json.dumps(doc)) == fixtures[2]


def test_identical_agents_shorthand_keeps_one_row(table1):
    doc = serialize_instance(table1)
    assert len(json.loads(doc)["valuations"]) == 1
    parsed = parse_instance(doc)
    assert parsed.n == 330
    assert parsed.valuations[0].values is parsed.valuations[329].values


def test_identical_agents_is_read_off_shared_rows():
    """Equal rows held in distinct objects serialize one row per agent and
    round-trip every row, as do different rows; a row that every agent
    shares serializes once, with no flag passed anywhere."""
    spec = footnote_instance().spec
    for rows in ([3, 2, 2], [3, 2, 2]), ([3, 2, 2], [1, 1, 5]):
        inst = Instance("rows", 2, spec, tuple(Valuation(row) for row in rows))
        assert not inst.identical_agents
        doc = serialize_instance(inst)
        assert len(json.loads(doc)["valuations"]) == 2
        assert parse_instance(doc) == inst
    shared = Instance("rows", 2, spec, (_ROW, _ROW))
    assert shared.identical_agents
    assert len(json.loads(serialize_instance(shared))["valuations"]) == 1


def test_documents_declare_at_most_max_agents(monkeypatch):
    doc = json.loads(serialize_instance(footnote_instance()))
    doc["n"] = MAX_AGENTS
    assert parse_instance(json.dumps(doc)).n == MAX_AGENTS
    doc["n"] = MAX_AGENTS + 1

    def refuse(_row):
        raise AssertionError("a valuation was built before n was bounded")

    monkeypatch.setattr(Valuation, "_wrap", refuse)
    with pytest.raises(ParseError) as info:
        parse_instance(json.dumps(doc))
    assert info.value.location == "n"


def test_allocation_round_trip(table1):
    small = replicate_agents(footnote_instance(), 2)
    alloc, _ = fair_divide(small, Fraction(11, 30), Fraction(1, 16))
    doc = json.loads(serialize_allocation(alloc, alpha=Fraction(11, 30)))
    assert parse_allocation(json.dumps(doc)) == alloc
    del doc["summary"], doc["alpha"]  # both optional
    assert parse_allocation(json.dumps(doc)) == alloc
    mu, alpha = (Fraction(1),) * 330, ALPHA_PRIME + Fraction(1, 10**7)
    big = allocate_from_estimates(table1, mu, alpha)
    assert parse_allocation(serialize_allocation(big, alpha=alpha)) == big


def test_summary_ratio_is_compared_by_value():
    """The writer spells a least ratio of 1 as "1/1"; the reader takes "1" too."""
    alloc = Allocation((TraceEvent("phase", 0, (0,), Fraction(3), Fraction(3)),), frozenset())
    doc = json.loads(serialize_allocation(alloc, alpha=Fraction(1)))
    assert (doc["summary"]["min_ratio_to_mu"], doc["alpha"]) == ("1/1", "1/1")
    doc["summary"]["min_ratio_to_mu"] = doc["alpha"] = "1"
    assert parse_allocation(json.dumps(doc)) == alloc


def test_parse_allocation_refuses_a_zero_alpha():
    """A document with alpha 0 does not parse, even with the summary that
    alpha gives, since ``serialize_allocation`` could not have written it."""
    alloc, _ = fair_divide(footnote_instance(), Fraction(11, 30), Fraction(1, 16))
    doc = json.loads(serialize_allocation(alloc, alpha=Fraction(11, 30)))
    doc["alpha"] = doc["summary"]["min_ratio_to_mu"] = "0/1"
    with pytest.raises(ParseError, match="must be positive, got 0") as info:
        parse_allocation(json.dumps(doc))
    assert info.value.location == "alpha"


def test_rational_wire_format():
    assert parse_rational("40/107") == Fraction(40, 107)
    assert parse_rational("-40/107") == Fraction(-40, 107)
    assert parse_rational("3") == 3
    assert parse_rational("3/1") == 3
    assert parse_rational("0") == parse_rational("0/1") == 0
    assert parse_rational(3) == 3
    with pytest.raises(ParseError):
        parse_rational("0.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")


@pytest.mark.parametrize(
    "text",
    ["80/214", "0/5", "1/-2", "-1/-2", "-0", "007/1", "1/02", " 3 ", "3\n", "+3", "\u0663", True],
)
def test_rational_wire_format_is_canonical_only(text):
    """Each value has one spelling: reduced, positive denominator, no
    leading zeros, padding, plus sign or non-ASCII digits."""
    with pytest.raises(ParseError):
        parse_rational(text)


@pytest.mark.parametrize("field", ["value", "threshold"])
def test_parse_allocation_rejects_negative_event_rationals(field):
    inst = random_instance(2, m=4, n=2, family="free")
    alloc, _ = fair_divide(inst, Fraction(11, 30), Fraction(1, 16))
    doc = json.loads(serialize_allocation(alloc, alpha=Fraction(11, 30)))
    doc["events"][0][field] = "-1/2"
    with pytest.raises(ParseError) as info:
        parse_allocation(json.dumps(doc))
    assert info.value.location == f"events[0].{field}"


def test_parse_errors_carry_location():
    inst = random_instance(1, m=3, n=2, family="free")
    doc = serialize_instance(inst)

    with pytest.raises(ParseError, match="line"):
        parse_instance(doc[:40])
    with pytest.raises(ParseError, match="set_system"):
        parse_instance(doc.replace('"type": "explicit"', '"type": "mystery"'))
    short = json.loads(doc)
    short["valuations"][1].pop()
    with pytest.raises(ParseError, match="like the first row") as info:
        parse_instance(json.dumps(short))
    assert info.value.location == "valuations[1]"
    with pytest.raises(ParseError, match="missing field"):
        parse_instance("{}")
    # json.loads refuses both; int() refuses the value string's digits
    for text in ['{"n": ' + "9" * 5000 + "}", "[" * 100000]:
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert info.value.location == "document"
    huge = json.loads(doc)
    huge["valuations"][0][0] = "9" * 5000 + huge["valuations"][0][0]
    with pytest.raises(ParseError) as info:
        parse_instance(json.dumps(huge))
    assert info.value.location == "valuations[0][0]"
