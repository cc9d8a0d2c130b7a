import json
from fractions import Fraction

import pytest

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
        (lambda spec: Instance("x", 0, spec, ()), "at least one agent"),
        (lambda spec: Instance("x", 2, spec, (_ROW,)), "1 valuations for 2 agents"),
        (lambda spec: Instance("x", 1, spec, (Valuation([1, 2]),)), "valuation 0 covers 2 items"),
        (lambda spec: replicate_agents(Instance("x", 2, spec, (_ROW, _ROW)), 3), "single-agent"),
        (lambda spec: replicate_agents(Instance("x", 1, spec, (_ROW,)), 0), "at least one agent"),
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
