import random
from fractions import Fraction

import pytest

from fairdiv import (
    InputError,
    Valuation,
    bundle_value,
    capacity,
    explicit_maximal,
    footnote_instance,
    nth_value,
    random_instance,
    table1_instance,
)
from support import (
    FAMILIES,
    brute_bundle_value,
    normalize_to_partition,
    random_subset,
    table1_labels,
    value_of_subset,
)


@pytest.fixture(scope="module")
def footnote():
    return footnote_instance()


def test_footnote_values(footnote):
    val = footnote.valuations[0]
    assert bundle_value(footnote.spec, val, {0, 2}) == 3
    assert bundle_value(footnote.spec, val, {0, 1, 2}) == 4
    assert bundle_value(footnote.spec, val, set()) == 0


def test_footnote_not_submodular(footnote):
    val = footnote.valuations[0]
    marginal_to_ab = bundle_value(footnote.spec, val, {0, 1, 2}) - bundle_value(
        footnote.spec, val, {0, 1}
    )
    marginal_to_a = bundle_value(footnote.spec, val, {0, 2}) - bundle_value(
        footnote.spec, val, {0}
    )
    assert marginal_to_ab == 1
    assert marginal_to_a == 0


@pytest.fixture(scope="module")
def table1():
    return table1_instance(330)


def test_table1_part_values(table1):
    labels = table1_labels(table1)
    by_class = {}
    for j, label in enumerate(labels):
        by_class.setdefault(label, []).append(j)
    val = table1.valuations[0]
    type1 = [by_class["A"][0], by_class["C"][0], by_class["D"][0]] + by_class["F"][:40]
    assert bundle_value(table1.spec, val, type1) == 1
    type2 = [by_class["A"][1], by_class["B"][0], by_class["E"][0]] + by_class["F"][40:80]
    assert bundle_value(table1.spec, val, type2) == 1


def test_table1_over_capacity(table1):
    labels = table1_labels(table1)
    f_items = [j for j, label in enumerate(labels) if label == "F"][:41]
    assert bundle_value(table1.spec, table1.valuations[0], f_items) == Fraction(40, 107)


def test_table1_nth_value(table1):
    assert nth_value(table1.valuations[0], 330) == Fraction(40, 107)


def test_nth_value_order_statistic(footnote):
    val = footnote.valuations[0]
    assert nth_value(val, 1) == 3
    assert nth_value(val, 2) == 2
    assert nth_value(val, 5) == 0
    with pytest.raises(InputError):
        nth_value(val, 0)


def test_query_counter_counts_bundle_value_only(footnote):
    val = Valuation([3, 2, 2])
    assert val.query_count == 0
    bundle_value(footnote.spec, val, {0})
    bundle_value(footnote.spec, val, {0})
    assert val.query_count == 2
    bundle_value(footnote.spec, val, set())
    assert val.query_count == 3
    nth_value(val, 1)
    assert val.query_count == 3


def test_negative_values_rejected():
    with pytest.raises(InputError):
        Valuation([Fraction(-1), Fraction(2)])


def test_unknown_item_rejected(footnote):
    with pytest.raises(InputError):
        bundle_value(footnote.spec, footnote.valuations[0], {9})


def test_bool_item_ids_rejected(footnote):
    # True == 1, so without a bool check it would be read as item 1
    with pytest.raises(InputError):
        explicit_maximal(3, [[0, True]])
    with pytest.raises(InputError):
        capacity([0, True, 0], [1, 1])
    with pytest.raises(InputError):
        bundle_value(footnote.spec, footnote.valuations[0], [0, True])


def test_normalize_footnote(footnote):
    val = footnote.valuations[0]
    normalized = normalize_to_partition(val, [{0}, {1, 2}], footnote.spec)
    assert normalized.values == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert bundle_value(footnote.spec, normalized, {0}) == 1
    assert bundle_value(footnote.spec, normalized, {1, 2}) == 1


def test_normalize_identity_on_unit_part():
    spec = explicit_maximal(2, [{0, 1}])
    val = Valuation([Fraction(1, 2), Fraction(1, 2)])
    normalized = normalize_to_partition(val, [{0, 1}], spec)
    assert normalized.values == val.values


def test_normalize_table1_partition_is_identity(table1):
    labels = table1_labels(table1)
    by_class = {}
    for j, label in enumerate(labels):
        by_class.setdefault(label, []).append(j)
    parts = []
    f_iter = iter(by_class["F"])
    for i in range(220):  # Type I parts: one A, C, D plus forty F
        parts.append(
            {by_class["A"][i], by_class["C"][i], by_class["D"][i]}
            | {next(f_iter) for _ in range(40)}
        )
    for i in range(110):  # Type II parts: one A, B, E plus forty F
        parts.append(
            {by_class["A"][220 + i], by_class["B"][i], by_class["E"][i]}
            | {next(f_iter) for _ in range(40)}
        )
    val = table1.valuations[0]
    normalized = normalize_to_partition(val, parts, table1.spec)
    assert normalized.values == val.values


def test_normalize_zero_part_rejected():
    spec = capacity([0, 1], [0, 1])
    val = Valuation([Fraction(5), Fraction(1)])
    with pytest.raises(InputError, match="bundle value 0"):
        normalize_to_partition(val, [{0}, {1}], spec)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, short: bundle_value(spec, short, {0}),
        lambda spec, short: normalize_to_partition(short, [{0}, {1, 2}], spec),
    ],
    ids=["bundle-value", "normalize"],
)
def test_valuation_sized_for_another_spec_is_rejected(footnote, call):
    with pytest.raises(InputError, match="valuation covers 2 items, spec has 3"):
        call(footnote.spec, Valuation([1, 2]))


def test_normalize_requires_partition(footnote):
    val = footnote.valuations[0]
    with pytest.raises(InputError):
        normalize_to_partition(val, [{0}, {0, 1, 2}], footnote.spec)
    with pytest.raises(InputError):
        normalize_to_partition(val, [{0}], footnote.spec)


@pytest.mark.parametrize("seed", range(10))
def test_bundle_value_matches_brute_force(seed):
    inst = random_instance(seed, m=7, n=1, family=("capacity", "explicit-antichain", "free")[seed % 3])
    val = inst.valuations[0]
    rng = random.Random(7000 + seed)
    for _ in range(30):
        subset = random_subset(rng, 7)
        assert bundle_value(inst.spec, val, subset) == brute_bundle_value(
            inst.spec, val.values, subset
        )


def _edge_specs():
    """Capacity specs with a cap-0 class and explicit specs, each paired
    with a row holding zero values."""
    row = [Fraction(0), Fraction(3, 4), Fraction(0), Fraction(5, 6), Fraction(2, 9), Fraction(1)]
    yield capacity([0, 0, 1, 1, 1, 2], [0, 2, 1]), row
    yield explicit_maximal(6, [{0, 1, 2}, {2, 3, 4, 5}]), row


@pytest.mark.parametrize("seed", range(12))
def test_bundle_value_matches_fraction_oracle(seed):
    family = FAMILIES[seed % 3]
    inst = random_instance(seed, m=30, n=2, family=family)
    val = inst.valuations[seed % 2]
    rng = random.Random(7100 + seed)
    for _ in range(40):
        subset = random_subset(rng, 30)
        assert bundle_value(inst.spec, val, subset) == value_of_subset(
            inst.spec, val.values, frozenset(subset)
        )
    for spec, row in _edge_specs():
        edge = Valuation(row)
        for _ in range(20):
            subset = random_subset(rng, 6)
            listed = subset + subset[:2]  # an item listed twice counts once
            assert bundle_value(spec, edge, listed) == value_of_subset(
                spec, edge.values, frozenset(subset)
            )
        assert bundle_value(spec, edge, []) == 0


@pytest.mark.parametrize("seed", range(6))
def test_monotone_and_subadditive(seed):
    inst = random_instance(seed, m=6, n=1, family="explicit-antichain")
    val = inst.valuations[0]
    rng = random.Random(8000 + seed)
    for _ in range(25):
        s = set(random_subset(rng, 6))
        t = set(random_subset(rng, 6))
        vs = bundle_value(inst.spec, val, s)
        for j in range(6):
            assert vs <= bundle_value(inst.spec, val, s | {j})
        assert bundle_value(inst.spec, val, s | t) <= vs + bundle_value(inst.spec, val, t)


@pytest.mark.parametrize("seed", range(4))
def test_scaling_commutes(seed):
    inst = random_instance(seed, m=6, n=1, family="capacity")
    val = inst.valuations[0]
    c = Fraction(7, 3)
    scaled = Valuation([c * v for v in val.values])
    rng = random.Random(9000 + seed)
    for _ in range(20):
        subset = random_subset(rng, 6)
        assert bundle_value(inst.spec, scaled, subset) == c * bundle_value(
            inst.spec, val, subset
        )
