import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from fairdiv import (
    DeskCapError,
    InputError,
    capacity,
    equivalence_classes,
    explicit_maximal,
    footnote_instance,
    is_feasible,
    parse_instance,
    random_instance,
    serialize_instance,
    table1_instance,
)
from support import (
    FAMILIES,
    capacity_as_explicit,
    random_subset,
    reference_equivalence_classes,
    table1_labels,
)


def test_footnote_maximal_sets():
    spec = footnote_instance().spec
    assert is_feasible(spec, {1, 2})
    assert is_feasible(spec, {0})
    assert not is_feasible(spec, {0, 1})
    assert not is_feasible(spec, {0, 1, 2})


def test_empty_set_always_feasible():
    specs = [
        footnote_instance().spec,
        capacity([0, 0], [0]),
        explicit_maximal(3, []),
    ]
    for spec in specs:
        assert is_feasible(spec, set())


def test_capacity_class_limit():
    spec = table1_instance(330).spec
    class_a = [0, 1, 2]  # class A holds ids 0..329 with capacity 2
    assert not is_feasible(spec, class_a)
    assert is_feasible(spec, class_a[:2])


def test_unknown_item_rejected():
    spec = footnote_instance().spec
    with pytest.raises(InputError):
        is_feasible(spec, {3})
    with pytest.raises(InputError):
        is_feasible(spec, {-1})


def test_dominated_sets_pruned():
    spec = explicit_maximal(3, [{0}, {0, 1}, {1, 2}, {1, 2}])
    assert spec.maximal_sets == (frozenset({0, 1}), frozenset({1, 2}))


def test_capacity_requires_partition():
    """Each item names one class among ``caps``, and each cap is an int >= 0."""
    for class_of, caps in [
        ([0, 0, 2], [1, 1]),
        ([0, -1, 1], [1, 1]),
        ([0, True, 1], [1, 1]),
        ([0, 0, 1], [-1, 1]),
        ([0, 0, 1], [1, True]),
        ([0, 0, 1], [1, 1.0]),
    ]:
        with pytest.raises(InputError):
            capacity(class_of, caps)
    assert capacity([0, 0, 1], [1, 0]).num_items == 3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: explicit_maximal(-1, []), "num_items must be >= 0"),
        (
            lambda: equivalence_classes(explicit_maximal(3, [range(3)]), [[Fraction(1)] * 2]),
            "value row has 2 entries, expected 3",
        ),
    ],
    ids=["explicit-negative-m", "equivalence-short-row"],
)
def test_item_counts_must_fit_the_ground_set(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_zero_capacity_class_is_dead_weight():
    spec = capacity([0, 0, 1], [0, 1])
    assert not is_feasible(spec, {0})
    assert is_feasible(spec, {2})
    assert not is_feasible(spec, {0, 2})


def _all_subsets(m):
    for size in range(m + 1):
        yield from combinations(range(m), size)


@pytest.mark.parametrize("seed", range(6))
def test_heredity_exhaustive(seed):
    """Removing any single item from a feasible set stays feasible."""
    inst = random_instance(seed, m=7, n=1, family=("capacity", "explicit-antichain")[seed % 2])
    for subset in _all_subsets(7):
        if is_feasible(inst.spec, subset):
            for j in subset:
                assert is_feasible(inst.spec, set(subset) - {j})


@pytest.mark.parametrize("seed", range(4))
def test_capacity_explicit_crosscheck(seed):
    """A capacity spec and its explicit expansion agree on every subset."""
    rng = random.Random(900 + seed)
    m = 10
    k = rng.randint(2, 4)
    assignment = [rng.randrange(k) for _ in range(m)]
    caps = [rng.randint(1, max(1, assignment.count(c))) for c in range(k)]
    cap_spec = capacity(assignment, caps)
    exp_spec = capacity_as_explicit(cap_spec)
    for subset in _all_subsets(m):
        assert is_feasible(cap_spec, subset) == is_feasible(exp_spec, subset)


def test_capacity_as_explicit_refuses_blowup():
    spec = table1_instance(330).spec
    with pytest.raises(DeskCapError):
        capacity_as_explicit(spec)


def test_equivalence_footnote():
    inst = footnote_instance()
    blocks = equivalence_classes(inst.spec, [inst.valuations[0].values])
    assert blocks == (frozenset({0}), frozenset({1, 2}))


def test_equivalence_table1_is_one_block_per_class():
    inst = table1_instance(330)
    blocks = equivalence_classes(inst.spec, [v.values for v in inst.valuations])
    assert len(blocks) == 6
    labels = table1_labels(inst)
    for block in blocks:
        assert len({labels[j] for j in block}) == 1


def test_equivalence_distinct_values_all_singletons():
    spec = explicit_maximal(4, [{0, 1, 2, 3}])
    values = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    blocks = equivalence_classes(spec, [values])
    assert blocks == tuple(frozenset({j}) for j in range(4))


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_swap_soundness(seed):
    """Swapping same-block items in a feasible set keeps it feasible."""
    inst = random_instance(seed, m=7, n=2, family="explicit-antichain")
    blocks = equivalence_classes(inst.spec, [v.values for v in inst.valuations])
    block_of = {}
    for b, block in enumerate(blocks):
        for j in block:
            block_of[j] = b
    rng = random.Random(seed)
    for _ in range(50):
        s = set(random_subset(rng, 7))
        if not is_feasible(inst.spec, s):
            continue
        for x in sorted(s):
            for y in sorted(blocks[block_of[x]] - s):
                assert is_feasible(inst.spec, (s - {x}) | {y})


def _rows(inst):
    return [v.values for v in inst.valuations]


@pytest.mark.parametrize("family", FAMILIES)
def test_equivalence_matches_the_fraction_oracle(family):
    """Integer keys give the blocks of the ``Fraction``-tuple grouping, in
    the same order, on rows with shared values and several denominators."""
    merged = 0
    for seed in range(12):
        for value_range in ((2, 3), (3, 2), (8, 4)):
            inst = random_instance(seed, m=14, n=2 + seed % 3, family=family, value_range=value_range)
            assert len({id(row) for row in _rows(inst)}) == inst.n
            blocks = equivalence_classes(inst.spec, _rows(inst))
            assert blocks == reference_equivalence_classes(inst.spec, _rows(inst))
            merged += len(blocks) < inst.num_items
    assert merged > 0


def test_equivalence_matches_the_fraction_oracle_on_table1():
    inst = table1_instance(330)
    assert equivalence_classes(inst.spec, _rows(inst)) == reference_equivalence_classes(
        inst.spec, _rows(inst)
    )


def test_equivalence_of_one_value_spelled_three_ways():
    """JSON 2, "2" and "2/1" parse to one value, so their items share a block."""
    doc = json.loads(serialize_instance(random_instance(4, m=6, n=2, family="free")))
    for i, row in enumerate(doc["valuations"]):
        row[:3] = [2, "2", "2/1"] if i == 0 else ["1/3"] * 3
    inst = parse_instance(json.dumps(doc))
    blocks = equivalence_classes(inst.spec, _rows(inst))
    assert blocks == reference_equivalence_classes(inst.spec, _rows(inst))
    assert frozenset({0, 1, 2}) <= blocks[0]
