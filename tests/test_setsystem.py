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
    random_instance,
    table1_instance,
)
from support import capacity_as_explicit, random_subset


def test_footnote_maximal_sets():
    spec = footnote_instance().spec
    assert is_feasible(spec, {1, 2})
    assert is_feasible(spec, {0})
    assert not is_feasible(spec, {0, 1})
    assert not is_feasible(spec, {0, 1, 2})


def test_empty_set_always_feasible():
    specs = [
        footnote_instance().spec,
        capacity(2, [({0, 1}, 0)]),
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
    with pytest.raises(InputError):
        capacity(3, [({0, 1}, 1), ({1, 2}, 1)])
    with pytest.raises(InputError):
        capacity(3, [({0, 1}, 1)])
    with pytest.raises(InputError):
        capacity(3, [({0, 1}, -1), ({2}, 1)])


def test_zero_capacity_class_is_dead_weight():
    spec = capacity(3, [({0, 1}, 0), ({2}, 1)])
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
    classes = []
    for c in range(k):
        members = [j for j in range(m) if assignment[j] == c]
        if members:
            classes.append((members, rng.randint(1, len(members))))
    cap_spec = capacity(m, classes)
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
    labels = inst.item_classes
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
