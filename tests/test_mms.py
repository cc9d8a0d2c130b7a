
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdiv.mms
from fairdiv import (
    DeskCapError,
    InputError,
    Valuation,
    bundle_value,
    capacity,
    explicit_maximal,
    footnote_instance,
    format_rational,
    mms_bounds,
    mms_exact,
    random_instance,
)
from support import (
    FAMILIES,
    brute_mms,
    iter_suite,
    normalize_to_partition,
    nth_value,
    reference_mms_exact,
)

# sha256 over (value, witness) of mms_exact on iter_suite(60, base_seed=7000),
# every agent, n and n + 1 parts; recorded with the frozenset/Fraction
# search that reference_mms_exact keeps.
MMS_SUITE_DIGEST = "d669fe06035258c15014207ee1da797f86ded31746b1a38a0863778b41dca2e7"


def test_free_system_three_items():
    spec = explicit_maximal(3, [{0, 1, 2}])
    val = Valuation([2, 3, 4])
    result = mms_exact(spec, val, 2)
    assert result.value == 4
    parts = set(result.witness)
    assert parts == {frozenset({0, 1}), frozenset({2})}


def test_single_part_is_grand_bundle():
    inst = footnote_instance()
    result = mms_exact(inst.spec, inst.valuations[0], 1)
    assert result.value == bundle_value(inst.spec, inst.valuations[0], {0, 1, 2})


def test_footnote_two_parts():
    inst = footnote_instance()
    result = mms_exact(inst.spec, inst.valuations[0], 2)
    assert result.value == 3
    assert set(result.witness) == {frozenset({0}), frozenset({1, 2})}


def test_more_parts_than_items():
    inst = footnote_instance()
    result = mms_exact(inst.spec, inst.valuations[0], 5)
    assert result.value == 0
    assert len(result.witness) == 5


def test_desk_cap():
    spec = explicit_maximal(13, [range(13)])
    val = Valuation([1] * 13)
    with pytest.raises(DeskCapError):
        mms_exact(spec, val, 2)
    mms_exact(spec, val, 2, max_items=13)
    with pytest.raises(InputError, match="max_items must be nonnegative, got -1"):
        mms_exact(spec, val, 2, max_items=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda inst: mms_exact(inst.spec, inst.valuations[0], 0),
        lambda inst: mms_bounds(inst.spec, inst.valuations[0], 0),
    ],
    ids=["exact", "bounds"],
)
def test_no_parts_is_rejected(call):
    with pytest.raises(InputError, match="n must be >= 1, got 0"):
        call(footnote_instance())


def test_bounds_footnote():
    inst = footnote_instance()
    lower, upper = mms_bounds(inst.spec, inst.valuations[0], 2)
    assert (lower, upper) == (2, 6)
    assert lower <= mms_exact(inst.spec, inst.valuations[0], 2).value <= upper


def test_bounds_more_parts_than_items():
    inst = footnote_instance()
    assert mms_bounds(inst.spec, inst.valuations[0], 5) == (0, 0)


@pytest.mark.parametrize("share", [mms_exact, mms_bounds], ids=["exact", "bounds"])
def test_a_row_of_another_length_is_rejected(share):
    """A row longer than the spec's item count is refused, not cut to fit."""
    spec = explicit_maximal(3, [[0, 1, 2]])
    with pytest.raises(InputError, match="^valuation covers 5 items, spec has 3$"):
        share(spec, Valuation([5, 4, 3, 2, 1]), 1)


def test_bounds_read_the_item_count_off_the_valuation():
    inst = random_instance(0, 10, 3, "capacity")
    val = inst.valuations[0]
    assert mms_bounds(inst.spec, val, 3)[1] == 10 * nth_value(val, 3) == 30


# Specs with items that are not feasible alone: a class of cap 0, no
# maximal set, only the empty maximal set, and items no maximal set lists.
# Each such item is worth 0 in every bundle, so the bounds skip it.
_DEGENERATE = (
    (capacity([0, 0, 0, 1], [0, 1]), Valuation(["5", "5", "5", "1"]), 2),
    (explicit_maximal(4, []), Valuation(["5", "5", "5", "1"]), 2),
    (explicit_maximal(4, [[]]), Valuation(["5", "5", "5", "1"]), 2),
    (explicit_maximal(5, [[0, 1], [1, 2]]), Valuation([1, 1, 1, 9, 9]), 2),
)


def test_witness_validity_and_sandwich():
    suite = [
        (inst.spec, val, inst.n)
        for inst in iter_suite(40, base_seed=3000)
        for val in inst.valuations
    ]
    for spec, val, n in suite + list(_DEGENERATE):
        exact = mms_exact(spec, val, n)
        worst = min(bundle_value(spec, val, part) for part in exact.witness)
        assert worst == exact.value
        lower, upper = mms_bounds(spec, val, n)
        assert lower <= exact.value <= upper


def test_matches_independent_enumeration():
    for seed in range(6):
        inst = random_instance(seed, m=5, n=2, family=("capacity", "explicit-antichain")[seed % 2])
        val = inst.valuations[0]
        assert mms_exact(inst.spec, val, 2).value == brute_mms(inst.spec, val.values, 2)
        assert mms_exact(inst.spec, val, 3).value == brute_mms(inst.spec, val.values, 3)


def test_monotone_in_part_count():
    for inst in iter_suite(15, base_seed=4000):
        val = inst.valuations[0]
        values = [
            mms_exact(inst.spec, val, n).value for n in range(1, inst.num_items + 2)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_normalization_fixed_point():
    """After rescaling by a witness, each witness part has value exactly 1."""
    for inst in iter_suite(20, base_seed=5000):
        for val in inst.valuations:
            exact = mms_exact(inst.spec, val, inst.n)
            if exact.value == 0:
                continue
            parts = [p for p in exact.witness if p]
            normalized = normalize_to_partition(val, parts, inst.spec)
            for part in parts:
                assert bundle_value(inst.spec, normalized, part) == 1


def assert_matches_reference(spec, val, n, **kwargs):
    result = mms_exact(spec, val, n, **kwargs)
    value, parts = reference_mms_exact(spec, val, n)
    assert type(result.value) is Fraction
    assert result.value == value
    assert result.witness == parts


@pytest.mark.parametrize("family", ["capacity", "explicit-antichain"])
def test_matches_reference_search_on_suite(family):
    for inst in iter_suite(60, base_seed=6000):
        if inst.name.startswith(f"random-{family}-"):
            for val in inst.valuations:
                for n in (1, inst.n, inst.n + 1):
                    assert_matches_reference(inst.spec, val, n)


def test_matches_reference_search_on_edge_cases():
    values = Valuation([Fraction(3, 4), 0, Fraction(5, 6), 2, 0, Fraction(1, 7)])
    # a class with cap 0 contributes nothing, whatever it holds
    spec = capacity([0, 1, 0, 1, 2, 1], [0, 2, 1])
    for n in (1, 2, 3):
        assert_matches_reference(spec, values, n)
    # zero-valued items only: every partition ties at 0
    zeros = Valuation([0] * 5)
    assert_matches_reference(explicit_maximal(5, [{0, 1}, {2, 3, 4}]), zeros, 2)
    # more parts than items
    assert_matches_reference(explicit_maximal(3, [{0, 2}, {1}]), Valuation([1, 2, 3]), 5)
    # a single maximal set, and the empty ground set
    assert_matches_reference(explicit_maximal(6, [{1, 2, 4}]), values, 2)
    assert_matches_reference(explicit_maximal(0, []), Valuation([]), 2)


@pytest.mark.parametrize("family", ["capacity", "explicit-antichain", "free"])
def test_matches_reference_search_above_the_default_cap(family):
    inst = random_instance(7, 13, 3, family)
    assert_matches_reference(inst.spec, inst.valuations[0], 3, max_items=13)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 10**6),
    row=st.lists(st.sampled_from([0, 1, 2, 3]), max_size=8),
    data=st.data(),
)
def test_tie_heavy_rows_match_the_reference_search(family, seed, row, data):
    """Rows over {0, 1, 2, 3} tie often, so many partitions reach the
    optimum and the greedy seed often equals it; the witness must still
    be the reference search's first optimum."""
    spec = random_instance(seed, len(row), 1, family).spec
    n = data.draw(st.integers(1, len(row) + 1), label="n")
    assert_matches_reference(spec, Valuation(row), n)


@pytest.fixture
def value_of_calls(monkeypatch):
    """Counts the item-set evaluations ``mms_exact`` makes."""
    calls = [0]
    evaluator = fairdiv.mms.item_set_evaluator

    def counting(*args):
        scale, value_of = evaluator(*args)

        def counted(mask):
            calls[0] += 1
            return value_of(mask)

        return scale, counted

    monkeypatch.setattr(fairdiv.mms, "item_set_evaluator", counting)
    return calls


# value_of calls of mms_exact on random_instance(0, 10, 3, family), agent 0,
# n = 3.  Before the greedy seed and the gap-covering bound the counts
# were 457, 520 and 550; a looser prune reads more.
@pytest.mark.parametrize(
    "family, calls", [("capacity", 331), ("explicit-antichain", 173), ("free", 321)]
)
def test_prune_evaluations_are_pinned(family, calls, value_of_calls):
    inst = random_instance(0, 10, 3, family)
    assert_matches_reference(inst.spec, inst.valuations[0], 3)
    assert value_of_calls[0] == calls


@pytest.mark.parametrize("family", FAMILIES)
def test_more_parts_than_items_prunes_at_the_first_leaf(family, value_of_calls):
    """With n > m the share is 0 and the first leaf, every item in part 0,
    is the witness.  After it the gap-covering bound cuts every node at
    once: 33 evaluations (the 12 singletons and the masks along the first
    descent), where the search without it made 2048 and took over a
    second."""
    inst = random_instance(0, 12, 3, family)
    result = mms_exact(inst.spec, inst.valuations[0], 100000)
    assert result.value == 0
    assert result.witness == (frozenset(range(12)),) + (frozenset(),) * 99999
    assert value_of_calls[0] == 33


def test_pinned_suite_digest():
    digest = hashlib.sha256()
    for inst in iter_suite(60, base_seed=7000):
        for val in inst.valuations:
            for n in (inst.n, inst.n + 1):
                result = mms_exact(inst.spec, val, n)
                parts = [sorted(p) for p in result.witness]
                digest.update(f"{format_rational(result.value)} {parts}\n".encode())
    assert digest.hexdigest() == MMS_SUITE_DIGEST


def test_charges_no_queries():
    inst = random_instance(3, 9, 3, "capacity")
    val = inst.valuations[0]
    mms_exact(inst.spec, val, 3)
    assert val.query_count == 0
