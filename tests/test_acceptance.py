"""Acceptance gate: one test per criterion, exact tolerances, one
pass/fail line each (run with ``pytest -s`` to see them live).

The random suites are fully seeded; rerunning any of them must produce
byte-identical allocation documents and traces, which criterion 8 checks
by replaying criteria 2 and 3 end to end and comparing both digests with
pinned values, so a refactor that changes any bundle fails here too.
"""
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from fairdiv import (
    allocate_naive,
    bundle_value,
    fair_divide,
    iteration_bound,
    mms_exact,
    random_instance,
    RunStats,
    serialize_allocation,
    footnote_instance,
)
from fairdiv.cli import main as cli_main
from support import (
    FAMILIES,
    brute_bundle_value,
    iter_suite,
    normalized_by_witnesses,
    nth_value,
    random_subset,
    round_query_bound,
)

ALPHA = Fraction(11, 30)
WEAK_ALPHA = Fraction(1, 3)
DELTA = Fraction(1, 16)

GUARANTEE_COUNT = 500
GUARANTEE_SEED = 20_000
DRIVER_COUNT = 200
DRIVER_SEED = 50_000
ORACLE_PAIRS = 1000

# sha256 over every allocation document and trace of each suite.
GUARANTEE_DIGEST = "71c3c29a11d97c1683113c935055613badfbc9a3c0c1528a94878c0ea2127ca7"
DRIVER_DIGEST = "0a4a90b444783cdefa33dbd0d88f5ca8da39d3486e921ecb74b55fde7c23f0ea"


def run_guarantee_suite():
    """Criterion 2 pipeline; returns (digest of all documents, failures)."""
    digest = hashlib.sha256()
    failures = []
    for inst in iter_suite(GUARANTEE_COUNT, GUARANTEE_SEED):
        normalized, _ = normalized_by_witnesses(inst)
        for alpha in (ALPHA, WEAK_ALPHA):
            alloc = allocate_naive(normalized, alpha)
            if alloc.unallocated_agents:
                failures.append((inst.name, alpha, sorted(alloc.unallocated_agents)))
            digest.update(serialize_allocation(alloc, alpha=alpha).encode())
            digest.update("\n".join(alloc.trace_records()).encode())
    return digest.hexdigest(), failures


def run_driver_suite():
    """Criteria 3/4/7 pipeline; one record per instance."""
    digest = hashlib.sha256()
    records = []
    for inst in iter_suite(DRIVER_COUNT, DRIVER_SEED):
        stats = RunStats()
        before = sum(val.query_count for val in inst.valuations)
        alloc, estimates = fair_divide(inst, ALPHA, DELTA, stats=stats)
        queries = sum(val.query_count for val in inst.valuations) - before
        digest.update(serialize_allocation(alloc, alpha=ALPHA).encode())
        digest.update("\n".join(alloc.trace_records()).encode())
        exact = [
            mms_exact(inst.spec, inst.valuations[i], inst.n).value
            for i in range(inst.n)
        ]
        records.append((inst, alloc, estimates, stats, queries, exact))
    return digest.hexdigest(), records


@pytest.fixture(scope="module")
def guarantee_suite():
    return run_guarantee_suite()


@pytest.fixture(scope="module")
def driver_suite():
    return run_driver_suite()


def test_criterion_1_upper_bound_reproduction(capsys):
    started = time.monotonic()
    code = cli_main(["repro-upper-bound", "--n", "330"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["histogram"]["phase"] == {"2": 165, "3": 110}
    assert doc["histogram"]["minimal"] == {"5": 44, "11": 10}
    assert doc["allocated"] == 329
    assert doc["unallocated"] == 1
    assert elapsed < 60
    print(
        f"ACCEPTANCE 1 PASS: adversarial run strands exactly 1 of 330 agents "
        f"(165/110/44/10 histogram) in {elapsed:.2f}s"
    )


def test_criterion_2_guarantee_suite(guarantee_suite):
    _, failures = guarantee_suite
    assert failures == []
    print(
        f"ACCEPTANCE 2 PASS: {GUARANTEE_COUNT} normalized instances fully "
        f"allocated at 11/30 and 1/3"
    )


def test_criterion_3_driver_guarantee(driver_suite):
    _, records = driver_suite
    floor_scale = (1 - DELTA) * ALPHA
    for inst, alloc, _, _, _, exact in records:
        assert not alloc.unallocated_agents
        for agent in range(inst.n):
            got = bundle_value(inst.spec, inst.valuations[agent], alloc.bundles[agent])
            assert got >= floor_scale * exact[agent]
    print(
        f"ACCEPTANCE 3 PASS: fair_divide met the (15/16)*(11/30)*share floor "
        f"on {DRIVER_COUNT} instances"
    )


def test_criterion_4_share_sandwich(driver_suite):
    _, records = driver_suite
    for inst, _, _, _, _, exact in records:
        m = inst.num_items
        for agent in range(inst.n):
            nth = nth_value(inst.valuations[agent], inst.n)
            assert nth <= exact[agent] <= m * nth
    print(
        f"ACCEPTANCE 4 PASS: nth-value sandwich held exactly on "
        f"{DRIVER_COUNT} instances"
    )


def test_criterion_5_valuation_oracle_equivalence():
    rng = random.Random(123_456)
    checked = 0
    while checked < ORACLE_PAIRS:
        seed = rng.randrange(10**9)
        m = rng.randint(1, 12)
        family = FAMILIES[checked % len(FAMILIES)]
        inst = random_instance(seed, m=m, n=1, family=family)
        val = inst.valuations[0]
        for _ in range(5):
            subset = random_subset(rng, m)
            assert bundle_value(inst.spec, val, subset) == brute_bundle_value(
                inst.spec, val.values, subset
            )
            checked += 1
    print(f"ACCEPTANCE 5 PASS: bundle_value matched brute force on {checked} subsets")


def test_criterion_6_footnote_fidelity():
    inst = footnote_instance()
    val = inst.valuations[0]
    assert bundle_value(inst.spec, val, {0, 2}) == 3
    assert bundle_value(inst.spec, val, {0, 1, 2}) == 4
    gain_after_ab = bundle_value(inst.spec, val, {0, 1, 2}) - bundle_value(
        inst.spec, val, {0, 1}
    )
    gain_after_a = bundle_value(inst.spec, val, {0, 2}) - bundle_value(inst.spec, val, {0})
    assert gain_after_ab == 1 and gain_after_a == 0
    assert gain_after_ab > gain_after_a
    print("ACCEPTANCE 6 PASS: footnote values and non-submodularity exact")


def test_criterion_7_complexity_instrumentation(driver_suite):
    _, records = driver_suite
    worst = 0.0
    for inst, _, _, stats, queries, _ in records:
        assert len(stats.rounds) <= iteration_bound(inst.n, inst.num_items, DELTA)
        bound = len(stats.rounds) * round_query_bound(inst)
        assert queries <= bound
        worst = max(worst, queries / bound)
    print(
        f"ACCEPTANCE 7 PASS: iteration and per-round query bounds held on "
        f"{DRIVER_COUNT} instances; worst queries/bound {worst:.3f}"
    )


def test_criterion_8_determinism(guarantee_suite, driver_suite):
    g_digest, _ = guarantee_suite
    d_digest, _ = driver_suite
    g_again, _ = run_guarantee_suite()
    d_again, _ = run_driver_suite()
    assert g_again == g_digest == GUARANTEE_DIGEST
    assert d_again == d_digest == DRIVER_DIGEST
    print("ACCEPTANCE 8 PASS: both suites replayed to the pinned byte-identical documents")
