"""Per-layer view of the traced run: patch targets, spans and metrics.

Layer names follow the package's modules.  Every target is a module
attribute the program's callers look up at call time; a function that
is reached through two modules (``fairdiv.allocator.fair_divide`` from
the benchmark, ``fairdiv.cli.fair_divide`` from ``fairdiv solve``) is
wrapped at both, under one span name.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

import fairdiv.allocator as allocator
import fairdiv.cli as cli
import fairdiv.instances as instances
from spans import Span, Target, self_times
from workloads import instance_queries

EQUIVALENCE = "setsystem.equivalence_classes"
BUNDLE_VALUE = "valuation.bundle_value"
FAIR_DIVIDE = "allocator.fair_divide"
ROUND = "allocator.allocate_from_estimates"
VERIFY = "allocator.verify_allocation"
MMS = "mms.mms_exact"
PARSE_INSTANCE = "instances.parse_instance"
SERIALIZE_ALLOCATION = "instances.serialize_allocation"
PARSE_ALLOCATION = "instances.parse_allocation"
CLI_MAIN = "cli.main"

def _query_delta(args: tuple):
    instance = args[0]
    before = instance_queries(instance)
    return lambda _result: {"queries": instance_queries(instance) - before}


def _round_counts(args: tuple):
    instance = args[0]
    before = instance_queries(instance)

    def finish(allocation) -> dict[str, int]:
        kinds = Counter(event.kind for event in allocation.trace)
        return {
            "queries": instance_queries(instance) - before,
            "phase_bundles": kinds[allocator.PHASE],
            "minimal_bundles": kinds[allocator.MINIMAL],
            "stranded": len(allocation.unallocated_agents),
        }

    return finish


def _block_count(args: tuple):
    return lambda blocks: {"blocks": len(blocks)}


def _doc_bytes(args: tuple):
    size = len(args[0].encode("utf-8"))
    return lambda _result: {"doc_bytes": size}


TARGETS = (
    Target(allocator, "equivalence_classes", EQUIVALENCE, _block_count),
    Target(allocator, "bundle_value", BUNDLE_VALUE),
    Target(allocator, "fair_divide", FAIR_DIVIDE, _query_delta),
    Target(cli, "fair_divide", FAIR_DIVIDE, _query_delta),
    Target(allocator, "allocate_from_estimates", ROUND, _round_counts),
    Target(allocator, "verify_allocation", VERIFY),
    Target(cli, "verify_allocation", VERIFY),
    Target(cli, "mms_exact", MMS),
    Target(instances, "parse_instance", PARSE_INSTANCE, _doc_bytes),
    Target(cli, "parse_instance", PARSE_INSTANCE, _doc_bytes),
    Target(instances, "serialize_allocation", SERIALIZE_ALLOCATION),
    Target(cli, "serialize_allocation", SERIALIZE_ALLOCATION),
    Target(instances, "parse_allocation", PARSE_ALLOCATION),
    Target(cli, "parse_allocation", PARSE_ALLOCATION),
    Target(cli, "main", CLI_MAIN),
)

SPAN_NAMES = tuple(dict.fromkeys(target.span for target in TARGETS))

# Spans predicted to fire on each workload; every other span stays silent.
_EVERYWHERE = frozenset({EQUIVALENCE, BUNDLE_VALUE, ROUND, VERIFY, PARSE_INSTANCE})
FIRES = {
    "driver": _EVERYWHERE | {FAIR_DIVIDE},
    "adversarial": _EVERYWHERE | {SERIALIZE_ALLOCATION, PARSE_ALLOCATION},
    "certify": _EVERYWHERE
    | {FAIR_DIVIDE, MMS, SERIALIZE_ALLOCATION, PARSE_ALLOCATION, CLI_MAIN},
}

# Which end-to-end metric each layer metric should move, and where.
PREDICTIONS = (
    {
        "layer": "setsystem",
        "metrics": ["setsystem.equivalence_classes.calls", "setsystem.equivalence_classes.self_s", "setsystem.blocks"],
        "moves": "agents_per_s on driver (one rebuild per round); about 0 on adversarial",
    },
    {
        "layer": "valuation",
        "metrics": ["valuation.queries", "valuation.bundle_value.calls", "valuation.bundle_value.self_s"],
        "moves": "queries_per_instance everywhere; instance_s_p50 on adversarial (990 verifications)",
    },
    {
        "layer": "allocator",
        "metrics": [
            "allocator.fair_divide.calls",
            "allocator.fair_divide.share",
            "allocator.rounds",
            "allocator.allocate_from_estimates.self_s",
            "allocator.queries_per_round",
            "allocator.wasted_round_s",
            "allocator.useful_round_frac",
            "allocator.phase_bundles",
            "allocator.minimal_bundles",
            "allocator.stranded_agents",
            "allocator.verify_allocation.self_s",
        ],
        "moves": "agents_per_s and instance_s_p50 on driver and adversarial; little on certify",
    },
    {
        "layer": "mms",
        "metrics": ["mms.mms_exact.calls", "mms.mms_exact.self_share"],
        "moves": "instance_s_p50 on certify only",
    },
    {
        "layer": "instances",
        "metrics": [
            "instances.parse_instance.self_s",
            "instances.serialize_allocation.calls",
            "instances.serialize_allocation.self_share",
            "instances.parse_allocation.calls",
            "instances.parse_allocation.self_share",
            "instances.doc_bytes",
        ],
        "moves": "adversarial (one large document) against certify (many small ones); 0 on driver",
    },
    {
        "layer": "cli",
        "metrics": ["cli.main.calls", "cli.main.self_share"],
        "moves": "certify only",
    },
)


def span_table(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Span name -> calls, self seconds and inclusive seconds, summed."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["self_s"] += own[span.id]
        row["total_s"] += span.duration
    return dict(table)


def unexpected_spans(table: dict[str, dict[str, float]], predicted: frozenset[str]) -> list[str]:
    """Spans that fired against the prediction, or stayed silent against it."""
    problems = []
    for name in SPAN_NAMES:
        fired = table.get(name, {}).get("calls", 0) > 0
        if fired != (name in predicted):
            problems.append(f"{name} {'fired' if fired else 'never fired'}, predicted the opposite")
    return problems


def layer_metrics(
    spans: Sequence[Span], queries_per_instance: float, overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged per traced instance.

    Exceptions: ``setsystem.blocks`` is per call, the ``queries_per_round``
    and ``useful_round_frac`` metrics are per round, and ``*share``
    metrics are a span's time over the traced instances' wall time.
    Shares stand in for seconds where a span is predicted to stay silent
    on some workload, so that no time metric reads a constant 0.
    """
    table = span_table(spans)
    # Guards keep a run cut off before its first traced instance reportable.
    instances_traced = max(1, sum(1 for span in spans if span.parent is None))
    wall = sum(span.duration for span in spans if span.parent is None) or 1.0
    rounds = [span for span in spans if span.name == ROUND]
    wasted = [span for span in rounds if span.counts.get("stranded", 0) > 0]

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def per(value: float) -> float:
        return value / instances_traced

    def counted(name: str, key: str) -> int:
        return sum(span.counts.get(key, 0) for span in spans if span.name == name)

    equivalence_calls = row(EQUIVALENCE)["calls"]
    return {
        "setsystem.equivalence_classes.calls": (per(equivalence_calls), "count"),
        "setsystem.equivalence_classes.self_s": (per(row(EQUIVALENCE)["self_s"]), "s"),
        "setsystem.blocks": (counted(EQUIVALENCE, "blocks") / max(1, equivalence_calls), "count"),
        "valuation.queries": (queries_per_instance, "count"),
        "valuation.bundle_value.calls": (per(row(BUNDLE_VALUE)["calls"]), "count"),
        "valuation.bundle_value.self_s": (per(row(BUNDLE_VALUE)["self_s"]), "s"),
        "allocator.fair_divide.calls": (per(row(FAIR_DIVIDE)["calls"]), "count"),
        "allocator.fair_divide.share": (row(FAIR_DIVIDE)["total_s"] / wall, "frac"),
        "allocator.rounds": (per(len(rounds)), "count"),
        "allocator.allocate_from_estimates.self_s": (per(row(ROUND)["self_s"]), "s"),
        "allocator.queries_per_round": (counted(ROUND, "queries") / max(1, len(rounds)), "count"),
        "allocator.wasted_round_s": (per(sum(span.duration for span in wasted)), "s"),
        "allocator.useful_round_frac": ((len(rounds) - len(wasted)) / max(1, len(rounds)), "frac"),
        "allocator.phase_bundles": (per(counted(ROUND, "phase_bundles")), "count"),
        "allocator.minimal_bundles": (per(counted(ROUND, "minimal_bundles")), "count"),
        "allocator.stranded_agents": (per(counted(ROUND, "stranded")), "count"),
        "allocator.verify_allocation.self_s": (per(row(VERIFY)["self_s"]), "s"),
        "mms.mms_exact.calls": (per(row(MMS)["calls"]), "count"),
        "mms.mms_exact.self_share": (row(MMS)["self_s"] / wall, "frac"),
        "instances.parse_instance.self_s": (per(row(PARSE_INSTANCE)["self_s"]), "s"),
        "instances.serialize_allocation.calls": (per(row(SERIALIZE_ALLOCATION)["calls"]), "count"),
        "instances.serialize_allocation.self_share": (row(SERIALIZE_ALLOCATION)["self_s"] / wall, "frac"),
        "instances.parse_allocation.calls": (per(row(PARSE_ALLOCATION)["calls"]), "count"),
        "instances.parse_allocation.self_share": (row(PARSE_ALLOCATION)["self_s"] / wall, "frac"),
        "instances.doc_bytes": (per(counted(PARSE_INSTANCE, "doc_bytes")), "B"),
        "cli.main.calls": (per(row(CLI_MAIN)["calls"]), "count"),
        "cli.main.self_share": (row(CLI_MAIN)["self_s"] / wall, "frac"),
        "trace_overhead_frac": (overhead, "frac"),
    }
