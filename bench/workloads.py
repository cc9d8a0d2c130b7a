"""The benchmark's workloads: seeded inputs, one checked pass per instance.

Each workload turns a seed into a fixed list of instance documents
(set-up, not timed) and runs one instance at a time from document text
to a checked allocation (timed).  Steps call the program through module
attributes (``allocator.fair_divide``, not a name bound at import), so
the traced run sees the benchmark's own calls as well as the program's.

Why the seed renumbers the agents of a fixed corpus: instance cost varies
several-fold between ``random_instance`` seeds, and renumbering the items
moves one ``driver`` instance's cost by up to 2x and the valuation
queries of a whole set by 5-10 %.  With either, the seed rather than the
code would decide most of the spread between runs.  Renumbering the
agents changes every document and the order in which agents are
considered, while the queries of a ``driver`` set stay within 0.1 %.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import fairdiv.allocator as allocator
import fairdiv.cli as cli
import fairdiv.instances as instances
from fairdiv import (
    Instance,
    Valuation,
    random_instance,
    serialize_instance,
    table1_instance,
)

DEFAULT_SEED = 0

DRIVER_ALPHA = Fraction(11, 30)
DRIVER_DELTA = Fraction(1, 16)
DRIVER_CONFIGS = (
    ("capacity", 12, 3),
    ("free", 12, 3),
    ("explicit-antichain", 12, 3),
    ("capacity", 24, 4),
    ("free", 24, 4),
    ("explicit-antichain", 16, 4),
)
DRIVER_PER_CONFIG = 3

CERTIFY_CONFIGS = tuple((family, 10, 3) for family in ("capacity", "explicit-antichain", "free"))
CERTIFY_PER_CONFIG = 48

TABLE1_N = 990
TABLE1_ALPHA = Fraction(40, 107) + Fraction(1, 10**7)
TABLE1_STRANDED = 3
TABLE1_PHASE = {2: 495, 3: 330}
TABLE1_MINIMAL = {5: 132, 11: 30}


@dataclass(frozen=True)
class Item:
    """One instance document; ``path`` is set when a step reads it from disk."""

    label: str
    doc: str
    path: Path | None = None


@dataclass(frozen=True)
class Outcome:
    """What one step produced and whether its checks passed."""

    agents: int  # agents holding a verified bundle
    queries: int  # Valuation.query_count summed over every parsed copy
    digest: str  # sha256 of the allocation document (or trace records)
    problem: str | None = None  # None when every check passed


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list[Item]]
    step: Callable[[Item], Outcome]
    seed_changes_input: bool = True


def relabeled(instance: Instance, rng: random.Random) -> Instance:
    """The same instance with its agents renumbered at random."""
    order = list(range(instance.n))
    rng.shuffle(order)
    valuations = tuple(Valuation(instance.valuations[old].values) for old in order)
    return Instance(instance.name, instance.n, instance.spec, valuations, seed=instance.seed)


def corpus(workload: str, seed: int, configs, per_config: int) -> Iterator[tuple[str, Instance]]:
    """``per_config`` random instances of each config, cycling through the
    configs, each with its agents renumbered by a permutation drawn from
    ``seed``."""
    for k in range(per_config):
        for c, (family, m, n) in enumerate(configs):
            base_seed = k * len(configs) + c + 1
            rng = random.Random(f"{workload}:{seed}:{k}:{c}")
            label = f"{family}-m{m}-n{n}-base{base_seed}"
            yield label, relabeled(random_instance(base_seed, m, n, family), rng)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instance_queries(instance: Instance) -> int:
    return sum(val.query_count for val in instance.valuations)


def _trace_floors(allocation) -> dict[int, Fraction]:
    # Event thresholds are alpha * mu at allocation time, the floors the
    # CLI's --floor-mode mu verifies against.
    return {event.agent: event.threshold for event in allocation.trace}


def _verified_agents(allocation, report) -> int:
    failed = {violation.agent for violation in report.violations}
    return len(set(allocation.bundles) - failed)


# --- driver: parse_instance -> fair_divide -> verify_allocation ---------------


def build_driver(seed: int, workdir: Path) -> list[Item]:
    return [
        Item(label, serialize_instance(instance))
        for label, instance in corpus("driver", seed, DRIVER_CONFIGS, DRIVER_PER_CONFIG)
    ]


def run_driver(item: Item) -> Outcome:
    instance = instances.parse_instance(item.doc)
    allocation, _mu = allocator.fair_divide(instance, DRIVER_ALPHA, DRIVER_DELTA)
    report = allocator.verify_allocation(instance, allocation, _trace_floors(allocation))
    problems = []
    if allocation.unallocated_agents or sorted(allocation.bundles) != list(range(instance.n)):
        problems.append(f"agents left without a bundle: {sorted(allocation.unallocated_agents)}")
    if not report.ok:
        problems.append(f"verify_allocation: {[v.message for v in report.violations]}")
    records = allocation.trace_records()
    records.append(f"unallocated={sorted(allocation.unallocated_agents)}")
    return Outcome(
        agents=_verified_agents(allocation, report),
        queries=instance_queries(instance),
        digest=_digest("\n".join(records)),
        problem="; ".join(problems) or None,
    )


# --- adversarial: the Table 1 run at n = 990 -----------------------------------


def build_adversarial(seed: int, workdir: Path) -> list[Item]:
    # The paper's instance is fixed; the seed does not change it.
    return [Item(f"table1-n{TABLE1_N}", serialize_instance(table1_instance(TABLE1_N)))]


def run_adversarial(item: Item) -> Outcome:
    instance = instances.parse_instance(item.doc)
    estimates = allocator.EstimateVector((Fraction(1),) * instance.n)
    allocation = allocator.allocate_from_estimates(instance, estimates, TABLE1_ALPHA)
    document = instances.serialize_allocation(allocation, alpha=TABLE1_ALPHA)
    replayed = instances.parse_allocation(document)
    report = allocator.verify_allocation(instance, replayed, _trace_floors(replayed))
    phase = Counter(e.phase for e in replayed.trace if e.kind == allocator.PHASE)
    minimal = Counter(e.phase for e in replayed.trace if e.kind == allocator.MINIMAL)
    problems = []
    if len(replayed.unallocated_agents) != TABLE1_STRANDED:
        problems.append(f"{len(replayed.unallocated_agents)} agents stranded, expected {TABLE1_STRANDED}")
    if dict(phase) != TABLE1_PHASE or dict(minimal) != TABLE1_MINIMAL:
        problems.append(f"histogram phase {dict(phase)} minimal {dict(minimal)}")
    if replayed.bundles != allocation.bundles:
        problems.append("allocation document does not replay to the same bundles")
    if not report.ok:
        problems.append(f"verify_allocation: {[v.message for v in report.violations][:3]}")
    return Outcome(
        agents=_verified_agents(replayed, report),
        queries=instance_queries(instance),
        digest=_digest(document),
        problem="; ".join(problems) or None,
    )


# --- certify: `fairdiv solve`, then `fairdiv verify --floor-mode exact-mms` ------


def build_certify(seed: int, workdir: Path) -> list[Item]:
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for index, (label, instance) in enumerate(
        corpus("certify", seed, CERTIFY_CONFIGS, CERTIFY_PER_CONFIG)
    ):
        doc = serialize_instance(instance)
        path = workdir / f"instance-{index}.json"
        path.write_text(doc, encoding="utf-8")
        items.append(Item(label, doc, path))
    return items


@contextlib.contextmanager
def _capturing_parses(parsed: list[Instance]) -> Iterator[None]:
    # The CLI builds its Instance objects internally; keep them so their
    # query counters can be read once the commands return.
    original = cli.parse_instance

    def capture(text: str) -> Instance:
        instance = original(text)
        parsed.append(instance)
        return instance

    cli.parse_instance = capture
    try:
        yield
    finally:
        cli.parse_instance = original


def run_certify(item: Item) -> Outcome:
    allocation_path = Path(item.path).with_suffix(".allocation.json")
    parsed: list[Instance] = []
    out, err = io.StringIO(), io.StringIO()
    with _capturing_parses(parsed), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        solved = cli.main(["solve", str(item.path), "-o", str(allocation_path)])
        verified = None
        if solved == 0:
            verified = cli.main(
                ["verify", str(allocation_path), str(item.path), "--floor-mode", "exact-mms"]
            )
    queries = sum(instance_queries(instance) for instance in parsed)
    if solved != 0:
        return Outcome(0, queries, "", f"solve exited {solved}: {err.getvalue().strip()}")
    document = allocation_path.read_text(encoding="utf-8")
    report = json.loads(out.getvalue()) if verified == 0 else {"ok": False}
    problems = []
    if verified != 0 or report.get("ok") is not True:
        problems.append(f"verify exited {verified}: {out.getvalue().strip()} {err.getvalue().strip()}")
    allocated = json.loads(document)["summary"]["allocated"]
    return Outcome(
        agents=0 if problems else allocated,
        queries=queries,
        digest=_digest(document),
        problem="; ".join(problems) or None,
    )


WORKLOADS = {
    "driver": Workload("driver", build_driver, run_driver),
    "adversarial": Workload(
        "adversarial", build_adversarial, run_adversarial, seed_changes_input=False
    ),
    "certify": Workload("certify", build_certify, run_certify),
}
