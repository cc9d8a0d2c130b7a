"""Command-line driver: generate instances, solve, verify, reproduce.

Exit codes: 0 success, 1 verification/reproduction failure, 2 usage,
input or file error (``InputError``, ``OSError``), 3 desk-cap exceeded
(``DeskCapError``), 4 internal error (any other ``FairdivError``: a
solver invariant failed, such as ``fair_divide`` not converging within
its round bound at alpha <= 11/30).  The rational flags ``--alpha``, ``--delta``
and ``--epsilon`` and the desk caps are parsed and range-checked once,
before a command runs.  All numeric output is rendered as reduced
fractions; ``mms`` and ``repro-upper-bound`` take ``--decimal`` to add
float approximations for reading convenience, which never feed back
into any computation.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any

from .allocator import (
    DEFAULT_NAIVE_CAP,
    MINIMAL,
    PHASE,
    ZERO_ESTIMATE,
    Allocation,
    allocate_from_estimates,
    allocate_naive,
    fair_divide,
    require_fits_instance,
    verify_allocation,
)
from .errors import DeskCapError, FairdivError, InputError, ParseError
from .instances import (
    MAX_AGENTS,
    RANDOM_FAMILIES,
    footnote_instance,
    parse_allocation,
    parse_instance,
    random_instance,
    serialize_allocation,
    serialize_instance,
    table1_instance,
)
from .mms import DEFAULT_MMS_CAP, mms_bounds, mms_exact
from .rationals import format_rational, parse_rational
from .valuation import value_groups

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_DESK_CAP = 3
EXIT_INTERNAL = 4

DEFAULT_ALPHA = "11/30"
DEFAULT_DELTA = "1/16"
DEFAULT_EPSILON = "1/10000000"
UPPER_BOUND_RATIO = Fraction(40, 107)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdiv",
        description="Approximate maximin-share fair division over hereditary set systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance document")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_table1 = gen_sub.add_parser("table1", help="the adversarial capacity instance")
    gen_table1.add_argument("--n", type=int, default=330, help="agents; multiple of 330")
    gen_footnote = gen_sub.add_parser("footnote", help="the three-item non-submodular example")
    gen_random = gen_sub.add_parser("random", help="seeded random instance")
    gen_random.add_argument("--seed", type=int, required=True)
    gen_random.add_argument("--m", type=int, required=True, help="item count")
    gen_random.add_argument("--n", type=int, required=True, help="agent count")
    gen_random.add_argument("--family", choices=RANDOM_FAMILIES, default="capacity")
    gen_random.add_argument("--max-num", type=int, default=8, help="value numerator bound")
    gen_random.add_argument("--max-den", type=int, default=4, help="value denominator bound")
    for gen_kind in (gen_table1, gen_footnote, gen_random):
        gen_kind.add_argument("-o", "--output", default="-", help="output file (default stdout)")

    solve = sub.add_parser("solve", help="allocate an instance file")
    solve.add_argument("instance", help="instance document path")
    solve.add_argument("--alpha", default=DEFAULT_ALPHA)
    solve.add_argument("--delta", default=DEFAULT_DELTA)
    solve.add_argument("--naive", action="store_true", help="run the reference search path")
    solve.add_argument("--naive-cap", type=int, default=DEFAULT_NAIVE_CAP)
    solve.add_argument("--trace", help="write trace records to this path")
    solve.add_argument("-o", "--output", default="-")

    mms = sub.add_parser("mms", help="maximin share of one agent")
    mms.add_argument("instance")
    mms.add_argument("--agent", type=int, default=0, help="agent index")
    mms.add_argument("--agents", type=int, default=None, help="partition size (default: instance n)")
    mms.add_argument("--cap", type=int, default=DEFAULT_MMS_CAP, help="exact-search item cap")
    mms.add_argument("--decimal", action="store_true")

    verify = sub.add_parser("verify", help="check an allocation document")
    verify.add_argument("allocation")
    verify.add_argument("instance")
    verify.add_argument("--floor-mode", choices=("mu", "exact-mms"), default="mu")
    verify.add_argument("--alpha", default=DEFAULT_ALPHA)
    verify.add_argument("--delta", default=DEFAULT_DELTA)
    verify.add_argument("--cap", type=int, default=DEFAULT_MMS_CAP)

    repro = sub.add_parser(
        "repro-upper-bound",
        help="replay the adversarial run that strands one agent in 330",
    )
    repro.add_argument("--n", type=int, default=330, help="agents; multiple of 330")
    repro.add_argument("--epsilon", default=DEFAULT_EPSILON)
    repro.add_argument("--trace", help="write trace records to this path")
    repro.add_argument("--decimal", action="store_true")

    return parser


def _join_negative_fractions(argv: list[str]) -> list[str]:
    """Spell ``--name -1/2`` as ``--name=-1/2`` for any flag, abbreviated or
    not, but the bare ``--``: argparse reads a separate ``-1/2`` as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and re.fullmatch(r"--[^=]+", joined[-1]) and re.fullmatch(r"-\d+/\d+", arg):
            arg = joined.pop() + "=" + arg
        joined.append(arg)
    return joined


def _parse_rational_flags(args: argparse.Namespace) -> None:
    """Replace each rational flag's text by its value, then range-check
    alpha, delta, the desk caps, the alpha 40/107 + epsilon that epsilon
    sets and the agent counts ``--n`` and ``--agents``, which a document
    holds from 1 to ``MAX_AGENTS``; a bad spelling or a value out of its
    range is a ``ParseError`` at the flag's full name."""
    for flag in ("alpha", "delta", "epsilon"):
        if hasattr(args, flag):
            try:
                setattr(args, flag, parse_rational(getattr(args, flag)))
            except ParseError as exc:
                raise ParseError(str(exc), location=f"--{flag}") from None
    for flag in ("n", "agents"):
        count = getattr(args, flag, None)
        if count is not None and not 1 <= count <= MAX_AGENTS:
            bound = "at least 1" if count < 1 else f"at most {MAX_AGENTS}"
            raise ParseError(f"must be {bound}, got {count}", location=f"--{flag}")
    for attr, flag in (("cap", "--cap"), ("naive_cap", "--naive-cap")):
        cap = getattr(args, attr, None)
        if cap is not None and cap < 0:
            raise ParseError(f"must be nonnegative, got {cap}", location=flag)
    alpha, delta = getattr(args, "alpha", None), getattr(args, "delta", None)
    if alpha is not None and alpha <= 0:
        raise ParseError(f"must be positive, got {alpha}", location="--alpha")
    if delta is not None and not 0 < delta < 1:
        raise ParseError(f"must lie in (0, 1), got {delta}", location="--delta")
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None and UPPER_BOUND_RATIO + epsilon <= 0:
        raise ParseError(f"40/107 + epsilon must be positive, got {epsilon}", location="--epsilon")


def _write_output(text: str, target: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")


def _read_document(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", location=path) from None


def _read_instance(path: str):
    return parse_instance(_read_document(path))


def _write_trace(allocation: Allocation, path: str | None) -> None:
    if path:
        Path(path).write_text(
            "".join(line + "\n" for line in allocation.trace_records()),
            encoding="utf-8",
        )


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "table1":
        instance = table1_instance(args.n)
    elif args.kind == "footnote":
        instance = footnote_instance()
    else:
        instance = random_instance(
            args.seed, args.m, args.n, args.family, (args.max_num, args.max_den)
        )
    _write_output(serialize_instance(instance), args.output)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _read_instance(args.instance)
    if args.naive:
        allocation = allocate_naive(instance, args.alpha, max_items=args.naive_cap)
    else:
        allocation, _mu = fair_divide(instance, args.alpha, args.delta)
    _write_output(serialize_allocation(allocation, alpha=args.alpha), args.output)
    _write_trace(allocation, args.trace)
    return EXIT_OK


def _cmd_mms(args: argparse.Namespace) -> int:
    instance = _read_instance(args.instance)
    if not 0 <= args.agent < instance.n:
        raise ParseError(f"must lie in [0, {instance.n}), got {args.agent}", location="--agent")
    parts = args.agents if args.agents is not None else instance.n
    valuation = instance.valuations[args.agent]
    doc: dict[str, Any] = {"agent": args.agent, "parts": parts}
    try:
        result = mms_exact(instance.spec, valuation, parts, max_items=args.cap)
        doc["mode"] = "exact"
        doc["value"] = format_rational(result.value)
        doc["witness"] = [sorted(part) for part in result.witness]
        if args.decimal:
            doc["value_decimal"] = float(result.value)
    except DeskCapError:
        lower, upper = mms_bounds(instance.spec, valuation, parts)
        doc["mode"] = "bounds"
        doc["lower"] = format_rational(lower)
        doc["upper"] = format_rational(upper)
        if args.decimal:
            doc["lower_decimal"] = float(lower)
            doc["upper_decimal"] = float(upper)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    allocation = parse_allocation(_read_document(args.allocation))
    instance = _read_instance(args.instance)
    # a document that does not fit exits 2 before any share is computed
    require_fits_instance(allocation, instance)
    if args.floor_mode == "mu":
        # Event thresholds are alpha * mu at allocation time; estimates of
        # allocated agents never shrink afterwards, so these are final.  An
        # agent without an event has no recorded threshold, so no floor.
        floors = {event.agent: event.threshold for event in allocation.trace}
    else:
        # One exact share per value group: identical agents share one row.
        scale = (1 - args.delta) * args.alpha
        reps, group_of = value_groups(instance.valuations)
        shares = [
            mms_exact(instance.spec, rep, instance.n, max_items=args.cap).value for rep in reps
        ]
        floors = {agent: scale * shares[g] for agent, g in enumerate(group_of)}
    report = verify_allocation(instance, allocation, floors)
    doc = {
        "floor_mode": args.floor_mode,
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "agent": v.agent, "message": v.message}
            for v in report.violations
        ],
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK if report.ok else EXIT_FAILED_CHECK


def _cmd_repro(args: argparse.Namespace) -> int:
    instance = table1_instance(args.n)
    alpha = UPPER_BOUND_RATIO + args.epsilon
    started = time.monotonic()
    allocation = allocate_from_estimates(instance, (Fraction(1),) * instance.n, alpha)
    elapsed = time.monotonic() - started
    sizes = Counter((event.kind, event.phase) for event in allocation.trace)
    histogram: dict[str, Any] = {
        kind: {str(size): sizes[k, size] for k, size in sorted(sizes) if k == kind}
        for kind in (PHASE, MINIMAL)
    }
    histogram[ZERO_ESTIMATE] = sizes[ZERO_ESTIMATE, 0]
    expected = args.n // 330
    unallocated = len(allocation.unallocated_agents)
    doc: dict[str, Any] = {
        "n": args.n,
        "alpha": format_rational(alpha),
        "histogram": histogram,
        "allocated": len(allocation.bundles),
        "unallocated": unallocated,
        "expected_unallocated": expected,
    }
    if args.decimal:
        doc["alpha_decimal"] = float(alpha)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    sys.stderr.write(f"completed in {elapsed:.2f}s\n")
    _write_trace(allocation, args.trace)
    return EXIT_OK if unallocated == expected else EXIT_FAILED_CHECK


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "mms": _cmd_mms,
    "verify": _cmd_verify,
    "repro-upper-bound": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_fractions(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _parse_rational_flags(args)
        return _HANDLERS[args.command](args)
    except DeskCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DESK_CAP
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except FairdivError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
