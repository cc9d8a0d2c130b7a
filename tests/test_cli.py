import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairdiv
from fairdiv import (
    ParseError,
    footnote_instance,
    mms_exact,
    parse_allocation,
    parse_instance,
    random_instance,
    serialize_instance,
    table1_instance,
)
from fairdiv.cli import main
from fairdiv.instances import MAX_AGENTS
from support import replicate_agents


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_footnote_round_trip(tmp_path, capsys):
    out = tmp_path / "fn.json"
    code, _, _ = run_cli(capsys, "gen", "footnote", "-o", str(out))
    assert code == 0
    assert parse_instance(out.read_text()) == footnote_instance()


def test_gen_table1_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "table1", "--n", "330")
    assert code == 0
    assert parse_instance(out).num_items == 14190


def test_gen_table1_bad_n(capsys):
    code, _, err = run_cli(capsys, "gen", "table1", "--n", "100")
    assert code == 2
    assert "330" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("gen", "random", "--seed", "0", "--m", "0", "--n", "{over}", "-o", "{out}"), "--n"),
        (("gen", "table1", "--n", "{over330}", "-o", "{out}"), "--n"),
        (("mms", "{fn}", "--agents", "{over}"), "--agents"),
        (("repro-upper-bound", "--n", "{over330}"), "--n"),
        (("gen", "random", "--seed", "0", "--m", "0", "--n", "0", "-o", "{out}"), "--n"),
        (("gen", "table1", "--n", "0", "-o", "{out}"), "--n"),
        (("mms", "{fn}", "--agents", "0"), "--agents"),
        (("repro-upper-bound", "--n", "0"), "--n"),
    ],
    ids=["gen-random", "gen-table1", "mms-agents", "repro"]
    + ["gen-random-zero", "gen-table1-zero", "mms-agents-zero", "repro-zero"],
)
def test_agent_count_flags_stop_at_the_document_cap(tmp_path, capsys, argv, flag):
    """A document holds 1 to MAX_AGENTS agents, and so may a flag: a count
    outside that range is refused before anything is built or written."""
    fn = tmp_path / "fn.json"
    fn.write_text(serialize_instance(footnote_instance()))
    out = tmp_path / "out.json"
    over = MAX_AGENTS + 1
    fields = dict(over=over, over330=-(-over // 330) * 330, fn=fn, out=out)
    code, stdout, err = run_cli(capsys, *(arg.format(**fields) for arg in argv))
    assert code == 2
    count = argv[argv.index(flag) + 1].format(**fields)
    assert err == f"error: {flag}: must lie in [1, {MAX_AGENTS}], got {count}\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("mms", "{fn}", "--cap", "-1"), "--cap: must be nonnegative, got -1"),
        (
            ("solve", "{fn}", "--naive-cap", "-3", "-o", "{out}"),
            "--naive-cap: must be nonnegative, got -3",
        ),
        (("mms", "{fn}", "--agent", "5"), "--agent: must lie in [0, 1), got 5"),
        (
            ("gen", "random", "--seed", "1", "--m", "-1", "--n", "2", "-o", "{out}"),
            "--m: must be >= 0, got -1",
        ),
        (
            ("gen", "table1", "--n", "331", "-o", "{out}"),
            "--n: must be a positive multiple of 330, got 331",
        ),
        (
            ("repro-upper-bound", "--n", "331", "--trace", "{out}"),
            "--n: must be a positive multiple of 330, got 331",
        ),
    ],
    ids=["mms-cap", "solve-naive-cap", "mms-agent", "gen-random-m", "gen-table1-n", "repro-n"],
)
def test_range_flags_are_located_at_the_flag(tmp_path, capsys, argv, message):
    """A cap or agent index out of range names the flag the user typed,
    exits 2 and writes nothing."""
    fn = tmp_path / "fn.json"
    fn.write_text(serialize_instance(footnote_instance()))
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(capsys, *(arg.format(fn=fn, out=out) for arg in argv))
    assert code == 2
    assert err == f"error: {message}\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("bound", ["--max-num", "--max-den"])
def test_gen_random_value_bound_below_one_is_a_usage_error(capsys, bound):
    argv = ("gen", "random", "--seed", "1", "--m", "3", "--n", "2", bound, "0")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {bound}: must be >= 1, got 0\n"


def test_gen_random_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "random", "--seed", "9", "--m", "5", "--n", "2")
    code2, out2, _ = run_cli(capsys, "gen", "random", "--seed", "9", "--m", "5", "--n", "2")
    assert code == code2 == 0
    assert out1 == out2


def test_mms_footnote_with_agents_override(tmp_path, capsys):
    path = tmp_path / "fn.json"
    path.write_text(serialize_instance(footnote_instance()))
    code, out, _ = run_cli(capsys, "mms", str(path), "--agents", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact"
    assert doc["value"] == "3/1"
    assert doc["witness"] == [[0], [1, 2]]


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (("mms", "{inst}", "--agents", "2", "--decimal"), "value_decimal", 3.0),
        (("repro-upper-bound", "--decimal"), "alpha_decimal", 40 / 107 + 1e-7),
    ],
    ids=["mms-exact", "repro"],
)
def test_decimal_adds_a_float_approximation(tmp_path, capsys, argv, field, value):
    path = tmp_path / "fn.json"
    path.write_text(serialize_instance(footnote_instance()))
    code, out, _ = run_cli(capsys, *(arg.format(inst=path) for arg in argv))
    assert code == 0
    assert json.loads(out)[field] == pytest.approx(value)


def test_mms_falls_back_to_bounds_over_cap(tmp_path, capsys):
    path = tmp_path / "t1.json"
    path.write_text(serialize_instance(table1_instance(330)))
    code, out, _ = run_cli(capsys, "mms", str(path), "--decimal")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "bounds"
    assert doc["lower"] == "40/107"
    assert doc["upper"] == "567600/107"


@pytest.mark.parametrize(
    "set_system",
    [
        {"type": "capacity", "caps": [0, 1], "class_of": [0, 0, 0, 1]},
        {"type": "explicit", "maximal_sets": []},
        {"type": "explicit", "maximal_sets": [[]]},
    ],
    ids=["cap-0", "no-sets", "empty-set"],
)
def test_items_infeasible_alone_solve_and_verify(tmp_path, capsys, set_system):
    """Items that no feasible set holds are worth 0 everywhere: the share
    bounds skip them and contain the exact share, so ``fair_divide``
    starts at a certified bound, converges and passes exact-mms verify."""
    values = [["5", "5", "5", "1"]]
    doc = {"name": "degenerate", "n": 2, "set_system": set_system, "valuations": values}
    inst_path, alloc_path = tmp_path / "z.json", tmp_path / "za.json"
    inst_path.write_text(json.dumps(doc))
    assert run_cli(capsys, "solve", str(inst_path), "-o", str(alloc_path))[0] == 0
    code, out, _ = run_cli(
        capsys, "verify", str(alloc_path), str(inst_path), "--floor-mode", "exact-mms"
    )
    assert (code, json.loads(out)["ok"]) == (0, True)
    exact = json.loads(run_cli(capsys, "mms", str(inst_path))[1])
    bounds = json.loads(run_cli(capsys, "mms", str(inst_path), "--cap", "0")[1])
    assert bounds["mode"] == "bounds"
    value, lower, upper = (Fraction(x) for x in (exact["value"], bounds["lower"], bounds["upper"]))
    assert lower <= value <= upper


def test_solve_verify_loop(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    trace_path = tmp_path / "trace.txt"
    code, _, _ = run_cli(
        capsys, "gen", "random", "--seed", "21", "--m", "7", "--n", "3", "-o", str(inst_path)
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys,
        "solve",
        str(inst_path),
        "-o",
        str(alloc_path),
        "--trace",
        str(trace_path),
    )
    assert code == 0
    doc = json.loads(alloc_path.read_text())
    assert doc["summary"]["unallocated"] == 0
    first_line = trace_path.read_text().splitlines()[0]
    assert first_line.startswith("phase=") and "threshold=" in first_line

    code, out, _ = run_cli(capsys, "verify", str(alloc_path), str(inst_path), "--floor-mode", "mu")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run_cli(
        capsys, "verify", str(alloc_path), str(inst_path), "--floor-mode", "exact-mms"
    )
    assert code == 0

    # an absurd target value makes every floor unreachable
    code, out, _ = run_cli(
        capsys,
        "verify",
        str(alloc_path),
        str(inst_path),
        "--floor-mode",
        "exact-mms",
        "--alpha",
        "1000",
    )
    assert code == 1
    assert json.loads(out)["violations"]


def test_solve_naive_desk_cap(tmp_path, capsys):
    inst_path = tmp_path / "big.json"
    code, _, _ = run_cli(
        capsys,
        "gen",
        "random",
        "--seed",
        "3",
        "--m",
        "17",
        "--n",
        "2",
        "--family",
        "free",
        "--max-num",
        "50",
        "--max-den",
        "49",
        "-o",
        str(inst_path),
    )
    assert code == 0
    code, _, err = run_cli(capsys, "solve", str(inst_path), "--naive")
    assert code == 3
    assert "blocks" in err


def test_solve_naive_small(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "random", "--seed", "4", "--m", "6", "--n", "2", "-o", str(inst_path))
    code, out, _ = run_cli(capsys, "solve", str(inst_path), "--naive", "--alpha", "1/2")
    assert code == 0
    assert json.loads(out)["alpha"] == "1/2"


def test_usage_errors(tmp_path, capsys):
    assert run_cli(capsys, "solve", str(tmp_path / "missing.json"))[0] == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    inst_path, latin1_path = tmp_path / "inst.json", tmp_path / "latin1.json"
    assert run_cli(capsys, "gen", "footnote", "-o", str(inst_path))[0] == 0
    latin1_path.write_bytes(inst_path.read_text().replace("footnote", "f\u00f6otnote").encode("latin-1"))
    for argv in [
        ("solve", str(latin1_path)),
        ("verify", str(latin1_path), str(inst_path)),
        ("solve", str(tmp_path)),
        ("mms", str(tmp_path)),
        ("mms", str(inst_path), "--agent", "1"),
        ("solve", str(inst_path), "-o", str(tmp_path)),
        ("solve", str(inst_path), "--trace", str(tmp_path)),
        ("gen", "footnote", "-o", str(tmp_path)),
    ]:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "Traceback" not in err


def test_solve_has_no_decimal_option(solved, capsys):
    inst_path, _ = solved
    code, _, err = run_cli(capsys, "solve", str(inst_path), "--decimal")
    assert code == 2
    assert "unrecognized arguments: --decimal" in err


@pytest.fixture
def solved(tmp_path, capsys):
    """Paths of a small random instance and its solved allocation."""
    inst_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    run_cli(capsys, "gen", "random", "--seed", "21", "--m", "7", "--n", "3", "-o", str(inst_path))
    assert run_cli(capsys, "solve", str(inst_path), "-o", str(alloc_path))[0] == 0
    return inst_path, alloc_path


_PARAMETER_EDGES = [
    (("solve", "{inst}", "--alpha", "0"), "--alpha: must be positive, got 0"),
    (("solve", "{inst}", "--delta", "1"), "--delta: must lie in (0, 1), got 1"),
    (
        ("verify", "{alloc}", "{inst}", "--floor-mode", "mu", "--delta", "0"),
        "--delta: must lie in (0, 1), got 0",
    ),
    (
        ("verify", "{alloc}", "{inst}", "--floor-mode", "exact-mms", "--delta", "0"),
        "--delta: must lie in (0, 1), got 0",
    ),
    (
        ("repro-upper-bound", "--epsilon", "-1"),
        "--epsilon: 40/107 + epsilon must be positive, got -1",
    ),
    (("solve", "{inst}", "--alpha", "0.5"), "--alpha: not a canonical rational: '0.5'"),
    (("repro-upper-bound", "--epsilon", "1/-2"), "--epsilon: not a canonical rational: '1/-2'"),
    # the naive path reads no delta, but every solve checks it
    (("solve", "{inst}", "--naive", "--delta", "5"), "--delta: must lie in (0, 1), got 5"),
    (("mms", "{inst}", "--cap", "-1"), "--cap: must be nonnegative, got -1"),
    (
        ("solve", "{inst}", "--naive", "--naive-cap", "-5"),
        "--naive-cap: must be nonnegative, got -5",
    ),
    # a negative fraction as its own argument reaches the same check
    (("solve", "{inst}", "--alpha", "-1/2"), "--alpha: must be positive, got -1/2"),
    (("solve", "{inst}", "--delta", "-1/2"), "--delta: must lie in (0, 1), got -1/2"),
    (
        ("repro-upper-bound", "--epsilon", "-1/2"),
        "--epsilon: 40/107 + epsilon must be positive, got -1/2",
    ),
    # and so does one after an abbreviated flag
    (("solve", "{inst}", "--alph", "-1/2"), "--alpha: must be positive, got -1/2"),
    (("solve", "{inst}", "--de", "-1/2"), "--delta: must lie in (0, 1), got -1/2"),
    (
        ("repro-upper-bound", "--eps", "-1/2"),
        "--epsilon: 40/107 + epsilon must be positive, got -1/2",
    ),
    # a cap the command does not read is checked all the same
    (("solve", "{inst}", "--naive-cap", "-5"), "--naive-cap: must be nonnegative, got -5"),
    (("verify", "{alloc}", "{inst}", "--cap", "-1"), "--cap: must be nonnegative, got -1"),
    # a path flag takes the fraction as its path; after the bare -- it is the instance
    (("solve", "{inst}", "--trace", "-1/2"), "[Errno 2] No such file or directory: '-1/2'"),
    (("solve", "--", "-1/2"), "[Errno 2] No such file or directory: '-1/2'"),
    # an agent index outside the instance is located at its flag
    (("mms", "{inst}", "--agent", "3"), "--agent: must lie in [0, 3), got 3"),
    (("mms", "{inst}", "--agent", "-1"), "--agent: must lie in [0, 3), got -1"),
]


@pytest.mark.parametrize(
    "argv, message", _PARAMETER_EDGES, ids=[f"argv{i}" for i in range(len(_PARAMETER_EDGES))]
)
def test_parameter_edges_are_usage_errors(solved, capsys, argv, message):
    """A bad flag prints one line, no usage block and no traceback."""
    inst_path, alloc_path = solved
    code, _, err = run_cli(
        capsys, *(arg.format(inst=inst_path, alloc=alloc_path) for arg in argv)
    )
    assert code == 2
    assert err == f"error: {message}\n"


_DIGITS = "9" * 5000
# JSON that json.dumps cannot write, put in place of these strings
_RAW_JSON = {"@huge-int@": _DIGITS, "@deep-lists@": "[" * 100000 + "]" * 100000}


def _rewrite_document(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    text = json.dumps(doc)
    for placeholder, raw in _RAW_JSON.items():
        text = text.replace(json.dumps(placeholder), raw)
    path.write_text(text)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("gen", "table1", "--n", "-1/2"), "--n"),
        (("solve", "{inst}", "--naive-cap", "-1/2"), "--naive-cap"),
    ],
    ids=["n", "naive-cap"],
)
def test_an_int_flag_refuses_a_negative_fraction(solved, capsys, argv, flag):
    code, _, err = run_cli(capsys, *(arg.format(inst=solved[0]) for arg in argv))
    assert code == 2
    assert err.endswith(f"error: argument {flag}: invalid int value: '-1/2'\n")


def test_verify_rejects_a_zero_alpha(solved, capsys):
    inst_path, alloc_path = solved

    def zero_alpha(doc):
        doc["alpha"] = "0/1"
        doc["summary"]["min_ratio_to_mu"] = "0/1"

    _rewrite_document(alloc_path, zero_alpha)
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err == "error: alpha: must be positive, got 0\n"


def test_verify_rejects_agent_both_allocated_and_unallocated(solved, capsys):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, lambda doc: doc["unallocated_agents"].append(0))
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith("error: unallocated_agents: ")


def test_verify_rejects_second_event_for_one_agent(solved, capsys):
    # a trailing empty event with threshold 0 would otherwise replace the
    # agent's real bundle and floor, and verify would pass
    inst_path, alloc_path = solved

    def add_empty_event(doc):
        first = doc["events"][0]
        doc["events"].append(dict(first, bundle=[], value="0/1", threshold="0/1"))

    _rewrite_document(alloc_path, add_empty_event)
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith("error: events[3]: ")


def _without_summary(edit):
    """``edit``, then drop the summary, which would no longer match."""
    return lambda doc: (edit(doc), doc.pop("summary"))


@pytest.mark.parametrize("summary", ["dropped", "unallocated-1"])
def test_verify_rejects_an_agent_listed_twice_as_unallocated(solved, capsys, summary):
    # a set of the listed agents would count the agent once, so a summary
    # of one unallocated agent would match too
    inst_path, alloc_path = solved

    def strand_twice(doc):
        agent = doc["events"].pop(0)["agent"]
        doc["unallocated_agents"] = [agent, agent]
        if summary == "dropped":
            del doc["summary"]
        else:
            doc["summary"].update(allocated=doc["summary"]["allocated"] - 1, unallocated=1)

    _rewrite_document(alloc_path, strand_twice)
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err == "error: unallocated_agents: lists an entry more than once\n"


def test_verify_rejects_agent_left_out(solved, capsys):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, _without_summary(lambda doc: doc["events"].pop()))
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith("error: allocation: ")
    assert "neither events nor unallocated_agents" in err


def test_verify_exact_mms_fails_an_agent_left_without_a_bundle(tmp_path, capsys):
    """Moving agent 1's event into unallocated_agents leaves it the empty
    bundle, below its exact-mms floor; the mu floors know no threshold
    for it."""
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst_path.write_text(serialize_instance(random_instance(3, 8, 3, "capacity")))
    assert run_cli(capsys, "solve", str(inst_path), "-o", str(alloc_path))[0] == 0

    def strand_agent_1(doc):
        doc["events"] = [event for event in doc["events"] if event["agent"] != 1]
        doc["unallocated_agents"] = sorted(doc["unallocated_agents"] + [1])

    _rewrite_document(alloc_path, _without_summary(strand_agent_1))
    code, out, _ = run_cli(
        capsys, "verify", str(alloc_path), str(inst_path), "--floor-mode", "exact-mms"
    )
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"kind": "below-floor", "agent": 1, "message": "agent 1 bundle value 0/1 below floor 55/24"}
    ]
    assert run_cli(capsys, "verify", str(alloc_path), str(inst_path), "--floor-mode", "mu")[0] == 0


def test_verify_exact_mms_computes_one_share_per_shared_row(tmp_path, capsys, monkeypatch):
    """Identical agents share one value row, so their exact share is
    computed once, and every agent still gets its floor."""
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst_path.write_text(serialize_instance(replicate_agents(footnote_instance(), 4)))
    assert run_cli(capsys, "solve", str(inst_path), "-o", str(alloc_path))[0] == 0
    shares, floors = [], {}
    verify_allocation = fairdiv.cli.verify_allocation

    def counting_mms_exact(*args, **kwargs):
        result = mms_exact(*args, **kwargs)
        shares.append(result.value)
        return result

    def capturing_verify(instance, allocation, agent_floors):
        floors.update(agent_floors)
        return verify_allocation(instance, allocation, agent_floors)

    monkeypatch.setattr(fairdiv.cli, "mms_exact", counting_mms_exact)
    monkeypatch.setattr(fairdiv.cli, "verify_allocation", capturing_verify)
    code, _, _ = run_cli(
        capsys, "verify", str(alloc_path), str(inst_path), "--floor-mode", "exact-mms"
    )
    assert code == 0
    assert len(shares) == 1
    assert floors == {agent: Fraction(11, 30) * Fraction(15, 16) * shares[0] for agent in range(4)}


def test_verify_rejects_unallocated_agent_beyond_n(solved, capsys):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, _without_summary(lambda doc: doc.update(unallocated_agents=[7])))
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith("error: unallocated_agents: ")


def test_verify_rejects_bundle_item_beyond_m(solved, capsys):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, lambda doc: doc["events"][0].update(bundle=[99], phase=1))
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith("error: events[0].bundle: ")


def _set_event_field(field, value):
    return lambda doc: doc["events"][0].update({field: value})


@pytest.mark.parametrize(
    "edit, location",
    [
        (_set_event_field("bundle", 5), "events[0].bundle"),
        (_set_event_field("bundle", ["1"]), "events[0].bundle"),
        (_set_event_field("agent", [0]), "events[0].agent"),
        (lambda doc: doc.update(unallocated_agents=5), "unallocated_agents"),
        (lambda doc: doc.update(events={}), "events"),
        (lambda doc: doc["events"].__setitem__(0, 5), "events[0]"),
        (_set_event_field("value", "x"), "events[0].value"),
        (_set_event_field("threshold", "1/0"), "events[0].threshold"),
        (_set_event_field("threshold", "-1/2"), "events[0].threshold"),
        (_set_event_field("threshold", "1/-2"), "events[0].threshold"),
        (_set_event_field("value", "-1/2"), "events[0].value"),
        (_set_event_field("value", "2/4"), "events[0].value"),
        (_set_event_field("value", " 3 "), "events[0].value"),
        (_set_event_field("value", "007/1"), "events[0].value"),
        (_set_event_field("phase", "x"), "events[0].phase"),
        (_set_event_field("phase", True), "events[0].phase"),
        (_set_event_field("phase", -1), "events[0].phase"),
        # events[0] gives item 3 alone; its value stays that of {3}
        (lambda doc: doc["events"][0].update(bundle=[3, 3], phase=2), "events[0].bundle"),
        (_set_event_field("agent", "@huge-int@"), "document"),
        (lambda doc: doc.update(events="@deep-lists@"), "document"),
        (_set_event_field("value", _DIGITS), "events[0].value"),
        (_set_event_field("agent", 3), "events[0].agent"),
        (_set_event_field("kind", "gift"), "events[0]"),
        (lambda doc: doc["events"][0].update(phase=doc["events"][0]["phase"] + 1), "events[0].phase"),
        (
            lambda doc: doc["summary"].update(allocated=99, unallocated=-4, min_ratio_to_mu="5/1"),
            "summary.allocated",
        ),
        (lambda doc: doc["summary"].update(unallocated=1), "summary.unallocated"),
        (lambda doc: doc["summary"].update(allocated=True), "summary.allocated"),
        (lambda doc: doc["summary"].update(min_ratio_to_mu="5/1"), "summary.min_ratio_to_mu"),
        (lambda doc: doc["summary"].update(min_ratio_to_mu=None), "summary.min_ratio_to_mu"),
        (lambda doc: doc.update(alpha="7/1"), "summary.min_ratio_to_mu"),
        (lambda doc: doc.pop("alpha"), "summary.min_ratio_to_mu"),
        (lambda doc: doc.update(alpha="0.5"), "alpha"),
        (lambda doc: doc.update(summary=5), "summary"),
        # events[0] gives item 3 alone: a zero-estimate kind keeps the item,
        # a phase kind drops it
        (_without_summary(_set_event_field("kind", "zero-estimate")), "events[0].kind"),
        (
            _without_summary(
                lambda doc: doc["events"][0].update(
                    kind="phase", bundle=[], phase=0, value="0", threshold="0"
                )
            ),
            "events[0].kind",
        ),
    ],
    ids=[
        "bundle-int",
        "bundle-strings",
        "agent-list",
        "unallocated-int",
        "events-object",
        "event-int",
        "value-string",
        "threshold-zero-denominator",
        "threshold-negative",
        "threshold-negative-denominator",
        "value-negative",
        "value-not-reduced",
        "value-padded",
        "value-leading-zeros",
        "phase-string",
        "phase-bool",
        "phase-negative",
        "bundle-repeats-item",
        "agent-huge",
        "events-nested-deep",
        "value-huge",
        "agent-beyond-n",
        "kind-unknown",
        "phase-not-bundle-size",
        "summary-rewritten",
        "summary-unallocated",
        "summary-allocated-bool",
        "summary-min-ratio",
        "summary-min-ratio-null",
        "alpha-changed",
        "alpha-dropped",
        "alpha-not-canonical",
        "summary-int",
        "kind-zero-estimate-with-items",
        "kind-phase-without-items",
    ],
)
def test_verify_rejects_mistyped_allocation_fields(solved, capsys, edit, location):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, edit)
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith(f"error: {location}: ")


def test_verify_floor_mode_mu_rejects_a_negative_threshold(solved, capsys):
    # a threshold of -1/2 would be a floor every bundle meets
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, _set_event_field("threshold", "-1/2"))
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path), "--floor-mode", "mu")
    assert code == 2
    assert err.startswith("error: events[0].threshold: ")


@pytest.mark.parametrize(
    "edit, kind",
    [(_set_event_field("value", "1000/1"), "value-mismatch")],
    ids=["value"],
)
def test_verify_rejects_events_inconsistent_with_their_bundles(solved, capsys, edit, kind):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, edit)
    code, out, _ = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 1
    violations = json.loads(out)["violations"]
    assert [(v["kind"], v["agent"]) for v in violations] == [
        (kind, json.loads(alloc_path.read_text())["events"][0]["agent"])
    ]


def test_solve_that_does_not_converge_is_an_internal_error(solved, capsys, monkeypatch):
    # the fixture's instance needs several rounds of fair_divide
    import fairdiv.allocator

    inst_path, _ = solved
    monkeypatch.setattr(fairdiv.allocator, "iteration_bound", lambda n, m, delta: 1)
    code, _, err = run_cli(capsys, "solve", str(inst_path))
    assert code == 4
    assert err.startswith("internal error: ")
    assert "did not converge" in err


def test_solve_that_does_not_converge_above_the_proven_alpha_is_an_input_error(
    tmp_path, capsys
):
    # the round bound is proven only for alpha <= 11/30
    inst_path = tmp_path / "inst.json"
    gen = ("gen", "random", "--seed", "397", "--m", "4", "--n", "1", "--family", "free")
    run_cli(capsys, *gen, "--max-num", "7", "--max-den", "4", "-o", str(inst_path))
    code, _, err = run_cli(capsys, "solve", str(inst_path), "--alpha", "2", "--delta", "1/10")
    assert code == 2
    assert err.startswith("error: fair_divide did not converge within 15 rounds")
    assert "proven only for alpha <= 11/30, got alpha = 2" in err


def _set_values(doc, *pairs):
    """Set agent 0's value of item j to ``value`` for each (j, value) pair."""
    for j, value in pairs:
        doc["valuations"][0][j] = value


def _parent_format(doc):
    """Rewrite ``doc`` in the earlier keyed form: an ``items`` list of ids
    and one ``values`` object per agent, keyed by item id."""
    rows = doc["valuations"]
    doc["items"] = [{"id": j} for j in range(len(rows[0]))]
    doc["valuations"] = [
        {"agent": i, "values": {str(j): v for j, v in enumerate(row)}} for i, row in enumerate(rows)
    ]


def _classes_format(doc):
    """Rewrite ``doc``'s set system in the earlier form: one object per
    class listing its item ids and capacity."""
    ss = doc["set_system"]
    ss["classes"] = [
        {"items": [j for j, k in enumerate(ss["class_of"]) if k == c], "capacity": cap}
        for c, cap in enumerate(ss.pop("caps"))
    ]
    del ss["class_of"]


@pytest.mark.parametrize(
    "edit, location",
    [
        (lambda doc: doc.update(set_system=5), "set_system"),
        (lambda doc: doc["valuations"].__setitem__(0, 5), "valuations[0]"),
        (lambda doc: _set_values(doc, (3, "-5")), "valuations[0][3]"),
        (lambda doc: doc.update(n=True), "n"),
        (lambda doc: doc["set_system"]["caps"].__setitem__(0, 1.5), "set_system"),
        (lambda doc: doc["set_system"]["caps"].__setitem__(0, True), "set_system"),
        (lambda doc: doc["set_system"]["class_of"].__setitem__(1, True), "set_system"),
        (lambda doc: doc.update(seed="21"), "seed"),
        (lambda doc: doc.update(name=None), "name"),
        (lambda doc: doc.update(n="@huge-int@"), "document"),
        (lambda doc: doc.update(set_system="@deep-lists@"), "document"),
        (lambda doc: _set_values(doc, (3, _DIGITS)), "valuations[0][3]"),
        # equal rows held apart are two rows, not one shared row
        (lambda doc: doc.update(valuations=[doc["valuations"][0]] * 2), "valuations"),
        (lambda doc: doc.update(valuations=doc["valuations"][:2]), "valuations"),
        (lambda doc: doc.update(valuations=[]), "valuations"),
        (lambda doc: doc.update(valuations=doc["valuations"][0]), "valuations"),
        (lambda doc: doc.update(n=MAX_AGENTS + 1, valuations=doc["valuations"][:1]), "n"),
        (lambda doc: doc["set_system"].update(type="matroid"), "set_system.type"),
        # an earlier entry holds JSON 1, which a later true, 1.0 or null must not reuse
        (lambda doc: _set_values(doc, (0, 1), (3, True)), "valuations[0][3]"),
        (lambda doc: _set_values(doc, (0, 1), (3, 1.0)), "valuations[0][3]"),
        (lambda doc: _set_values(doc, (0, 1), (3, None)), "valuations[0][3]"),
        (_parent_format, "valuations[0]"),
        (lambda doc: doc["valuations"][1].pop(), "valuations[1]"),
        (lambda doc: doc["set_system"]["class_of"].append(0), "set_system"),
        (_classes_format, "set_system"),
        (lambda doc: doc["set_system"]["class_of"].__setitem__(0, 99), "set_system"),
        (lambda doc: doc["set_system"].update(caps={}), "set_system"),
    ],
    ids=[
        "set-system-int",
        "valuation-row-int",
        "value-negative",
        "n-bool",
        "capacity-float",
        "capacity-bool",
        "class-item-bool",
        "seed-string",
        "name-null",
        "n-huge",
        "set-system-nested-deep",
        "value-huge",
        "identical-agents-two-rows",
        "valuation-rows-not-n",
        "valuations-empty",
        "valuations-object",
        "n-above-max-agents",
        "set-system-type-unknown",
        "value-bool-after-int",
        "value-float-after-int",
        "value-null-after-int",
        "parent-format",
        "value-row-short",
        "class-item-beyond-m",
        "classes-format",
        "class-beyond-caps",
        "caps-object",
    ],
)
def test_mistyped_instance_fields_are_located_parse_errors(solved, capsys, edit, location):
    inst_path, _ = solved
    _rewrite_document(inst_path, edit)
    code, _, err = run_cli(capsys, "solve", str(inst_path))
    assert code == 2
    assert err.startswith(f"error: {location}: ")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def solved_documents(tmp_path_factory):
    """The parsed instance and allocation documents of the ``solved`` pair."""
    root = tmp_path_factory.mktemp("fuzz")
    inst_path, alloc_path = root / "inst.json", root / "alloc.json"
    argv = ("gen", "random", "--seed", "21", "--m", "7", "--n", "3", "-o", str(inst_path))
    assert main(list(argv)) == 0
    assert main(["solve", str(inst_path), "-o", str(alloc_path)]) == 0
    return json.loads(inst_path.read_text()), json.loads(alloc_path.read_text())


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(doc, prefix=()):
    """Every path into a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _json_paths(value, prefix + (index,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_one_replaced_field_never_escapes_the_exit_codes(
    solved_documents, tmp_path, capsys, data
):
    """Replace one field of the instance or the allocation document with
    an arbitrary JSON value: every command returns an exit code, never a
    traceback.  ``solve`` and ``mms`` end in 0 (the edit was harmless), 2
    (input error) or 3 (desk cap); ``verify`` may also fail its check
    (1)."""
    documents = dict(zip(("instance", "allocation"), solved_documents))
    which = data.draw(st.sampled_from(sorted(documents)), label="document")
    path = data.draw(st.sampled_from(list(_json_paths(documents[which]))), label="path")
    documents[which] = _replaced(documents[which], path, data.draw(_JSON_VALUES, label="value"))
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst_path.write_text(json.dumps(documents["instance"]))
    alloc_path.write_text(json.dumps(documents["allocation"]))

    runs = [
        (("verify", str(alloc_path), str(inst_path), "--floor-mode", mode), {0, 1, 2, 3})
        for mode in ("mu", "exact-mms")
    ]
    if which == "instance":
        runs += [(("solve", str(inst_path)), {0, 2, 3}), (("mms", str(inst_path)), {0, 2, 3})]
    for argv, allowed in runs:
        code, _, err = run_cli(capsys, *argv)
        assert code in allowed, (argv[0], code, err)


def _corrupted(data, valid, label):
    """An arbitrary JSON value, or ``valid`` with up to three top-level
    fields each dropped or replaced by an arbitrary JSON value."""
    if data.draw(st.booleans(), label=f"{label} replaced whole"):
        return data.draw(_JSON_VALUES, label=label)
    doc = dict(valid)
    fields = st.lists(st.sampled_from(sorted(valid)), max_size=3, unique=True)
    for key in data.draw(fields, label=f"{label} fields"):
        if data.draw(st.booleans(), label=f"drop {label}.{key}"):
            del doc[key]
        else:
            doc[key] = data.draw(_JSON_VALUES, label=f"{label}.{key}")
    return doc


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_arbitrary_documents_never_escape_the_exit_codes(
    solved_documents, tmp_path, capsys, data
):
    """Whole documents, each an arbitrary JSON value or the solved pair's
    document with some of its fields dropped or replaced: the parsers
    raise nothing but ``ParseError``, and ``solve``, ``mms`` and
    ``verify`` return 0, 2 or 3 (``verify`` also 1), never a traceback."""
    instance, allocation = (
        _corrupted(data, valid, label) for valid, label in zip(solved_documents, ("instance", "allocation"))
    )
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst_path.write_text(json.dumps(instance))
    alloc_path.write_text(json.dumps(allocation))
    for parse, path in ((parse_instance, inst_path), (parse_allocation, alloc_path)):
        try:
            parse(path.read_text())
        except ParseError:
            pass

    runs = [
        (("verify", str(alloc_path), str(inst_path), "--floor-mode", mode), {0, 1, 2, 3})
        for mode in ("mu", "exact-mms")
    ]
    runs += [(("solve", str(inst_path)), {0, 2, 3}), (("mms", str(inst_path)), {0, 2, 3})]
    for argv, allowed in runs:
        code, _, err = run_cli(capsys, *argv)
        assert code in allowed, (argv[0], code, err)
        assert "Traceback" not in err


def test_solve_deterministic_bytes(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "random", "--seed", "31", "--m", "8", "--n", "3", "-o", str(inst_path))
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "solve", str(inst_path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_repro_scales_with_the_agent_multiple(capsys):
    code, out, _ = run_cli(capsys, "repro-upper-bound", "--n", "660")
    assert code == 0
    doc = json.loads(out)
    assert doc["histogram"]["phase"] == {"2": 330, "3": 220}
    assert doc["histogram"]["minimal"] == {"5": 88, "11": 20}
    assert doc["unallocated"] == doc["expected_unallocated"] == 2


def test_repro_epsilon_zero_breaks_the_trace(capsys):
    # at exactly the 40/107 ratio single items qualify, so the run ends
    # with nobody stranded and the reproduction check fails
    code, out, _ = run_cli(capsys, "repro-upper-bound", "--epsilon", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["unallocated"] != doc["expected_unallocated"]


def test_console_entry_point():
    # the child imports the same fairdiv as this process, installed or not
    paths = [str(Path(fairdiv.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "fairdiv", "gen", "footnote"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert parse_instance(proc.stdout) == footnote_instance()
