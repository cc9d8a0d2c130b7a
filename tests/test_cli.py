import json
import subprocess
import sys

import pytest

from fairdiv import footnote_instance, parse_instance, serialize_instance, table1_instance
from fairdiv.cli import main


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


def test_mms_falls_back_to_bounds_over_cap(tmp_path, capsys):
    path = tmp_path / "t1.json"
    path.write_text(serialize_instance(table1_instance(330)))
    code, out, _ = run_cli(capsys, "mms", str(path), "--decimal")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "bounds"
    assert doc["lower"] == "40/107"
    assert doc["upper"] == "567600/107"


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


@pytest.fixture
def solved(tmp_path, capsys):
    """Paths of a small random instance and its solved allocation."""
    inst_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    run_cli(capsys, "gen", "random", "--seed", "21", "--m", "7", "--n", "3", "-o", str(inst_path))
    assert run_cli(capsys, "solve", str(inst_path), "-o", str(alloc_path))[0] == 0
    return inst_path, alloc_path


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{inst}", "--alpha", "0"),
        ("solve", "{inst}", "--delta", "1"),
        ("verify", "{alloc}", "{inst}", "--floor-mode", "mu", "--delta", "0"),
        ("verify", "{alloc}", "{inst}", "--floor-mode", "exact-mms", "--delta", "0"),
        ("repro-upper-bound", "--epsilon", "-1"),
    ],
)
def test_parameter_edges_are_usage_errors(solved, capsys, argv):
    inst_path, alloc_path = solved
    code, _, err = run_cli(
        capsys, *(arg.format(inst=inst_path, alloc=alloc_path) for arg in argv)
    )
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _rewrite_document(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


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


def test_verify_rejects_agent_left_out(solved, capsys):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, lambda doc: doc["events"].pop())
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith("error: allocation: ")
    assert "neither events nor unallocated_agents" in err


def test_verify_rejects_unallocated_agent_beyond_n(solved, capsys):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, lambda doc: doc.update(unallocated_agents=[7]))
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith("error: unallocated_agents: ")


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
        (_set_event_field("phase", "x"), "events[0].phase"),
        (_set_event_field("phase", True), "events[0].phase"),
        (_set_event_field("phase", -1), "events[0].phase"),
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
        "phase-string",
        "phase-bool",
        "phase-negative",
    ],
)
def test_verify_rejects_mistyped_allocation_fields(solved, capsys, edit, location):
    inst_path, alloc_path = solved
    _rewrite_document(alloc_path, edit)
    code, _, err = run_cli(capsys, "verify", str(alloc_path), str(inst_path))
    assert code == 2
    assert err.startswith(f"error: {location}: ")


@pytest.mark.parametrize(
    "edit, kind",
    [
        (_set_event_field("value", "1000/1"), "value-mismatch"),
        (lambda doc: doc["events"][0].update(phase=doc["events"][0]["phase"] + 1), "phase-mismatch"),
    ],
    ids=["value", "phase"],
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


@pytest.mark.parametrize(
    "edit, location",
    [
        (lambda doc: doc.update(set_system=5), "set_system"),
        (lambda doc: doc["valuations"].__setitem__(0, [1]), "valuations[0]"),
    ],
    ids=["set-system-int", "valuation-row-list"],
)
def test_mistyped_instance_fields_are_located_parse_errors(solved, capsys, edit, location):
    inst_path, _ = solved
    _rewrite_document(inst_path, edit)
    code, _, err = run_cli(capsys, "solve", str(inst_path))
    assert code == 2
    assert err.startswith(f"error: {location}: ")
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
    proc = subprocess.run(
        [sys.executable, "-m", "fairdiv", "gen", "footnote"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_instance(proc.stdout) == footnote_instance()
