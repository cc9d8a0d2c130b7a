import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

from fairdiv import (
    bundle_value,
    fair_divide,
    footnote_instance,
    mms_exact,
    parse_instance,
    random_instance,
)
from fairdiv.cli import main
from support import replicate_agents

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_exact_shares(capsys):
    """README's one ``python`` block runs as written; each line it prints
    names an agent, that agent's bundle and its exact maximin share."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()

    inst = random_instance(seed=7, m=8, n=3, family="capacity")
    alpha, delta = Fraction(11, 30), Fraction(1, 16)
    allocation, _ = fair_divide(inst, alpha, delta)
    assert len(lines) == inst.n
    for agent, line in enumerate(lines):
        head, share = line.split(" share: ")
        printed_agent, bundle = head.split(" ", 1)
        assert int(printed_agent) == agent
        assert json.loads(bundle) == sorted(allocation.bundles[agent])
        exact = mms_exact(inst.spec, inst.valuations[agent], inst.n).value
        assert Fraction(share) == exact
        got = bundle_value(inst.spec, inst.valuations[agent], allocation.bundles[agent])
        assert got >= (1 - delta) * alpha * exact


def test_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """Each ``fairdiv`` line of README's ``## CLI`` block, run in order in
    one directory, exits 0."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in lines if argv]
    assert commands and all(argv[0] == "fairdiv" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_instance_example_parses():
    """README's one ``json`` block is a two-agent footnote document."""
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert parse_instance(block) == replicate_agents(footnote_instance(), 2)
