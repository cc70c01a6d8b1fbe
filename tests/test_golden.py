"""The JSON reports of analyze, quotient and deform stay byte-identical.

Each golden file under ``tests/golden/`` is the output of
``hocat CMD FIXTURE.json --format json`` run from the fixture directory,
so the ``input`` field reads the bare file name.  To regenerate one after
an intended change of output, run that command there and redirect it to
``tests/golden/CMD-FIXTURE.json``.
"""

import pathlib

import pytest

from hocat import cli
from hocat.fixtures import NAMES, path

GOLDEN = pathlib.Path(__file__).parent / "golden"
COMMANDS = ("analyze", "quotient", "deform")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", NAMES)
def test_json_output_matches_golden(command, name, monkeypatch, capsys):
    monkeypatch.chdir(pathlib.Path(str(path(name))).parent)
    assert cli.main([command, f"{name}.json", "--format", "json"]) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN / f"{command}-{name}.json").read_text(encoding="utf-8")
