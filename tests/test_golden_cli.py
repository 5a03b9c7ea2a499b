"""Golden CLI output: exact exit code and stdout of a fixed set of commands.

`golden_cli.json` holds one {"argv", "exit", "stdout"} record per command.
A change to any of these outputs is a change to the CLI's contract: update
the file by hand and say why in the change log.
"""

import json
from pathlib import Path

import pytest

from adamsrr.cli import main

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_cli_output(capsys, case):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert (code, out) == (case["exit"], case["stdout"])
