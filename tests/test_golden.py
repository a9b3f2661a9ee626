"""Canonical CLI outputs, byte for byte, against the golden corpus.

The files under tests/golden/ hold the single-line canonical JSON that
`planebranch reproduce <id>` and `planebranch normalform <branch>` printed
before the reducer was simplified.  A speed-up or a simplification must
not change a single byte of any report.

The `normalform` branches take unsafe elimination recipes (and, for the
first one, a cleanup round); their change logs carry the solved p and q,
so they pin the parameter of every step.
"""

import json
from pathlib import Path

import pytest

from planebranch.cli import main

GOLDEN = Path(__file__).parent / "golden"

NORMALFORM_BRANCHES = {
    "6-9-13-16": {"v0": 6, "terms": [[9, "1"], [13, "1"], [16, "1"]]},
    "6-9-14-17-25": {"v0": 6, "terms": [[9, "1"], [14, "2"], [17, "2"], [25, "1"]]},
    "4-6-13-15-17": {
        "v0": 4,
        "terms": [[6, "1"], [13, "1/3"], [15, "-1"], [17, "1/3"]],
    },
}


@pytest.mark.parametrize("example", ["7.2", "7.1", "zariski-counterexample"])
def test_reproduce_matches_golden(capsys, example):
    expected = (GOLDEN / f"reproduce_{example}.json").read_text(encoding="utf-8")
    code = main(["reproduce", example])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("name", sorted(NORMALFORM_BRANCHES))
def test_normalform_matches_golden(capsys, tmp_path, name):
    expected = (GOLDEN / f"normalform_{name}.json").read_text(encoding="utf-8")
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(NORMALFORM_BRANCHES[name]), encoding="utf-8")
    code = main(["normalform", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected
