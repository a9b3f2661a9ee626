"""Canonical CLI outputs, byte for byte, against the golden corpus.

The files under tests/golden/ hold the single-line canonical JSON that
`planebranch reproduce <id>`, `planebranch normalform <branch>`,
`planebranch lambda --set <kind> <branch>`, `planebranch equiv` and
`planebranch semigroup` printed before the code they exercise was sped
up or simplified.  A speed-up or a simplification must not change a
single byte of any report.

The `normalform` branches take unsafe elimination recipes (and, for the
first one, a cleanup round); their change logs carry the solved p and q,
so they pin the parameter of every step.  The `lambda` outputs print a
witness form for every differential value outside the semigroup, so they
pin the pivots of the elimination; the last branch has witnesses with
coefficients such as -251/176.  The `equiv` input is a branch against its
image under a fixed coordinate change.
"""

import json
from pathlib import Path

import pytest

from planebranch import CoordChange, PuiseuxParam, apply_coordinate_change
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

LAMBDA_BRANCHES = {
    "7-8-20": {"v0": 7, "terms": [[8, "1"], [20, "1"]]},
    "6-9-13-16": {"v0": 6, "terms": [[9, "1"], [13, "1"], [16, "1"]]},
    "8-11-14-17": {"v0": 8, "terms": [[11, "1"], [14, "1/2"], [17, "-2/3"]]},
}

LAMBDA_SETS = ["lambda", "lambda2", "lambda-prime"]

SEMIGROUP_INPUTS = [
    ("generators", "7,8"),
    ("beta", "6,9,10"),
    ("beta", "8,12,14,15"),
    ("generators", "4,6,13"),
]

EQUIV_BRANCH = ("7-8-20", {
    "r": "2",
    "p": [[0, 2, "-1"], [2, 0, "1"]],
    "q": [[1, 1, "-2"], [2, 0, "1"]],
})


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


@pytest.mark.parametrize("kind", LAMBDA_SETS)
@pytest.mark.parametrize("name", sorted(LAMBDA_BRANCHES))
def test_lambda_matches_golden(capsys, tmp_path, name, kind):
    expected = (GOLDEN / f"lambda_{kind}_{name}.json").read_text(encoding="utf-8")
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(LAMBDA_BRANCHES[name]), encoding="utf-8")
    code = main(["lambda", "--set", kind, str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected


def test_equiv_image_matches_golden(capsys, tmp_path):
    name, change = EQUIV_BRANCH
    expected = (GOLDEN / f"equiv_{name}_image.json").read_text(encoding="utf-8")
    phi = PuiseuxParam.from_dict(LAMBDA_BRANCHES[name])
    image = apply_coordinate_change(phi, CoordChange.from_dict(change))
    a = tmp_path / "branch.json"
    b = tmp_path / "image.json"
    a.write_text(json.dumps(phi.to_dict()), encoding="utf-8")
    b.write_text(json.dumps(image.to_dict()), encoding="utf-8")
    code = main(["equiv", str(a), str(b)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("form, values", SEMIGROUP_INPUTS)
def test_semigroup_matches_golden(capsys, form, values):
    name = f"semigroup_{form}_{values.replace(',', '-')}.json"
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    code = main(["semigroup", f"--{form}", values])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected
