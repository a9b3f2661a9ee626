"""In-process tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planebranch
from planebranch.cli import main


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_branch(tmp_path, name, v0, terms):
    path = tmp_path / name
    path.write_text(json.dumps({"v0": v0, "terms": terms}))
    return str(path)


def test_semigroup_generators(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--generators", "7,8")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["generators"] == [7, 8]
    assert data["beta"] == [7, 8]
    assert data["conductor"] == 42
    assert data["genus"] == 1
    assert data["puiseux_pairs"] == [[7, 8]]
    assert data["valid"] is True
    assert len(data["gaps"]) == 21


def test_semigroup_beta(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--beta", "6,9,10")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [6, 9, 19]
    assert data["conductor"] == 42


def test_semigroup_rejects_non_branch(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--generators", "4,6")
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_semigroup_rejects_smooth_generator(capsys):
    # <1> belongs to a smooth branch, and every command needs v0 >= 2
    code, out, err = run_cli(capsys, "semigroup", "--generators", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "not a plane branch semigroup: multiplicity must be >= 2"}


def test_semigroup_rejects_garbage(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--generators", "7,eight")
    assert code == 2
    assert "comma-separated integers" in json.loads(err)["error"]


def test_semigroup_rejects_empty_generators(capsys):
    code, out, err = run_cli(capsys, "semigroup", "--generators", "")
    assert code == 2
    assert "comma-separated integers" in json.loads(err)["error"]


def test_lambda_monomial(capsys, tmp_path):
    path = write_branch(tmp_path, "mono.json", 7, [[8, "1"]])
    code, out, err = run_cli(capsys, "lambda", path)
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == {"generators": [7, 8], "conductor": 42}
    assert data["lambda_minus_gamma"] == []
    assert data["zariski_lambda"] is None
    assert data["witnesses"] == {}


def test_lambda_from_stdin(capsys, monkeypatch):
    payload = json.dumps({"v0": 7, "terms": [[8, "1"], [20, "1"]]})
    code, out, err = run_cli(
        capsys, "lambda", "-", stdin=payload, monkeypatch=monkeypatch
    )
    assert code == 0
    data = json.loads(out)
    assert data["lambda_minus_gamma"] == [27, 34, 41]
    assert data["zariski_lambda"] == 20
    assert sorted(data["witnesses"]) == ["27", "34", "41"]
    for form in data["witnesses"].values():
        assert set(form) == {"dX", "dY"}


def test_lambda_deep_stratum(capsys, tmp_path):
    path = write_branch(tmp_path, "b.json", 7, [[8, "1"], [26, "1"]])
    code, out, _ = run_cli(capsys, "lambda", path)
    assert code == 0
    assert json.loads(out)["lambda_minus_gamma"] == [33, 41]


def test_lambda_other_sets(capsys, tmp_path):
    path = write_branch(tmp_path, "b.json", 7, [[8, "1"], [26, "1"]])
    code, out, _ = run_cli(capsys, "lambda", path, "--set", "lambda2")
    assert code == 0
    assert "lambda2_minus_gamma" in json.loads(out)
    code, out, _ = run_cli(capsys, "lambda", path, "--set", "lambda-prime")
    assert code == 0
    assert "lambda_prime_minus_gamma" in json.loads(out)


def test_normalform_reduces_to_monomial(capsys, tmp_path):
    path = write_branch(tmp_path, "r.json", 7, [[8, "1"], [16, "1"]])
    code, out, err = run_cli(capsys, "normalform", path)
    assert code == 0
    data = json.loads(out)
    assert data["normal"]["terms"] == [[8, "1"]]
    assert data["lambda"] is None
    assert data["dimension_bound"] == 0
    assert data["free_exponents"] == []
    assert data["changes"]  # at least one elimination step was logged


def test_normalform_pretty(capsys, tmp_path):
    path = write_branch(tmp_path, "r.json", 7, [[8, "1"], [16, "1"]])
    code, out, err = run_cli(capsys, "normalform", path, "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["lambda"] is None


def test_equiv_equivalent_pair(capsys, tmp_path):
    # negating the order-13 coefficient is a homothety of the lambda = 12
    # stratum (fourth roots of unity act through t -> -t)
    a = write_branch(
        tmp_path, "a.json", 7, [[8, "1"], [12, "1"], [13, "1"], [18, "1"]]
    )
    b = write_branch(
        tmp_path, "b.json", 7, [[8, "1"], [12, "1"], [13, "-1"], [18, "1"]]
    )
    code, out, err = run_cli(capsys, "equiv", a, b)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "equivalent"
    assert "homothety" in data


def test_equiv_same_stratum_not_homothetic(capsys, tmp_path):
    # order-18 transforms by a tenth power of a fifth root of unity, so
    # negating it leaves the lambda = 13 stratum class genuinely different
    a = write_branch(tmp_path, "a.json", 7, [[8, "1"], [13, "1"], [18, "1"]])
    b = write_branch(tmp_path, "b.json", 7, [[8, "1"], [13, "1"], [18, "-1"]])
    code, out, err = run_cli(capsys, "equiv", a, b)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "not_equivalent"
    assert data["reason"] == "no_homothety"


def test_equiv_different_lambda(capsys, tmp_path):
    a = write_branch(tmp_path, "a.json", 7, [[8, "1"], [26, "1"]])
    b = write_branch(tmp_path, "b.json", 7, [[8, "1"], [27, "1"]])
    code, out, err = run_cli(capsys, "equiv", a, b)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "not_equivalent"
    assert data["reason"] == "different_lambda"


def test_equiv_with_random_change_image(capsys, tmp_path):
    import random

    from planebranch import (
        PuiseuxParam,
        apply_coordinate_change,
        random_coordinate_change,
        rat,
    )

    rng = random.Random(99)
    phi = PuiseuxParam(6, {9: rat(1), 10: rat(1), 11: rat(2)})
    ch = random_coordinate_change(rng, 6, 9)
    img = apply_coordinate_change(phi, ch)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(phi.to_dict()))
    b.write_text(json.dumps(img.to_dict()))
    code, out, err = run_cli(capsys, "equiv", str(a), str(b))
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent"


def test_equiv_different_gamma(capsys, tmp_path):
    a = write_branch(tmp_path, "a.json", 7, [[8, "1"]])
    b = write_branch(tmp_path, "b.json", 5, [[7, "1"]])
    code, out, err = run_cli(capsys, "equiv", a, b)
    assert code == 0
    assert json.loads(out)["reason"] == "different_gamma"


def test_reproduce_all_ids(capsys):
    for example in ("7.2", "zariski-counterexample"):
        code, out, err = run_cli(capsys, "reproduce", example)
        assert code == 0, err
        report = json.loads(out)
        assert report["ok"] is True
        assert report["example"] == example


def test_reproduce_byte_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "reproduce", "7.2")
    code2, out2, _ = run_cli(capsys, "reproduce", "7.2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_reproduce_seed_file_override(capsys, tmp_path):
    from planebranch import load_samples

    data = load_samples()
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "reproduce", "7.2", "--seed-file", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_reproduce_seed_file_malformed_json(capsys, tmp_path):
    path = tmp_path / "samples.json"
    path.write_text("{nope")
    code, out, err = run_cli(capsys, "reproduce", "7.2", "--seed-file", str(path))
    assert code == 2
    assert out == ""
    assert "JSONDecodeError" in json.loads(err)["error"]


def write_samples(tmp_path, data):
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "example, edit, message",
    [
        ("7.2", lambda data: data["7.2"]["rows"].pop(), "has no samples for 7.2 row 16"),
        ("7.1", lambda data: data.pop("seed"), "has no integer 'seed'"),
        ("7.2", lambda data: data.pop("7.2"), "has no suite '7.2'"),
    ],
    ids=["row", "seed", "suite"],
)
def test_reproduce_seed_file_missing_entry(capsys, tmp_path, example, edit, message):
    data = planebranch.load_samples()
    edit(data)
    path = write_samples(tmp_path, data)
    code, out, err = run_cli(capsys, "reproduce", example, "--seed-file", path)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError: samples file " + message


@pytest.mark.parametrize("example", planebranch.EXAMPLE_IDS)
def test_reproduce_seed_file_not_an_object(capsys, tmp_path, example):
    path = write_samples(tmp_path, [planebranch.load_samples()])
    code, out, err = run_cli(capsys, "reproduce", example, "--seed-file", path)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith("ValueError: samples file has no ")


@pytest.mark.parametrize("example, row, coefficient", [("7.2", 3, "a13"), ("7.1", 2, "b3")])
def test_reproduce_row_missing_a_coefficient_fails_alone(
    capsys, tmp_path, example, row, coefficient
):
    data = planebranch.load_samples()
    entry = next(e for e in data[example]["rows"] if e["row"] == row)
    del entry["samples"][coefficient]
    path = write_samples(tmp_path, data)
    code, out, err = run_cli(capsys, "reproduce", example, "--seed-file", path)
    assert code == 1
    assert err == ""
    report = json.loads(out)
    failed = [r for r in report["rows"] if not r["pass"]]
    assert [r["row"] for r in failed] == [row]
    assert failed[0]["error"] == (
        f"ValueError: table {example} row {row} needs sample coefficient {coefficient!r}"
    )
    assert report["passed"] == report["total"] - 1
    assert report["ok"] is False


def test_reproduce_rejects_trunc_extra(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "reproduce", "7.2", "--trunc-extra", "3")
    assert exc.value.code == 2
    assert "--trunc-extra" in capsys.readouterr().err


def test_reproduce_unknown_id_rejected(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "reproduce", "9.9")


def test_branch_file_missing(capsys, tmp_path):
    code, out, err = run_cli(capsys, "lambda", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in json.loads(err)["error"]


def test_branch_file_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, err = run_cli(capsys, "lambda", str(path))
    assert code == 2
    assert "not valid JSON" in json.loads(err)["error"]


def test_branch_file_invalid_branch(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v0": 7, "terms": [[7, "1"]]}))
    code, out, err = run_cli(capsys, "lambda", str(path))
    assert code == 2
    assert "error" in json.loads(err)


def test_internal_error_exits_3(capsys, tmp_path, monkeypatch):
    # 1 means "reproduction mismatch", so a failed internal check has its own code
    from planebranch import InternalError

    def broken(phi):
        raise InternalError("reduction changed the differential value set")

    monkeypatch.setattr("planebranch.cli.to_normal_form", broken)
    path = write_branch(tmp_path, "b.json", 7, [[8, "1"], [10, "1"]])
    code, out, err = run_cli(capsys, "normalform", path)
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "InternalError: reduction changed the differential value set"
    }


def test_internal_error_in_a_reduction_is_replayable(capsys, tmp_path, monkeypatch):
    # the stderr JSON carries the input branch, the changes so far and k;
    # replaying the changes on the branch rebuilds the failed step's input
    from planebranch import (
        CoordChange,
        InternalError,
        PuiseuxParam,
        apply_coordinate_change,
        normalform,
    )

    real = normalform.eliminate_term
    steps = []

    def fail_second_step(phi, k, lam=None):
        steps.append((phi, k))
        if len(steps) == 2:
            raise InternalError(f"injected failure at order {k}")
        return real(phi, k, lam=lam)

    monkeypatch.setattr(normalform, "eliminate_term", fail_second_step)
    path = write_branch(tmp_path, "b.json", 7, [[8, "1"], [10, "1"], [14, "2"], [17, "5"]])
    code, out, err = run_cli(capsys, "normalform", path)
    assert code == 3 and out == ""
    phi, k = steps[1]
    data = json.loads(err)
    assert data["error"] == f"InternalError: injected failure at order {k}"
    repro = data["repro"]
    assert repro["k"] == k
    assert len(repro["changes"]) == 1
    cur = PuiseuxParam.from_dict(repro["branch"])
    for change in repro["changes"]:
        cur = apply_coordinate_change(cur, CoordChange.from_dict(change))
    assert cur == phi


def test_trunc_extra_above_the_bound_exits_2_before_any_elimination(
    capsys, tmp_path, monkeypatch
):
    def no_reduction(phi):
        raise AssertionError("a rejected head-room must not reach a reduction")

    monkeypatch.setattr(planebranch.cli, "to_normal_form", no_reduction)
    path = write_branch(tmp_path, "b.json", 3, [[4, "1"], [5, "1"]])
    for extra in ("14", "1000"):
        code, out, err = run_cli(capsys, "normalform", path, "--trunc-extra", extra)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": (
            f"truncation head-room {extra} must be between 0 and "
            "conductor + 2 v0 + 1 = 13"
        )}


def test_trunc_extra_at_the_bound_is_accepted(capsys, tmp_path):
    path = write_branch(tmp_path, "b.json", 3, [[4, "1"], [5, "1"]])
    code, out, _ = run_cli(capsys, "normalform", path, "--trunc-extra", "13")
    assert code == 0
    assert json.loads(out)["normal"]["terms"] == [[4, "1"]]  # <3, 4> has no moduli


@pytest.mark.parametrize("coefficient", [0.5, 1.0, True, None])
def test_branch_coefficient_must_be_an_integer_or_a_string(capsys, tmp_path, coefficient):
    path = write_branch(tmp_path, "b.json", 3, [[4, coefficient], [5, 1]])
    code, out, err = run_cli(capsys, "lambda", path)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": (
        f"coefficient of t^4 must be an integer or a rational string, not {coefficient!r}"
    )}


def test_branch_coefficient_as_json_integer(capsys, tmp_path):
    path = write_branch(tmp_path, "b.json", 3, [[4, 1], [5, -2]])
    code, out, _ = run_cli(capsys, "normalform", path)
    assert code == 0
    assert json.loads(out)["normal"]["v0"] == 3


def test_trunc_extra_accepted(capsys, tmp_path):
    path = write_branch(tmp_path, "b.json", 7, [[8, "1"], [20, "1"]])
    code, out, _ = run_cli(capsys, "lambda", path, "--trunc-extra", "10")
    assert code == 0
    assert json.loads(out)["lambda_minus_gamma"] == [27, 34, 41]


def test_canonical_output_is_single_line(capsys):
    code, out, _ = run_cli(capsys, "semigroup", "--generators", "6,9,19")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")


@pytest.mark.parametrize("module", ["planebranch.cli", "planebranch"])
def test_module_entry_points_run_clean(module):
    # a RuntimeWarning here would mean the package imported `cli` before
    # runpy executed it as __main__
    src = str(Path(planebranch.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout.startswith("usage: planebranch")


@pytest.mark.parametrize("value", [0.1, True, 1.0])
def test_reproduce_sample_that_is_not_an_integer_or_a_string_fails_its_row(
    capsys, tmp_path, value
):
    data = planebranch.load_samples()
    data["7.2"]["rows"][0]["samples"]["a12"] = value
    path = write_samples(tmp_path, data)
    code, out, err = run_cli(capsys, "reproduce", "7.2", "--seed-file", path)
    assert code == 1
    assert err == ""
    report = json.loads(out)
    failed = [r for r in report["rows"] if not r["pass"]]
    assert [r["row"] for r in failed] == [1]
    assert failed[0]["error"] == (
        "ValueError: table 7.2 row 1 sample coefficient 'a12' must be an integer "
        f"or a rational string, not {value!r}"
    )
    assert report["passed"] == report["total"] - 1


def test_reproduce_counterexample_sample_that_is_a_float_fails_setup(capsys, tmp_path):
    data = planebranch.load_samples()
    data["zariski-counterexample"]["samples"]["b1"] = 0.5
    path = write_samples(tmp_path, data)
    code, out, err = run_cli(capsys, "reproduce", "zariski-counterexample", "--seed-file", path)
    assert code == 1
    assert err == ""
    rows = json.loads(out)["rows"]
    assert [r["check"] for r in rows] == ["setup"]
    assert rows[0]["error"] == (
        "ValueError: zariski-counterexample sample coefficient 'b1' must be an "
        "integer or a rational string, not 0.5"
    )


@pytest.mark.parametrize("seed", [271828.9, "271828", True])
def test_reproduce_seed_must_be_a_json_integer(capsys, tmp_path, seed):
    data = planebranch.load_samples()
    data["seed"] = seed
    path = write_samples(tmp_path, data)
    code, out, err = run_cli(capsys, "reproduce", "7.1", "--seed-file", path)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError: samples file has no integer 'seed'"
