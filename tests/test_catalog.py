"""Tests for the bundled classification catalog and its sample data."""

import random

import pytest

from planebranch import catalog
from planebranch import (
    EXAMPLE_IDS,
    BranchInputError,
    PuiseuxParam,
    apply_coordinate_change,
    build_table_row,
    counterexample_change,
    differential_gaps,
    load_samples,
    random_coordinate_change,
    rat,
    run_reproduction,
)


def test_example_ids():
    assert EXAMPLE_IDS == ("7.1", "7.2", "zariski-counterexample")


def test_load_samples_shape():
    data = load_samples()
    assert set(EXAMPLE_IDS) <= set(data)
    assert isinstance(data["seed"], int)
    assert len(data["7.2"]["rows"]) == 16
    assert len(data["7.1"]["rows"]) == 4


def test_build_table_row_78_generic():
    data = load_samples()
    row = data["7.2"]["rows"][0]
    phi = build_table_row("7.2", 1, row["samples"])
    assert phi.v0 == 7
    assert phi.coeff(8) == rat(1)
    assert phi.coeff(10) == rat(1)
    gaps = differential_gaps(phi)
    assert gaps == [17, 25, 26, 33, 34, 41]


def test_build_table_row_78_monomial():
    phi = build_table_row("7.2", 16, {})
    assert phi.support() == [8]
    assert differential_gaps(phi) == []


def test_build_table_row_bad_input():
    with pytest.raises(ValueError):
        build_table_row("7.2", 0, {})
    with pytest.raises(ValueError):
        build_table_row("7.2", 17, {})
    with pytest.raises(ValueError):
        build_table_row("nope", 1, {})


def test_differential_gaps_sorted_and_outside():
    phi = PuiseuxParam(7, {8: rat(1), 13: rat(1), 18: rat(1)})
    gaps = differential_gaps(phi)
    assert gaps == sorted(gaps)
    for w in gaps:
        assert not phi.semigroup.contains(w)


def test_random_coordinate_change_units():
    rng = random.Random(5)
    phi = PuiseuxParam(7, {8: rat(1), 12: rat(1)})
    for _ in range(10):
        ch = random_coordinate_change(rng, 7, 8)
        img = apply_coordinate_change(phi, ch)
        assert img.v0 == 7
        assert img.coeff(8) == rat(1)
        assert img.semigroup.generators == phi.semigroup.generators


def test_counterexample_relations_hold():
    ch = counterexample_change(rat(2), rat(1), rat(1), rat(0))
    # spot-check two of the solved coefficients against hand-reduced values
    assert ch.p.terms[(3, 0)] == rat(111145457, 126490)
    assert ch.q.terms[(0, 3)] == rat(18459, 556)


def test_counterexample_rejects_degenerate_parameter():
    with pytest.raises(ValueError):
        counterexample_change(rat(21, 4), rat(1), rat(1), rat(0))


def test_run_reproduction_unknown_id():
    with pytest.raises(ValueError):
        run_reproduction("8.3")


def test_run_reproduction_deterministic():
    first = run_reproduction("7.2")
    second = run_reproduction("7.2")
    assert first == second
    assert first["ok"] is True


def test_run_reproduction_row_reports():
    report = run_reproduction("7.2")
    assert [row["row"] for row in report["rows"]] == list(range(1, 17))
    for row in report["rows"]:
        assert row["pass"] is True
        assert row["computed"] == row["expected"]


def test_row_fails_on_its_table_check(monkeypatch):
    # every 7.2 row's gaps read as empty, so only the monomial row matches
    monkeypatch.setattr(catalog, "differential_gaps", lambda phi: [])
    report = run_reproduction("7.2")
    assert [row["row"] for row in report["rows"] if row["pass"]] == [16]
    assert not any("error" in row for row in report["rows"])
    assert report["passed"] == 1 and report["ok"] is False


def test_row_fails_when_its_image_leaves_the_stratum(monkeypatch):
    # every perturbed 7.1 image is replaced by one branch outside all strata
    outside = PuiseuxParam(6, {9: rat(1), 10: rat(1)})
    monkeypatch.setattr(catalog, "apply_coordinate_change", lambda phi, ch: outside)
    report = run_reproduction("7.1")
    for row in report["rows"]:
        assert row["pass"] is False and "error" not in row
        assert row["fixed_point"] is True
        assert row["computed"] != row["expected"]
