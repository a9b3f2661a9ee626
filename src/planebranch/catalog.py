"""Bundled reproduction suites for two complete classification tables.

Three suites ship with the package, keyed by the ids "7.1", "7.2" and
"zariski-counterexample":

* "7.1" — the four-stratum analytic classification of the
  equisingularity class with semigroup <6, 9, 19>.  Each stratum's
  pinned representative must be a fixed point of the reduction, and a
  randomly coordinate-changed copy must reduce back to a parametrization
  with the stratum's exact support.

* "7.2" — the sixteen-stratum classification of the class with
  semigroup <7, 8> (conductor 42).  Each stratum is identified by its
  set of differential values outside the semigroup, which is recomputed
  from the pinned representative and compared against the table.

* "zariski-counterexample" — an explicit pair of equivalent
  parametrizations of the <7, 8> class that are not homothetic although
  both lie in the "generic support" family: a cubic coordinate change
  with pinned coefficient relations shifts the order-20 coefficient by
  5 b1 (3/4 - a13/7) while leaving every other coefficient of the
  displayed window (all orders through 20, and in fact through 25)
  unchanged.  Above that window the cubic change does leave a tail, but
  one living entirely on removable orders: both parametrizations reduce
  to the same normal form, which the suite verifies.  It also re-derives
  the pinned relations, checks the shifted coefficient exactly, and
  confirms the equivalent/not-homothetic verdict pair.

Sample coefficients live in data/repro_samples.json; conditions are
re-checked against the file at run time so a report documents exactly
which inequality or pin each row exercises.  Reports are plain dicts of
JSON-compatible values, deterministic for a fixed samples file.

Both tables run through one runner, ``_run_table``: it looks up each
row's samples, reads each once as an integer or a rational string,
builds the row with ``build_table_row``, checks its conditions and turns
a failure inside the row, such as a float sample, into that row's error.
Each table adds only its own check.  A samples file that lacks a suite,
a row or an integer seed raises ValueError before any row runs.
"""

from __future__ import annotations

import json
import random
from importlib import resources

from .branch import PuiseuxParam
from .normalform import (
    CoordChange,
    apply_coordinate_change,
    decide_equivalence,
    homothety_solve,
    to_normal_form,
)
from .series import BiPoly, R1, _read_rat, rat
from .valuation import differential_gaps


def load_samples(path=None) -> dict:
    """Load the pinned sample coefficients (the packaged copy by default)."""
    if path is None:
        res = resources.files(__package__).joinpath("data/repro_samples.json")
        return json.loads(res.read_text("utf-8"))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- random coordinate changes (seeded, small rational data) -------------

_R_POOL = ("1", "-1", "2", "1/2", "3", "-2")
_COEFF_POOL = ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3")


def random_coordinate_change(rng: random.Random, v0: int, v1: int) -> CoordChange:
    """A small admissible change drawn from fixed rational pools.

    The candidate monomials are filtered by the value constraints
    (p above v0, q above v1 along any branch with these leading
    exponents), so the result is always applicable.
    """
    r = rat(rng.choice(_R_POOL))
    p_candidates = [(a, b) for (a, b) in ((0, 1), (2, 0), (1, 1), (0, 2))
                    if a * v0 + b * v1 > v0]
    q_candidates = [(a, b) for (a, b) in ((2, 0), (1, 1), (0, 2), (3, 0))
                    if a * v0 + b * v1 > v1]
    p = BiPoly.zero()
    for a, b in rng.sample(p_candidates, 2):
        p = p + BiPoly.monomial(a, b, rat(rng.choice(_COEFF_POOL)))
    q = BiPoly.zero()
    for a, b in rng.sample(q_candidates, 2):
        q = q + BiPoly.monomial(a, b, rat(rng.choice(_COEFF_POOL)))
    return CoordChange(r=r, p=p, q=q)


# -- the <7, 8> table -----------------------------------------------------


def _relation(lhs: str, rhs: str, gap):
    """The relation lhs = rhs, whose sides differ by gap(s) at samples s.

    ``cond(s, on)`` is the row condition "lhs = rhs" when ``on`` and
    "lhs != rhs" otherwise, with whether the samples honor it.
    """
    def cond(s, on):
        return f"{lhs} {'=' if on else '!='} {rhs}", (gap(s) == 0) == on
    return cond


def _pin20(a11, a19):
    """Order-20 boundary value separating the third and fourth strata."""
    s = a11 * a11
    return (
        rat(11, 4) * a11 * a19
        - rat(357, 512)
        - rat(47399, 2560) * s
        - rat(10097, 320) * s ** 2
        - rat(17523, 1280) * s ** 3
        - rat(2187, 1280) * s ** 4
    )


# the boundaries between the first four strata (the t^10 family), then
# the pins of the t^13 and t^18 families
_A12 = _relation("a12", "(13 + 9 a11^2)/8",
                 lambda s: s["a12"] - (13 + 9 * s["a11"] * s["a11"]) / rat(8))
_A13 = _relation("a13", "(39/10) a11 + (27/20) a11^3",
                 lambda s: s["a13"] - rat(39, 10) * s["a11"] - rat(27, 20) * s["a11"] ** 3)
_A20 = _relation(
    "a20",
    "(11/4) a11 a19 - 357/512 - (47399/2560) a11^2 "
    "- (10097/320) a11^4 - (17523/1280) a11^6 - (2187/1280) a11^8",
    lambda s: s["a20"] - _pin20(s["a11"], s["a19"]),
)
_A18 = _relation("a18", "-1/2", lambda s: s["a18"] + rat(1, 2))
_A20_T18 = _relation("a20", "(121/120) a19^2",
                     lambda s: s["a20"] - rat(121, 120) * s["a19"] ** 2)

# Each row: expected differential values outside <7, 8>, a terms builder,
# and the condition checks its samples must honor.  The most generic
# stratum comes first, the monomial branch last.
_ROWS_78 = (
    dict(
        row=1,
        expected=(17, 25, 26, 33, 34, 41),
        build=lambda s: {8: R1, 10: R1, 11: s["a11"], 12: s["a12"],
                         13: s["a13"], 20: s["a20"]},
        honors=lambda s: [_A12(s, False)],
    ),
    dict(
        row=2,
        expected=(17, 25, 27, 33, 34, 41),
        build=lambda s: {8: R1, 10: R1, 11: s["a11"], 12: s["a12"],
                         13: s["a13"], 19: s["a19"]},
        honors=lambda s: [_A12(s, True), _A13(s, False)],
    ),
    dict(
        row=3,
        expected=(17, 25, 33, 34, 41),
        build=lambda s: {8: R1, 10: R1, 11: s["a11"], 12: s["a12"],
                         13: s["a13"], 19: s["a19"], 20: s["a20"]},
        honors=lambda s: [_A12(s, True), _A13(s, True), _A20(s, False)],
    ),
    dict(
        row=4,
        expected=(17, 25, 33, 41),
        build=lambda s: {8: R1, 10: R1, 11: s["a11"], 12: s["a12"],
                         13: s["a13"], 19: s["a19"], 20: s["a20"], 27: s["a27"]},
        honors=lambda s: [_A12(s, True), _A13(s, True), _A20(s, True)],
    ),
    dict(
        row=5,
        expected=(18, 25, 26, 33, 34, 41),
        build=lambda s: {8: R1, 11: R1, 12: s["a12"], 13: s["a13"], 20: s["a20"]},
        honors=lambda s: [],
    ),
    dict(
        row=6,
        expected=(19, 26, 27, 33, 34, 41),
        build=lambda s: {8: R1, 12: R1, 13: s["a13"], 18: s["a18"]},
        honors=lambda s: [],
    ),
    dict(
        row=7,
        expected=(20, 27, 33, 34, 41),
        build=lambda s: {8: R1, 13: R1, 18: s["a18"], 19: s["a19"], 26: s["a26"]},
        honors=lambda s: [_A18(s, False)],
    ),
    dict(
        row=8,
        expected=(20, 27, 34, 41),
        build=lambda s: {8: R1, 13: R1, 18: s["a18"], 19: s["a19"], 26: s["a26"]},
        honors=lambda s: [_A18(s, True)],
    ),
    dict(
        row=9,
        expected=(25, 33, 34, 41),
        build=lambda s: {8: R1, 18: R1, 19: s["a19"], 20: s["a20"], 27: s["a27"]},
        honors=lambda s: [_A20_T18(s, False)],
    ),
    dict(
        row=10,
        expected=(25, 33, 41),
        build=lambda s: {8: R1, 18: R1, 19: s["a19"], 20: s["a20"], 27: s["a27"]},
        honors=lambda s: [_A20_T18(s, True)],
    ),
    dict(
        row=11,
        expected=(26, 33, 34, 41),
        build=lambda s: {8: R1, 19: R1, 20: s["a20"]},
        honors=lambda s: [],
    ),
    dict(
        row=12,
        expected=(27, 34, 41),
        build=lambda s: {8: R1, 20: R1, 26: s["a26"]},
        honors=lambda s: [],
    ),
    dict(
        row=13,
        expected=(33, 41),
        build=lambda s: {8: R1, 26: R1, 27: s["a27"]},
        honors=lambda s: [],
    ),
    dict(
        row=14,
        expected=(34, 41),
        build=lambda s: {8: R1, 27: R1},
        honors=lambda s: [],
    ),
    dict(
        row=15,
        expected=(41,),
        build=lambda s: {8: R1, 34: R1},
        honors=lambda s: [],
    ),
    dict(
        row=16,
        expected=(),
        build=lambda s: {8: R1},
        honors=lambda s: [],
    ),
)


# -- the <6, 9, 19> table --------------------------------------------------


# b on its special value, and the closed condition separating the last
# two strata
_B = _relation("b", "-1/2", lambda s: s["b"] + rat(1, 2))
_GATE = _relation(
    "14 + (769/2) b1 - 532 b2 - 576 b1^2",
    "0",
    lambda s: 14 + rat(769, 2) * s["b1"] - 532 * s["b2"] - 576 * s["b1"] * s["b1"],
)

_ROWS_69 = (
    dict(
        row=1,
        build=lambda s: {9: R1, 10: R1, 11: s["b"], 14: s["b1"], 17: s["b2"]},
        honors=lambda s: [
            ("b not in {-1/2, 29/18}",
             s["b"] != rat(-1, 2) and s["b"] != rat(29, 18)),
        ],
    ),
    dict(
        row=2,
        build=lambda s: {9: R1, 10: R1, 11: s["b"], 14: s["b1"], 17: s["b2"],
                         23: s["b3"]},
        honors=lambda s: [("b = 29/18", s["b"] == rat(29, 18))],
    ),
    dict(
        row=3,
        build=lambda s: {9: R1, 10: R1, 11: s["b"], 14: s["b1"], 17: s["b2"],
                         20: s["b3"]},
        honors=lambda s: [_B(s, True), _GATE(s, False)],
    ),
    dict(
        row=4,
        build=lambda s: {9: R1, 10: R1, 11: s["b"], 14: s["b1"], 17: s["b2"],
                         20: s["b3"], 26: s["b4"]},
        honors=lambda s: [_B(s, True), _GATE(s, True)],
    ),
)

# table id -> (multiplicity, rows)
_TABLES = {"7.1": (6, _ROWS_69), "7.2": (7, _ROWS_78)}


def build_table_row(table: str, row: int, samples: dict) -> PuiseuxParam:
    """Instantiate a table row's parametrization at given sample values.

    The values are taken as PuiseuxParam takes a coefficient; ``_run_table``
    passes the rationals it has read from a samples file.
    """
    if table not in _TABLES:
        raise ValueError(f"unknown table {table!r} (expected one of {', '.join(_TABLES)})")
    v0, specs = _TABLES[table]
    spec = next((r for r in specs if r["row"] == row), None)
    if spec is None:
        raise ValueError(f"table {table} has no row {row}")
    try:
        return PuiseuxParam(v0, spec["build"](samples))
    except KeyError as exc:
        raise ValueError(
            f"table {table} row {row} needs sample coefficient {exc.args[0]!r}"
        ) from None


# -- running a suite -------------------------------------------------------


def _suite_entry(data, example: str) -> dict:
    """The samples file's entry for one suite; ValueError if it has none."""
    entry = data.get(example) if isinstance(data, dict) else None
    if not isinstance(entry, dict):
        raise ValueError(f"samples file has no suite {example!r}")
    return entry


def _samples_of(entry, where: str) -> dict:
    samples = entry.get("samples") if isinstance(entry, dict) else None
    if not isinstance(samples, dict):
        raise ValueError(f"samples file has no samples for {where}")
    return samples


def _report(example: str, rows: list, **extra) -> dict:
    passed = sum(1 for r in rows if r["pass"])
    return {"example": example, **extra, "rows": rows, "passed": passed,
            "total": len(rows), "ok": passed == len(rows)}


def _run_table(table: str, data, check, **extra) -> dict:
    """Build every row of a table at its samples and score it.

    ``check(spec, phi)`` returns the row's report fields and whether the
    row's own check passed; the row passes when that check and every
    condition hold.  A failure inside a row is reported as that row's
    error, a sample that is neither an integer nor a rational string
    included.  A samples file without an entry for some row raises
    ValueError before any row runs.
    """
    entries = _suite_entry(data, table).get("rows")
    entries = [e for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []
    specs = _TABLES[table][1]
    samples = [
        _samples_of(next((e for e in entries if e.get("row") == spec["row"]), None),
                    f"{table} row {spec['row']}")
        for spec in specs
    ]
    rows = []
    for spec, row_samples in zip(specs, samples):
        report = {"row": spec["row"], "samples": dict(row_samples)}
        try:
            where = f"table {table} row {spec['row']} sample coefficient"
            s = {k: _read_rat(v, f"{where} {k!r}") for k, v in row_samples.items()}
            phi = build_table_row(table, spec["row"], s)
            conditions = [{"condition": desc, "holds": ok} for desc, ok in spec["honors"](s)]
            fields, ok = check(spec, phi)
            report.update(branch=phi.to_dict(), conditions=conditions, **fields)
            report["pass"] = all(c["holds"] for c in conditions) and ok
        except Exception as exc:  # surfaced in the report, row fails
            report["error"] = f"{type(exc).__name__}: {exc}"
            report["pass"] = False
        rows.append(report)
    return _report(table, rows, **extra)


def _check_78(spec, phi):
    """The row's differential values outside the semigroup, as tabled."""
    computed = differential_gaps(phi)
    expected = list(spec["expected"])
    return {"computed": computed, "expected": expected}, computed == expected


def _run_69(data) -> dict:
    seed = data.get("seed") if isinstance(data, dict) else None
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("samples file has no integer 'seed'")
    rng = random.Random(seed)

    def check(spec, phi):
        """A fixed point whose perturbed copy reduces to the same support."""
        nf = to_normal_form(phi)
        fixed = (not nf.change_log) and nf.normal == phi
        ch = random_coordinate_change(rng, 6, 9)
        computed = to_normal_form(apply_coordinate_change(phi, ch)).normal.support()
        fields = dict(fixed_point=fixed, perturbation=ch.to_dict(),
                      computed=computed, expected=phi.support())
        return fields, fixed and computed == phi.support()

    return _run_table("7.1", data, check, seed=seed)


# -- equivalent but not homothetic ----------------------------------------


def counterexample_change(a13, a20, b1, b5) -> CoordChange:
    """The cubic change that shifts the order-20 coefficient in place.

    Six of the eight cubic coefficients are pinned by the free data
    (a13, a20, b1, b5): one is given in closed form and three satisfy a
    linear 3-cycle that is solved here by substitution; the remaining
    two follow in closed form.  All defining relations are re-checked by
    the caller.  The change leaves every coefficient below order 26
    untouched except the one at order 20; the tail it creates above
    order 25 sits on removable orders only, so the transformed branch
    has the same normal form as the input.
    """
    if 4 * a13 - 21 == 0:
        raise ValueError("the pinned relations need a13 != 21/4")
    b4 = (
        rat(1, 1120)
        / (4 * a13 - 21)
        * (
            -2720 * a13 * b1 ** 2
            + 557690 * a13 * b1
            - 277200 * b1 * a13 ** 2
            + 16800 * b1 * a13 ** 3
            + 26880 * a13 * b5
            + 2459289 * b1
            - 141120 * b5
            + 14280 * b1 ** 2
            + 2688 * b1 * a20
        )
    )
    # b2 = c1 - (2/3) b3,  b3 = c2 - 40 b8,  b8 = c3 + (2/7) b2:
    # eliminating b3 and b8 leaves (1 - 160/21) b2 = c1 - (2/3) c2 + (80/3) c3.
    c1 = rat(4, 7) * b1 ** 2 - rat(227, 6) * b1 + rat(199, 24) * a13 * b1 - rat(8, 3) * b5
    c2 = (
        6 * b4
        - rat(45, 2) * b1 * a13 ** 2
        + rat(9565, 16) * b1
        + rat(72, 7) * b1 ** 2
        + rat(4297, 16) * a13 * b1
    )
    c3 = -rat(52, 7) * b1 + rat(8, 7) * b4 - rat(81, 28) * a13 * b1 + rat(18, 49) * b1 ** 2
    b2 = rat(-21, 139) * (c1 - rat(2, 3) * c2 + rat(80, 3) * c3)
    b8 = c3 + rat(2, 7) * b2
    b3 = c2 - 40 * b8
    b6 = -rat(25, 4) * b1 - rat(29, 28) * a13 * b1 + rat(8, 7) * b2 + rat(4, 49) * b1 ** 2
    b7 = -rat(3, 2) * a13 * b1 + rat(8, 7) * b3 - rat(641, 56) * b1 - rat(12, 49) * b1 ** 2
    p = (
        BiPoly.monomial(2, 0, b1)
        + BiPoly.monomial(1, 1, -rat(3, 2) * b1)
        + BiPoly.monomial(0, 2, -rat(1, 4) * b1)
        + BiPoly.monomial(3, 0, b2)
        + BiPoly.monomial(2, 1, b3)
        + BiPoly.monomial(1, 2, b4)
        + BiPoly.monomial(0, 3, b5)
    )
    q = (
        BiPoly.monomial(1, 1, rat(8, 7) * b1)
        + BiPoly.monomial(0, 2, -rat(12, 7) * b1)
        + BiPoly.monomial(3, 0, -rat(135, 28) * b1 - rat(15, 14) * a13 * b1)
        + BiPoly.monomial(2, 1, b6)
        + BiPoly.monomial(1, 2, b7)
        + BiPoly.monomial(0, 3, b8)
    )
    return CoordChange(r=R1, p=p, q=q)


def _counterexample_relations(a13, a20, b1, b5, coeffs):
    """Each pinned coefficient re-checked against its defining relation."""
    b2, b3, b4, b6, b7, b8 = (coeffs[k] for k in ("b2", "b3", "b4", "b6", "b7", "b8"))
    return [
        ("b2 relation",
         b2 == rat(4, 7) * b1 ** 2 - rat(227, 6) * b1 + rat(199, 24) * a13 * b1
         - rat(2, 3) * b3 - rat(8, 3) * b5),
        ("b3 relation",
         b3 == 6 * b4 - rat(45, 2) * b1 * a13 ** 2 + rat(9565, 16) * b1 - 40 * b8
         + rat(72, 7) * b1 ** 2 + rat(4297, 16) * a13 * b1),
        ("b4 relation",
         b4 * (4 * a13 - 21) * 1120
         == -2720 * a13 * b1 ** 2 + 557690 * a13 * b1 - 277200 * b1 * a13 ** 2
         + 16800 * b1 * a13 ** 3 + 26880 * a13 * b5 + 2459289 * b1
         - 141120 * b5 + 14280 * b1 ** 2 + 2688 * b1 * a20),
        ("b6 relation",
         b6 == -rat(25, 4) * b1 - rat(29, 28) * a13 * b1 + rat(8, 7) * b2
         + rat(4, 49) * b1 ** 2),
        ("b7 relation",
         b7 == -rat(3, 2) * a13 * b1 + rat(8, 7) * b3 - rat(641, 56) * b1
         - rat(12, 49) * b1 ** 2),
        ("b8 relation",
         b8 == -rat(52, 7) * b1 + rat(8, 7) * b4 - rat(81, 28) * a13 * b1
         + rat(2, 7) * b2 + rat(18, 49) * b1 ** 2),
    ]


def _run_counterexample(data) -> dict:
    example = "zariski-counterexample"
    samples = dict(_samples_of(_suite_entry(data, example), example))
    rows = []
    try:
        a13, a20, b1, b5 = (_read_rat(samples[k], f"{example} sample coefficient {k!r}")
                            for k in ("a13", "a20", "b1", "b5"))
        preconditions = [
            {"condition": "a13 != 21/4", "holds": a13 != rat(21, 4)},
            {"condition": "b1 != 0", "holds": b1 != 0},
        ]
        ch = counterexample_change(a13, a20, b1, b5)
        coeffs = {
            "b2": ch.p.terms[(3, 0)],
            "b3": ch.p.terms[(2, 1)],
            "b4": ch.p.terms[(1, 2)],
            "b6": ch.q.terms[(2, 1)],
            "b7": ch.q.terms[(1, 2)],
            "b8": ch.q.terms[(0, 3)],
        }
        relations = _counterexample_relations(a13, a20, b1, b5, coeffs)
        rows.append({
            "check": "pinned coefficient relations",
            "values": {k: str(v) for k, v in sorted(coeffs.items())},
            "relations": [{"name": n, "holds": bool(ok)} for n, ok in relations],
            "pass": all(ok for _, ok in relations)
            and all(c["holds"] for c in preconditions),
            "conditions": preconditions,
        })

        phi = PuiseuxParam(
            7, {8: R1, 10: R1, 11: R1, 12: rat(11, 4), 13: a13, 20: a20}
        )
        image = apply_coordinate_change(phi, ch)
        shift = 5 * b1 * (rat(3, 4) - a13 / 7)
        rows.append({
            "check": "order-20 coefficient",
            "computed": str(image.coeff(20)),
            "expected": str(a20 + shift),
            "pass": image.coeff(20) == a20 + shift,
        })
        expected_terms = dict(phi.terms)
        expected_terms[20] = a20 + shift
        window = max(expected_terms)
        img_window = {e: c for e, c in image.terms.items() if e <= window}
        deviations = sorted(
            e
            for e in set(image.terms) | set(expected_terms)
            if image.terms.get(e) != expected_terms.get(e)
        )
        first_dev = deviations[0] if deviations else None
        rows.append({
            "check": "displayed coefficients unchanged",
            "computed": [[e, str(c)] for e, c in sorted(img_window.items())],
            "expected": [[e, str(c)] for e, c in sorted(expected_terms.items())],
            "first_deviation": first_dev,
            "agrees_through_order": (phi.trunc if first_dev is None else first_dev) - 1,
            "pass": img_window == expected_terms
            and (first_dev is None or first_dev > window),
        })
        nf_phi = to_normal_form(phi)
        nf_img = to_normal_form(image)
        rows.append({
            "check": "tail above the window is removable",
            "computed": nf_img.normal.to_dict(),
            "expected": nf_phi.normal.to_dict(),
            "pass": nf_img.normal == nf_phi.normal,
        })
        verdict = decide_equivalence(phi, image, normal_forms=(nf_phi, nf_img))
        rows.append({
            "check": "equivalence verdict",
            "computed": verdict.to_dict(),
            "expected": {"verdict": "equivalent"},
            "pass": verdict.equivalent,
        })
        hom = homothety_solve(phi.terms, image.terms, phi.v1)
        rows.append({
            "check": "no coefficient-wise homothety",
            "computed": None if hom is None else {"g": hom[0], "w": str(hom[1])},
            "expected": None,
            "pass": hom is None,
        })
    except Exception as exc:
        rows.append({
            "check": "setup",
            "error": f"{type(exc).__name__}: {exc}",
            "pass": False,
        })
    return _report(example, rows, samples=samples)


_SUITES = {
    "7.1": _run_69,
    "7.2": lambda data: _run_table("7.2", data, _check_78),
    "zariski-counterexample": _run_counterexample,
}
EXAMPLE_IDS = tuple(_SUITES)


def run_reproduction(example_id: str, samples: dict | None = None) -> dict:
    """Run one bundled suite and return its row-by-row report."""
    if example_id not in _SUITES:
        raise ValueError(
            f"unknown reproduction id {example_id!r}; expected one of {', '.join(EXAMPLE_IDS)}"
        )
    return _SUITES[example_id](load_samples() if samples is None else samples)
