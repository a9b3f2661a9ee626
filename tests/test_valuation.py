"""Differential value sets against pinned table rows and random soundness checks."""

import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from planebranch.branch import PuiseuxParam
from planebranch.series import R1, BiPoly, TSeries, rat
from planebranch.valuation import (
    MONOMIAL_CLASS,
    DifferentialForm,
    InternalError,
    _eliminate,
    _form_rows,
    _function_rows,
    function_witnesses,
    lambda_set,
    s_sandwich_check,
    semigroup_of_values,
    value_of_differential,
    value_of_function,
    zariski_invariant,
)


def branch(v0, **terms):
    return PuiseuxParam(v0, {int(k[1:]): rat(v) for k, v in terms.items()})


def lam_minus_gamma(phi):
    vs = lambda_set(phi, "Lambda")
    sg = phi.semigroup
    return [w for w in vs.finite_part if not sg.contains(w)]


class TestFunctionValues:
    def test_monomial_values(self):
        phi = branch(7, e8=1, e10=1)
        assert value_of_function(phi, BiPoly.monomial(1, 0)) == 7
        assert value_of_function(phi, BiPoly.monomial(0, 1)) == 8
        assert value_of_function(phi, BiPoly.monomial(1, 1)) == 15

    def test_cancellation_raises_value(self):
        # y^2 - x^3 kills both t^18 leads on a genus-2 branch
        phi = branch(6, e9=1, e10=1)
        h = BiPoly.monomial(0, 2) - BiPoly.monomial(3, 0)
        assert value_of_function(phi, h) == 19

    def test_semigroup_of_values_matches_table(self):
        for phi in [branch(7, e8=1, e10=1), branch(6, e9=1, e10=1), branch(4, e6=1, e7=1)]:
            vs = semigroup_of_values(phi)
            sg = phi.semigroup
            assert vs.all_above == sg.conductor
            assert set(vs.finite_part) == {
                w for w in range(1, sg.conductor) if sg.contains(w)
            }

    def test_gamma_witnesses_attain_their_values(self):
        phi = branch(6, e9=1, e10=1)
        vs = semigroup_of_values(phi)
        for w in list(vs.witnesses)[:40]:
            assert value_of_function(phi, vs.witnesses[w]) == w

    def test_exotic_generator_witness(self):
        # 19 is not a sum of 6s and 9s: its witness needs a genuine combination
        phi = branch(6, e9=1, e10=1)
        vs = semigroup_of_values(phi)
        w19 = vs.witnesses[19]
        assert value_of_function(phi, w19) == 19
        assert len(w19.terms) >= 2

    def test_capped_witnesses_match_full_table(self):
        # the elimination capped at a value w finds the very witnesses of the
        # full table for every value up to w
        phi = branch(6, e9=1, e10=1, e11=2)
        full = semigroup_of_values(phi).witnesses
        for top in range(phi.v1, phi.trunc):
            expected = {w: h for w, h in full.items() if w <= top}
            assert function_witnesses(phi, top) == expected, top


def rational_eliminate(rows, lead_cap):
    """Reference elimination over Q: every row step scales and subtracts
    the pivot's series and witnesses coefficient by coefficient."""
    rows = sorted(rows, key=lambda r: (r[1].order_floor(), r[0]))
    pivots = {}
    for _, s, wH, wG in rows:
        while s.terms:
            lead = min(s.terms)
            if lead > lead_cap:
                break
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (s, wH, wG)
                break
            ps, pH, pG = hit
            f = s.terms[lead] / ps.terms[lead]
            s = s - ps.scale(f)
            wH = wH - pH.scale(f)
            wG = wG - pG.scale(f)
    return {lead: (wH, wG) for lead, (_, wH, wG) in pivots.items()}


coeffs = st.builds(rat, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def elimination_rows(draw):
    """Rows with mixed signs and denominators, unequal truncations, rational
    multiples of earlier rows (which cancel to zero) and leads above the cap."""
    rows = []
    for key in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            _, s, wH, wG = draw(st.sampled_from(rows))
            f = draw(coeffs.filter(bool))
            s = s.truncate(draw(st.integers(s.order_floor(), s.trunc)))
            rows.append((key, s.scale(f), wH.scale(f), wG.scale(f)))
            continue
        trunc = draw(st.integers(1, 14))
        s = TSeries(trunc, draw(st.dictionaries(st.integers(0, 13), coeffs, max_size=6)))
        monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
        wH = BiPoly(draw(st.dictionaries(monomials, coeffs, max_size=3)))
        wG = BiPoly(draw(st.dictionaries(monomials, coeffs, max_size=3)))
        rows.append((key, s, wH, wG))
    return rows, draw(st.integers(0, 14))


@st.composite
def small_branches(draw):
    v0 = draw(st.integers(3, 7))
    v1 = draw(st.integers(v0 + 1, v0 + 4).filter(lambda e: e % v0))
    tail = draw(st.dictionaries(st.integers(v1 + 1, v1 + 9), coeffs.filter(bool), max_size=2))
    assume(gcd(v0, v1, *tail) == 1)
    return PuiseuxParam(v0, {v1: R1, **tail})


def assert_same_pivots(rows, lead_cap):
    got = _eliminate(rows, lead_cap)
    expected = rational_eliminate(rows, lead_cap)
    assert sorted(got) == sorted(expected)
    for lead, (wH, wG) in expected.items():
        assert got[lead] == (wH, wG), lead
        coefficients = [*got[lead][0].terms.values(), *got[lead][1].terms.values()]
        assert all(type(c) is type(R1) and c != 0 for c in coefficients)


class TestElimination:
    @settings(deadline=None, max_examples=200)
    @given(elimination_rows())
    def test_matches_rational_elimination(self, rows_cap):
        assert_same_pivots(*rows_cap)

    @settings(deadline=None, max_examples=25)
    @given(small_branches())
    def test_matches_rational_elimination_on_builder_rows(self, phi):
        assert_same_pivots(_function_rows(phi, phi.trunc - 1), phi.trunc - 1)
        cap = phi.semigroup.conductor + 2 * phi.v0
        for kind in ("Lambda", "Lambda2", "LambdaPrime"):
            assert_same_pivots(_form_rows(phi, kind, cap), cap - 1)


class TestDifferentialValues:
    def test_basic_forms(self):
        phi = branch(7, e8=1, e10=1)
        dX = DifferentialForm(H=BiPoly.monomial(0, 0, 1), G=BiPoly.zero())
        dY = DifferentialForm(H=BiPoly.zero(), G=BiPoly.monomial(0, 0, 1))
        assert value_of_differential(phi, dX) == 7
        assert value_of_differential(phi, dY) == 8

    def test_pinned_cancellation(self):
        # 7X dY - 8Y dX pulls back to 14 t^16 dt/t, value 17
        phi = branch(7, e8=1, e10=1)
        om = DifferentialForm(H=BiPoly.monomial(0, 1, -8), G=BiPoly.monomial(1, 0, 7))
        assert value_of_differential(phi, om) == 17

    def test_class_predicates(self):
        assert DifferentialForm(
            H=BiPoly.monomial(1, 1), G=BiPoly.monomial(2, 0)
        ).in_omega2_sq()
        assert not DifferentialForm(
            H=BiPoly.monomial(1, 0), G=BiPoly.zero()
        ).in_omega2_sq()
        assert DifferentialForm(
            H=BiPoly.monomial(0, 2), G=BiPoly.monomial(0, 1)
        ).in_omega_prime()
        assert not DifferentialForm(
            H=BiPoly.monomial(0, 2), G=BiPoly.monomial(1, 0)
        ).in_omega_prime()


class TestLambdaSets:
    def test_table_row_one(self):
        phi = branch(7, e8=1, e10=1, e11=1, e12=3)
        assert lam_minus_gamma(phi) == [17, 25, 26, 33, 34, 41]

    def test_deep_rows(self):
        assert lam_minus_gamma(branch(7, e8=1, e20=1)) == [27, 34, 41]
        assert lam_minus_gamma(branch(7, e8=1, e26=1)) == [33, 41]
        assert lam_minus_gamma(branch(7, e8=1, e34=1)) == [41]

    def test_monomial_class_has_no_extra_values(self):
        assert lam_minus_gamma(branch(7, e8=1)) == []
        # t^16 has 16 = 8 + 8 inside the semigroup: still the monomial class
        assert lam_minus_gamma(branch(7, e8=1, e16=1)) == []

    def test_genus_two_generic(self):
        phi = branch(6, e9=1, e10=1, e11=1)
        vs = lambda_set(phi, "Lambda")
        assert vs.all_above == 42
        assert zariski_invariant(phi) == 10

    def test_inclusions(self):
        phi = branch(6, e9=1, e10=1)
        big = lambda_set(phi, "Lambda")
        for kind in ("Lambda2", "LambdaPrime"):
            small = lambda_set(phi, kind)
            for w in small.finite_part:
                assert big.contains(w)
            assert small.all_above >= big.all_above

    def test_gamma_sits_inside_lambda(self):
        phi = branch(7, e8=1, e10=1, e11=1, e12=3)
        lam = lambda_set(phi, "Lambda")
        sg = phi.semigroup
        for w in range(1, lam.all_above):
            if sg.contains(w):
                assert lam.contains(w)

    def test_witnesses_attain_values(self):
        phi = branch(6, e9=1, e10=1)
        for kind in ("Lambda", "Lambda2", "LambdaPrime"):
            vs = lambda_set(phi, kind)
            for w, om in vs.witnesses.items():
                assert value_of_differential(phi, om) == w

    def test_witness_class_constraints(self):
        phi = branch(6, e9=1, e10=1)
        for w, om in lambda_set(phi, "Lambda2").witnesses.items():
            assert om.in_omega2_sq()
        for w, om in lambda_set(phi, "LambdaPrime").witnesses.items():
            assert om.in_omega_prime()

    def test_random_forms_stay_inside_lambda(self):
        # soundness oracle: the value of any differential form must be a
        # member of the computed set
        phi = branch(6, e9=1, e10=1, e11=1)
        vs = lambda_set(phi, "Lambda")
        rng = random.Random(7)
        for _ in range(150):
            H = BiPoly(
                {
                    (rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5)
                    for _ in range(rng.randrange(3))
                }
            )
            G = BiPoly(
                {
                    (rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5)
                    for _ in range(rng.randrange(3))
                }
            )
            if H.is_zero() and G.is_zero():
                continue
            w = value_of_differential(phi, DifferentialForm(H=H, G=G))
            if isinstance(w, int) and w <= vs.decided_to:
                assert vs.contains(w), f"value {w} of {H=} {G=} missing"

    def test_enlarging_the_basis_adds_nothing(self):
        # one-more-layer stability: recompute with extra head-room and compare
        tight = branch(6, e9=1, e10=1)
        wide = PuiseuxParam(6, {9: 1, 10: 1}, extra=13)
        for kind in ("Lambda", "Lambda2", "LambdaPrime"):
            a = lambda_set(tight, kind)
            b = lambda_set(wide, kind)
            assert a.finite_part == b.finite_part
            assert a.all_above == b.all_above


class TestZariskiInvariant:
    def test_known_values(self):
        assert zariski_invariant(branch(7, e8=1, e10=1)) == 10
        assert zariski_invariant(branch(7, e8=1, e20=1)) == 20
        assert zariski_invariant(branch(7, e8=1, e34=1)) == 34
        assert zariski_invariant(branch(6, e9=1, e10=1, e11=1)) == 10
        assert zariski_invariant(branch(4, e6=1, e7=1)) == 7

    def test_monomial_class(self):
        assert zariski_invariant(branch(7, e8=1)) is MONOMIAL_CLASS
        assert zariski_invariant(branch(2, e3=1)) is MONOMIAL_CLASS
        assert zariski_invariant(branch(7, e8=1, e16=1)) is MONOMIAL_CLASS
        assert not MONOMIAL_CLASS  # falsy sentinel

    def test_invariant_not_in_semigroup(self):
        for phi in [
            branch(7, e8=1, e10=1),
            branch(6, e9=1, e10=1),
            branch(4, e6=1, e9=1),
            branch(6, e8=1, e9=1),
        ]:
            lam = zariski_invariant(phi)
            assert lam is not MONOMIAL_CLASS
            assert not phi.semigroup.contains(lam)


class TestSandwich:
    def test_n1_two_genus_two_attains_top(self):
        rep = s_sandwich_check(branch(6, e9=1, e10=1))
        assert rep["top_attained"] is True
        assert rep["top_value"] == 9 + 10
        assert rep["S"] == [6, 9, 12, 15, 16, 18]

    def test_genus_one_is_exact(self):
        rep = s_sandwich_check(branch(7, e8=1, e10=1, e11=1, e12=3))
        assert rep["top_attained"] is False
        assert rep["lambda_minus_lambda2"] == rep["S"]

    def test_n1_three_is_exact(self):
        rep = s_sandwich_check(branch(6, e8=1, e9=1))
        assert rep["n1"] == 3 and rep["genus"] == 2
        assert rep["top_attained"] is False

    def test_n1_two_large_multiplicity(self):
        rep = s_sandwich_check(branch(4, e10=1, e11=1))
        assert rep["n1"] == 2 and rep["genus"] == 2
        assert rep["top_attained"] is True

    def test_lambda_twice_v1_minus_v0_moves_two_v1(self):
        # lambda = 10 = 2 (9 - 4): X (v0 X dY - v1 Y dX) puts 2 v1 = 18 in
        # Lambda2, and v1 + lambda = 19 joins the difference
        rep = s_sandwich_check(branch(4, e9=1, e10=1))
        assert rep["n1"] == 4 and rep["genus"] == 1
        assert rep["lambda_minus_lambda2"] == [4, 8, 9, 13, 14, 19]
        assert rep["top_attained"] is True
        assert rep["two_v1_in_lambda2"] is True

    def test_lambda_twice_v1_minus_v0_top_past_window(self):
        # lambda = 10 = 2 (8 - 3): 2 v1 = 16 leaves the difference, but
        # v1 + lambda = 18 lies where Lambda2 already holds every value
        rep = s_sandwich_check(branch(3, e8=1, e10=1))
        assert rep["top_value"] == 18
        assert rep["lambda_minus_lambda2"] == [3, 6, 8, 11, 13]
        assert rep["top_attained"] is False
        assert rep["two_v1_in_lambda2"] is True

    @pytest.mark.xfail(
        strict=True,
        raises=InternalError,
        reason="known defect: for Gamma = <6, 14, 51>, lambda = 16 = 2 (v1 - v0), "
        "the check expects [6, 12, 14, 20, 22, 30] and computes [6, 12, 14, 20, 22, 35]",
    )
    def test_n1_three_lambda_twice_v1_minus_v0(self):
        # v1 + lambda = 30 = 5 v0 already lies in Lambda2 (X^4 dX attains it)
        rep = s_sandwich_check(branch(6, e14=1, e16=-1, e23=2))
        assert rep["n1"] == 3 and rep["genus"] == 2

    def test_monomial_class_refused(self):
        with pytest.raises(ValueError):
            s_sandwich_check(branch(7, e8=1))
