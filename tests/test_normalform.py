"""Coordinate changes, term elimination, normal forms, equivalence."""

import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from planebranch import (
    BiPoly,
    CoordChange,
    InternalError,
    MONOMIAL_CLASS,
    PuiseuxParam,
    apply_coordinate_change,
    bipoly_pullback,
    compose_changes,
    decide_equivalence,
    eliminate_term,
    homothety_solve,
    lambda_set,
    rat,
    series_root_unit,
    to_normal_form,
    zariski_invariant,
)
from planebranch import normalform, semigroup
from planebranch.normalform import _Recipe, _affine_slope, _candidate_recipes
from planebranch.semigroup import char_data_from_exponents, two_generator_rep
from planebranch.series import R1, TSeries
from planebranch.valuation import form_witnesses

from series_oracles import (
    assert_canonical,
    oracle_pow,
    product_integrand,
    rational_root_unit,
    rational_scaling_change,
    series_compose,
    series_reversion,
    small_branches,
)


def branch(v0, coeffs, extra=0):
    return PuiseuxParam(v0, {e: rat(c) for e, c in coeffs.items()}, extra=extra)


def bp(*triples):
    return BiPoly.from_pairs([[a, b, str(c)] for a, b, c in triples])


def homothety(r):
    """The change (r, 0, 0); homothety(1) is the identity."""
    return CoordChange(r=rat(r), p=BiPoly(), q=BiPoly())


# -- applying coordinate changes ----------------------------------------


class TestApplyChange:
    def test_homothety_rescales_coefficients(self):
        # r=2 on y = t^8 + 2 t^10: new a_i = old a_i * r^(v1 - i)
        phi = branch(7, {8: 1, 10: 2})
        out = apply_coordinate_change(phi, homothety(2))
        assert out.terms == {8: rat(1), 10: rat("1/2")}

    def test_homothety_general_exponent_law(self):
        phi = branch(7, {8: 1, 10: 1, 12: 3})
        r = rat("-3/2")
        out = apply_coordinate_change(phi, homothety(r))
        for e, c in phi.terms.items():
            assert out.terms[e] == c * r ** (8 - e)

    def test_q_only_change_adds_pullback(self):
        # p = 0, r = 1: the new y is literally y + q(x(t), y(t))
        phi = branch(7, {8: 1, 10: 1})
        q = bp((0, 2, "-1"), (3, 0, "1/2"))
        out = apply_coordinate_change(phi, CoordChange(r=rat(1), p=BiPoly.zero(), q=q))
        expect = phi.y + bipoly_pullback(q, phi)
        assert out.y.terms == {
            e: c for e, c in expect.terms.items() if e < out.trunc
        }

    def test_general_change_against_reversion_oracle(self):
        # Independent recomputation: solve x~ = rho^v0 for rho, invert it by
        # Lagrange reversion, and compose y~ with the inverse.
        phi = branch(4, {6: 1, 7: 1}, extra=6)
        r = rat("2")
        p = bp((2, 0, "1"), (0, 1, "-1/3"))  # values 8, 6 > v0 = 4
        q = bp((0, 2, "1/5"), (3, 0, "1"))  # values 12, 12 > v1 = 6
        ch = CoordChange(r=r, p=p, q=q)
        out = apply_coordinate_change(phi, ch)

        N = phi.trunc
        xt = TSeries.monomial(4, r**4, N) + bipoly_pullback(p, phi).truncate(N)
        yt = phi.y.scale(r**6) + bipoly_pullback(q, phi).truncate(N)
        # recover rho as the unique order-1 root of rho^4 = xt with rho'(0) = r
        rho = series_root_unit(xt.shift(-4).scale(r**-4), 4).shift(1).scale(r)
        window = min(oracle_pow(rho, 4, N).trunc, xt.trunc)
        assert oracle_pow(rho, 4, N).truncate(window) == xt.truncate(window)
        tau = series_reversion(rho)
        y_new = series_compose(yt, tau)
        for e in range(min(out.trunc, y_new.trunc)):
            assert out.y.coeff(e) == y_new.coeff(e)
        # and the branch data survived
        assert out.v0 == 4 and out.semigroup.generators == phi.semigroup.generators

    def test_rejects_bad_changes(self):
        phi = branch(7, {8: 1})
        with pytest.raises(ValueError):
            apply_coordinate_change(phi, homothety(0))
        with pytest.raises(ValueError):
            # p of value v0 exactly (not > v0)
            apply_coordinate_change(
                phi, CoordChange(r=rat(1), p=bp((1, 0, "1")), q=BiPoly.zero())
            )
        with pytest.raises(ValueError):
            # q of value v1 exactly
            apply_coordinate_change(
                phi, CoordChange(r=rat(1), p=BiPoly.zero(), q=bp((0, 1, "1")))
            )

    def test_compose_matches_sequential_application(self):
        phi = branch(4, {6: 1, 7: 1}, extra=8)
        ch1 = CoordChange(r=rat("1/2"), p=bp((2, 0, "1")), q=bp((0, 2, "-1")))
        ch2 = CoordChange(r=rat(3), p=bp((0, 1, "1/4")), q=bp((3, 0, "2")))
        seq = apply_coordinate_change(apply_coordinate_change(phi, ch1), ch2)
        tot = apply_coordinate_change(phi, compose_changes(ch1, ch2, 4, 6))
        assert seq == tot

    def test_compose_with_identity(self):
        ch = CoordChange(r=rat(2), p=bp((2, 0, "1")), q=bp((0, 2, "3")))
        ident = homothety(1)
        for left, right in ((ident, ch), (ch, ident)):
            both = compose_changes(left, right, 4, 6)
            assert both.r == ch.r and both.p == ch.p and both.q == ch.q

    def test_altered_semigroup_raises(self, monkeypatch):
        # no admissible change alters beta, so the output is given another
        # class after it is built; the check compares beta, which for a
        # plane branch is the same as comparing the semigroup generators
        real = normalform.PuiseuxParam

        def other_class(*args, **kwargs):
            out = real(*args, **kwargs)
            out.char = char_data_from_exponents((7, 9))
            out.semigroup = out.char.semigroup
            return out

        monkeypatch.setattr(normalform, "PuiseuxParam", other_class)
        phi = branch(7, {8: 1, 10: 1})
        ch = CoordChange(r=rat(1), p=BiPoly.zero(), q=bp((0, 2, "1")))
        with pytest.raises(
            InternalError,
            match=r"coordinate change altered the semigroup: \(7, 8\) -> \(7, 9\)",
        ):
            apply_coordinate_change(phi, ch)

    def test_change_json_round_trip(self):
        ch = CoordChange(r=rat("-5/3"), p=bp((2, 0, "1/7")), q=bp((0, 2, "3")))
        again = CoordChange.from_dict(ch.to_dict())
        assert again == ch

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"r": 0.5}, "r"),
            ({"r": True}, "r"),
            ({"r": "1", "p": [[2, 0, 0.5]]}, "coefficient of X^2 Y^0"),
            ({"r": "1", "q": [[0, 2, False]]}, "coefficient of X^0 Y^2"),
        ],
    )
    def test_change_from_dict_rejects_non_integer_numbers(self, data, field):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer or a")):
            CoordChange.from_dict(data)
        assert CoordChange.from_dict({"r": 2, "p": [[2, 0, -3]]}).p == bp((2, 0, "-3"))

    def test_change_from_dict_requires_r(self):
        with pytest.raises(ValueError, match="lacks 'r'"):
            CoordChange.from_dict({"q": [[0, 2, "1"]]})


def series_apply_change(phi, ch):
    """Reference for apply_coordinate_change with p != 0: the triangular
    solve on canonical TSeries.  Order by order, c_e = [t^e] R / r**e and
    R -= c_e rho**e, with rho**e built by one truncated product per order."""
    v0, v1, N = phi.v0, phi.v1, phi.trunc
    r = rat(ch.r)
    pt = bipoly_pullback(ch.p, phi).truncate(N)
    qt = bipoly_pullback(ch.q, phi).truncate(N)
    R = (phi.y.scale(r**v1) + qt).truncate(N)
    unit = rational_root_unit(
        TSeries.monomial(0, 1, N - v0) + pt.shift(-v0).scale(1 / r**v0), v0
    )
    rho = unit.shift(1).scale(r)
    P = TSeries.monomial(0, 1, N)
    for _ in range(v1):
        P = (P * rho).truncate(N)
    terms = {}
    for e in range(v1, N):
        ce = R.coeff(e)
        if ce != 0:
            terms[e] = ce / r**e
            R = R - P.scale(terms[e])
        P = (P * rho).truncate(N)
    assert R.is_zero()
    return PuiseuxParam(v0, terms, extra=phi.extra, label=phi.label)


R_POOL = [rat(c) for c in ("1", "-1", "3", "-2", "1/2", "-2/3", "5/4")]
coeffs = st.builds(rat, st.integers(-9, 9).filter(bool), st.integers(1, 6))


@st.composite
def changes(draw, p_zero=False):
    """A small branch and a change: r from R_POOL, q with zero to three
    monomials of value > v1 below the truncation, and p = 0, or p with one
    to three monomials of value > v0 and a nonzero pullback."""
    v0 = draw(st.integers(3, 6))
    v1 = draw(st.integers(v0 + 1, v0 + 4).filter(lambda e: e % v0))
    tail = draw(st.dictionaries(st.integers(v1 + 1, v1 + 9), coeffs, max_size=2))
    assume(gcd(v0, v1, *tail) == 1)
    phi = PuiseuxParam(v0, {v1: R1, **tail}, extra=draw(st.integers(0, 3)))
    N = phi.trunc

    def poly(above, min_size):
        monomials = [
            (a, b)
            for a in range(N // v0 + 1)
            for b in range(3)
            if above < a * v0 + b * v1 < N
        ]
        picks = draw(st.lists(st.sampled_from(monomials), min_size=min_size, max_size=3,
                              unique=True))
        return BiPoly({m: draw(coeffs) for m in picks})

    q = poly(v1, 0 if p_zero else 1)
    p = BiPoly() if p_zero else poly(v0, 1)
    assume(p_zero or not bipoly_pullback(p, phi).truncate(N).is_zero())
    return phi, CoordChange(r=draw(st.sampled_from(R_POOL)), p=p, q=q)


def assert_canonical_branch(phi):
    assert_canonical(phi.y)
    assert phi.y.trunc == phi.trunc


class TestApplyChangeAgainstSeriesSolve:
    @settings(deadline=None, max_examples=100)
    @given(changes())
    def test_matches_series_solve(self, phi_ch):
        phi, ch = phi_ch
        got = apply_coordinate_change(phi, ch)
        assert_canonical_branch(got)
        want = series_apply_change(phi, ch)
        assert got == want
        assert (got.to_dict(), got.extra, got.trunc) == (want.to_dict(), want.extra, want.trunc)

    @settings(deadline=None, max_examples=100)
    @given(changes(p_zero=True))
    def test_scaling_matches_rational_formula(self, phi_ch):
        # p = 0: r = 1 returns W itself, r != 1 is the solve with rho = r t
        phi, ch = phi_ch
        got = apply_coordinate_change(phi, ch)
        assert_canonical_branch(got)
        want = rational_scaling_change(phi, ch)
        assert got == want
        assert (got.to_dict(), got.extra, got.trunc) == (want.to_dict(), want.extra, want.trunc)


# -- single-term elimination ---------------------------------------------


def check_slope(phi, recipe, k):
    """_affine_slope equals [t**(j + v0 - 1)] of the product-formula
    integrand over v0 at every order j from k below the integrand's window
    (N - 1 for a form with a dY part, N + v0 - 1 for a dX part alone), and
    raises past it (two orders past it are tried)."""
    v0, N = phi.v0, phi.trunc
    G = -recipe.p_gen
    ref = product_integrand(phi, recipe.q_gen, G)
    window = N - 1 if G.terms else N + v0 - 1
    assert window <= ref.trunc
    for j in range(k, window - v0 + 3):
        K = j + v0 - 1
        if K < window:
            assert _affine_slope(phi, recipe, j) == ref.coeff(K) / v0
        else:
            with pytest.raises(ValueError, match=f"beyond truncation {window}"):
                _affine_slope(phi, recipe, j)


class TestEliminateTerm:
    def test_semigroup_value_uses_quadratic_monomial(self):
        # 16 = 2*8: the change (X, Y + s Y^2) removes t^16, s solved exactly
        phi = branch(7, {8: 1, 10: 1, 16: 1})
        out, ch = eliminate_term(phi, 16, zariski_invariant(phi))
        assert out.coeff(16) == 0
        assert out.coeff(8) == 1 and out.coeff(10) == 1
        assert ch.r == 1 and ch.p.is_zero()
        assert ch.q.to_pairs() == [[0, 2, "-1"]]

    def test_shifted_semigroup_value_uses_p_change(self):
        # 17 is not in <7,8> but 17 + 7 - 8 = 16 is: a p-only change applies
        phi = branch(7, {8: 1, 10: 1, 17: 5})
        out, ch = eliminate_term(phi, 17, zariski_invariant(phi))
        assert out.coeff(17) == 0
        for e in range(9, 17):
            assert out.terms.get(e) == phi.terms.get(e)
        assert ch.q.is_zero()
        assert [pair[:2] for pair in ch.p.to_pairs()] == [[0, 2]]

    def test_replay_of_composed_change(self):
        phi = branch(7, {8: 1, 10: 1, 17: 5})
        out, ch = eliminate_term(phi, 17, zariski_invariant(phi))
        assert apply_coordinate_change(phi, ch) == out

    def test_differential_witness_step(self):
        # 12 on a <6,9,19> branch: 12 not reachable from the semigroup by
        # EC1/EC2 shifts -- wait, 12 = 2*6 is in the semigroup. Use 16:
        # 16 is not in <6,9,19>, 16+6-9 = 13 is not either, but 22 = v2 is in
        # Lambda, so a stored differential witness must do the job.
        phi = branch(6, {9: 1, 13: 1, 16: 1})
        lam = zariski_invariant(phi)
        assert lam == 13
        out, ch = eliminate_term(phi, 16, lam)
        assert out.coeff(16) == 0
        # jet below 16 untouched (13 is the invariant and must stay)
        assert out.coeff(13) == 1
        for e in range(10, 16):
            assert out.terms.get(e) == phi.terms.get(e)
        assert apply_coordinate_change(phi, ch) == out

    def test_gamma_witness_beyond_two_generators(self):
        # k = 19 = v2 of <6,9,19>: in the semigroup but not in <6,9>, so the
        # function witness comes from the value-semigroup elimination table.
        phi = branch(6, {9: 1, 10: 1, 19: 1})
        out, ch = eliminate_term(phi, 19, zariski_invariant(phi))
        assert out.coeff(19) == 0
        for e in range(7, 19):
            assert out.terms.get(e) == phi.terms.get(e)

    def test_refuses_the_invariant(self):
        phi = branch(7, {8: 1, 10: 1})
        assert zariski_invariant(phi) == 10
        with pytest.raises(ValueError):
            eliminate_term(phi, 10, zariski_invariant(phi))

    def test_refuses_low_orders(self):
        phi = branch(7, {8: 1, 10: 1})
        with pytest.raises(ValueError):
            eliminate_term(phi, 8, zariski_invariant(phi))

    def test_refuses_non_eliminable_order(self):
        # 11 + 7 = 18 is not in Lambda of (t^7, t^8 + t^10 + t^11): no recipe
        phi = branch(7, {8: 1, 10: 1, 11: 1})
        lamvs = lambda_set(phi, "Lambda")
        assert not lamvs.contains(18)
        with pytest.raises(ValueError):
            eliminate_term(phi, 11, zariski_invariant(phi))

    @pytest.mark.parametrize(
        "v0, coeffs, k, name, safe",
        [
            (7, {8: 1, 10: 1, 16: 1}, 16, "EC1", True),
            (7, {8: 1, 10: 1, 17: 5}, 17, "EC2", True),
            (7, {8: 1, 10: 1, 18: 1}, 18, "witness", True),
            (6, {9: 1, 13: 1, 16: 1}, 16, "witness", False),
        ],
    )
    def test_closed_form_slope_matches_sampled_slope(self, v0, coeffs, k, name, safe):
        # each recipe here, the unsafe one included, responds affinely at
        # order k, so the first-order slope read off its form equals the
        # sampled difference f(1) - f(0)
        phi = branch(v0, coeffs)
        recipe = _candidate_recipes(phi, k, zariski_invariant(phi))[0]
        assert recipe.name == name and recipe.safe is safe
        ch = CoordChange(r=rat(1), p=recipe.p_gen, q=recipe.q_gen)
        sampled = apply_coordinate_change(phi, ch).coeff(k) - phi.coeff(k)
        assert sampled != 0
        assert _affine_slope(phi, recipe, k) == sampled

    def test_slope_is_one_integrand_coefficient(self):
        names = set()
        for v0, coeffs, k in (
            (7, {8: 1, 10: 1, 16: 1}, 16),
            (7, {8: 1, 10: 1, 17: 5}, 17),
            (7, {8: 1, 10: 1, 18: 1}, 18),
            (6, {9: 1, 13: 1, 16: 1}, 16),
        ):
            phi = branch(v0, coeffs)
            for recipe in _candidate_recipes(phi, k, zariski_invariant(phi)):
                names.add(recipe.name)
                check_slope(phi, recipe, k)
        assert names == {"EC1", "EC2", "witness", "special"}
        # a dY-component of value 2 v0 < v1, where the product formula's
        # window is N + 2 v0 - 1 and the integrand's is N - 1
        probe = _Recipe(name="probe", p_gen=bp((2, 0, "1")), q_gen=BiPoly(), safe=True)
        check_slope(branch(3, {7: 1, 8: 1}), probe, 8)

    @settings(deadline=None, max_examples=40)
    @given(small_branches(), st.data())
    def test_slope_is_one_integrand_coefficient_on_random_branches(self, phi, data):
        lam = zariski_invariant(phi)
        k = data.draw(st.integers(phi.v1 + 1, phi.semigroup.conductor + phi.v0))
        assume(lam is MONOMIAL_CLASS or k != lam)
        for recipe in _candidate_recipes(phi, k, lam):
            check_slope(phi, recipe, k)

    def test_slope_missing_the_target_raises(self, monkeypatch):
        # the exact check on the solved coefficient guards the affine step
        real = normalform._affine_slope
        monkeypatch.setattr(
            normalform, "_affine_slope", lambda *args: 2 * real(*args)
        )
        phi = branch(6, {9: 1, 13: 1, 16: 1})
        with pytest.raises(InternalError, match="recipe witness failed to set order 16"):
            eliminate_term(phi, 16, zariski_invariant(phi))

    @pytest.mark.parametrize(
        "v0, coeffs",
        [(7, {8: 1, 10: 1, 18: 1}), (6, {9: 1, 13: 1, 16: 1}), (4, {6: 1, 7: 1, 9: 1})],
    )
    def test_capped_lambda_prime_witnesses_match_full_set(self, v0, coeffs):
        # the elimination capped at k + v0 finds the very witnesses of the
        # full Lambda' basis, for every value up to the cap
        phi = branch(v0, coeffs)
        full = lambda_set(phi, "LambdaPrime").witnesses
        for k in range(phi.v1 + 1, phi.semigroup.conductor + v0 + 1):
            top = k + v0
            expected = {w: om for w, om in full.items() if w <= top}
            assert form_witnesses(phi, "LambdaPrime", top) == expected, top


# -- full reduction -------------------------------------------------------


class TestToNormalForm:
    def test_head_room_changes_nothing_below_n(self):
        # honest truncation: four more orders of head-room give the same
        # lambda, free exponents and normal form below N, and the changes
        # they add come after the narrow reduction's; budget 3 s of CPU time,
        # which other processes on the machine do not inflate
        @settings(deadline=None, max_examples=25)
        @given(small_branches())
        def same_below_n(phi):
            narrow = to_normal_form(phi)
            wide = to_normal_form(PuiseuxParam(phi.v0, phi.terms, extra=4))
            assert wide.lam == narrow.lam
            assert wide.free_exponents == narrow.free_exponents
            assert wide.normal.y.truncate(phi.trunc) == narrow.normal.y
            assert wide.change_log[:len(narrow.change_log)] == narrow.change_log

        t0 = time.process_time()
        same_below_n()
        elapsed = time.process_time() - t0
        assert elapsed < 3.0, f"head-room property took {elapsed:.2f}s of CPU time"

    def test_class_is_built_once_and_shared(self, monkeypatch):
        # one sieve per beta: the input builds the class, and every branch
        # of the reduction and of its replay holds that same record
        semigroup._char_data.cache_clear()
        sieves = []
        real = semigroup.NumericalSemigroup.__init__

        def counting(self, generators):
            sieves.append(tuple(generators))
            real(self, generators)

        monkeypatch.setattr(semigroup.NumericalSemigroup, "__init__", counting)
        phi = branch(6, {9: 1, 10: 1, 11: 1, 13: 2})
        res = to_normal_form(phi)
        assert len(res.change_log) >= 2
        assert sieves == [(6, 9, 19)]
        assert res.normal.char is phi.char
        work = phi
        for ch in res.change_log:
            work = apply_coordinate_change(work, ch)
            assert work.char is phi.char and work.semigroup is phi.semigroup
        assert work == res.normal

    def test_single_semigroup_tail_gives_monomial(self):
        phi = branch(7, {8: 1, 16: 1})
        res = to_normal_form(phi)
        assert res.normal.terms == {8: rat(1)}
        assert res.lam is None
        assert res.dimension_bound == 0 and res.free_exponents == []
        assert len(res.change_log) >= 1

    def test_already_normal_is_untouched(self):
        phi = branch(7, {8: 1, 10: 1, 11: 1, 12: 3})
        res = to_normal_form(phi)
        assert res.normal == phi
        assert res.change_log == []
        assert res.lam == 10

    def test_spec_shape_for_seven_eight_branch(self):
        phi = branch(7, {8: 1, 10: 1, 17: 5})
        res = to_normal_form(phi)
        assert res.lam == 10
        assert set(res.normal.support()) <= {8, 10, 11, 12, 13, 20}
        assert res.normal.coeff(10) != 0

    def test_change_log_replays_to_normal_form(self):
        phi = branch(7, {8: 1, 10: 1, 14: 2, 17: 5}, extra=0)
        res = to_normal_form(phi)
        cur = phi
        for ch in res.change_log:
            cur = apply_coordinate_change(cur, ch)
        assert cur == res.normal

    def test_unsafe_witness_with_cleanup(self):
        # <6,9,22>: lambda = 13, and killing t^16 needs the witness whose
        # parameter-square spills onto t^15; the spill is repaired and folded
        # into the same logged change.
        phi = branch(6, {9: 1, 13: 1, 16: 1})
        res = to_normal_form(phi)
        assert res.lam == 13
        assert res.normal.coeff(13) == 1
        assert 16 not in res.normal.support()
        assert 15 not in res.normal.support()
        cur = phi
        for ch in res.change_log:
            cur = apply_coordinate_change(cur, ch)
        assert cur == res.normal

    def test_tail_term_needing_differential_witness(self):
        # <4,6,13> branch with invariant 7: the t^9 term is not reachable by
        # the semigroup recipes (9 and 9+4-6=7 are both gaps) but 9+4 = 13
        # lies in Lambda, so the stored witness eliminates it.
        phi = branch(4, {6: 1, 7: 1, 9: 1}, extra=4)
        res = to_normal_form(phi)
        assert res.lam == 7
        assert 9 not in res.normal.support()

    def test_genus_two_generic_dimension(self):
        phi = branch(6, {9: 1, 10: 1})
        res = to_normal_form(phi)
        assert res.lam == 10
        assert res.dimension_bound == len(res.free_exponents)
        assert res.dimension_bound == 3

    def test_seven_eight_generic_dimension(self):
        phi = branch(7, {8: 1, 10: 1, 11: 1, 12: 3})
        res = to_normal_form(phi)
        assert res.free_exponents == [11, 12, 13, 20]
        assert res.dimension_bound == 4

    def test_idempotence_up_to_homothety(self):
        for coeffs in ({8: 1, 10: 1, 14: 2, 17: 5}, {9: 1, 13: 1, 16: 1}):
            v0 = 7 if 8 in coeffs else 6
            phi = branch(v0, coeffs)
            res = to_normal_form(phi)
            res2 = to_normal_form(res.normal)
            assert res2.change_log == []
            assert homothety_solve(
                res.normal.terms, res2.normal.terms, phi.v1
            ) is not None

    def test_internal_error_after_the_last_step_has_no_order(self, monkeypatch):
        # the final Lambda-stability check fails: the repro holds every change
        # and k is None
        real = normalform.lambda_set
        calls = []

        def fail_stability(phi, kind="Lambda"):
            calls.append(phi)
            if len(calls) == 2:
                raise InternalError("injected stability failure")
            return real(phi, kind)

        monkeypatch.setattr(normalform, "lambda_set", fail_stability)
        phi = branch(7, {8: 1, 10: 1, 14: 2, 17: 5})
        with pytest.raises(InternalError, match="injected") as info:
            to_normal_form(phi)
        repro = info.value.repro
        assert repro["branch"] == phi.to_dict() and repro["k"] is None
        cur = phi
        for change in repro["changes"]:
            cur = apply_coordinate_change(cur, CoordChange.from_dict(change))
        assert cur == calls[1]

    def test_lambda_invariance_under_reduction(self):
        phi = branch(7, {8: 1, 10: 1, 14: 2, 17: 5})
        res = to_normal_form(phi)
        before = lambda_set(phi, "Lambda")
        after = lambda_set(res.normal, "Lambda")
        assert before.finite_part == after.finite_part


# -- homothety decision ---------------------------------------------------


class TestHomothety:
    def test_spec_witness_example(self):
        a = {8: rat(1), 10: rat(1), 12: rat(3)}
        phi = PuiseuxParam(7, dict(a))
        img = apply_coordinate_change(phi, homothety(2))
        got = homothety_solve(a, img.terms, 8)
        assert got == (2, rat(4))

    def test_negative_unit(self):
        # exponent gaps {2, 5}, ratios (1, -1): r = -1 works
        a = {8: rat(1), 10: rat(1), 13: rat(-1)}
        b = {8: rat(1), 10: rat(1), 13: rat(1)}
        assert homothety_solve(a, b, 8) == (1, rat(-1))

    def test_unsolvable_ratios(self):
        a = {8: rat(1), 10: rat(1), 13: rat(2)}
        b = {8: rat(1), 10: rat(1), 13: rat(1)}
        assert homothety_solve(a, b, 8) is None

    def test_support_mismatch(self):
        a = {8: rat(1), 10: rat(1)}
        b = {8: rat(1), 11: rat(1)}
        assert homothety_solve(a, b, 8) is None

    def test_equal_maps(self):
        a = {8: rat(1), 10: rat(5), 13: rat(-2)}
        g, w = homothety_solve(a, dict(a), 8)
        assert w == 1 and g == 1  # gcd(2, 5) = 1

    def test_monomial_maps(self):
        assert homothety_solve({8: rat(1)}, {8: rat(1)}, 8) == (1, rat(1))

    def test_even_gaps_fix_square_only(self):
        # all exponent gaps even: only r^2 is pinned down, sign of r is free
        a = {8: rat(1), 10: rat(4), 12: rat(8)}
        b = {8: rat(1), 10: rat(1), 12: rat("1/2")}
        got = homothety_solve(a, b, 8)
        assert got == (2, rat(4))

    def test_inconsistent_even_gaps(self):
        a = {8: rat(1), 10: rat(4), 12: rat(9)}
        b = {8: rat(1), 10: rat(1), 12: rat(1)}
        assert homothety_solve(a, b, 8) is None


# -- the equivalence decision ---------------------------------------------


class TestDecideEquivalence:
    def test_different_semigroups(self):
        v = decide_equivalence(branch(7, {8: 1}), branch(7, {9: 1}))
        assert not v.equivalent and v.reason == "different_gamma"

    def test_different_lambda(self):
        v = decide_equivalence(branch(7, {8: 1, 10: 1}), branch(7, {8: 1, 11: 1}))
        assert not v.equivalent and v.reason == "different_lambda"

    def test_equivalent_after_scrambling(self):
        phi = branch(7, {8: 1, 10: 1, 12: 3})
        ch = CoordChange(r=rat("1/2"), p=bp((0, 1, "1")), q=bp((2, 0, "-2"), (0, 2, "1")))
        img = apply_coordinate_change(phi, ch)
        v = decide_equivalence(phi, img)
        assert v.equivalent and v.reason == "same_normal_form_up_to_homothety"
        assert v.homothety is not None

    def test_free_coefficient_separates(self):
        # same semigroup, same Lambda stratum, but the free coefficients are
        # not related by any homothety
        a = branch(7, {8: 1, 10: 1, 11: 1, 12: 3})
        b = branch(7, {8: 1, 10: 1, 11: 1, 12: 5})
        v = decide_equivalence(a, b)
        assert not v.equivalent and v.reason == "no_homothety"

    def test_verdict_serialization(self):
        phi = branch(7, {8: 1, 10: 1, 12: 3})
        img = apply_coordinate_change(phi, homothety(2))
        v = decide_equivalence(phi, img)
        d = v.to_dict()
        assert d["verdict"] == "equivalent"
        assert d["reason"] == "same_normal_form_up_to_homothety"
        assert set(d["homothety"]) == {"g", "w"}

    def test_monomial_class_members(self):
        v = decide_equivalence(branch(7, {8: 1, 16: 1}), branch(7, {8: 1, 24: "2/3"}))
        assert v.equivalent


# -- elimination-criteria report ------------------------------------------


def ec_applicability(phi, j):
    """Which elimination criteria certify that order j is removable.

    EC1: j is a semigroup value (a q-only change works).
    EC2: j + v0 - v1 is a semigroup value (a p-only change works).
    EC3: j exceeds the Zariski invariant by an element of <v0, v1>.
    EC:  j + v0 lies in Lambda and j is not the invariant itself — the
         umbrella criterion containing the other three.
    """
    if j <= phi.v1:
        raise ValueError(f"criteria apply to orders above v1 = {phi.v1}")
    sg = phi.semigroup
    lam = zariski_invariant(phi)
    lam_vs = lambda_set(phi, "Lambda")
    flags = []
    if sg.contains(j):
        flags.append("EC1")
    if j + phi.v0 - phi.v1 >= 0 and sg.contains(j + phi.v0 - phi.v1):
        flags.append("EC2")
    if lam is not None and j > lam and two_generator_rep(j - lam, phi.v0, phi.v1) is not None:
        flags.append("EC3")
    if lam_vs.contains(j + phi.v0) and j != lam:
        flags.append("EC")
    return flags


class TestECApplicability:
    def test_semigroup_member(self):
        phi = branch(7, {8: 1, 10: 1})
        flags = ec_applicability(phi, 16)
        assert "EC1" in flags and "EC" in flags

    def test_shifted_member(self):
        # 15 + 7 - 8 = 14 = 2*7; 15 itself is also 7+8, so EC1 rides along
        phi = branch(7, {8: 1, 10: 1})
        flags = ec_applicability(phi, 15)
        assert "EC2" in flags and "EC" in flags

    def test_pure_shifted_member(self):
        # 9 is a gap of <7,8> while 9+7-8 = 8 is a generator
        phi = branch(7, {8: 1, 10: 1})
        flags = ec_applicability(phi, 9)
        assert "EC2" in flags and "EC1" not in flags and "EC" in flags

    def test_above_invariant(self):
        phi = branch(7, {8: 1, 10: 1})
        flags = ec_applicability(phi, 17)
        assert "EC3" in flags and "EC" in flags

    def test_umbrella_contains_the_others(self):
        for coeffs, v0 in (({8: 1, 10: 1}, 7), ({9: 1, 10: 1}, 6), ({6: 1, 7: 1}, 4)):
            phi = branch(v0, coeffs)
            for j in range(phi.v1 + 1, phi.semigroup.conductor + 5):
                flags = ec_applicability(phi, j)
                if {"EC1", "EC2", "EC3"} & set(flags):
                    assert "EC" in flags

    def test_invariant_itself_not_umbrella(self):
        phi = branch(7, {8: 1, 10: 1})
        assert "EC" not in ec_applicability(phi, 10)

    def test_rejects_low_order(self):
        phi = branch(7, {8: 1, 10: 1})
        with pytest.raises(ValueError):
            ec_applicability(phi, 8)
