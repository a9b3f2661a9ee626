"""Exact series arithmetic against independently computed oracles."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from planebranch.branch import PuiseuxParam
from planebranch.series import (
    AboveTruncation,
    BiPoly,
    R0,
    R1,
    TSeries,
    bipoly_pullback,
    rat,
    series_root_unit,
)

from series_oracles import (
    assert_canonical,
    coeffs,
    oracle_pow,
    rational_pullback,
    rational_root_unit,
    series_compose,
    series_inverse_unit,
    series_reversion,
    small_branches,
)


def S(trunc, **kw):
    """Series from keyword exponents: S(10, e8=1, e10='1/2')."""
    return TSeries(trunc, {int(k[1:]): rat(v) for k, v in kw.items()})


def binomial_series_oracle(w, n):
    """(1 + u)**(1/n) via the generalized binomial sum, u = w - 1.

    Independent of the production recurrence: builds powers of u directly
    and sums C(1/n, k) u**k term by term.
    """
    N = w.trunc
    u = w - TSeries.monomial(0, 1, N)
    assert u.order_floor() >= 1
    acc = TSeries.monomial(0, 1, N)
    upow = TSeries.monomial(0, 1, N)
    coeff = R1
    alpha = rat(1, n)
    for k in range(1, N):
        coeff = coeff * (alpha - (k - 1)) / k
        upow = (upow * u).truncate(N)
        if upow.is_zero():
            break
        acc = acc + upow.scale(coeff)
    return acc.truncate(N)


class TestArithmetic:
    def test_hand_convolution(self):
        # (t^8 + t^10)^2 = t^16 + 2 t^18 + t^20
        a = S(30, e8=1, e10=1)
        sq = a * a
        assert sq.terms == {16: rat(1), 18: rat(2), 20: rat(1)}

    def test_add_cancels_to_zero(self):
        a = S(12, e3="2/3", e5=-1)
        b = S(12, e3="-2/3", e5=1)
        assert (a + b).is_zero()
        assert (a - a).is_zero()

    def test_sub_cancels_to_zero(self):
        a = S(12, e3="2/3", e5=-1)
        b = S(9, e3="2/3", e5=-1, e7=4, e10=1)
        assert (a - S(12, e3="2/3", e5=-1)).is_zero()
        assert (b - a).terms == {7: rat(4)} and (b - a).trunc == 9
        assert (a - b).terms == {7: rat(-4)}
        assert a.terms == {3: rat("2/3"), 5: rat(-1)}

    def test_add_sub_mul_operators(self):
        a, b = S(9, e2=1), S(9, e3=4)
        assert (a + b).terms == {2: rat(1), 3: rat(4)}
        assert (a - b).terms == {2: rat(1), 3: rat(-4)}
        assert (a * b).terms == {5: rat(4)}

    def test_product_truncation_is_honest(self):
        # orders add: a = t^3 + O(t^10), b = t^2 + O(t^5) -> trusted to t^7
        a = S(10, e3=1)
        b = S(5, e2=1)
        p = a * b
        assert p.trunc == 8
        assert p.terms == {5: rat(1)}

    def test_scale_and_neg(self):
        a = S(7, e1=3, e4="-1/2")
        assert a.scale("1/3").terms == {1: rat(1), 4: rat("-1/6")}
        assert (-a).terms == {1: rat(-3), 4: rat("1/2")}
        assert a.scale(0).is_zero()

    def test_shift_both_ways(self):
        a = S(9, e4=1, e6=2)
        up = a.shift(3)
        assert up.terms == {7: rat(1), 9: rat(2)} and up.trunc == 12
        down = a.shift(-4)
        assert down.terms == {0: rat(1), 2: rat(2)} and down.trunc == 5
        with pytest.raises(ValueError):
            a.shift(-5)

    def test_derivative(self):
        a = S(9, e0=5, e4=1, e6="1/2")
        assert a.derivative().terms == {3: rat(4), 5: rat(3)}


class TestOrders:
    def test_finite_order(self):
        assert S(20, e5=1, e9=1).order() == 5

    def test_vanishing_gives_marker(self):
        o = TSeries(17).order()
        assert o == AboveTruncation(17)
        assert o != 17
        assert o != 16

    def test_marker_comparisons(self):
        # the true order o is >= 10; None marks an undecidable comparison
        o = AboveTruncation(10)
        assert not (o < 5)
        table = {
            9: (True, True, False, False),
            10: (None, True, False, None),  # o may be exactly 10
            11: (None, None, None, None),
        }
        for n, expected in table.items():
            compares = [lambda: o > n, lambda: o >= n, lambda: o < n, lambda: o <= n]
            for compare, want in zip(compares, expected):
                if want is None:
                    with pytest.raises(ValueError):
                        compare()
                else:
                    assert compare() is want, n

    def test_coeff_beyond_truncation_refuses(self):
        with pytest.raises(ValueError):
            S(5, e2=1).coeff(5)


class TestRootsInversesReversion:
    def test_sqrt_of_one_plus_t(self):
        # (1+t)^{1/2} = 1 + t/2 - t^2/8 + t^3/16 - 5 t^4/128 + ...
        w = S(6, e0=1, e1=1)
        s = series_root_unit(w, 2)
        assert [str(s.coeff(k)) for k in range(5)] == ["1", "1/2", "-1/8", "1/16", "-5/128"]

    def test_root_matches_binomial_oracle(self):
        w = S(14, e0=1, e3="2/5", e5=-1, e7="3/2")
        for n in (2, 3, 7):
            assert series_root_unit(w, n) == binomial_series_oracle(w, n)

    def test_root_power_recovers_input(self):
        w = S(12, e0=1, e2=3, e3="-1/4")
        s = series_root_unit(w, 5)
        p = TSeries.monomial(0, 1, 12)
        for _ in range(5):
            p = (p * s).truncate(12)
        assert p.truncate(12) == w

    def test_root_demands_unit_one(self):
        with pytest.raises(ValueError):
            series_root_unit(S(5, e0=2), 2)
        with pytest.raises(ValueError):
            series_root_unit(S(5, e1=1), 2)

    def test_inverse_unit(self):
        geom = series_inverse_unit(S(8, e0=1, e1=-1))
        assert geom.terms == {k: rat(1) for k in range(8)}
        u = S(9, e0="2/3", e2=1, e5="-7/2")
        prod = u * series_inverse_unit(u)
        assert prod.truncate(9).terms == {0: rat(1)}

    def test_reversion_catalan(self):
        # rev(t + t^2) alternates Catalan numbers: t - t^2 + 2t^3 - 5t^4 + 14t^5 - 42t^6
        r = series_reversion(S(7, e1=1, e2=1))
        assert r.terms == {1: rat(1), 2: rat(-1), 3: rat(2), 4: rat(-5), 5: rat(14), 6: rat(-42)}

    def test_reversion_round_trip(self):
        s = S(11, e1=2, e2="1/3", e4=-1, e7=5)
        r = series_reversion(s)
        back = series_compose(s, r)
        assert back.terms == {1: rat(1)}
        fwd = series_compose(r, s)
        assert fwd.terms == {1: rat(1)}

    def test_reversion_needs_order_one(self):
        with pytest.raises(ValueError):
            series_reversion(S(6, e2=1))


class TestCompose:
    def test_monomial_substitution(self):
        f = S(9, e1=1, e2=1)
        g = S(9, e2=1)
        assert series_compose(f, g).terms == {2: rat(1), 4: rat(1)}

    def test_compose_truncation_window(self):
        # inner trusted to t^5 with order 2: outer t^1-term leaks inner tail at 5
        f = S(20, e1=1)
        g = S(5, e2=1)
        c = series_compose(f, g)
        assert c.trunc == 5
        assert c.terms == {2: rat(1)}

    def test_compose_additivity(self):
        h = S(8, e1=1, e3="1/2")
        f, g = S(8, e2=3), S(8, e1=-1, e5=1)
        lhs = series_compose(f + g, h)
        rhs = series_compose(f, h) + series_compose(g, h)
        n = min(lhs.trunc, rhs.trunc)
        assert lhs.truncate(n) == rhs.truncate(n)


coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def pairwise_product(a, b):
    """Reference product: one rational multiply-add per pair of terms."""
    trunc = min(a.trunc + b.order_floor(), b.trunc + a.order_floor())
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            if e < trunc:
                s = out.get(e, R0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
    return trunc, out


def reference_ops(a, b, f, k, n):
    """(trunc, terms) of every TSeries operation, on plain rational maps."""
    ta, tb = a.terms, b.terms
    both = min(a.trunc, b.trunc)

    def combine(sign):
        out = {e: c for e, c in ta.items() if e < both}
        for e, c in tb.items():
            if e < both:
                out[e] = out.get(e, R0) + sign * c
        return both, {e: c for e, c in out.items() if c != 0}

    return {
        "add": combine(1),
        "sub": combine(-1),
        "mul": pairwise_product(a, b),
        "scale": (a.trunc, {e: c * f for e, c in ta.items() if c * f != 0}),
        "shift": (a.trunc + k, {e + k: c for e, c in ta.items()}),
        "truncate": (min(n, a.trunc), {e: c for e, c in ta.items() if e < n}),
        "derivative": (max(a.trunc - 1, 0), {e - 1: e * c for e, c in ta.items() if e}),
        "neg": (a.trunc, {e: -c for e, c in ta.items()}),
    }


@st.composite
def factors(draw):
    """Two series of unequal truncations, possibly empty, often cancelling.

    With ``mirror`` the second factor is the first at -t plus extra terms,
    so every odd coefficient of a(t) a(-t) cancels.
    """
    trunc = draw(st.integers(0, 16))
    terms = {e: draw(coeffs) for e in draw(st.lists(st.integers(0, 15), max_size=6))}
    a = TSeries(trunc, terms)
    if draw(st.booleans()):
        mirror = {e: -c if e % 2 else c for e, c in terms.items()}
        extra = draw(st.dictionaries(st.integers(0, 15), coeffs, max_size=2))
        b = TSeries(draw(st.integers(0, 16)), {**mirror, **extra})
    else:
        b = draw(small_series(trunc=draw(st.integers(1, 16))))
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def small_series(draw, min_order=0, unit_lead=False, trunc=10):
    terms = {}
    for e in draw(st.lists(st.integers(min_order, trunc - 1), max_size=4)):
        terms[e] = rat(str(draw(coeffs)))
    if unit_lead:
        terms[min_order] = rat(1)
    return TSeries(trunc, terms)


class TestAlgebraProperties:
    @settings(deadline=None, max_examples=60)
    @given(small_series(), small_series(), small_series())
    def test_mul_distributes(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        n = min(lhs.trunc, rhs.trunc)
        assert lhs.truncate(n) == rhs.truncate(n)

    @settings(deadline=None, max_examples=300)
    @given(factors())
    def test_mul_matches_pairwise_product(self, ab):
        a, b = ab
        p = a * b
        trunc, terms = pairwise_product(a, b)
        assert p.trunc == trunc
        assert p.terms == terms
        assert all(type(c) is type(R1) and c != 0 for c in p.terms.values())

    @settings(deadline=None, max_examples=300)
    @given(factors(), coeffs, st.integers(-6, 6), st.integers(0, 18))
    def test_every_op_matches_rational_reference(self, ab, f, k, n):
        a, b = ab
        k = max(k, -a.order_floor())  # a shift down must keep exponents >= 0
        got = {
            "add": a + b,
            "sub": a - b,
            "mul": a * b,
            "scale": a.scale(f),
            "shift": a.shift(k),
            "truncate": a.truncate(n),
            "derivative": a.derivative(),
            "neg": -a,
        }
        for op, (trunc, terms) in reference_ops(a, b, f, k, n).items():
            assert (got[op].trunc, got[op].terms) == (trunc, terms), op
            assert_canonical(got[op])

    @settings(deadline=None, max_examples=120)
    @given(
        st.integers(1, 16).flatmap(lambda t: small_series(unit_lead=True, trunc=t)),
        st.integers(2, 13),
    )
    def test_root_then_power(self, w, n):
        s = series_root_unit(w, n)
        assert_canonical(s)
        assert s == rational_root_unit(w, n)
        p = TSeries.monomial(0, 1, w.trunc)
        for _ in range(n):
            p = (p * s).truncate(w.trunc)
        assert p == w

    @settings(deadline=None, max_examples=120)
    @given(
        st.integers(1, 16).flatmap(lambda t: small_series(unit_lead=True, trunc=t)),
        st.integers(2, 13),
        st.integers(1, 20),
    )
    def test_rational_power_is_power_of_root(self, w, n, m):
        # w**(m/n) by the recurrence equals the m-th power of the n-th root
        s = series_root_unit(w, n, m)
        assert_canonical(s)
        assert s == oracle_pow(series_root_unit(w, n), m, w.trunc)

    @settings(deadline=None, max_examples=40)
    @given(small_series(min_order=2, trunc=9))
    def test_reversion_round_trip_random(self, tail):
        s = TSeries.monomial(1, 1, 9) + tail
        r = series_reversion(s)
        assert series_compose(s, r).terms == {1: rat(1)}


class TestBiPoly:
    def test_sub_cancels_to_zero(self):
        p = BiPoly({(1, 0): "2/3", (0, 2): -1})
        q = BiPoly({(1, 0): "2/3", (0, 2): -1, (2, 1): 4})
        assert (p - BiPoly({(1, 0): "2/3", (0, 2): -1})).is_zero()
        assert (q - p).terms == {(2, 1): rat(4)}
        assert (p - q).terms == {(2, 1): rat(-4)}
        assert p.terms == {(1, 0): rat("2/3"), (0, 2): rat(-1)}

    def test_ring_ops(self):
        p = BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)  # X + Y
        q = BiPoly.monomial(1, 0) - BiPoly.monomial(0, 1)  # X - Y
        assert (p * q).terms == {(2, 0): rat(1), (0, 2): rat(-1)}
        assert (p - p).is_zero()

    def test_pairs_round_trip(self):
        p = BiPoly.from_pairs([[0, 1, "-8"], [1, 0, "7"], [2, 3, "1/2"]])
        assert BiPoly.from_pairs(p.to_pairs()) == p
        assert p.to_pairs() == [[0, 1, "-8"], [1, 0, "7"], [2, 3, "1/2"]]

    @pytest.mark.parametrize(
        "entry",
        [[2.7, 0, "1"], [True, 0, "1"], ["2", 0, "1"], [-1, 0, "1"], [0, 1], [0, 1, "1", "2"]],
        ids=["float", "bool", "string", "negative", "two-items", "four-items"],
    )
    def test_pairs_reject_a_bad_entry(self, entry):
        with pytest.raises(ValueError, match=re.escape(f"bad term {entry!r}: need [degX, degY")):
            BiPoly.from_pairs([[1, 0, "1"], entry])

    def test_substitute(self):
        # (X + Y) o (X = X^2, Y = XY - 1) = X^2 + XY - 1
        p = BiPoly.monomial(1, 0) + BiPoly.monomial(0, 1)
        out = p.substitute(BiPoly.monomial(2, 0), BiPoly.monomial(1, 1) - BiPoly({(0, 0): 1}))
        assert out.terms == {(2, 0): rat(1), (1, 1): rat(1), (0, 0): rat(-1)}


@st.composite
def pullback_polys(draw, phi):
    """Mixed signs and denominators, often a constant term, X-degrees whose
    shift a v0 passes N and Y-degrees whose power vanishes below N."""
    monomials = st.tuples(st.integers(0, phi.trunc // phi.v0 + 2), st.integers(0, 7))
    terms = draw(st.dictionaries(monomials, coeffs, max_size=6))
    if draw(st.booleans()):
        terms[(0, 0)] = draw(coeffs)
    return BiPoly(terms)


class TestPullback:
    def test_xy_on_small_branch(self):
        # x = t^7, y = t^8 + t^10: XY pulls back to t^15 + t^17
        phi = PuiseuxParam(7, {8: 1, 10: 1})
        got = bipoly_pullback(BiPoly.monomial(1, 1), phi)
        assert got.trunc == phi.trunc == 57
        assert got.terms == {15: rat(1), 17: rat(1)}

    def test_pullback_is_ring_map(self):
        phi = PuiseuxParam(4, {6: 1, 7: "1/2"})
        N = phi.trunc
        p = BiPoly.from_pairs([[1, 0, "2"], [0, 2, "1"]])
        q = BiPoly.from_pairs([[1, 1, "-1"], [0, 1, "3"]])
        lhs = bipoly_pullback(p * q, phi)
        rhs = (bipoly_pullback(p, phi) * bipoly_pullback(q, phi)).truncate(N)
        assert lhs == rhs
        lhs2 = bipoly_pullback(p + q, phi)
        rhs2 = bipoly_pullback(p, phi) + bipoly_pullback(q, phi)
        assert lhs2 == rhs2

    def test_zero_and_constant(self):
        phi = PuiseuxParam(5, {7: 1, 9: "-2/3"})
        assert bipoly_pullback(BiPoly.zero(), phi) == TSeries(phi.trunc)
        assert bipoly_pullback(BiPoly({(0, 0): "-3/4"}), phi) == S(phi.trunc, e0="-3/4")

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_matches_rational_pullback(self, data):
        phi = data.draw(small_branches())
        h = data.draw(pullback_polys(phi))
        got = bipoly_pullback(h, phi)
        want = rational_pullback(h, phi)
        assert_canonical(got)
        assert (got.trunc, got.den, got.nums) == (want.trunc, want.den, want.nums)
