"""Semigroup arithmetic against a brute-force sieve oracle."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from planebranch.semigroup import (
    char_data_from_exponents,
    char_exponents_from_generators,
    two_generator_rep,
)


def brute_members(gens, bound):
    """All sums of generators up to bound, by exhaustive BFS (oracle)."""
    reach = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v + g
            if w <= bound and w not in reach:
                reach.add(w)
                frontier.append(w)
    return reach


def conductor_formula(gens) -> int:
    """Closed form sum((n_i - 1) v_i) - v_0 + 1 for plane branch semigroups."""
    v = tuple(gens)
    e = [v[0]]
    for g in v[1:]:
        e.append(math.gcd(e[-1], g))
    total = 0
    for i in range(1, len(v)):
        n_i = e[i - 1] // e[i]
        total += (n_i - 1) * v[i]
    return total - v[0] + 1


@st.composite
def char_exponents(draw):
    """Valid characteristic exponents of genus 1 to 3.

    The gcd chain e_0 > ... > e_g = 1 drops by n_i in 2..4 at each step,
    and beta_i = m_i e_i with m_i prime to n_i, so gcd(e_{i-1}, beta_i)
    is exactly e_i.
    """
    ns = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    e = math.prod(ns)
    beta = [e]
    for n in ns:
        e //= n
        m = beta[-1] // e + draw(st.integers(1, 6))
        while math.gcd(m, n) != 1:
            m += 1
        beta.append(m * e)
    return tuple(beta)


class TestSemigroupTable:
    def test_seven_eight(self):
        s = char_data_from_exponents([7, 8]).semigroup
        assert s.conductor == 42
        members = brute_members([7, 8], 100)
        for v in range(0, 60):
            assert s.contains(v) == ((v in members) or v >= 42)
        assert s.gaps == tuple(v for v in range(1, 42) if v not in members)
        assert len(s.gaps) == 21  # symmetric: half of the conductor

    def test_six_nine_nineteen(self):
        s = char_data_from_exponents([6, 9, 10]).semigroup
        assert s.generators == (6, 9, 19)
        assert s.conductor == 42
        members = brute_members([6, 9, 19], 100)
        for v in range(0, 60):
            assert s.contains(v) == ((v in members) or v >= 42)

    def test_membership_table_covers_required_window(self):
        s = char_data_from_exponents([7, 8]).semigroup
        for v in range(42, 42 + 2 * 7 + 1):
            assert s.contains(v)
        assert not s.contains(-1)

    def test_gaps_above(self):
        s = char_data_from_exponents([7, 8]).semigroup
        members = brute_members([7, 8], 42)
        expected = [v for v in range(11, 42) if v not in members]
        assert [g for g in s.gaps if g > 10] == expected
        assert [g for g in s.gaps if g > 41] == []


class TestCharacteristicExponents:
    def test_spec_families(self):
        assert char_data_from_exponents([7, 8]).generators == (7, 8)
        assert char_data_from_exponents([6, 9, 10]).generators == (6, 9, 19)
        assert char_data_from_exponents([4, 6, 7]).generators == (4, 6, 13)

    def test_genus_three_chain(self):
        beta = (8, 12, 14, 15)
        v = char_data_from_exponents(beta).generators
        assert v == (8, 12, 26, 53)
        assert char_exponents_from_generators(v) == beta
        assert char_data_from_exponents(beta).semigroup.conductor == conductor_formula(v)

    def test_round_trip(self):
        for beta in [(7, 8), (6, 9, 10), (4, 6, 7), (4, 10, 11), (6, 8, 9), (12, 18, 21, 22)]:
            v = char_data_from_exponents(beta).generators
            assert char_exponents_from_generators(v) == tuple(beta)

    def test_conductor_closed_form(self):
        for beta in [(7, 8), (6, 9, 10), (4, 6, 7), (8, 12, 14, 15), (4, 10, 11)]:
            cd = char_data_from_exponents(beta)
            assert cd.semigroup.conductor == conductor_formula(cd.generators)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            char_data_from_exponents([6, 9])  # gcd never reaches 1
        with pytest.raises(ValueError):
            char_data_from_exponents([6, 12, 13])  # no gcd drop at 12
        with pytest.raises(ValueError):
            char_data_from_exponents([1, 2])

    @settings(max_examples=200, deadline=None)
    @given(char_exponents())
    def test_round_trip_on_random_exponents(self, beta):
        cd = char_data_from_exponents(beta)
        v = cd.generators
        assert char_exponents_from_generators(v) == beta
        # the generators of the class are minimal: none is a sum of smaller ones
        for i in range(1, len(v)):
            assert v[i] not in brute_members(v[:i], v[i])
        # the table against a brute-force sieve: c - 1 is the last gap, and
        # v0 members in a row from c on make every larger value a member
        s, c = cd.semigroup, conductor_formula(v)
        members = brute_members(v, c + v[0])
        assert s.conductor == c
        assert c - 1 not in members and all(w in members for w in range(c, c + v[0]))
        assert s.gaps == tuple(w for w in range(1, c) if w not in members)
        assert [w for w in range(-1, c + v[0] + 1) if s.contains(w)] == sorted(members)


class TestPlaneBranchValidation:
    """char_exponents_from_generators accepts exactly the semigroups of
    plane branches, and raises ValueError on anything else."""

    def test_accepts(self):
        for v in [(7, 8), (6, 9, 19), (4, 6, 13), (8, 12, 26, 53), (2, 3), (5, 7)]:
            assert char_data_from_exponents(char_exponents_from_generators(v)).generators == v

    def test_rejects(self):
        for v, reason in [
            ((4, 6), "gcd of all generators must be 1"),
            ((6, 9, 10), "generator v_2 must exceed n_1 \\* v_1"),  # 10 <= 2 * 9
            ((4, 5, 6), "gcd chain must drop strictly"),  # chain hits 1 early
            ((1, 2), "multiplicity must be >= 2"),
            ((7, 7), "generators must increase strictly"),
            ((), "multiplicity must be >= 2"),
        ]:
            with pytest.raises(ValueError, match="not a plane branch semigroup: " + reason):
                char_exponents_from_generators(v)

    def test_single_generator(self):
        # <1> is the smooth branch's semigroup, and <3> has gcd 3
        with pytest.raises(ValueError, match="multiplicity must be >= 2"):
            char_exponents_from_generators((1,))
        with pytest.raises(ValueError, match="gcd of all generators must be 1"):
            char_exponents_from_generators((3,))


class TestTwoGeneratorRep:
    def test_examples(self):
        assert two_generator_rep(19, 6, 9) is None
        assert two_generator_rep(24, 6, 9) == (4, 0)
        assert two_generator_rep(33, 6, 9) == (4, 1)
        assert two_generator_rep(0, 7, 8) == (0, 0)
        assert two_generator_rep(15, 7, 8) == (1, 1)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 200))
    def test_against_membership(self, w):
        members = brute_members([7, 8], 200)
        rep = two_generator_rep(w, 7, 8)
        assert (rep is not None) == (w in members)
        if rep is not None:
            a, b = rep
            assert a >= 0 and b >= 0 and a * 7 + b * 8 == w


class TestBranchConstruction:
    def test_basic_invariants(self):
        from planebranch.branch import PuiseuxParam

        phi = PuiseuxParam(6, {9: 1, 10: 1, 11: "1/2"})
        assert phi.char.beta == (6, 9, 10)
        assert phi.semigroup.generators == (6, 9, 19)
        assert phi.char.genus == 2
        assert phi.char.puiseux_pairs == ((2, 3), (3, 10))
        assert phi.trunc == 42 + 12 + 1
        y = phi.y
        N = phi.trunc
        assert phi.y_power(0).terms == {0: 1} and phi.y_power(0).trunc == N
        assert phi.y_power(1) == y
        assert phi.y_power(3) == (y * y * y).truncate(N)

    def test_lead_rescale(self):
        from planebranch.branch import PuiseuxParam
        from planebranch.series import rat

        phi = PuiseuxParam(7, {8: 3, 10: 6})
        assert phi.lead_rescale == rat(3)
        assert phi.coeff(8) == 1 and phi.coeff(10) == rat(2)

    def test_series_input_matches_dict_input(self):
        from planebranch.branch import PuiseuxParam
        from planebranch.series import TSeries, rat

        for terms in ({8: 1, 10: "1/2"}, {8: "-2/3", 10: 4, 13: "5/7"}, {8: 3, 90: 1}):
            want = PuiseuxParam(7, terms)
            for trunc in (want.trunc - 3, want.trunc, want.trunc + 40):
                got = PuiseuxParam(7, TSeries(trunc, {e: rat(c) for e, c in terms.items()}))
                assert got == want and got.lead_rescale == want.lead_rescale
                assert got.y.trunc == got.trunc and got.y.den > 0
        # a canonical series cut at N with lead 1 is kept as it is
        phi = PuiseuxParam(7, {8: 1, 10: "1/2"})
        assert PuiseuxParam(7, phi.y).y is phi.y

    def test_far_terms_are_cut_after_char_data(self):
        from planebranch.branch import PuiseuxParam

        # the t^200 term is beyond reach of N but must not be able to hide
        # a characteristic exponent; with gcd already 1 it is just dropped.
        phi = PuiseuxParam(7, {8: 1, 200: 5})
        assert phi.support() == [8]
        assert phi.trunc == 42 + 14 + 1

    def test_rejects_bad_input(self):
        from planebranch.branch import BranchInputError, PuiseuxParam

        with pytest.raises(BranchInputError):
            PuiseuxParam(6, {9: 1})  # gcd(6, 9) = 3: not primitive
        with pytest.raises(BranchInputError):
            PuiseuxParam(4, {8: 1, 10: 1})  # v0 divides v1
        with pytest.raises(BranchInputError):
            PuiseuxParam(4, {3: 1})  # v1 below v0
        with pytest.raises(BranchInputError):
            PuiseuxParam(1, {2: 1})
        with pytest.raises(BranchInputError):
            PuiseuxParam(4, {})

    def test_head_room_is_bounded_by_the_working_precision(self):
        from planebranch.branch import BranchInputError, PuiseuxParam

        # c + 2 v0 + 1 = 6 + 6 + 1 for <3, 4>; the bound doubles it at most
        phi = PuiseuxParam(3, {4: 1, 5: 1}, extra=13)
        assert phi.trunc == 26
        for extra in (14, 1000, -1):
            with pytest.raises(BranchInputError, match="between 0 and conductor"):
                PuiseuxParam(3, {4: 1, 5: 1}, extra=extra)

    def test_json_round_trip(self):
        from planebranch.branch import PuiseuxParam

        phi = PuiseuxParam.from_dict({"v0": 7, "terms": [[8, "1"], [10, "1/3"]], "label": "x"})
        assert PuiseuxParam.from_dict(phi.to_dict()) == phi
        assert phi.label == "x"

    def test_characteristic_recovery_from_support(self):
        from planebranch.branch import PuiseuxParam

        # gcd drops 8 -> 4 (at 12) -> 2 (at 14) -> 1 (at 15)
        phi = PuiseuxParam(8, {12: 1, 14: 1, 15: 1, 16: "2/7"})
        assert phi.char.beta == (8, 12, 14, 15)
        assert phi.semigroup.generators == (8, 12, 26, 53)
