"""Value sets of functions and differentials along a plane branch.

The value of a function h is the t-order of its pullback; the value of a
1-form omega = H dX + G dY is

    v(omega) = ord_t( H(x(t), y(t)) x'(t) + G(x(t), y(t)) y'(t) ) + 1.

Four sets are computed, each with one explicit witness per attained value:

  Gamma        values of functions (the numerical semigroup, re-derived
               analytically and checked against the combinatorial table),
  Lambda       values of all 1-forms,
  Lambda2      values of forms with both components in (X, Y)^2,
  LambdaPrime  values of forms with the dX-component in (X, Y)^2 and the
               dY-component in the ideal (X^2, Y).

Each set is produced by Gaussian elimination over the pulled-back basis
monomials, ordered by leading t-exponent; the combination witnessing each
pivot is carried along.  Everything is exact.  The elimination is
fraction-free: each row is integer numerators over one denominator, and
rationals are rebuilt only for the witnesses it returns (see _eliminate).

The smallest element of Lambda outside Gamma, minus v0, is the Zariski
invariant lambda; branches whose Lambda adds nothing to the semigroup
form the monomial class (equivalent to (t^v0, t^v1)) and get a sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .branch import PuiseuxParam
from .series import AboveTruncation, BiPoly, TSeries, _numerators, bipoly_pullback, rat


class _MonomialClass:
    """Sentinel: the branch has no differential values outside its semigroup."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MonomialClass"

    def __bool__(self):
        return False


MONOMIAL_CLASS = _MonomialClass()


class InternalError(RuntimeError):
    """A theory-backed assertion failed; the computation cannot be trusted."""


@dataclass(frozen=True)
class DifferentialForm:
    """A 1-form H dX + G dY with polynomial components."""

    H: BiPoly
    G: BiPoly

    def in_omega2_sq(self) -> bool:
        return self.H.in_max_ideal_sq() and self.G.in_max_ideal_sq()

    def in_omega_prime(self) -> bool:
        return self.H.in_max_ideal_sq() and self.G.in_ideal_x2_y()

    def to_dict(self) -> dict:
        return {"dX": self.H.to_pairs(), "dY": self.G.to_pairs()}

    @classmethod
    def from_dict(cls, data) -> "DifferentialForm":
        return cls(H=BiPoly.from_pairs(data.get("dX", [])),
                   G=BiPoly.from_pairs(data.get("dY", [])))


class ValueSet:
    """Attained values of one of the four classes, with witnesses.

    ``finite_part`` lists every attained value below ``all_above``;
    everything from ``all_above`` on is attained.  ``witnesses`` maps each
    listed value to a BiPoly (Gamma) or DifferentialForm (Lambda family)
    realizing it; the map extends beyond ``all_above`` up to the
    enumeration window ``decided_to``.
    """

    __slots__ = ("kind", "finite_part", "finite_set", "all_above", "witnesses", "decided_to")

    def __init__(self, kind, finite_part, all_above, witnesses, decided_to):
        self.kind = kind
        self.finite_part = tuple(sorted(finite_part))
        self.finite_set = frozenset(self.finite_part)
        self.all_above = all_above
        self.witnesses = witnesses
        self.decided_to = decided_to
        for w in range(all_above, decided_to + 1):
            if w not in witnesses:
                raise InternalError(
                    f"{kind}: value {w} >= all_above={all_above} was not attained "
                    f"within the decided window [1, {decided_to}]"
                )

    def contains(self, v: int) -> bool:
        if v >= self.all_above:
            return True
        return v in self.finite_set

    __contains__ = contains

    def witness(self, v: int):
        return self.witnesses.get(v)

    def __repr__(self):
        return (
            f"ValueSet({self.kind}, finite={list(self.finite_part)}, "
            f"all_above={self.all_above})"
        )


def value_of_function(phi: PuiseuxParam, h: BiPoly):
    """t-order of the pullback of h; AboveTruncation if it vanishes through N."""
    return bipoly_pullback(h, phi).order()


def value_of_differential(phi: PuiseuxParam, omega: DifferentialForm):
    """ord(pullback(H) x' + pullback(G) y') + 1, the value of H dX + G dY."""
    s = integrand(phi, omega.H, omega.G)
    o = s.order()
    if isinstance(o, int):
        return o + 1
    return AboveTruncation(o.trunc + 1)


def integrand(phi: PuiseuxParam, H: BiPoly, G: BiPoly) -> TSeries:
    """H(x(t), y(t)) x'(t) + G(x(t), y(t)) y'(t), the pullback of H dX + G dY."""
    v0 = phi.v0
    acc = None
    if not H.is_zero():
        acc = bipoly_pullback(H, phi).shift(v0 - 1).scale(v0)
    if not G.is_zero():
        part = bipoly_pullback(G, phi) * phi.y_series().derivative()
        acc = part if acc is None else acc + part
    if acc is None:
        acc = TSeries(phi.trunc)
    return acc


def _y_power(phi: PuiseuxParam, b: int) -> TSeries:
    cache = phi._cache.setdefault("ypow", {0: TSeries.monomial(0, 1, phi.trunc)})
    if b not in cache:
        top = max(cache)
        for k in range(top + 1, b + 1):
            cache[k] = cache[k - 1] * phi.y_series()
    return cache[b]


def _monomial_pullback(phi: PuiseuxParam, a: int, b: int) -> TSeries:
    """Pullback of X^a Y^b: exact shift of a cached y-power (x is t^v0)."""
    return _y_power(phi, b).shift(a * phi.v0)


def _eliminate(rows, lead_cap):
    """Greedy Gaussian elimination by leading exponent, on integer rows.

    ``rows`` is a list of (sort_key, series, wH, wG) with deterministic
    keys; rows are processed by (initial order, key) and reduced against
    the pivots found so far.  Returns {lead: (wH, wG)}, the witness pair of
    the pivot at each lead <= lead_cap.

    Each row is held over one positive integer denominator d: the series
    as the list S of numerators of t**lead, ..., t**(trunc - 1), the two
    witness components as maps H, G from monomial to numerator.  Reducing
    a row against the pivot (P, PH, PG) at its lead replaces X by
    P[0] X - S[0] PX for X in S, H, G and d by d P[0] (signs flipped to
    keep d > 0); zip keeps the shorter of S and P, which cuts the truncation
    to the smaller of the two.  The zeros the step creates at the front of
    S are dropped, and one content gcd of d and all numerators is divided
    out.  Writing pd for the pivot's own denominator, the row then holds

        S/d - (S[0]/d) / (P[0]/pd) * P/pd,

    the rational row minus the multiple of the pivot that clears its lead,
    which is exactly the step of the same elimination over Q.  By induction
    every row equals its rational counterpart at every step, so the leads,
    the rows that vanish and the witnesses H/d, G/d are the same rationals
    as those of the rational loop; only the representation is fraction-free
    (after Bareiss, Math. Comp. 22, 1968), so a step pays one gcd pass per
    row instead of a gcd per coefficient of each scaled and subtracted copy.
    """
    rows = sorted(rows, key=lambda r: (r[1].order_floor(), r[0]))
    pivots = {}
    for _, s, wH, wG in rows:
        if not s.terms:
            continue
        parts = [_numerators(w.terms) for w in (s, wH, wG)]
        d = lcm(*[dx for dx, _ in parts])
        S, H, G = ({k: n * (d // dx) for k, n in X} for dx, X in parts)
        lead = min(S)
        S = [S.get(e, 0) for e in range(lead, s.trunc)]
        while lead <= lead_cap:
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (d, S, H, G)
                break
            _, P, PH, PG = hit
            a, b = P[0], S[0]
            if a < 0:
                a, b = -a, -b
            S = [a * n - b * p for n, p in zip(S, P)]
            for k, n in enumerate(S):
                if n:
                    break
            else:
                break
            S = S[k:]
            lead += k
            H = _combine_rows(H, PH, a, b)
            G = _combine_rows(G, PG, a, b)
            d *= a
            g = gcd(d, *S, *H.values(), *G.values())
            if g != 1:
                d //= g
                S = [n // g for n in S]
                H, G = ({m: n // g for m, n in X.items()} for X in (H, G))
    return {
        lead: (_bipoly_over(H, d), _bipoly_over(G, d))
        for lead, (d, _, H, G) in pivots.items()
    }


def _combine_rows(X, PX, a, b):
    """a X - b PX on integer numerator maps."""
    out = {k: a * n for k, n in X.items()}
    for k, n in PX.items():
        v = out.get(k, 0) - b * n
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _bipoly_over(X, d) -> BiPoly:
    return BiPoly({k: rat(n, d) for k, n in X.items()}, _clean=True)


def _assert_window_filled(kind, values, all_above, decided_to):
    missing = [w for w in range(all_above, decided_to + 1) if w not in values]
    if missing:
        raise InternalError(
            f"{kind}: threshold {all_above} is wrong; {missing[:5]} not attained"
        )


def function_witnesses(phi: PuiseuxParam, top: int) -> dict:
    """{value: polynomial} for every function value <= top along phi.

    The rows are the monomials X^a Y^b of nominal value <= top, their
    pullbacks cut at t**(top + 1); as for form_witnesses, the result is the
    full table restricted to values <= top.
    """
    pivots = _eliminate(_function_rows(phi, top), top)
    return {lead: wH for lead, (wH, _) in pivots.items()}


def _function_rows(phi: PuiseuxParam, top: int) -> list:
    v0, v1 = phi.v0, phi.v1
    rows = []
    for a in range(top // v0 + 1):
        for b in range((top - a * v0) // v1 + 1):
            if a == 0 and b == 0:
                continue
            key = (a * v0 + b * v1, a, b)
            rows.append((key, _monomial_pullback(phi, a, b).truncate(top + 1),
                         BiPoly.monomial(a, b), BiPoly.zero()))
    return rows


def semigroup_of_values(phi: PuiseuxParam) -> ValueSet:
    """Gamma as attained function values, with polynomial witnesses.

    Cross-checked in full against the combinatorial membership table of
    the semigroup derived from the characteristic exponents.
    """
    if "gamma_vs" in phi._cache:
        return phi._cache["gamma_vs"]
    sg = phi.semigroup
    bound = phi.trunc - 1
    values = function_witnesses(phi, bound)
    for w in range(1, bound + 1):
        if sg.contains(w) != (w in values):
            raise InternalError(
                f"function values disagree with the semigroup table at {w}: "
                f"table says {sg.contains(w)}, elimination says {w in values}"
            )
    finite = [w for w in values if w < sg.conductor]
    vs = ValueSet(
        kind="Gamma",
        finite_part=finite,
        all_above=sg.conductor,
        witnesses=values,
        decided_to=bound,
    )
    phi._cache["gamma_vs"] = vs
    return vs


_KIND_FILTERS = {
    "Lambda": {
        "dX": lambda a, b: True,
        "dY": lambda a, b: True,
    },
    "Lambda2": {
        "dX": lambda a, b: a + b >= 2,
        "dY": lambda a, b: a + b >= 2,
    },
    "LambdaPrime": {
        "dX": lambda a, b: a + b >= 2,
        "dY": lambda a, b: a >= 2 or b >= 1,
    },
}


def form_witnesses(phi: PuiseuxParam, kind: str, top: int) -> dict:
    """{value: form} for every value <= top attained in the requested class.

    The rows are the monomial forms X^a Y^b dX / X^a Y^b dY allowed by the
    class, with nominal value <= top, their integrands cut at t**top.
    Elimination processes rows in an order that does not depend on the cap
    and a pivot at lead e only sees coefficients at orders <= e, so the
    witnesses are exactly those of the full set restricted to values <= top.
    """
    pivots = _eliminate(_form_rows(phi, kind, top), top - 1)
    return {lead + 1: DifferentialForm(H=wH, G=wG) for lead, (wH, wG) in pivots.items()}


def _form_rows(phi: PuiseuxParam, kind: str, top: int) -> list:
    v0, v1 = phi.v0, phi.v1
    filt = _KIND_FILTERS[kind]
    yprime = phi.y_series().derivative()
    rows = []
    for a in range(top // v0 + 1):
        for b in range((top - a * v0) // v1 + 1):
            base = a * v0 + b * v1
            if filt["dX"](a, b) and base + v0 <= top:
                integ = _monomial_pullback(phi, a, b).truncate(top - v0 + 1)
                rows.append(((base + v0, a, b, 0), integ.shift(v0 - 1).scale(v0),
                             BiPoly.monomial(a, b), BiPoly.zero()))
            if filt["dY"](a, b) and base + v1 <= top:
                # each factor is cut where the other's order still leaves the
                # product trusted through t**(top - 1)
                integ = (_monomial_pullback(phi, a, b).truncate(top - v1 + 1)
                         * yprime.truncate(top - base))
                rows.append(((base + v1, a, b, 1), integ,
                             BiPoly.zero(), BiPoly.monomial(a, b)))
    return rows


def lambda_set(phi: PuiseuxParam, kind: str = "Lambda") -> ValueSet:
    """Differential value set of the requested class, with form witnesses.

    The witness combinations are produced by elimination over monomial
    forms X^a Y^b dX / X^a Y^b dY filtered by the class constraints; the
    basis is complete for every value decided below the cap c + 2 v0.
    """
    if kind not in _KIND_FILTERS:
        raise ValueError(f"unknown value-set kind {kind!r}")
    cache_key = ("lambda_vs", kind)
    if cache_key in phi._cache:
        return phi._cache[cache_key]
    v0 = phi.v0
    c = phi.semigroup.conductor
    cap = c + 2 * v0
    values = form_witnesses(phi, kind, cap)

    if kind == "Lambda":
        all_above = c
    else:
        # everything from c + v0 on is attained once some differential value
        # escapes the semigroup; the monomial class only guarantees c + 2 v0
        # (realized by X * h running over function values >= c).
        lam = _lambda_gaps(phi)
        all_above = c + v0 if lam else c + 2 * v0
    _assert_window_filled(kind, values, all_above, cap)
    finite = [w for w in values if w < all_above]

    vs = ValueSet(
        kind=kind,
        finite_part=finite,
        all_above=all_above,
        witnesses=values,
        decided_to=cap,
    )
    if kind == "Lambda":
        sg = phi.semigroup
        for w in list(vs.finite_part):
            if sg.contains(w):
                continue
            got = value_of_differential(phi, values[w])
            if got != w:
                raise InternalError(f"witness for differential value {w} attains {got}")
    phi._cache[cache_key] = vs
    return vs


def _lambda_gaps(phi: PuiseuxParam):
    """Sorted differential values outside the semigroup (below the conductor)."""
    key = "lambda_gaps"
    if key not in phi._cache:
        vs = lambda_set(phi, "Lambda")
        sg = phi.semigroup
        phi._cache[key] = tuple(w for w in vs.finite_part if not sg.contains(w))
    return phi._cache[key]


def zariski_invariant(phi: PuiseuxParam):
    """min(Lambda minus Gamma) - v0, or the monomial-class sentinel.

    When the branch is literally in the reduced shape (second y-exponent
    equal to the invariant), the independent formula through the form
    v0 X dY - v1 Y dX is asserted to agree.
    """
    gaps = _lambda_gaps(phi)
    if not gaps:
        return MONOMIAL_CLASS
    lam = gaps[0] - phi.v0
    tail = [e for e in phi.support() if e != phi.v1]
    if tail and tail[0] == lam:
        omega = DifferentialForm(
            H=BiPoly.monomial(0, 1, -phi.v1), G=BiPoly.monomial(1, 0, phi.v0)
        )
        direct = value_of_differential(phi, omega)
        if direct != lam + phi.v0:
            raise InternalError(
                f"Zariski invariant cross-check failed: {direct} != {lam + phi.v0}"
            )
    return lam


def s_sandwich_check(phi: PuiseuxParam) -> dict:
    """The six explicit values S, pinched between Lambda and Lambda2.

    S = {v0, 2v0, v1, v0+v1, 2v1, v0+lambda} consists of differential
    values attained by forms with a linear component.  The difference
    Lambda minus Lambda2 equals S, with two corrections in the regime
    where n1 = 2 and the genus is at least 2, or lambda = 2(v1 - v0):

      * 2 v1 leaves it, because a form with both components in the square
        of the maximal ideal attains 2 v1, so 2 v1 lies in Lambda2 in that
        regime: X^(m1-1) dX when m1 v0 = 2 v1, and X (v0 X dY - v1 Y dX),
        of value 2 v0 + lambda, when lambda = 2(v1 - v0);
      * v1 + lambda joins it (only forms with a linear part reach it, by
        cancellation against Y dY), unless it lies at or above the point
        from which Lambda2 holds every value.

    Everything is verified against the computed sets; any discrepancy
    raises InternalError.
    """
    lam = zariski_invariant(phi)
    if lam is MONOMIAL_CLASS:
        raise ValueError("the sandwich needs a branch outside the monomial class")
    v0, v1 = phi.v0, phi.v1
    big = lambda_set(phi, "Lambda")
    small = lambda_set(phi, "Lambda2")
    S = sorted({v0, 2 * v0, v1, v0 + v1, 2 * v1, v0 + lam})
    if len(S) != 6:
        raise InternalError(f"the six sandwich values collide: {S}")
    diff = [w for w in range(1, small.all_above) if big.contains(w) and not small.contains(w)]
    top = v1 + lam
    n1 = phi.char.n[1]
    genus = phi.char.genus
    special = (n1 == 2 and genus >= 2) or lam == 2 * (v1 - v0)
    top_expected = special and top < small.all_above
    expected = set(S)
    if special:
        expected.discard(2 * v1)
    if top_expected:
        expected.add(top)
    expected = sorted(expected)
    if diff != expected:
        raise InternalError(f"sandwich fails: expected {expected}, computed {diff}")
    has_top = top in diff
    if has_top != top_expected:
        raise InternalError(
            f"top membership {has_top} contradicts n1={n1}, genus={genus}, "
            f"lambda={lam}"
        )
    if special and not small.contains(2 * v1):
        raise InternalError(f"2*v1 = {2 * v1} should be attained in Lambda2 here")
    return {
        "S": S,
        "lambda_minus_lambda2": diff,
        "top_value": top,
        "top_attained": has_top,
        "two_v1_in_lambda2": special,
        "n1": n1,
        "genus": genus,
    }
