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
monomials, ordered by leading t-exponent, with the combination witnessing
each pivot.  The class constraints are written once, as the monomial
filters of ``_KIND_FILTERS`` that choose the rows, so every witness lies in
its class by construction.  Everything is exact.  The elimination is fraction-free: each
row is integer numerators over one denominator and carries no witness;
each step records its rational factor, and the witnesses of the pivots
alone are rebuilt from those factors once the rows are reduced (see
_eliminate).

Every pullback reads the branch's ladder of powers of y, ``phi.y_power``:
X^a Y^b is t^(a v0) y^b, X^a Y^b dX pulls back to v0 t^((a+1) v0 - 1) y^b
and X^a Y^b dY to t^(a v0) y^b y' = t^(a v0) (y^(b+1))' / (b + 1), so a
row or an integrand is a sum of shifted rungs or rung derivatives and
multiplies no series (``_form_pullback``).  Of the value sets
only Lambda is memoised on the branch: the Lambda2 and LambdaPrime
thresholds and the Zariski invariant all read it, and callers ask for
each of those once per branch.

The smallest element of Lambda outside Gamma (``differential_gaps``),
minus v0, is the Zariski invariant lambda.  Branches whose Lambda adds
nothing to the semigroup form the monomial class (equivalent to
(t^v0, t^v1)); their lambda is None, which ``MONOMIAL_CLASS`` names.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .branch import PuiseuxParam
from .series import (
    AboveTruncation,
    BiPoly,
    TSeries,
    _clear_lead,
    _numerators,
    _sum_rungs,
    bipoly_pullback,
    rat,
)


MONOMIAL_CLASS = None  # lambda of a branch whose Lambda adds nothing to Gamma


class InternalError(RuntimeError):
    """A theory-backed assertion failed; the computation cannot be trusted.

    ``repro`` is None, or a JSON-ready record that replays the failure;
    ``normalform.to_normal_form`` sets it for a failed reduction.
    """

    repro = None


@dataclass(frozen=True)
class DifferentialForm:
    """A 1-form H dX + G dY with polynomial components."""

    H: BiPoly
    G: BiPoly

    def to_dict(self) -> dict:
        return {"dX": self.H.to_pairs(), "dY": self.G.to_pairs()}


class ValueSet:
    """Attained values of one of the four classes, with witnesses.

    ``finite_part`` lists every attained value below ``all_above``;
    everything from ``all_above`` on is attained.  ``witnesses`` maps each
    listed value to a BiPoly (Gamma) or DifferentialForm (Lambda family)
    realizing it; the map extends beyond ``all_above`` up to the
    enumeration window ``decided_to``.  The constructor checks that window:
    a value in [all_above, decided_to] without a witness raises InternalError.
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
    o = integrand(phi, omega.H, omega.G).order()
    return o + 1 if isinstance(o, int) else AboveTruncation(o.trunc + 1)


def integrand(phi: PuiseuxParam, H: BiPoly, G: BiPoly) -> TSeries:
    """H(x(t), y(t)) x'(t) + G(x(t), y(t)) y'(t), the pullback of H dX + G dY."""
    return _form_pullback(phi, H, G)


def _form_pullback(phi: PuiseuxParam, H: BiPoly, G: BiPoly, cut=None) -> TSeries:
    """The integrand of H dX + G dY in one ``_sum_rungs`` pass, cut at cut.

    A rung is exact below N and its derivative below N - 1, so the integrand
    is trusted below N - 1 once G != 0, below N + v0 - 1 for H alone and
    below N for the zero form.  Terms of order >= the cut grow no rung.
    """
    v0, v1, N = phi.v0, phi.v1, phi.trunc
    trunc = N - 1 if G.terms else N + v0 - 1 if H.terms else N
    if cut is not None:
        trunc = min(trunc, cut)
    parts = [((a + 1) * v0 - 1, phi.y_power(b), c * v0, False)
             for (a, b), c in H.terms.items() if (a + 1) * v0 + b * v1 - 1 < trunc]
    parts += [(a * v0, phi.y_power(b + 1), c / (b + 1), True)
              for (a, b), c in G.terms.items() if a * v0 + (b + 1) * v1 - 1 < trunc]
    return _sum_rungs(parts, trunc)


def _eliminate(rows, lead_cap):
    """Greedy Gaussian elimination by leading exponent, on integer rows.

    ``rows`` is a list of (sort_key, series, wH, wG) with deterministic
    keys; rows are processed by (initial order, key) and reduced against
    the pivots found so far.  Returns {lead: (wH, wG)}, the witness pair of
    the pivot at each lead <= lead_cap, in the order the pivots were found.

    A row is its series alone, held over one positive integer denominator
    d as the list S of numerators of t**lead, ..., t**(trunc - 1).  Reducing
    it against the pivot P (over pd) at its lead is the fraction-free step
    ``series._clear_lead``: P[0] S - S[0] P over d P[0], one content gcd,
    zip cutting the truncation to the smaller of the two; the zeros the
    step creates at the front of S are then dropped.  The row then holds

        S/d - f * P/pd,   f = (S[0]/d) / (P[0]/pd),

    the rational row minus the multiple of the pivot that clears its lead,
    which is exactly the step of the same elimination over Q.  By induction
    every row equals its rational counterpart at every step, so the leads
    and the rows that vanish are those of the rational loop; only the
    representation is fraction-free (after Bareiss, Math. Comp. 22, 1968).

    Witnesses are not carried along.  Over Q a row's witness starts at its
    own (wH, wG) and each step subtracts f times the pivot's witness, so
    once the row stops it is (wH, wG) - sum f_i W(pivot_i).  That depends
    only on the rational factors f_i and on the pivots' own witnesses, not
    on how the integer rows happen to be scaled.  Each step therefore only
    records the pivot's lead, S[0] and d; when the loop is done, the
    witness of every pivot is rebuilt from its recorded steps, in the order
    the pivots were found, so each pivot it refers to is already built.
    The results are the same rationals as those of the rational loop, and
    rows that vanish or whose lead passes lead_cap do no witness work.
    """
    rows = sorted(rows, key=lambda r: (r[1].order_floor(), r[0]))
    pivots = {}
    for _, s, wH, wG in rows:
        if s.is_zero():
            continue
        d = s.den
        lead = s.order()
        S = [s.nums.get(e, 0) for e in range(lead, s.trunc)]
        steps = []
        while lead <= lead_cap:
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (d, S, wH, wG, steps)
                break
            steps.append((lead, S[0], d))
            S, d = _clear_lead(S, d, hit[1])
            for k, n in enumerate(S):
                if n:
                    break
            else:
                break
            S = S[k:]
            lead += k
    built = {}
    for lead, (_, _, wH, wG, steps) in pivots.items():
        # the witness is (wH, wG) - sum f PW over its steps, f = fn / m and
        # PW = PX / PD, summed over L = lcm of all the denominators; both
        # components share one map, keyed (component, monomial)
        parts = [_numerators(w.terms) for w in (wH, wG)]
        terms = []
        for plead, b, d in steps:
            pd, P = pivots[plead][:2]
            PD, PX = built[plead]
            fn, m = b * pd, d * P[0]  # f = (b/d) / (P[0]/pd); m may be < 0
            g = gcd(fn, m)
            terms.append((fn // g, m // g * PD, PX))
        L = lcm(*[dx for dx, _ in parts], *[m for _, m, _ in terms])
        X = {(i, k): n * (L // dx) for i, (dx, part) in enumerate(parts) for k, n in part}
        for fn, m, PX in terms:
            c = fn * (L // m)
            for k, n in PX.items():
                X[k] = X.get(k, 0) - c * n
        g = gcd(L, *X.values())
        built[lead] = (L // g, {k: n // g for k, n in X.items() if n})
    return {lead: _witness_pair(X, D) for lead, (D, X) in built.items()}


def _witness_pair(X, d):
    """(wH, wG) from the numerators X, keyed (component, monomial), over d."""
    H, G = {}, {}
    for (i, k), n in X.items():
        (G if i else H)[k] = rat(n, d)
    return BiPoly(H, _clean=True), BiPoly(G, _clean=True)


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
            rows.append((key, phi.y_power(b).shift(a * v0).truncate(top + 1),
                         BiPoly.monomial(a, b), BiPoly.zero()))
    return rows


def semigroup_of_values(phi: PuiseuxParam) -> ValueSet:
    """Gamma as attained function values, with polynomial witnesses.

    Cross-checked in full against the combinatorial membership table of
    the semigroup derived from the characteristic exponents.
    """
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
    return ValueSet(
        kind="Gamma",
        finite_part=finite,
        all_above=sg.conductor,
        witnesses=values,
        decided_to=bound,
    )


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
    zero = BiPoly.zero()
    rows = []
    for a in range(top // v0 + 1):
        for b in range((top - a * v0) // v1 + 1):
            base = a * v0 + b * v1
            mono = BiPoly.monomial(a, b)
            if filt["dX"](a, b) and base + v0 <= top:
                rows.append(((base + v0, a, b, 0), _form_pullback(phi, mono, zero, top),
                             mono, zero))
            if filt["dY"](a, b) and base + v1 <= top:
                rows.append(((base + v1, a, b, 1), _form_pullback(phi, zero, mono, top),
                             zero, mono))
    return rows


def lambda_set(phi: PuiseuxParam, kind: str = "Lambda") -> ValueSet:
    """Differential value set of the requested class, with form witnesses.

    The witness combinations are produced by elimination over monomial
    forms X^a Y^b dX / X^a Y^b dY filtered by the class constraints; the
    basis is complete for every value decided below the cap c + 2 v0.
    Lambda is computed once per branch and kept on it; the other kinds are
    recomputed on each call.
    """
    if kind not in _KIND_FILTERS:
        raise ValueError(f"unknown value-set kind {kind!r}")
    if kind == "Lambda" and phi._lambda is not None:
        return phi._lambda
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
        lam = differential_gaps(phi)
        all_above = c + v0 if lam else c + 2 * v0
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
        phi._lambda = vs
    return vs


def differential_gaps(phi: PuiseuxParam) -> list:
    """Lambda minus Gamma: the sorted differential values outside the semigroup."""
    sg = phi.semigroup
    return [w for w in lambda_set(phi, "Lambda").finite_part if not sg.contains(w)]


def zariski_invariant(phi: PuiseuxParam) -> int | None:
    """min(Lambda minus Gamma) - v0, or None for the monomial class.

    When the branch is literally in the reduced shape (second y-exponent
    equal to the invariant), the independent formula through the form
    v0 X dY - v1 Y dX is asserted to agree.
    """
    gaps = differential_gaps(phi)
    if not gaps:
        return None
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
    if lam is None:
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
