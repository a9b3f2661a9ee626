"""Reduction of plane branches to analytic normal forms.

The admissible coordinate changes act as

    X -> r**v0 X + p(X, Y),   Y -> r**v1 Y + q(X, Y),   r != 0,

with p of value > v0 and q of value > v1 along the branch; together with a
reparametrization t -> rho(t) they transform one Puiseux parametrization
into another with the same semigroup.  Applying a change is exact and runs
on integers from the branch's series to the new branch's series: W =
r**v1 y + q(x(t), y(t)) is built on the canonical numerators, and there
are two paths:

  * with p = 0 and r = 1 the new y is W itself;
  * otherwise the new x-coordinate r**v0 t**v0 + p(x(t), y(t)) is written
    as (rho(t))**v0 by a v0-th root of a unit series w (w = 1 and
    rho = r t when p = 0), rho**v1 is (r t)**v1 w**(v1/v0) by the same
    recurrence, and the new y-coefficients are obtained by a triangular
    solve against the powers of rho.  The remainder and the current power
    of rho are integer numerator lists over one denominator each, clearing
    an order is the same row step as in the value-set elimination
    (``series._clear_lead``), and the solved coefficients are collected as
    numerators over one denominator.

The result goes to the branch constructor as a TSeries, so no rational is
built on the way.

Term elimination pairs each eliminable order k with a differential form:
a form H dX + G dY of value k + v0 (with the appropriate component
constraints) yields the one-parameter family p = -s G, q = s H whose
effect on the coefficient of t**k is affine in s with nonzero slope, so a
single division by the first-order slope finds the parameter that kills
the term, and one application of the change removes it.  The slope is
one coefficient of the form's integrand.  Every recipe takes this path;
the result is checked exactly, so a response that was not affine would
raise InternalError.  The form is chosen so that everything below k is
provably untouched (function values of H and G give an explicit
pollution threshold); when no such form exists — as for the
order v1 + lambda - v0, and some orders above it, when n1 = 2 and the
genus is at least 2 — the spill below k lands on semigroup orders and is
restored by the same machinery, all sub-steps being composed into a
single logged change.

Two branches are analytically equivalent iff their normal forms agree up
to the residual homothety scaling a_i -> r**(i - v1) a_i, which is decided
exactly by a gcd/Bezout computation on the coefficient ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .branch import PuiseuxParam
from .semigroup import two_generator_rep
from .series import (
    AboveTruncation,
    BiPoly,
    R0,
    R1,
    TSeries,
    _clear_lead,
    _read_rat,
    bipoly_pullback,
    rat,
    series_root_unit,
)
from .valuation import (
    DifferentialForm,
    InternalError,
    form_witnesses,
    function_witnesses,
    integrand,
    lambda_set,
    semigroup_of_values,
    value_of_function,
    zariski_invariant,
)


@dataclass(frozen=True)
class CoordChange:
    """One admissible change (r, p, q); the identity is (1, 0, 0)."""

    r: object
    p: BiPoly
    q: BiPoly

    def to_dict(self) -> dict:
        return {"r": str(self.r), "p": self.p.to_pairs(), "q": self.q.to_pairs()}

    @classmethod
    def from_dict(cls, data) -> "CoordChange":
        if "r" not in data:
            raise ValueError(f"coordinate change {data!r} lacks 'r'")
        return cls(
            r=_read_rat(data["r"], "r"),
            p=BiPoly.from_pairs(data.get("p", [])),
            q=BiPoly.from_pairs(data.get("q", [])),
        )


def compose_changes(first: CoordChange, second: CoordChange, v0: int, v1: int) -> CoordChange:
    """The single change equivalent to applying ``first`` then ``second``."""
    r1v0 = rat(first.r) ** v0
    r1v1 = rat(first.r) ** v1
    sx = BiPoly.monomial(1, 0, r1v0) + first.p
    sy = BiPoly.monomial(0, 1, r1v1) + first.q
    r2 = rat(second.r)
    return CoordChange(
        r=rat(first.r) * r2,
        p=first.p.scale(r2**v0) + second.p.substitute(sx, sy),
        q=first.q.scale(r2**v1) + second.q.substitute(sx, sy),
    )


def _times_rho(P, dP, rho_nums, d_rho):
    """(P/dP) * rho at orders e + 1 .. N - 1, for P over orders e .. N - 1.

    rho_nums are the sorted (exponent, numerator) pairs of rho over d_rho,
    all exponents >= 1; one capped convolution and one content gcd.
    """
    n = len(P) - 1
    Q = [0] * n
    for i, p in enumerate(P):
        if p:
            for k, c in rho_nums:
                j = i + k - 1
                if j >= n:
                    break
                Q[j] += p * c
    d = dP * d_rho
    g = gcd(d, *Q)
    if g != 1:
        d //= g
        Q = [q // g for q in Q]
    return Q, d


def apply_coordinate_change(phi: PuiseuxParam, ch: CoordChange) -> PuiseuxParam:
    """Transform the parametrization by an admissible change, exactly.

    The output is trusted through the same truncation order N as the
    input: the reparametrization rho has order 1, so the unknown tail of
    y enters the solved coefficients only at orders >= N.  The leading
    coefficient and the semigroup are asserted to be preserved, the
    semigroup by the characteristic exponents beta.  For a plane branch
    beta and the semigroup generators determine each other (Zariski): the
    generators are a function of beta, and ``char_exponents_from_generators``
    inverts it, so equal beta is exactly equal generators.
    """
    v0, v1, N = phi.v0, phi.v1, phi.trunc
    r = rat(ch.r)
    if r == 0:
        raise ValueError("the scaling r of a coordinate change must be nonzero")
    pt = bipoly_pullback(ch.p, phi).truncate(N)
    qt = bipoly_pullback(ch.q, phi).truncate(N)
    if not pt.is_zero() and pt.order() <= v0:
        raise ValueError(f"p must have value > v0 = {v0} along the branch")
    if not qt.is_zero() and qt.order() <= v1:
        raise ValueError(f"q must have value > v1 = {v1} along the branch")

    W = phi.y if r == 1 else phi.y.scale(r**v1)
    if not qt.is_zero():
        W = W + qt
    if pt.is_zero() and r == 1:
        y = W
    else:
        # x becomes r**v0 t**v0 (1 + pt / (r**v0 t**v0)) = rho**v0
        w = TSeries.monomial(0, 1, N - v0) + pt.shift(-v0).scale(1 / r**v0)
        rho = series_root_unit(w, v0).shift(1).scale(r)  # order 1, lead r
        if not W.is_zero() and W.order() < v1:
            raise InternalError("transformed y acquired terms below v1")
        # R = W - sum of the solved c_e rho**e and P = rho**e, as numerator
        # lists over orders e .. N - 1, each over one denominator; rho**v1
        # is (r t)**v1 w**(v1/v0), leading coefficient r**e at t**e throughout
        Pt = series_root_unit(w, v0, v1).shift(v1).scale(r**v1).truncate(N)
        R, dR = [W.nums.get(e, 0) for e in range(v1, N)], W.den
        P, dP = [Pt.nums.get(e, 0) for e in range(v1, N)], Pt.den
        rho_nums, d_rho = sorted(rho.nums.items()), rho.den
        # the solved c_e = (b dP) / (dR a), each in lowest terms, as
        # numerators over the lcm of their denominators
        solved = []
        for e in range(v1, N):
            b, a = R[0], P[0]
            if b and a:
                num, den = b * dP, dR * a
                if den < 0:
                    num, den = -num, -den
                g = gcd(num, den)
                solved.append((e, num // g, den // g))
                R, dR = _clear_lead(R, dR, P)
            if R[0]:
                raise InternalError(f"triangular solve left a residual term at t^{e}")
            R = R[1:]
            if R:
                P, dP = _times_rho(P, dP, rho_nums, d_rho)
        L = lcm(*[den for _, _, den in solved])
        y = TSeries._over(N, L, {e: num * (L // den) for e, num, den in solved})

    out = PuiseuxParam(v0, y, extra=phi.extra, label=phi.label)
    if out.lead_rescale is not None:
        raise InternalError("coordinate change disturbed the leading coefficient")
    if out.char.beta != phi.char.beta:
        raise InternalError(
            f"coordinate change altered the semigroup: "
            f"{phi.char.generators} -> {out.char.generators}"
        )
    return out


# -- term elimination ---------------------------------------------------


@dataclass(frozen=True)
class _Recipe:
    """One-parameter family of changes killing a target order."""

    name: str  # EC1 | EC2 | witness | special
    p_gen: BiPoly  # p = s * p_gen
    q_gen: BiPoly  # q = s * q_gen
    safe: bool  # provably no effect below the target order
    threshold: object = None  # first order where parameter-degree >= 2 may act


def _gamma_witness(phi: PuiseuxParam, w: int) -> BiPoly:
    """A polynomial of exact value w along phi (w in the semigroup).

    The semigroup is an analytic invariant, cross-checked once per
    reduction; here only the elimination up to w is run.
    """
    rep = two_generator_rep(w, phi.v0, phi.v1)
    if rep is not None:
        return BiPoly.monomial(*rep)
    h = function_witnesses(phi, w).get(w)
    if h is None:
        raise InternalError(f"no function witness for semigroup value {w}")
    return h


def _witness_threshold(phi: PuiseuxParam, H: BiPoly, G: BiPoly):
    """First t-order that parameter-degree >= 2 terms can reach, or None.

    The family p = -s G, q = s H is affine in s through every order below
    this threshold: quadratic contributions come from the square of the
    reparametrization correction acting on y (order v1 + 2(v(G) - v0)) or
    from its interaction with q (order v(H) + v(G) - v0).
    """
    def val(poly):
        if poly.is_zero():
            return None
        v = value_of_function(phi, poly)
        return None if isinstance(v, AboveTruncation) else v

    vG = val(G)
    vH = val(H)
    cands = []
    if vG is not None:
        cands.append(phi.v1 + 2 * (vG - phi.v0))
        if vH is not None:
            cands.append(vH + vG - phi.v0)
    return min(cands) if cands else None


def _witness_recipe(phi: PuiseuxParam, om: DifferentialForm, k: int, name="witness") -> _Recipe:
    thr = _witness_threshold(phi, om.H, om.G)
    return _Recipe(
        name=name,
        p_gen=-om.G,
        q_gen=om.H,
        safe=thr is None or thr > k,
        threshold=thr,
    )


def _candidate_recipes(phi: PuiseuxParam, k: int, lam):
    """Ordered elimination recipes for the coefficient of t**k.

    Priority: value-k function (q only) -> value-(k+v0-v1) function
    (p only) -> Lambda' witness for k+v0, improved by
    semigroup shifts to push the pollution threshold past k -> the
    explicit form v1 X^(m1-1) dX - v0 Y dY for the one stubborn order of
    the n1 = 2, genus >= 2 stratum.
    """
    v0, v1 = phi.v0, phi.v1
    sg = phi.semigroup
    if sg.contains(k):
        return [
            _Recipe(name="EC1", p_gen=BiPoly.zero(), q_gen=_gamma_witness(phi, k), safe=True)
        ]
    if k + v0 - v1 > 0 and sg.contains(k + v0 - v1):
        return [
            _Recipe(
                name="EC2",
                p_gen=_gamma_witness(phi, k + v0 - v1),
                q_gen=BiPoly.zero(),
                safe=True,
            )
        ]
    out = []
    w = k + v0
    lp = form_witnesses(phi, "LambdaPrime", w)
    variants = []
    base = lp.get(w)
    if base is not None:
        variants.append((0, _witness_recipe(phi, base, k)))
        for g in range(1, w - min(lp) + 1):
            if not sg.contains(g):
                continue
            om = lp.get(w - g)
            if om is None:
                continue
            shift = _gamma_witness(phi, g)
            shifted = DifferentialForm(H=shift * om.H, G=shift * om.G)
            variants.append((g, _witness_recipe(phi, shifted, k)))
        # prefer provably-clean variants with the largest head-room
        variants.sort(
            key=lambda t: (
                not t[1].safe,
                -(t[1].threshold if t[1].threshold is not None else 10**9),
                t[0],
            )
        )
        out.extend(v for _, v in variants)
    if (
        lam is not None
        and phi.char.n[1] == 2
        and phi.char.genus >= 2
        and k == v1 + lam - v0
    ):
        m1 = phi.char.puiseux_pairs[0][1]
        om_star = DifferentialForm(
            H=BiPoly.monomial(m1 - 1, 0, v1), G=BiPoly.monomial(0, 1, -v0)
        )
        out.append(_witness_recipe(phi, om_star, k, name="special"))
    return out


def _affine_slope(phi: PuiseuxParam, recipe: _Recipe, k: int):
    """d/ds of the coefficient of t**k under recipe(s), to first order in s.

    The change moves y by s (H x' + G y') / x' + O(s**2), H dX + G dY =
    q_gen dX - p_gen dY and x' = v0 t**(v0 - 1), so the slope is one
    coefficient of ``integrand``.  Only EC1 (no dY part, window N + v0 - 1)
    runs at orders in the semigroup; the rest run at k < c < N - 1.
    """
    v0 = phi.v0
    return integrand(phi, recipe.q_gen, -recipe.p_gen).coeff(k + v0 - 1) / v0


def _solve_step(phi: PuiseuxParam, recipe: _Recipe, k: int, target):
    """Find s with coefficient_k(phi after recipe(s)) = target; apply it.

    One path for every recipe: s = (target - a_k) / slope, with the
    first-order slope read off the recipe's form, then a single
    application of the change.  A safe recipe has its pollution threshold
    above k, which proves the response affine there; for an unsafe recipe
    affinity at k is not proven, and the exact check on the result is what
    guards it.  For safe recipes the jet below k is checked to be
    untouched; the spill of an unsafe recipe is repaired by the cleanup in
    ``eliminate_term``.
    """
    slope = _affine_slope(phi, recipe, k)
    if slope == 0:
        raise InternalError(
            f"recipe {recipe.name} for order {k} is ineffective (zero slope)"
        )
    s = (target - phi.coeff(k)) / slope
    ch = CoordChange(r=R1, p=recipe.p_gen.scale(s), q=recipe.q_gen.scale(s))
    out = apply_coordinate_change(phi, ch)
    if out.coeff(k) != target:
        raise InternalError(f"recipe {recipe.name} failed to set order {k} exactly")
    if recipe.safe and out.y.truncate(k) != phi.y.truncate(k):
        a, b = out.terms, phi.terms
        moved = [e for e in sorted(a) if e < k and a[e] != b.get(e)]
        if moved:
            raise InternalError(
                f"recipe {recipe.name} (threshold {recipe.threshold}) "
                f"disturbed the jet at order {moved[0]} < {k}"
            )
        e = min(e for e in b if e < k and e not in a)
        raise InternalError(f"recipe {recipe.name} erased the jet at order {e} < {k}")
    return out, ch


_CLEANUP_ROUNDS = 64


def eliminate_term(phi: PuiseuxParam, k: int, lam):
    """Remove the t**k term by one composed admissible change.

    k must be an eliminable order: above v1, different from the Zariski
    invariant, with k + v0 in Lambda.  Returns (new branch, change); the
    change replays bit-identically on the input.  The jet below k and the
    semigroup are preserved (verified, not assumed).

    ``lam`` is ``zariski_invariant(phi)``, None for the monomial class.  It
    is an analytic invariant, so a reduction computes it once for the input
    and passes it to every step.
    """
    if k <= phi.v1:
        raise ValueError(f"order {k} is not above v1 = {phi.v1}")
    if k == lam:
        raise ValueError(f"order {k} is the Zariski invariant; it cannot be removed")
    recipes = _candidate_recipes(phi, k, lam)
    if not recipes:
        raise ValueError(
            f"order {k} is not eliminable: {k + phi.v0} admits no differential witness"
        )
    recipe = recipes[0]
    cur, ch = _solve_step(phi, recipe, k, R0)
    changes = [ch]
    if not recipe.safe:
        ref = phi.terms
        ref.pop(k, None)
        rounds = 0
        while True:
            got = cur.terms
            dirty = sorted(
                e
                for e in got.keys() | ref.keys()
                if phi.v1 < e <= k and got.get(e, R0) != ref.get(e, R0)
            )
            if not dirty:
                break
            rounds += 1
            if rounds > _CLEANUP_ROUNDS:
                raise InternalError(
                    f"cleanup after the unsafe recipe at order {k} did not settle; "
                    f"still dirty at {dirty}"
                )
            e = dirty[0]
            sub = [rc for rc in _candidate_recipes(cur, e, lam) if rc.safe]
            if not sub:
                raise InternalError(
                    f"no clean recipe restores order {e} after the unsafe step at {k}"
                )
            cur, ch_e = _solve_step(cur, sub[0], e, ref.get(e, R0))
            changes.append(ch_e)
    total = changes[0]
    for extra_ch in changes[1:]:
        total = compose_changes(total, extra_ch, phi.v0, phi.v1)
    replay = apply_coordinate_change(phi, total)
    if replay != cur:
        raise InternalError(f"composed change for order {k} does not replay")
    return cur, total


# -- full reduction -----------------------------------------------------


@dataclass
class NormalFormResult:
    normal: PuiseuxParam
    lam: int | None  # None for the monomial class
    lambda_values: object  # ValueSet of the input (invariant, so also of normal)
    change_log: list = field(default_factory=list)
    free_exponents: list = field(default_factory=list)
    dimension_bound: int = 0

    def changes_as_dicts(self):
        return [ch.to_dict() for ch in self.change_log]


def _eligible(work: PuiseuxParam, lam, lam_vs):
    for e in work.support():
        if e == work.v1:
            continue
        if e == lam:
            continue
        if lam_vs.contains(e + work.v0):
            yield e


def to_normal_form(phi: PuiseuxParam) -> NormalFormResult:
    """Reduce to the normal form: support v1, lambda, then only orders
    whose shift by v0 escapes Lambda.

    Each pass removes the smallest eliminable support order above v1 (the
    reduction never needs to look at or move the lambda term).  The
    lambda coefficient is left as found — it is not an invariant of the
    branch, only its orbit under the residual homotheties matters.
    Lambda-stability of the reduction is verified at the end.

    An InternalError raised on the way leaves a repro on the exception,
    ``exc.repro``: the input branch and the change log so far as JSON
    (``to_dict``), and k, the order whose step failed (None outside a
    step).  Replaying the changes on the branch rebuilds the step's input.
    """
    log = []
    k = None
    try:
        lam_vs = lambda_set(phi, "Lambda")
        semigroup_of_values(phi)  # cross-validates the analytic semigroup
        lam = zariski_invariant(phi)
        work = phi
        last = phi.v1
        while True:
            elig = sorted(_eligible(work, lam, lam_vs))
            if not elig:
                break
            k = elig[0]
            if k <= last:
                raise InternalError(f"reduction is not advancing: {k} after {last}")
            last = k
            work, ch = eliminate_term(work, k, lam)
            log.append(ch)
            k = None

        if lam is None:
            if work.support() != [phi.v1]:
                raise InternalError(
                    f"monomial class should reduce to a single term, got {work.support()}"
                )
            free = []
        else:
            if lam not in work.y.nums:
                raise InternalError(f"normal form lost its t^{lam} term")
            for e in work.support():
                if e in (phi.v1, lam):
                    continue
                if lam_vs.contains(e + phi.v0):
                    raise InternalError(f"normal form kept eliminable order {e}")
                if e <= lam:
                    raise InternalError(f"normal form kept order {e} below the invariant")
            free = [
                e
                for e in range(lam + 1, phi.semigroup.conductor)
                if not lam_vs.contains(e + phi.v0)
            ]
        stable = lambda_set(work, "Lambda")
        if (
            stable.finite_part != lam_vs.finite_part
            or stable.all_above != lam_vs.all_above
        ):
            raise InternalError("reduction changed the differential value set")
    except InternalError as exc:
        exc.repro = {
            "branch": phi.to_dict(),
            "changes": [ch.to_dict() for ch in log],
            "k": k,
        }
        raise
    return NormalFormResult(
        normal=work,
        lam=lam,
        lambda_values=lam_vs,
        change_log=log,
        free_exponents=free,
        dimension_bound=len(free),
    )


# -- homothety and equivalence ------------------------------------------


def _ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def homothety_solve(terms_a, terms_b, v1: int):
    """Does some r give a_i = r**(i - v1) * b_i for all i?

    Input maps must share the support (including the leading term).  The
    answer is returned as (g, w) where g is the gcd of the exponent
    differences i - v1 and w is the common value r**g: a solution r
    exists iff every ratio a_i / b_i equals w**((i - v1)/g), and then the
    admissible r are exactly the g-th roots of w.  For equal maps this
    yields (g, 1); with no terms beyond v1 there is no constraint and the
    conventional (1, 1) is returned.
    """
    sa, sb = sorted(terms_a), sorted(terms_b)
    if sa != sb:
        return None
    pairs = []
    for e in sa:
        if e == v1:
            if terms_a[e] != terms_b[e]:
                return None
            continue
        pairs.append((e - v1, rat(terms_a[e]) / rat(terms_b[e])))
    if not pairs:
        return (1, R1)
    g = 0
    coeffs = []
    for d, _ in pairs:
        g, x, y = _ext_gcd(g, d)
        coeffs = [c * x for c in coeffs] + [y]
    w = R1
    for (d, c), u in zip(pairs, coeffs):
        w = w * c**u
    for d, c in pairs:
        if c != w ** (d // g):
            return None
    return (g, w)


@dataclass(frozen=True)
class EquivVerdict:
    equivalent: bool
    reason: str  # same_normal_form_up_to_homothety | different_gamma |
    #              different_lambda | no_homothety
    homothety: object = None  # (g, w) when equivalent

    def to_dict(self) -> dict:
        out = {
            "verdict": "equivalent" if self.equivalent else "not_equivalent",
            "reason": self.reason,
        }
        if self.homothety is not None:
            g, w = self.homothety
            out["homothety"] = {"g": g, "w": str(w)}
        return out


def decide_equivalence(
    phi1: PuiseuxParam, phi2: PuiseuxParam, normal_forms=None
) -> EquivVerdict:
    """Analytic equivalence via invariants, then normal forms.

    Cheap discrete invariants first (semigroup, then the differential
    value set); if both agree the normal forms are computed and compared
    up to the residual homothety.  A caller that already holds
    ``to_normal_form(phi1)`` and ``to_normal_form(phi2)`` passes them as
    ``normal_forms`` so they are not computed again.
    """
    if phi1.semigroup.generators != phi2.semigroup.generators:
        return EquivVerdict(equivalent=False, reason="different_gamma")
    l1 = lambda_set(phi1, "Lambda")
    l2 = lambda_set(phi2, "Lambda")
    if l1.finite_part != l2.finite_part or l1.all_above != l2.all_above:
        return EquivVerdict(equivalent=False, reason="different_lambda")
    if normal_forms is None:
        normal_forms = (to_normal_form(phi1), to_normal_form(phi2))
    nf1, nf2 = normal_forms
    witness = homothety_solve(nf1.normal.terms, nf2.normal.terms, phi1.v1)
    if witness is None:
        return EquivVerdict(equivalent=False, reason="no_homothety")
    return EquivVerdict(
        equivalent=True,
        reason="same_normal_form_up_to_homothety",
        homothety=witness,
    )

