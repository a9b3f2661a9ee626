"""Reference implementations of series operations, for tests only.

Most work coefficient by coefficient on the rational ``terms`` of a
``TSeries`` and build their result through the public constructor, so
they share no arithmetic with the integer kernels they are compared
against.  The product formulas (``oracle_pow``, ``product_integrand``,
``product_form_rows``) multiply TSeries instead, which the pullbacks of
1-forms they check no longer do.  The Hypothesis strategies at the end
draw the inputs they are compared on.
"""

from math import gcd

from hypothesis import assume, strategies as st

from planebranch.branch import PuiseuxParam
from planebranch.series import R0, R1, BiPoly, TSeries, rat
from planebranch.valuation import _KIND_FILTERS


def rational_root_unit(w: TSeries, n: int) -> TSeries:
    """The n-th root of w with w(0) = 1, by the recurrence over Q:
    s_k = (1/(n k)) * sum_{0 < d <= k} w_d s_{k-d} (d - n (k - d))."""
    wt = w.terms
    assert wt.get(0) == 1
    N = w.trunc
    s = {0: R1}
    wpos = [(d, c) for d, c in wt.items() if d > 0]
    for k in range(1, N):
        acc = R0
        for d, c in wpos:
            if d <= k:
                sj = s.get(k - d)
                if sj is not None:
                    acc += c * sj * (d - n * (k - d))
        if acc != 0:
            s[k] = acc / (n * k)
    return TSeries(N, s)


def series_inverse_unit(u: TSeries) -> TSeries:
    """Multiplicative inverse of a unit (order-0) series, same truncation."""
    ut = u.terms
    u0 = ut.get(0, R0)
    if u0 == 0:
        raise ValueError("series_inverse_unit needs a nonzero constant term")
    n = u.trunc
    inv = {0: R1 / u0}
    pos = [(e, c) for e, c in ut.items() if 0 < e < n]
    for k in range(1, n):
        acc = R0
        for e, c in pos:
            if e <= k:
                j = inv.get(k - e)
                if j is not None:
                    acc += c * j
        if acc != 0:
            inv[k] = -acc / u0
    return TSeries(n, inv)


def assert_canonical(s):
    """One positive denominator, no common factor, no zero, all below trunc."""
    assert type(s.den) is int and s.den > 0
    assert gcd(s.den, *s.nums.values()) == 1
    assert all(type(n) is int and n != 0 and 0 <= e < s.trunc for e, n in s.nums.items())


def oracle_pow(base: TSeries, n: int, cap: int) -> TSeries:
    """base**n cut at cap, by repeated squaring with truncated products."""
    out = TSeries.monomial(0, 1, cap)
    b = base
    while n:
        if n & 1:
            out = (out * b).truncate(cap)
        n >>= 1
        if n:
            b = (b * b).truncate(cap)
    return out


def _rational_product(a: dict, b: dict, trunc: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 < trunc:
                out[e1 + e2] = out.get(e1 + e2, R0) + c1 * c2
    return out


def rational_pullback(h, phi) -> TSeries:
    """h(t**v0, y(t)) through phi.trunc, term by term over Q.

    Each term c X**a Y**b adds c times the rational power y**b, built by
    products of ``phi.terms``, shifted by a v0.
    """
    N = phi.trunc
    out = {}
    for (a, b), c in h.terms.items():
        power = {0: R1}
        for _ in range(b):
            power = _rational_product(power, phi.terms, N)
        for e, k in power.items():
            e += a * phi.v0
            if e < N:
                out[e] = out.get(e, R0) + c * k
    return TSeries(N, out)


def product_integrand(phi, H, G) -> TSeries:
    """The integrand H* x' + G* y' of H dX + G dY by the product formula.

    H* and G* are the rational pullbacks; H* is shifted by v0 - 1 and
    scaled by v0, G* is multiplied by y', and each part keeps the window
    its operations leave.  The zero form gives the zero series cut at N.
    """
    acc = None
    if H.terms:
        acc = rational_pullback(H, phi).shift(phi.v0 - 1).scale(phi.v0)
    if G.terms:
        part = rational_pullback(G, phi) * phi.y.derivative()
        acc = part if acc is None else acc + part
    return TSeries(phi.trunc) if acc is None else acc


def product_form_rows(phi, kind, top):
    """The rows of ``valuation._form_rows`` by the product formula.

    X^a Y^b dX is v0 t**(v0 - 1) times the shifted rung y**b, and
    X^a Y^b dY the shifted rung times y'; each factor is cut where the
    other's order still leaves the row trusted through t**(top - 1).
    """
    v0, v1 = phi.v0, phi.v1
    filt = _KIND_FILTERS[kind]
    yprime = phi.y.derivative()
    rows = []
    for a in range(top // v0 + 1):
        for b in range((top - a * v0) // v1 + 1):
            base = a * v0 + b * v1
            if filt["dX"](a, b) and base + v0 <= top:
                integ = phi.y_power(b).shift(a * v0).truncate(top - v0 + 1)
                rows.append(((base + v0, a, b, 0), integ.shift(v0 - 1).scale(v0),
                             BiPoly.monomial(a, b), BiPoly.zero()))
            if filt["dY"](a, b) and base + v1 <= top:
                integ = (phi.y_power(b).shift(a * v0).truncate(top - v1 + 1)
                         * yprime.truncate(top - base))
                rows.append(((base + v1, a, b, 1), integ,
                             BiPoly.zero(), BiPoly.monomial(a, b)))
    return rows


def rational_scaling_change(phi, ch):
    """apply_coordinate_change for p = 0, by the rational formula.

    With p = 0 the reparametrization is t -> r t, so the new y is
    W(t / r) for W = r**v1 y + q(x, y): each coefficient c_e of W becomes
    c_e / r**e, one rational power per coefficient.
    """
    assert ch.p.is_zero()
    r = rat(ch.r)
    W = {e: c * r**phi.v1 for e, c in phi.terms.items()}
    for e, c in rational_pullback(ch.q, phi).terms.items():
        W[e] = W.get(e, R0) + c
    rinv = 1 / r
    return PuiseuxParam(
        phi.v0, {e: c * rinv**e for e, c in W.items()}, extra=phi.extra, label=phi.label
    )


def series_reversion(s: TSeries) -> TSeries:
    """Compositional inverse r of s, where s has order exactly 1.

    Lagrange inversion: the u**m coefficient of r is (1/m) [t**(m-1)] (t/s)**m.
    The powers of t/s are built incrementally.  r is trusted through the same
    truncation order as s, since r_m only needs s through order m <= trunc-1.
    """
    if s.order_floor() != 1 or s.is_zero():
        raise ValueError("series_reversion needs order exactly 1")
    N = s.trunc
    t_over_s = TSeries(N - 1, {e - 1: c for e, c in s.terms.items()})
    base = series_inverse_unit(t_over_s).terms  # (t/s), a unit
    out = {}
    power = {0: R1}
    for m in range(1, N):
        power = _rational_product(power, base, N - 1)
        cm = power.get(m - 1, R0)
        if cm != 0:
            out[m] = cm / m
    return TSeries(N, out)


def series_compose(outer: TSeries, inner: TSeries) -> TSeries:
    """outer(inner(t)) for inner of order >= 1, with honest truncation.

    The result is trusted through
      min( trunc(inner) + (k0-1)*ord(inner),  trunc(outer) * ord(inner) )
    where k0 is the smallest exponent of outer: the first bound is where
    inner's tail first leaks in, the second where outer's tail does.
    """
    d = inner.order_floor()
    if d < 1:
        raise ValueError("series_compose needs inner order >= 1")
    ot = outer.terms
    if not ot:
        return TSeries(outer.trunc * d)
    positive = [e for e in ot if e > 0]
    if not positive:
        return TSeries(outer.trunc * d, {0: ot[0]})
    k0 = min(positive)
    trunc = min(inner.trunc + (k0 - 1) * d, outer.trunc * d)
    it = inner.terms
    acc = {}
    power = {0: R1}
    prev_e = 0
    for e in sorted(ot):
        for _ in range(e - prev_e):
            power = _rational_product(power, it, trunc)
        prev_e = e
        for k, c in power.items():
            acc[k] = acc.get(k, R0) + ot[e] * c
    return TSeries(trunc, acc)


coeffs = st.builds(rat, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def small_branches(draw):
    """Primitive branches with v0 3-7 and up to two terms after v1."""
    v0 = draw(st.integers(3, 7))
    v1 = draw(st.integers(v0 + 1, v0 + 4).filter(lambda e: e % v0))
    tail = draw(st.dictionaries(st.integers(v1 + 1, v1 + 9), coeffs.filter(bool), max_size=2))
    assume(gcd(v0, v1, *tail) == 1)
    return PuiseuxParam(v0, {v1: R1, **tail})
