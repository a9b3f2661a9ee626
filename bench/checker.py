"""An independent checker for the benchmark, in plain fractions.Fraction.

It shares no code with planebranch.  A series is a dict exponent -> Fraction
holding every term below a stated bound; a polynomial in X, Y is a dict
(degX, degY) -> Fraction.  A branch is (t**v0, y(t)) with y(t) a polynomial
given as a dict.  Since y is a polynomial, every pullback below is exact
through its bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def series_mul(a: dict, b: dict, n: int) -> dict:
    """The product of two series, through t**(n - 1)."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < n:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def pullback(poly: dict, v0: int, y: dict, n: int) -> dict:
    """poly(t**v0, y(t)) through t**(n - 1)."""
    out = {}
    ypow = {0: Fraction(1)}
    degree = 0
    for (a, b), c in sorted(poly.items(), key=lambda item: item[0][1]):
        while degree < b:
            ypow = series_mul(ypow, y, n)
            degree += 1
        for e, k in ypow.items():
            if e + a * v0 < n:
                out[e + a * v0] = out.get(e + a * v0, 0) + c * k
    return {e: c for e, c in out.items() if c != 0}


def order(series: dict):
    """The least exponent of a series, or None when it has no terms."""
    return min(series) if series else None


def function_value(poly: dict, v0: int, y: dict, n: int):
    """The order of poly along the branch, or None if it is >= n."""
    return order(pullback(poly, v0, y, n))


def form_pullback(H: dict, G: dict, v0: int, y: dict, n: int) -> dict:
    """H(x, y) x' + G(x, y) y' through t**(n - 1), with x = t**v0."""
    out = {}
    for e, c in pullback(H, v0, y, n - v0 + 1).items():
        out[e + v0 - 1] = c * v0
    dy = {e - 1: c * e for e, c in y.items() if e > 0}
    for e, c in series_mul(pullback(G, v0, y, n), dy, n).items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0 and e < n}


def form_value(H: dict, G: dict, v0: int, y: dict, n: int):
    """The value of H dX + G dY (order of its pullback plus one), or None
    if that order is >= n."""
    o = order(form_pullback(H, G, v0, y, n))
    return None if o is None else o + 1


def in_max_ideal_sq(poly: dict) -> bool:
    """Every monomial of poly has total degree >= 2."""
    return all(a + b >= 2 for a, b in poly)


def in_ideal_x2_y(poly: dict) -> bool:
    """Every monomial of poly is divisible by X**2 or by Y."""
    return all(a >= 2 or b >= 1 for a, b in poly)


def image(v0: int, y: dict, r, q: dict, n: int) -> dict:
    """y of the image of (t**v0, y) under (X, Y) -> (r**v0 X, r**v1 Y + q),
    through t**(n - 1).

    The new x is (r t)**v0, so with s = r t the new y(s) is
    r**v1 y(s/r) + q(x(s/r), y(s/r)): the coefficient at e is divided by r**e.
    """
    r = Fraction(r)
    v1 = min(y)
    w = {e: c * r**v1 for e, c in y.items() if e < n}
    for e, c in pullback(q, v0, y, n).items():
        w[e] = w.get(e, 0) + c
    return {e: c / r**e for e, c in w.items() if c != 0}


def char_exponents(v0: int, y: dict) -> list:
    """The characteristic exponents (v0, beta_1, ..., beta_g) of the branch."""
    beta = [v0]
    g = v0
    for e in sorted(y):
        if g == 1:
            break
        if e % g:
            beta.append(e)
            g = gcd(g, e)
    return beta


def conductor(beta) -> int:
    """sum (e_(i-1) - e_i) beta_i - beta_0 + 1, with e_i = gcd(beta_0..beta_i)."""
    total = 1 - beta[0]
    e_prev = beta[0]
    for b in beta[1:]:
        e = gcd(e_prev, b)
        total += (e_prev - e) * b
        e_prev = e
    return total
