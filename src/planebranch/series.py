"""Exact truncated power series in one variable and sparse polynomials in two.

Everything here is arithmetic over Q.  A TSeries holds finitely many terms
``c * t**e`` with ``e < trunc``: exponents at or beyond ``trunc`` are unknown,
not zero.  Operations propagate the truncation order honestly, i.e. the
result's ``trunc`` is the largest order through which the inputs actually
determine the output.  Order computations on a series that vanishes through
its truncation return an :class:`AboveTruncation` marker rather than a number,
and that marker never compares equal to an integer.

Rationals are gmpy2.mpq when available (much faster), fractions.Fraction
otherwise; both print as "p/q" / "n" which is the on-disk format everywhere.
A product of series multiplies integer numerators over one common
denominator per factor and builds each output coefficient once, so the
rational type is normalised per output term, not per pair of terms.
"""

from __future__ import annotations

from math import lcm
from operator import add, sub

try:
    from gmpy2 import mpq as _RAT

    RAT_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _RAT

    RAT_BACKEND = "fractions"


def rat(value, den=None):
    """Coerce ``value`` (int, "p/q" string, or rational) to the backend type."""
    if den is not None:
        return _RAT(value, den)
    return _RAT(value)


def rat_str(x) -> str:
    """Canonical decimal-free rendering: "5", "-2", "3/4"."""
    return str(x)


R0 = rat(0)
R1 = rat(1)


class AboveTruncation:
    """Order bound for a series with no visible terms: true order >= trunc.

    Deliberately never equal to any int.  Comparisons against an int n are
    answered only when decidable from the bound (n < trunc); otherwise they
    raise, so membership logic cannot silently use an unknown order.
    """

    __slots__ = ("trunc",)

    def __init__(self, trunc: int):
        self.trunc = trunc

    def __repr__(self):
        return f"AboveTruncation({self.trunc})"

    def __eq__(self, other):
        if isinstance(other, AboveTruncation):
            return self.trunc == other.trunc
        return False

    def __hash__(self):
        return hash(("AboveTruncation", self.trunc))

    def __gt__(self, n):
        if isinstance(n, int) and n < self.trunc:
            return True
        raise ValueError(f"order >= {self.trunc} cannot be compared with {n!r}")

    def __ge__(self, n):
        if isinstance(n, int) and n <= self.trunc:
            return True
        raise ValueError(f"order >= {self.trunc} cannot be compared with {n!r}")

    def __lt__(self, n):
        if isinstance(n, int) and n < self.trunc:
            return False
        raise ValueError(f"order >= {self.trunc} cannot be compared with {n!r}")

    def __le__(self, n):
        if isinstance(n, int) and n <= self.trunc:
            return False
        raise ValueError(f"order >= {self.trunc} cannot be compared with {n!r}")


def _numerators(terms):
    """(d, [(e, n), ...]) with d the lcm of the denominators and each c = n / d."""
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()]


class TSeries:
    """Sparse exact power series truncated at ``trunc`` (exclusive).

    ``terms`` maps exponent -> nonzero rational coefficient, all exponents
    in [0, trunc).  The zero series is an empty map, which only says the
    series vanishes through trunc - 1.
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: int, terms=None, _clean=False):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        self.trunc = trunc
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for e, c in terms.items():
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                if e < trunc:
                    c = rat(c)
                    if c != 0:
                        clean[e] = c
            self.terms = clean

    @classmethod
    def monomial(cls, exp: int, coeff, trunc: int) -> "TSeries":
        c = rat(coeff)
        if exp >= trunc or c == 0:
            return cls(trunc)
        return cls(trunc, {exp: c}, _clean=True)

    @classmethod
    def zero(cls, trunc: int) -> "TSeries":
        return cls(trunc)

    def coeff(self, e: int):
        if e >= self.trunc:
            raise ValueError(f"coefficient at {e} is beyond truncation {self.trunc}")
        return self.terms.get(e, R0)

    def order(self):
        """Exact order, or AboveTruncation(trunc) if no terms are visible."""
        if self.terms:
            return min(self.terms)
        return AboveTruncation(self.trunc)

    def order_floor(self) -> int:
        """A certified integer lower bound for the order."""
        return min(self.terms) if self.terms else self.trunc

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self):
        return hash((self.trunc, tuple(sorted(self.terms.items()))))

    def agrees_through(self, other: "TSeries", n: int) -> bool:
        """Do the two series coincide at every exponent < n?"""
        if n > self.trunc or n > other.trunc:
            raise ValueError("comparison window exceeds a truncation order")
        for e in set(self.terms) | set(other.terms):
            if e < n and self.terms.get(e, R0) != other.terms.get(e, R0):
                return False
        return True

    def __neg__(self):
        return TSeries(self.trunc, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self + other or self - other, as op is operator.add or .sub."""
        if not isinstance(other, TSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out = {e: c for e, c in self.terms.items() if e < trunc}
        for e, c in other.terms.items():
            if e < trunc:
                s = op(out.get(e, R0), c)
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return TSeries(trunc, out, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return self.scale(other)
        # Trusted window of a product: each factor's tail enters at its
        # truncation plus the other's order, so take the better bound.
        trunc = min(self.trunc + other.order_floor(), other.trunc + self.order_floor())
        # Convolve integer numerators over one denominator per factor, so
        # each output coefficient is normalised once, not once per pair.
        da, a = _numerators(self.terms)
        db, b = _numerators(other.terms)
        b.sort()
        acc = {}
        for e1, n1 in a:
            room = trunc - e1
            for e2, n2 in b:
                if e2 >= room:
                    break
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * n2
        d = da * db
        return TSeries(trunc, {e: _RAT(n, d) for e, n in acc.items() if n}, _clean=True)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return TSeries(self.trunc)
        return TSeries(self.trunc, {e: c * k for e, k in self.terms.items()}, _clean=True)

    def shift(self, k: int) -> "TSeries":
        """Multiply by t**k (k may be negative if every exponent allows it)."""
        if k < 0 and any(e + k < 0 for e in self.terms):
            raise ValueError("shift would create negative exponents")
        return TSeries(self.trunc + k, {e + k: c for e, c in self.terms.items()}, _clean=True)

    def truncate(self, n: int) -> "TSeries":
        if n >= self.trunc:
            return self
        return TSeries(n, {e: c for e, c in self.terms.items() if e < n}, _clean=True)

    def derivative(self) -> "TSeries":
        out = {}
        for e, c in self.terms.items():
            if e > 0:
                out[e - 1] = e * c
        return TSeries(self.trunc - 1 if self.trunc > 0 else 0, out, _clean=True)

    def support(self):
        return sorted(self.terms)

    def __repr__(self):
        if not self.terms:
            return f"TSeries(O(t^{self.trunc}))"
        bits = " + ".join(f"({rat_str(c)})t^{e}" for e, c in sorted(self.terms.items()))
        return f"TSeries({bits} + O(t^{self.trunc}))"


def series_inverse_unit(u: TSeries) -> TSeries:
    """Multiplicative inverse of a unit (order-0) series, same truncation."""
    u0 = u.terms.get(0, R0)
    if u0 == 0:
        raise ValueError("series_inverse_unit needs a nonzero constant term")
    n = u.trunc
    inv = {0: R1 / u0}
    pos = [(e, c) for e, c in u.terms.items() if 0 < e < n]
    for k in range(1, n):
        acc = R0
        for e, c in pos:
            if e <= k:
                j = inv.get(k - e)
                if j is not None:
                    acc += c * j
        if acc != 0:
            inv[k] = -acc / u0
    return TSeries(n, inv, _clean=True)


def series_root_unit(w: TSeries, n: int) -> TSeries:
    """The n-th root s of a unit series w with w(0) = 1, normalized s(0) = 1.

    Coefficients follow from the defining relation n s' w = w' s, which gives
    the order-by-order recurrence
        s_k = (1/(n k)) * sum_{0 < d <= k} w_d s_{k-d} (d - n (k - d)).
    Exact, O(len(w) * trunc) over sparse w.
    """
    if n <= 0:
        raise ValueError("root index must be positive")
    if w.terms.get(0, R0) != 1:
        raise ValueError("series_root_unit needs constant term exactly 1")
    N = w.trunc
    s = {0: R1}
    wpos = [(d, c) for d, c in w.terms.items() if d > 0]
    for k in range(1, N):
        acc = R0
        for d, c in wpos:
            if d <= k:
                sj = s.get(k - d)
                if sj is not None:
                    acc += c * sj * (d - n * (k - d))
        if acc != 0:
            s[k] = acc / (n * k)
    return TSeries(N, s, _clean=True)


def series_reversion(s: TSeries) -> TSeries:
    """Compositional inverse r of s, where s has order exactly 1.

    Lagrange inversion: the u**m coefficient of r is (1/m) [t**(m-1)] (t/s)**m.
    The powers of t/s are built incrementally.  r is trusted through the same
    truncation order as s, since r_m only needs s through order m <= trunc-1.
    """
    if s.order_floor() != 1 or 1 not in s.terms:
        raise ValueError("series_reversion needs order exactly 1")
    N = s.trunc
    base = series_inverse_unit(s.shift(-1).truncate(N - 1))  # (t/s), a unit
    out = {}
    power = None
    for m in range(1, N):
        power = base if power is None else (power * base).truncate(N - 1)
        cm = power.terms.get(m - 1, R0)
        if cm != 0:
            out[m] = cm / m
    return TSeries(N, out, _clean=True)


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
    if not outer.terms:
        return TSeries(outer.trunc * d)
    positive = [e for e in outer.terms if e > 0]
    if not positive:
        return TSeries.monomial(0, outer.terms[0], outer.trunc * d)
    k0 = min(positive)
    trunc = min(inner.trunc + (k0 - 1) * d, outer.trunc * d)
    acc = TSeries(trunc)
    power = TSeries.monomial(0, 1, trunc)
    prev_e = 0
    for e in sorted(outer.terms):
        for _ in range(e - prev_e):
            power = (power * inner).truncate(trunc)
        prev_e = e
        acc = acc + power.scale(outer.terms[e])
    return acc.truncate(trunc)


class BiPoly:
    """Sparse polynomial in X, Y over Q: maps (degX, degY) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=False):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError("negative degree in BiPoly")
                c = rat(c)
                if c != 0:
                    clean[(a, b)] = c
            self.terms = clean

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def monomial(cls, a: int, b: int, coeff=1) -> "BiPoly":
        c = rat(coeff)
        return cls({(a, b): c} if c != 0 else {}, _clean=True)

    @classmethod
    def from_pairs(cls, pairs) -> "BiPoly":
        """Build from [[degX, degY, "coeff"], ...] (the on-disk format)."""
        out = {}
        for a, b, c in pairs:
            c = rat(c)
            if c != 0:
                out[(int(a), int(b))] = out.get((int(a), int(b)), R0) + c
        return cls({k: v for k, v in out.items() if v != 0}, _clean=True)

    def to_pairs(self):
        return [[a, b, rat_str(c)] for (a, b), c in sorted(self.terms.items())]

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()}, _clean=True)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, R0) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return BiPoly(out, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return self.scale(other)
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, R0) + c1 * c2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return BiPoly(out, _clean=True)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return BiPoly()
        return BiPoly({k: c * v for k, v in self.terms.items()}, _clean=True)

    def in_max_ideal(self) -> bool:
        """No constant term, i.e. the polynomial lies in (X, Y)."""
        return (0, 0) not in self.terms

    def in_max_ideal_sq(self) -> bool:
        """Every monomial has total degree >= 2, i.e. lies in (X, Y)^2."""
        return all(a + b >= 2 for (a, b) in self.terms)

    def in_ideal_x2_y(self) -> bool:
        """Membership in the ideal (X^2, Y): every monomial divisible by X^2 or Y."""
        return all(a >= 2 or b >= 1 for (a, b) in self.terms)

    def substitute(self, px: "BiPoly", py: "BiPoly") -> "BiPoly":
        """Plug X = px, Y = py (polynomial composition, exact)."""
        xa = {0: BiPoly.monomial(0, 0, 1)}
        yb = {0: BiPoly.monomial(0, 0, 1)}

        def power(cache, base, m):
            if m not in cache:
                cache[m] = power(cache, base, m - 1) * base
            return cache[m]

        acc = BiPoly()
        for (a, b), c in sorted(self.terms.items()):
            acc = acc + (power(xa, px, a) * power(yb, py, b)).scale(c)
        return acc

    def __repr__(self):
        if not self.terms:
            return "BiPoly(0)"
        bits = " + ".join(
            f"({rat_str(c)})X^{a}Y^{b}" for (a, b), c in sorted(self.terms.items())
        )
        return f"BiPoly({bits})"


def bipoly_pullback(h: BiPoly, phi) -> TSeries:
    """Substitute a parametrized curve into h: returns h(x(t), y(t)).

    ``phi`` only needs x_series() / y_series() returning TSeries.  Terms are
    grouped by Y-degree so the y-powers are built once each.  The result is
    re-truncated to the parametrization's working order.
    """
    x = phi.x_series()
    y = phi.y_series()
    N = min(x.trunc, y.trunc)
    by_b = {}
    for (a, b), c in h.terms.items():
        by_b.setdefault(b, []).append((a, c))
    acc = TSeries(N)
    ypow = TSeries.monomial(0, 1, N)
    xpows = {}

    def xpower(a):
        if a == 0:
            return TSeries.monomial(0, 1, N)
        if a not in xpows:
            xpows[a] = (xpower(a - 1) * x).truncate(N)
        return xpows[a]

    cur_b = 0
    for b in sorted(by_b):
        for _ in range(b - cur_b):
            ypow = (ypow * y).truncate(N)
        cur_b = b
        row = TSeries(N)
        for a, c in sorted(by_b[b]):
            row = row + xpower(a).truncate(N).scale(c)
        acc = acc + (row * ypow).truncate(N)
    return acc.truncate(N)
