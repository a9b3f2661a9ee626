"""Exact truncated power series in one variable and sparse polynomials in two.

Everything here is arithmetic over Q.  A TSeries holds finitely many terms
``c * t**e`` with ``e < trunc``: exponents at or beyond ``trunc`` are unknown,
not zero.  Operations propagate the truncation order honestly, i.e. the
result's ``trunc`` is the largest order through which the inputs actually
determine the output.  Order computations on a series that vanishes through
its truncation return an :class:`AboveTruncation` marker rather than a number,
and that marker never compares equal to an integer.

A TSeries is stored as integer numerators over one positive denominator,
in lowest terms, so its arithmetic runs on ints with one content gcd per
result: a product convolves the stored numerators, a sum or difference
works over the lcm of the two denominators, and a shift keeps the
numerators as they are.  Rationals are built only at the boundaries
(``terms``, ``coeff``).  BiPoly holds rationals directly.
``series_root_unit`` computes any rational power w**(m/n) of a unit
series by one recurrence; a branch holds its y as a TSeries, so the
coordinate changes of ``normalform`` run on these numerators too.
The two triangular eliminations (``valuation._eliminate`` and the solve in
``normalform.apply_coordinate_change``) work on bare numerator lists and
share one fraction-free row step, ``_clear_lead``.  Every pullback, of a
function (``bipoly_pullback``) or of a 1-form (``valuation.integrand`` and
the Lambda rows), is one ``_sum_rungs`` pass over shifted rungs of the
branch's y-power ladder or their derivatives: growing that ladder is the
one product of series the package makes.

The one rational type is fractions.Fraction, exported as ``rat``; it
prints as "p/q" / "n", which is the on-disk format everywhere.  With the
series, the eliminations, the pullback and the solve all on ints, a
rational is built only at those boundaries and in BiPoly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

# rat(x) takes an int, a "p/q" string or a rational; rat(n, d) is n / d
rat = Fraction
RAT_BACKEND = "fractions"

R0 = rat(0)
R1 = rat(1)


def _read_rat(value, field: str):
    """A JSON coefficient: an int that is not a bool, or a string ``rat``
    parses; anything else, a float included, is a ValueError naming field."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return rat(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{field} must be an integer or a rational string, not {value!r}")


class AboveTruncation:
    """Order bound for a series with no visible terms: true order >= trunc.

    Deliberately never equal to any int.  Comparisons against an int n are
    answered only when decidable from the bound: ``>`` and ``<=`` for
    n < trunc, ``>=`` and ``<`` for n <= trunc; otherwise they raise, so
    membership logic cannot silently use an unknown order.
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
        if isinstance(n, int) and n <= self.trunc:
            return False
        raise ValueError(f"order >= {self.trunc} cannot be compared with {n!r}")

    def __le__(self, n):
        if isinstance(n, int) and n < self.trunc:
            return False
        raise ValueError(f"order >= {self.trunc} cannot be compared with {n!r}")


def _numerators(terms):
    """(d, [(e, n), ...]) with d the lcm of the denominators and each c = n / d."""
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()]


def _clear_lead(S, d, P):
    """One fraction-free step: S/d minus the multiple of P that clears S[0].

    S and P are integer numerator lists starting at the same order, d > 0 is
    the denominator of S and P[0] != 0.  Returns (T, d') with T/d' equal to
    S/d - (S[0] / P[0]) P/d, whatever P's own denominator, as

        (P[0] S - S[0] P) / (d P[0])

    (signs flipped to keep d' > 0) with one content gcd divided out.  T[0]
    is 0, and zip keeps the shorter of S and P, which cuts the truncation to
    the smaller of the two.
    """
    a, b = P[0], S[0]
    if a < 0:
        a, b = -a, -b
    T = [a * n - b * p for n, p in zip(S, P)]
    d *= a
    g = gcd(d, *T)
    if g != 1:
        d //= g
        T = [n // g for n in T]
    return T, d


class TSeries:
    """Sparse exact power series truncated at ``trunc`` (exclusive).

    The series is ``sum(nums[e] * t**e) / den``: ``den`` is a positive int
    and ``nums`` maps exponent -> nonzero int, all exponents in [0, trunc).
    The form is canonical, gcd(den, *nums) == 1, so two series are equal
    exactly when their fields are.  The zero series has no numerators and
    den 1, which only says the series vanishes through trunc - 1.
    ``terms`` is the same series as a map exponent -> rational.
    """

    __slots__ = ("trunc", "den", "nums")

    def __init__(self, trunc: int, terms=None):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        clean = {}
        for e, c in (terms or {}).items():
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e < trunc:
                c = rat(c)
                if c != 0:
                    clean[e] = c
        self.trunc = trunc
        # the lcm of reduced denominators shares no prime with every numerator
        self.den, nums = _numerators(clean)
        self.nums = dict(nums)

    @classmethod
    def _over(cls, trunc: int, den: int, nums: dict) -> "TSeries":
        """The series nums / den (den > 0, no zero in nums), made canonical."""
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
        out = cls.__new__(cls)
        out.trunc, out.den, out.nums = trunc, den, nums
        return out

    @classmethod
    def monomial(cls, exp: int, coeff, trunc: int) -> "TSeries":
        return cls(trunc, {exp: coeff})

    @property
    def terms(self) -> dict:
        """The coefficients as a new map exponent -> nonzero rational."""
        d = self.den
        return {e: rat(n, d) for e, n in self.nums.items()}

    def coeff(self, e: int):
        if e >= self.trunc:
            raise ValueError(f"coefficient at {e} is beyond truncation {self.trunc}")
        n = self.nums.get(e)
        return R0 if n is None else rat(n, self.den)

    def order(self):
        """Exact order, or AboveTruncation(trunc) if no terms are visible."""
        if self.nums:
            return min(self.nums)
        return AboveTruncation(self.trunc)

    def order_floor(self) -> int:
        """A certified integer lower bound for the order."""
        return min(self.nums) if self.nums else self.trunc

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.trunc, self.den, tuple(sorted(self.nums.items()))))

    def __neg__(self):
        return TSeries._over(self.trunc, self.den, {e: -n for e, n in self.nums.items()})

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self + other or self - other, as op is operator.add or .sub."""
        if not isinstance(other, TSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        out = {e: n * fa for e, n in self.nums.items() if e < trunc}
        for e, n in other.nums.items():
            if e < trunc:
                v = op(out.get(e, 0), n * fb)
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return TSeries._over(trunc, d, out)

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        # Trusted window of a product: each factor's tail enters at its
        # truncation plus the other's order, so take the better bound.
        trunc = min(self.trunc + other.order_floor(), other.trunc + self.order_floor())
        b = sorted(other.nums.items())
        acc = [0] * trunc
        for e1, n1 in self.nums.items():
            room = trunc - e1
            for e2, n2 in b:
                if e2 >= room:
                    break
                acc[e1 + e2] += n1 * n2
        nums = {e: n for e, n in enumerate(acc) if n}
        return TSeries._over(trunc, self.den * other.den, nums)

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return TSeries(self.trunc)
        p = c.numerator
        nums = {e: p * n for e, n in self.nums.items()}
        return TSeries._over(self.trunc, self.den * c.denominator, nums)

    def shift(self, k: int) -> "TSeries":
        """Multiply by t**k (k may be negative if every exponent allows it)."""
        if k < 0 and any(e + k < 0 for e in self.nums):
            raise ValueError("shift would create negative exponents")
        # the numerators and the denominator are unchanged: still canonical
        out = TSeries.__new__(TSeries)
        out.trunc, out.den = self.trunc + k, self.den
        out.nums = {e + k: n for e, n in self.nums.items()}
        return out

    def truncate(self, n: int) -> "TSeries":
        if n >= self.trunc:
            return self
        return TSeries._over(n, self.den, {e: c for e, c in self.nums.items() if e < n})

    def derivative(self) -> "TSeries":
        nums = {e - 1: e * n for e, n in self.nums.items() if e > 0}
        return TSeries._over(self.trunc - 1 if self.trunc > 0 else 0, self.den, nums)

    def support(self):
        return sorted(self.nums)

    def __repr__(self):
        if not self.nums:
            return f"TSeries(O(t^{self.trunc}))"
        bits = " + ".join(f"({c})t^{e}" for e, c in sorted(self.terms.items()))
        return f"TSeries({bits} + O(t^{self.trunc}))"


def series_root_unit(w: TSeries, n: int, m: int = 1) -> TSeries:
    """The power s = w**(m/n) of a unit series w with w(0) = 1, s(0) = 1.

    Coefficients follow from the defining relation n s' w = m w' s, which
    gives the order-by-order recurrence
        s_k = (1/(n k)) * sum_{0 < d <= k} w_d s_{k-d} (m d - n (k - d)).
    With m = 1 this is the n-th root; with n = 1 it is the m-th power, at
    one pass instead of products.
    It runs on integers: w = W / D as stored, and s = S / E over a running
    denominator E, the lcm of the denominators of s_0 .. s_k.  Each step
    reduces the new coefficient once and rescales S only when E grows, so E
    never exceeds the denominator of the canonical result.
    Exact, O(len(w) * trunc) over sparse w.
    """
    if n <= 0:
        raise ValueError("root index must be positive")
    D = w.den
    if w.nums.get(0) != D:
        raise ValueError("series_root_unit needs constant term exactly 1")
    N = w.trunc
    wpos = sorted((d, c) for d, c in w.nums.items() if d > 0)
    E = 1
    S = [1]
    for k in range(1, N):
        acc = 0
        for d, c in wpos:
            if d > k:
                break
            sj = S[k - d]
            if sj:
                acc += c * sj * (m * d - n * (k - d))
        if acc:
            q = D * E * n * k  # s_k = acc / q
            g = gcd(acc, q)
            acc, q = acc // g, q // g
            f = q // gcd(E, q)
            if f != 1:
                E *= f
                S = [f * x for x in S]
            acc *= E // q
        S.append(acc)
    return TSeries._over(N, E, {e: x for e, x in enumerate(S) if x})


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
        """Build from [[degX, degY, "coeff"], ...] (the on-disk format); an
        entry other than a 3-item list with int degrees >= 0 is a ValueError."""
        out = {}
        for entry in pairs:
            if not (isinstance(entry, list) and len(entry) == 3
                    and all(type(d) is int and d >= 0 for d in entry[:2])):
                raise ValueError(f"bad term {entry!r}: need [degX, degY, coeff], degrees >= 0")
            a, b, c = entry
            c = _read_rat(c, f"coefficient of X^{a} Y^{b}")
            if c != 0:
                out[(a, b)] = out.get((a, b), R0) + c
        return cls({k: v for k, v in out.items() if v != 0}, _clean=True)

    def to_pairs(self):
        return [[a, b, str(c)] for (a, b), c in sorted(self.terms.items())]

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
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self + other or self - other, as op is operator.add or .sub."""
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = op(out.get(k, R0), c)
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return BiPoly(out, _clean=True)

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
            f"({c})X^{a}Y^{b}" for (a, b), c in sorted(self.terms.items())
        )
        return f"BiPoly({bits})"


def _sum_rungs(parts, trunc: int) -> TSeries:
    """The sum of c t**k s, or of c t**k s' where ds, over parts (k, s, c, ds)
    with s a ladder rung, cut at trunc inside every rung's window: one integer
    pass over the lcm of all the denominators, then one content gcd."""
    D = lcm(*[s.den * c.denominator for _, s, c, _ in parts])
    acc = {}
    for k, s, c, ds in parts:
        f = c.numerator * (D // (s.den * c.denominator))
        for e, n in s.nums.items():
            if ds:
                e, n = e - 1, e * n
            e += k
            if e < trunc:
                acc[e] = acc.get(e, 0) + f * n
    return TSeries._over(trunc, D, {e: n for e, n in acc.items() if n})


def bipoly_pullback(h: BiPoly, phi) -> TSeries:
    """h(x(t), y(t)) along the branch phi, through its working truncation N.

    Since x is t**v0, each term c X**a Y**b is c t**(a v0) y**b, y**b the
    rung ``phi.y_power(b)``; terms of value a v0 + b v1 >= N cannot reach
    below N and are skipped.  One ``_sum_rungs`` pass sums the rest.
    """
    N, v0, v1 = phi.trunc, phi.v0, phi.v1
    return _sum_rungs([(a * v0, phi.y_power(b), c, False) for (a, b), c in h.terms.items()
                       if a * v0 + b * v1 < N], N)
