"""Puiseux parametrizations of plane branches, with exact working precision.

A branch is given as (t**v0, sum a_i t**i) with leading y-exponent v1,
v0 < v1, v0 not dividing v1, and gcd(v0, support) = 1 so the
parametrization is primitive.  The constructor derives the characteristic
exponents beta from the full support, takes ``char`` and ``semigroup``
from the class ``char_data_from_exponents(beta)``, which coordinate
changes share, fixes the working truncation N = conductor + 2 v0 + 1
(+ optional head-room of at most that much again), and only then
discards exponents >= N — they can influence no membership decision
below N and no normal-form coefficient.

y is held as its canonical TSeries cut at N, in the slot ``y``: integer
numerators over one positive denominator, in lowest terms.  Structural
equality of two such series is rational equality, so ``__eq__`` and
``__hash__`` read the series, and ``coeff`` and ``support`` do too.
``terms`` is a read-only rational view, a new dict on each read, for
serialization and display.  The constructor takes y as a map exponent ->
coefficient or as a canonical TSeries (which it keeps as it is when it is
already cut at N with lead 1); either way every check runs on the
integer numerators.

If the leading y-coefficient is not 1 the constructor rescales y by it
(the coordinate change (X, Y/a) in the plane); the factor is kept on the
instance as ``lead_rescale`` for introspection.

A branch keeps two lazily built values.  ``y_power`` serves every
pullback from one ladder of powers of y cut at N, whose rung 1 is ``y``
itself (x needs no series: it is t**v0, so X**a is a shift).  ``_lambda``
is the Λ ValueSet, set by ``valuation.lambda_set``, and the only analytic
memo on a branch: the Λ⁽²⁾ and Λ′ thresholds and the Zariski invariant are
all read from Λ, so asking for them on one branch eliminates Λ once.
"""

from __future__ import annotations

import math

from .semigroup import char_data_from_exponents
from .series import R0, R1, TSeries, _numerators, _read_rat, rat


class BranchInputError(ValueError):
    """Raised when input data does not describe a valid plane branch."""


class PuiseuxParam:
    __slots__ = (
        "v0",
        "v1",
        "y",
        "trunc",
        "extra",
        "char",
        "semigroup",
        "lead_rescale",
        "label",
        "_ypow",
        "_lambda",
    )

    def __init__(self, v0: int, terms, extra: int = 0, label=None):
        if not isinstance(v0, int) or v0 < 2:
            raise BranchInputError("v0 must be an integer >= 2")
        if isinstance(terms, TSeries):
            den, nums = terms.den, terms.nums
        else:
            cleaned = {}
            for e, c in dict(terms).items():
                e = int(e)
                c = rat(c)
                if e < 0:
                    raise BranchInputError(f"negative exponent {e} in y(t)")
                if c != 0:
                    cleaned[e] = c
            den, nums = _numerators(cleaned)
            nums = dict(nums)
        if not nums:
            raise BranchInputError("y(t) must have at least one term")
        v1 = min(nums)
        if v1 <= v0:
            raise BranchInputError(f"leading y-exponent {v1} must exceed v0 = {v0}")
        if v1 % v0 == 0:
            raise BranchInputError(f"v0 = {v0} must not divide the leading exponent {v1}")
        if math.gcd(v0, *nums) != 1:
            raise BranchInputError("parametrization must be primitive: gcd(v0, support) = 1")

        lead = nums[v1]
        if lead != den:
            # y / lead is nums / lead: the old lead numerator becomes the
            # denominator, made positive (the canonical form is restored below)
            self.lead_rescale = rat(lead, den)
            den = lead
            if den < 0:
                den, nums = -den, {e: -n for e, n in nums.items()}
        else:
            self.lead_rescale = None

        beta = [v0]
        g = v0
        for s in sorted(nums):
            if g == 1:
                break
            if s % g != 0:
                beta.append(s)
                g = math.gcd(g, s)
        self.char = char_data_from_exponents(beta)
        self.semigroup = self.char.semigroup
        base = self.semigroup.conductor + 2 * v0 + 1
        if not 0 <= extra <= base:
            raise BranchInputError(
                f"truncation head-room {extra} must be between 0 and "
                f"conductor + 2 v0 + 1 = {base}"
            )
        self.v0 = v0
        self.v1 = v1
        self.extra = extra
        N = self.trunc = base + extra
        if isinstance(terms, TSeries) and terms.trunc == N and self.lead_rescale is None:
            self.y = terms
        else:
            self.y = TSeries._over(N, den, {e: n for e, n in nums.items() if e < N})
        self.label = label
        self._ypow = None
        self._lambda = None

    # -- series views -------------------------------------------------

    @property
    def terms(self) -> dict:
        """y(t) as a new map exponent -> nonzero rational, exponents < N."""
        return self.y.terms

    def y_power(self, b: int) -> TSeries:
        """y(t)**b through t**(N - 1), from the branch's own power ladder.

        The ladder [1, y, y**2, ...] grows by one product with y per new
        rung, each cut at N, and is kept for the life of the branch.  These
        are the only series products the pullbacks make: X**a Y**b is
        ``y_power(b).shift(a * v0)``, since x is t**v0.
        """
        ladder = self._ypow
        if ladder is None:
            ladder = self._ypow = [TSeries.monomial(0, 1, self.trunc), self.y]
        while len(ladder) <= b:
            ladder.append((ladder[-1] * ladder[1]).truncate(self.trunc))
        return ladder[b]

    def support(self):
        return sorted(self.y.nums)

    def coeff(self, e: int):
        if e >= self.trunc:
            raise ValueError(f"coefficient at {e} is beyond working precision {self.trunc}")
        return self.y.coeff(e)

    # -- comparisons and serialization ---------------------------------

    def __eq__(self, other):
        if not isinstance(other, PuiseuxParam):
            return NotImplemented
        return self.v0 == other.v0 and self.y == other.y

    def __hash__(self):
        return hash((self.v0, self.y))

    def to_dict(self) -> dict:
        out = {
            "v0": self.v0,
            "terms": [[e, str(c)] for e, c in sorted(self.terms.items())],
        }
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data, extra: int = 0) -> "PuiseuxParam":
        if not isinstance(data, dict):
            raise BranchInputError("branch input must be a JSON object")
        missing = {"v0", "terms"} - set(data)
        if missing:
            raise BranchInputError(f"branch input lacks keys: {sorted(missing)}")
        v0 = data["v0"]
        if not isinstance(v0, int):
            raise BranchInputError("v0 must be an integer")
        raw = data["terms"]
        if not isinstance(raw, list):
            raise BranchInputError("terms must be a list of [exponent, coefficient] pairs")
        terms = {}
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise BranchInputError(f"bad term entry {item!r}")
            e, c = item
            if not isinstance(e, int):
                raise BranchInputError(f"exponent {e!r} must be an integer")
            try:
                cv = _read_rat(c, f"coefficient of t^{e}")
            except ValueError as exc:
                raise BranchInputError(str(exc)) from None
            terms[e] = terms.get(e, R0) + cv
        label = data.get("label")
        try:
            return cls(v0, terms, extra=extra, label=label)
        except BranchInputError:
            raise
        except ValueError as exc:
            raise BranchInputError(str(exc)) from None

    def __repr__(self):
        y = " + ".join(
            (f"t^{e}" if c == R1 else f"({c})t^{e}")
            for e, c in sorted(self.terms.items())
        )
        return f"PuiseuxParam(t^{self.v0}, {y})"
