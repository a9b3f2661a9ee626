"""Numerical semigroups of plane branches and their characteristic data.

The semigroup of a branch is generated by the multiplicity v0 and the
contact orders v1, ..., vg; it determines and is determined by the
characteristic exponents beta_0, ..., beta_g through

    v_{i+1} = n_i v_i + beta_{i+1} - beta_i,      n_i = e_{i-1} / e_i,

with e_i = gcd(beta_0, ..., beta_i) = gcd(e_{i-1}, v_i).  Not every
numerical semigroup arises this way: the e-chain must drop strictly to 1
and each generator must satisfy v_{i+1} > n_i v_i.

``char_data_from_exponents`` owns the class: one validated, frozen
``CharData`` per beta, holding the generators and the semigroup, which
the branches of one reduction share.  The semigroup is built there and
nowhere else, so the package does not export ``NumericalSemigroup``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# Classes kept by char_data_from_exponents.  Every branch of one reduction
# has the input's beta, so a reduction needs one class, and
# decide_equivalence reduces two inputs: two classes cover both.
CLASS_CACHE_SIZE = 2


@dataclass(frozen=True)
class CharData:
    """Characteristic exponents, the derived invariants and the semigroup."""

    beta: tuple  # (beta_0, ..., beta_g), beta_0 = multiplicity
    e: tuple  # gcd chain, e_0 = beta_0 > e_1 > ... > e_g = 1
    n: tuple  # (1, n_1, ..., n_g) with n_i = e_{i-1}/e_i
    puiseux_pairs: tuple  # ((n_i, m_i))_{i=1..g} with m_i = beta_i / e_i
    genus: int
    generators: tuple  # (v_0, ..., v_g)
    semigroup: "NumericalSemigroup"


class NumericalSemigroup:
    """The semigroup <v_0, ..., v_g> of one class, built only by ``_char_data``.

    Its generators come from a validated beta, whose gcd chain
    e_i = gcd(e_{i-1}, v_i) drops strictly at each v_i: v_i is not a
    multiple of e_{i-1}, while every sum of v_0, ..., v_{i-1} is.  So the
    v_i are distinct, coprime (e_g = 1) and minimal, and nothing here checks
    or reduces them; for an arbitrary generator set it would answer wrongly.
    The conductor is the plane-branch closed form
    c = sum((n_i - 1) v_i) - v_0 + 1; one sieve fills the membership table
    below it, and every value from c on is a member.
    """

    __slots__ = ("generators", "conductor", "gaps", "_table")

    def __init__(self, generators):
        e = generators[0]
        c = 1 - e
        for v in generators[1:]:
            e, e_prev = math.gcd(e, v), e
            c += (e_prev // e - 1) * v
        table = [False] * c
        table[0] = True
        for g in generators:
            for w in range(g, c):
                if table[w - g]:
                    table[w] = True
        self.generators = generators
        self.conductor = c
        self.gaps = tuple(w for w in range(1, c) if not table[w])
        self._table = table

    def contains(self, v: int) -> bool:
        return v >= self.conductor or (v >= 0 and self._table[v])

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"{type(self).__name__}(<{gens}>, conductor={self.conductor})"


def two_generator_rep(w: int, v0: int, v1: int):
    """Write w = a*v0 + b*v1 with a, b >= 0, smallest b; None if impossible."""
    if w < 0:
        return None
    for b in range(w // v1 + 1):
        rem = w - b * v1
        if rem % v0 == 0:
            return (rem // v0, b)
    return None


def char_data_from_exponents(beta) -> CharData:
    """The class of the characteristic exponents beta; ValueError if beta
    is not valid.  The last CLASS_CACHE_SIZE classes are kept."""
    return _char_data(tuple(int(b) for b in beta))


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _char_data(beta: tuple) -> CharData:
    if len(beta) < 1 or beta[0] < 2:
        raise ValueError("need a multiplicity beta_0 >= 2")
    if any(b2 <= b1 for b1, b2 in zip(beta, beta[1:])):
        raise ValueError("characteristic exponents must increase strictly")
    e = [beta[0]]
    for b in beta[1:]:
        e.append(math.gcd(e[-1], b))
    if any(e2 >= e1 for e1, e2 in zip(e, e[1:])) or e[-1] != 1:
        raise ValueError("gcd chain must drop strictly to 1")
    n = [1] + [e[i - 1] // e[i] for i in range(1, len(e))]
    pairs = tuple((n[i], beta[i] // e[i]) for i in range(1, len(beta)))
    v = list(beta[:2])
    for i in range(1, len(beta) - 1):
        v.append(n[i] * v[i] + beta[i + 1] - beta[i])
    v = tuple(v)
    return CharData(beta=beta, e=tuple(e), n=tuple(n), puiseux_pairs=pairs,
                    genus=len(beta) - 1, generators=v,
                    semigroup=NumericalSemigroup(v))


def char_exponents_from_generators(gens):
    """Characteristic exponents from the generators; validates on the way.

    The inverse of ``char_data_from_exponents(beta).generators``.

    Raises ValueError unless gens are the minimal generators of the
    semigroup of a singular plane branch.
    """
    v = tuple(int(g) for g in gens)
    bad = "not a plane branch semigroup: "
    if not v or v[0] < 2:
        raise ValueError(bad + "multiplicity must be >= 2")
    if any(b <= a for a, b in zip(v, v[1:])):
        raise ValueError(bad + "generators must increase strictly")
    e = [v[0]]
    for g in v[1:]:
        e.append(math.gcd(e[-1], g))
    if any(e2 >= e1 for e1, e2 in zip(e, e[1:])):
        raise ValueError(bad + "gcd chain must drop strictly at every generator")
    if e[-1] != 1:
        raise ValueError(bad + "gcd of all generators must be 1")
    beta = list(v[:2])
    for i in range(1, len(v) - 1):
        n_i = e[i - 1] // e[i]
        if v[i + 1] <= n_i * v[i]:
            raise ValueError(bad + f"generator v_{i + 1} must exceed n_{i} * v_{i}")
        beta.append(v[i + 1] - n_i * v[i] + beta[i])
    return tuple(beta)
