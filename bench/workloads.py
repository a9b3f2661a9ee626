"""The benchmark's workloads: seeded inputs, the timed operations and the
checks of their outputs.

A workload is a sequence of rounds.  ``next_round`` builds a round's inputs
from the seeded generator, ``ops`` lists its operations (each a callable
that calls planebranch and returns its output), and ``check`` tests the
outputs of the round's operations and returns a list of failed checks.
Only the operations are timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import checker
import planebranch as pb

COEFFS = tuple(Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3", "-3/2", "2/3"))
R_POOL = tuple(Fraction(c) for c in ("-1", "2", "1/2", "-2", "3", "-1/3"))
SUITES = ("7.2", "7.1", "zariski-counterexample")


def to_fraction(c) -> Fraction:
    """A planebranch rational as a Fraction, whatever the backend."""
    return Fraction(str(c))


def random_branch(rng: random.Random, beta, tail: int):
    """(v0, y) with characteristic exponents ``beta`` (genus 1 or 2) and
    random coefficients from COEFFS.

    y = t**beta1, then for genus 2 a term at every multiple of
    e1 = gcd(beta0, beta1) between beta1 and beta2 and one at beta2, then
    ``tail`` terms evenly spaced from just above the last characteristic
    exponent to the working truncation c + 2 v0 + 1.  The support is fixed
    by the shape, so that the work per operation varies little with the
    seed; only the coefficients are drawn.
    """
    v0, v1 = beta[0], beta[1]
    y = {v1: Fraction(1)}
    if len(beta) == 3:
        for e in range(v1 + gcd(v0, v1), beta[2], gcd(v0, v1)):
            y[e] = rng.choice(COEFFS)
        y[beta[2]] = rng.choice(COEFFS)
    lo, top = beta[-1] + 1, checker.conductor(beta) + 2 * v0 + 1
    for i in range(tail):
        y[lo + (top - lo) * i // tail] = rng.choice(COEFFS)
    return v0, y


def random_change(rng: random.Random, v0: int, v1: int):
    """(r, q) for (X, Y) -> (r**v0 X, r**v1 Y + q(X, Y)), q of value > v1."""
    cands = [(a, b) for a in range(4) for b in range(3)
             if a + b <= 3 and a * v0 + b * v1 > v1]
    q = {m: rng.choice(COEFFS) for m in rng.sample(cands, 2)}
    return rng.choice(R_POOL), q


def _poly(bipoly) -> dict:
    return {k: to_fraction(c) for k, c in bipoly.terms.items()}


# -- invariants ----------------------------------------------------------


class Invariants:
    """Γ, Λ, Λ⁽²⁾, Λ′ and λ of a new random branch per operation; a round
    has one branch of each shape in SHAPES."""

    KINDS = ("Lambda", "Lambda2", "LambdaPrime")
    # characteristic exponents; conductors 20, 30, 42, 54, 56, 70, 72, 80
    # (genus 1) and 36, 42, 64, 80, 90 (genus 2).  An odd number of shapes
    # puts the median operation inside one shape's cluster of times.
    SHAPES = ((5, 6), (6, 7), (7, 8), (7, 10), (8, 9), (8, 11), (9, 10), (9, 11),
              (6, 8, 9), (6, 9, 10), (8, 10, 11), (8, 12, 13), (9, 12, 13))
    TAIL = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.notes = {}

    def next_round(self):
        return [random_branch(self.rng, beta, self.TAIL) for beta in self.SHAPES]

    def ops(self, inputs):
        return [lambda v0=v0, y=y: self.run(v0, y) for v0, y in inputs]

    @staticmethod
    def run(v0, y):
        phi = pb.PuiseuxParam(v0, y)
        gamma = pb.semigroup_of_values(phi)
        sets = {kind: pb.lambda_set(phi, kind) for kind in Invariants.KINDS}
        return gamma, sets, pb.zariski_invariant(phi)

    def check(self, inputs, outputs) -> list:
        errors = []
        for (v0, y), out in zip(inputs, outputs):
            errors += [f"invariants v0={v0} y={sorted(y)}: {e}" for e in check_invariants(v0, y, *out)]
        return errors


def check_invariants(v0, y, gamma, sets, lam) -> list:
    errors = []
    c = checker.conductor(checker.char_exponents(v0, y))
    if gamma.all_above != c:
        errors.append(f"Γ has conductor {gamma.all_above}, the checker says {c}")
    lam_vs = sets["Lambda"]
    top = lam_vs.decided_to
    for kind, vs in sets.items():
        for w in vs.finite_part:
            if gamma.contains(w):
                continue
            form = vs.witness(w)
            H, G = _poly(form.H), _poly(form.G)
            got = checker.form_value(H, G, v0, y, w + 1)
            if got != w:
                errors.append(f"{kind} witness for {w} attains {got}")
            if kind == "Lambda2" and not (checker.in_max_ideal_sq(H) and checker.in_max_ideal_sq(G)):
                errors.append(f"Lambda2 witness for {w} is not in (X, Y)^2")
            if kind == "LambdaPrime" and not (checker.in_max_ideal_sq(H) and checker.in_ideal_x2_y(G)):
                errors.append(f"LambdaPrime witness for {w} is outside its ideals")
        if vs.decided_to != top:
            errors.append(f"{kind} is decided to {vs.decided_to}, Lambda to {top}")
    for w in range(1, top + 1):
        if gamma.contains(w) and w not in lam_vs:
            errors.append(f"{w} is in Γ but not in Λ")
        for kind in ("Lambda2", "LambdaPrime"):
            if w in sets[kind] and w not in lam_vs:
                errors.append(f"{w} is in {kind} but not in Λ")
    gamma_values = [g for g in range(1, top + 1) if gamma.contains(g)]
    for w in range(1, top + 1):
        if w in lam_vs:
            for g in gamma_values:
                if w + g > top:
                    break
                if w + g not in lam_vs:
                    errors.append(f"{w} + {g} is in Λ + Γ but not in Λ")
    outside = [w for w in lam_vs.finite_part if not gamma.contains(w)]
    if outside:
        if lam != outside[0] - v0:
            errors.append(f"λ = {lam}, but min(Λ∖Γ) - v0 = {outside[0] - v0}")
    elif lam is not pb.MONOMIAL_CLASS:
        errors.append(f"Λ∖Γ is empty but λ = {lam}")
    return errors


# -- normal forms ----------------------------------------------------------


class NormalForm:
    """to_normal_form of a new random branch, then of its image under a
    random change, which the checker builds without planebranch; a round
    has one such pair for each shape in SHAPES."""

    # conductors 24, 28, 32, 20, 48 (genus 1) and 42, 36 (genus 2).  The
    # pair for (5, 6) costs more than the three cheaper shapes' pairs and
    # less than the three dearer ones', so the median operation is always
    # one of its two and op_p50_s does not jump between shapes.
    SHAPES = ((5, 7), (5, 8), (5, 9), (5, 6), (7, 9), (6, 9, 10), (6, 8, 9))
    TAIL = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.notes = {"ops": 0, "eliminations": 0, "input_bits_max": 0, "normal_bits_max": 0}

    def next_round(self):
        inputs = []
        for beta in self.SHAPES:
            v0, y = random_branch(self.rng, beta, self.TAIL)
            r, q = random_change(self.rng, v0, beta[1])
            top = checker.conductor(beta) + 2 * v0 + 1
            inputs += [(v0, y), (v0, checker.image(v0, y, r, q, top))]
        return inputs

    def ops(self, inputs):
        return [lambda v0=v0, y=y: self.run(v0, y) for v0, y in inputs]

    @staticmethod
    def run(v0, y):
        phi = pb.PuiseuxParam(v0, y)
        return phi, pb.to_normal_form(phi)

    def check(self, inputs, outputs) -> list:
        errors = []
        for i in range(0, len(inputs), 2):
            v0, y = inputs[i]
            errors += [f"normalform v0={v0} y={sorted(y)}: {e}"
                       for e in check_normal_forms(outputs[i], outputs[i + 1])]
        notes = self.notes
        for (v0, y), (phi, nf) in zip(inputs, outputs):
            notes["ops"] += 1
            notes["eliminations"] += len(nf.change_log)
            notes["input_bits_max"] = max(notes["input_bits_max"], bits(y.values()))
            notes["normal_bits_max"] = max(
                notes["normal_bits_max"], bits(map(to_fraction, nf.normal.terms.values())))
        return errors


def bits(coeffs) -> int:
    """The largest numerator or denominator bit length among coeffs."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs)


def check_normal_forms(base, image) -> list:
    (phi, nf), (psi, mf) = base, image
    errors = []
    la, lb = nf.lambda_values, mf.lambda_values
    if (la.finite_part, la.all_above) != (lb.finite_part, lb.all_above):
        errors.append("the base and its image have different Λ")
    if not pb.decide_equivalence(phi, psi, normal_forms=(nf, mf)).equivalent:
        errors.append("the base and its image are not found equivalent")
    a = {e: to_fraction(c) for e, c in nf.normal.terms.items()}
    b = {e: to_fraction(c) for e, c in mf.normal.terms.items()}
    errors += homothety_errors(a, b, phi.v1)
    for res in (nf, mf):
        v0, lam_vs = res.normal.v0, res.lambda_values
        for e in res.normal.support():
            if e not in (res.normal.v1, res.lam) and e + v0 in lam_vs:
                errors.append(f"the normal form keeps {e} although {e + v0} is in Λ")
        again = pb.to_normal_form(res.normal)
        if again.change_log:
            errors.append("reducing a normal form again changes it")
    return errors


def homothety_errors(a: dict, b: dict, v1: int) -> list:
    """a_v1 = b_v1 = 1 and (a_i/b_i)**(j - v1) = (a_j/b_j)**(i - v1)."""
    if sorted(a) != sorted(b):
        return [f"normal forms have supports {sorted(a)} and {sorted(b)}"]
    if a.get(v1) != 1 or b.get(v1) != 1:
        return ["a normal form's leading coefficient is not 1"]
    ratio = {e: a[e] / b[e] for e in a if e != v1}
    errors = []
    for i in ratio:
        for j in ratio:
            if i < j and ratio[i] ** (j - v1) != ratio[j] ** (i - v1):
                errors.append(f"the coefficients at {i} and {j} are not homothetic")
    return errors


# -- reproduce -------------------------------------------------------------


class Reproduce:
    """One pass of `planebranch reproduce` over the three bundled suites,
    through the CLI entry point, in process."""

    def __init__(self, seed: int):
        self.notes = {}

    def next_round(self):
        return [SUITES]

    def ops(self, inputs):
        return [lambda suites=suites: self.run(suites) for suites in inputs]

    @staticmethod
    def run(suites):
        out = []
        for suite in suites:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = pb.cli.main(["reproduce", suite])
            out.append((suite, status, buf.getvalue()))
        return out

    def check(self, inputs, outputs) -> list:
        errors = []
        for suite, status, text in outputs[0]:
            if status != 0:
                errors.append(f"reproduce {suite} exited with {status}")
            elif json.loads(text).get("ok") is not True:
                errors.append(f"reproduce {suite} does not report ok")
        return errors


WORKLOADS = {"invariants": Invariants, "normalform": NormalForm, "reproduce": Reproduce}
