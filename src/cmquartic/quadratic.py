"""Invariants of quadratic fields Q(sqrt(m)).

Fundamental discriminants, exact class numbers through reduced binary
quadratic forms, fundamental units through the continued-fraction (PQa)
expansion, and regulators.  Shipped real class numbers come from the form
cycles.  Shipped imaginary ones come from the B1 values of Kronecker
characters (`dirichlet`), so the form count `class_number_imaginary`
exists as a cross-check.

`quadratic_field` keeps the last FIELD_MEMO_SIZE real fields it built, so
the real quadratic subfield Q(sqrt(t^2+1)) shared by both members of a
pair, a family and both field kinds is built once per t.  A field caches
its own invariants only: the factorization of its discriminant, its
fundamental unit and, for a real field, its class number and its
regulator at each precision asked for, so what K+ fixes is computed once
and lives as long as K+.  What a quartic field derives from K+ is kept by
the module that derives it, or not kept: 2 reg(K+) / Q is an exact
doubling or reg(K+) itself (`cmfield.cm_regulator`), and the square roots
that the cyclic character check reads are `cyclic_quartic`'s.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import mpmath

from .arith import Factorization, factor
from .errors import ConsistencyError, DomainError
from .precision import (FIELD_MEMO_SIZE, HighPrecReal, check_precision_bits, hp_from_value,
                        workprec)


class QuadraticField(NamedTuple("QuadraticField", [("radicand", int), ("fund_disc", int)])):
    """Square-free radicand plus the fundamental discriminant it induces.

    `disc_factors`, the factorization of `fund_disc`, and for a real field
    its fundamental `unit` and `class_number`, are computed once, on first use;
    `regulators` holds what `regulator` computed, by precision.  It subclasses
    the NamedTuple of its fields, so it has a `__dict__` to hold them.
    """

    def radicand_primes(self) -> set[int]:
        """The primes of the radicand: those of odd exponent in the discriminant."""
        return {p for p, e in self.disc_factors.factors if e & 1}

    disc_factors = cached_property(lambda self: factor(self.fund_disc))
    unit = cached_property(lambda self: fundamental_unit(self))
    class_number = cached_property(lambda self: class_number_real(self))
    regulators = cached_property(lambda self: {})


class QuadraticUnit(NamedTuple):
    """Fundamental unit (x + y*sqrt(radicand))/denom > 1 of the maximal order."""

    x: int
    y: int
    denom: int
    radicand: int
    norm: int


def quadratic_field(m: int) -> QuadraticField:
    """Field of sqrt(m); the radicand is normalized to its square-free part.

    For m > 0, one of the last FIELD_MEMO_SIZE real fields built, when m
    was asked for then.  An imaginary field is built anew: the imaginary
    subfields of a pair are read by that pair only, and kept they would
    evict K+.
    """
    if m in (0, 1):
        raise DomainError(f"m = {m} does not define a quadratic field", code="E_PARAM_ZERO")
    return _field_memo(m) if m > 0 else _new_field(m)


def _new_field(m: int) -> QuadraticField:
    f = factor(m)
    return _field_of(f.sign, {p for p, e in f.factors if e & 1})


_field_memo = lru_cache(maxsize=FIELD_MEMO_SIZE)(_new_field)


def _field_of(sign: int, primes: set[int]) -> QuadraticField:
    """Q(sqrt(sign * prod(primes))), with the factorization of its discriminant filled in."""
    r = sign * math.prod(primes)
    exps = dict.fromkeys(primes, 1)
    if r % 4 != 1:
        exps[2] = exps.get(2, 0) + 2
    field = QuadraticField(radicand=r, fund_disc=r if r % 4 == 1 else 4 * r)
    # fills the cached property, so fund_disc is never factored
    object.__setattr__(field, "disc_factors", Factorization.from_exponents(sign, exps))
    return field


def product_field(F1: QuadraticField, F2: QuadraticField) -> QuadraticField:
    """Q(sqrt(r1 r2)), the third quadratic subfield of Q(sqrt(r1), sqrt(r2)).

    Its radicand (r1/g)(r2/g), g = gcd(r1, r2), has the primes of exactly
    one of r1, r2, so it is read off the two cached factorizations and
    r1 r2 is never factored.
    """
    sign = F1.disc_factors.sign * F2.disc_factors.sign
    return _field_of(sign, F1.radicand_primes() ^ F2.radicand_primes())


def is_fundamental_discriminant(D: int) -> bool:
    """D is the discriminant of Q(sqrt(D)); the square-free test reads the field memo."""
    if D == 1 or D == 0:
        return False
    if D % 4 == 1:
        return quadratic_field(D).radicand == D
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and quadratic_field(m).radicand == m
    return False


def _require_fundamental(D: int) -> None:
    if not is_fundamental_discriminant(D):
        raise DomainError(f"{D} is not a fundamental discriminant",
                          precondition="D fundamental")


def class_number_imaginary(D: int) -> int:
    """Count reduced primitive positive-definite forms of discriminant D < 0, in O(|D|).

    A test oracle: the shipped path takes h(D) from B1 of (D|.).
    """
    if D >= 0:
        raise DomainError(f"D = {D} is not negative", precondition="D < 0")
    _require_fundamental(D)
    h = 0
    b = D & 1
    while 3 * b * b <= -D:
        ac = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    # (a, 0, c), (a, a, c) and (a, b, a) count once; others pair with -b
                    h += 1 if (b == 0 or b == a or a == c) else 2
            a += 1
        b += 2
    return h


def _reduced_indefinite_forms(D: int) -> set[tuple[int, int, int]]:
    """All reduced primitive indefinite forms: 0 < b < sqrt(D) < b + 2|a| and 2|a| < sqrt(D) + b."""
    s = math.isqrt(D)
    forms: set[tuple[int, int, int]] = set()
    for b in range(1, s + 1):
        if (D - b) % 2:
            continue
        ac = (b * b - D) // 4  # negative
        mag = -ac
        d = 1
        while d * d <= mag:
            if mag % d == 0:
                for aa in (d, mag // d):
                    # sqrt(D) - b < 2*aa < sqrt(D) + b, decided exactly
                    if D >= (2 * aa + b) ** 2:
                        continue
                    if 2 * aa - b >= 0 and (2 * aa - b) ** 2 >= D:
                        continue
                    for a in (aa, -aa):
                        c = ac // a
                        if math.gcd(math.gcd(a, b), c) == 1:
                            forms.add((a, b, c))
            d += 1
    return forms


def _rho_step(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """Reduction step on reduced indefinite forms: (a,b,c) -> (c,b',c')."""
    _, b, c = form
    twoc = 2 * abs(c)
    b2 = s - (s - (-b) % twoc) % twoc
    c2 = (b2 * b2 - D) // (4 * c)
    return (c, b2, c2)


def narrow_class_number_real(D: int) -> int:
    """Number of cycles of reduced indefinite forms of discriminant D > 0."""
    if D <= 0:
        raise DomainError(f"D = {D} is not positive", precondition="D > 0")
    _require_fundamental(D)
    forms = _reduced_indefinite_forms(D)
    s = math.isqrt(D)
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for start in forms:
        if start in seen:
            continue
        cycles += 1
        g = start
        while g not in seen:
            seen.add(g)
            g = _rho_step(g, D, s)
            if g not in forms:
                raise ConsistencyError(f"reduction left the reduced set at {g} (D={D})")
    return cycles


def fundamental_unit(field: QuadraticField) -> QuadraticUnit:
    """Fundamental unit > 1 of the maximal order, by the PQa expansion.

    Expands w = sqrt(m) (m = 2, 3 mod 4) or w = (1 + sqrt(m))/2 (m = 1 mod 4)
    as (P + sqrt(m))/Q.  Q starts at 1 or 2 and stays positive, since every
    complete quotient after the first is reduced, so the partial quotient
    floor((P + sqrt(m))/Q) is (P + isqrt(m)) // Q.  The first return of Q
    to its starting value ends the period, and p - q*conj(w) is the unit
    for the last convergent p/q.
    """
    m = field.radicand
    if m <= 1:
        raise DomainError(f"radicand {m} has no fundamental unit",
                          precondition="radicand > 1")
    sq = math.isqrt(m)
    P, Q0 = (1, 2) if m % 4 == 1 else (0, 1)
    Q = Q0
    p1, p0 = 1, 0
    q1, q0 = 0, 1
    while True:
        a = (P + sq) // Q
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
        P = a * Q - P
        Q = (m - P * P) // Q
        if Q == Q0:
            break
    x, y, denom = (p1, q1, 1) if Q0 == 1 else (2 * p1 - q1, q1, 2)
    if denom == 2 and x % 2 == 0 and y % 2 == 0:
        x, y, denom = x // 2, y // 2, 1
    norm_scaled = x * x - m * y * y
    denom2 = denom * denom
    if norm_scaled not in (denom2, -denom2):
        raise ConsistencyError(f"unit identity failed for m={m}: {x},{y},{denom}")
    return QuadraticUnit(x=x, y=y, denom=denom, radicand=m,
                         norm=1 if norm_scaled > 0 else -1)


def class_number_real(field: QuadraticField) -> int:
    """Wide class number: the narrow count, halved when the unit norm is +1."""
    D = field.fund_disc
    narrow = narrow_class_number_real(D)
    if field.unit.norm == -1:
        return narrow
    if narrow % 2:
        raise ConsistencyError(f"odd narrow class number {narrow} with unit norm +1 (D={D})")
    return narrow // 2


def regulator(field: QuadraticField, precision_bits: int = 128) -> HighPrecReal:
    """log of the fundamental unit, with a stated error bound; once per field and precision."""
    check_precision_bits(precision_bits)
    reg = field.regulators.get(precision_bits)
    if reg is None:
        unit = field.unit
        with workprec(precision_bits):
            val = mpmath.log((unit.x + unit.y * mpmath.sqrt(unit.radicand)) / unit.denom)
        reg = field.regulators[precision_bits] = hp_from_value(val, precision_bits)
    return reg
