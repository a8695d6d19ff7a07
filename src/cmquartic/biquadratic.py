"""Imaginary biquadratic fields Q(sqrt(a), sqrt(b)).

A biquadratic field is determined by its three quadratic subfields, so
the canonical representation is the set of their radicands.  The module
computes discriminants by the conductor-discriminant product, regulators
through the maximal real subfield, the Hasse unit index bound, and class
numbers as h^- * h(K+), with h^- from the B1 values of the Kronecker
characters of the two imaginary quadratic subfields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .arith import Factorization, factor, squarefree_part
from .cmfield import (FieldInvariants, checked_q, cm_regulator, hasse_index,
                      relative_class_number)
from .dirichlet import bernoulli_B1, kronecker_character
from .errors import ConsistencyError, DomainError
from .precision import HighPrecReal
from . import quadratic
from .quadratic import QuadraticField, quadratic_field


@dataclass(frozen=True)
class BiquadraticField:
    """Canonical set of the three quadratic subfield radicands, sorted.

    `disc`, `kplus` and `hasse_q` are computed once, on first use.
    """

    radicands: tuple[int, int, int]

    def label(self) -> str:
        return f"B({self.radicands[0]},{self.radicands[1]},{self.radicands[2]})"

    disc = cached_property(lambda self: discriminant(self))
    kplus = cached_property(lambda self: maximal_real_subfield(self))
    hasse_q = cached_property(lambda self: hasse_Q(self))


def biquadratic(a: int, b: int) -> BiquadraticField:
    """Field Q(sqrt(a), sqrt(b)); radicands are normalized square-free parts."""
    if a in (0, 1) or b in (0, 1):
        raise DomainError(f"radicands ({a}, {b}) must avoid 0 and 1", code="E_PARAM_ZERO")
    ra = squarefree_part(a).value
    rb = squarefree_part(b).value
    if ra == rb:
        raise DomainError(
            f"sqrt({a}) and sqrt({b}) generate the same quadratic field",
            precondition="distinct square-free parts",
        )
    rc = squarefree_part(ra * rb).value
    rads = tuple(sorted({ra, rb, rc}))
    if len(rads) != 3 or 1 in rads:
        raise ConsistencyError(f"radicand closure failed for ({a}, {b}): {rads}")
    return BiquadraticField(rads)


def discriminant(K: BiquadraticField) -> Factorization:
    """Product of the three quadratic subfield fundamental discriminants."""
    result = Factorization(1, ())
    for r in K.radicands:
        result = result * factor(quadratic_field(r).fund_disc)
    if result.sign <= 0:
        raise ConsistencyError(f"non-positive quartic discriminant for {K.label()}")
    return result


def maximal_real_subfield(K: BiquadraticField) -> QuadraticField:
    pos = [r for r in K.radicands if r > 0]
    if len(pos) != 1:
        raise DomainError(f"{K.label()} is totally real: no CM structure",
                          precondition="imaginary biquadratic")
    return quadratic_field(pos[0])


def hasse_Q(K: BiquadraticField) -> int:
    """1 when disc(K)/disc(K+)^2 does not divide 2^4; otherwise E_Q_UNRESOLVED."""
    return hasse_index(K, "; pass Q_override")


def _q(K: BiquadraticField, Q_override: int | None) -> int:
    """The override, checked to be 1 or 2, else K.hasse_q."""
    return checked_q(Q_override) if Q_override is not None else K.hasse_q


def regulator(K: BiquadraticField, precision_bits: int = 128,
              Q_override: int | None = None) -> HighPrecReal:
    """2 * reg(K+) / Q, the quartic CM regulator identity."""
    return cm_regulator(K, _q(K, Q_override), precision_bits)


def roots_of_unity_order(K: BiquadraticField) -> int:
    K.kplus  # rejects a totally real field
    rads = set(K.radicands)
    if rads == {-1, 2, -2}:
        return 8
    if rads == {-1, 3, -3}:
        return 12
    if -1 in rads:
        return 4
    if -3 in rads:
        return 6
    return 2


def class_number(K: BiquadraticField, Q_override: int | None = None) -> int:
    """h(K) = h^- * h(K+), with h^- over the odd characters (D1|.) and (D2|.).

    D1, D2 are the discriminants of the imaginary quadratic subfields;
    since -B1((D|.))/2 = h(D)/w(D), this is Q * w * h1 * h2 * h(K+) / (w1 * w2).
    """
    Q = _q(K, Q_override)
    b1_values = [bernoulli_B1(kronecker_character(quadratic_field(r).fund_disc))
                 for r in K.radicands if r < 0]
    h_minus = relative_class_number(b1_values, Q, roots_of_unity_order(K))
    return h_minus * quadratic.class_number_real(K.kplus.fund_disc)


def paper_pair(m1: int, m2: int) -> tuple[BiquadraticField, BiquadraticField]:
    """The equal-invariant pair (B(-m1, 2*m2), B(-2*m1, 2*m2)).

    Requires m1, m2 > 1 square-free, coprime, both 1 mod 4; the two
    fields are then distinct with equal discriminant 2^8 m1^2 m2^2 and
    equal regulator 2*reg(Q(sqrt(2*m2))).
    """
    for name, m in (("m1", m1), ("m2", m2)):
        if m <= 1:
            raise DomainError(f"{name} = {m} must exceed 1", precondition=f"{name} > 1")
        if squarefree_part(m).cofactor != 1:
            raise DomainError(f"{name} = {m} is not square-free",
                              precondition=f"{name} square-free")
        if m % 4 != 1:
            raise DomainError(f"{name} = {m} violates {name} = 1 (mod 4)",
                              precondition=f"{name} = 1 (mod 4)")
    if math.gcd(m1, m2) != 1:
        raise DomainError(f"gcd({m1}, {m2}) != 1", precondition="gcd(m1, m2) = 1")
    return biquadratic(-m1, 2 * m2), biquadratic(-2 * m1, 2 * m2)


def field_invariants(K: BiquadraticField, precision_bits: int = 128,
                     with_class_number: bool = False,
                     Q_override: int | None = None) -> FieldInvariants:
    q = _q(K, Q_override)
    h = class_number(K, Q_override=q) if with_class_number else None
    return FieldInvariants(
        disc=K.disc,
        regulator=regulator(K, precision_bits, Q_override=q),
        hasse_q=q,
        roots_of_unity=roots_of_unity_order(K),
        class_number=h,
    )
