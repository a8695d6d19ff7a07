"""Imaginary biquadratic fields Q(sqrt(a), sqrt(b)).

A biquadratic field is determined by its three quadratic subfields, so
the canonical representation is the set of them, sorted by radicand.  The
module computes discriminants by the conductor-discriminant product, regulators
through the maximal real subfield, the Hasse unit index from its unit, and
class numbers as h^- * h(K+), with h^- from the Kronecker characters of the
two imaginary quadratic subfields, `odd_characters`, which a pair reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .arith import Factorization, is_squarefree
from .cmfield import FieldInvariants, cm_regulator, hasse_index, relative_class_number
from .dirichlet import DirichletCharacter, kronecker_character
from .errors import ConsistencyError, DomainError
from .precision import HighPrecReal
from .quadratic import QuadraticField, product_field, quadratic_field


@dataclass(frozen=True)
class BiquadraticField:
    """Canonical set of the three quadratic subfields, sorted by radicand.

    `disc`, `kplus` and `hasse_q` are computed once, on first use.
    """

    subfields: tuple[QuadraticField, QuadraticField, QuadraticField]

    @property
    def radicands(self) -> tuple[int, int, int]:
        return tuple(F.radicand for F in self.subfields)

    def label(self) -> str:
        return f"B({self.radicands[0]},{self.radicands[1]},{self.radicands[2]})"

    disc = cached_property(lambda self: discriminant(self))
    kplus = cached_property(lambda self: maximal_real_subfield(self))
    hasse_q = cached_property(lambda self: hasse_Q(self))


def biquadratic(a: int, b: int) -> BiquadraticField:
    """Field Q(sqrt(a), sqrt(b)); radicands are normalized square-free parts.

    0 is E_PARAM_ZERO; any square, 1 included, is a perfect-square DomainError.
    The subfields of a and b come from `quadratic_field`, and the third from
    their factorizations, so a*b is never factored.
    """
    if a == 0 or b == 0:
        raise DomainError(f"radicands ({a}, {b}) must be nonzero", code="E_PARAM_ZERO")
    for n in (a, b):
        if n > 0 and math.isqrt(n) ** 2 == n:
            raise DomainError(f"{n} is a perfect square: sqrt({n}) is rational",
                              precondition="a and b not perfect squares")
    Fa, Fb = quadratic_field(a), quadratic_field(b)
    if Fa == Fb:
        raise DomainError(
            f"sqrt({a}) and sqrt({b}) generate the same quadratic field",
            precondition="distinct square-free parts",
        )
    subfields = sorted((Fa, Fb, product_field(Fa, Fb)), key=lambda F: F.radicand)
    return BiquadraticField(tuple(subfields))


def discriminant(K: BiquadraticField) -> Factorization:
    """Product of the three quadratic subfield fundamental discriminants."""
    result = math.prod((F.disc_factors for F in K.subfields), start=Factorization(1, ()))
    if result.sign <= 0:
        raise ConsistencyError(f"non-positive quartic discriminant for {K.label()}")
    return result


def maximal_real_subfield(K: BiquadraticField) -> QuadraticField:
    pos = [F for F in K.subfields if F.radicand > 0]
    if len(pos) != 1:
        raise DomainError(f"{K.label()} is totally real: no CM structure",
                          precondition="imaginary biquadratic")
    return pos[0]


def hasse_Q(K: BiquadraticField) -> int:
    """Q from the unit of K+; sqrt(c) is in K when c is a square times 1 or a radicand."""
    return hasse_index(K, K.radicands)


def regulator(K: BiquadraticField, precision_bits: int = 128) -> HighPrecReal:
    """2 * reg(K+) / Q, the quartic CM regulator identity."""
    return cm_regulator(K, precision_bits)


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


def odd_characters(K: BiquadraticField) -> list[DirichletCharacter]:
    """(D|.) for the imaginary quadratic subfields of K, by radicand: on |D| for
    an odd D, on lcm(|D|, 8) for an even one.

    In a pair B(-p, t^2+1), B(-2p, t^2+1), with m' = (t^2+1)/2, every D is
    even: -8pm' and -4p for the member at -p, -4pm' and -8p for the one at
    -2p.  So the moduli 8pm' and 8p line the members' characters up in
    couples, and they have the primes of D, so B1 is that of (D|.) mod |D|.
    For an odd D the lift to 8|D| would add the prime 2 and change B1, so
    an odd D is read on |D|.
    """
    return [kronecker_character(D, abs(D) if D % 2 else math.lcm(D, 8))
            for D in (F.fund_disc for F in K.subfields if F.radicand < 0)]


def class_number(K: BiquadraticField) -> int:
    """h(K) = h^- * h(K+), with h^- over the odd characters (D1|.) and (D2|.).

    D1, D2 are the discriminants of the imaginary quadratic subfields;
    since -B1((D|.))/2 = h(D)/w(D), this is Q * w * h1 * h2 * h(K+) / (w1 * w2).
    """
    (h_minus,) = relative_class_number([(chi,) for chi in odd_characters(K)], (K.hasse_q,),
                                       roots_of_unity_order(K))
    return h_minus * K.kplus.class_number


def paper_pair(m1: int, m2: int) -> tuple[BiquadraticField, BiquadraticField]:
    """The equal-invariant pair (B(-m1, 2*m2), B(-2*m1, 2*m2)).

    Requires m1, m2 > 1 square-free, coprime, both 1 mod 4; the two
    fields are then distinct with equal discriminant 2^8 m1^2 m2^2 and
    equal regulator 2*reg(Q(sqrt(2*m2))).
    """
    for name, m in (("m1", m1), ("m2", m2)):
        if m <= 1:
            raise DomainError(f"{name} = {m} must exceed 1", precondition=f"{name} > 1")
        if not is_squarefree(m):
            raise DomainError(f"{name} = {m} is not square-free",
                              precondition=f"{name} square-free")
        if m % 4 != 1:
            raise DomainError(f"{name} = {m} violates {name} = 1 (mod 4)",
                              precondition=f"{name} = 1 (mod 4)")
    if math.gcd(m1, m2) != 1:
        raise DomainError(f"gcd({m1}, {m2}) != 1", precondition="gcd(m1, m2) = 1")
    return biquadratic(-m1, 2 * m2), biquadratic(-2 * m1, 2 * m2)


def field_invariants(K: BiquadraticField, precision_bits: int = 128,
                     with_class_number: bool = False) -> FieldInvariants:
    h = class_number(K) if with_class_number else None
    return FieldInvariants(
        disc=K.disc,
        regulator=regulator(K, precision_bits),
        hasse_q=K.hasse_q,
        roots_of_unity=roots_of_unity_order(K),
        class_number=h,
    )
