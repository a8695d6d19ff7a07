"""Imaginary biquadratic fields Q(sqrt(a), sqrt(b)).

A biquadratic field is determined by its three quadratic subfields, so
the canonical representation is the set of them, sorted by radicand.  The
module finds the maximal real subfield; a field supplies the conductors
|d(F)| of its three quadratic subfields F, its three radicands, its roots
of unity and, as its odd characters, the Kronecker characters of its two
imaginary quadratic subfields.  The discriminant, the Hasse unit index,
the regulator, the class number and the invariant record are the shared
stages of `cmfield`, bound here as `discriminant`, `hasse_Q`, `regulator`,
`class_number` and `field_invariants`.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .arith import Factorization, is_squarefree
from . import cmfield
from .errors import DomainError
from .quadratic import QuadraticField, product_field, quadratic_field

if TYPE_CHECKING:
    from .dirichlet import DirichletCharacter

# `dirichlet` is read as an attribute of the package, which loads it on the
# first character built: a field without a class number never loads it
_package = sys.modules[__package__]


class BiquadraticField(NamedTuple("BiquadraticField", [
        ("subfields", tuple[QuadraticField, QuadraticField, QuadraticField])])):
    """Canonical set of the three quadratic subfields, sorted by radicand.

    `disc`, `kplus` and `hasse_q` are computed once, on first use.
    """

    @property
    def conductors(self) -> tuple[Factorization, Factorization, Factorization]:
        """|d(F)| of each quadratic subfield F: the conductor of its character (d(F)|.)."""
        return tuple(Factorization(1, F.disc_factors.factors) for F in self.subfields)

    @property
    def radicands(self) -> tuple[int, int, int]:
        return tuple(F.radicand for F in self.subfields)

    def label(self) -> str:
        return f"B({self.radicands[0]},{self.radicands[1]},{self.radicands[2]})"

    @property
    def roots_of_unity(self) -> int:
        """w: 8 for Q(zeta8), 12 for Q(zeta12), 4 or 6 when K holds i or sqrt(-3), else 2."""
        self.kplus  # rejects a totally real field
        rads = set(self.radicands)
        if rads == {-1, 2, -2}:
            return 8
        if rads == {-1, 3, -3}:
            return 12
        if -1 in rads:
            return 4
        if -3 in rads:
            return 6
        return 2

    def odd_characters(self) -> list[DirichletCharacter]:
        """(D|.) for the imaginary quadratic subfields of K, by radicand: on |D| for
        an odd D, on lcm(|D|, 8) for an even one.

        In a pair B(-p, t^2+1), B(-2p, t^2+1), with m' = (t^2+1)/2, every D is
        even: -8pm' and -4p for the member at -p, -4pm' and -8p for the one at
        -2p.  So the moduli 8pm' and 8p line the members' characters up in
        couples, and they have the primes of D, so B1 is that of (D|.) mod |D|.
        For an odd D the lift to 8|D| would add the prime 2 and change B1, so
        an odd D is read on |D|.
        """
        kronecker_character = _package.dirichlet.kronecker_character
        return [kronecker_character(D, abs(D) if D % 2 else math.lcm(D, 8))
                for D in (F.fund_disc for F in self.subfields if F.radicand < 0)]

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


def maximal_real_subfield(K: BiquadraticField) -> QuadraticField:
    pos = [F for F in K.subfields if F.radicand > 0]
    if len(pos) != 1:
        raise DomainError(f"{K.label()} is totally real: no CM structure",
                          precondition="imaginary biquadratic")
    return pos[0]


discriminant = cmfield.discriminant
hasse_Q, regulator = cmfield.hasse_index, cmfield.cm_regulator
class_number, field_invariants = cmfield.class_number, cmfield.field_invariants


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
