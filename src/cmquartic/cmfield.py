"""What the biquadratic and cyclic quartic CM-fields share past disc(K) and K+.

The functions take a field with `disc`, `kplus`, `hasse_q` and `label()`.
The Hasse unit index Q = [E_K : W_K E_K+] is always an int: `hasse_index`
returns 1 or raises E_Q_UNRESOLVED for the fields its rule cannot settle.
Both kinds get h^- from the B1 values of their odd characters through
`relative_class_number`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization
from .dirichlet import I_POWERS
from .errors import ConsistencyError, DomainError
from .precision import HighPrecReal
from . import quadratic


@dataclass(frozen=True)
class FieldInvariants:
    """Comparison payload of a quartic field: everything the residue formula needs."""

    disc: Factorization
    regulator: HighPrecReal
    hasse_q: int
    roots_of_unity: int
    class_number: int | None
    r1: int = 0
    r2: int = 2


def hasse_index(K, hint: str = "") -> int:
    """1 when disc(K)/disc(K+)^2 does not divide 16; else an E_Q_UNRESOLVED error."""
    ratio, rem = divmod(K.disc.value(), K.kplus.fund_disc**2)
    if rem:
        raise ConsistencyError(f"disc(K+)^2 does not divide disc(K) for {K.label()}")
    if 16 % ratio == 0:
        raise DomainError(f"Hasse index of {K.label()} is unresolved{hint}",
                          code="E_Q_UNRESOLVED")
    return 1


def cm_regulator(K, q: int, precision_bits: int) -> HighPrecReal:
    """2 * reg(K+) / Q, the quartic CM regulator identity."""
    return quadratic.regulator(K.kplus, precision_bits).scaled(2, q)


def checked_q(Q: int) -> int:
    """Q itself when it can be a quartic CM unit index, 1 or 2; else a DomainError."""
    if Q not in (1, 2):
        raise DomainError(f"Q must be 1 or 2, got {Q}")
    return Q


def relative_class_number(b1_values, Q: int, w: int) -> int:
    """h^- = Q * w * prod(-B1/2) over the odd characters of K, a positive integer.

    Washington, Introduction to Cyclotomic Fields, Thm 4.17.  `b1_values`
    holds B1 of every odd character: chi and its conjugate for a cyclic
    quartic field, the Kronecker characters of the two imaginary quadratic
    subfields for a biquadratic one.
    """
    prod = math.prod(b1_values, start=I_POWERS[0])
    if prod.im != 0:
        raise ConsistencyError("the product of the B1 values is not real")
    h = Fraction(checked_q(Q) * w, (-2) ** len(b1_values)) * prod.re
    if h.denominator != 1 or h <= 0:
        raise ConsistencyError(
            f"relative class number {h} is not a positive integer "
            f"(wrong characters, Q or w)")
    return int(h)
