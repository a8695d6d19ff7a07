"""What the biquadratic and cyclic quartic CM-fields share past disc(K) and K+.

The functions take a field with `disc`, `kplus`, `hasse_q` and `label()`.
The Hasse unit index Q = [E_K : W_K E_K+] is always an int: `hasse_index`
returns 1 or raises E_Q_UNRESOLVED for the fields its rule cannot settle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Factorization
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
