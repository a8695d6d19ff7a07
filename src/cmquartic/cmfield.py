"""What the biquadratic and cyclic quartic CM-fields share past disc(K) and K+.

The functions take a field with `disc`, `kplus`, `hasse_q` and `label()`.
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
    hasse_q: int | None  # None = unresolved
    roots_of_unity: int
    class_number: int | None
    r1: int = 0
    r2: int = 2


def hasse_index(K) -> int | None:
    """1 when disc(K)/disc(K+)^2 does not divide 16; None when unresolved."""
    ratio, rem = divmod(K.disc.value(), K.kplus.fund_disc**2)
    if rem:
        raise ConsistencyError(f"disc(K+)^2 does not divide disc(K) for {K.label()}")
    return 1 if 16 % ratio else None


def resolved_q(K, q: int | None, hint: str = "") -> int:
    """q itself; an unresolved index is an E_Q_UNRESOLVED domain error."""
    if q is None:
        raise DomainError(f"Hasse index of {K.label()} is unresolved{hint}",
                          code="E_Q_UNRESOLVED")
    return q


def cm_regulator(K, q: int, precision_bits: int) -> HighPrecReal:
    """2 * reg(K+) / Q, the quartic CM regulator identity."""
    return quadratic.regulator(K.kplus, precision_bits).scaled(2, q)
