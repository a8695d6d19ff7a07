"""High-precision reals with an explicit error bound.

All regulator-flavoured quantities are mpmath floats computed with guard
bits and reported together with a conservative error bound, so downstream
equality checks can be tolerance-aware.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpf

from .errors import DomainError

#: extra working bits beyond the requested precision
GUARD_BITS = 16

MIN_PRECISION_BITS = 64


@dataclass(frozen=True)
class HighPrecReal:
    value: mpf
    error_bound: mpf
    precision_bits: int

    def to_decimal(self) -> str:
        dps = int(self.precision_bits * 0.30103) + 2
        return mpmath.nstr(self.value, dps, strip_zeros=False)

    def doubled(self) -> "HighPrecReal":
        """2 * self, exactly: ldexp moves the binary exponent, and the bound doubles along."""
        return HighPrecReal(mpmath.ldexp(self.value, 1), mpmath.ldexp(self.error_bound, 1),
                            self.precision_bits)


def check_precision_bits(precision_bits: int) -> None:
    if precision_bits < MIN_PRECISION_BITS:
        raise DomainError(
            f"precision_bits {precision_bits} < minimum {MIN_PRECISION_BITS}",
            precondition=f"precision_bits >= {MIN_PRECISION_BITS}",
        )


def workprec(precision_bits: int):
    """mpmath context manager at the requested precision plus guard bits."""
    return mpmath.workprec(precision_bits + GUARD_BITS)


def hp_from_value(value: mpf, precision_bits: int) -> HighPrecReal:
    """Wrap a freshly computed mpf; the bound covers the final few ulps."""
    err = abs(value) * mpf(2) ** (2 - precision_bits) + mpf(2) ** (-precision_bits)
    return HighPrecReal(value, err, precision_bits)
