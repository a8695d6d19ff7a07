"""High-precision reals with an explicit error bound.

All regulator-flavoured quantities are mpmath floats computed with guard
bits and reported together with a conservative error bound, so downstream
equality checks can be tolerance-aware.

mpmath is imported by the functions that compute with it, on first use, so
`HighPrecReal`, a NamedTuple, and `MIN_PRECISION_BITS` cost no mpmath to
import: `sieve-t` never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    from mpmath import mpf

#: extra working bits beyond the requested precision
GUARD_BITS = 16

MIN_PRECISION_BITS = 64

#: entries of each bounded memo: the real fields of `quadratic.quadratic_field`,
#: the cyclic character check's square roots per radicand, and the closed-form
#: unit logs and the factors 2^r1 (2 pi)^r2 of `families`.  It lives here
#: because `families` loads this module at start-up and `quadratic` only on use
FIELD_MEMO_SIZE = 16


class HighPrecReal(NamedTuple):
    value: mpf
    error_bound: mpf
    precision_bits: int

    def to_decimal(self) -> str:
        import mpmath

        dps = int(self.precision_bits * 0.30103) + 2
        return mpmath.nstr(self.value, dps, strip_zeros=False)

    def doubled(self) -> "HighPrecReal":
        """2 * self, exactly: ldexp moves the binary exponent, and the bound doubles along."""
        import mpmath

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
    import mpmath

    return mpmath.workprec(precision_bits + GUARD_BITS)


def hp_from_value(value: mpf, precision_bits: int) -> HighPrecReal:
    """Wrap a freshly computed mpf; the bound covers the final few ulps."""
    import mpmath

    # |v| * 2^(2-b) + 2^(-b), the powers of two as exact binary shifts
    err = mpmath.ldexp(abs(value), 2 - precision_bits) + mpmath.ldexp(1, -precision_bits)
    return HighPrecReal(value, err, precision_bits)
