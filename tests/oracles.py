"""Independent routes that only the tests use: an analytic class number, a
tolerance check on high-precision reals, and a parity-first enumeration of
the characters that square to a quadratic character.

Nothing in `cmquartic` calls these, so they live beside the tests that
cross-check the shipped routes with them.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

from cmquartic.arith import kronecker
from cmquartic.dirichlet import DirichletCharacter, components, unit_group
from cmquartic.errors import DomainError, PrecisionError
from cmquartic.precision import GUARD_BITS, HighPrecReal, workprec
from cmquartic.quadratic import QuadraticField, is_fundamental_discriminant, regulator


def analytic_class_number_oracle(D: int, precision_bits: int = 64) -> int:
    """Class number by the analytic formula; independent of the form counts.

    Negative D uses the exact weighted character sum; positive D sums
    -kron(D,a)*log sin(pi a / D) and divides by twice the regulator.
    The rounding residual must stay within 0.4, with up to 4 automatic
    precision doublings before giving up.
    """
    if not is_fundamental_discriminant(D):
        raise DomainError(f"{D} is not a fundamental discriminant",
                          precondition="D fundamental")
    if abs(D) > 10**6:
        raise DomainError(f"|D| = {abs(D)} exceeds the oracle bound 10^6")
    chi = [kronecker(D, a) for a in range(abs(D))]
    for attempt in range(5):
        bits = precision_bits << attempt
        with workprec(bits):
            if D < 0:
                w = 6 if D == -3 else 4 if D == -4 else 2
                S = sum(a * chi[a] for a in range(1, -D))
                # L(1, chi) = -pi * S / |D|^(3/2); the 2*pi and sqrt|D| cancel to -w*S/(2|D|)
                approx = mpf(-w * S) / (2 * -D)
            else:
                reg = regulator(QuadraticField(D if D % 4 == 1 else D // 4, D), bits)
                total = mpf(0)
                pi_over_d = mpmath.pi / D
                for a in range(1, D):
                    if chi[a]:
                        total -= chi[a] * mpmath.log(mpmath.sin(pi_over_d * a))
                approx = total / (2 * reg.value)
            h = int(mpmath.nint(approx))
            residual = abs(approx - h)
            if residual <= mpf("0.4") and h >= 1:
                return h
    raise PrecisionError(f"analytic class number for D={D} did not settle "
                         f"(residual {float(residual):.3f})")


def agrees_with(x: HighPrecReal, y: HighPrecReal, rel_tol_bits: int) -> bool:
    """True when the two values match to at least rel_tol_bits significant bits."""
    with mpmath.workprec(max(x.precision_bits, y.precision_bits) + GUARD_BITS):
        scale = max(abs(x.value), abs(y.value))
        if scale == 0:
            return True
        return abs(x.value - y.value) <= scale * mpf(2) ** (-rel_tol_bits)


def component_lifts(f: int) -> tuple[int, ...]:
    """Per component of (Z/f)^*: its generator modulo its prime power, 1 modulo the others.

    The j-th lift has the j-th unit vector as its exponent vector.
    """
    # (f/pe) * ((f/pe)^-1 mod pe) is 1 mod pe and 0 mod the other prime powers
    return tuple((1 + (c.generator - 1) * (f // g.modulus) * pow(f // g.modulus, -1, g.modulus))
                 % f for g in unit_group(f) for c in g.components)


def square_parities(f: int, D: int) -> tuple[int, ...] | None:
    """Exponent parities q_j mod 2 of every chi mod f with chi^2 = (D|.), or None if none.

    chi^2 takes the value (-1)^q_j at the j-th component lift, so it is
    the quadratic character (D|.) exactly when each q_j has the parity
    that (D|lift_j) = +-1 asks for; (D|lift_j) = 0 admits no chi.
    """
    signs = [kronecker(D, g) for g in component_lifts(f)]
    return None if 0 in signs else tuple(int(k < 0) for k in signs)


def characters_squaring_to(f: int, D: int) -> list[DirichletCharacter]:
    """The characters chi mod f with chi^4 = 1 and chi^2 = (D|.), parity first.

    Each exponent's parity is fixed by `square_parities`, so at most 2 of
    the 4 choices remain per component, and the 4^k characters of order
    dividing 4 are never built.  Exponent vectors come in lexicographic
    order, as in `characters_of_order_dividing_4`.
    """
    parities = square_parities(f, D)
    if parities is None:
        return []
    vectors: list[tuple[int, ...]] = [()]
    for comp, parity in zip(components(f), parities):
        step = 1 if comp.order % 4 == 0 else 2 if comp.order % 2 == 0 else 4
        vectors = [v + (q,) for v in vectors for q in range(0, 4, step) if q % 2 == parity]
    return [DirichletCharacter(f, v) for v in vectors]
