"""Independent routes that only the tests use: an analytic class number, a
tolerance check on high-precision reals and their rational rescale, a
parity-first enumeration of the characters that square to a quadratic
character, arithmetic in Q(i) (sums, products and conjugates) and h^- as
a product of Gaussian rationals, the B1 split chosen by a search over
every side, and two readers of results: a prime's exponent in a
factorization and whether a pair report's flags all hold.

Nothing in `cmquartic` calls these, so they live beside the tests that
cross-check the shipped routes with them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
from mpmath import mpf

from cmquartic.arith import Factorization, kronecker
from cmquartic.dirichlet import DirichletCharacter, GaussianRational, components, unit_group
from cmquartic.errors import ConsistencyError, DomainError
from cmquartic.families import PairReport
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
    raise ArithmeticError(f"analytic class number for D={D} did not settle "
                          f"(residual {float(residual):.3f})")


def agrees_with(x: HighPrecReal, y: HighPrecReal, rel_tol_bits: int) -> bool:
    """True when the two values match to at least rel_tol_bits significant bits."""
    with mpmath.workprec(max(x.precision_bits, y.precision_bits) + GUARD_BITS):
        scale = max(abs(x.value), abs(y.value))
        if scale == 0:
            return True
        return abs(x.value - y.value) <= scale * mpf(2) ** (-rel_tol_bits)


def rescaled(x: HighPrecReal, num: int, den: int) -> HighPrecReal:
    """x * num/den under workprec, the error bound scaled along: the general
    rational rescale that 2 reg(K+) / Q once went through."""
    with mpmath.workprec(x.precision_bits + GUARD_BITS):
        value = x.value * num / den
        err = x.error_bound * abs(mpf(num)) / abs(den)
    return HighPrecReal(value, err, x.precision_bits)


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


#: the four powers of i as exact Gaussian rationals
I_POWERS = tuple(GaussianRational(Fraction(re), Fraction(im))
                 for re, im in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def gaussian_sum(*values: GaussianRational) -> GaussianRational:
    return GaussianRational(sum(z.re for z in values), sum(z.im for z in values))


def conjugate(z: GaussianRational) -> GaussianRational:
    return GaussianRational(z.re, -z.im)


def gaussian_product(*values: GaussianRational) -> GaussianRational:
    prod = I_POWERS[0]
    for z in values:
        prod = GaussianRational(prod.re * z.re - prod.im * z.im, prod.re * z.im + prod.im * z.re)
    return prod


def character_value(chi: DirichletCharacter, a: int) -> GaussianRational:
    """chi(a) as a Gaussian rational: i^k from `value_exponent`, or 0."""
    k = chi.value_exponent(a)
    return GaussianRational(Fraction(0), Fraction(0)) if k is None else I_POWERS[k]


def relative_class_number_by_fractions(b1_values, Q: int, w: int) -> int:
    """h^- = Q * w * prod(-B1/2), with the product taken in Gaussian rationals.

    The reference for `cmfield.relative_class_number`, which takes the
    product in Gaussian integers over one denominator; both raise the same
    errors with the same messages.
    """
    prod = gaussian_product(*b1_values)
    if prod.im != 0:
        raise ConsistencyError("the product of the B1 values is not real")
    h = Fraction(Q * w, (-2) ** len(b1_values)) * prod.re
    if h.denominator != 1 or h <= 0:
        raise ConsistencyError(
            f"relative class number {h} is not a positive integer "
            f"(wrong characters, Q or w)")
    return int(h)


def exponent(n: Factorization, p: int) -> int:
    """The exponent of the prime p in n, 0 when p does not divide it."""
    return dict(n.factors).get(p, 0)


def all_flags_true(rep: PairReport) -> bool:
    """Whether a pair report says the members are distinct with equal disc and regulator."""
    return rep.distinct and rep.disc_equal and rep.reg_equal


def loop_side_by_combinations(parts):
    """The side `dirichlet._loop_side` picks, by `min` over `itertools.combinations`.

    Of the sides on which psi is nontrivial, the first with the least
    (max(m, f/m), m), in order of size and then of position in `parts`.
    """
    f = math.prod(g.modulus for g, _ in parts)

    def size(side) -> tuple[int, int]:
        m = math.prod(g.modulus for g, _ in side)
        return max(m, f // m), m

    return min((side for r in range(1, len(parts) + 1)
                for side in itertools.combinations(parts, r)
                if any(any(values) for _, values in side)), key=size)
