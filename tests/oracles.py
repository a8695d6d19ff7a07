"""Independent routes that only the tests use: an analytic class number, a
tolerance check on high-precision reals and their rational rescale, a
parity-first enumeration of the characters that square to a quadratic
character, arithmetic in Q(i) (sums, products and conjugates) and h^- as
a product of Gaussian rationals, the B1 split chosen by a search over
every side, the discriminant of a cyclic quartic field by its radical
form, and two readers of results: a prime's exponent in a factorization
and whether a pair report's flags all hold.

Nothing in `cmquartic` calls these, so they live beside the tests that
cross-check the shipped routes with them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
from mpmath import mpf

from cmquartic.arith import Factorization, factor, kronecker, squarefree_part
from cmquartic.dirichlet import DirichletCharacter, GaussianRational, components, unit_group
from cmquartic.errors import ConsistencyError, DomainError
from cmquartic.families import PairReport
from cmquartic.precision import GUARD_BITS, HighPrecReal, workprec
from cmquartic.quadratic import (QuadraticField, is_fundamental_discriminant, quadratic_field,
                                  regulator)


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


def hsw_discriminant(a: int, b: int, c: int) -> Factorization:
    """Discriminant 2^8 gcd(a,b)^2 c^3 / gcd(a,b,c)^2 of Q(sqrt(a + b sqrt(c))).

    Valid when c and gcd(a,b) are square-free and the inputs satisfy one
    of the two congruence patterns below; anything else is rejected.  The
    reference for the conductor-discriminant product of a cyclic field.
    """
    cond_a = a % 8 == 4 and b % 4 == 2 and c % 8 == 2
    cond_b = a % 4 == 2 and b % 2 == 1 and c % 8 == 2
    if not (cond_a or cond_b):
        raise DomainError(
            f"(a, b, c) = ({a}, {b}, {c}) satisfies neither congruence condition "
            "(a): a=4 mod 8, b=2 mod 4, c=2 mod 8, nor (b): a=2 mod 4, b odd, c=2 mod 8",
            precondition="condition (a) or (b)",
        )
    field_c = quadratic_field(c)
    if field_c.radicand != c:
        raise DomainError(f"c = {c} is not square-free", precondition="c square-free")
    g1 = math.gcd(a, b)
    f1 = factor(g1)
    if any(e > 1 for _, e in f1.factors):
        raise DomainError(f"gcd(a, b) = {g1} is not square-free",
                          precondition="gcd(a, b) square-free")
    # with g1 and c square-free, a prime of both has 2 + 3 - 2 = 3 in the exponent
    exps = dict.fromkeys((p for p, _ in f1.factors), 2)
    exps.update(dict.fromkeys(field_c.radicand_primes(), 3))
    exps[2] += 8  # c = 2 (mod 8), so 2 is a prime of c
    return Factorization.from_exponents(field_c.disc_factors.sign, exps)


def radical_form(s: int, t: int) -> tuple[int, int, int]:
    """(a, b, c) with K(s,t) = Q(sqrt(a + b sqrt(c))), c and n square-free.

    t^2+1 = x^4 n^2 c, and s(t^2+1 + sqrt(t^2+1)) is x^2 times
    a + b sqrt(c) with a = s x^2 n^2 c, b = s n.
    """
    m = t * t + 1
    c = quadratic_field(m).radicand
    n, x = squarefree_part(math.isqrt(m // c))
    return s * x * x * n * n * c, s * n, c


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
