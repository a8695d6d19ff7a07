"""What the biquadratic and cyclic quartic CM-fields share past disc(K) and K+.

The functions take a field with `disc`, `kplus`, `hasse_q` and `label()`.
`hasse_index` works the Hasse unit index Q = [E_K : W_K E_K+] out from the
fundamental unit eps of K+ (Washington, Introduction to Cyclotomic Fields,
Thm 4.12; Lemmermeyer, Kuroda's class number formula, Acta Arith. 66, 1994):
Q = 2 exactly when zeta*eps is a square in K for a root of unity zeta.
Both kinds get h^- from the B1 values of their odd characters through
`relative_class_number`, and a pair of either kind gets both class numbers
from `pair_class_numbers`: the kind supplies its couples of odd characters,
and the twist check and the one B1 kernel pass per couple are made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import Factorization
from .dirichlet import _bernoulli_B1s, kronecker_character
from .errors import ConsistencyError
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


def _has_sqrt(c: int, radicands: tuple[int, ...]) -> bool:
    """sqrt(c) lies in K: c is a square times 1 or times one of its radicands."""
    return any(c * r > 0 and math.isqrt(c * r) ** 2 == c * r for r in (1, *radicands))


def hasse_index(K, radicands: tuple[int, ...]) -> int:
    """Q in {1, 2} from the fundamental unit eps of K+ and the radicands of K's subfields.

    A unit of norm -1 gives Q = 1, since Q = 2 makes eps = eta * conj(eta)
    totally positive.  Otherwise M = 2 + Tr(eps) has eps * M = (1 + eps)^2,
    so zeta * eps is a square exactly when zeta * M is.  Modulo squares the
    roots of unity are 1, -1 and, when i is in K, i = (1 + i)^2 / 2; eps
    itself is no square, and Q(zeta8) has a unit of norm -1.  So Q = 2
    exactly when sqrt(-M) is in K, or i and sqrt(2M) are.  Q = 2 leaves
    K/K+ unramified outside 2, which disc(K)/disc(K+)^2 | 16 checks.
    """
    ratio, rem = divmod(K.disc.value(), K.kplus.fund_disc**2)
    if rem:
        raise ConsistencyError(f"disc(K+)^2 does not divide disc(K) for {K.label()}")
    unit = K.kplus.unit
    if unit.norm == -1:
        return 1
    M = 2 + 2 * unit.x // unit.denom
    if not (_has_sqrt(-M, radicands) or (-1 in radicands and _has_sqrt(2 * M, radicands))):
        return 1
    if 16 % ratio:
        raise ConsistencyError(f"Q = 2 for {K.label()}, but K/K+ ramifies at an odd prime")
    return 2


def cm_regulator(K, precision_bits: int) -> HighPrecReal:
    """2 * reg(K+) / Q, the quartic CM regulator identity.

    Q is 1 or 2, so this is reg(K+) doubled, exactly, or reg(K+) itself,
    read from K+ at each precision.
    """
    reg = quadratic.regulator(K.kplus, precision_bits)
    return reg if K.hasse_q == 2 else reg.doubled()


def relative_class_number(b1_values, Q: int, w: int) -> int:
    """h^- = Q * w * prod(-B1/2) over the odd characters of K, a positive integer.

    Washington, Introduction to Cyclotomic Fields, Thm 4.17.  `b1_values`
    holds B1 of every odd character: chi and its conjugate for a cyclic
    quartic field, the Kronecker characters of the two imaginary quadratic
    subfields for a biquadratic one.  The product is taken as a Gaussian
    integer a + b*i over the product d of the values' denominators, so h^-
    is one integer division.
    """
    a, b, d = 1, 0, 1
    for v in b1_values:
        re, im = v.re, v.im
        den = math.lcm(re.denominator, im.denominator)
        x, y = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        a, b, d = a * x - b * y, a * y + b * x, d * den
    if b != 0:
        raise ConsistencyError("the product of the B1 values is not real")
    num, den = Q * w * a, d * (-2) ** len(b1_values)
    h, rem = divmod(num, den)
    if rem or h <= 0:
        raise ConsistencyError(
            f"relative class number {Fraction(num, den)} is not a positive integer "
            f"(wrong characters, Q or w)")
    return h


def pair_class_numbers(Ka, Kb, couples, w: int) -> tuple[int, int]:
    """(h(Ka), h(Kb)) for the members at -p and -2p of a pair, from couples of odd characters.

    In both families the member at -2p has the odd characters of the member
    at -p times eps = (8|.): for K(-p,t), K(-2p,t) by Hardy, Hudson, Richman,
    Williams and Holtz (1986), and for B(-p,t^2+1), B(-2p,t^2+1), with
    m' = (t^2+1)/2, since (-8p|n) = (-4p|n)(8|n) and (-4pm'|n) = (-8pm'|n)(8|n)
    on odd n.  Each couple (chi_a, chi_b) holds an odd character of each
    member on one modulus, a multiple of 8, and chi_b must be chi_a * eps or
    its conjugate; anything else is a ConsistencyError.  One kernel pass per
    couple sums chi_a and chi_a * eps.  A quartic character stands for its
    conjugate too, whose B1 is the conjugate B1, so h reads a quartic B1 only
    through B1 * conj(B1) and conj(chi_a * eps) gives the same h.  Both
    members have w roots of unity.
    """
    b1_a, b1_b = [], []
    for chi_a, chi_b in couples:
        twin = chi_a * kronecker_character(8, chi_a.modulus)
        if chi_b not in (twin, twin.conjugate()):
            raise ConsistencyError(f"chi_b with exponents {chi_b.exponents} is neither "
                                   f"chi_a * eps {twin.exponents} nor its conjugate")
        for values, b1 in zip((b1_a, b1_b), _bernoulli_B1s((chi_a, twin))):
            values += (b1, b1.conjugate()) if chi_a.order == 4 else (b1,)
    return tuple(relative_class_number(values, K.hasse_q, w) * K.kplus.class_number
                 for K, values in ((Ka, b1_a), (Kb, b1_b)))
