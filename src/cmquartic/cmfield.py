"""What the biquadratic and cyclic quartic CM-fields share past disc(K) and K+.

The functions take a field with `disc`, `kplus`, `hasse_q` and `label()`.
`hasse_index` works the Hasse unit index Q = [E_K : W_K E_K+] out from the
fundamental unit eps of K+ (Washington, Introduction to Cyclotomic Fields,
Thm 4.12; Lemmermeyer, Kuroda's class number formula, Acta Arith. 66, 1994):
Q = 2 exactly when zeta*eps is a square in K for a root of unity zeta.
Each kind supplies the odd characters of a field, `odd_characters(K)`, and
`relative_class_number` reads h^- from them, for one field or for both
members of a pair, from f * B1 as Gaussian integers: it is the one place
outside `dirichlet` that knows the form of B1.  A pair of either kind gets
both class numbers from `pair_class_numbers`, which couples the members'
characters, checks the twist between them and passes them on as one group
per couple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def relative_class_number(groups, Q: tuple[int, ...], w: int) -> tuple[int, ...]:
    """h^- = Q * w * prod(-B1(chi)/2) over the odd characters chi of each field.

    Washington, Introduction to Cyclotomic Fields, Thm 4.17.  Each group in
    `groups` holds one odd character of each field on one modulus f, and one
    kernel pass per group gives f * B1 = a + b*i of each.  A quartic chi
    stands for chi and conj chi, whose B1 is conj B1, so it contributes
    (a^2 + b^2) / (2f)^2; a real chi must have b = 0 and contributes
    -a / (2f).  h^- is then one integer division per field, and must be a
    positive integer.  `Q` holds each field's Hasse unit index; the fields
    share w.
    """
    nums, dens = [q * w for q in Q], [1] * len(Q)
    for chars in groups:
        f = chars[0].modulus
        for j, (chi, (a, b)) in enumerate(zip(chars, _bernoulli_B1s(chars), strict=True)):
            if chi.order != 4 and b:
                raise ConsistencyError("the product of the B1 values is not real")
            nums[j] *= a * a + b * b if chi.order == 4 else -a
            dens[j] *= 4 * f * f if chi.order == 4 else 2 * f
    h_minus = []
    for num, den in zip(nums, dens):
        h, rem = divmod(num, den)
        if rem or h <= 0:
            g = math.gcd(num, den)
            value = num // g if g == den else f"{num // g}/{den // g}"
            raise ConsistencyError(f"relative class number {value} is not a positive integer "
                                   f"(wrong characters, Q or w)")
        h_minus.append(h)
    return tuple(h_minus)


def pair_class_numbers(Ka, Kb, couples, w: int) -> tuple[int, int]:
    """(h(Ka), h(Kb)) for the members at -p and -2p of a pair, from couples of odd characters.

    In both families the member at -2p has the odd characters of the member
    at -p times eps = (8|.): for K(-p,t), K(-2p,t) by Hardy, Hudson, Richman,
    Williams and Holtz (1986), and for B(-p,t^2+1), B(-2p,t^2+1), with
    m' = (t^2+1)/2, since (-8p|n) = (-4p|n)(8|n) and (-4pm'|n) = (-8pm'|n)(8|n)
    on odd n.  Each couple (chi_a, chi_b) holds an odd character of each
    member on one modulus, a multiple of 8, and chi_b must be chi_a * eps or
    its conjugate; anything else is a ConsistencyError.  h^- of both then
    comes from `relative_class_number`, one kernel pass per couple over
    chi_a and chi_a * eps: conj(chi_a * eps) gives the same h, since a
    quartic character stands for its conjugate too.  Both members have w
    roots of unity.
    """
    groups = []
    for chi_a, chi_b in couples:
        twin = chi_a * kronecker_character(8, chi_a.modulus)
        if chi_b not in (twin, twin.conjugate()):
            raise ConsistencyError(f"chi_b with exponents {chi_b.exponents} is neither "
                                   f"chi_a * eps {twin.exponents} nor its conjugate")
        groups.append((chi_a, twin))
    h_minus = relative_class_number(groups, (Ka.hasse_q, Kb.hasse_q), w)
    return tuple(h * K.kplus.class_number for h, K in zip(h_minus, (Ka, Kb)))
