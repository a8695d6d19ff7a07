"""The invariants of a quartic CM-field, derived once for both kinds.

A field of either kind supplies `disc`, `kplus`, `hasse_q` and `label()`,
the radicands of its quadratic subfields (`radicands`), its number of roots
of unity (`roots_of_unity`) and its odd characters (`odd_characters()`);
this module derives the rest from them, for a biquadratic and a cyclic
quartic field alike, and the kind modules bind its functions under their
own names (`hasse_Q`, `regulator`, `class_number`, `field_invariants`).
`hasse_index` works the Hasse unit index Q = [E_K : W_K E_K+] out from the
fundamental unit eps of K+ (Washington, Introduction to Cyclotomic Fields,
Thm 4.12; Lemmermeyer, Kuroda's class number formula, Acta Arith. 66, 1994):
Q = 2 exactly when zeta*eps is a square in K for a root of unity zeta.
`cm_regulator` is reg(K) = 2 reg(K+) / Q.  `relative_class_number` reads
h^- from the odd characters, for one field or for both members of a pair,
from f * B1 as Gaussian integers: it is the one place outside `dirichlet`
that knows the form of B1.  A field gets h = h^- * h(K+) from
`class_number`, and the members of a pair from `pair_class_numbers`, which
couples their characters, checks the twist between them and passes them on
as one group per couple; both form h in `_class_numbers`, from the Q and w
of the fields.  `field_invariants` and, for the two members of a pair,
`pair_invariants` build each `FieldInvariants` record once, h included.
`dirichlet` is read as an attribute of the package, which loads it on the
first class number, so a field without one never loads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .arith import Factorization
from .errors import ConsistencyError
from .precision import HighPrecReal
from . import quadratic

_package = sys.modules[__package__]


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


def hasse_index(K) -> int:
    """Q in {1, 2} from the fundamental unit eps of K+ and the radicands of K's subfields.

    A unit of norm -1 gives Q = 1, since Q = 2 makes eps = eta * conj(eta)
    totally positive.  Otherwise M = 2 + Tr(eps) has eps * M = (1 + eps)^2,
    so zeta * eps is a square exactly when zeta * M is.  Modulo squares the
    roots of unity are 1, -1 and, when i is in K, i = (1 + i)^2 / 2; eps
    itself is no square, and Q(zeta8) has a unit of norm -1.  So Q = 2
    exactly when sqrt(-M) is in K, or i and sqrt(2M) are.  Q = 2 leaves
    K/K+ unramified outside 2, which disc(K)/disc(K+)^2 | 16 checks.
    """
    radicands = K.radicands
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


def cm_regulator(K, precision_bits: int = 128) -> HighPrecReal:
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
        b1s = _package.dirichlet._bernoulli_B1s(chars)
        for j, (chi, (a, b)) in enumerate(zip(chars, b1s, strict=True)):
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


def _class_numbers(fields, groups) -> tuple[int, ...]:
    """h = h^- * h(K+) of each of `fields`, with h^- over `groups` of their odd characters.

    Each field's Q is its own, and the fields share w: the members of a
    pair have the same roots of unity.
    """
    Q = tuple(K.hasse_q for K in fields)
    (w,) = {K.roots_of_unity for K in fields}
    h_minus = relative_class_number(groups, Q, w)
    return tuple(h * K.kplus.class_number for h, K in zip(h_minus, fields))


def class_number(K) -> int:
    """h(K) = h^- * h(K+), with h^- over the odd characters of K, one group each.

    For a biquadratic field these are (D1|.) and (D2|.) of its imaginary
    quadratic subfields, and since -B1((D|.))/2 = h(D)/w(D), h^- is
    Q * w * h1 * h2 / (w1 * w2); for a cyclic one, chi, which stands for chi
    and conj chi.
    """
    (h,) = _class_numbers((K,), [(chi,) for chi in K.odd_characters()])
    return h


def pair_class_numbers(Ka, Kb) -> tuple[int, int]:
    """(h(Ka), h(Kb)) for the members at -p and -2p of a pair, from couples of odd characters.

    In both families the member at -2p has the odd characters of the member
    at -p times eps = (8|.): for K(-p,t), K(-2p,t) by Hardy, Hudson, Richman,
    Williams and Holtz (1986), and for B(-p,t^2+1), B(-2p,t^2+1), with
    m' = (t^2+1)/2, since (-8p|n) = (-4p|n)(8|n) and (-4pm'|n) = (-8pm'|n)(8|n)
    on odd n.  The members' `odd_characters()`, zipped in order, are couples
    (chi_a, chi_b) of an odd character of each member on one modulus, a
    multiple of 8, and chi_b must be chi_a * eps or its conjugate; anything
    else is a ConsistencyError.  h^- of both then comes from
    `relative_class_number`, one kernel pass per couple over chi_a and
    chi_a * eps: conj(chi_a * eps) gives the same h, since a quartic
    character stands for its conjugate too.
    """
    kronecker_character = _package.dirichlet.kronecker_character
    groups = []
    for chi_a, chi_b in zip(Ka.odd_characters(), Kb.odd_characters(), strict=True):
        twin = chi_a * kronecker_character(8, chi_a.modulus)
        if chi_b not in (twin, twin.conjugate()):
            raise ConsistencyError(f"chi_b with exponents {chi_b.exponents} is neither "
                                   f"chi_a * eps {twin.exponents} nor its conjugate")
        groups.append((chi_a, twin))
    return _class_numbers((Ka, Kb), groups)


def field_invariants(K, precision_bits: int = 128,
                     with_class_number: bool = False) -> FieldInvariants:
    """disc, reg, Q, w and, when asked for, h of K."""
    return _invariants(K, precision_bits, class_number(K) if with_class_number else None)


def pair_invariants(Ka, Kb, precision_bits: int,
                    with_class_number: bool) -> tuple[FieldInvariants, FieldInvariants]:
    """`field_invariants` of the members at -p and -2p of a pair, each record built once,
    with h, when asked for, from `pair_class_numbers`."""
    h_a, h_b = pair_class_numbers(Ka, Kb) if with_class_number else (None, None)
    return _invariants(Ka, precision_bits, h_a), _invariants(Kb, precision_bits, h_b)


def _invariants(K, precision_bits: int, h: int | None) -> FieldInvariants:
    return FieldInvariants(
        disc=K.disc,
        regulator=cm_regulator(K, precision_bits),
        hasse_q=K.hasse_q,
        roots_of_unity=K.roots_of_unity,
        class_number=h,
    )
