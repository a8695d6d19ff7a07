"""Cyclic quartic fields K(s,t) defined by X^4 - 2s(t^2+1)X^2 + s^2 t^2 (t^2+1).

For nonzero integers s, t this polynomial is irreducible with cyclic
Galois group; the field is totally real for s > 0 and CM for s < 0.
The module provides the square-free-part field-equality test, the exact
discriminant under explicit congruence conditions, regulators through the
real quadratic subfield, and class numbers through an order-4 character
and its generalized Bernoulli numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arith import (ROOT_COUNT_CAP, Factorization, count_roots_mod_p, factor, is_prime,
                    squarefree_part)
from .cmfield import FieldInvariants, cm_regulator, hasse_index, relative_class_number
from .dirichlet import DirichletCharacter, bernoulli_B1, odd_primitive_characters
from .errors import ConsistencyError, DomainError
from .precision import HighPrecReal
from . import quadratic
from .quadratic import QuadraticField, quadratic_field


@dataclass(frozen=True)
class CyclicQuarticField:
    """Parameter pair (s, t); the field is generated by sqrt(s(t^2+1) + s*sqrt(t^2+1)).

    `disc`, `kplus` and `hasse_q` are computed once, on first use.
    """

    s: int
    t: int

    def __post_init__(self):
        if self.s == 0 or self.t == 0:
            raise DomainError(f"parameters (s, t) = ({self.s}, {self.t}) must be nonzero",
                              code="E_PARAM_ZERO")

    def label(self) -> str:
        return f"K({self.s},{self.t})"

    disc = cached_property(lambda self: discriminant(self))
    kplus = cached_property(lambda self: maximal_real_subfield(self))
    hasse_q = cached_property(lambda self: hasse_Q(self))


def defining_polynomial(s: int, t: int) -> tuple[int, int, int, int, int]:
    """Coefficients (1, 0, -2s(t^2+1), 0, s^2 t^2 (t^2+1))."""
    CyclicQuarticField(s, t)  # rejects s = 0 or t = 0
    m = t * t + 1
    return (1, 0, -2 * s * m, 0, s * s * t * t * m)


def same_field(s: int, s2: int, t: int) -> bool:
    """Equality of K(s,t) and K(s2,t): s*s2 is a square, or its core matches t^2+1.

    The core of s*s2 is (a/g)(b/g) for the cores a, b of s, s2 and
    g = gcd(a, b), so s*s2 itself is never factored.
    """
    if s == 0 or s2 == 0 or t == 0:
        raise DomainError("parameters must be nonzero", code="E_PARAM_ZERO")
    a, b = squarefree_part(s).value, squarefree_part(s2).value
    g = math.gcd(a, b)
    core = (a // g) * (b // g)
    return core == 1 or core == squarefree_part(t * t + 1).value


def hsw_discriminant(a: int, b: int, c: int) -> Factorization:
    """Discriminant 2^8 gcd(a,b)^2 c^3 / gcd(a,b,c)^2 of Q(sqrt(a + b sqrt(c))).

    Valid when c and gcd(a,b) are square-free and the inputs satisfy one
    of the two congruence patterns below; anything else is rejected.
    """
    cond_a = a % 8 == 4 and b % 4 == 2 and c % 8 == 2
    cond_b = a % 4 == 2 and b % 2 == 1 and c % 8 == 2
    if not (cond_a or cond_b):
        raise DomainError(
            f"(a, b, c) = ({a}, {b}, {c}) satisfies neither congruence condition "
            "(a): a=4 mod 8, b=2 mod 4, c=2 mod 8, nor (b): a=2 mod 4, b odd, c=2 mod 8",
            precondition="condition (a) or (b)",
        )
    if squarefree_part(c).cofactor != 1:
        raise DomainError(f"c = {c} is not square-free", precondition="c square-free")
    g1 = math.gcd(a, b)
    if squarefree_part(g1).cofactor != 1:
        raise DomainError(f"gcd(a, b) = {g1} is not square-free",
                          precondition="gcd(a, b) square-free")
    g2 = math.gcd(g1, c)
    exps: dict[int, int] = {2: 8}
    sign = 1
    for f, mult in ((factor(g1), 2), (factor(c), 3)):
        sign *= f.sign**mult
        for p, e in f.factors:
            exps[p] = exps.get(p, 0) + mult * e
    for p, e in factor(g2).factors:
        exps[p] = exps.get(p, 0) - 2 * e
    return Factorization.from_exponents(sign, exps)


def discriminant(K: CyclicQuarticField) -> Factorization:
    """Field discriminant 2^8 s0^2 n^2 m^3 / gcd(m, n)^2, via the radical form.

    Accepts s square-free or 2 * (odd square-free): doubling s does not
    change the discriminant, so all four of K(+-s, t), K(+-2s, t) agree.
    """
    s, t = K.s, K.t
    if t % 2 == 0:
        raise DomainError(
            f"t = {t} is even: the radical form violates congruence condition (a)/(b) "
            "(c = 2 mod 8 requires t odd)", code="E_T_INADMISSIBLE",
            precondition="t odd")
    if squarefree_part(s).cofactor != 1:
        raise DomainError(f"s = {s} is not square-free (nor twice a square-free odd number)",
                          precondition="s square-free")
    m_full = t * t + 1
    s_odd = s // (s & -s)
    if math.gcd(s_odd, m_full) != 1:
        raise DomainError(f"gcd({s_odd}, t^2+1 = {m_full}) > 1",
                          precondition="gcd(s, t^2+1) = 1")
    # t^2+1 = x^4 n^2 m with m, n square-free
    m, y = squarefree_part(m_full)
    n, x = squarefree_part(y)
    # radical form sqrt(a + b sqrt(c)) with a = s x^2 n^2 m, b = s n, c = m
    return hsw_discriminant(s * x * x * n * n * m, s * n, m)


def maximal_real_subfield(K: CyclicQuarticField) -> QuadraticField:
    if K.s > 0:
        raise DomainError(f"{K.label()} is totally real: the maximal real subfield is "
                          "the field itself", precondition="s < 0")
    return quadratic_field(K.t * K.t + 1)


def hasse_Q(K: CyclicQuarticField) -> int:
    """Q from the unit of K+, whose radicand is the only one of K: 1, as Hasse proved."""
    return hasse_index(K, (K.kplus.radicand,))


def regulator(K: CyclicQuarticField, precision_bits: int = 128) -> HighPrecReal:
    """2 * reg(K+) / Q for the imaginary members of the family."""
    return cm_regulator(K, precision_bits)


def _conductor_of_quartic_character(K: CyclicQuarticField) -> int:
    ratio, rem = divmod(K.disc.value(), K.kplus.fund_disc)
    if rem:
        raise ConsistencyError(f"disc(K+) does not divide disc(K) for {K.label()}")
    f = math.isqrt(ratio)
    if f * f != ratio:
        raise ConsistencyError(f"disc(K)/disc(K+) is not a square for {K.label()}")
    return f


#: every odd prime up to this bound is checked against the root counts,
#: also once the candidates are down to one conjugate pair
CHECK_BOUND = 200


@lru_cache(maxsize=None)
def _odd_primes_to(bound: int) -> tuple[int, ...]:
    return tuple(p for p in range(3, bound + 1, 2) if is_prime(p))


def _check_primes():
    """The odd primes below ROOT_COUNT_CAP in ascending order, those up to CHECK_BOUND cached."""
    yield from _odd_primes_to(CHECK_BOUND)
    for p in range((CHECK_BOUND + 1) | 1, ROOT_COUNT_CAP, 2):
        if is_prime(p):
            yield p


def associated_quartic_character(K: CyclicQuarticField) -> DirichletCharacter:
    """The order-4 character cutting out K(s,t), up to complex conjugation.

    Candidates are the odd primitive order-4 characters modulo
    f = sqrt(disc(K)/disc(K+)) whose square is the quadratic character of
    disc(K+), built prime power by prime power; the survivors are filtered
    by comparing chi(p) = 1 against the root counts of the defining
    polynomial modulo the odd primes in ascending order.  Every prime up
    to CHECK_BOUND is tested; past it, only while more than one conjugate
    pair is left.  The candidates are closed under conjugation, so two
    survivors are chi and its conjugate; both yield identical downstream
    values, and the one with the lexicographically smaller exponent vector
    is returned.
    """
    s, t = K.s, K.t
    fchi = _conductor_of_quartic_character(K)
    cands = odd_primitive_characters(fchi, K.kplus.fund_disc)
    excluded = 2 * abs(s) * abs(t) * (t * t + 1) * fchi
    for p in _check_primes():
        if not cands or (p > CHECK_BOUND and len(cands) <= 2):
            break
        if excluded % p:
            splits = count_roots_mod_p(s, t, p) == 4
            cands = [chi for chi in cands if (chi.value_exponent(p) == 0) == splits]
    if len(cands) != 2:
        raise ConsistencyError(
            f"character selection for {K.label()} left {len(cands)} candidates "
            f"after the odd primes below {p}")
    return min(cands, key=lambda c: c.exponents)


def class_number(K: CyclicQuarticField) -> int:
    """h(K) = h^- * h(K+), with h^- from B1(chi) and B1(conj chi) = conj B1(chi); exact.

    On the supported domain t is odd, so the quadratic subfield radicand
    is even: the field contains no 5th, 8th or 12th roots of unity and
    w = 2 is forced.
    """
    b1 = bernoulli_B1(associated_quartic_character(K))
    h_minus = relative_class_number((b1, b1.conjugate()), K.hasse_q, 2)
    return h_minus * quadratic.class_number_real(K.kplus)


def field_invariants(K: CyclicQuarticField, precision_bits: int = 128,
                     with_class_number: bool = False) -> FieldInvariants:
    h = class_number(K) if with_class_number else None
    return FieldInvariants(
        disc=K.disc,
        regulator=regulator(K, precision_bits),
        hasse_q=K.hasse_q,
        roots_of_unity=2,
        class_number=h,
    )
