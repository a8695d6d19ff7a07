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

from .arith import (Factorization, _root_count, _sqrt_or_none, factor, is_prime, is_squarefree,
                    squarefree_part)
from .cmfield import FieldInvariants, cm_regulator, hasse_index, relative_class_number
from .dirichlet import DirichletCharacter, components
from .errors import ConsistencyError, DomainError
from .precision import HighPrecReal
from .quadratic import FIELD_MEMO_SIZE, QuadraticField, quadratic_field


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
    g = gcd(a, b), so s*s2 itself is never factored; the core of t^2+1 is
    the radicand of K+.
    """
    if s == 0 or s2 == 0 or t == 0:
        raise DomainError("parameters must be nonzero", code="E_PARAM_ZERO")
    a, b = squarefree_part(s).value, squarefree_part(s2).value
    g = math.gcd(a, b)
    core = (a // g) * (b // g)
    return core == 1 or core == quadratic_field(t * t + 1).radicand


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
    if not is_squarefree(s):
        raise DomainError(f"s = {s} is not square-free (nor twice a square-free odd number)",
                          precondition="s square-free")
    m_full = t * t + 1
    s_odd = s // (s & -s)
    if math.gcd(s_odd, m_full) != 1:
        raise DomainError(f"gcd({s_odd}, t^2+1 = {m_full}) > 1",
                          precondition="gcd(s, t^2+1) = 1")
    # t^2+1 = x^4 n^2 m with m, n square-free; m is the radicand of K+
    m = quadratic_field(m_full).radicand
    n, x = squarefree_part(math.isqrt(m_full // m))
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


#: every odd prime up to this bound is a check on the constructed character
CHECK_BOUND = 200


@lru_cache(maxsize=FIELD_MEMO_SIZE)
def _root_table(radicand: int, bound: int) -> tuple[tuple[int, int | None], ...]:
    """(q, a square root of the radicand mod q, or None) per odd prime q <= bound.

    Kept for as many radicands as the K+ memo keeps, so the members of a
    pair and the pairs of a family work each square root out, and find the
    odd primes up to the bound, once.
    """
    return tuple((q, _sqrt_or_none(radicand, q)) for q in range(3, bound + 1, 2) if is_prime(q))


def associated_quartic_character(K: CyclicQuarticField) -> DirichletCharacter:
    """The order-4 character cutting out K(s,t), up to complex conjugation.

    K(s,t) = Q(sqrt(s(m + sqrt(m)))) with m = t^2+1 is the A(D + B sqrt(D))
    form, A = s, B = 1, C = t, of Hardy, Hudson, Richman, Williams and Holtz
    (1986), so chi is written down on the components of (Z/f)^*, with
    f = sqrt(disc(K)/disc(K+)) = 16 * (odd square-free):

    - at an odd prime q of m, where -t is a square root of -1, the quartic
      residue symbol to the power v = v_q(m): exponent v*k, where
      g^((q-1)/4) = (-t)^k (mod q) for the component generator g;
    - at an odd prime of s, the Legendre symbol: exponent 2;
    - on 5 (mod 16), exponent 1 when (t = 1 mod 4) differs from (s even),
      else 3;
    - on -1 (mod 16), the exponent that makes chi odd.

    chi is then checked: chi(p) = 1 exactly when the defining polynomial
    has 4 roots mod p, at every odd prime p <= CHECK_BOUND prime to
    2st*m*f, and chi has conductor f, which checks disc(K) = disc(K+) f^2
    apart from hsw_discriminant.  Only the square roots of m mod p are
    shared, read from the table of the radicand of K+ (`_root_table`,
    scaled by x for m = x^2 * radicand); each field counts the roots of
    its own polynomial, one Legendre power per prime, and checks its own
    conductor.  chi and its conjugate yield identical downstream values;
    the one with the smaller exponent vector is returned.
    """
    s, t = K.s, K.t
    m = t * t + 1
    f = _conductor_of_quartic_character(K)
    comps = components(f)
    exps = [0] * len(comps)
    minus_one = 2  # the exponent of chi(-1) left to the -1 component
    for j, c in enumerate(comps):
        q = c.modulus
        if q % 2 == 0:
            continue
        if m % q == 0:
            v, rest = 0, m
            while rest % q == 0:
                v, rest = v + 1, rest // q
            k = 1 if pow(c.generator, c.order // 4, q) == -t % q else 3
            exps[j] = v * k % 4
        elif s % q == 0:
            exps[j] = 2
        minus_one -= exps[j] * (c.order // 2)
    for j, c in enumerate(comps):
        if c.modulus % 2 == 0:
            exps[j] = (minus_one % 4 if c.generator == c.modulus - 1
                       else 1 if (t % 4 == 1) != (s % 2 == 0) else 3)
    chi = DirichletCharacter(f, tuple(exps))
    excluded = 2 * s * t * m * f
    x = math.isqrt(m // K.kplus.radicand)  # m = x^2 * radicand
    for p, r in _root_table(K.kplus.radicand, CHECK_BOUND):
        if excluded % p:
            roots = _root_count(s, t, p, m % p, None if r is None else x * r % p)
            if (chi.value_exponent(p) == 0) != (roots == 4):
                raise ConsistencyError(
                    f"the character of {K.label()} has chi({p}) = i^{chi.value_exponent(p)}, "
                    f"but the defining polynomial has {roots} roots mod {p}")
    if chi.conductor() != f:
        raise ConsistencyError(f"the character of {K.label()} has conductor "
                               f"{chi.conductor()}, not f = {f}")
    return min(chi, chi.conjugate(), key=lambda c: c.exponents)


def odd_characters(K: CyclicQuarticField) -> list[DirichletCharacter]:
    """[chi], the associated quartic character, which stands for chi and conj chi."""
    return [associated_quartic_character(K)]


def class_number(K: CyclicQuarticField) -> int:
    """h(K) = h^- * h(K+), with h^- from chi and conj chi; exact.

    On the supported domain t is odd, so the quadratic subfield radicand
    is even: the field contains no 5th, 8th or 12th roots of unity and
    w = 2 is forced.
    """
    (h_minus,) = relative_class_number([(chi,) for chi in odd_characters(K)], (K.hasse_q,), 2)
    return h_minus * K.kplus.class_number


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
