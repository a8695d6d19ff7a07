"""Cyclic quartic fields K(s,t) defined by X^4 - 2s(t^2+1)X^2 + s^2 t^2 (t^2+1).

For nonzero integers s, t this polynomial is irreducible with cyclic
Galois group; the field is totally real for s > 0 and CM for s < 0.
The module provides the square-free-part field-equality test, the
conductor f of the order-4 character of the field, written down from
(s, t) under explicit conditions, the real quadratic subfield and that
character, checked against the defining polynomial and f.  A field
supplies the conductors (d(K+), f, f) of its nontrivial characters, the
radicand of K+, its only quadratic subfield, w = 2 and that character as
its odd characters; the discriminant, the Hasse unit index, the
regulator, the class number and the invariant record are the shared
stages of `cmfield`, bound here as `discriminant`, `hasse_Q`, `regulator`,
`class_number` and `field_invariants`, with the shared h^- step as
`relative_class_number`.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .arith import Factorization, _root_count, _sqrt_or_none, factor, is_prime, squarefree_part
from . import cmfield
from .errors import ConsistencyError, DomainError
from .quadratic import FIELD_MEMO_SIZE, QuadraticField, quadratic_field

if TYPE_CHECKING:
    from .dirichlet import DirichletCharacter

# `dirichlet` is read as an attribute of the package, which loads it on the
# first character built: a field without a class number never loads it
_package = sys.modules[__package__]


class CyclicQuarticField(NamedTuple("CyclicQuarticField", [("s", int), ("t", int)])):
    """Parameter pair (s, t); the field is generated by sqrt(s(t^2+1) + s*sqrt(t^2+1)).

    `conductor`, `disc`, `kplus` and `hasse_q` are computed once, on first use.
    """

    def __new__(cls, s: int, t: int):
        if s == 0 or t == 0:
            raise DomainError(f"parameters (s, t) = ({s}, {t}) must be nonzero",
                              code="E_PARAM_ZERO")
        return super().__new__(cls, s, t)

    def label(self) -> str:
        return f"K({self.s},{self.t})"

    @property
    def conductors(self) -> tuple[Factorization, Factorization, Factorization]:
        """(d(K+), f, f): the conductors of the character of Q(sqrt(t^2+1)) and of chi,
        conj chi."""
        f = self.conductor
        return quadratic_field(self.t * self.t + 1).disc_factors, f, f

    @property
    def radicands(self) -> tuple[int]:
        """(radicand of K+,): K+ is the only quadratic subfield of a cyclic quartic field."""
        return (self.kplus.radicand,)

    @property
    def roots_of_unity(self) -> int:
        """w = 2, forced on the supported domain.

        t is odd there, so the radicand of K+ is even: K contains no 5th,
        8th or 12th roots of unity.
        """
        return 2

    def odd_characters(self) -> list[DirichletCharacter]:
        """[chi], the associated quartic character, which stands for chi and conj chi."""
        return [associated_quartic_character(self)]

    conductor = cached_property(lambda self: quartic_conductor(self))
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

    s*s2 = g^2 (s/g)(s2/g) with g = gcd(s, s2), and s/g, s2/g are coprime,
    so the core of s*s2 is the product of their cores and s*s2 is never
    factored.  For the members K(-p,t), K(-2p,t) of a pair s/g and s2/g are
    -1 and -2, so each member's s is factored once, for its conductor.  The
    core of t^2+1 is the radicand of K+.
    """
    if s == 0 or s2 == 0 or t == 0:
        raise DomainError("parameters must be nonzero", code="E_PARAM_ZERO")
    g = math.gcd(s, s2)
    core = squarefree_part(s // g).value * squarefree_part(s2 // g).value
    return core == 1 or core == quadratic_field(t * t + 1).radicand


def quartic_conductor(K: CyclicQuarticField) -> Factorization:
    """f = 2^4 * (odd primes of s) * (odd primes q with v_q(t^2+1) != 0 mod 4).

    The conductor of the order-4 character chi of K(s,t), read off the
    A(D + B sqrt(D)) form of Hardy, Hudson, Richman, Williams and Holtz
    (1986), with A = s, B = 1, C = t and D = t^2+1; t odd makes
    D = 2 (mod 8), which puts 2^4 in f.  Accepts t odd and s square-free
    (odd, or twice an odd number) with no odd prime in common with t^2+1:
    doubling s does not change f, so all four of K(+-s, t), K(+-2s, t)
    share it, and their discriminant d(K+) f^2.
    """
    s, t = K.s, K.t
    if t % 2 == 0:
        raise DomainError(
            f"t = {t} is even: the radical form violates congruence condition (a)/(b) "
            "(c = 2 mod 8 requires t odd)", code="E_T_INADMISSIBLE",
            precondition="t odd")
    s_primes = factor(s).factors
    if any(e > 1 for _, e in s_primes):
        raise DomainError(f"s = {s} is not square-free (nor twice a square-free odd number)",
                          precondition="s square-free")
    m = t * t + 1
    s_odd = s // (s & -s)
    if math.gcd(s_odd, m) != 1:
        raise DomainError(f"gcd({s_odd}, t^2+1 = {m}) > 1",
                          precondition="gcd(s, t^2+1) = 1")
    # m = x^2 * r, r the radicand of K+: v_q(m) = 1 + 2 v_q(x) at a prime of r,
    # and elsewhere v_q(m) = 2 v_q(x), which is not 0 mod 4 when v_q(x) is odd
    kplus = quadratic_field(m)
    x_odd = {q for q, e in factor(math.isqrt(m // kplus.radicand)).factors if e % 2}
    primes = kplus.radicand_primes() | x_odd | {p for p, _ in s_primes}
    return Factorization.from_exponents(1, {**dict.fromkeys(primes, 1), 2: 4})


def maximal_real_subfield(K: CyclicQuarticField) -> QuadraticField:
    if K.s > 0:
        raise DomainError(f"{K.label()} is totally real: the maximal real subfield is "
                          "the field itself", precondition="s < 0")
    return quadratic_field(K.t * K.t + 1)


discriminant = cmfield.discriminant
hasse_Q, regulator = cmfield.hasse_index, cmfield.cm_regulator
class_number, field_invariants = cmfield.class_number, cmfield.field_invariants
relative_class_number = cmfield.relative_class_number


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
    (1986), so chi is written down in one pass over the local groups of
    (Z/f)^*, with f = 16 * (odd square-free) from `quartic_conductor`:

    - on 5 in (Z/16)^* = <-1> x <5>, exponent 1 when (t = 1 mod 4)
      differs from (s even), else 3;
    - at an odd prime q of f, exponent v*k mod 4, where
      g^((q-1)/4) = (-t)^k (mod q) for the generator g of (Z/q)^*: v = 2
      at a prime of s (the Legendre symbol), and otherwise q divides m,
      -t is a square root of -1 mod q, and v = v_q(m) (the quartic
      residue symbol to that power);
    - on -1 in (Z/16)^*, exponent 0, made 2 when the character built so
      far is even, so that chi(-1) = -1.

    chi is then checked: chi(p) = 1 exactly when the defining polynomial
    has 4 roots mod p, at every odd prime p <= CHECK_BOUND prime to
    2st*m*f, and chi has conductor f, which checks the f that disc(K) =
    d(K+) f^2 is formed from.  Only the square roots of m mod p are
    shared, read from the table of the radicand of K+ (`_root_table`,
    scaled by x for m = x^2 * radicand); each field counts the roots of
    its own polynomial, one Legendre power per prime, and checks its own
    conductor.  chi and its conjugate yield identical downstream values;
    the one with the smaller exponent vector is returned.
    """
    dirichlet = _package.dirichlet
    s, t = K.s, K.t
    m = t * t + 1
    f = K.conductor.value()
    exps = []
    for g in dirichlet.unit_group(f):  # (Z/16)^* = <-1> x <5>, then one cyclic group per odd q
        if g.p == 2:
            exps += [0, 1 if (t % 4 == 1) != (s % 2 == 0) else 3]
            continue
        q, (c,) = g.p, g.components
        v, rest = 0, m
        while rest % q == 0:  # v = v_q(m)
            v, rest = v + 1, rest // q
        k = 1 if pow(c.generator, c.order // 4, q) == -t % q else 3
        exps.append((2 if s % q == 0 else v) * k % 4)
    chi = dirichlet.DirichletCharacter(f, tuple(exps))
    if not chi.is_odd():
        chi = dirichlet.DirichletCharacter(f, (2, *exps[1:]))
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
