"""Exact integer arithmetic substrate.

Factorization, square-free parts, Kronecker symbols, deterministic
primality, quartic root counts modulo small primes, and primes in
arithmetic progressions.  Everything here is a pure function of its
arguments and safe for concurrent use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConsistencyError, DomainError

# Trial division handles everything below this bound; composite
# cofactors above it go to the rho fallback.
_TRIAL_LIMIT = 1 << 20

# The first twelve prime bases are a proof of primality for n < psi_12, the
# least strong pseudoprime to all of them (about 3.2 * 10^23; Sorenson and
# Webster, Math. Comp. 86, 2017), which covers 64-bit.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461

# Fixed extended schedule for n >= psi_12: deterministic and reproducible.
# Its bases up to 41 are a proof below psi_13 = 3317044064679887385961981
# (about 3.3 * 10^24); above that it is a strong probable-prime test, not a proof.
_MR_WITNESSES_BIG = _MR_WITNESSES + (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class Factorization(NamedTuple):
    """Signed integer as sign * product(p_i ** e_i) with strictly increasing primes."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def __mul__(self, other: "Factorization") -> "Factorization":
        if self.sign == 0 or other.sign == 0:
            return Factorization(0, ())
        exps: dict[int, int] = {}
        for p, e in self.factors + other.factors:
            exps[p] = exps.get(p, 0) + e
        return Factorization(self.sign * other.sign, tuple(sorted(exps.items())))

    def __str__(self) -> str:
        body = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
        if self.sign == 0:
            return "0"
        if not body:
            body = "1"
        return "-" + body if self.sign < 0 else body

    @classmethod
    def from_exponents(cls, sign: int, exps: dict[int, int]) -> "Factorization":
        if sign == 0:
            return cls(0, ())
        items = []
        for p, e in sorted(exps.items()):
            if e < 0:
                raise ConsistencyError(f"negative exponent {e} at prime {p}")
            if e > 0:
                items.append((p, e))
        return cls(sign, tuple(items))


class SquarefreePart(NamedTuple):
    """n = value * cofactor**2 with value square-free."""

    value: int
    cofactor: int


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with a fixed witness schedule.

    A proof of primality for n < psi_13 (about 3.3 * 10^24): the twelve
    bases up to 37 below psi_12, the 25 bases up to 97 from there on.
    Above psi_13 a True is a strong probable prime to those 25 bases.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # no prime factor <= 37, so none at all
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    witnesses = _MR_WITNESSES if n < _PSI_12 else _MR_WITNESSES_BIG
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """One non-trivial factor of odd composite n (Brent's cycle variant).

    Parameters are fixed and restarts are sequential, so the result is
    deterministic for a given n.
    """
    for c in range(1, 100):
        x = y = 2
        d = 1
        power = lam = 1
        while d == 1:
            if power == lam:
                y = x
                power <<= 1
                lam = 0
            x = (x * x + c) % n
            lam += 1
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ConsistencyError(f"rho failed to split {n}")


def factor(n: int) -> Factorization:
    """Factor a nonzero integer into sign and prime powers."""
    if n == 0:
        raise DomainError("factor(0) is undefined", code="E_PARAM_ZERO")
    sign = 1 if n > 0 else -1
    n = abs(n)
    exps: dict[int, int] = {}

    for p in (2, 3, 5):
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
    # wheel over 6k+-1
    p = 7
    step = 4
    while p * p <= n and p < _TRIAL_LIMIT:
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step
    exps.update(_cofactor_exponents(n))
    return Factorization(sign, tuple(sorted(exps.items())))


def _cofactor_exponents(n: int) -> dict[int, int]:
    """Prime exponents of an odd n >= 1 left by trial division: is_prime, exact roots, rho."""
    exps: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _rho_factor(m)
        stack.extend((d, m // d))
    return exps


def squarefree_part(n: int) -> SquarefreePart:
    """Split n as value * cofactor**2 with value square-free."""
    if n == 0:
        raise DomainError("squarefree_part(0) is undefined", code="E_PARAM_ZERO")
    f = factor(n)
    value = f.sign
    cofactor = 1
    for p, e in f.factors:
        if e & 1:
            value *= p
        cofactor *= p ** (e >> 1)
    return SquarefreePart(value, cofactor)


def is_squarefree(n: int) -> bool:
    if n == 0:
        raise DomainError("is_squarefree(0) is undefined", code="E_PARAM_ZERO")
    return squarefree_part(n).cofactor == 1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), completely multiplicative in both arguments."""
    if a == 0 and n == 0:
        raise DomainError("kronecker(0, 0) is undefined", code="E_PARAM_ZERO")
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        z = (n & -n).bit_length() - 1
        n >>= z
        if z & 1 and a % 8 in (3, 5):
            result = -result
    # Jacobi loop on odd positive n
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a nonzero quadratic residue a modulo an odd prime p (Tonelli-Shanks)."""
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e  # p - 1 = q * 2^e with q odd
    x, b = pow(a, (q + 1) >> 1, p), pow(a, q, p)  # x^2 = a * b, and b has order dividing 2^(e-1)
    if b == 1:
        return x
    z = 2
    while pow(z, (p - 1) >> 1, p) == 1:
        z += 1
    c = pow(z, q, p)  # a non-residue's q-th power has order exactly 2^e
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:  # b has order 2^i
            b2 = b2 * b2 % p
            i += 1
        g = pow(c, 1 << (e - i - 1), p)
        x, c, e = x * g % p, g * g % p, i
        b = b * c % p
    return x


def count_roots_mod_p(s: int, t: int, p: int) -> int:
    """Roots of X^4 - 2s(t^2+1)X^2 + s^2 t^2 (t^2+1) modulo an odd prime p.

    Counted without multiplicity, from quadratic residues: with m = t^2+1,
    X^2 runs over the roots Y = s(m +- r) of Y^2 - 2smY + s^2 t^2 m, where
    r^2 = m, since the discriminant is 4 s^2 m.  When p divides s or m the
    polynomial is X^4, one root; when p divides t it is X^2 (X^2 - 2sm),
    with two more roots when 2sm is a residue.  Otherwise there is no Y
    when m is a non-residue; else the two values of Y have product
    s^2 t^2 m, a nonzero square, so both are residues (4 roots) or
    neither (0).
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"p = {p} is not an odd prime", precondition="p odd prime")
    m = (t * t + 1) % p
    return _root_count(s, t, p, m, _sqrt_or_none(m, p))


def _sqrt_or_none(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p: 0 when p divides a, None for a non-residue."""
    a %= p
    if a == 0:
        return 0
    return _sqrt_mod_p(a, p) if pow(a, p >> 1, p) == 1 else None


def _root_count(s: int, t: int, p: int, m: int, r: int | None) -> int:
    """count_roots_mod_p(s, t, p) given m = t^2+1 mod p and r = `_sqrt_or_none(m, p)`."""
    half = p >> 1  # Euler's criterion: a^half is 1 for a nonzero residue a
    s %= p
    if s == 0 or m == 0:
        return 1
    if t % p == 0:
        return 3 if pow(2 * s * m, half, p) == 1 else 1
    if r is None:
        return 0
    return 4 if pow(s * (m + r), half, p) == 1 else 0


def primes_in_progression(start: int, modulus: int, residue: int, count: int) -> list[int]:
    """First `count` primes p >= start with p == residue (mod modulus), ascending."""
    if modulus < 1:
        raise DomainError(f"modulus {modulus} must be positive")
    if math.gcd(residue, modulus) != 1:
        raise DomainError(
            f"gcd({residue}, {modulus}) != 1: progression contains at most one prime",
            precondition="gcd(residue, modulus) = 1",
        )
    if count < 0:
        raise DomainError(f"count {count} must be nonnegative")
    found: list[int] = []
    n = max(start, 2)
    shift = (residue - n) % modulus
    n += shift
    while len(found) < count:
        if n >= 2 and is_prime(n):
            found.append(n)
        n += modulus
    return found
