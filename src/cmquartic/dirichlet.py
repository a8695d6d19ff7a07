"""Dirichlet characters of order dividing 4, with exact Gaussian-rational values.

The unit group modulo f is decomposed into cyclic components with
deterministic generators (smallest primitive roots; -1 and 5 for the
2-power part).  A character is stored as one quarter-turn exponent per
component, so every value is a power of i and all downstream sums stay
in Q(i) exactly.

B1 sums never visit residues one by one in Python: a character's
exponents for a < f/2 are one `bytes` table, built from the small
per-prime-power tables by repetition (CRT periodicity) and big-integer
addition, and each class sum is read off with `bytes.count`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .arith import factor, kronecker
from .errors import ConsistencyError, DomainError


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @classmethod
    def from_pair(cls, re, im) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))


#: the four powers of i as exact Gaussian rationals
I_POWERS = (
    GaussianRational.from_pair(1, 0),
    GaussianRational.from_pair(0, 1),
    GaussianRational.from_pair(-1, 0),
    GaussianRational.from_pair(0, -1),
)

ZERO = GaussianRational.from_pair(0, 0)


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    phi = p - 1
    prime_divs = [q for q, _ in factor(phi).factors]
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in prime_divs):
            return g
    raise ConsistencyError(f"no primitive root found mod {p}")


@dataclass(frozen=True)
class CyclicComponent:
    """One cyclic factor of (Z/f)^*: generator of the given order inside Z/p^e."""

    modulus: int  # p^e
    generator: int
    order: int


class UnitGroup:
    """(Z/f)^* as a product of cyclic components, with one code table per prime power."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise DomainError(f"modulus {modulus} must be positive")
        self.modulus = modulus
        self.components: list[CyclicComponent] = []
        # per prime power: (p^e, its components, code table), where code[r]
        # packs the discrete logs of r mod 4, two bits per component, and
        # is _NONUNIT_CODE when p divides r
        self._local: list[tuple[int, tuple[CyclicComponent, ...], bytes]] = []
        self._square_parities: dict[int, tuple[int, ...] | None] = {}
        self.factors = factor(modulus).factors if modulus > 1 else ()
        for p, e in self.factors:
            pe = p**e
            comps, codes = self._build_local(p, e, pe)
            self.components.extend(comps)
            self._local.append((pe, comps, bytes(codes)))

    @staticmethod
    def _build_local(p: int, e: int, pe: int):
        """Components of (Z/p^e)^* and its code table, by stepping each generator."""
        codes = bytearray([_NONUNIT_CODE]) * pe
        if p == 2 and e <= 2:
            codes[1] = 0
            if e == 1:
                return (), codes
            codes[3] = 1
            return (CyclicComponent(4, 3, 2),), codes
        if p == 2:
            half = pe >> 2  # order of 5 mod 2^e
            v = 1
            for beta in range(half):
                codes[v] = (beta & 3) << 2
                codes[pe - v] = (beta & 3) << 2 | 1
                v = v * 5 % pe
            return (CyclicComponent(pe, pe - 1, 2), CyclicComponent(pe, 5, half)), codes
        g = _primitive_root(p)
        if e > 1 and pow(g, p - 1, p * p) == 1:
            g += p  # lift to a generator mod p^e
        order = pe // p * (p - 1)
        v = 1
        for k in range(order):
            codes[v] = k & 3
            v = v * g % pe
        return (CyclicComponent(pe, g, order),), codes

    @cached_property
    def component_lifts(self) -> tuple[int, ...]:
        """Per component: its generator modulo its prime power, 1 modulo the others.

        The j-th lift has the j-th unit vector as its exponent vector.
        """
        f = self.modulus
        # (f/pe) * ((f/pe)^-1 mod pe) is 1 mod pe and 0 mod the other prime powers
        return tuple((1 + (c.generator - 1) * (f // pe) * pow(f // pe, -1, pe)) % f
                     for pe, comps, _ in self._local for c in comps)

    def square_parities(self, D: int) -> tuple[int, ...] | None:
        """Exponent parities q_j mod 2 of every chi with chi^2 = (D|.), or None if none.

        chi^2 takes the value (-1)^q_j at the j-th component lift, so it is
        the quadratic character (D|.) exactly when each q_j has the parity
        that (D|lift_j) = +-1 asks for; (D|lift_j) = 0 admits no chi.
        """
        if D not in self._square_parities:
            signs = [kronecker(D, g) for g in self.component_lifts]
            self._square_parities[D] = (None if 0 in signs
                                        else tuple(int(k < 0) for k in signs))
        return self._square_parities[D]

    def quarter_exponent_choices(self) -> list[tuple[int, ...]]:
        """All admissible quarter-turn vectors: q_j * order_j = 0 (mod 4)."""
        pools: list[tuple[int, ...]] = []
        for comp in self.components:
            if comp.order % 4 == 0:
                pools.append((0, 1, 2, 3))
            elif comp.order % 2 == 0:
                pools.append((0, 2))
            else:
                pools.append((0,))
        out: list[tuple[int, ...]] = [()]
        for pool in pools:
            out = [v + (q,) for v in out for q in pool]
        return out


#: exponent-table byte of a residue that shares a factor with the modulus
NONUNIT = 28
#: code-table byte of a non-unit; codes of units are below 4**2
_NONUNIT_CODE = 255
#: most tables in one big-integer addition: a byte sum is at most
#: 9 * 28 = 252, so it never carries into the next byte, and a sum of 28 or
#: more can only come from a non-unit, since units add at most 9 * 3
_FOLD = 9
_REDUCE = bytes(x % 4 if x < NONUNIT else NONUNIT for x in range(256))


def _reduce(acc: int, n: int) -> bytes:
    return acc.to_bytes(n, "little").translate(_REDUCE)


@lru_cache(maxsize=None)
def unit_group(modulus: int) -> UnitGroup:
    return UnitGroup(modulus)


@lru_cache(maxsize=None)
def _code_values(qs: tuple[int, ...]) -> bytes:
    """values[code] = sum of q_i * x_i mod 4, x_i the i-th two-bit field of the code.

    A prime power has at most two components, so there are at most 21 keys.
    """
    values = b"\0"
    for q in qs:
        values = bytes((v + q * x) % 4 for x in range(4) for v in values)
    return values


@dataclass(frozen=True)
class DirichletCharacter:
    """Character of order dividing 4 modulo `modulus`.

    `exponents[j]` is the quarter turn applied to the j-th cyclic
    component generator: chi(g_j) = i ** exponents[j].
    """

    modulus: int
    exponents: tuple[int, ...]

    @property
    def group(self) -> UnitGroup:
        return unit_group(self.modulus)

    @cached_property
    def _decode(self) -> list[tuple[int, tuple[CyclicComponent, ...], bytes, bytes]]:
        """Per prime power: (p^e, its components, its code table, values).

        values[code] is the k with chi = i^k at that prime power on the
        residues of that code; value_exponent, conductor and
        exponent_table all read chi through these maps.
        """
        out, j = [], 0
        for pe, comps, codes in self.group._local:
            out.append((pe, comps, codes, _code_values(self.exponents[j:j + len(comps)])))
            j += len(comps)
        return out

    def value_exponent(self, a: int) -> int | None:
        """k with chi(a) = i^k, or None when chi(a) = 0."""
        k = 0
        for pe, _, codes, values in self._decode:
            code = codes[a % pe]
            if code == _NONUNIT_CODE:
                return None
            k += values[code]
        return k % 4

    def __call__(self, a: int) -> GaussianRational:
        k = self.value_exponent(a)
        return ZERO if k is None else I_POWERS[k]

    @property
    def order(self) -> int:
        if any(q % 2 for q in self.exponents):
            return 4
        if any(q % 4 for q in self.exponents):
            return 2
        return 1

    def is_odd(self) -> bool:
        return self.value_exponent(self.modulus - 1) == 2

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(-q % 4 for q in self.exponents))

    def conductor(self) -> int:
        """Smallest f' | modulus through which the character factors.

        Prime by prime, with p^e exactly dividing the modulus: once chi is
        trivial on the units = 1 mod p^j at p (and = 1 at the other
        primes), it factors through p^(j-1) there when it is also trivial
        on 1 + p^(j-1) for j > 1, which generates the units = 1 mod
        p^(j-1) over those = 1 mod p^j, or on the component generators
        for j = 1.
        """
        cond = 1
        for (p, e), (_, comps, codes, values) in zip(self.group.factors, self._decode):
            j = e
            while j > 0:
                gens = [1 + p**(j - 1)] if j > 1 else [c.generator for c in comps]
                # chi at the lift of g (g mod p^e, 1 elsewhere) is its local value at g
                if any(values[codes[g]] for g in gens):
                    break
                j -= 1
            cond *= p**j
        return cond

    def squares_to_kronecker(self, D: int) -> bool:
        """chi^2 equals the quadratic character (D|.) on (Z/modulus)^*."""
        parities = self.group.square_parities(D)
        return parities is not None and all(
            q % 2 == b for q, b in zip(self.exponents, parities))

    def exponent_table(self, length: int | None = None) -> bytes:
        """Byte a is k with chi(a) = i^k, or NONUNIT when chi(a) = 0, for 0 <= a < length.

        `length` defaults to the modulus.  The table is the byte-wise sum
        of each prime power's local table repeated with period p^e (CRT),
        taken as one big-integer addition of up to _FOLD tables at a time;
        `_REDUCE` then maps each byte sum to k mod 4 or back to NONUNIT.
        """
        n = self.modulus if length is None else length
        acc, terms = 0, 0
        for pe, _, codes, values in self._decode:
            local = codes.translate(values.ljust(256, bytes([NONUNIT])))
            if terms == _FOLD:
                acc, terms = int.from_bytes(_reduce(acc, n), "little"), 1
            acc += int.from_bytes(memoryview(local * -(-n // pe))[:n], "little")
            terms += 1
        return _reduce(acc, n)


def characters_of_order_dividing_4(modulus: int) -> list[DirichletCharacter]:
    grp = unit_group(modulus)
    return [DirichletCharacter(modulus, exps) for exps in grp.quarter_exponent_choices()]


def bernoulli_B1(chi: DirichletCharacter) -> GaussianRational:
    """Generalized Bernoulli number B_{1,chi} = (1/f) * sum_{a<f} chi(a) a, exact.

    Defined here only for odd characters; for even nontrivial characters
    the sum vanishes and the caller is told so instead of receiving 0.
    An odd chi has chi(f - a) = -chi(a), so the sum is the half sum
    sum_{a<f/2} (2a - f) chi(a), read from the exponent table of a < f/2.
    """
    if chi.order == 1:
        raise DomainError("B1 of the trivial character is not supported",
                          precondition="chi nontrivial")
    if not chi.is_odd():
        raise DomainError("B1 vanishes for even nontrivial characters",
                          precondition="chi odd")
    f = chi.modulus
    counts, sums = _class_sums(chi.exponent_table((f + 1) // 2))
    half = [2 * s - f * c for s, c in zip(sums, counts)]
    return GaussianRational(Fraction(half[0] - half[2], f),
                            Fraction(half[1] - half[3], f))


def _class_sums(table: bytes) -> tuple[list[int], list[int]]:
    """(counts, sums): how many a have table[a] == k, and their sum, for k = 0..3.

    The table is read as a grid w = isqrt(len) bytes wide, a = row + col
    with row a multiple of w: each row and each strided column is
    counted by `bytes.count`, so no residue is touched by Python code.
    """
    n = len(table)
    w = max(1, math.isqrt(n))
    counts, sums = [0, 0, 0, 0], [0, 0, 0, 0]
    for row in range(0, n, w):
        for k in range(4):
            c = table.count(k, row, row + w)
            counts[k] += c
            sums[k] += row * c
    for col in range(1, w):
        column = table[col::w]
        for k in range(4):
            sums[k] += col * column.count(k)
    return counts, sums
