"""Dirichlet characters of order dividing 4, with exact Gaussian-rational values.

The unit group modulo f is decomposed into cyclic components with
deterministic generators (smallest primitive roots; -1 and 5 for the
2-power part).  A character is stored as one quarter-turn exponent per
component, so every value is a power of i and all downstream sums stay
in Q(i) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import factor
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

    prime: int
    exp: int
    modulus: int  # p^e
    generator: int
    order: int


class UnitGroup:
    """(Z/f)^* as a product of cyclic components, with full discrete-log tables."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise DomainError(f"modulus {modulus} must be positive")
        self.modulus = modulus
        self.components: list[CyclicComponent] = []
        # per prime power: dict residue -> tuple of local exponents
        self._local_logs: list[tuple[int, dict[int, tuple[int, ...]]]] = []
        for p, e in factor(modulus).factors if modulus > 1 else ():
            pe = p**e
            comps, logs = self._build_local(p, e, pe)
            self.components.extend(comps)
            self._local_logs.append((pe, logs))

    @staticmethod
    def _build_local(p: int, e: int, pe: int):
        if p == 2:
            if e == 1:
                return [], {1: ()}
            if e == 2:
                return ([CyclicComponent(2, 2, 4, 3, 2)], {1: (0,), 3: (1,)})
            half = pe >> 2  # order of 5 mod 2^e
            comps = [CyclicComponent(2, e, pe, pe - 1, 2),
                     CyclicComponent(2, e, pe, 5, half)]
            logs: dict[int, tuple[int, ...]] = {}
            v = 1
            for beta in range(half):
                logs[v] = (0, beta)
                logs[pe - v] = (1, beta)
                v = v * 5 % pe
            return comps, logs
        g = _primitive_root(p)
        if e > 1 and pow(g, p - 1, p * p) == 1:
            g += p  # lift to a generator mod p^e
        order = pe // p * (p - 1)
        logs = {}
        v = 1
        for k in range(order):
            logs[v] = (k,)
            v = v * g % pe
        return [CyclicComponent(p, e, pe, g, order)], logs

    def local_exponents(self, a: int) -> tuple[int, ...] | None:
        """Exponent vector of a against all components, or None when gcd(a, f) > 1."""
        if math.gcd(a, self.modulus) != 1:
            return None
        out: list[int] = []
        for pe, logs in self._local_logs:
            out.extend(logs[a % pe])
        return tuple(out)

    def component_lift(self, index: int) -> int:
        """Element congruent to the generator of component `index`, 1 elsewhere."""
        comp = self.components[index]
        # find which prime power the component lives in
        residues = []
        for pe, _ in self._local_logs:
            residues.append(1)
        pos = 0
        for i, (pe, _) in enumerate(self._local_logs):
            ncomp = sum(1 for c in self.components if c.modulus == pe)
            if pos <= index < pos + ncomp:
                residues[i] = comp.generator % pe
            pos += ncomp
        return _crt([pe for pe, _ in self._local_logs], residues)

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


def _crt(moduli: list[int], residues: list[int]) -> int:
    # moduli are pairwise coprime prime powers
    x, m = 0, 1
    for mi, ri in zip(moduli, residues):
        t = (ri - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x % m


@lru_cache(maxsize=None)
def unit_group(modulus: int) -> UnitGroup:
    return UnitGroup(modulus)


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

    def value_exponent(self, a: int) -> int | None:
        """k with chi(a) = i^k, or None when chi(a) = 0."""
        local = self.group.local_exponents(a % self.modulus)
        if local is None:
            return None
        return sum(q * x for q, x in zip(self.exponents, local)) % 4

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
        """Smallest f' | modulus through which the character factors."""
        f = self.modulus
        divs = sorted(_divisors(f))
        for fp in divs:
            if all(self.value_exponent(a) == 0
                   for a in range(1 + fp, f, fp)
                   if math.gcd(a, f) == 1):
                return fp
        return f

    def squares_to_kronecker(self, D: int) -> bool:
        """chi^2 equals the quadratic character (D|.) on (Z/modulus)^*."""
        from .arith import kronecker

        grp = self.group
        for idx in range(len(grp.components)):
            g = grp.component_lift(idx)
            k = self.value_exponent(g)
            val = I_POWERS[(2 * k) % 4]
            target = kronecker(D, g)
            if val.im != 0 or val.re != target:
                return False
        return True


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def characters_of_order_dividing_4(modulus: int) -> list[DirichletCharacter]:
    grp = unit_group(modulus)
    return [DirichletCharacter(modulus, exps) for exps in grp.quarter_exponent_choices()]


def bernoulli_B1(chi: DirichletCharacter) -> GaussianRational:
    """Generalized Bernoulli number B_{1,chi} = (1/f) * sum_{a<f} chi(a) a, exact.

    Defined here only for odd characters; for even nontrivial characters
    the sum vanishes and the caller is told so instead of receiving 0.
    """
    if chi.order == 1:
        raise DomainError("B1 of the trivial character is not supported",
                          precondition="chi nontrivial")
    if not chi.is_odd():
        raise DomainError("B1 vanishes for even nontrivial characters",
                          precondition="chi odd")
    f = chi.modulus
    sums = [0, 0, 0, 0]
    for a in range(1, f):
        k = chi.value_exponent(a)
        if k is not None:
            sums[k] += a
    return GaussianRational(Fraction(sums[0] - sums[2], f),
                            Fraction(sums[1] - sums[3], f))
