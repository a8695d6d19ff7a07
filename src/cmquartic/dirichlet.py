"""Dirichlet characters of order dividing 4, with exact Gaussian-rational values.

The unit group modulo f is decomposed into cyclic components with
deterministic generators (smallest primitive roots; -1 and 5 for the
2-power part).  A character is stored as one quarter-turn exponent per
component, so every value is a power of i and all downstream sums stay
in Q(i) exactly.

B1 sums never visit residues one by one in Python.  The modulus f is
split by CRT into coprime parts m * n, chi into psi (mod m) times lambda
(mod n), and each part's exponents are one small `bytes` table, built
from the per-prime-power code tables by repetition (CRT periodicity) and
big-integer addition.  The Python loop runs over the units of the
smaller part m, only those below m/2 when lambda is nontrivial; the
prefix sums of lambda at the sorted points are read off one block of
lambda's table at a time, each block's prefix one `itertools.accumulate`
list, so memory is m + n bytes plus one block of ints.
"""

from __future__ import annotations

import bisect
import itertools
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

#: exponent-table byte of a residue that shares a factor with the modulus
NONUNIT = 28
#: code-table byte of a non-unit; codes of units are below 4**2
_NONUNIT_CODE = 255
#: most tables in one big-integer addition: a byte sum is at most
#: 9 * 28 = 252, so it never carries into the next byte, and a sum of 28 or
#: more can only come from a non-unit, since units add at most 9 * 3
_FOLD = 9
_REDUCE = bytes(x % 4 if x < NONUNIT else NONUNIT for x in range(256))
#: residues of lambda's table per prefix block in bernoulli_B1
_BLOCK = 1 << 16
#: lambda's exponent byte to the real or the imaginary part of i^k, as a signed byte
_RE = bytes(1 if x == 0 else 255 if x == 2 else 0 for x in range(256))
_IM = bytes(1 if x == 1 else 255 if x == 3 else 0 for x in range(256))


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
            # chi at the lift of g (g mod p^e, 1 elsewhere) is its local value at g
            while j > 0 and not any(values[codes[g]] for g in _step_generators(p, j, comps)):
                j -= 1
            cond *= p**j
        return cond

    def exponent_table(self) -> bytes:
        """Byte a is k with chi(a) = i^k, or NONUNIT when chi(a) = 0, for 0 <= a < modulus."""
        return _exponent_table(self._decode)


def _step_generators(p: int, j: int, comps) -> list[int]:
    """Residues mod p^e that generate the units = 1 mod p^(j-1) over those = 1 mod p^j."""
    return [1 + p**(j - 1)] if j > 1 else [c.generator for c in comps]


def _exponent_table(parts) -> bytes:
    """Exponent table of chi on some of its prime powers, over 0 <= a < their product n.

    The table is the byte-wise sum of each prime power's local table
    repeated with period p^e (CRT), taken as one big-integer addition of
    up to _FOLD tables at a time; `_REDUCE` then maps each byte sum to
    k mod 4 or back to NONUNIT.  With no prime powers, n = 1 and the one
    residue 0 is a unit.
    """
    n = math.prod(pe for pe, *_ in parts)
    acc, terms = 0, 0
    for pe, _, codes, values in parts:
        local = codes.translate(values.ljust(256, bytes([NONUNIT])))
        if terms == _FOLD:
            acc, terms = int.from_bytes(_reduce(acc, n), "little"), 1
        acc += int.from_bytes(local * (n // pe), "little")
        terms += 1
    return _reduce(acc, n)


def _exponent_pool(comp: CyclicComponent, parity: int | None) -> list[int]:
    """Quarter turns q with q * order = 0 (mod 4), of the given parity unless it is None."""
    step = 1 if comp.order % 4 == 0 else 2 if comp.order % 2 == 0 else 4
    return [q for q in range(0, 4, step) if parity is None or q % 2 == parity]


def characters_of_order_dividing_4(modulus: int,
                                   D: int | None = None) -> list[DirichletCharacter]:
    """All characters with chi^4 = 1, or with D only those with chi^2 = (D|.).

    A quarter-turn exponent q_j is admissible when q_j * order_j = 0
    (mod 4); with D, its parity is also fixed by `square_parities(D)`, so
    at most 2 of the 4 choices remain per component.  Exponent vectors
    come in lexicographic order.
    """
    grp = unit_group(modulus)
    parities = None if D is None else grp.square_parities(D)
    if D is not None and parities is None:
        return []
    vectors: list[tuple[int, ...]] = [()]
    for j, comp in enumerate(grp.components):
        pool = _exponent_pool(comp, None if parities is None else parities[j])
        vectors = [v + (q,) for v in vectors for q in pool]
    return [DirichletCharacter(modulus, v) for v in vectors]


def odd_primitive_characters(modulus: int, D: int) -> list[DirichletCharacter]:
    """The odd characters of conductor `modulus` with chi^2 = (D|.), in lexicographic order.

    The list `characters_of_order_dividing_4(modulus, D)` filtered by
    `is_odd()` and `conductor() == modulus`, built prime power by prime
    power: `conductor()` keeps p^e exactly when chi's local part at p^e
    is nontrivial at `_step_generators(p, e, ...)`, and chi(-1) is the
    sum of the local values at -1.  So each prime power keeps the local
    exponent tuples that pass its own test, with their local value at -1,
    and a product of local tuples is odd when those values sum to 2
    (mod 4).
    """
    grp = unit_group(modulus)
    parities = grp.square_parities(D)
    if parities is None:
        return []
    pools, j = [], 0
    for (p, e), (pe, comps, codes) in zip(grp.factors, grp._local):
        gens = _step_generators(p, e, comps)
        pool = []
        for qs in itertools.product(*(_exponent_pool(c, parities[j + i])
                                      for i, c in enumerate(comps))):
            values = _code_values(qs)
            if any(values[codes[g]] for g in gens):
                pool.append((qs, values[codes[pe - 1]]))
        pools.append(pool)
        j += len(comps)
    return [DirichletCharacter(modulus, tuple(itertools.chain.from_iterable(qs for qs, _ in c)))
            for c in itertools.product(*pools) if sum(k for _, k in c) % 4 == 2]


def kronecker_character(D: int) -> DirichletCharacter:
    """The Kronecker character (D|.) of a fundamental discriminant D, as a character mod |D|.

    Its exponent is 2 on each component whose lift has (D|lift) = -1 and 0
    elsewhere.
    """
    f = abs(D)
    return DirichletCharacter(f, tuple(2 if kronecker(D, g) == -1 else 0
                                       for g in unit_group(f).component_lifts))


def bernoulli_B1(chi: DirichletCharacter) -> GaussianRational:
    """Generalized Bernoulli number B_{1,chi} = (1/f) * sum_{a<f} chi(a) a, exact.

    Defined here only for odd characters; for even nontrivial characters
    the sum vanishes and the caller is told so instead of receiving 0.

    With f = m * n, m and n coprime, chi = psi * lambda for psi mod m and
    lambda mod n.  Write a = x + m*y with x < m, y < n, and let
    c_x = x * m^-1 mod n, P(c) = sum_{u<c} lambda(u), S0 = sum_{u<n} lambda(u).
    Since lambda(x + m*y) = lambda(m) * lambda(y + c_x),

        f * B1(chi) = lambda(m) * sum_x psi(x) * (m*n*P(c_x) + S0*(x - m*c_x) + m*n*B1(lambda)),

    and the last term drops because psi is chosen nontrivial, so that
    sum_x psi(x) = 0.  S0 is 0 unless lambda is trivial.  No split (n = 1)
    leaves sum_x psi(x) * x.

    When S0 = 0, x and m - x contribute alike: c_(m-x) = 1 - c_x (mod n)
    gives P(c_(m-x)) = -lambda(-1) * P(c_x), and psi(-1) * lambda(-1) =
    chi(-1) = -1.  So only the x < m/2 are visited and the sum doubled.
    For trivial lambda the identity fails (some c_x = 0), and every x is
    visited.

    P(c_x) is read by one list index per point: lambda's table is walked in
    blocks of _BLOCK residues, and the real and imaginary parts of P over a
    block are prefix lists from the running totals (the imaginary one only
    when lambda takes the values +-i).
    """
    if chi.order == 1:
        raise DomainError("B1 of the trivial character is not supported",
                          precondition="chi nontrivial")
    if not chi.is_odd():
        raise DomainError("B1 vanishes for even nontrivial characters",
                          precondition="chi odd")
    side = _loop_side(chi._decode)
    psi = _exponent_table(side)
    lam = _exponent_table([part for part in chi._decode if part not in side])
    m, n = len(psi), len(lam)
    mbar = pow(m, -1, n)
    counts = [lam.count(j) for j in range(4)]
    s0 = _gaussian(counts)
    halved = s0 == ZERO
    # points (c_x, k) with psi(x) = i^k, sorted by c_x
    points = [x * mbar % n << 2 | k
              for x, k in enumerate(psi[:(m + 1) // 2] if halved else psi) if k < 4]
    points.sort()
    # shift[k] sums x - m*c_x over the same x; it counts only when S0 != 0,
    # that is after a full loop
    shift = [0, 0, 0, 0]
    if not halved:
        for x, k in enumerate(psi):
            if k < 4:
                shift[k] += x - m * (x * mbar % n)
    # re[k] + i*im[k] sums P(c_x) over the x with psi(x) = i^k; im is 0
    # unless lambda takes the values +-i
    re = _prefix_class_sums(points, lam, _RE)
    im = _prefix_class_sums(points, lam, _IM) if counts[1] or counts[3] else [0, 0, 0, 0]
    # sum_x psi(x) P(c_x) = sum_k i^k (re[k] + i*im[k]), by powers of i
    scale = 2 if halved else 1
    total = [scale * (re[k] + im[k - 1]) for k in range(4)]
    return I_POWERS[lam[m % n]] * (_gaussian(total) + s0 * _gaussian(shift, chi.modulus))


def _prefix_class_sums(points: list[int], lam: bytes, part: bytes) -> list[int]:
    """sums[k] = sum of P(c) over the sorted points c << 2 | k, P(c) = sum_{u<c} of one part
    of lambda(u): its real part for part = _RE, its imaginary part for _IM.

    lam is walked in blocks of _BLOCK residues up to the last point.  Each
    block's prefix sums, from the running total, are one list built by
    `itertools.accumulate` over the block's signed part bytes, read once at
    every point that falls in the block.
    """
    sums, total, i = [0, 0, 0, 0], 0, 0
    for start in range(0, (points[-1] >> 2) + 1, _BLOCK):
        end = bisect.bisect_left(points, (start + _BLOCK) << 2, i)
        signed = memoryview(lam[start:start + _BLOCK].translate(part)).cast("b")
        prefix = list(itertools.accumulate(signed, initial=total))
        total = prefix[-1]
        for point in points[i:end]:
            sums[point & 3] += prefix[(point >> 2) - start]
        i = end
        del prefix  # so the next block's list is not built beside this one
    return sums


def _gaussian(classes: list[int], denominator: int = 1) -> GaussianRational:
    """sum_k classes[k] * i^k / denominator."""
    return GaussianRational(Fraction(classes[0] - classes[2], denominator),
                            Fraction(classes[1] - classes[3], denominator))


def _loop_side(parts):
    """The prime powers of m in the split f = m * n that bernoulli_B1 loops over.

    psi must be nontrivial on m.  Among such sides the split nearest
    sqrt(f), the least max(m, n), is taken, and of its two sides the
    smaller m, so the Python loop runs over the smaller side.  The two
    exponent tables then take m + n bytes, and the prefix sums of lambda
    one block of ints on top.
    """
    f = math.prod(pe for pe, *_ in parts)

    def size(side) -> tuple[int, int]:
        m = math.prod(pe for pe, *_ in side)
        return max(m, f // m), m

    return min((side for r in range(1, len(parts) + 1)
                for side in itertools.combinations(parts, r)
                if any(any(values) for *_, values in side)), key=size)
