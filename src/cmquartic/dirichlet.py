"""Dirichlet characters of order dividing 4, with exact Gaussian-rational values.

The unit group modulo f is the tuple of its local groups (Z/p^e)^*, one
per prime power p^e of f.  Each local group holds its cyclic components,
with deterministic generators (smallest primitive roots; -1 and 5 for
the 2-power part), and its code table of discrete logs mod 4.
`unit_group` keeps one tuple per modulus over `_local_table`, one bounded
memo (`LOCAL_MEMO_SIZE`) per prime power, so moduli that share a prime,
like the Kronecker moduli of a biquadratic pair, build its table and find
its primitive root once.  A character is stored as one quarter-turn
exponent per component, so every value is a power of i and all
downstream sums stay in Q(i) exactly.

B1 sums loop over the units of one part m of f, never over all f
residues.  The modulus f is split by CRT into coprime parts m * n, chi
into psi (mod m) times lambda (mod n), and each part's exponents are one
small `bytes` table, built from the per-prime-power code tables by
repetition (CRT periodicity) and big-integer addition.  The Python loop
runs over the units of the smaller part m, only those below m/2 when
lambda is nontrivial, and reads the prefix sum of lambda at each point
by one list index.  When lambda's table has n <= 2^16 residues its
prefix is one `itertools.accumulate` list, read in a single pass; beyond
that the points are sorted and the prefix is built one block of 2^16
residues at a time.  Either way memory is m + n bytes plus at most one
block of ints.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

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


class LocalGroup(NamedTuple):
    """(Z/p^e)^* for one prime power p^e exactly dividing a modulus.

    codes[r] packs the discrete logs of r mod 4, two bits per component,
    and is _NONUNIT_CODE when p divides r.
    """

    p: int
    e: int
    modulus: int  # p^e
    components: tuple[CyclicComponent, ...]
    codes: bytes


#: exponent-table byte of a residue that shares a factor with the modulus
NONUNIT = 28
#: code-table byte of a non-unit; codes of units are below 4**2
_NONUNIT_CODE = 255
#: most tables in one big-integer addition: a byte sum is at most
#: 9 * 28 = 252, so it never carries into the next byte, and a sum of 28 or
#: more can only come from a non-unit, since units add at most 9 * 3
_FOLD = 9
_REDUCE = bytes(x % 4 if x < NONUNIT else NONUNIT for x in range(256))
#: residues of lambda's table per prefix block in bernoulli_B1; a table of at
#: most this many residues is read from one prefix list with no sort
_BLOCK = 1 << 16
#: lambda's exponent byte to the real or the imaginary part of i^k, as a signed byte
_RE = bytes(1 if x == 0 else 255 if x == 2 else 0 for x in range(256))
_IM = bytes(1 if x == 1 else 255 if x == 3 else 0 for x in range(256))


def _reduce(acc: int, n: int) -> bytes:
    return acc.to_bytes(n, "little").translate(_REDUCE)


@lru_cache(maxsize=None)
def unit_group(modulus: int) -> tuple[LocalGroup, ...]:
    """(Z/modulus)^* as its local groups, one per prime power, in increasing order of p."""
    if modulus < 1:
        raise DomainError(f"modulus {modulus} must be positive")
    return tuple(_local_table(p, e) for p, e in factor(modulus).factors)


def components(modulus: int) -> list[CyclicComponent]:
    """The cyclic components of (Z/modulus)^*, prime power by prime power."""
    return [c for g in unit_group(modulus) for c in g.components]


#: prime powers whose local group `_local_table` keeps: the four Kronecker
#: moduli 4p, 8p, 4pm', 8pm' of a biquadratic pair share p
LOCAL_MEMO_SIZE = 32


@lru_cache(maxsize=LOCAL_MEMO_SIZE)
def _local_table(p: int, e: int) -> LocalGroup:
    """(Z/p^e)^*: its components and its code table, by stepping each generator."""
    pe = p**e
    codes = bytearray([_NONUNIT_CODE]) * pe
    if p == 2 and e <= 2:
        codes[1] = 0
        if e == 1:
            return LocalGroup(p, e, pe, (), bytes(codes))
        codes[3] = 1
        return LocalGroup(p, e, pe, (CyclicComponent(4, 3, 2),), bytes(codes))
    if p == 2:
        half = pe >> 2  # order of 5 mod 2^e
        v = 1
        for beta in range(half):
            codes[v] = (beta & 3) << 2
            codes[pe - v] = (beta & 3) << 2 | 1
            v = v * 5 % pe
        return LocalGroup(p, e, pe,
                          (CyclicComponent(pe, pe - 1, 2), CyclicComponent(pe, 5, half)),
                          bytes(codes))
    g = _primitive_root(p)
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p  # lift to a generator mod p^e
    order = pe // p * (p - 1)
    v = 1
    for k in range(order):
        codes[v] = k & 3
        v = v * g % pe
    return LocalGroup(p, e, pe, (CyclicComponent(pe, g, order),), bytes(codes))


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

    @cached_property
    def _decode(self) -> list[tuple[LocalGroup, bytes]]:
        """Per prime power: (its local group, values).

        values[code] is the k with chi = i^k at that prime power on the
        residues of that code; value_exponent, conductor and bernoulli_B1
        all read chi through these maps.
        """
        out, j = [], 0
        for g in unit_group(self.modulus):
            out.append((g, _code_values(self.exponents[j:j + len(g.components)])))
            j += len(g.components)
        return out

    def value_exponent(self, a: int) -> int | None:
        """k with chi(a) = i^k, or None when chi(a) = 0."""
        k = 0
        for g, values in self._decode:
            code = g.codes[a % g.modulus]
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
        for (p, e, _, comps, codes), values in self._decode:
            j = e
            # chi at the lift of g (g mod p^e, 1 elsewhere) is its local value at g
            while j > 1 and not values[codes[1 + p**(j - 1)]]:
                j -= 1
            if j == 1 and not any(values[codes[c.generator]] for c in comps):
                j = 0
            cond *= p**j
        return cond


def _exponent_table(parts) -> bytes:
    """Exponent table of chi on some of its prime powers, over 0 <= a < their product n.

    `parts` are (local group, values) pairs of chi's `_decode`; byte a is k
    with chi(a) = i^k there, or NONUNIT.  The table is the byte-wise sum of
    each prime power's local table repeated with period p^e (CRT), taken as
    one big-integer addition of up to _FOLD tables at a time; `_REDUCE`
    then maps each byte sum to k mod 4 or back to NONUNIT.  With no prime
    powers, n = 1 and the one residue 0 is a unit.
    """
    n = math.prod(g.modulus for g, _ in parts)
    acc, terms = 0, 0
    for g, values in parts:
        local = g.codes.translate(values.ljust(256, bytes([NONUNIT])))
        if terms == _FOLD:
            acc, terms = int.from_bytes(_reduce(acc, n), "little"), 1
        acc += int.from_bytes(local * (n // g.modulus), "little")
        terms += 1
    return _reduce(acc, n)


def characters_of_order_dividing_4(modulus: int) -> list[DirichletCharacter]:
    """All characters with chi^4 = 1, exponent vectors in lexicographic order.

    A quarter-turn exponent q_j is admissible when q_j * order_j = 0 (mod 4).
    """
    vectors: list[tuple[int, ...]] = [()]
    for comp in components(modulus):
        step = 1 if comp.order % 4 == 0 else 2 if comp.order % 2 == 0 else 4
        vectors = [v + (q,) for v in vectors for q in range(0, 4, step)]
    return [DirichletCharacter(modulus, v) for v in vectors]


def kronecker_character(D: int) -> DirichletCharacter:
    """The Kronecker character (D|.) of a fundamental discriminant D, as a character mod |D|.

    Its exponent is 2 on each component whose lift has (D|lift) = -1 and 0
    elsewhere.  The lift of a component generator g mod p^e is g mod p^e and
    1 mod f/p^e: with r = f/p^e, r * (r^-1 mod p^e) is 1 mod p^e and 0 mod r.
    """
    f = abs(D)
    exps = []
    for g in unit_group(f):
        r = f // g.modulus
        unit = r * pow(r, -1, g.modulus)
        exps += [2 if kronecker(D, (1 + (c.generator - 1) * unit) % f) == -1 else 0
                 for c in g.components]
    return DirichletCharacter(f, tuple(exps))


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
    sum_x psi(x) = 0.  S0 is 0 unless lambda is trivial, when it is the
    number of units mod n.  No split (n = 1) leaves sum_x psi(x) * x.

    When S0 = 0, x and m - x contribute alike: c_(m-x) = 1 - c_x (mod n)
    gives P(c_(m-x)) = -lambda(-1) * P(c_x), and psi(-1) * lambda(-1) =
    chi(-1) = -1.  So only the x < m/2 are visited and the sum doubled.
    For trivial lambda the identity fails (some c_x = 0), and every x is
    visited.

    P(c_x) is read by one list index per x.  When lambda's table fits one
    block (n <= _BLOCK = 2^16, every B1 of the two benchmark pools), the
    prefix sums of its real part, and of its imaginary part only when
    lambda takes the values +-i, are one list each, read in a single pass
    over psi (`_one_block_sums`).  Beyond that the points are sorted and
    lambda's table is walked one block at a time (`_prefix_class_sums`).
    The sum stays a Gaussian integer, f * B1 rotated by lambda(m), until
    one division by f at the end.
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
    f, m, n = chi.modulus, len(psi), len(lam)
    mbar = pow(m, -1, n)
    quartic = 1 in lam or 3 in lam
    trivial = not quartic and 2 not in lam
    xs = psi if trivial else psi[:(m + 1) // 2]
    # re[k] + i*im[k] sums P(c_x) over the visited x with psi(x) = i^k; im
    # is 0 unless lambda takes the values +-i
    if n <= _BLOCK:
        re, im = _one_block_sums(xs, mbar, lam, quartic)
    else:
        # points (c_x, k) with psi(x) = i^k, sorted by c_x
        points = [x * mbar % n << 2 | k for x, k in enumerate(xs) if k < 4]
        points.sort()
        re = _prefix_class_sums(points, lam, _RE)
        im = _prefix_class_sums(points, lam, _IM) if quartic else [0, 0, 0, 0]
    # f * sum_x psi(x) P(c_x) = f * sum_k i^k (re[k] + i*im[k]), doubled when halved
    scale = f if trivial else 2 * f
    a = scale * (re[0] - re[2] - im[1] + im[3])
    b = scale * (re[1] - re[3] + im[0] - im[2])
    if trivial:
        # S0 * sum_x psi(x) (x - m*c_x), with S0 the number of units mod n
        shift = [0, 0, 0, 0]
        for x, k in enumerate(psi):
            if k < 4:
                shift[k] += x - m * (x * mbar % n)
        s0 = lam.count(0)
        a += s0 * (shift[0] - shift[2])
        b += s0 * (shift[1] - shift[3])
    for _ in range(lam[m % n]):  # times lambda(m) = i^k
        a, b = -b, a
    return GaussianRational(Fraction(a, f), Fraction(b, f))


def _prefix(lam: bytes, part: bytes, initial: int = 0) -> list[int]:
    """initial + P(c) for 0 <= c <= len(lam), P summing one part of lambda: its real
    part for part = _RE, its imaginary part for _IM."""
    return list(itertools.accumulate(memoryview(lam.translate(part)).cast("b"),
                                     initial=initial))


def _one_block_sums(xs: bytes, mbar: int, lam: bytes,
                    quartic: bool) -> tuple[list[int], list[int]]:
    """(re, im): re[k] + i*im[k] sums P(c_x) over the x with xs[x] = k < 4, c_x = x*mbar mod n.

    One pass over xs, with no list of points: lambda's whole table is one
    prefix list per part (the imaginary one only when quartic), indexed
    at c_x.
    """
    n = len(lam)
    prefix, re = _prefix(lam, _RE), [0, 0, 0, 0]
    if not quartic:
        for x, k in enumerate(xs):
            if k < 4:
                re[k] += prefix[x * mbar % n]
        return re, [0, 0, 0, 0]
    prefix_im, im = _prefix(lam, _IM), [0, 0, 0, 0]
    for x, k in enumerate(xs):
        if k < 4:
            c = x * mbar % n
            re[k] += prefix[c]
            im[k] += prefix_im[c]
    return re, im


def _prefix_class_sums(points: list[int], lam: bytes, part: bytes) -> list[int]:
    """sums[k] = sum of P(c) over the sorted points c << 2 | k, P(c) = sum_{u<c} of one part
    of lambda(u): its real part for part = _RE, its imaginary part for _IM.

    The route for n > _BLOCK: lam is walked in blocks of _BLOCK residues up
    to the last point.  Each block's prefix sums, from the running total,
    are one list built by `itertools.accumulate` over the block's signed
    part bytes, read once at every point that falls in the block, so at
    most one block of ints is held at a time.
    """
    sums, total, i = [0, 0, 0, 0], 0, 0
    for start in range(0, (points[-1] >> 2) + 1, _BLOCK):
        end = bisect.bisect_left(points, (start + _BLOCK) << 2, i)
        prefix = _prefix(lam[start:start + _BLOCK], part, total)
        total = prefix[-1]
        for point in points[i:end]:
            sums[point & 3] += prefix[(point >> 2) - start]
        i = end
        del prefix  # so the next block's list is not built beside this one
    return sums


def _loop_side(parts):
    """The prime powers of m in the split f = m * n that bernoulli_B1 loops over.

    psi must be nontrivial on m.  Among such sides the split nearest
    sqrt(f), the least max(m, n), is taken, and of its two sides the
    smaller m, so the Python loop runs over the smaller side.  The two
    exponent tables then take m + n bytes, and the prefix sums of lambda
    at most one block of ints on top: all n of them when n <= _BLOCK,
    else _BLOCK at a time.

    Sides are bit masks over `parts`, each m one product from the side
    without its lowest part.  The moduli are coprime, so distinct sides
    have distinct m and the least one is unique.
    """
    moduli = [g.modulus for g, _ in parts]
    nontrivial = sum(1 << i for i, (_, values) in enumerate(parts) if any(values))
    f = math.prod(moduli)
    sizes, best, best_mask = [1], None, 0
    for mask in range(1, 1 << len(parts)):
        low = mask & -mask
        m = sizes[mask ^ low] * moduli[low.bit_length() - 1]
        sizes.append(m)
        if mask & nontrivial:
            size = (max(m, f // m), m)
            if best is None or size < best:
                best, best_mask = size, mask
    return tuple(part for i, part in enumerate(parts) if best_mask >> i & 1)
