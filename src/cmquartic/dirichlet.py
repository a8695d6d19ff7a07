"""Dirichlet characters of order dividing 4, with exact Gaussian-rational values.

The unit group modulo f is the tuple of its local groups (Z/p^e)^*, one
per prime power p^e of f.  Each local group holds its cyclic components,
with deterministic generators (smallest primitive roots; -1 and 5 for
the 2-power part), and its code table of discrete logs mod 4.
`unit_group` keeps one tuple per modulus over `_local_table`, which keeps
one local group per prime power, so moduli that share a prime, like the
Kronecker moduli of a biquadratic pair, build its table and find its
primitive root once.  Neither memo is bounded: every local group is held
by the tuple of some modulus, so a bound on the per-prime-power memo
would free nothing and could only rebuild a table still alive.  A prime
power above `LOCAL_TABLE_CAP` = 2^25 is refused with a DomainError before
its table is built.  A character is stored as one quarter-turn exponent
per component, so every value is a power of i and all downstream sums
stay in Q(i) exactly.

B1 sums loop over the units of one part m of f, never over all f
residues.  The modulus f is split by CRT into coprime parts m * n, chi
into psi (mod m) times lambda (mod n), and each part's exponents are one
small `bytes` table, built from the per-prime-power code tables by
repetition (CRT periodicity) and big-integer addition.  The Python loop
runs over the units of the smaller part m, only those below m/2 when
lambda is nontrivial, and reads the prefix sum of lambda at each point
by one list index.  When lambda's table has n <= 2^16 residues its
prefix is one `itertools.accumulate` list per column, read in a single
pass and kept with lambda's table in a bounded memo (`LAMBDA_MEMO_SIZE`
= 16 lambda sides), since the members of a pair and the pairs at one t
read the same lambda at 2 and at the primes of t^2 + 1.  Beyond that the
points are sorted and the prefix is built one block of 2^16 residues at
a time, and memory is m + n bytes plus at most one block of ints.  On
the one-block route it is m bytes plus the memo, at worst 16 entries of
at most two lists of 65,537 ints and a table of at most 65,536 bytes.

One kernel, `_bernoulli_B1s`, takes one character or two on one modulus
f and returns f * B1 of each as a Gaussian integer (a, b): one split, one
loop over x and, on the blocked route, one sorted list of points.  Two
characters share the side they agree on, one psi table or one walk of a
lambda table, and nothing else about them is assumed.  Its one caller
outside this module is `cmfield.relative_class_number`, which reads h^-
of a field, or of both members of a pair, from those integers;
`bernoulli_B1` divides by f for a single character, as a GaussianRational.
It is the only code here that builds a Fraction, and imports `fractions`
when called, so a class number never loads it.

The records are NamedTuples.  `DirichletCharacter` subclasses the
NamedTuple of its modulus and exponents, so it has a `__dict__` for its
cached decode maps.
"""

from __future__ import annotations

import bisect
import itertools
import math
from array import array
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .arith import factor, kronecker
from .errors import ConsistencyError, DomainError

if TYPE_CHECKING:
    from fractions import Fraction


class GaussianRational(NamedTuple):
    """An exact element re + i*im of Q(i), as `bernoulli_B1` returns it."""

    re: Fraction
    im: Fraction


def _primitive_root(p: int) -> int:
    """Smallest primitive root modulo an odd prime p."""
    phi = p - 1
    prime_divs = [q for q, _ in factor(phi).factors]
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in prime_divs):
            return g
    raise ConsistencyError(f"no primitive root found mod {p}")


class CyclicComponent(NamedTuple):
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
#: residues of lambda's table per prefix block in the B1 kernel; a table of at
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


#: largest prime power whose code table `_local_table` builds.  The table
#: takes one byte and one Python step per residue, about 9 s and an 84 MB
#: peak at the cap on a 2-vCPU Xeon VM, so a larger prime power in a
#: conductor or a Kronecker modulus is refused as a DomainError before any
#: step, instead of running for minutes
LOCAL_TABLE_CAP = 1 << 25


@lru_cache(maxsize=None)
def _local_table(p: int, e: int) -> LocalGroup:
    """(Z/p^e)^*: its components and its code table, by stepping each generator.

    Kept per prime power with no bound, like the `unit_group` tuples that
    hold every local group anyway: the Kronecker moduli of a biquadratic
    pair, 8p and 8pm', or 4p, 8p, 4pm' and 8pm' field by field, share p.
    """
    pe = p**e
    if pe > LOCAL_TABLE_CAP:
        raise DomainError(f"the prime power {p}^{e} = {pe} exceeds the code-table cap "
                          f"LOCAL_TABLE_CAP = 2^25", precondition="p^e <= 2^25")
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


class DirichletCharacter(NamedTuple("DirichletCharacter",
                                    [("modulus", int), ("exponents", tuple[int, ...])])):
    """Character of order dividing 4 modulo `modulus`.

    `exponents[j]` is the quarter turn applied to the j-th cyclic
    component generator: chi(g_j) = i ** exponents[j].
    """

    @cached_property
    def _decode(self) -> list[tuple[LocalGroup, bytes]]:
        """Per prime power: (its local group, values).

        values[code] is the k with chi = i^k at that prime power on the
        residues of that code; value_exponent, conductor and the B1 kernel
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

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if other.modulus != self.modulus:
            raise DomainError(f"characters mod {self.modulus} and mod {other.modulus} "
                              "do not multiply", precondition="one modulus")
        return DirichletCharacter(self.modulus, tuple(
            (q + r) % 4 for q, r in zip(self.exponents, other.exponents)))

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


def kronecker_character(D: int, f: int) -> DirichletCharacter:
    """The Kronecker character (D|.) of a fundamental discriminant D, as a character
    mod f, a multiple of |D|.

    Its exponent is 2 on each component whose lift has (D|lift) = -1 and 0
    elsewhere.  The lift of a component generator g mod p^e is g mod p^e and
    1 mod f/p^e: with r = f/p^e, r * (r^-1 mod p^e) is 1 mod p^e and 0 mod r.
    At a prime p of f that does not divide D the lift is 1 mod |D|, so the
    exponents there are 0.
    """
    if f % D:
        raise DomainError(f"{D} does not divide the modulus {f}", precondition="D | modulus")
    exps = []
    for g in unit_group(f):
        if D % g.p:
            exps += [0] * len(g.components)
            continue
        r = f // g.modulus
        unit = r * pow(r, -1, g.modulus)
        exps += [2 if kronecker(D, (1 + (c.generator - 1) * unit) % f) == -1 else 0
                 for c in g.components]
    return DirichletCharacter(f, tuple(exps))


def bernoulli_B1(chi: DirichletCharacter) -> GaussianRational:
    """Generalized Bernoulli number B_{1,chi} = (1/f) * sum_{a<f} chi(a) a, exact.

    Defined here only for odd characters; for even nontrivial characters
    the sum vanishes and the caller is told so instead of receiving 0.
    It divides by f the Gaussian integer f * B1 of the kernel
    `_bernoulli_B1s`, which says how the sum is taken.
    """
    from fractions import Fraction  # imported here: a class number never loads it

    [(a, b)] = _bernoulli_B1s((chi,))
    return GaussianRational(Fraction(a, chi.modulus), Fraction(b, chi.modulus))


def _bernoulli_B1s(chars: tuple[DirichletCharacter, ...]) -> list[tuple[int, int]]:
    """[f * B1(chi) for chi in chars] as Gaussian integers (a, b), a + b*i, for one
    or two odd characters on one modulus f, from one split and one loop over x.

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

    Two characters take one split, on which both psi are nontrivial, one
    loop over x and one c_x per x, and share the side they agree on.  When
    their psi differ, each x is keyed by both psi exponents at once,
    k_a + 8 k_b, in one byte table.  Each distinct lambda table is built
    and walked once, one at a time, and folded into the B1 of every
    character that reads it right after its walk.  So chi and chi * eps,
    eps nontrivial at one prime power, key x by both or walk two lambda
    tables, as eps falls on the loop side or on lambda's side.

    P(c_x) is read by one list index per x and prefix column: the real
    part of lambda, and its imaginary part only when lambda takes the
    values +-i.  When lambda's table fits one block (n <= _BLOCK = 2^16,
    every B1 of the two benchmark pools), each column is one prefix list,
    read in a single pass over the keys (`_one_block_sums`).  Beyond that
    the points are sorted once and each column is walked one block at a
    time (`_prefix_class_sums`).  Each sum is a Gaussian integer, and f * B1
    is the last of them rotated by lambda(m): no division is made.
    """
    for c in chars:
        if c.order == 1:
            raise DomainError("B1 of the trivial character is not supported",
                              precondition="chi nontrivial")
        if not c.is_odd():
            raise DomainError("B1 vanishes for even nontrivial characters",
                              precondition="chi odd")
    decodes = [c._decode for c in chars]
    side = _loop_side(*decodes)
    inside = [part in side for part in decodes[0]]
    # per character, (its prime powers on the loop side, those on lambda's side)
    cuts = [([part for part, i in zip(parts, inside) if i],
             [part for part, i in zip(parts, inside) if not i]) for parts in decodes]
    psi = _exponent_table(cuts[0][0])
    keyed = cuts[-1][0] != cuts[0][0]
    if keyed:
        # byte sums k_a + 8 k_b <= 27 for units, 28 + 8 * 28 for non-units: no carry
        psi = (int.from_bytes(psi, "little")
               + (int.from_bytes(_exponent_table(cuts[1][0]), "little") << 3)
               ).to_bytes(len(psi), "little")
    f, m = chars[0].modulus, len(psi)
    n = f // m
    mbar = pow(m, -1, n)
    # lambda is trivial when each of its prime powers is
    trivial = [not any(any(values) for _, values in lam) for _, lam in cuts]
    xs = psi if any(trivial) else psi[:(m + 1) // 2]
    if n > _BLOCK:
        width = 5 if keyed else 2  # bits of a key
        # points (c_x, key) for the x with key < NONUNIT, sorted by c_x and
        # kept as machine words, so they take 8 bytes each while the lambda
        # tables are built
        points = [x * mbar % n << width | k for x, k in enumerate(xs) if k < NONUNIT]
        points.sort()
        points = array("q", points)
    shift = [0] * NONUNIT
    if any(trivial):
        # sum_x (x - m*c_x) by key, for S0 * sum_x psi(x) (x - m*c_x)
        for x, k in enumerate(psi):
            if k < NONUNIT:
                shift[k] += x - m * (x * mbar % n)
    scale = f if any(trivial) else 2 * f  # doubled when halved
    out, walked = [], None
    for j, (_, lam_parts) in enumerate(cuts):
        if lam_parts != walked:
            # lambda's prefix columns, the real part and, only when lambda
            # takes the values +-i, the imaginary part, as prefix lists in
            # one block, kept per lambda by `_lambda_columns`, or as class
            # sums over the blocks
            walked = lam_parts
            if n <= _BLOCK:
                lam, quartic, columns = _lambda_columns(tuple(lam_parts))
                sums = _one_block_sums(xs, mbar, columns)
            else:
                lam = _exponent_table(lam_parts)
                quartic = 1 in lam or 3 in lam
                sums = [_prefix_class_sums(points, lam, part, width)
                        for part in (_RE, _IM)[:1 + quartic]]
            rotation = lam[m % n]
            del lam
        # re[k] + i*im[k] sums P(c_x) over the visited x with psi_j(x) = i^k
        re, im, sh = sums[0], sums[1] if quartic else [0] * 4, shift
        if keyed:  # from the keys k_a + 8 k_b
            re, im, sh = ([sum(s[8 * k:8 * k + 8] if j else s[k::4]) for k in range(4)]
                          for s in (re, im, sh))
        # f * sum_x psi(x) P(c_x) = f * sum_k i^k (re[k] + i*im[k])
        a = scale * (re[0] - re[2] - im[1] + im[3])
        b = scale * (re[1] - re[3] + im[0] - im[2])
        if trivial[j]:
            # S0 * sum_x psi(x) (x - m*c_x), with S0 the number of units mod n
            s0 = math.prod(g.modulus - g.modulus // g.p for g, _ in lam_parts)
            a += s0 * (sh[0] - sh[2])
            b += s0 * (sh[1] - sh[3])
        for _ in range(rotation):  # times lambda(m) = i^k
            a, b = -b, a
        out.append((a, b))
    return out


#: lambda sides whose one-block prefix columns `_lambda_columns` keeps: the
#: pairs at one t share K+, so the members of a pair and the pairs of a
#: family read the same lambda at 2 and at the primes of t^2 + 1
LAMBDA_MEMO_SIZE = 16


@lru_cache(maxsize=LAMBDA_MEMO_SIZE)
def _lambda_columns(lam_parts: tuple) -> tuple[bytes, bool, list[list[int]]]:
    """(lambda's exponent table, whether lambda takes the values +-i, its prefix
    columns) for a lambda table of n <= _BLOCK residues.

    `lam_parts` are lambda's (local group, values) pairs, so the key is each
    prime power's modulus and value map: (8|.) and (-8|.) share the modulus
    8 and differ in their values.  The columns are the prefix lists of the
    real part and, when lambda is quartic, of the imaginary part, each
    n + 1 ints that callers only read.
    """
    lam = _exponent_table(lam_parts)
    quartic = 1 in lam or 3 in lam
    return lam, quartic, [_prefix(lam, part) for part in (_RE, _IM)[:1 + quartic]]


def _prefix(lam: bytes, part: bytes, initial: int = 0) -> list[int]:
    """initial + P(c) for 0 <= c <= len(lam), P summing one part of lambda: its real
    part for part = _RE, its imaginary part for _IM."""
    return list(itertools.accumulate(memoryview(lam.translate(part)).cast("b"),
                                     initial=initial))


def _one_block_sums(xs: bytes, mbar: int, prefixes: list[list[int]]) -> list[list[int]]:
    """sums[j][key] = sum of prefixes[j][c_x] over the x with xs[x] = key < NONUNIT,
    c_x = x*mbar mod n, for one or two prefix lists over all n + 1 points: the
    real part of one lambda and, when it takes the values +-i, its imaginary part.

    One pass over xs, with no list of points: each column is one list,
    indexed at c_x.
    """
    n = len(prefixes[0]) - 1
    sums = [[0] * NONUNIT for _ in prefixes]
    if len(prefixes) == 1:
        (p0,), (s0,) = prefixes, sums
        for x, k in enumerate(xs):
            if k < NONUNIT:
                s0[k] += p0[x * mbar % n]
    else:
        (p0, p1), (s0, s1) = prefixes, sums
        for x, k in enumerate(xs):
            if k < NONUNIT:
                c = x * mbar % n
                s0[k] += p0[c]
                s1[k] += p1[c]
    return sums


def _prefix_class_sums(points: list[int], lam: bytes, part: bytes, width: int) -> list[int]:
    """sums[key] = sum of P(c) over the sorted points c << width | key, key < NONUNIT,
    P(c) = sum_{u<c} of one part of lambda(u): its real part for part = _RE,
    its imaginary part for _IM.

    The route for n > _BLOCK: lam is walked in blocks of _BLOCK residues up
    to the last point.  Each block's prefix sums, from the running total,
    are one list built by `itertools.accumulate` over the block's signed
    part bytes, read once at every point that falls in the block, so at
    most one block of ints is held at a time.
    """
    sums, total, i, mask = [0] * NONUNIT, 0, 0, (1 << width) - 1
    for start in range(0, (points[-1] >> width) + 1, _BLOCK):
        end = bisect.bisect_left(points, (start + _BLOCK) << width, i)
        prefix = _prefix(lam[start:start + _BLOCK], part, total)
        total = prefix[-1]
        for point in points[i:end]:
            sums[point & mask] += prefix[(point >> width) - start]
        i = end
        del prefix  # so the next block's list is not built beside this one
    return sums


def _loop_side(*decodes):
    """The prime powers of m in the split f = m * n that the B1 kernel loops over.

    `decodes` are the `_decode` lists of one or two characters on one
    modulus, and psi must be nontrivial on m for each.  Among such sides
    the split nearest sqrt(f), the least max(m, n), is taken, and of its
    two sides the smaller m, so the Python loop runs over the smaller
    side.  The two exponent tables then take m + n bytes, and the prefix
    sums of lambda at most one block of ints on top: all n of them when
    n <= _BLOCK, kept with lambda's table in the `_lambda_columns` memo,
    else _BLOCK at a time.

    Sides are bit masks over the prime powers, each m one product from
    the side without its lowest part, and the side is returned as parts
    of the first character.  The moduli are coprime, so distinct sides
    have distinct m and the least one is unique.
    """
    parts = decodes[0]
    moduli = [g.modulus for g, _ in parts]
    need_a, need_b = (sum(1 << i for i, (_, values) in enumerate(d) if any(values))
                      for d in (parts, decodes[-1]))
    f = math.prod(moduli)
    # (max(m, n), m) as the one integer max(m, n) * f + m <= f * f + f, since m <= f
    sizes, best, best_mask = [1], f * f + f + 1, 0
    for mask in range(1, 1 << len(parts)):
        low = mask & -mask
        m = sizes[mask ^ low] * moduli[low.bit_length() - 1]
        sizes.append(m)
        if mask & need_a and mask & need_b:
            size = max(m, f // m) * f + m
            if size < best:
                best, best_mask = size, mask
    return tuple(part for i, part in enumerate(parts) if best_mask >> i & 1)
