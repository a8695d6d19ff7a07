"""Family generators and verification reports.

A segmented sieve for the t with t^2+1 square-free, regulator-target
search, the two infinite families of equal-invariant pairs (biquadratic
and cyclic quartic), and the zeta-residue cross-check.  The sieve walks
each prime p = 1 (mod 4) up to a cube-root bound along the window, so a
window costs t_max^(2/3) plus its length rather than one factorization
per t.  Pair generation is embarrassingly parallel over primes; output
order is always ascending in p regardless of worker count.

A pair works its reals out in one pass.  Each member's `FieldInvariants`
is built once, with its class number when asked for.  The members share
the discriminant, the regulator and w, so both zeta residues come from one
working-precision block (`_residues`, which `dedekind_residue` also uses)
that takes sqrt|disc| once per pair and 2^r1 (2 pi)^r2 once per precision,
from a memo.  The closed form log(|t| + sqrt(t^2+1)) that `reg_equal` checks
against is kept per |t| and precision, for as many t as the K+ memo keeps,
so the pairs of a family take that log once.

At module level only the standard library, `arith`, `errors` and
`precision` are imported, so the sieve loads no field module and no mpmath.
Other sibling modules are read as attributes of the package, which loads
each on first access, and mpmath is imported where a real is computed.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .arith import (_TRIAL_LIMIT, Factorization, _cofactor_exponents, _sqrt_mod_p, is_prime,
                    primes_in_progression)
from .errors import ConsistencyError, DomainError
from .precision import (FIELD_MEMO_SIZE, HighPrecReal, check_precision_bits, hp_from_value,
                        workprec)

if TYPE_CHECKING:
    from mpmath import mpf

    from .cmfield import FieldInvariants

_package = sys.modules[__package__]


@dataclass(frozen=True)
class SieveReport:
    t_values: tuple[int, ...]
    residue_class: int
    t_min: int
    t_max: int


@dataclass(frozen=True)
class PairReport:
    kind: str  # "biquadratic" | "cyclic"
    t: int
    p: int
    field_a: str
    field_b: str
    distinct: bool
    disc_equal: bool
    disc: Factorization
    regulator: HighPrecReal
    reg_equal: bool
    class_a: int | None = None
    class_b: int | None = None
    residue_a: HighPrecReal | None = None
    residue_b: HighPrecReal | None = None


@dataclass(frozen=True)
class FamilyReport:
    kind: str
    t: int
    fields: tuple[str, ...]
    primes: tuple[int, ...]
    regulator: HighPrecReal


#: candidates per sieve segment, so memory does not grow with the window
SIEVE_SEGMENT = 1 << 15


def _sqrt_minus_one_roots(bound: int) -> Iterator[tuple[int, int]]:
    """(p, r) for every prime p = 1 (mod 4) up to `bound`, with r^2 = -1 (mod p)."""
    prime = bytearray(b"\x01") * (bound + 1)  # read at odd indices only
    for p in range(3, math.isqrt(bound) + 1, 2):
        if prime[p]:
            prime[p * p::2 * p] = bytes(len(range(p * p, bound + 1, 2 * p)))
    for p in itertools.compress(range(5, bound + 1, 4), prime[5::4]):
        yield p, _sqrt_mod_p(p - 1, p)


def sieve_t(t_min: int, t_max: int, residue: int) -> SieveReport:
    """All t in [t_min, t_max] with t = residue (mod 8) and t^2+1 square-free.

    t is odd, so t^2+1 = 2n with n odd and every prime factor of n = 1
    (mod 4).  Each prime p = 1 (mod 4) up to B = min(ceil(n_max^(1/3)),
    the trial-division limit) is divided out of n along the two residue
    classes t = +-r (mod p) with r^2 = -1; a second factor p rejects t.
    What is left has only prime factors above B, so below B^3 it is
    square-free unless it is a square.  Above B^3, B is the trial-division
    limit, so it goes straight to the stage of `factor` after trial division.
    """
    if residue not in (3, 5):
        raise DomainError(f"residue {residue} must be 3 or 5", code="E_T_INADMISSIBLE")
    if t_min < 1:
        raise DomainError(f"t_min {t_min} must be >= 1")
    start = t_min + (residue - t_min) % 8
    count = (t_max - start) // 8 + 1
    if count <= 0:
        return SieveReport((), residue, t_min, t_max)
    t_last = start + 8 * (count - 1)
    n_max = (t_last * t_last + 1) // 2
    bound = _TRIAL_LIMIT
    if n_max < bound**3:
        bound = round(n_max ** (1 / 3))
        bound += bound**3 < n_max
    cube = bound**3
    # p | n  <=>  t = start + 8k = +-r (mod p)  <=>  k = (+-r - start) / 8 (mod p)
    # machine words, not tuples: at the 2^20 cap there are 81,904 classes
    primes, offsets = array("q"), array("q")
    for p, r in _sqrt_minus_one_roots(bound):
        inv8 = pow(8, -1, p)
        primes.extend((p, p))
        offsets.extend(((r - start) * inv8 % p, (-r - start) * inv8 % p))
    hits = []
    for k0 in range(0, count, SIEVE_SEGMENT):
        t0 = start + 8 * k0
        rest = [(t * t + 1) >> 1 for t in range(t0, min(t0 + 8 * SIEVE_SEGMENT, t_last + 1), 8)]
        size = len(rest)
        for p, u in zip(primes, offsets):
            for k in range((u - k0) % p, size, p):
                q = rest[k] // p
                rest[k] = q if q % p else 0  # 0 marks a rejected t
        for k, c in enumerate(rest):
            if c == 0:
                continue
            if c < cube:
                root = math.isqrt(c)
                if c > 1 and root * root == c:
                    continue
            elif any(e > 1 for e in _cofactor_exponents(c).values()):
                continue
            hits.append(t0 + 8 * k)
    return SieveReport(tuple(hits), residue, t_min, t_max)


#: largest M for regulator_target: the scan factors t^2+1 near e^(2M), which
#: took 10 s at M = 38 and did not finish at M = 50
MAX_TARGET_M = 30


def regulator_target(M: float, residue: int, precision_bits: int = 128) -> tuple[int, HighPrecReal]:
    """Smallest sieve-admissible t with t > e^M; returns (t, log(t + sqrt(t^2+1)))."""
    if not math.isfinite(M):
        raise DomainError(f"M = {M} must be finite", precondition="M finite")
    if M <= 0:
        raise DomainError(f"M = {M} must be positive", precondition="M > 0")
    if M > MAX_TARGET_M:
        raise DomainError(f"M = {M} exceeds the bound {MAX_TARGET_M}",
                          precondition=f"M <= {MAX_TARGET_M}")
    if residue not in (3, 5):
        raise DomainError(f"residue {residue} must be 3 or 5", code="E_T_INADMISSIBLE")
    import mpmath

    quadratic = _package.quadratic
    check_precision_bits(precision_bits)
    with workprec(precision_bits):
        bound = mpmath.e**mpmath.mpf(M)
        floor = int(mpmath.floor(bound))
    # start at the last t = residue (mod 8) with t <= floor(e^M), in exact integers
    t = floor - (floor - residue) % 8
    # t^2+1 is square-free exactly when it is the radicand of K+ = Q(sqrt(t^2+1)),
    # read through the field memo: one factorization per t, and the regulator
    # below reuses the last K+
    while t <= bound or quadratic.quadratic_field(t * t + 1).radicand != t * t + 1:
        t += 8
    reg = quadratic.regulator(quadratic.quadratic_field(t * t + 1), precision_bits)
    if not reg.value > M:
        raise ConsistencyError(f"regulator target missed: {reg.value} <= {M}")
    return t, reg


def _require_admissible_t(t: int) -> None:
    if t % 8 not in (3, 5):
        raise DomainError(
            f"t = {t} is not 3 or 5 (mod 8)", code="E_T_INADMISSIBLE",
            precondition="t = 3 or 5 (mod 8)")
    if _package.quadratic.quadratic_field(t * t + 1).radicand != t * t + 1:
        raise DomainError(
            f"t = {t} has t^2+1 = {t * t + 1} not square-free", code="E_T_INADMISSIBLE",
            precondition="t^2+1 square-free")


class _Kind(NamedTuple):
    """A family kind; its functions look the field modules up at call time."""

    modulus: int  # p runs over the primes > t^2+1 with p = 1 (mod modulus)
    member: Callable  # (a, t) -> the field at a = -p or -2p
    same: Callable  # (Ka, Kb) -> True when both members are one field


_KINDS = {
    "biquadratic": _Kind(4, lambda a, t: _package.biquadratic.biquadratic(a, t * t + 1),
                         lambda Ka, Kb: Ka == Kb),
    "cyclic": _Kind(2, lambda a, t: _package.cyclic_quartic.CyclicQuarticField(a, t),
                    lambda Ka, Kb: _package.cyclic_quartic.same_field(Ka.s, Kb.s, Ka.t)),
}


def _pair_report(kind: str, t: int, p: int, precision_bits: int,
                 with_class_number: bool) -> PairReport:
    """Verified report for the pair of fields of `kind` at -p and -2p.

    The members share K+, so reg(K+) and h(K+) are read from it, computed
    once per t, and 2 reg(K+) / Q is reg(K+) doubled exactly or itself.
    Both class numbers come from `cmfield.pair_class_numbers`, one B1
    kernel pass per couple of odd characters: each member's
    `odd_characters()`, the ones `cmfield.class_number` reads for a single
    field, zipped in order.  These are the two Kronecker couples on 8p and
    8pm' of a biquadratic pair, or the cyclic members' characters, each
    built and checked on its own, with the check's square roots of t^2+1
    kept per radicand by `cyclic_quartic`.  `cmfield.pair_invariants`
    builds each member's record once, with its class number; both residues
    then come from `_residues`.
    """
    cmfield = _package.cmfield
    _require_admissible_t(t)
    m = t * t + 1
    modulus, member, same = _KINDS[kind]
    if not is_prime(p) or p <= m or p % modulus != 1:
        need = (f"an odd prime > {m}" if modulus == 2
                else f"a prime > {m} with p = 1 (mod {modulus})")
        raise DomainError(f"p = {p} is inadmissible for t = {t}: need {need}",
                          code="E_PRIME_INADMISSIBLE")
    Ka, Kb = member(-p, t), member(-2 * p, t)
    inv_a, inv_b = cmfield.pair_invariants(Ka, Kb, precision_bits, with_class_number)
    residue_a, residue_b = (_residues((inv_a, inv_b), precision_bits) if with_class_number
                            else (None, None))
    # independent of the PQa route: t^2+1 = 2 (mod 8) is square-free, so
    # |t| + sqrt(t^2+1) is the fundamental unit of K+, for either sign of t,
    # and reg(K) = 2 log of it / Q
    unit_log = _unit_log(abs(t), precision_bits)
    with workprec(precision_bits):
        reg_equal = inv_a.hasse_q == inv_b.hasse_q and all(
            abs(inv.regulator.value - 2 * unit_log / inv.hasse_q) <= inv.regulator.error_bound
            for inv in (inv_a, inv_b))
    return PairReport(
        kind=kind, t=t, p=p,
        field_a=Ka.label(), field_b=Kb.label(),
        distinct=not same(Ka, Kb),
        disc_equal=inv_a.disc == inv_b.disc,
        disc=inv_a.disc,
        regulator=inv_a.regulator,
        reg_equal=reg_equal,
        class_a=inv_a.class_number, class_b=inv_b.class_number,
        residue_a=residue_a, residue_b=residue_b,
    )


@lru_cache(maxsize=FIELD_MEMO_SIZE)
def _unit_log(abs_t: int, precision_bits: int) -> mpf:
    """log(|t| + sqrt(t^2+1)) at the working precision of `precision_bits`, from t itself."""
    import mpmath

    with workprec(precision_bits):
        return mpmath.log(abs_t + mpmath.sqrt(abs_t * abs_t + 1))


def biquadratic_pair_report(t: int, p: int, precision_bits: int = 128,
                            with_class_number: bool = False) -> PairReport:
    """Verified report for the pair (B(-p, t^2+1), B(-2p, t^2+1))."""
    return _pair_report("biquadratic", t, p, precision_bits, with_class_number)


def cyclic_pair_report(t: int, p: int, precision_bits: int = 128,
                       with_class_number: bool = False) -> PairReport:
    """Verified report for the pair (K(-p, t), K(-2p, t))."""
    return _pair_report("cyclic", t, p, precision_bits, with_class_number)


def _family_reports(kind: str, t: int, count: int, precision_bits: int,
                    with_class_number: bool, jobs: int) -> list[PairReport]:
    _require_admissible_t(t)
    if count < 0:
        raise DomainError(f"count {count} must be nonnegative")
    primes = primes_in_progression(t * t + 2, _KINDS[kind].modulus, 1, count)
    args = (precision_bits, with_class_number)
    if jobs > 1 and len(primes) > 1:
        # imported here: it loads logging, traceback, textwrap and string,
        # which every other command would pay for at start-up
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_pair_report, kind, t, p, *args) for p in primes]
            return [f.result() for f in futures]
    return [_pair_report(kind, t, p, *args) for p in primes]


def biquadratic_family(t: int, count: int, precision_bits: int = 128,
                       with_class_number: bool = False, jobs: int = 1) -> list[PairReport]:
    """First `count` pairs (B(-p, t^2+1), B(-2p, t^2+1)) over primes p = 1 (mod 4), p > t^2+1."""
    return _family_reports("biquadratic", t, count, precision_bits, with_class_number, jobs)


def cyclic_family(t: int, count: int, precision_bits: int = 128,
                  with_class_number: bool = False, jobs: int = 1) -> list[PairReport]:
    """First `count` pairs (K(-p, t), K(-2p, t)) over odd primes p > t^2+1."""
    return _family_reports("cyclic", t, count, precision_bits, with_class_number, jobs)


def same_regulator_family(kind: str, t: int, count: int,
                          precision_bits: int = 128) -> FamilyReport:
    """`count` pairwise-distinct fields sharing the single regulator 2*log(|t| + sqrt(t^2+1)).

    The members at -p of the first `count` verified pairs of `kind`; a pair
    without `reg_equal`, a regulator other than reg(K+) doubled or a repeated
    discriminant is a ConsistencyError.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown family kind {kind!r}")
    reports = _family_reports(kind, t, count, precision_bits, False, 1)
    quadratic = _package.quadratic
    reg = quadratic.regulator(quadratic.quadratic_field(t * t + 1), precision_bits).doubled()
    if not all(rep.reg_equal and rep.regulator == reg for rep in reports):
        raise ConsistencyError(f"a member of the family at t = {t} has another regulator")
    if len({rep.disc for rep in reports}) < len(reports):
        raise ConsistencyError(f"duplicate discriminant in the family at t = {t}")
    return FamilyReport(kind=kind, t=t, fields=tuple(rep.field_a for rep in reports),
                        primes=tuple(rep.p for rep in reports), regulator=reg)


def dedekind_residue(inv: FieldInvariants, precision_bits: int = 128) -> HighPrecReal:
    """Residue of the zeta function at 1: 2^r1 (2 pi)^r2 h reg / (w sqrt|disc|).

    Analytic class number formula (Washington, Introduction to Cyclotomic
    Fields, Thm 4.17).  The residue is derived from h, reg, disc and w of
    `inv` and checks nothing: a wrong h gives a wrong residue, not an error.
    """
    (residue,) = _residues((inv,), precision_bits)
    return residue


@lru_cache(maxsize=FIELD_MEMO_SIZE)
def _archimedean_factor(r1: int, r2: int, precision_bits: int) -> mpf:
    """2^r1 (2 pi)^r2 at the working precision of `precision_bits`."""
    import mpmath

    with workprec(precision_bits):
        return mpmath.mpf(2) ** r1 * (2 * mpmath.pi) ** r2


def _residues(invs: tuple[FieldInvariants, ...], precision_bits: int) -> list[HighPrecReal]:
    """`dedekind_residue` of each of `invs`, in one working-precision block.

    w sqrt|disc| is taken once per (w, disc), so once for the two members of
    a pair, and 2^r1 (2 pi)^r2 once per precision; each value is
    ((2^r1 (2 pi)^r2 * h) * reg) / (w sqrt|disc|), rounded in that order.
    """
    import mpmath

    check_precision_bits(precision_bits)
    if any(inv.class_number is None for inv in invs):
        raise DomainError("class number unresolved: residue not computable",
                          code="E_UNRESOLVED")
    denominators = {}
    values = []
    with workprec(precision_bits):
        for inv in invs:
            key = (inv.roots_of_unity, inv.disc)
            if key not in denominators:
                denominators[key] = inv.roots_of_unity * mpmath.sqrt(abs(inv.disc.value()))
            num = (_archimedean_factor(inv.r1, inv.r2, precision_bits)
                   * inv.class_number * inv.regulator.value)
            values.append(num / denominators[key])
    return [hp_from_value(val, precision_bits) for val in values]
