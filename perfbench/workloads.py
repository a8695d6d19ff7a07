"""Input pools, seeded schedules and the ops of the three workloads.

Each workload's pool is split into strata of inputs of similar cost.  A
run is a sequence of rounds; a round draws one input from every stratum
and shuffles them.  The seed chooses the draws and the order, so the same
seed gives the same inputs, while every run sees the same mix of costs.

The program receives only the generated `(t, p)` or argv: pools are built
here with the benchmark's own prime test, not with the package.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

WORKLOADS = ("cyclic-pairs", "biquad-pairs", "cli")

PRECISION_BITS = 128

#: cyclic-pairs: t -> (odd family primes, bands, draws per band).  The pair
#: cost grows with the conductor f = 8p(t^2+1), here 6k to 317k, so
#: consecutive primes make bands of similar cost.  A round has one pair
#: from each of the three cheaper t = 5 bands (0.06-0.15 s), three from the
#: dearest t = 5 band (0.15-0.2 s), two at t = 11 (0.8-1.3 s) and one at
#: t = 13 (1.4-2.1 s): as many ops below the dearest t = 5 band as above it,
#: so the median falls in its middle, and the tail, with ten ops beyond it,
#: among the t = 11 pairs.
CYCLIC_T = {5: (20, 4, (1, 1, 1, 3)), 11: (12, 1, (2,)), 13: (12, 1, (1,))}

#: biquad-pairs: t -> bands of its first 24 primes p = 1 (mod 4).  Three
#: draws at t = 53 put the median inside one cost cluster, and two at
#: t = 61 put the tail inside the most expensive one.
BIQUAD_T = {13: 1, 35: 1, 53: 3, 61: 2}
BIQUAD_PRIMES = 24

#: cli: sieve windows of 1,000 candidates.  Window cost grows linearly with
#: t0, so the windows start near one point, log10(t0) = 5.03 +- 0.025, and
#: cost about 1.1 s each.  A round has three windows and six start-up-bound
#: ops, so the tail, with ten ops beyond it, falls inside the cluster of
#: windows and the median inside the cluster of start-up-bound ops.
SIEVE_CENTRE = 5.03
SIEVE_DRAWS = 3
SIEVE_STARTS = 4
SIEVE_CANDIDATES = 1000
CLI_PRECISIONS = ("64", "128", "256")
CLI_FORMATS = ("json", "csv")
TARGET_M = tuple(str(6 + k / 2) for k in range(9))  # 6.0 .. 10.0
CLI_PAIR_T = (5, 13, 35)
CLI_PAIR_PRIMES = 4
GOLDEN_ARGV = ("invariants", "cyclic", "-s", "-3", "-t", "35", "--with-class-number")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def family_primes(t: int, modulus: int, count: int) -> list[int]:
    """First `count` primes p > t^2+1 with p = 1 (mod modulus)."""
    out: list[int] = []
    p = t * t + 2
    while len(out) < count:
        if p % modulus == 1 and _is_prime(p):
            out.append(p)
        p += 1
    return out


def _bands(items: list, n: int) -> list[list]:
    size = math.ceil(len(items) / n)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _sieve_starts() -> list[int]:
    rng = random.Random(f"cmquartic-sieve-windows:{SIEVE_CENTRE}")
    return sorted(round(10 ** rng.uniform(SIEVE_CENTRE - 0.025, SIEVE_CENTRE + 0.025))
                  for _ in range(SIEVE_STARTS))


def _cli_variants(argv: list[str], precision: bool = True, fmt: bool = True) -> list[list[str]]:
    out = [argv]
    if precision:
        out = [a + ["--precision-bits", b] for a in out for b in CLI_PRECISIONS]
    if fmt:
        out = [a + ["--format", f] for a in out for f in CLI_FORMATS]
    return out


def strata(workload: str) -> list[list[list]]:
    """The workload's pool as strata of ops; an op is a JSON-able list."""
    if workload == "cyclic-pairs":
        return [[["cyclic", t, p] for p in band]
                for t, (count, n, draws) in CYCLIC_T.items()
                for band, k in zip(_bands(family_primes(t, 2, count), n), draws)
                for _ in range(k)]
    if workload == "biquad-pairs":
        return [[["biquad", t, p] for p in band]
                for t, n in BIQUAD_T.items()
                for band in _bands(family_primes(t, 4, BIQUAD_PRIMES), n)]
    if workload == "cli":
        sieve = [argv for t0 in _sieve_starts() for r in ("3", "5")
                 for argv in _cli_variants(
                     ["sieve-t", "--min", str(t0),
                      "--max", str(t0 + 8 * SIEVE_CANDIDATES - 1), "--mod8", r],
                     precision=False)]
        out = [sieve] * SIEVE_DRAWS
        target = [argv for M in TARGET_M for r in ("3", "5")
                  for argv in _cli_variants(["target-regulator", "--M", M, "--mod8", r],
                                            fmt=False)]
        family = _cli_variants(["family", "cyclic", "--t", "5", "--count", "20"])
        pair = [argv for t in CLI_PAIR_T for p in family_primes(t, 2, CLI_PAIR_PRIMES)
                for argv in _cli_variants(["pair", "cyclic", "--t", str(t), "--p", str(p)])]
        golden = _cli_variants(list(GOLDEN_ARGV))
        # a round takes about 4 s, so a 30 s run has about 7 rounds
        for ops, draws in ((target, 2), (family, 1), (pair, 2), (golden, 1)):
            out += [ops] * draws
        return out
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list[list]:
    """Every distinct input of the workload, in stratum order."""
    out: list[list] = []
    for ops in strata(workload):
        out += [op for op in ops if op not in out]
    return out


def rounds(workload: str, seed: int) -> Iterator[list[list]]:
    """Endless seeded rounds: one draw per stratum, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = strata(workload)
    while True:
        draw = [rng.choice(ops) for ops in groups]
        rng.shuffle(draw)
        yield draw


def op_key(op: list) -> str:
    return " ".join(str(x) for x in op)


# ---- library ops, run inside the worker interpreter ------------------------

def _fact(f) -> dict:
    return {"sign": str(f.sign), "factors": [[str(p), str(e)] for p, e in f.factors]}


def _real(r) -> dict:
    import mpmath

    digits = int(r.precision_bits * 0.30103) + 4
    return {"value": mpmath.nstr(r.value, digits, strip_zeros=False),
            "error_bound": mpmath.nstr(r.error_bound, 5),
            "precision_bits": r.precision_bits}


def _opt(x, fn=str):
    return None if x is None else fn(x)


def cyclic_pair(t: int, p: int) -> dict:
    """The verified cyclic pair report with class numbers, as canonical JSON data."""
    import cmquartic.families as families

    rep = families.cyclic_pair_report(t, p, PRECISION_BITS, with_class_number=True)
    return {
        "t": str(rep.t), "p": str(rep.p), "field_a": rep.field_a, "field_b": rep.field_b,
        "distinct": rep.distinct, "disc_equal": rep.disc_equal, "reg_equal": rep.reg_equal,
        "disc": _fact(rep.disc), "regulator": _real(rep.regulator),
        "class_a": _opt(rep.class_a), "class_b": _opt(rep.class_b),
        "residue_a": _opt(rep.residue_a, _real), "residue_b": _opt(rep.residue_b, _real),
    }


def biquad_pair(t: int, p: int) -> dict:
    """Invariants, class numbers and residues of (B(-p, t^2+1), B(-2p, t^2+1)).

    `families.biquadratic_pair_report` cannot reach the module at this
    commit (the package attribute `biquadratic` is the function), so the
    pair is composed from the module's own functions.
    """
    import importlib

    bq = importlib.import_module("cmquartic.biquadratic")
    families = importlib.import_module("cmquartic.families")
    m = t * t + 1
    fields = []
    for a in (-p, -2 * p):
        K = bq.biquadratic(a, m)
        inv = bq.field_invariants(K, PRECISION_BITS, True)
        fields.append({
            "label": K.label(), "disc": _fact(inv.disc), "regulator": _real(inv.regulator),
            "hasse_q": _opt(inv.hasse_q), "roots_of_unity": str(inv.roots_of_unity),
            "class_number": _opt(inv.class_number),
            "residue": _real(families.dedekind_residue(inv, PRECISION_BITS)),
        })
    return {"t": str(t), "p": str(p), "fields": fields}


LIBRARY_OPS = {"cyclic": cyclic_pair, "biquad": biquad_pair}


def warm_up(workload: str) -> None:
    """One cheap untimed call, so lazy set-up in mpmath is not charged to the first op.

    It computes no class number, so it fills no Dirichlet cache that a
    measured op could reuse.
    """
    if workload == "cyclic-pairs":
        import cmquartic.families as families

        families.cyclic_pair_report(5, 31, PRECISION_BITS, with_class_number=False)
    elif workload == "biquad-pairs":
        biquad_pair(5, 29)
