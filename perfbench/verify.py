"""Output checks: stored references plus independent routes.

Every op's output is normalised into JSON data, compared with the stored
reference for that input (integers, strings and flags exactly; reals
within the sum of their reported error bounds), and then checked by a
route that does not go through the package where one exists: the README's
closed forms for discriminants and regulators (evaluated with mpmath),
`sympy.factorint` for factorizations, a numpy square-free sieve for each
`sieve-t` window, and the paper's golden values.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import mpmath

REFS = Path(__file__).resolve().parent / "refs"
REAL_KEYS = {"value", "error_bound", "precision_bits"}
WORK_BITS = 1024

GOLDEN_CYCLIC = {"disc": 2**11 * 3**2 * 613**3, "class_number": 19400, "regulator": "8.4973985"}
GOLDEN_BIQUAD = {"fields": ((-21, 10), (-42, 10)), "class_number": 32}


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _digest(values: list) -> dict:
    text = ",".join(str(v) for v in values)
    return {"count": len(values), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _csv_bound(value: str, bits: int) -> str:
    # CSV drops the error bound; this covers the package's own bound
    # |v| 2^(2-bits) + 2^-bits, doubled for pair regulators, with room to spare
    with mpmath.workprec(WORK_BITS):
        v = abs(mpmath.mpf(value))
        return mpmath.nstr(v * mpmath.mpf(2) ** (4 - bits) + mpmath.mpf(2) ** (2 - bits), 5)


def normalise(op: list, output: str):
    """JSON data for one op's output; long `sieve-t` lists become digests."""
    if op[0] in ("cyclic", "biquad"):
        return json.loads(output)
    cmd, fmt = op[0], _flag(op, "--format", "json")
    bits = int(_flag(op, "--precision-bits", "128"))
    if fmt == "csv" and cmd != "target-regulator":
        rows = list(csv.DictReader(io.StringIO(output)))
        if cmd == "sieve-t":
            return {"t_values": _digest([r["t"] for r in rows])}
        for row in rows:
            row["regulator"] = {"value": row["regulator"], "precision_bits": bits,
                                "error_bound": _csv_bound(row["regulator"], bits)}
        return rows
    records, dec, i = [], json.JSONDecoder(), 0
    while i < len(output):
        if output[i].isspace():
            i += 1
            continue
        rec, i = dec.raw_decode(output, i)
        payload = rec.get("payload", {})
        if "t_values" in payload:
            payload["t_values"] = _digest(payload["t_values"])
        records.append(rec)
    return records


def _mpf(s) -> mpmath.mpf:
    return mpmath.mpf(str(s))


def compare(out, ref, path: str = "") -> list[str]:
    """Mismatches between normalised output and reference."""
    if isinstance(ref, dict) and set(ref) == REAL_KEYS:
        if not isinstance(out, dict) or set(out) != REAL_KEYS:
            return [f"{path}: not a real"]
        with mpmath.workprec(WORK_BITS):
            diff = abs(_mpf(out["value"]) - _mpf(ref["value"]))
            bound = _mpf(out["error_bound"]) + _mpf(ref["error_bound"])
        return [] if diff <= bound else [f"{path}: {out['value']} != {ref['value']}"]
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in sorted(ref) for m in compare(out[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: lengths differ"]
        return [m for i, (o, r) in enumerate(zip(out, ref)) for m in compare(o, r, f"{path}[{i}]")]
    return [] if out == ref else [f"{path}: {out!r} != {ref!r}"]


# ---- independent routes -----------------------------------------------------

def _close(real: dict, exact, what: str, slack: str = "0") -> list[str]:
    """`real` agrees with an mpmath value within its error bound (+ slack)."""
    with mpmath.workprec(WORK_BITS):
        diff = abs(_mpf(real["value"]) - exact)
        ok = diff <= _mpf(real["error_bound"]) + _mpf(slack)
    return [] if ok else [f"{what}: {real['value']} vs closed form {mpmath.nstr(exact, 20)}"]


def _base_regulator(t: int):
    with mpmath.workprec(WORK_BITS):
        return mpmath.log(t + mpmath.sqrt(t * t + 1))


def _factored_value(pretty: str) -> int:
    sign, body = (-1, pretty[1:]) if pretty.startswith("-") else (1, pretty)
    n = sign
    for part in body.split("*"):
        base, _, exp = part.partition("^")
        n *= int(base) ** int(exp or 1)
    return n


def _check_fact(fact: dict, expected: int, what: str) -> list[str]:
    import sympy

    factors = {int(p): int(e) for p, e in fact["factors"]}
    problems = []
    if int(fact["sign"]) * math.prod(p**e for p, e in factors.items()) != expected:
        problems.append(f"{what}: factors do not multiply to {expected}")
    if factors != sympy.factorint(expected):
        problems.append(f"{what}: factorization differs from sympy.factorint")
    return problems


def _residue(h: str, reg: dict, disc: int, w: int):
    """(2 pi)^2 h R / (w sqrt disc) and the part of its error carried in from R."""
    with mpmath.workprec(WORK_BITS):
        scale = (2 * mpmath.pi) ** 2 * int(h) / (w * mpmath.sqrt(disc))
        return scale * _mpf(reg["value"]), scale * _mpf(reg["error_bound"])


def _check_residue(res: dict, h: str, reg: dict, disc: int, w: int, what: str) -> list[str]:
    value, carried = _residue(h, reg, disc, w)
    return _close(res, value, what, mpmath.nstr(carried, 10))


def _check_cyclic_pair(t: int, p: int, rep: dict) -> list[str]:
    m = t * t + 1
    disc = 2**11 * p**2 * (m // 2) ** 3
    what = f"cyclic t={t} p={p}"
    problems = [f"{what}: flag {k} false" for k in ("distinct", "disc_equal", "reg_equal")
                if rep[k] is not True]
    problems += _check_fact(rep["disc"], disc, f"{what} disc")
    with mpmath.workprec(WORK_BITS):
        problems += _close(rep["regulator"], 2 * _base_regulator(t), f"{what} regulator")
    for side in ("a", "b"):
        h = rep[f"class_{side}"]
        if h is not None:
            problems += _check_residue(rep[f"residue_{side}"], h, rep["regulator"], disc, 2,
                                       f"{what} residue_{side}")
    return problems


def _check_biquad_pair(t: int, p: int, rep: dict) -> list[str]:
    m = t * t + 1
    disc = 2**8 * p**2 * (m // 2) ** 2
    what = f"biquad t={t} p={p}"
    problems = []
    if rep["fields"][0]["label"] == rep["fields"][1]["label"]:
        problems.append(f"{what}: fields are not distinct")
    for f in rep["fields"]:
        problems += _check_fact(f["disc"], disc, f"{what} {f['label']} disc")
        with mpmath.workprec(WORK_BITS):
            problems += _close(f["regulator"], 2 * _base_regulator(t), f"{what} regulator")
        problems += _check_residue(f["residue"], f["class_number"], f["regulator"], disc,
                                   int(f["roots_of_unity"]), f"{what} {f['label']} residue")
    return problems


_sieve_cache: dict[tuple[int, int, int], list[int]] = {}


def numpy_sieve(t_min: int, t_max: int, residue: int) -> list[int]:
    """t in [t_min, t_max], t = residue (mod 8), with no q^2 dividing t^2+1."""
    import numpy as np

    key = (t_min, t_max, residue)
    if key not in _sieve_cache:
        t = np.arange(t_min + (residue - t_min) % 8, t_max + 1, 8, dtype=np.int64)
        v = t * t + 1
        limit = math.isqrt(int(v.max()))
        is_p = np.ones(limit + 1, dtype=bool)
        is_p[:2] = False
        for q in range(2, math.isqrt(limit) + 1):
            if is_p[q]:
                is_p[q * q::q] = False
        q = np.nonzero(is_p)[0].astype(np.int64)
        # an odd prime dividing t^2+1 is 1 (mod 4)
        q = q[(q == 2) | (q % 4 == 1)]
        free = np.ones(len(v), dtype=bool)
        for chunk in np.array_split(q, max(1, len(q) // 2048)):
            free &= ~((v[None, :] % (chunk * chunk)[:, None]) == 0).any(axis=0)
        _sieve_cache[key] = [int(x) for x in t[free]]
    return _sieve_cache[key]


def _check_cli_pair(t: int, p: int, item: dict, what: str) -> list[str]:
    """One `pair`/`family` record: a JSON payload or a CSV row."""
    m = t * t + 1
    disc = 2**11 * p**2 * (m // 2) ** 3
    if "disc_factored" in item:  # CSV row
        flags = {k: item[k] == "true" for k in ("distinct", "disc_equal", "reg_equal")}
        problems = [] if _factored_value(item["disc_factored"]) == disc else [
            f"{what}: disc {item['disc_factored']} != {disc}"]
        if int(item["p"]) != p:
            problems.append(f"{what}: p {item['p']} != {p}")
    else:
        flags = {k: item[k] for k in ("distinct", "disc_equal", "reg_equal")}
        problems = _check_fact(item["disc"], disc, f"{what} disc")
        if int(item["p"]) != p or int(item["t"]) != t:
            problems.append(f"{what}: (t, p) = ({item['t']}, {item['p']}) != ({t}, {p})")
    problems += [f"{what}: flag {k} false" for k, v in flags.items() if v is not True]
    with mpmath.workprec(WORK_BITS):
        problems += _close(item["regulator"], 2 * _base_regulator(t), f"{what} regulator")
    return problems


def _items(data) -> list[dict]:
    return [r["payload"] if "payload" in r else r for r in data]


def _check_cli(argv: list[str], data) -> list[str]:
    import sympy

    cmd, what = argv[0], " ".join(argv)
    if cmd == "sieve-t":
        lo, hi, r = (int(_flag(argv, k, "0")) for k in ("--min", "--max", "--mod8"))
        digest = data["t_values"] if isinstance(data, dict) else data[0]["payload"]["t_values"]
        ok = digest == _digest(numpy_sieve(lo, hi, r))
        return [] if ok else [f"{what}: differs from the numpy sieve"]
    if cmd == "target-regulator":
        pay = data[0]["payload"]
        t, r = int(pay["t"]), int(_flag(argv, "--mod8", "5"))
        with mpmath.workprec(WORK_BITS):
            bound = mpmath.e ** _mpf(_flag(argv, "--M", "0"))
            first = int(mpmath.floor(bound)) + 1
        first += (r - first) % 8
        admissible = [u for u in range(first, t + 1, 8)
                      if max(sympy.factorint(u * u + 1).values()) == 1]
        problems = [] if admissible[:1] == [t] else [f"{what}: t = {t} is not the smallest"]
        with mpmath.workprec(WORK_BITS):
            return problems + _close(pay["regulator"], _base_regulator(t), f"{what} regulator")
    if cmd in ("pair", "family"):
        t = int(_flag(argv, "--t", "0"))
        if cmd == "pair":
            primes = [int(_flag(argv, "--p", "0"))]
        else:
            primes = [sympy.nextprime(t * t + 1)]
            while len(primes) < int(_flag(argv, "--count", "0")):
                primes.append(sympy.nextprime(primes[-1]))
        items = _items(data)
        if len(items) != len(primes):
            return [f"{what}: {len(items)} records for {len(primes)} primes"]
        return [m for p, item in zip(primes, items) for m in _check_cli_pair(t, p, item, what)]
    if cmd == "invariants":
        item = _items(data)[0]
        inv = item.get("invariants", item)
        disc = inv["disc"]["value"] if "disc" in inv else inv["disc_value"]
        problems = []
        if int(disc) != GOLDEN_CYCLIC["disc"]:
            problems.append(f"{what}: disc {disc} is not the golden value")
        if int(inv["class_number"]) != GOLDEN_CYCLIC["class_number"]:
            problems.append(f"{what}: class number {inv['class_number']} is not 19400")
        reg = inv["regulator"]["value"] if isinstance(inv["regulator"], dict) else inv["regulator"]
        if abs(_mpf(reg) - _mpf(GOLDEN_CYCLIC["regulator"])) > _mpf("1e-6"):
            problems.append(f"{what}: regulator {reg} is not the golden 8.4973985")
        return problems
    return [f"{what}: no independent check for this command"]


def independent(op: list, data) -> list[str]:
    if op[0] == "cyclic":
        return _check_cyclic_pair(op[1], op[2], data)
    if op[0] == "biquad":
        return _check_biquad_pair(op[1], op[2], data)
    return _check_cli(op, data)


def golden_biquad(root: Path) -> list[str]:
    """The paper's B(-21,10) and B(-42,10): class number 32, computed by the package."""
    import importlib
    import sys

    sys.path.insert(0, str(root / "src"))
    bq = importlib.import_module("cmquartic.biquadratic")
    problems = []
    for a, b in GOLDEN_BIQUAD["fields"]:
        h = bq.field_invariants(bq.biquadratic(a, b), 128, True).class_number
        if h != GOLDEN_BIQUAD["class_number"]:
            problems.append(f"B({a},{b}): class number {h} is not 32")
    return problems


def load_refs(workload: str) -> dict:
    return json.loads((REFS / f"{workload}.json").read_text())


def check_op(op: list, output: str | None, refs: dict, key: str) -> list[str]:
    """All problems with one op's output; empty when it is correct."""
    if output is None:
        return ["no output"]
    try:
        data = normalise(op, output)
        if key not in refs:
            return [f"{key}: no stored reference"]
        return compare(data, refs[key], key) + independent(op, data)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{key}: malformed output ({type(exc).__name__}: {exc})"]
