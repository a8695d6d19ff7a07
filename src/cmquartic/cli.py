"""Command-line surface.

Subcommands: invariants, pair, family, sieve-t, target-regulator,
verify-examples.  JSON output is canonical (sorted keys, big integers as
decimal strings) and byte-identical across runs with the same flags;
stage timings are only attached when explicitly requested, since they
would break that determinism.

Exit codes: 0 success, 1 verification mismatch, 2 domain error,
3 internal consistency error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import mpmath

from . import biquadratic as bq
from . import cyclic_quartic as cq
from . import families
from .arith import Factorization
from .cmfield import FieldInvariants
from .errors import ConsistencyError, DomainError, PrecisionError
from .precision import HighPrecReal

SCHEMA_VERSION = "cmq/1"

CSV_FAMILY_COLUMNS = ("p", "disc_factored", "regulator", "distinct", "disc_equal",
                      "reg_equal", "h_a", "h_b")

# paper-reported target values for verify-examples, and each member's invariants
_EXPECTED = (
    {"disc": 2**8 * 3**2 * 5**2 * 7**2, "regulator": "3.6368929", "class_number": 32,
     "label": "B({},{})", "members": ((-21, 10), (-42, 10)),
     "invariants": lambda a, b, args: bq.field_invariants(
         bq.biquadratic(a, b), args.precision_bits, True)},
    {"disc": 2**11 * 3**2 * 613**3, "regulator": "8.4973985", "class_number": 19400,
     "label": "K({},{})", "members": ((-3, 35), (-6, 35)),
     "invariants": lambda s, t, args: cq.field_invariants(
         cq.CyclicQuarticField(s, t), args.precision_bits, True)},
)


def _fact_payload(f: Factorization) -> dict:
    return {
        "sign": str(f.sign),
        "factors": [[str(p), str(e)] for p, e in f.factors],
        "value": str(f.value()),
        "pretty": str(f),
    }


def _real_payload(r: HighPrecReal) -> dict:
    return {
        "value": r.to_decimal(),
        "error_bound": mpmath.nstr(r.error_bound, 3),
        "precision_bits": r.precision_bits,
    }


def _invariants_payload(inv: FieldInvariants) -> dict:
    return {
        "disc": _fact_payload(inv.disc),
        "regulator": _real_payload(inv.regulator),
        "hasse_q": "unresolved" if inv.hasse_q is None else str(inv.hasse_q),
        "roots_of_unity": str(inv.roots_of_unity),
        "class_number": None if inv.class_number is None else str(inv.class_number),
        "r1": str(inv.r1),
        "r2": str(inv.r2),
    }


def _pair_payload(rep: families.PairReport) -> dict:
    return {
        "kind": rep.kind,
        "t": str(rep.t),
        "p": str(rep.p),
        "field_a": rep.field_a,
        "field_b": rep.field_b,
        "distinct": rep.distinct,
        "disc_equal": rep.disc_equal,
        "disc": _fact_payload(rep.disc),
        "regulator": _real_payload(rep.regulator),
        "reg_equal": rep.reg_equal,
        "class_a": None if rep.class_a is None else str(rep.class_a),
        "class_b": None if rep.class_b is None else str(rep.class_b),
        "residue_a": None if rep.residue_a is None else _real_payload(rep.residue_a),
        "residue_b": None if rep.residue_b is None else _real_payload(rep.residue_b),
    }


def _emit_record(command: str, payload: dict, timings: bool, started: float) -> None:
    record = {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}
    if timings:
        record["timings"] = {"total_ms": round((time.perf_counter() - started) * 1000, 3)}
    print(json.dumps(record, sort_keys=True, indent=2))


def _emit_csv(rows: list[dict], columns: tuple[str, ...]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _pair_csv_row(rep: families.PairReport) -> dict:
    return {
        "p": rep.p,
        "disc_factored": str(rep.disc),
        "regulator": rep.regulator.to_decimal(),
        "distinct": str(rep.distinct).lower(),
        "disc_equal": str(rep.disc_equal).lower(),
        "reg_equal": str(rep.reg_equal).lower(),
        "h_a": "" if rep.class_a is None else rep.class_a,
        "h_b": "" if rep.class_b is None else rep.class_b,
    }


def cmd_invariants(args) -> int:
    started = time.perf_counter()
    if args.kind == "biquad":
        if args.a is None or args.b is None:
            raise DomainError("biquad invariants need -a and -b", code="E_PARAM_MISSING")
        K = bq.biquadratic(args.a, args.b)
        inv = bq.field_invariants(K, args.precision_bits, args.with_class_number)
        payload = {"kind": "biquad", "radicands": [str(r) for r in K.radicands]}
    else:
        if args.s is None or args.t is None:
            raise DomainError("cyclic invariants need -s and -t", code="E_PARAM_MISSING")
        K = cq.CyclicQuarticField(args.s, args.t)
        inv = cq.field_invariants(K, args.precision_bits, args.with_class_number)
        payload = {
            "kind": "cyclic",
            "s": str(args.s),
            "t": str(args.t),
            "defining_polynomial": [str(c) for c in cq.defining_polynomial(args.s, args.t)],
        }
    payload.update(label=K.label(), maximal_real_subfield=str(K.kplus.radicand),
                   invariants=_invariants_payload(inv))
    if args.format == "csv":
        inv_payload = payload["invariants"]
        row = {
            "label": payload["label"],
            "disc_factored": inv_payload["disc"]["pretty"],
            "disc_value": inv_payload["disc"]["value"],
            "regulator": inv_payload["regulator"]["value"],
            "hasse_q": inv_payload["hasse_q"],
            "roots_of_unity": inv_payload["roots_of_unity"],
            "class_number": inv_payload["class_number"] or "",
        }
        _emit_csv([row], tuple(row))
    else:
        _emit_record("invariants", payload, args.timings, started)
    return 0


def cmd_pair(args) -> int:
    started = time.perf_counter()
    if args.kind == "biquad":
        rep = families.biquadratic_pair_report(args.t, args.p, args.precision_bits,
                                               args.with_class_number)
    else:
        rep = families.cyclic_pair_report(args.t, args.p, args.precision_bits,
                                          args.with_class_number)
    if args.format == "csv":
        _emit_csv([_pair_csv_row(rep)], CSV_FAMILY_COLUMNS)
    else:
        _emit_record("pair", _pair_payload(rep), args.timings, started)
    return 0


def cmd_family(args) -> int:
    started = time.perf_counter()
    if args.kind == "biquad":
        reports = families.biquadratic_family(args.t, args.count, args.precision_bits,
                                              args.with_class_number, args.jobs)
    else:
        reports = families.cyclic_family(args.t, args.count, args.precision_bits,
                                         args.with_class_number, args.jobs)
    if args.format == "csv":
        _emit_csv([_pair_csv_row(r) for r in reports], CSV_FAMILY_COLUMNS)
    else:
        for rep in reports:
            _emit_record("family", _pair_payload(rep), args.timings, started)
    return 0


def cmd_sieve(args) -> int:
    started = time.perf_counter()
    rep = families.sieve_t(args.min, args.max, args.mod8)
    if args.format == "csv":
        _emit_csv([{"t": t} for t in rep.t_values], ("t",))
    else:
        payload = {
            "t_values": [str(t) for t in rep.t_values],
            "residue_class": str(rep.residue_class),
            "t_min": str(rep.t_min),
            "t_max": str(rep.t_max),
        }
        _emit_record("sieve-t", payload, args.timings, started)
    return 0


def cmd_target_regulator(args) -> int:
    started = time.perf_counter()
    t, reg = families.regulator_target(args.M, args.mod8, args.precision_bits)
    payload = {"t": str(t), "regulator": _real_payload(reg), "M": str(args.M)}
    _emit_record("target-regulator", payload, args.timings, started)
    return 0


def _verify_one(label: str, inv: FieldInvariants, expected: dict,
                rows: list, failures: list) -> None:
    disc_ok = inv.disc.value() == expected["disc"]
    reg_ref = mpmath.mpf(expected["regulator"])
    reg_ok = abs(inv.regulator.value - reg_ref) <= mpmath.mpf("1e-6")
    h_ok = inv.class_number == expected["class_number"]
    rows.append((label, "discriminant", str(expected["disc"]), str(inv.disc.value()), disc_ok))
    rows.append((label, "regulator", expected["regulator"],
                 mpmath.nstr(inv.regulator.value, 12), reg_ok))
    rows.append((label, "class_number", str(expected["class_number"]),
                 str(inv.class_number), h_ok))
    for quantity, ok in (("discriminant", disc_ok), ("regulator", reg_ok),
                         ("class_number", h_ok)):
        if not ok:
            failures.append(f"{label}: {quantity}")


def cmd_verify_examples(args) -> int:
    rows: list[tuple] = []
    failures: list[str] = []
    for exp in _EXPECTED:
        for x, y in exp["members"]:
            _verify_one(exp["label"].format(x, y), exp["invariants"](x, y, args), exp,
                        rows, failures)

    width = (12, 14, 24, 24, 6)
    header = ("field", "quantity", "expected", "computed", "match")
    print("  ".join(h.ljust(w) for h, w in zip(header, width)))
    print("  ".join("-" * w for w in width))
    for label, quantity, expected, computed, ok in rows:
        cells = (label, quantity, expected, computed, "ok" if ok else "MISMATCH")
        print("  ".join(str(c).ljust(w) for c, w in zip(cells, width)))
    if failures:
        print(f"\nMISMATCH in: {', '.join(failures)}")
        return 1
    print("\nall invariants match")
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--precision-bits", type=int, default=128)
    shared.add_argument("--jobs", type=int, default=1)
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--with-class-number", action="store_true")
    shared.add_argument("--timings", action="store_true",
                        help="attach wall-clock timings (breaks byte-determinism)")

    parser = argparse.ArgumentParser(
        prog="cmquartic",
        description="Invariants and equal-invariant families of quartic CM-fields.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_inv = sub.add_parser("invariants", parents=[shared],
                           help="discriminant, regulator, unit index and class number")
    p_inv.add_argument("kind", choices=("biquad", "cyclic"))
    p_inv.add_argument("-a", type=int)
    p_inv.add_argument("-b", type=int)
    p_inv.add_argument("-s", type=int)
    p_inv.add_argument("-t", type=int)
    p_inv.set_defaults(func=cmd_invariants)

    p_pair = sub.add_parser("pair", parents=[shared],
                            help="one verified equal-invariant pair at a given prime")
    p_pair.add_argument("kind", choices=("biquad", "cyclic"))
    p_pair.add_argument("--t", type=int, required=True)
    p_pair.add_argument("--p", type=int, required=True)
    p_pair.set_defaults(func=cmd_pair)

    p_fam = sub.add_parser("family", parents=[shared],
                           help="stream of verified pairs over ascending primes")
    p_fam.add_argument("kind", choices=("biquad", "cyclic"))
    p_fam.add_argument("--t", type=int, required=True)
    p_fam.add_argument("--count", type=int, required=True)
    p_fam.set_defaults(func=cmd_family)

    p_sieve = sub.add_parser("sieve-t", parents=[shared],
                             help="t with t^2+1 square-free in a residue class mod 8")
    p_sieve.add_argument("--min", type=int, required=True)
    p_sieve.add_argument("--max", type=int, required=True)
    p_sieve.add_argument("--mod8", type=int, choices=(3, 5), required=True)
    p_sieve.set_defaults(func=cmd_sieve)

    p_target = sub.add_parser("target-regulator", parents=[shared],
                              help="smallest admissible t whose base regulator exceeds M")
    p_target.add_argument("--M", type=float, required=True)
    p_target.add_argument("--mod8", type=int, choices=(3, 5), default=5)
    p_target.set_defaults(func=cmd_target_regulator)

    p_verify = sub.add_parser("verify-examples", parents=[shared],
                              help="recompute the two bundled example pairs and diff")
    p_verify.set_defaults(func=cmd_verify_examples)

    return parser


def _emit_error(code: str, message: str, precondition: str | None) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": message,
                  "violated_precondition": precondition},
    }
    print(json.dumps(record, sort_keys=True, indent=2))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.precision_bits < 64 or args.jobs < 1:
        _emit_error("E_CONFIG", "precision_bits >= 64 and jobs >= 1 required", None)
        return 2
    try:
        return args.func(args)
    except DomainError as exc:
        _emit_error(exc.code, str(exc), exc.precondition)
        return 2
    except PrecisionError as exc:
        _emit_error(exc.code, str(exc), None)
        return 2
    except ConsistencyError as exc:
        _emit_error(exc.code, str(exc), None)
        return 3
    except Exception as exc:  # an uncaught fault is internal, never exit 1 (mismatch)
        _emit_error("E_INTERNAL", f"{type(exc).__name__}: {exc}", None)
        return 3


if __name__ == "__main__":
    sys.exit(main())
