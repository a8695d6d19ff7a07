"""Command-line surface.

Subcommands: invariants, pair, family, sieve-t, target-regulator,
verify-examples.  Each accepts only the flags it acts on.  A command
returns its records (the library's `PairReport`s, `SieveReport` and
`FieldInvariants`) with their CSV rows; `main` writes them.  One
serializer, `_data`, turns every record into canonical JSON data (sorted
keys, big integers as decimal strings), so output is byte-identical
across runs with the same flags; stage timings are only attached when
explicitly requested, since they would break that determinism.  The
records are NamedTuples, which `_data` reads by `_asdict()`.

Exit codes: 0 success, 1 verification mismatch, 2 domain error,
3 internal consistency error, or stdout closed before the output was
written (then nothing more is written and no traceback is printed).

At module level only what every command needs is imported.  The field
modules are read as attributes of the package, which loads each on first
access, mpmath is imported only where a real is formatted or compared, and
csv only where a CSV is written, so `sieve-t` loads neither mpmath nor a
field module, and no command loads `inspect`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import families
from .arith import Factorization
from .errors import ConsistencyError, DomainError
from .precision import MIN_PRECISION_BITS, HighPrecReal

_package = sys.modules[__package__]

SCHEMA_VERSION = "cmq/1"

CSV_FAMILY_COLUMNS = ("p", "disc_factored", "regulator", "distinct", "disc_equal",
                      "reg_equal", "h_a", "h_b")

# paper-reported target values for verify-examples, and each pair's members
_EXPECTED = (
    {"kind": "biquad", "label": "B({},{})", "members": ((-21, 10), (-42, 10)),
     "disc": 2**8 * 3**2 * 5**2 * 7**2, "regulator": "3.6368929", "class_number": 32},
    {"kind": "cyclic", "label": "K({},{})", "members": ((-3, 35), (-6, 35)),
     "disc": 2**11 * 3**2 * 613**3, "regulator": "8.4973985", "class_number": 19400},
)


def _data(x):
    """Canonical JSON data of a record; a type without a cmq/1 form is a TypeError."""
    if isinstance(x, Factorization):
        return {"sign": str(x.sign), "factors": _data(x.factors),
                "value": str(x.value()), "pretty": str(x)}
    if isinstance(x, HighPrecReal):
        import mpmath

        return {"value": x.to_decimal(), "error_bound": mpmath.nstr(x.error_bound, 3),
                "precision_bits": x.precision_bits}
    if hasattr(x, "_asdict"):  # a record: a NamedTuple, so ahead of the tuple branch
        x = x._asdict()
    if isinstance(x, dict):
        return {key: _data(value) for key, value in x.items()}
    if isinstance(x, (bool, str)) or x is None:
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, tuple):
        return [_data(item) for item in x]
    raise TypeError(f"{type(x).__name__} has no cmq/1 form")


def _field(kind: str, x: int, y: int, precision_bits: int, with_class_number: bool):
    """B(x, y) or K(x, y), with its FieldInvariants."""
    K = (_package.biquadratic.biquadratic(x, y) if kind == "biquad"
         else _package.cyclic_quartic.CyclicQuarticField(x, y))
    return K, _package.cmfield.field_invariants(K, precision_bits, with_class_number)


def cmd_invariants(args):
    K, inv = _field(args.kind, args.x, args.y, args.precision_bits, args.with_class_number)
    if args.kind == "cyclic":
        record = {"kind": args.kind, "s": K.s, "t": K.t,
                  "defining_polynomial": _package.cyclic_quartic.defining_polynomial(K.s, K.t)}
    else:
        record = {"kind": args.kind, "radicands": K.radicands}
    record = _data({**record, "label": K.label(), "maximal_real_subfield": K.kplus.radicand,
                    "invariants": inv})
    inv = record["invariants"]
    row = {"label": record["label"], "disc_factored": inv["disc"]["pretty"],
           "disc_value": inv["disc"]["value"], "regulator": inv["regulator"]["value"],
           "hasse_q": inv["hasse_q"], "roots_of_unity": inv["roots_of_unity"],
           "class_number": inv["class_number"]}
    return [record], [row], tuple(row)


def _pairs(reports):
    records = [_data(rep) for rep in reports]
    rows = [{"p": r["p"], "disc_factored": r["disc"]["pretty"],
             "regulator": r["regulator"]["value"],
             **{flag: json.dumps(r[flag]) for flag in ("distinct", "disc_equal", "reg_equal")},
             "h_a": r["class_a"], "h_b": r["class_b"]} for r in records]
    return records, rows, CSV_FAMILY_COLUMNS


# the cyclic functions are read off `families` at call time, so that a
# wrapper installed there (as the benchmark's tracer does) sees the call
def cmd_pair(args):
    report = (families.biquadratic_pair_report if args.kind == "biquad"
              else families.cyclic_pair_report)
    return _pairs([report(args.t, args.p, args.precision_bits, args.with_class_number)])


def cmd_family(args):
    family = families.biquadratic_family if args.kind == "biquad" else families.cyclic_family
    return _pairs(family(args.t, args.count, args.precision_bits, args.with_class_number,
                         args.jobs))


def cmd_sieve(args):
    rep = families.sieve_t(args.min, args.max, args.mod8)
    return [_data(rep)], [{"t": t} for t in rep.t_values], ("t",)


def cmd_target_regulator(args):
    t, reg = families.regulator_target(args.M, args.mod8, args.precision_bits)
    return [_data({"t": t, "regulator": reg, "M": str(args.M)})], [], ()


def cmd_verify_examples(args) -> int:
    """Prints the diff table itself; returns the exit code, 1 on any mismatch."""
    import mpmath

    rows: list[tuple] = []
    for exp in _EXPECTED:
        reg_ref = mpmath.mpf(exp["regulator"])
        for x, y in exp["members"]:
            _, inv = _field(exp["kind"], x, y, args.precision_bits, True)
            label = exp["label"].format(x, y)
            disc = inv.disc.value()
            rows += [
                (label, "discriminant", str(exp["disc"]), str(disc), disc == exp["disc"]),
                (label, "regulator", exp["regulator"], mpmath.nstr(inv.regulator.value, 12),
                 abs(inv.regulator.value - reg_ref) <= mpmath.mpf("1e-6")),
                (label, "class_number", str(exp["class_number"]), str(inv.class_number),
                 inv.class_number == exp["class_number"]),
            ]
    failures = [f"{label}: {quantity}" for label, quantity, *_, ok in rows if not ok]

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


_FLAGS = {
    "--precision-bits": {"type": int, "default": 128},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--with-class-number": {"action": "store_true"},
    "--timings": {"action": "store_true",
                  "help": "attach wall-clock timings (breaks byte-determinism)"},
    "--jobs": {"type": int, "default": 1},
}
_RECORD_FLAGS = ("--precision-bits", "--format", "--with-class-number", "--timings")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmquartic",
        description="Invariants and equal-invariant families of quartic CM-fields.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(parent, name, help_text, func, flags):
        p = parent.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p_inv = sub.add_parser("invariants",
                           help="discriminant, regulator, unit index and class number")
    kinds = p_inv.add_subparsers(dest="kind", required=True)
    for kind, params, field in (("biquad", ("-a", "-b"), "B(a, b) = Q(sqrt(a), sqrt(b))"),
                                ("cyclic", ("-s", "-t"), "the cyclic quartic field K(s, t)")):
        p_kind = command(kinds, kind, field, cmd_invariants, _RECORD_FLAGS)
        for param, dest in zip(params, ("x", "y")):
            p_kind.add_argument(param, dest=dest, metavar=param[1:].upper(), type=int,
                                required=True)

    p_pair = command(sub, "pair", "one verified equal-invariant pair at a given prime",
                     cmd_pair, _RECORD_FLAGS)
    p_pair.add_argument("kind", choices=("biquad", "cyclic"))
    p_pair.add_argument("--t", type=int, required=True)
    p_pair.add_argument("--p", type=int, required=True)

    p_fam = command(sub, "family", "stream of verified pairs over ascending primes",
                    cmd_family, _RECORD_FLAGS + ("--jobs",))
    p_fam.add_argument("kind", choices=("biquad", "cyclic"))
    p_fam.add_argument("--t", type=int, required=True)
    p_fam.add_argument("--count", type=int, required=True)

    p_sieve = command(sub, "sieve-t", "t with t^2+1 square-free in a residue class mod 8",
                      cmd_sieve, ("--format", "--timings"))
    p_sieve.add_argument("--min", type=int, required=True)
    p_sieve.add_argument("--max", type=int, required=True)
    p_sieve.add_argument("--mod8", type=int, choices=(3, 5), required=True)

    p_target = command(sub, "target-regulator",
                       "smallest admissible t whose base regulator exceeds M",
                       cmd_target_regulator, ("--precision-bits", "--timings"))
    p_target.add_argument("--M", type=float, required=True)
    p_target.add_argument("--mod8", type=int, choices=(3, 5), default=5)

    command(sub, "verify-examples", "recompute the two bundled example pairs and diff",
            cmd_verify_examples, ("--precision-bits",))
    return parser


def _emit_error(code: str, message: str, precondition: str | None) -> None:
    record = {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": message,
                  "violated_precondition": precondition},
    }
    print(json.dumps(record, sort_keys=True, indent=2))


def _run(args) -> int:
    """Run the command; write its CSV rows, or one JSON record per item."""
    started = time.perf_counter()
    result = args.func(args)
    if isinstance(result, int):  # verify-examples prints its own table
        return result
    records, rows, columns = result
    if getattr(args, "format", "json") == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return 0
    for payload in records:
        record = {"schema_version": SCHEMA_VERSION, "command": args.subcommand,
                  "payload": payload}
        if args.timings:
            record["timings"] = {"total_ms": round((time.perf_counter() - started) * 1000, 3)}
        print(json.dumps(record, sort_keys=True, indent=2))
    return 0


def _exit_code(args) -> int:
    """Run the command; an error becomes one record and its exit code."""
    if (getattr(args, "precision_bits", MIN_PRECISION_BITS) < MIN_PRECISION_BITS
            or getattr(args, "jobs", 1) < 1):
        _emit_error("E_CONFIG", f"precision_bits >= {MIN_PRECISION_BITS} and jobs >= 1 required",
                    None)
        return 2
    try:
        return _run(args)
    except BrokenPipeError:  # no record can reach a closed stdout: see `main`
        raise
    except DomainError as exc:
        _emit_error(exc.code, str(exc), exc.precondition)
        return 2
    except ConsistencyError as exc:
        _emit_error(exc.code, str(exc), None)
        return 3
    except Exception as exc:  # an uncaught fault is internal, never exit 1 (mismatch)
        _emit_error("E_INTERNAL", f"{type(exc).__name__}: {exc}", None)
        return 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _exit_code(args)
        sys.stdout.flush()  # output that fit the buffer meets a closed pipe only here
    except BrokenPipeError:
        # stdout was closed before the output was written: exit 3, silently.
        # stdout goes to devnull, so the flush at interpreter exit cannot fail
        # again (the recipe of the Python `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
