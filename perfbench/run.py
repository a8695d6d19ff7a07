"""cmquartic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cyclic-pairs,biquad-pairs,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With `--trace 0` it reports the
end-to-end metrics, every time at a fixed reference speed (calibrate.py);
with `--trace 1` the per-layer metrics of a traced run.  Human-readable
lines come first; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md
for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed from spawn to `import cmquartic.cli` returning
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here: it prints no result and exits non-zero."""


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def setup_probe(root: Path) -> tuple[float, float, float]:
    """(seconds from spawn to `import cmquartic.cli` returning, start, end)."""
    code = "import time; import cmquartic.cli; print(repr(time.perf_counter()))"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=_env(root), capture_output=True,
                          text=True, check=False, timeout=60)
    end = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"cannot import cmquartic.cli: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout) - start, start, end


def setup_times(root: Path) -> tuple[list[float], list[float]]:
    """Reference and raw set-up times of SETUP_PROBES fresh interpreters."""
    cal = calibrate.Calibrator()
    probes = []
    for _ in range(SETUP_PROBES):
        cal.sample()
        probes.append(setup_probe(root))
    cal.sample()
    return [s / cal.slowdown(a, b) for s, a, b in probes], [s for s, _, _ in probes]


def run_worker(root: Path, request: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    request = dict(request, root=str(root))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(request),
                          env=_env(root), capture_output=True, text=True, check=False,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout)


def check_records(workload: str, records: list[dict]) -> list[str]:
    """One line per failed op: it raised, exited non-zero, or its output is wrong."""
    refs = verify.load_refs(workload)
    failures = []
    for rec in records:
        key = workloads.op_key(rec["op"])
        problems = [rec["error"]] if rec["error"] else verify.check_op(
            rec["op"], rec["output"], refs, key)
        if problems:
            failures.append(f"{key}: {'; '.join(problems)[:500]}")
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it, and that percentile."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def ref_latencies(records: list[dict]) -> list[float]:
    """Each op's wall time at the reference speed."""
    return [r["latency_s"] / r["slowdown"] for r in records]


def end_to_end(result: dict, failed: int, setup: list[float]) -> tuple[dict, float]:
    """Every timing at the reference speed (see calibrate.py)."""
    records = result["records"]
    lat = ref_latencies(records)
    ok = len(lat) - failed
    tail_s, pct = tail(lat)
    metrics = {
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (ok / sum(lat), "1/s"),
        "cpu_per_op_s": (sum(r["cpu_s"] / r["slowdown"] for r in records) / max(ok, 1), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, pct


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = HERE.parent
    wl = args.workload
    # one CPU for this process, the worker and every process they start, so
    # each speed sample runs where the op it brackets runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if not (root / "src" / "cmquartic" / "cli.py").is_file():
            raise BenchError(f"no cmquartic sources under {root / 'src'}")
        global_problems = verify.golden_biquad(root) if wl == "biquad-pairs" else []
        request = {"workload": wl, "traced": False, "seed": args.seed}
        if args.trace == 0:
            setup, raw_setup = setup_times(root)
            result = run_worker(root, dict(request, seconds=args.seconds))
            records = result["records"]
        else:
            # the same ops, untraced then traced, each in a fresh interpreter;
            # a third of --seconds per pass keeps a traced run no longer than an untraced one
            result = run_worker(root, dict(request, seconds=args.seconds / 3))
            records = result["records"]
            traced = run_worker(root, dict(request, traced=True,
                                           ops=[r["op"] for r in records]))
            if [r["output"] for r in traced["records"]] != [r["output"] for r in records]:
                global_problems.append("traced and untraced outputs differ")
            records = records + traced["records"]
        failures = check_records(wl, records)
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in failures + global_problems:
        print(f"FAILED {line}")
    attempted, failed = len(records), len(failures)
    print(f"workload {wl}, seed {args.seed}: {attempted} ops attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")
    if args.trace == 0:
        values, pct = end_to_end(result, failed, setup)
        raw = [r["latency_s"] for r in records]
        slow = statistics.median(r["slowdown"] for r in records)
        print(f"op_s.tail is the p{pct:.1f} latency of {attempted} ops; times below are at the "
              f"reference speed.  Measured: median slowdown {slow:.3f}, op_s.p50 "
              f"{statistics.median(raw):.4f} s, setup_s {statistics.median(raw_setup):.4f} s, "
              f"{attempted - failed} ops in {result['wall_s']:.2f} s of wall time")
    else:
        overhead = sum(ref_latencies(traced["records"])) / sum(
            ref_latencies(result["records"])) - 1
        values = tracer.layer_metrics(traced["trace"], overhead)
    for name, (value, unit) in values.items():
        print(f"  {name:56s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not global_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
