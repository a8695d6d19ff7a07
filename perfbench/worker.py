"""One client in a closed loop, in a fresh interpreter.

Reads a request as JSON on stdin and writes the result as JSON on stdout:

    {"workload": ..., "root": <checkout>, "traced": bool,
     "seconds": float, "seed": int}    # timed: whole seeded rounds until time is up,
                                       # in seconds at the reference speed
    {"workload": ..., "root": ..., "traced": bool, "ops": [op, ...]}   # exactly these ops

Library workloads call the package in this process.  The `cli` workload
starts one `python -m cmquartic.cli` process per op, or, when traced, the
benchmark's own entry point `traced_cli.py`, which wraps the same `main`.
Before every op, and once after the last, the worker takes a speed sample
(`calibrate.py`); each record carries the op's wall and CPU time and its
slowdown.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _library_op(op: list, tr: tracing.Tracer | None) -> dict:
    if tr is not None:
        tr.begin_op()
    fn = workloads.LIBRARY_OPS[op[0]]
    start = time.perf_counter()
    try:
        out = json.dumps(fn(*op[1:]), sort_keys=True)
        err = None
    except Exception as exc:  # a failed op is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return {"op": op, "latency_s": time.perf_counter() - start, "output": out, "error": err}


#: a timed run stops after this many times its seconds of wall time
WALL_CAP = 1.25
#: a CLI op that runs longer is killed and counted as failed
CLI_OP_TIMEOUT_S = 60


def _cli_op(op: list, traced: bool, env: dict, states: list) -> dict:
    entry = [str(HERE / "traced_cli.py")] if traced else ["-m", "cmquartic.cli"]
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *entry, *op], env=env, capture_output=True,
                              text=True, check=False, timeout=CLI_OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"op": op, "latency_s": time.perf_counter() - start, "output": None,
                "error": f"killed after {CLI_OP_TIMEOUT_S} s"}
    latency = time.perf_counter() - start
    err = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-500:]}"
    if traced and proc.returncode == 0:
        states.append(json.loads(proc.stderr.strip().splitlines()[-1]))
    return {"op": op, "latency_s": latency, "output": proc.stdout, "error": err}


def main() -> int:
    req = json.load(sys.stdin)
    workload, traced = req["workload"], req["traced"]
    if workload == "cli":
        env = dict(os.environ, PYTHONPATH=str(Path(req["root"]) / "src"))
        states: list[dict] = []

        def run(op):
            return _cli_op(op, traced, env, states)
        tr = None
    else:
        workloads.warm_up(workload)
        tr = tracing.Tracer() if traced else None
        if tr is not None:
            tr.install()

        def run(op):
            return _library_op(op, tr)

    records = []
    cal = calibrate.Calibrator()

    def timed(op):
        cal.sample()
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        rec = run(op)
        rec.update(start=start, end=time.perf_counter(),
                   cpu_s=_cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0)
        return rec

    start = time.perf_counter()
    if "ops" in req:
        records = [timed(op) for op in req["ops"]]
    else:
        # whole rounds until `seconds` have passed at the reference speed, so
        # a run holds as many rounds on a slow host as on a fast one and the
        # tail stays at the same rank; WALL_CAP bounds it on a very slow host
        ref_s, last = 0.0, start
        cap = start + WALL_CAP * req["seconds"]
        for rnd in workloads.rounds(workload, req["seed"]):
            if ref_s >= req["seconds"] or time.perf_counter() >= cap:
                break
            for op in rnd:
                rec = timed(op)
                records.append(rec)
                # the sample after the op is not taken yet: this uses the one before
                ref_s += (rec["end"] - last) / cal.slowdown(rec["start"], rec["end"])
                last = rec["end"]
    cal.sample()
    for rec in records:
        rec["slowdown"] = cal.slowdown(rec.pop("start"), rec.pop("end"))
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss

    trace = None
    if traced and workload == "cli":
        trace = tracing.merge_states(states)
    elif tr is not None:
        tr.uninstall()
        trace = tr.state()
    json.dump({"records": records, "wall_s": wall,
               "peak_rss_kb": peak_rss_kb, "trace": trace}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
