"""Regenerate perfbench/refs/<workload>.json: the reference output of every pool input.

    python3 perfbench/gen_refs.py [workload ...]

Runs every input of each pool once through the worker, refuses to write a
reference that fails an independent check (closed forms, sympy, the numpy
sieve, golden values), and stores the normalised outputs.  The references
pin the outputs of the commit they were generated at; regenerate them
only when a change of output is intended.
"""

from __future__ import annotations

import json
import sys

from run import HERE, run_worker
import verify
import workloads


def main(names: list[str]) -> int:
    root = HERE.parent
    bad = 0
    for wl in names or workloads.WORKLOADS:
        ops = workloads.pool(wl)
        result = run_worker(root, {"workload": wl, "traced": False, "ops": ops}, timeout=3600)
        refs = {}
        for rec in result["records"]:
            key = workloads.op_key(rec["op"])
            if rec["error"]:
                print(f"{wl}: {key}: {rec['error']}", file=sys.stderr)
                bad += 1
                continue
            data = verify.normalise(rec["op"], rec["output"])
            problems = verify.independent(rec["op"], data)
            if problems:
                print(f"{wl}: {key}: {problems}", file=sys.stderr)
                bad += 1
                continue
            refs[key] = data
        verify.REFS.mkdir(exist_ok=True)
        # one input per line, so a changed reference shows as a one-line diff
        lines = [f"{json.dumps(k)}: {json.dumps(refs[k], sort_keys=True, separators=(',', ':'))}"
                 for k in sorted(refs)]
        (verify.REFS / f"{wl}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{wl}: {len(refs)} references, {result['wall_s']:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
