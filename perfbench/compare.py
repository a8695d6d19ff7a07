"""Compare benchmark result sets from a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds `<workload>/<seed>.json`, the stdout of one untraced
run (only its last line is read).  Runs pair up by workload and file name,
so run both sides with the same seeds.  For every workload and end-to-end
metric it prints each side's median and quartiles and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side's interquartile range exceeds the bound (as a
              share of its median), unless every change run beats every
              parent run, which reads as improved;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(side: Path) -> dict[str, dict[str, dict]]:
    """workload -> run name -> metrics of that run."""
    out: dict[str, dict[str, dict]] = {}
    for path in sorted(side.glob("*/*.json")):
        last = path.read_text().strip().splitlines()[-1]
        out.setdefault(path.parent.name, {})[path.stem] = json.loads(last)["metrics"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for paired runs (parent[i] and change[i] share a seed)."""
    sign = -1 if better == "lower" else 1
    q1p, medp, q3p = quartiles(parent)
    q1c, medc, q3c = quartiles(change)
    if all(sign * c > sign * p for c in change for p in parent):
        if sign * (medc - medp) > q3p - q1p:
            return "improved"
    if (q3p - q1p) > bound * abs(medp) or (q3c - q1c) > bound * abs(medc):
        return "unresolved"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and sign * (medc - medp) > q3p - q1p:
        return "improved"
    if -sign * (medc - medp) > bound * abs(medp):
        return "regressed"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':14s} {'metric':14s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'pairs':>5s}  verdict")
    for wl in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[wl]) & set(change[wl]))
        if len(seeds) < 2:
            print(f"{wl:14s} fewer than two paired runs")
            continue
        for m in spec["end_to_end"]:
            p = [parent[wl][s][m["name"]]["value"] for s in seeds]
            c = [change[wl][s][m["name"]]["value"] for s in seeds]
            fmt = "/".join("{:.4g}" for _ in range(3))
            print(f"{wl:14s} {m['name']:14s} {fmt.format(*quartiles(p)):>32s} "
                  f"{fmt.format(*quartiles(c)):>32s} {len(seeds):5d}  "
                  f"{verdict(p, c, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
