"""Traced stand-in for `python -m cmquartic.cli`: same argv, same stdout.

Installs the benchmark's wrappers, calls `cmquartic.cli.main`, and writes
the raw tracer state as one JSON line on stderr after the command ends.
"""

from __future__ import annotations

import json
import sys
import time

import tracer


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import cmquartic.cli
    import_s = time.perf_counter() - start
    tr = tracer.Tracer()
    tr.install()
    try:
        return cmquartic.cli.main(argv)
    finally:
        tr.uninstall()
        state = tr.state()
        state["import_s"] = import_s
        sys.stdout.flush()
        print(json.dumps(state), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
