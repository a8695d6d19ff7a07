"""Byte-for-byte CLI regression corpus.

Each case in `golden/cases.json` names an argv and the exit code it must
return; `golden/<name>.stdout` holds the exact stdout.  The corpus pins
the output of refactors that must not change behaviour.  Regenerate it
only for a deliberate output change, with

    PYTHONPATH=src python tests/test_golden_cli.py --capture

To add a case, append its name and argv to `cases.json` (any exit code)
and capture it alone; every other `.stdout` and exit code is left as is:

    PYTHONPATH=src python tests/test_golden_cli.py --capture NAME...
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cmquartic import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    code = cli.main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    assert out == (GOLDEN / f"{case['name']}.stdout").read_text()


def _capture(names: list[str]) -> None:
    """Capture the named cases, or the whole corpus when no name is given."""
    unknown = set(names) - {c["name"] for c in CASES}
    if unknown:
        sys.exit(f"no such golden case: {', '.join(sorted(unknown))}")
    cases = []
    for case in CASES:
        if names and case["name"] not in names:
            cases.append(case)
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(case["argv"])
        (GOLDEN / f"{case['name']}.stdout").write_text(buf.getvalue())
        cases.append({**case, "exit_code": code})
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=2) + "\n")


if __name__ == "__main__" and sys.argv[1:2] == ["--capture"]:
    _capture(sys.argv[2:])
