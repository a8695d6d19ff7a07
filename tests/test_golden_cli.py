"""Byte-for-byte CLI regression corpus.

Each case in `golden/cases.json` names an argv and the exit code it must
return; `golden/<name>.stdout` holds the exact stdout.  The corpus pins
the output of refactors that must not change behaviour.  Regenerate it
only for a deliberate output change, with

    PYTHONPATH=src python tests/test_golden_cli.py --capture
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


def _capture() -> None:
    cases = []
    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(case["argv"])
        (GOLDEN / f"{case['name']}.stdout").write_text(buf.getvalue())
        cases.append({**case, "exit_code": code})
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=2) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    _capture()
