"""The line counts of `tools/loc.py`, on which every simplicity claim rests."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_loc():
    spec = importlib.util.spec_from_file_location("tools_loc", ROOT / "tools" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    return loc


SOURCE = '''"""Module docstring,
two lines."""

# a comment line
import math  # a trailing comment keeps the line


def f(x):
    """One-line docstring."""

    return math.sqrt(
        x)  # a continued expression counts each of its lines


class C:
    """Class docstring."""
    y = "not a docstring"
'''


def test_counts_leave_out_docstring_comment_and_blank_lines():
    total, code = _load_loc().counts(SOURCE)
    assert total == 17
    # import, def, return (2 lines), class and the assignment
    assert code == 6


def test_counts_of_an_empty_module():
    assert _load_loc().counts("") == (0, 0)


def _git(cwd: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=loc", "-c", "user.email=loc@example.invalid",
                    "-c", "commit.gpgsign=false", *args], cwd=cwd, check=True,
                   capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_rev_counts_a_module_missing_on_one_side_as_zero(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "gone.py").write_text("x = 1\ny = 2\n")
    (pkg / "kept.py").write_text('"""Doc."""\nz = 3\n')
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("# comment\na = 1\nb = 2\nc = 3\n")
    _load_loc().main(["--rev", "HEAD", str(pkg)])
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[2:]}
    # at HEAD (total, code), in the working tree (total, code), difference
    assert rows["gone"] == ["2", "2", "0", "0", "-2", "-2"]
    assert rows["new"] == ["0", "0", "4", "3", "+4", "+3"]
    assert rows["kept"] == ["2", "1", "2", "1", "+0", "+0"]
    assert rows["all"] == ["4", "3", "6", "4", "+2", "+1"]
