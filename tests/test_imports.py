"""Every name a package module imports is used (standard library `ast` only),
and the CLI never loads numpy, sympy or, at start-up, concurrent.futures."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmquartic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_reports_an_unused_import():
    source = "import math\nfrom .arith import factor, kronecker\nfactor(math.pi)\n"
    assert unused_imports(source) == ["kronecker"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


#: run in a fresh interpreter: the CLI import, the pool-only modules it must
#: not load yet, then one cyclic class number and the heavy packages
_HEAVY_IMPORT_PROBE = """
import sys
import cmquartic.cli
print(sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
from cmquartic.cyclic_quartic import CyclicQuarticField, class_number
assert class_number(CyclicQuarticField(-29, 5)) > 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "sympy")))
"""


def test_cli_and_class_number_load_neither_numpy_nor_sympy():
    # each would add its import time and memory to every command; the
    # process pool is loaded only by `family --jobs N` with N > 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _HEAVY_IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "[]"]
