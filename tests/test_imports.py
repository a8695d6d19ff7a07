"""Every name a package module imports is used and every module-level
function or class is used or exported (standard library `ast` only), the CLI
never loads numpy, sympy or, at start-up, concurrent.futures, and every hook
of the benchmark's tracer exists."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cmquartic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cmquartic"
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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_function_the_tracer_wraps_is_a_module_function():
    # `perfbench/run.py --trace 1` fails to install when a wrapped name is gone
    tracer = _load_tracer()
    for module_name, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"cmquartic.{module_name}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{module_name}.{name}"


def test_unit_group_memo_has_the_cache_info_the_tracer_reads():
    # the tracer's other hook: it reads `dirichlet.unit_group.cache_info()`
    # for the memo's lookups and hit fraction
    from cmquartic import dirichlet

    assert callable(getattr(dirichlet.unit_group, "cache_info", None))
    info = dirichlet.unit_group.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def _references(tree: ast.AST) -> Counter:
    """How often each identifier is read, as a Name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(tree: ast.Module):
    """(name, node) of each module-level def and class, and, as Class.name, of each
    method and property of a module-level class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def unreferenced_definitions(sources: dict[str, str], kept: set[str]) -> list[str]:
    """Module-level defs and classes, and the methods and properties of those
    classes, as module.name or module.Class.name, that no code outside their
    own body reads, across all `sources`, and that are not in `kept`.

    Reads are matched by name, so a read of a same-named definition in
    another module, or of a same-named attribute of another object, counts too.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if (total[node.name] == _references(node)[node.name]
                    and node.name not in kept and f"{module}.{name}" not in kept):
                unused.append(f"{module}.{name}")
    return unused


def test_checker_reports_an_unreferenced_definition():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b": "from .a import g\ng()\n"}
    assert unreferenced_definitions(sources, set()) == ["a.f", "a.C"]
    assert unreferenced_definitions(sources, {"C", "a.f"}) == []


def test_checker_reports_an_unreferenced_method_or_property():
    sources = {"a": "class C:\n    def __init__(self):\n        self.m()\n"
                    "    def m(self):\n        pass\n    def n(self):\n        return self.n()\n"
                    "    @property\n    def p(self):\n        pass\n",
               "b": "from .a import C\nC()\n"}
    assert unreferenced_definitions(sources, set()) == ["a.C.n", "a.C.p"]
    assert unreferenced_definitions(sources, {"a.C.n", "a.C.p"}) == []


def test_every_definition_is_used_exported_or_traced():
    # code nothing uses gets deleted: a module-level def or class, or a
    # method or property of such a class, is read elsewhere in the package,
    # exported from `cmquartic`, or wrapped by the benchmark's tracer
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    traced = {f"{module}.{name}" for module, names in _load_tracer().WRAPPED.items()
              for name in names}
    assert unreferenced_definitions(sources, set(cmquartic.__all__) | traced) == []


def modules_calling(sources: dict[str, str], name: str) -> set[str]:
    """The modules in `sources` that call `name`, as a bare name or as an attribute."""
    return {module for module, source in sources.items() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}


def test_checker_reports_a_call_by_name_or_by_attribute():
    sources = {"a": "f(1)\n", "b": "import m\nm.f(2)\n", "c": "g = f\ng(3)\n"}
    assert modules_calling(sources, "f") == {"a", "b"}


def test_only_dirichlet_and_cmfield_call_the_B1_kernel():
    # one class-number step: a field kind supplies its odd characters, and
    # `cmfield.relative_class_number` reads h^- from the kernel's f * B1, for
    # a field or a pair; `bernoulli_B1`, B1 of one character as a Gaussian
    # rational, is for callers outside the package and has none inside it
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert modules_calling(sources, "_bernoulli_B1s") == {"dirichlet", "cmfield"}
    assert modules_calling(sources, "bernoulli_B1") == set()


def test_no_fraction_is_built_on_the_way_to_a_class_number(monkeypatch):
    # h^- is one integer division of Gaussian-integer norms and real parts;
    # a Fraction built by dirichlet or cmfield for a single field or a pair
    # of either kind would be a second form of B1 on that path
    from fractions import Fraction

    from cmquartic import biquadratic as bq
    from cmquartic import cmfield, dirichlet, families
    from cmquartic import cyclic_quartic as cq

    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (dirichlet, cmfield):
        monkeypatch.setattr(module, "Fraction", Counted, raising=False)
    assert cq.class_number(cq.CyclicQuarticField(-29, 5)) > 0
    assert bq.class_number(bq.biquadratic(-47, 13)) == 25
    cyclic = families.cyclic_pair_report(5, 29, with_class_number=True)
    biquad = families.biquadratic_pair_report(5, 29, with_class_number=True)
    assert (cyclic.class_a, cyclic.class_b) == (360, 1352) and biquad.class_a and biquad.class_b
    assert built == []
    # the counter sees the route that still builds them: B1 as a Gaussian rational
    dirichlet.bernoulli_B1(dirichlet.DirichletCharacter(5, (1,)))
    assert len(built) == 2
