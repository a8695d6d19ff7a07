"""Every name a package module imports is used and every module-level
function or class is used or exported (standard library `ast` only), the CLI
never loads numpy, sympy or, at start-up, concurrent.futures, each command
loads only the modules it runs, and every hook of the benchmark's tracer
exists."""

import ast
import importlib.util
import inspect
import json
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
#: not load yet, then one cyclic class number and the heavy packages.  Last,
#: as JSON: the cmquartic modules and mpmath loaded by `import cmquartic` and
#: after each of two commands, then a field built through the package's
#: submodule attribute, and the exports that are not their module's object
_HEAVY_IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "mpmath" or m.split(".")[0] == "cmquartic")

import cmquartic as cmq
footprint = {"import cmquartic": loaded()}
import cmquartic.cli
print(sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
for argv in (["sieve-t", "--min", "1", "--max", "100", "--mod8", "3"],
             ["target-regulator", "--M", "6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cmquartic.cli.main(argv) == 0
    footprint[argv[0]] = loaded()
footprint["B(-21, 10)"] = cmq.biquadratic.biquadratic(-21, 10).label()
exports = {name: getattr(cmq, name) for name in cmq.__all__ if name != "__version__"}
footprint["moved"] = [name for name, obj in exports.items()
                      if getattr(sys.modules[obj.__module__], name) is not obj]
from cmquartic.cyclic_quartic import CyclicQuarticField, class_number
assert class_number(CyclicQuarticField(-29, 5)) > 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "sympy")))
print(json.dumps(footprint))
"""


def test_cli_and_class_number_load_neither_numpy_nor_sympy():
    # each would add its import time and memory to every command; the
    # process pool is loaded only by `family --jobs N` with N > 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _HEAVY_IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "[]"]


def test_each_command_loads_only_the_modules_it_runs():
    # the package exports load on first access (PEP 562); sieve-t builds no
    # field and formats no real, and target-regulator builds only K+
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _HEAVY_IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    footprint = json.loads(out.split("\n")[2])
    sieve = [f"cmquartic{name}" for name in ("", ".arith", ".cli", ".errors", ".families",
                                              ".precision")]
    assert footprint == {
        "import cmquartic": ["cmquartic"],
        "sieve-t": sieve,
        "target-regulator": sorted(sieve + ["cmquartic.quadratic", "mpmath"]),
        "B(-21, 10)": "B(-210,-21,10)",
        "moved": [],
    }


#: run in a fresh interpreter: one command, then, as JSON, the cmquartic
#: modules, mpmath and fractions it loaded
_COMMAND_PROBE = """
import contextlib, io, json, sys
import cmquartic.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cmquartic.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("mpmath", "fractions") or m.split(".")[0] == "cmquartic")))
"""


def _loaded_by(argv: list[str]) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _COMMAND_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


#: what a command that computes a field without its class number loads
_FIELD_MODULES = ("", ".arith", ".cli", ".cmfield", ".errors", ".families", ".precision",
                  ".quadratic")


@pytest.mark.parametrize("argv, kind_module", [
    (["invariants", "cyclic", "-s", "-3", "-t", "35"], "cyclic_quartic"),
    (["invariants", "biquad", "-a", "-21", "-b", "10"], "biquadratic"),
], ids=["cyclic", "biquad"])
def test_invariants_loads_only_the_field_module_of_its_kind(argv, kind_module):
    # without a class number no character is built, so neither `dirichlet`
    # nor, through it, `fractions` is loaded
    modules = (*_FIELD_MODULES, f".{kind_module}")
    assert _loaded_by(argv) == sorted([f"cmquartic{name}" for name in modules] + ["mpmath"])


@pytest.mark.parametrize("argv, kind_module", [
    (["pair", "cyclic", "--t", "5", "--p", "29"], "cyclic_quartic"),
    (["pair", "biquad", "--t", "5", "--p", "29"], "biquadratic"),
    (["family", "cyclic", "--t", "5", "--count", "3"], "cyclic_quartic"),
    (["family", "biquad", "--t", "5", "--count", "3"], "biquadratic"),
], ids=["pair-cyclic", "pair-biquad", "family-cyclic", "family-biquad"])
def test_dirichlet_is_loaded_only_for_a_class_number(argv, kind_module):
    modules = sorted([f"cmquartic{name}" for name in (*_FIELD_MODULES, f".{kind_module}")]
                     + ["mpmath"])
    assert _loaded_by(argv) == modules
    assert _loaded_by(argv + ["--with-class-number"]) == sorted(
        modules + ["cmquartic.dirichlet", "fractions"])


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cmquartic.no_such_name


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


def test_both_kinds_bind_the_one_cmfield_pipeline():
    # a kind supplies its subfields, w and odd characters; Q, reg, h and the
    # invariant record come from the same cmfield functions for both kinds
    from cmquartic import biquadratic, cmfield, cyclic_quartic

    shared = {"hasse_Q": cmfield.hasse_index, "regulator": cmfield.cm_regulator,
              "class_number": cmfield.class_number,
              "field_invariants": cmfield.field_invariants}
    for module in (biquadratic, cyclic_quartic):
        tree = ast.parse(Path(module.__file__).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert defined.isdisjoint(shared), module.__name__
        assert {name: getattr(module, name) for name in shared} == shared, module.__name__


def _references(tree: ast.AST) -> Counter:
    """How often each identifier is read, as a Name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, node) of each module-level def and class, and, as Class.name, of each
    method and property of a module-level class, dunders left out: the interpreter
    calls a dunder method, and a module-level `__getattr__` (PEP 562)."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not _is_dunder(node.name)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
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


def test_checker_skips_a_module_getattr_but_not_an_unused_function():
    sources = {"a": "def __getattr__(name):\n    raise AttributeError(name)\n\n"
                    "def f():\n    pass\n"}
    assert unreferenced_definitions(sources, set()) == ["a.f"]


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
