"""Exact invariants of imaginary biquadratic and cyclic quartic CM-fields.

Constructs families of pairs of distinct quartic fields sharing a
discriminant and a regulator (and, for the bundled examples, a class
number), with every invariant computed by exact arithmetic and
cross-checked by an independent route.

`import cmquartic` loads no submodule.  Each exported name, and each
submodule as an attribute (`cmquartic.biquadratic`), loads its module on
first access (PEP 562), so a CLI command loads only the code it runs.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names the package exports from it
_EXPORTS = {
    "arith": ("Factorization", "SquarefreePart", "count_roots_mod_p", "factor", "is_prime",
              "is_squarefree", "kronecker", "primes_in_progression", "squarefree_part"),
    "biquadratic": ("BiquadraticField", "paper_pair"),
    "cli": (),
    "cmfield": ("FieldInvariants",),
    "cyclic_quartic": ("CyclicQuarticField", "defining_polynomial", "same_field"),
    "dirichlet": ("DirichletCharacter", "GaussianRational", "bernoulli_B1"),
    "errors": ("CMQuarticError", "ConsistencyError", "DomainError"),
    "families": ("FamilyReport", "PairReport", "SieveReport", "biquadratic_family",
                 "cyclic_family", "dedekind_residue", "regulator_target",
                 "same_regulator_family", "sieve_t"),
    "precision": ("HighPrecReal",),
    "quadratic": ("QuadraticField", "QuadraticUnit", "class_number_imaginary",
                  "class_number_real", "fundamental_unit", "narrow_class_number_real",
                  "quadratic_field"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """A submodule, or an exported name read from its submodule, loaded on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read through on every access, so it is always what the submodule holds now
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
