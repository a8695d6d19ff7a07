"""Exact invariants of imaginary biquadratic and cyclic quartic CM-fields.

Constructs families of pairs of distinct quartic fields sharing a
discriminant and a regulator (and, for the bundled examples, a class
number), with every invariant computed by exact arithmetic and
cross-checked by an independent route.
"""

from .arith import (
    Factorization,
    SquarefreePart,
    count_roots_mod_p,
    factor,
    is_prime,
    is_squarefree,
    kronecker,
    primes_in_progression,
    squarefree_part,
)
from .biquadratic import BiquadraticField, paper_pair
from .cmfield import FieldInvariants
from .cyclic_quartic import CyclicQuarticField, defining_polynomial, same_field
from .dirichlet import DirichletCharacter, GaussianRational, bernoulli_B1
from .errors import (
    CMQuarticError,
    ConsistencyError,
    DomainError,
)
from .families import (
    FamilyReport,
    PairReport,
    SieveReport,
    biquadratic_family,
    cyclic_family,
    dedekind_residue,
    regulator_target,
    same_regulator_family,
    sieve_t,
)
from .precision import HighPrecReal
from .quadratic import (
    QuadraticField,
    QuadraticUnit,
    class_number_imaginary,
    class_number_real,
    fundamental_unit,
    narrow_class_number_real,
    quadratic_field,
)

__version__ = "0.1.0"

__all__ = [
    "BiquadraticField",
    "CMQuarticError",
    "ConsistencyError",
    "CyclicQuarticField",
    "DirichletCharacter",
    "DomainError",
    "Factorization",
    "FamilyReport",
    "FieldInvariants",
    "GaussianRational",
    "HighPrecReal",
    "PairReport",
    "QuadraticField",
    "QuadraticUnit",
    "SieveReport",
    "SquarefreePart",
    "bernoulli_B1",
    "biquadratic_family",
    "class_number_imaginary",
    "class_number_real",
    "count_roots_mod_p",
    "cyclic_family",
    "dedekind_residue",
    "defining_polynomial",
    "factor",
    "fundamental_unit",
    "is_prime",
    "is_squarefree",
    "kronecker",
    "narrow_class_number_real",
    "paper_pair",
    "primes_in_progression",
    "quadratic_field",
    "regulator_target",
    "same_field",
    "same_regulator_family",
    "sieve_t",
    "squarefree_part",
    "__version__",
]
