import math

import mpmath
import pytest

from cmquartic.arith import is_squarefree
from cmquartic.cmfield import relative_class_number
from cmquartic.dirichlet import kronecker_character
from cmquartic.biquadratic import (
    BiquadraticField,
    biquadratic,
    class_number,
    discriminant,
    field_invariants,
    hasse_Q,
    maximal_real_subfield,
    paper_pair,
    regulator,
)
from cmquartic.errors import ConsistencyError, DomainError
from cmquartic.quadratic import class_number_real, fundamental_unit, quadratic_field
from cmquartic import quadratic


def test_construction_examples():
    assert biquadratic(-21, 10).radicands == (-210, -21, 10)
    assert biquadratic(-42, 10).radicands == (-105, -42, 10)
    with pytest.raises(DomainError):
        biquadratic(2, 8)
    with pytest.raises(DomainError):
        biquadratic(0, 5)
    # normalization: same field regardless of square factors
    assert biquadratic(-84, 40) == biquadratic(-21, 10)


def test_square_radicand_is_a_domain_error():
    # 1 is a square like 4 and 9; only 0 is E_PARAM_ZERO
    for a, b in ((-60, 4), (4, -3), (-3, 9), (1, -3), (-3, 1), (9, -3)):
        with pytest.raises(DomainError) as exc:
            biquadratic(a, b)
        assert exc.value.precondition == "a and b not perfect squares"
        assert exc.value.code == "E_DOMAIN"
    for a, b in ((0, 5), (-3, 0)):
        with pytest.raises(DomainError) as exc:
            biquadratic(a, b)
        assert exc.value.code == "E_PARAM_ZERO"


def test_radicand_closure():
    from cmquartic.arith import squarefree_part

    for a in (-21, -42, -1, 2, 7, 15):
        for b in (10, -2, 3, 26):
            if squarefree_part(a).value == squarefree_part(b).value:
                continue
            K = biquadratic(a, b)
            r1, r2, r3 = K.radicands
            for x, y, z in ((r1, r2, r3), (r1, r3, r2), (r2, r3, r1)):
                assert squarefree_part(x * y).value == z


def test_discriminant_examples():
    assert discriminant(biquadratic(-21, 10)).value() == 2822400
    assert str(discriminant(biquadratic(-21, 10))) == "2^8*3^2*5^2*7^2"
    assert discriminant(biquadratic(-42, 10)).value() == 2822400
    assert discriminant(biquadratic(-1, 2)).value() == 256  # eighth roots of unity


def test_discriminant_divisible_by_subfield_discriminants():
    for a, b in ((-21, 10), (-42, 10), (-1, 2), (-29, 26), (-13, 10), (-5, 3)):
        K = biquadratic(a, b)
        d = discriminant(K).value()
        for r in K.radicands:
            assert d % quadratic_field(r).fund_disc == 0


def test_maximal_real_subfield():
    assert maximal_real_subfield(biquadratic(-21, 10)).radicand == 10
    assert maximal_real_subfield(biquadratic(-42, 10)).radicand == 10
    with pytest.raises(DomainError):
        maximal_real_subfield(biquadratic(2, 3))


#: (a, b) -> label and Hasse index, one field per branch of the unit rule
KNOWN_Q = [
    ((-21, 10), "B(-210,-21,10)", 1),
    ((-26, 2), "B(-26,-13,2)", 1),
    ((-1, 2), "B(-2,-1,2)", 1),  # Q(zeta8): eps = 1 + sqrt(2) has norm -1
    ((-1, 5), "B(-5,-1,5)", 1),  # norm -1
    ((-3, 2), "B(-6,-3,2)", 1),  # norm -1
    ((-1, 3), "B(-3,-1,3)", 2),  # Q(zeta12): M = 6, sqrt(2M) = 2 sqrt(3)
    ((-1, 6), "B(-6,-1,6)", 2),  # M = 12, sqrt(2M) = 2 sqrt(6)
    ((-1, 7), "B(-7,-1,7)", 2),  # M = 18, 2M = 36 is a square
    ((-2, 3), "B(-6,-2,3)", 2),  # w = 2, M = 6, sqrt(-M) = sqrt(-6)
    ((-3, 6), "B(-3,-2,6)", 2),  # w = 6, M = 12, sqrt(-M) = 2 sqrt(-3)
    ((-1, 10), "B(-10,-1,10)", 1),  # norm -1 (eps = 3 + sqrt(10))
    ((-5, 3), "B(-15,-5,3)", 1),  # M = 6, but neither sqrt(-6) nor i is in K
    ((-2, 7), "B(-14,-2,7)", 2),  # M = 18, sqrt(-M) = 3 sqrt(-2)
]


def test_hasse_Q():
    for ab, label, q in KNOWN_Q:
        K = biquadratic(*ab)
        assert K.label() == label
        assert hasse_Q(K) == q, label
        assert class_number(K) > 0  # h^- is an integer only for the right Q


def _small_fields():
    """The imaginary biquadratic fields B(a, b) with -60 <= a < 0 and 2 <= b < 60."""
    fields = {}
    for a in range(-60, 0):
        for b in range(2, 60):
            try:
                K = biquadratic(a, b)
            except DomainError:  # a square, or one quadratic field twice
                continue
            fields[K.radicands] = K
    return list(fields.values())


def test_hasse_Q_sweep_resolves_every_small_field():
    fields = _small_fields()
    unsettled = q2 = 0
    for K in fields:
        q = hasse_Q(K)
        # the ramification rule: Q = 1 unless disc(K)/disc(K+)^2 divides 16
        if 16 % (K.disc.value() // K.kplus.fund_disc**2):
            assert q == 1, K.label()
        else:
            unsettled += 1
            q2 += q == 2
        chars = [(kronecker_character(D, abs(D)),)
                 for D in (quadratic_field(r).fund_disc for r in K.radicands if r < 0)]
        (h_minus,) = relative_class_number(chars, (q,), K.roots_of_unity)
        assert h_minus > 0
    assert (len(fields), unsettled, q2) == (1194, 78, 41)


def test_hasse_Q_matches_the_sympy_square_test():
    """Q = 2 exactly when x^2 - zeta*eps has a root in K for a root of unity zeta."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def linear_factors(coeffs, F):
        _, factors = sympy.Poly(coeffs, x, domain=F).factor_list()
        return [f for f, _ in factors if f.degree() == 1]

    for ab, label, q in KNOWN_Q:
        K = biquadratic(*ab)
        F = sympy.QQ.algebraic_field(*(sympy.sqrt(r) for r in K.radicands[:2]))
        unit = fundamental_unit(K.kplus)
        eps = F.from_sympy((unit.x + unit.y * sympy.sqrt(unit.radicand)) / unit.denom)
        w = K.roots_of_unity
        cyclotomic = sympy.Poly(sympy.cyclotomic_poly(w, x), x).all_coeffs()
        roots = linear_factors(cyclotomic, F)
        assert len(roots) == sympy.totient(w), label  # K holds every primitive w-th root
        zeta = F.from_sympy(-roots[0].TC())
        squares = [k for k in range(w) if linear_factors([F.one, F.zero, -zeta**k * eps], F)]
        assert (2 if squares else 1) == q, label


def test_regulator_values():
    reg = regulator(biquadratic(-21, 10))
    with mpmath.workprec(150):
        ref = 2 * mpmath.log(3 + mpmath.sqrt(10))
        assert abs(reg.value - ref) < mpmath.mpf(2) ** -120
        assert abs(reg.value - mpmath.mpf("3.6368929")) < mpmath.mpf("1e-6")
    assert regulator(biquadratic(-42, 10)).value == reg.value
    reg2 = regulator(biquadratic(-26, 2))
    with mpmath.workprec(150):
        assert abs(reg2.value - 2 * mpmath.log(1 + mpmath.sqrt(2))) < mpmath.mpf(2) ** -120


def test_regulator_requires_resolved_Q():
    # reg(K) = 2 reg(K+) / Q: Q(zeta8) has Q = 1, Q(zeta12) has Q = 2
    with mpmath.workprec(150):
        assert abs(regulator(biquadratic(-1, 2)).value
                   - 2 * mpmath.log(1 + mpmath.sqrt(2))) < mpmath.mpf(2) ** -120
        assert abs(regulator(biquadratic(-1, 3)).value
                   - mpmath.log(2 + mpmath.sqrt(3))) < mpmath.mpf(2) ** -120


def test_roots_of_unity():
    assert biquadratic(-21, 10).roots_of_unity == 2
    assert biquadratic(-1, 2).roots_of_unity == 8
    assert biquadratic(-1, 3).roots_of_unity == 12
    assert biquadratic(-1, 5).roots_of_unity == 4
    assert biquadratic(-3, 5).roots_of_unity == 6
    with pytest.raises(DomainError):
        biquadratic(2, 3).roots_of_unity


def test_class_number_example_pair():
    assert class_number(biquadratic(-21, 10)) == 32
    assert class_number(biquadratic(-42, 10)) == 32
    # decomposition (1/2) * 2 * 4 * 8 double-checked through the factors
    assert class_number_real(quadratic_field(10)) == 2
    assert quadratic.class_number_imaginary(-84) == 4
    assert quadratic.class_number_imaginary(-840) == 8


def test_class_number_cyclotomic_sanity():
    # Q(zeta8) and Q(zeta12) have class number 1
    assert class_number(biquadratic(-1, 2)) == 1
    assert class_number(biquadratic(-1, 3)) == 1


def test_class_number_requires_resolved_Q():
    # Q(zeta12): its resolved Q = 2 gives h^- = 1; Q = 1 gives h^- = 1/2
    K = biquadratic(-1, 3)
    chars = [(kronecker_character(d, abs(d)),) for d in (-4, -3)]
    assert relative_class_number(chars, (K.hasse_q,), 12) == (1,)
    with pytest.raises(ConsistencyError):
        relative_class_number(chars, (1,), 12)


def test_paper_pair_validation():
    with pytest.raises(DomainError):
        paper_pair(15, 5)  # gcd 5
    with pytest.raises(DomainError):
        paper_pair(12, 5)  # 12 = 0 mod 4
    with pytest.raises(DomainError):
        paper_pair(18, 5)  # not square-free and 2 mod 4
    with pytest.raises(DomainError):
        paper_pair(1, 5)


def _valid_pairs(limit):
    ms = [m for m in range(5, 150, 4) if is_squarefree(m)]
    pairs = []
    for m1 in ms:
        for m2 in ms:
            if m1 != m2 and math.gcd(m1, m2) == 1:
                pairs.append((m1, m2))
                if len(pairs) == limit:
                    return pairs
    return pairs


def test_paper_pair_invariants_sweep():
    pairs = _valid_pairs(100)
    assert len(pairs) == 100
    for m1, m2 in pairs:
        Ka, Kb = paper_pair(m1, m2)
        assert Ka.radicands != Kb.radicands
        da, db = discriminant(Ka), discriminant(Kb)
        assert da == db
        assert da.value() == 2**8 * m1 * m1 * m2 * m2
        assert hasse_Q(Ka) == 1 and hasse_Q(Kb) == 1
        ra = regulator(Ka, 64)
        rb = regulator(Kb, 64)
        base = quadratic.regulator(quadratic_field(2 * m2), 64)
        with mpmath.workprec(80):
            assert ra.value == rb.value == 2 * base.value


def test_paper_pair_example_instances():
    Ka, Kb = paper_pair(21, 5)
    assert (Ka.radicands, Kb.radicands) == ((-210, -21, 10), (-105, -42, 10))
    Ka, Kb = paper_pair(29, 13)
    assert discriminant(Ka).value() == 2**8 * 29**2 * 13**2
    assert discriminant(Ka) == discriminant(Kb)


def test_class_number_divisible_by_real_subfield():
    for m1, m2 in _valid_pairs(12):
        Ka, Kb = paper_pair(m1, m2)
        h_plus = class_number_real(maximal_real_subfield(Ka))
        assert class_number(Ka) % h_plus == 0
        assert class_number(Kb) % h_plus == 0


def test_field_invariants_payload():
    inv = field_invariants(biquadratic(-21, 10), with_class_number=True)
    assert inv.class_number == 32
    assert inv.hasse_q == 1
    assert (inv.r1, inv.r2) == (0, 2)
    assert inv.roots_of_unity == 2
    assert inv.disc.value() == 2822400
    inv = field_invariants(biquadratic(-21, 10))
    assert inv.class_number is None


def test_field_invariants_of_zeta12():
    inv = field_invariants(biquadratic(-1, 3), 128, True)
    assert inv.hasse_q == 2
    assert inv.class_number == 1
    assert inv.roots_of_unity == 12


def test_package_attribute_is_the_submodule():
    # a package-level re-export named like a submodule rebinds the package
    # attribute, so `from cmquartic import biquadratic` would get the function
    import sys
    import types

    import cmquartic

    assert isinstance(cmquartic.biquadratic, types.ModuleType)
    assert cmquartic.biquadratic is sys.modules["cmquartic.biquadratic"]
    assert cmquartic.biquadratic.biquadratic is biquadratic


def test_no_export_shadows_a_submodule():
    import importlib
    import pkgutil

    import cmquartic

    submodules = {info.name for info in pkgutil.iter_modules(cmquartic.__path__)}
    assert "biquadratic" in submodules
    shadowing = sorted(submodules & set(cmquartic.__all__))
    assert not shadowing, f"cmquartic.__all__ re-exports names of submodules: {shadowing}"
    for name in sorted(submodules):
        module = importlib.import_module(f"cmquartic.{name}")
        assert getattr(cmquartic, name) is module, f"cmquartic.{name} is not the submodule"
