import math

import mpmath
import pytest

from cmquartic.arith import is_squarefree
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
    roots_of_unity_order,
)
from cmquartic.errors import ConsistencyError, DomainError
from cmquartic.quadratic import class_number_real, quadratic_field
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


def test_hasse_Q():
    assert hasse_Q(biquadratic(-21, 10)) == 1
    assert hasse_Q(biquadratic(-26, 2)) == 1
    # ratio 4 divides 16: the rule cannot settle Q, and says so
    with pytest.raises(DomainError) as exc:
        hasse_Q(biquadratic(-1, 2))
    assert exc.value.code == "E_Q_UNRESOLVED"
    assert str(exc.value) == "Hasse index of B(-2,-1,2) is unresolved; pass Q_override"


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
    with pytest.raises(DomainError):
        regulator(biquadratic(-1, 2))
    assert regulator(biquadratic(-1, 2), Q_override=1).value > 0


def test_roots_of_unity():
    assert roots_of_unity_order(biquadratic(-21, 10)) == 2
    assert roots_of_unity_order(biquadratic(-1, 2)) == 8
    assert roots_of_unity_order(biquadratic(-1, 3)) == 12
    assert roots_of_unity_order(biquadratic(-1, 5)) == 4
    assert roots_of_unity_order(biquadratic(-3, 5)) == 6
    with pytest.raises(DomainError):
        roots_of_unity_order(biquadratic(2, 3))


def test_class_number_example_pair():
    assert class_number(biquadratic(-21, 10)) == 32
    assert class_number(biquadratic(-42, 10)) == 32
    # decomposition (1/2) * 2 * 4 * 8 double-checked through the factors
    assert class_number_real(40) == 2
    assert quadratic.class_number_imaginary(-84) == 4
    assert quadratic.class_number_imaginary(-840) == 8


def test_class_number_cyclotomic_sanity():
    # eighth roots of unity: prime-power conductor has unit index Q = 1
    assert class_number(biquadratic(-1, 2), Q_override=1) == 1
    # twelfth roots of unity: the true unit index is 2; 1 is inconsistent
    assert class_number(biquadratic(-1, 3), Q_override=2) == 1
    with pytest.raises(ConsistencyError):
        class_number(biquadratic(-1, 3), Q_override=1)


def test_class_number_requires_resolved_Q():
    with pytest.raises(DomainError):
        class_number(biquadratic(-1, 2))


def test_q_override_outside_1_and_2_is_a_domain_error():
    # every path checks the override: 3 once gave a wrong regulator, 0 a
    # bare ZeroDivisionError
    with pytest.raises(DomainError):
        field_invariants(biquadratic(-21, 10), Q_override=3)
    with pytest.raises(DomainError):
        regulator(biquadratic(-1, 2), Q_override=0)
    with pytest.raises(DomainError):
        class_number(biquadratic(-1, 2), Q_override=3)


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
        h_plus = class_number_real(maximal_real_subfield(Ka).fund_disc)
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


def test_field_invariants_take_the_override_for_an_unresolved_index():
    # Q(zeta12): the rule leaves Q open, and Q = 2 gives h = 1
    K = biquadratic(-1, 3)
    with pytest.raises(DomainError):
        K.hasse_q
    inv = field_invariants(K, 128, True, Q_override=2)
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
