import math
import tracemalloc

import mpmath
import pytest

from cmquartic.arith import is_squarefree
from cmquartic.errors import DomainError
from cmquartic.quadratic import (
    QuadraticField,
    QuadraticUnit,
    class_number_imaginary,
    class_number_real,
    fundamental_unit,
    is_fundamental_discriminant,
    narrow_class_number_real,
    quadratic_field,
    regulator,
)
from oracles import analytic_class_number_oracle


def fundamental_discriminants(bound):
    out = []
    for D in range(-bound, bound + 1):
        if D and is_fundamental_discriminant(D):
            out.append(D)
    return out


def brute_force_imaginary_class_number(D):
    """Independent reduced-form enumeration by raw triple loop."""
    count = 0
    a_max = math.isqrt(-D // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                count += 1
    return count


def brute_force_minimal_unit(m):
    """Smallest unit > 1 of the maximal order by increasing y; m kept small."""
    if m % 4 == 1:
        y = 1
        while True:
            for target in (m * y * y - 4, m * y * y + 4):
                x = math.isqrt(target)
                if x * x == target and (x - y) % 2 == 0:
                    if x % 2 == 0 and y % 2 == 0:
                        return x // 2, y // 2, 1
                    return x, y, 2
            y += 1
    y = 1
    while True:
        for target in (m * y * y - 1, m * y * y + 1):
            x = math.isqrt(target)
            if x * x == target and x > 0:
                return x, y, 1
        y += 1


def test_quadratic_field_examples():
    assert quadratic_field(10) == QuadraticField(10, 40)
    assert quadratic_field(-21) == QuadraticField(-21, -84)
    assert quadratic_field(45) == QuadraticField(5, 5)
    for m in (0, 1):
        with pytest.raises(DomainError):
            quadratic_field(m)


def test_class_number_imaginary_examples():
    assert class_number_imaginary(-4) == 1
    assert class_number_imaginary(-84) == 4
    assert class_number_imaginary(-840) == 8


def test_class_number_imaginary_against_brute_force():
    for D in fundamental_discriminants(500):
        if D < 0:
            assert class_number_imaginary(D) == brute_force_imaginary_class_number(D), D


def test_class_number_imaginary_domain():
    with pytest.raises(DomainError):
        class_number_imaginary(40)
    with pytest.raises(DomainError):
        class_number_imaginary(-12)  # -12 = -3 * 4 is not fundamental


def test_narrow_class_number_examples():
    assert narrow_class_number_real(40) == 2
    assert narrow_class_number_real(8) == 1
    assert narrow_class_number_real(12) == 2
    assert narrow_class_number_real(4904) >= 1


def test_fundamental_unit_examples():
    u = fundamental_unit(quadratic_field(10))
    assert (u.x, u.y, u.denom, u.norm) == (3, 1, 1, -1)
    u = fundamental_unit(quadratic_field(1226))
    assert (u.x, u.y, u.denom, u.norm) == (35, 1, 1, -1)
    u = fundamental_unit(quadratic_field(5))
    assert (u.x, u.y, u.denom, u.norm) == (1, 1, 2, -1)
    u = fundamental_unit(quadratic_field(2))
    assert (u.x, u.y, u.denom, u.norm) == (1, 1, 1, -1)
    u = fundamental_unit(quadratic_field(3))
    assert (u.x, u.y, u.denom, u.norm) == (2, 1, 1, 1)
    with pytest.raises(DomainError):
        fundamental_unit(quadratic_field(-5))


def test_fundamental_unit_identity_and_minimality():
    for m in range(2, 121):
        if not is_squarefree(m):
            continue
        u = fundamental_unit(quadratic_field(m))
        assert u.x * u.x - m * u.y * u.y == u.norm * u.denom * u.denom
        assert u.x > 0 and u.y > 0
        assert (u.x, u.y, u.denom) == brute_force_minimal_unit(m), m


def reference_unit(m):
    """The unit from the convergents of one whole period, located by storing
    every (P, Q) state until one repeats: an independent oracle."""
    sq = math.isqrt(m)
    P, Q = (1, 2) if m % 4 == 1 else (0, 1)
    seen = {}
    partials = []
    states = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(partials)
        a = (P + sq) // Q
        partials.append(a)
        states.append((P, Q))
        P = a * Q - P
        Q = (m - P * P) // Q
    j = seen[(P, Q)]
    Pj, Qj = states[j]
    # convergent matrix of the periodic word; beta = q1*alpha_j + q0 is the unit
    p1, p0 = 1, 0
    q1, q0 = 0, 1
    for a in partials[j:]:
        p1, p0 = a * p1 + p0, p1
        q1, q0 = a * q1 + q0, q1
    x2, r1 = divmod(2 * (q1 * Pj + q0 * Qj), Qj)
    y2, r2 = divmod(2 * q1, Qj)
    assert r1 == 0 and r2 == 0
    x, y, denom = (x2 // 2, y2 // 2, 1) if x2 % 2 == 0 and y2 % 2 == 0 else (x2, y2, 2)
    return QuadraticUnit(x=x, y=y, denom=denom, radicand=m,
                         norm=1 if x * x - m * y * y > 0 else -1)


def test_fundamental_unit_matches_the_stored_period_oracle():
    radicands = [m for m in range(2, 10_000) if is_squarefree(m)]
    radicands += [t * t + 1 for t in range(1, 2001) if is_squarefree(t * t + 1)]
    for m in radicands:
        assert fundamental_unit(quadratic_field(m)) == reference_unit(m), m
    assert len(radicands) > 7_000


def test_fundamental_unit_memory_does_not_grow_with_the_period():
    # the unit of Q(sqrt(9999991)) has 4,153 digits; a stored period took 2 MB
    field = quadratic_field(9_999_991)
    tracemalloc.start()
    try:
        u = fundamental_unit(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(u.x)) > 4_000
    assert peak < 256 * 1024


def test_class_number_real_examples():
    assert class_number_real(quadratic_field(10)) == 2
    assert class_number_real(quadratic_field(3)) == 1
    assert class_number_real(quadratic_field(2)) == 1
    # Example pair's real subfield: both routes give 10
    assert class_number_real(quadratic_field(1226)) == 10
    assert analytic_class_number_oracle(4904) == 10


def test_regulator_values():
    reg = regulator(quadratic_field(10))
    with mpmath.workprec(150):
        assert abs(reg.value - mpmath.log(3 + mpmath.sqrt(10))) < mpmath.mpf(2) ** -120
    reg = regulator(quadratic_field(1226))
    with mpmath.workprec(150):
        ref = mpmath.log(35 + mpmath.sqrt(1226))
        assert abs(reg.value - ref) < mpmath.mpf(2) ** -120
        assert abs(2 * reg.value - mpmath.mpf("8.4973985")) < mpmath.mpf("1e-6")
    reg2 = regulator(quadratic_field(2))
    with mpmath.workprec(150):
        assert abs(reg2.value - mpmath.log(1 + mpmath.sqrt(2))) < mpmath.mpf(2) ** -120


def test_regulator_precision_contract():
    with pytest.raises(DomainError):
        regulator(quadratic_field(10), precision_bits=32)
    reg = regulator(quadratic_field(10), precision_bits=256)
    assert reg.precision_bits == 256
    assert reg.error_bound > 0


def test_regulator_monotone_in_unit():
    sample = [m for m in range(2, 200) if is_squarefree(m)][:50]
    with mpmath.workprec(200):
        pairs = []
        for m in sample:
            u = fundamental_unit(quadratic_field(m))
            eps = (u.x + u.y * mpmath.sqrt(m)) / u.denom
            pairs.append((eps, regulator(quadratic_field(m)).value))
        pairs.sort(key=lambda z: z[0])
        for (e1, r1), (e2, r2) in zip(pairs, pairs[1:]):
            if e1 < e2:
                assert r1 < r2


def test_analytic_oracle_examples():
    assert analytic_class_number_oracle(-84) == 4
    assert analytic_class_number_oracle(40) == 2
    assert analytic_class_number_oracle(-4) == 1
    with pytest.raises(DomainError):
        analytic_class_number_oracle(-84 * 4)


def test_analytic_matches_combinatorial_small():
    # |D| <= 400 here; the full |D| <= 2000 sweep runs in the acceptance suite
    for D in fundamental_discriminants(400):
        expected = class_number_imaginary(D) if D < 0 else class_number_real(quadratic_field(D))
        assert analytic_class_number_oracle(D) == expected, D
