import math

import pytest

from cmquartic.arith import (
    _sqrt_mod_p,
    Factorization,
    count_roots_mod_p,
    factor,
    is_prime,
    is_squarefree,
    kronecker,
    primes_in_progression,
    squarefree_part,
)
from cmquartic.errors import DomainError


def sieve_primes(n):
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if flags[p]:
            flags[p * p::p] = b"\x00" * len(flags[p * p::p])
    return [i for i, f in enumerate(flags) if f]


def test_is_prime_against_sieve():
    # below 41^2 = 1681 trial division by the witnesses up to 37 decides alone
    primes = set(sieve_primes(10**5))
    for n in range(10**5 + 1):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(1229)


def test_is_prime_refuses_the_strong_pseudoprimes_to_the_first_primes():
    # psi_12 and psi_13 (Sorenson and Webster, Math. Comp. 86, 2017) are the
    # least strong pseudoprimes to every prime base up to 37 and up to 41,
    # so the twelve bases must stop below psi_12, by value: both have at most 82 bits
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    assert psi13 == 1287836182261 * 2575672364521
    assert not is_prime(psi12)
    assert not is_prime(psi13)
    assert factor(psi12) == Factorization(1, ((399165290221, 1), (798330580441, 1)))


def test_factor_examples():
    assert factor(1) == Factorization(1, ())
    assert factor(-84) == Factorization(-1, ((2, 2), (3, 1), (7, 1)))
    assert factor(2822400) == Factorization(1, ((2, 8), (3, 2), (5, 2), (7, 2)))


def test_factor_round_trip():
    for n in range(1, 3000):
        assert factor(n).value() == n
        assert factor(-n).value() == -n


def test_factor_round_trip_to_million():
    import random

    for n in range(3000, 100000):
        assert factor(n).value() == n
    rng = random.Random(20260809)
    for _ in range(5000):
        n = rng.randrange(100000, 10**6)
        assert factor(n).value() == n
        assert factor(-n).value() == -n


def test_factor_structure():
    for n in (360, 2822400, 2**11 * 3**2 * 613**3, 97 * 101 * 103):
        f = factor(n)
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in f.factors)


def test_factor_large_semiprime():
    # exercises the rho fallback beyond the trial division bound
    p, q = 1073741827, 2147483659
    f = factor(p * q)
    assert f == Factorization(1, ((p, 1), (q, 1)))


def test_factor_zero():
    with pytest.raises(DomainError):
        factor(0)


def test_factorization_multiply():
    assert (factor(40) * factor(-84)).value() == 40 * -84
    assert str(factor(2822400)) == "2^8*3^2*5^2*7^2"
    assert str(factor(-84)) == "-2^2*3*7"


def test_squarefree_part_examples():
    assert squarefree_part(10) == (10, 1)
    assert squarefree_part(18) == (2, 3)
    assert squarefree_part(1226) == (1226, 1)
    assert squarefree_part(-48) == (-3, 4)


def test_squarefree_part_reconstructs():
    for n in range(1, 2000):
        v, c = squarefree_part(n)
        assert v * c * c == n
        assert is_squarefree(v)


def test_squarefree_part_multiplicative_on_coprime():
    for a in range(1, 60):
        for b in range(1, 60):
            if math.gcd(a, b) == 1:
                assert (squarefree_part(a * b).value
                        == squarefree_part(a).value * squarefree_part(b).value)


def test_is_squarefree_examples():
    assert is_squarefree(26)
    assert not is_squarefree(50)
    assert is_squarefree(1226)
    with pytest.raises(DomainError):
        is_squarefree(0)


def test_kronecker_examples():
    assert kronecker(-4, 3) == -1
    assert kronecker(40, 3) == 1
    assert kronecker(5, 5) == 0
    with pytest.raises(DomainError):
        kronecker(0, 0)


def test_kronecker_equals_euler_criterion():
    for p in sieve_primes(60):
        if p == 2:
            continue
        for a in range(-2 * p, 2 * p):
            euler = pow(a % p, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_matches_sympy():
    # an independent oracle: every imaginary quadratic class number reads
    # kronecker through dirichlet.kronecker_character
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ints = st.one_of(st.integers(-200, 200), st.integers(-10**12, 10**12))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(ints, ints, st.integers(0, 6))
    def check(a, n, k):
        n <<= k  # even n, through the 2-adic factor
        hypothesis.assume(a or n)
        assert kronecker(a, n) == sympy.kronecker_symbol(a, n), (a, n)

    check()


def test_factor_matches_sympy():
    # an independent oracle: the sieve's fallback above t = 10^9 rests on
    # factor, through squares of primes past the trial-division limit 2^20
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-10**6, 10**6).filter(bool)
    big_prime = st.integers(2**20, 2**22).map(sympy.nextprime)
    past_trial = st.builds(lambda a, q, e: a * q**e, small, big_prime, st.integers(1, 3))

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(small, st.integers(-10**12, 10**12).filter(bool), past_trial))
    def check(n):
        f = factor(n)
        assert f.sign == (1 if n > 0 else -1)
        assert dict(f.factors) == sympy.factorint(abs(n)), n

    check()


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(st.integers(-10, 10**6), st.integers(10**6, 2**64),
                                st.integers(2**64, 2**128)))
    def check(n):
        assert is_prime(n) == sympy.isprime(n), n

    check()


def test_kronecker_multiplicative():
    # zero arguments excluded: (0 | +-1) = 1 by convention breaks the identity
    for a in range(-20, 21):
        for b in range(-20, 21):
            for n in range(-15, 16):
                if a == 0 or b == 0 or n == 0:
                    continue
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for n in range(-20, 21):
        for m in range(-20, 21):
            for a in range(-15, 16):
                if a == 0 or n == 0 or m == 0:
                    continue
                assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


def _count_roots_oracle(s, t, p):
    total = 0
    for x in range(p):
        if (x**4 - 2 * s * (t * t + 1) * x * x + s * s * t * t * (t * t + 1)) % p == 0:
            total += 1
    return total


def test_count_roots_examples():
    # frozen from the evaluation oracle below
    assert count_roots_mod_p(-3, 35, 5) == 3 == _count_roots_oracle(-3, 35, 5)
    assert count_roots_mod_p(1, 1, 3) == 0 == _count_roots_oracle(1, 1, 3)
    # p dividing s*t*(t^2+1) is allowed: literal root count
    assert count_roots_mod_p(5, 3, 5) == _count_roots_oracle(5, 3, 5)


def test_count_roots_matches_oracle():
    # every odd p < 400, with p dividing s, t or t^2+1 and both signs of t;
    # the oracle evaluates every residue
    for p in sieve_primes(400)[1:]:
        i = next((x for x in range(p) if (x * x + 1) % p == 0), None)  # p | i^2 + 1
        ts = (1, 2, 3, 4, 5, 35, p, 2 * p, *(-t for t in (1, 3, 35, p)),
              *(() if i is None else (i, -i, i + p)))
        for s in (*range(-7, 0), *range(1, 8), -11, -2 * p, p):
            for t in ts:
                assert count_roots_mod_p(s, t, p) == _count_roots_oracle(s, t, p), (s, t, p)


def test_sqrt_mod_p():
    # 2-adic valuations of p - 1 from 1 to 18: Tonelli-Shanks loops up to 17 times
    for p in (3, 7, 13, 17, 97, 193, 257, 65537, 163841, 786433):
        for x in range(1, min(p, 300)):
            a = x * x % p
            r = _sqrt_mod_p(a, p)
            assert r * r % p == a, (a, p)


def test_count_roots_domain_errors():
    with pytest.raises(DomainError):
        count_roots_mod_p(1, 1, 4)
    with pytest.raises(DomainError):
        count_roots_mod_p(1, 1, 2)
    # no cap on p: Euler's criterion and Tonelli-Shanks cost O(log p)
    assert count_roots_mod_p(1, 1, 10**6 + 3) == _count_roots_oracle(1, 1, 10**6 + 3)


def test_primes_in_progression():
    assert primes_in_progression(27, 4, 1, 3) == [29, 37, 41]
    assert primes_in_progression(3, 2, 1, 1) == [3]
    assert primes_in_progression(1227, 4, 1, 1) == [1229]
    assert primes_in_progression(10, 4, 1, 0) == []


def test_primes_in_progression_gcd_error():
    with pytest.raises(DomainError):
        primes_in_progression(1, 4, 2, 1)
