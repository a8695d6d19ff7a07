import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest

from cmquartic import cli, cmfield, dirichlet, families
from cmquartic import cyclic_quartic as cq
from cmquartic.arith import (count_roots_mod_p, factor, is_prime, is_squarefree, kronecker,
                             squarefree_part)
from cmquartic.cyclic_quartic import (
    CHECK_BOUND,
    CyclicQuarticField,
    associated_quartic_character,
    class_number,
    defining_polynomial,
    discriminant,
    field_invariants,
    hasse_Q,
    hsw_discriminant,
    maximal_real_subfield,
    regulator,
    relative_class_number,
    same_field,
)
from cmquartic.dirichlet import (DirichletCharacter, GaussianRational,
                                 characters_of_order_dividing_4, kronecker_character, unit_group)
from cmquartic.errors import ConsistencyError, DomainError
from cmquartic.quadratic import FIELD_MEMO_SIZE, class_number_real, quadratic_field

from oracles import (characters_squaring_to, conjugate, exponent,
                     relative_class_number_by_fractions, square_parities)


def test_defining_polynomial():
    assert defining_polynomial(-3, 35) == (1, 0, 7356, 0, 9 * 1225 * 1226)
    assert defining_polynomial(1, 1) == (1, 0, -4, 0, 2)
    assert defining_polynomial(2, 3) == (1, 0, -40, 0, 360)
    with pytest.raises(DomainError):
        defining_polynomial(0, 1)
    with pytest.raises(DomainError):
        defining_polynomial(5, 0)


@dataclass(frozen=True)
class CyclicityCertificate:
    """Witnesses that the defining polynomial generates a cyclic quartic field.

    The constant term b is not a rational square (its square-free core
    exceeds 1), a^2 - 4b is not one either, and b(a^2 - 4b) is the exact
    square of `product_root`.
    """

    a: int
    b: int
    b_squarefree_core: int
    shifted_disc: int
    product_root: int


def cyclicity_certificate(s: int, t: int) -> CyclicityCertificate:
    CyclicQuarticField(s, t)  # rejects s = 0 or t = 0
    m = t * t + 1
    a = -2 * s * m
    b = s * s * t * t * m
    core = squarefree_part(m).value
    if core == 1:
        raise ConsistencyError(f"t^2+1 = {m} is a perfect square with t != 0")
    shifted = a * a - 4 * b  # = 4 s^2 (t^2 + 1), never a square
    root = 2 * s * s * abs(t) * m
    if root * root != b * shifted:
        raise ConsistencyError(f"b(a^2-4b) is not the expected square for ({s}, {t})")
    return CyclicityCertificate(a=a, b=b, b_squarefree_core=core,
                                shifted_disc=shifted, product_root=root)


def two_adic_distinctness(t: int) -> bool:
    """True when t^2+1 is not twice a square (guaranteed for t = 3, 5 mod 8)."""
    if t == 0:
        raise DomainError("t must be nonzero", code="E_PARAM_ZERO")
    return squarefree_part(t * t + 1).value != 2


def test_cyclicity_certificate():
    cert = cyclicity_certificate(-3, 35)
    assert cert.b_squarefree_core == 1226
    assert cert.product_root == 2 * 9 * 35 * 1226
    assert cert.product_root**2 == cert.b * cert.shifted_disc
    cert = cyclicity_certificate(1, 1)
    assert cert.b_squarefree_core == 2
    assert cert.product_root == 4
    with pytest.raises(DomainError):
        cyclicity_certificate(5, 0)


def test_cyclicity_certificate_root_identity_sweep():
    for s in range(-10, 11):
        for t in range(1, 12):
            if s == 0:
                continue
            cert = cyclicity_certificate(s, t)
            assert cert.product_root**2 == cert.b * cert.shifted_disc
            assert cert.product_root == 2 * s * s * t * (t * t + 1)
            assert cert.b_squarefree_core > 1


def test_same_field_examples():
    assert same_field(5, 2, 3) is True
    assert same_field(-3, -6, 35) is False
    assert same_field(7, 28, 3) is True
    with pytest.raises(DomainError):
        same_field(0, 2, 3)


def test_same_field_agrees_with_the_core_of_the_product():
    # squares, shared factors, signs and t^2+1 cores, against the core of s*s2 itself
    values = [s for s in range(-60, 61) if s] + [-1229, -2458, 2 * 1229**2, -9 * 1226]
    for t in (1, 3, 5, 7, 35):
        core_m = squarefree_part(t * t + 1).value
        for s in values:
            for s2 in values[::7]:
                core = squarefree_part(s * s2).value
                assert same_field(s, s2, t) is (core == 1 or core == core_m), (s, s2, t)


def test_same_field_never_factors_the_product(monkeypatch):
    from cmquartic import arith

    real = arith.factor

    def guarded(n):
        assert abs(n) != 2 * p * p, f"factor handed 2p^2 = {n}"
        return real(n)

    monkeypatch.setattr(arith, "factor", guarded)
    for p in (1229, 100003, 1000003):
        assert same_field(-p, -2 * p, 5) is False
        assert families.cyclic_pair_report(5, p).distinct


def test_distinctness_sweep():
    # doubling s never preserves the field when t = 3 or 5 (mod 8)
    for s in range(-1, -51, -1):
        if not is_squarefree(s):
            continue
        for t in (3, 5, 11, 13, 19, 21, 27, 29):
            assert same_field(s, 2 * s, t) is False, (s, t)


def test_two_adic_distinctness():
    assert two_adic_distinctness(35) is True
    assert two_adic_distinctness(7) is False  # 50 = 2 * 5^2
    assert two_adic_distinctness(5) is True
    for t in range(1, 300):
        if t % 8 in (3, 5):
            assert two_adic_distinctness(t) is True, t


def test_discriminant_examples():
    d = discriminant(CyclicQuarticField(-3, 35))
    assert d.factors == ((2, 11), (3, 2), (613, 3))
    assert discriminant(CyclicQuarticField(-6, 35)) == d
    assert discriminant(CyclicQuarticField(1, 3)).value() == 2**11 * 5**3
    assert discriminant(CyclicQuarticField(2, 3)) == discriminant(CyclicQuarticField(1, 3))


def test_discriminant_degenerate_parameters():
    with pytest.raises(DomainError):
        discriminant(CyclicQuarticField(-3, 4))  # t even
    with pytest.raises(DomainError):
        discriminant(CyclicQuarticField(5, 3))  # gcd(5, 10) > 1
    with pytest.raises(DomainError):
        discriminant(CyclicQuarticField(9, 5))  # s not square-free
    with pytest.raises(DomainError):
        discriminant(CyclicQuarticField(12, 5))  # 4 | s
    with pytest.raises(DomainError):
        discriminant(CyclicQuarticField(0, 3))


def test_discriminant_pairing_sweep():
    for t in (3, 5, 11, 13):
        m = t * t + 1
        for s in range(1, 30):
            if not is_squarefree(s) or s % 2 == 0 or math.gcd(s, m) != 1:
                continue
            d = discriminant(CyclicQuarticField(s, t))
            assert discriminant(CyclicQuarticField(2 * s, t)) == d
            assert discriminant(CyclicQuarticField(-s, t)) == d
            assert discriminant(CyclicQuarticField(-2 * s, t)) == d
            assert exponent(d, 2) == 11
            for p, _ in factor(s).factors:
                if p != 2:
                    assert exponent(d, p) == 2, (s, t, p)
            for q in (3, 7, 11, 19, 23):
                if s % q and m % q:
                    assert exponent(d, q) == 0, (s, t, q)


def test_discriminant_shared_across_sign_and_doubling_at_primes():
    # real pair (p, 2p), imaginary pair (-p, -2p) and the mixed pair (p, -p)
    # all share one discriminant, over the first 20 admissible primes
    from cmquartic.arith import primes_in_progression

    for t in (3, 5):
        m = t * t + 1
        for p in primes_in_progression(m + 1, 2, 1, 20):
            d = discriminant(CyclicQuarticField(p, t))
            assert discriminant(CyclicQuarticField(2 * p, t)) == d
            assert discriminant(CyclicQuarticField(-p, t)) == d
            assert discriminant(CyclicQuarticField(-2 * p, t)) == d
            assert exponent(d, p) == 2


def test_relative_class_number_against_digamma_L_values():
    # independent analytic route: L(1, chi) through digamma values,
    # h- = Q * w * f * |L|^2 / (4 pi^2), compared to the exact Bernoulli route
    for s, t in ((-11, 3), (-22, 3)):
        chi = associated_quartic_character(CyclicQuarticField(s, t))
        f = chi.modulus
        with mpmath.workprec(90):
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for a in range(1, f):
                k = chi.value_exponent(a)
                if k is None:
                    continue
                psi = mpmath.digamma(mpmath.mpf(a) / f)
                if k == 0:
                    re += psi
                elif k == 1:
                    im += psi
                elif k == 2:
                    re -= psi
                else:
                    im -= psi
            h_analytic = 2 * (re * re + im * im) / f / (4 * mpmath.pi**2)
            (h_exact,) = relative_class_number([(chi,)], (1,), 2)
            assert abs(h_analytic - h_exact) < mpmath.mpf("1e-8"), (s, t)


def test_hsw_discriminant_examples():
    assert hsw_discriminant(-3 * 1226, -3, 1226).factors == ((2, 11), (3, 2), (613, 3))
    assert hsw_discriminant(-6 * 1226, -6, 1226).factors == ((2, 11), (3, 2), (613, 3))
    # literal formula: 2^8 * gcd(4,2)^2 * 2^3 / gcd(4,2,2)^2 = 2^11
    assert hsw_discriminant(4, 2, 2).value() == 2**11


def test_hsw_discriminant_rejects_bad_congruences():
    with pytest.raises(DomainError):
        hsw_discriminant(1, 1, 1)
    with pytest.raises(DomainError):
        hsw_discriminant(3, 5, 7)
    with pytest.raises(DomainError):
        hsw_discriminant(8, 2, 2)  # a = 0 mod 8 fails both conditions
    with pytest.raises(DomainError):
        hsw_discriminant(4, 2, 10 * 49)  # c not square-free


def test_maximal_real_subfield():
    assert maximal_real_subfield(CyclicQuarticField(-3, 35)).radicand == 1226
    assert maximal_real_subfield(CyclicQuarticField(-21, 3)).radicand == 10
    with pytest.raises(DomainError):
        maximal_real_subfield(CyclicQuarticField(4, 3))


def test_a_cyclic_field_supplies_the_radicand_of_kplus_and_w():
    # K+ is its only quadratic subfield, and on the supported domain w = 2
    K = CyclicQuarticField(-3, 35)
    assert K.radicands == (1226,) and K.roots_of_unity == 2


def test_hasse_Q():
    assert hasse_Q(CyclicQuarticField(-3, 35)) == 1
    assert hasse_Q(CyclicQuarticField(-6, 35)) == 1
    assert hasse_Q(CyclicQuarticField(-1, 3)) == 1
    # the ratio 2^4 s^2 n^2 m / gcd^2 is at least 32, so Q is always resolved
    for s, t in ((-1, 5), (-7, 3), (-11, 13), (-2, 5)):
        assert hasse_Q(CyclicQuarticField(s, t)) == 1


def test_regulator_values():
    reg = regulator(CyclicQuarticField(-3, 35))
    with mpmath.workprec(150):
        ref = 2 * mpmath.log(35 + mpmath.sqrt(1226))
        assert abs(reg.value - ref) < mpmath.mpf(2) ** -120
        assert abs(reg.value - mpmath.mpf("8.4973985")) < mpmath.mpf("1e-6")
    assert regulator(CyclicQuarticField(-6, 35)).value == reg.value
    reg5 = regulator(CyclicQuarticField(-5, 5))
    with mpmath.workprec(150):
        assert abs(reg5.value - 2 * mpmath.log(5 + mpmath.sqrt(26))) < mpmath.mpf(2) ** -120
    with pytest.raises(DomainError):
        regulator(CyclicQuarticField(3, 35))  # totally real


def test_associated_character_conductor():
    chi = associated_quartic_character(CyclicQuarticField(-3, 35))
    assert chi.modulus == 29424  # 2^4 * 3 * 613
    assert chi.order == 4
    assert chi.is_odd()
    assert chi.conductor() == 29424
    chi2 = associated_quartic_character(CyclicQuarticField(-1, 3))
    assert chi2.modulus == 80
    with pytest.raises(DomainError):
        associated_quartic_character(CyclicQuarticField(-2, 2))  # t even


def test_character_soundness_against_root_counts():
    for s, t in ((-3, 35), (-6, 35), (-1, 3)):
        chi = associated_quartic_character(CyclicQuarticField(s, t))
        m = t * t + 1
        dplus = maximal_real_subfield(CyclicQuarticField(s, t)).fund_disc
        excluded = 2 * abs(s) * abs(t) * m * chi.modulus
        tested = 0
        p = 2
        while tested < 25:
            p += 1
            if not is_prime(p) or excluded % p == 0:
                continue
            tested += 1
            k = chi.value_exponent(p)
            nroots = count_roots_mod_p(s, t, p)
            assert (k == 0) == (nroots == 4), (s, t, p)
            if k == 2:
                assert nroots in (0, 2), (s, t, p)
            # chi^2 is the quadratic character of the real subfield
            assert kronecker(dplus, p) == (1 if k in (0, 2) else -1), (s, t, p)


def test_wrong_split_after_the_pair_is_settled_is_an_internal_error(monkeypatch, capsys):
    # a root count at 197 that contradicts the constructed character of K(-3,35)
    real = cq._root_count

    def wrong_at_197(s, t, p, m, r):
        n = real(s, t, p, m, r)
        return (0 if n == 4 else 4) if p == 197 else n

    monkeypatch.setattr(cq, "_root_count", wrong_at_197)
    code = cli.main(["invariants", "cyclic", "-s", "-3", "-t", "35", "--with-class-number"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 3
    assert error["code"] == "E_INTERNAL"
    assert ("the character of K(-3,35) has chi(197) = i^1, "
            "but the defining polynomial has 4 roots mod 197") in error["message"]


@pytest.mark.parametrize("stray", [3, 11])
def test_wrong_discriminant_is_an_internal_error(monkeypatch, capsys, stray):
    # a stray q^2 in disc(K) puts q into f, where the constructed chi is trivial
    true_discriminant = cq.discriminant
    monkeypatch.setattr(cq, "discriminant", lambda K: true_discriminant(K) * factor(stray**2))
    code = cli.main(["invariants", "cyclic", "-s", "-7", "-t", "3", "--with-class-number"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 3
    assert error["code"] == "E_INTERNAL"
    assert f"K(-7,3) has conductor 560, not f = {560 * stray}" in error["message"]


def test_check_counts_roots_at_exactly_the_odd_primes_up_to_the_bound(monkeypatch):
    checked = []
    real = cq._root_count

    def counting(s, t, p, m, r):
        checked.append(p)
        return real(s, t, p, m, r)

    monkeypatch.setattr(cq, "_root_count", counting)
    for s, t in ((-3, 35), (-6, 35), (-1, 3), (-817, 157), (-3, 443)):
        checked.clear()
        chi = associated_quartic_character(CyclicQuarticField(s, t))
        excluded = 2 * s * t * (t * t + 1) * chi.modulus
        assert checked == [p for p in range(3, CHECK_BOUND + 1, 2)
                           if is_prime(p) and excluded % p], (s, t)
    monkeypatch.setattr(cq, "CHECK_BOUND", 3)
    checked.clear()
    rep = families.cyclic_pair_report(5, 29, with_class_number=True)
    assert (rep.class_a, rep.class_b) == (360, 1352)
    assert checked == [3, 3]


def test_root_table_on_kplus_gives_count_roots_mod_p_at_every_check_prime():
    # the square roots of the radicand of K+ are kept per (radicand, bound);
    # scaled by x for t^2+1 = x^2 * radicand, they give each field the root
    # count of its own polynomial at every odd q <= CHECK_BOUND
    rng = random.Random(21)
    fields = [(-1, 7), (-3, 57), (-6, 57), (-29, 5), (-58, 5)]
    while len(fields) < 30:
        s, t = -rng.randrange(1, 400), rng.randrange(1, 2000, 2)
        if is_squarefree(abs(s) // (abs(s) & -abs(s))) and (s % 4) and math.gcd(s, t * t + 1) == 1:
            fields.append((s, t))
    for s, t in fields:
        K = CyclicQuarticField(s, t)
        m = t * t + 1
        table = cq._root_table(K.kplus.radicand, CHECK_BOUND)
        assert cq._root_table(K.kplus.radicand, CHECK_BOUND) is table
        assert [q for q, _ in table] == [q for q in range(3, CHECK_BOUND + 1, 2) if is_prime(q)]
        x = math.isqrt(m // K.kplus.radicand)
        for q, r in table:
            scaled = None if r is None else x * r % q
            assert cq._root_count(s, t, q, m % q, scaled) == count_roots_mod_p(s, t, q), (s, t, q)
    # more radicands than the memo keeps: it holds as many as the K+ memo
    info = cq._root_table.cache_info()
    assert info.maxsize == info.currsize == FIELD_MEMO_SIZE < info.misses


def test_pair_B1_from_one_pass_equals_two_single_passes():
    # chi_b is the conjugate of chi_a * (8|.), since of a character and its
    # conjugate the one with exponent 1 on 5 mod 16 is kept; (8|.) falls on
    # the loop side at t = 13 and on lambda's side at t = 5 and 11
    sides = set()
    for t, p in ((5, 29), (5, 31), (5, 37), (5, 41), (11, 127), (11, 131), (13, 173), (13, 179)):
        chi_a = associated_quartic_character(CyclicQuarticField(-p, t))
        chi_b = associated_quartic_character(CyclicQuarticField(-2 * p, t))
        twin = chi_a * kronecker_character(8, chi_a.modulus)
        # f * B1 as Gaussian integers (a, b), from the pass over both and from one each
        b1_a, (a, b) = dirichlet._bernoulli_B1s((chi_a, twin))
        assert [b1_a] == dirichlet._bernoulli_B1s((chi_a,))
        # B1(conj chi) = conj B1(chi)
        assert [(a, b) if chi_b == twin else (a, -b)] == dirichlet._bernoulli_B1s((chi_b,))
        sides.add((chi_b == twin, any(g.p == 2 for g, _ in
                                      dirichlet._loop_side(chi_a._decode))))
    assert sides == {(False, False), (False, True)}, sides


def test_pair_whose_second_character_is_no_twist_of_the_first_is_an_internal_error(
        monkeypatch, capsys):
    # member b builds and checks its own character; one that is not
    # chi_a * (8|.) or its conjugate stops the pair rather than feeding B1
    real = cq.associated_quartic_character

    def first_for_both(K):
        return real(CyclicQuarticField(K.s // 2, K.t) if K.s % 2 == 0 else K)

    monkeypatch.setattr(cq, "associated_quartic_character", first_for_both)
    code = cli.main(["pair", "cyclic", "--t", "5", "--p", "29", "--with-class-number"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 3
    assert error["code"] == "E_INTERNAL"
    assert "is neither chi_a * eps" in error["message"]


@pytest.mark.parametrize("s, t, checked", [(-817, 157, 257), (-367, 19, 256), (-3, 35, 256)])
def test_character_splitting_above_the_check_bound(s, t, checked):
    # chi(p) = 1 exactly when the defining polynomial splits into linear
    # factors mod p, for primes the selection never tested
    sympy = pytest.importorskip("sympy")
    chi = associated_quartic_character(CyclicQuarticField(s, t))
    x = sympy.Symbol("x")
    poly = sum(c * x**(4 - i) for i, c in enumerate(defining_polynomial(s, t)))
    excluded = 2 * abs(s * t) * (t * t + 1) * chi.modulus
    primes = [p for p in sympy.primerange(CHECK_BOUND + 1, 2000) if excluded % p]
    for p in primes:
        _, factors = sympy.Poly(poly, x, modulus=p).factor_list()
        linear = sum(e for f, e in factors if f.degree() == 1)
        assert (chi.value_exponent(p) == 0) == (linear == 4), (s, t, p)
    assert len(primes) == checked


def full_filter_candidates(K):
    """Every order-4 character mod f whose square is the quadratic character of K+,
    kept when odd and primitive."""
    fchi = cq._conductor_of_quartic_character(K)
    return [chi for chi in characters_squaring_to(fchi, K.kplus.fund_disc)
            if chi.is_odd() and chi.conductor() == fchi]


def searched_character(K):
    """The character by search, as an oracle: the full filter's candidates are
    narrowed by root counts at the odd primes in ascending order to one
    conjugate pair, and its smaller exponent vector is taken."""
    cands = full_filter_candidates(K)
    s, t = K.s, K.t
    excluded = 2 * s * t * (t * t + 1) * cq._conductor_of_quartic_character(K)
    p = 3
    while len(cands) > 2:
        if excluded % p and is_prime(p):
            splits = count_roots_mod_p(s, t, p) == 4
            cands = [chi for chi in cands if (chi.value_exponent(p) == 0) == splits]
        p += 2
    assert len(cands) == 2 and cands[0] == cands[1].conjugate(), K.label()
    return min(cands, key=lambda c: c.exponents)


def benchmark_pool():
    """The cyclic-pairs benchmark pool: K(-p, t) and K(-2p, t) for the first
    20 (t = 5) and 12 (t = 11, 13) odd primes p > t^2+1."""
    for t, count in ((5, 20), (11, 12), (13, 12)):
        primes = [p for p in range(t * t + 2, 10**4) if p % 2 and is_prime(p)][:count]
        yield from (CyclicQuarticField(sign * p, t) for p in primes for sign in (-1, -2))


def test_parity_first_candidates_match_the_full_filter_on_the_benchmark_pool():
    # the full filter here keeps, of all 4^k characters, those whose
    # exponent parities square to the quadratic character of K+
    fields = 0
    for K in benchmark_pool():
        fchi = cq._conductor_of_quartic_character(K)
        D = K.kplus.fund_disc
        parities = square_parities(fchi, D)
        full = [chi for chi in characters_of_order_dividing_4(fchi)
                if parities is not None
                and all(q % 2 == b for q, b in zip(chi.exponents, parities))]
        assert characters_squaring_to(fchi, D) == full, K.label()
        # chi^2 is the character of D != 1, so no candidate has order 1 or 2
        assert all(chi.order == 4 for chi in full), K.label()
        fields += 1
    assert fields == 88


def test_prime_power_candidates_match_the_full_filter():
    # the character built prime power by prime power, and its conjugate, are
    # among the full filter's candidates; t = 13, 21, 47 give m = t^2+1 with
    # 3 or 4 prime factors, t = 35 has 1226 = 2 * 613
    fields, sizes = 0, set()
    for t in (1, 3, 5, 7, 13, 21, 35, 47):
        for s in range(-300, 0):
            K = CyclicQuarticField(s, t)
            try:
                full = full_filter_candidates(K)
            except DomainError:
                continue  # s not square-free, or sharing a factor with t^2+1
            chi = associated_quartic_character(K)
            assert chi in full and chi.conjugate() in full, K.label()
            sizes.add(len(full))
            fields += 1
    assert fields == 1273
    assert sizes == {2, 4, 8, 16}


def test_candidate_counts():
    # the full filter's candidates, which the root-count search narrows to one pair
    for K in benchmark_pool():
        assert len(full_filter_candidates(K)) == (8 if K.t == 13 else 4), K.label()
    assert len(full_filter_candidates(CyclicQuarticField(-3, 35))) == 4


def test_constructed_character_matches_the_search():
    # t = 13, 21, 47 give m = t^2+1 with 3 or 4 prime factors; 5^2 divides
    # m at t = 7, 43, 157, 5^3 at t = 57 and 5^4 at t = 443
    fields, sizes = 0, set()
    for t in (1, 3, 5, 7, 13, 21, 35, 43, 47, 57, 157, 443, -3, -57):
        for s in range(-150, 0):
            K = CyclicQuarticField(s, t)
            try:
                K.disc
            except DomainError:
                continue  # s not square-free, or sharing a factor with t^2+1
            assert associated_quartic_character(K) == searched_character(K), K.label()
            sizes.add(len(full_filter_candidates(K)))
            fields += 1
    assert fields == 1077
    assert sizes == {2, 4, 8, 16}
    for K in benchmark_pool():
        assert associated_quartic_character(K) == searched_character(K), K.label()


def test_constructed_character_matches_the_search_on_random_fields():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(-10**4 // 2, 10**4 // 2 - 1), st.integers(-1000, -1))
    def check(half, s):
        K = CyclicQuarticField(s, 2 * half + 1)  # odd t with |t| < 10^4
        try:
            K.disc
        except DomainError:
            hypothesis.assume(False)
        try:
            assert associated_quartic_character(K) == searched_character(K), K.label()
        finally:
            unit_group.cache_clear()

    check()


def test_relative_class_number_cyclotomic():
    # a quartic chi stands for chi and conj chi: Q(zeta5) has h^- = 1
    assert relative_class_number([(DirichletCharacter(5, (1,)),)], (1,), 10) == (1,)
    # B1 of (-4|.) alone gives h^- = 1/2
    with pytest.raises(ConsistencyError, match="1/2"):
        relative_class_number([(DirichletCharacter(4, (2,)),)], (1,), 2)


def _outcome(route, *args):
    try:
        return route(*args)
    except ConsistencyError as exc:
        return type(exc), str(exc)


def test_relative_class_number_matches_the_gaussian_rational_product(monkeypatch):
    # h^- from f * B1 = a + b*i, one integer division, gives the integer, or
    # the error and message, of the product of B1 and conj B1 (a quartic
    # chi) or of B1 alone (a real chi) taken in Gaussian rationals
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    drawn = {}  # the kernel's f * B1 of each character
    monkeypatch.setattr(dirichlet, "_bernoulli_B1s", lambda chars: [drawn[chi] for chi in chars])
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(-24, 24), st.integers(-3, 3),
                      st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12)), st.sampled_from((2, 4)),
                      st.sampled_from((1, 2)), st.sampled_from((2, 4, 6, 8, 10, 12)))
    def check(a, b, f, order, Q, w):
        chi = DirichletCharacter(f, (1 if order == 4 else 2,))
        drawn[chi] = (a, b)
        b1 = GaussianRational(Fraction(a, f), Fraction(b, f))
        values = [b1, conjugate(b1)] if order == 4 else [b1]
        expected = _outcome(lambda: (relative_class_number_by_fractions(values, Q, w),))
        assert _outcome(relative_class_number, [(chi,)], (Q,), w) == expected, (a, b, f, order)
        if len(expected) == 1:
            seen.add("integer")
        elif "not real" in expected[1]:
            seen.add("non-real")
        else:  # "relative class number {h} is not a positive integer ..."
            seen.add("non-integral" if "/" in expected[1].split()[3] else "non-positive")

    check()
    assert seen == {"integer", "non-real", "non-integral", "non-positive"}, seen


def test_class_number_example_pair():
    assert class_number(CyclicQuarticField(-3, 35)) == 19400
    assert class_number(CyclicQuarticField(-6, 35)) == 19400
    assert 19400 == 2**3 * 5**2 * 97
    # h = h_minus * h(K+): the real subfield contributes exactly h(4904) = 10
    assert class_number_real(quadratic_field(1226)) == 10
    chi = associated_quartic_character(CyclicQuarticField(-3, 35))
    assert relative_class_number([(chi,)], (1,), 2) == (1940,)


def test_class_number_small_member():
    h = class_number(CyclicQuarticField(-1, 3))
    assert h > 0
    assert h % class_number_real(quadratic_field(10)) == 0  # divisible by h(Q(sqrt(10))) = 2


def test_field_invariants_payload():
    inv = field_invariants(CyclicQuarticField(-3, 35), with_class_number=True)
    assert inv.class_number == 19400
    assert inv.hasse_q == 1
    assert inv.roots_of_unity == 2
    assert (inv.r1, inv.r2) == (0, 2)
    inv0 = field_invariants(CyclicQuarticField(-3, 35))
    assert inv0.class_number is None


def test_label():
    assert CyclicQuarticField(-3, 35).label() == "K(-3,35)"
    with pytest.raises(DomainError):
        CyclicQuarticField(0, 35)
