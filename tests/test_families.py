import json
import math

import mpmath
import pytest

from cmquartic.arith import factor, is_prime, is_squarefree, primes_in_progression
from cmquartic.cmfield import FieldInvariants
from cmquartic.errors import DomainError
from cmquartic.families import (
    FamilyReport,
    PairReport,
    biquadratic_family,
    biquadratic_pair_report,
    cyclic_family,
    cyclic_pair_report,
    dedekind_residue,
    regulator_target,
    same_regulator_family,
    sieve_t,
)
from cmquartic.precision import hp_from_value

from oracles import agrees_with, all_flags_true, rescaled


def brute_force_sieve(lo, hi, residue):
    out = []
    for t in range(lo, hi + 1):
        if t % 8 != residue:
            continue
        n = t * t + 1
        if all(n % (d * d) for d in range(2, math.isqrt(n) + 1)):
            out.append(t)
    return out


def test_sieve_examples():
    assert sieve_t(1, 40, 5).t_values == (5, 13, 21, 29, 37)
    assert sieve_t(1, 10, 3).t_values == (3,)
    assert sieve_t(7, 7, 5).t_values == ()
    assert sieve_t(101, 101, 5).t_values == (101,)
    assert sieve_t(41, 40, 5).t_values == ()
    assert sieve_t(1, 2, 3).t_values == ()
    assert sieve_t(1, 100, 3).t_values[:4] == (3, 11, 19, 27)


def test_sqrt_minus_one_roots_cover_every_prime_1_mod_4():
    from cmquartic.families import _sqrt_minus_one_roots

    roots = dict(_sqrt_minus_one_roots(5000))
    assert sorted(roots) == [p for p in range(5, 5001, 4) if is_prime(p)]
    assert all(r * r % p == p - 1 for p, r in roots.items())


def test_sieve_against_brute_force():
    for residue in (3, 5):
        report = sieve_t(1, 400, residue)
        assert list(report.t_values) == brute_force_sieve(1, 400, residue)
        for t in report.t_values:
            assert t % 8 == residue
            assert is_squarefree(t * t + 1)


def test_sieve_validation():
    with pytest.raises(DomainError):
        sieve_t(1, 10, 4)
    with pytest.raises(DomainError):
        sieve_t(0, 10, 3)


def _squarefree_filter(lo, hi, residue):
    """The sieve's definition, one factorization per t."""
    return tuple(t for t in range(lo, hi + 1) if t % 8 == residue and is_squarefree(t * t + 1))


def test_sieve_matches_per_t_filter_to_20000():
    for residue in (3, 5):
        assert sieve_t(1, 20_000, residue).t_values == _squarefree_filter(1, 20_000, residue)


def test_sieve_matches_per_t_filter_near_10_to_12():
    # n = (t^2+1)/2 is past 2^60 here, so nearly every cofactor skips trial division
    for residue in (3, 5):
        lo, hi = 10**12, 10**12 + 47
        assert sieve_t(lo, hi, residue).t_values == _squarefree_filter(lo, hi, residue)


def test_sieve_matches_factorint_on_random_windows():
    # one is_squarefree call costs about 27 ms near t = 10^8, so the oracle
    # here is sympy's factorint
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 10**8 - 1), st.integers(-16, 8 * 200 - 1),
                      st.sampled_from((3, 5)))
    def check(t_min, width, residue):
        t_max = t_min + width
        expected = tuple(t for t in range(t_min, t_max + 1) if t % 8 == residue
                         and max(sympy.factorint(t * t + 1).values()) == 1)
        assert sieve_t(t_min, t_max, residue).t_values == expected

    check()


@pytest.mark.parametrize("t, square", [
    (52_525, 10_301),  # t^2+1 = 2*13*10301^2: a square above the cube-root bound
    (168_717, 53_353),  # t^2+1 = 2*5*53353^2
    # t^2+1 = 2*5*349*1033*1409*3533*1048589^2: a square above 2^20, the largest
    # sieving prime; the cofactor is that square
    (4_442_173_193_733, 1_048_589),
    # t^2+1 = 2*17*29*3209*1446233*1048589^2: the cofactor is past 2^60, so only
    # its factorization finds the square
    (2_243_095_411_891, 1_048_589),
], ids=["52525", "168717", "4442173193733", "2243095411891"])
def test_sieve_rejects_squares_the_sieve_primes_miss(t, square):
    assert (t * t + 1) % (square * square) == 0
    for lo, hi in ((t, t), (t - 16, t + 16)):
        report = sieve_t(lo, hi, t % 8)
        assert t not in report.t_values
        assert report.t_values == _squarefree_filter(lo, hi, t % 8)


# the quadratic whose square-free values feed the residue-5 sieve:
# (8k+5)^2 + 1 = 2 * (32k^2 + 40k + 13)
_SIEVE_POLY = (32, 40, 13)


def test_nagell_precondition_check():
    """The sieve quadratic takes infinitely many square-free values (Nagell 1922).

    Its negative discriminant rules out rational and multiple roots, its
    coefficients are coprime, and for every prime p <= 100 some k has p^2
    not dividing g(k).
    """
    a, b, c = _SIEVE_POLY
    assert b * b - 4 * a * c == -64
    assert math.gcd(math.gcd(a, b), c) == 1
    assert a + b + c == 85  # witness value at k = 1, equal to 5 * 17
    for p in filter(is_prime, range(2, 101)):
        assert any(((a * k + b) * k + c) % (p * p) for k in range(1, 10**4 + 1)), p


def test_regulator_target_examples():
    t, reg = regulator_target(1, 5)
    assert t == 5
    assert abs(float(reg.value) - 2.3124) < 1e-3
    t, reg = regulator_target(3, 5)
    assert t == 21
    assert abs(float(reg.value) - 3.7382) < 1e-3
    t, _ = regulator_target(0.1, 5)
    assert t == 5
    t, _ = regulator_target(1, 3)
    assert t == 3


def test_regulator_target_exceeds_M():
    for k in range(1, 21):
        M = 0.6 * k  # 20 samples in (0, 12]
        for residue in (3, 5):
            t, reg = regulator_target(M, residue)
            assert reg.value > M
            assert t % 8 == residue
            assert t > math.exp(M)
    for M in (-1, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            regulator_target(M, 5)


def test_regulator_target_is_the_first_admissible_t_above_e_to_the_M():
    for M in (0.5, 2.5, 5.0, 7.5, 11.0):
        floor = math.floor(mpmath.e ** mpmath.mpf(M))
        for residue in (3, 5):
            first = sieve_t(floor + 1, floor + 400, residue).t_values[0]
            assert regulator_target(M, residue)[0] == first


def test_regulator_target_large_M_starts_at_e_to_the_M():
    t, reg = regulator_target(30, 5)
    assert t == 10686474581525
    with mpmath.workprec(128):
        bound = mpmath.e ** 30
    assert t > bound and reg.value > 30
    skipped = range(math.floor(bound) + 1, t)
    assert all(not is_squarefree(u * u + 1) for u in skipped if u % 8 == 5)


def test_regulator_target_factors_each_scanned_t_once(monkeypatch):
    # square-freeness is read from K+ through the quadratic field memo, so the
    # regulator of the t found reuses the scan's factorization of t^2+1
    from cmquartic import arith, quadratic

    calls = [_count_calls(monkeypatch, module, "factor") for module in (arith, quadratic)]
    for M, t_found in ((6, 405), (20, 485165197)):
        for module_calls in calls:
            module_calls.clear()
        t, _ = regulator_target(M, 5)
        assert t == t_found
        factored = [args[0] for module_calls in calls for args in module_calls]
        assert t * t + 1 in factored and len(factored) == len(set(factored)), factored


def test_regulator_target_rejects_M_above_the_bound():
    # the scan factors t^2+1 near e^(2M); at M = 1000 it never returned
    for M in (30.5, 38, 1000):
        with pytest.raises(DomainError, match="exceeds the bound 30") as exc:
            regulator_target(M, 5)
        assert exc.value.precondition == "M <= 30"


def test_biquadratic_pair_examples():
    rep = biquadratic_pair_report(5, 29)
    assert rep.field_a == "B(-754,-29,26)"
    assert rep.disc.value() == 2**8 * 29**2 * 13**2
    assert all_flags_true(rep)
    rep = biquadratic_pair_report(3, 13)
    assert rep.p == 13
    assert all_flags_true(rep)


def test_biquadratic_family_first_primes():
    fam = biquadratic_family(5, 1)
    assert [r.p for r in fam] == [29]
    fam = biquadratic_family(3, 3)
    assert [r.p for r in fam] == [13, 17, 29]
    with pytest.raises(DomainError):
        biquadratic_family(4, 1)


def test_cyclic_family_first_primes():
    fam = cyclic_family(35, 1)
    assert [r.p for r in fam] == [1229]
    assert fam[0].field_a == "K(-1229,35)"
    assert fam[0].field_b == "K(-2458,35)"
    assert all_flags_true(fam[0])
    fam = cyclic_family(3, 2)
    assert [r.p for r in fam] == [11, 13]
    assert cyclic_family(35, 0) == []
    with pytest.raises(DomainError):
        cyclic_family(4, 1)


def test_pair_at_negative_t_is_the_pair_at_t():
    # both kinds depend on t^2 only, and the fundamental unit of K+ is
    # |t| + sqrt(t^2+1) for either sign: every flag holds at t = -5, and the
    # record is the one at t = 5 apart from t and the labels
    from dataclasses import replace

    for pair_report in (cyclic_pair_report, biquadratic_pair_report):
        rep, mirror = (pair_report(t, 29, with_class_number=True) for t in (5, -5))
        assert all_flags_true(mirror), mirror.kind
        assert replace(mirror, t=5, field_a=rep.field_a, field_b=rep.field_b) == rep
    for family in (cyclic_family, biquadratic_family):
        assert all(all_flags_true(rep) for rep in family(-3, 2)), family.__name__


def test_pair_admissibility():
    with pytest.raises(DomainError):
        biquadratic_pair_report(5, 31)  # 31 = 3 mod 4
    with pytest.raises(DomainError):
        biquadratic_pair_report(5, 13)  # 13 < 26
    with pytest.raises(DomainError):
        cyclic_pair_report(35, 1228)  # not prime


def test_family_flags_and_regulator_identity():
    for t in (3, 5):
        m = t * t + 1
        with mpmath.workprec(144):
            ref = 2 * mpmath.log(t + mpmath.sqrt(m))
        for rep in biquadratic_family(t, 5) + cyclic_family(t, 5):
            assert all_flags_true(rep)
            assert rep.regulator.value == ref


def test_family_flags_full_grid():
    # first 20 admissible primes for every sieve value used by the examples
    for t in (3, 5, 13, 35):
        for rep in biquadratic_family(t, 20) + cyclic_family(t, 20):
            assert all_flags_true(rep), (rep.kind, t, rep.p)


def test_family_parallel_matches_serial():
    serial = cyclic_family(3, 4, jobs=1)
    parallel = cyclic_family(3, 4, jobs=2)
    assert serial == parallel


def test_same_regulator_family():
    rep = same_regulator_family("biquadratic", 5, 3)
    assert rep.fields == ("B(-754,-29,26)", "B(-962,-37,26)", "B(-1066,-41,26)")
    assert rep.primes == (29, 37, 41)
    rep = same_regulator_family("cyclic", 3, 3)
    assert rep.fields == ("K(-11,3)", "K(-13,3)", "K(-17,3)")
    single = same_regulator_family("cyclic", 3, 1)
    assert len(single.fields) == 1
    with pytest.raises(DomainError):
        same_regulator_family("cubic", 3, 1)


def test_same_regulator_family_checks_each_members_regulator(monkeypatch):
    # Q = 2 at the member at -13 makes its regulator reg(K+), not 2 reg(K+),
    # and its Q differs from its twin's at -26: the family must not report it
    from cmquartic import cyclic_quartic as cq
    from cmquartic.errors import ConsistencyError

    real = cq.hasse_Q
    monkeypatch.setattr(cq, "hasse_Q", lambda K: 2 if K.s == -13 else real(K))
    with pytest.raises(ConsistencyError, match="regulator"):
        same_regulator_family("cyclic", 3, 3)


def test_cyclic_family_discriminants_grow():
    rep = same_regulator_family("cyclic", 3, 6)
    from cmquartic.cyclic_quartic import CyclicQuarticField, discriminant

    values = [discriminant(CyclicQuarticField(-p, 3)).value() for p in rep.primes]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_dedekind_residue_plugin():
    inv = FieldInvariants(
        disc=factor(-4),
        regulator=hp_from_value(mpmath.mpf(1), 128),
        hasse_q=1,
        roots_of_unity=2,
        class_number=1,
        r1=0,
        r2=1,
    )
    res = dedekind_residue(inv)
    with mpmath.workprec(144):
        assert abs(res.value - mpmath.pi / 2) < mpmath.mpf(2) ** -120


def test_dedekind_residue_requires_resolved_fields():
    inv = FieldInvariants(
        disc=factor(-4),
        regulator=hp_from_value(mpmath.mpf(1), 128),
        hasse_q=1,
        roots_of_unity=2,
        class_number=None,
        r1=0,
        r2=1,
    )
    with pytest.raises(DomainError):
        dedekind_residue(inv)


def test_residues_for_generic_pair_scale_with_class_number():
    # generic pairs share disc and regulator but not class number, so the
    # residues differ in exactly the h ratio
    rep = cyclic_pair_report(3, 11, with_class_number=True)
    assert rep.class_a is not None and rep.class_b is not None
    with mpmath.workprec(144):
        ratio = rep.residue_b.value / rep.residue_a.value
        assert abs(ratio - mpmath.mpf(rep.class_b) / rep.class_a) < mpmath.mpf(2) ** -100


def test_residues_agree_for_example_pairs():
    rep = biquadratic_pair_report(5, 29, with_class_number=True)
    # equal h for this pair as well: residues then agree to working precision
    if rep.class_a == rep.class_b:
        assert agrees_with(rep.residue_a, rep.residue_b, 120)


def _residue_by_formula(inv, bits):
    """2^r1 (2 pi)^r2 h reg / (w sqrt|disc|), one field at a time, its bound by mpf powers."""
    with mpmath.workprec(bits + 16):
        num = (mpmath.mpf(2) ** inv.r1 * (2 * mpmath.pi) ** inv.r2
               * inv.class_number * inv.regulator.value)
        val = num / (inv.roots_of_unity * mpmath.sqrt(abs(inv.disc.value())))
    err = abs(val) * mpmath.mpf(2) ** (2 - bits) + mpmath.mpf(2) ** (-bits)
    return val, err, bits


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("t", [5, -5])
def test_pair_residues_equal_each_members_dedekind_residue(t, bits):
    # the pair takes w sqrt|disc| once for both members and 2^r1 (2 pi)^r2
    # from a memo, in the order of operations of the one-field formula: the
    # same value, error bound and precision, to the last bit
    from cmquartic import biquadratic as bq
    from cmquartic import cmfield
    from cmquartic import cyclic_quartic as cq

    p, m = 29, t * t + 1
    kinds = ((cyclic_pair_report, [cq.CyclicQuarticField(a, t) for a in (-p, -2 * p)]),
             (biquadratic_pair_report, [bq.biquadratic(a, m) for a in (-p, -2 * p)]))
    for pair_report, members in kinds:
        rep = pair_report(t, p, bits, with_class_number=True)
        for residue, K in zip((rep.residue_a, rep.residue_b), members, strict=True):
            inv = cmfield.field_invariants(K, bits, True)
            single = dedekind_residue(inv, bits)
            got = (residue.value, residue.error_bound, residue.precision_bits)
            assert got == (single.value, single.error_bound, single.precision_bits), K.label()
            assert got == _residue_by_formula(inv, bits), K.label()


@pytest.mark.parametrize("bits", [64, 128, 256, 300])
def test_hp_from_value_bound_is_exact_powers_of_two(bits):
    # |v| 2^(2-b) + 2^(-b) by binary shifts gives the bound the mpf powers
    # gave, rounded at the caller's precision
    values = [mpmath.mpf(0), mpmath.mpf(1), -mpmath.pi, mpmath.mpf(10) ** 40,
              mpmath.mpf(2) ** -200, mpmath.mpf("0.1")]
    for prec in (53, bits + 16):
        with mpmath.workprec(prec):
            for v in values:
                got = hp_from_value(v, bits)
                assert got.error_bound == (abs(v) * mpmath.mpf(2) ** (2 - bits)
                                           + mpmath.mpf(2) ** (-bits)), (prec, v)
                assert got.value is v and got.precision_bits == bits


def test_reg_equal_closed_form_is_kept_per_t_and_precision():
    # a closed form kept for t alone would hold the 64-bit log and fail the
    # 256-bit regulator's bound
    from cmquartic import families, quadratic

    for pair_report in (cyclic_pair_report, biquadratic_pair_report):
        for bits in (64, 256, 64):
            assert pair_report(5, 29, bits).reg_equal, (pair_report.__name__, bits)
        assert pair_report(-5, 29, 256).reg_equal, pair_report.__name__
    # one value per |t| and precision, and no more than the K+ memo keeps
    info = families._unit_log.cache_info()
    assert (info.currsize, info.misses) == (2, 2)
    for t in _ADMISSIBLE_T:
        cyclic_pair_report(t, primes_in_progression(t * t + 2, 2, 1, 1)[0], 64)
    info = families._unit_log.cache_info()
    assert info.maxsize == info.currsize == quadratic.FIELD_MEMO_SIZE < info.misses


def test_family_takes_the_closed_form_log_once(monkeypatch):
    # reg(K+) takes one log of its unit, and the closed form of reg_equal one
    # log for the whole family, not one per pair
    logs = []
    real = mpmath.log

    def counted(x):
        logs.append(x)
        return real(x)

    monkeypatch.setattr(mpmath, "log", counted)
    reports = cyclic_family(5, 5)
    assert len(reports) == 5 and all(rep.reg_equal for rep in reports)
    assert len(logs) == 2


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_cyclic_pair_computes_each_class_number_once(monkeypatch):
    # the pair step in cmfield sums chi_a and chi_a * (8|.) in one kernel pass
    from cmquartic import dirichlet

    calls = _count_calls(monkeypatch, dirichlet, "_bernoulli_B1s")
    rep = cyclic_pair_report(5, 29, with_class_number=True)
    assert len(calls) == 1
    assert (rep.class_a, rep.class_b) == (360, 1352)


def test_biquadratic_pair_computes_each_class_number_once(monkeypatch):
    # one kernel pass per couple: (-4p|.) with (-8p|.) on 8p, and (-8pm'|.)
    # with (-4pm'|.) on 8pm'
    from cmquartic import dirichlet

    calls = _count_calls(monkeypatch, dirichlet, "_bernoulli_B1s")
    rep = biquadratic_pair_report(5, 29, with_class_number=True)
    assert len(calls) == 2
    assert [chars[0].modulus for (chars,) in calls] == [8 * 29 * 13, 8 * 29]
    assert rep.residue_a is not None and rep.residue_b is not None


@pytest.mark.parametrize("t", [3, 5, 13, 35])
def test_biquadratic_pair_class_numbers_equal_the_single_field_route(t):
    # the couples read (D|.) on 8p and 8pm', which have the primes of D, so
    # B1 and h are those of (D|.) mod |D|; `class_number` reads the same
    # characters one field at a time
    from cmquartic import biquadratic as bq

    for p in primes_in_progression(t * t + 2, 4, 1, 6):
        rep = biquadratic_pair_report(t, p, with_class_number=True)
        members = (bq.biquadratic(-p, t * t + 1), bq.biquadratic(-2 * p, t * t + 1))
        assert (rep.class_a, rep.class_b) == tuple(map(bq.class_number, members)), (t, p)


@pytest.mark.parametrize("kind", ["biquadratic", "cyclic"])
def test_single_field_and_pair_read_the_same_odd_characters(monkeypatch, kind):
    # one source of characters per kind: `K.odd_characters()` feeds the
    # single-field `class_number` and the pair's couples alike
    from cmquartic import cmfield, families

    family = families._KINDS[kind]
    Ka, Kb = family.member(-29, 5), family.member(-58, 5)
    calls = _count_calls(monkeypatch, type(Ka), "odd_characters")
    rep = families._pair_report(kind, 5, 29, 128, True)
    assert calls == [(Ka,), (Kb,)]
    assert (cmfield.class_number(Ka), cmfield.class_number(Kb)) == (rep.class_a, rep.class_b)
    assert calls == [(Ka,), (Kb,)] * 2


def test_biquadratic_pair_whose_characters_are_no_twist_is_an_internal_error(
        monkeypatch, capsys):
    # member b's characters must be member a's times (8|.); a's own characters
    # for both stop the pair rather than feeding B1
    from cmquartic import biquadratic as bq
    from cmquartic import cli

    real, Ka = bq.BiquadraticField.odd_characters, bq.biquadratic(-29, 26)
    monkeypatch.setattr(bq.BiquadraticField, "odd_characters", lambda K: real(Ka))
    code = cli.main(["pair", "biquad", "--t", "5", "--p", "29", "--with-class-number"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 3
    assert error["code"] == "E_INTERNAL"
    assert "is neither chi_a * eps" in error["message"]


def test_biquadratic_pair_finds_each_primitive_root_once(monkeypatch):
    # the couples of B(-29, 26) and B(-58, 26) are on the Kronecker moduli
    # 8pm' and 8p with p = 29, m' = 13: they share the code table of 29, so
    # p - 1 is factored for a primitive root once per prime, not per modulus
    from cmquartic import dirichlet

    calls = _count_calls(monkeypatch, dirichlet, "_primitive_root")
    rep = biquadratic_pair_report(5, 29, with_class_number=True)
    assert rep.class_a and rep.class_b
    assert sorted(calls) == [(13,), (29,)]


def test_biquadratic_family_builds_each_lambda_prefix_once(monkeypatch):
    # the pairs at one t share K+, so their Kronecker characters share lambda
    # sides: (-4p|.) and (-8p|.) read lambda = (.|p), and (-8pm'|.) and
    # (-4pm'|.) read two lambda on 8m', fixed by t alone.  Each distinct
    # lambda table's prefix list is built once: 10 over the 8 pairs at t = 61
    from cmquartic import dirichlet

    calls = _count_calls(monkeypatch, dirichlet, "_prefix")
    reports = biquadratic_family(61, 8, with_class_number=True)
    assert all(rep.class_a and rep.class_b for rep in reports)
    assert all(len(lam) <= dirichlet._BLOCK for lam, _ in calls)
    assert len(calls) == len(set(calls)) == 10


def test_pair_runs_each_field_stage_once_per_field(monkeypatch):
    # disc(K), K+ and Q are built once per field and read from the field
    # object; K+ comes from the quadratic field memo, so its unit and h(K+)
    # are computed once per t for both members, a whole family and both kinds
    from cmquartic import biquadratic as bq
    from cmquartic import cyclic_quartic as cq
    from cmquartic import quadratic

    units = _count_calls(monkeypatch, quadratic, "fundamental_unit")
    class_numbers = _count_calls(monkeypatch, quadratic, "class_number_real")

    def per_t_counts(run):
        quadratic._field_memo.cache_clear()
        units.clear()
        class_numbers.clear()
        run()
        return len(units), len(class_numbers)

    for module, pair_report in ((cq, cyclic_pair_report), (bq, biquadratic_pair_report)):
        stages = ("discriminant", "maximal_real_subfield", "hasse_Q")
        calls = {stage: _count_calls(monkeypatch, module, stage) for stage in stages}
        assert per_t_counts(lambda: pair_report(5, 29, with_class_number=True)) == (1, 1), \
            module.__name__
        assert {stage: len(c) for stage, c in calls.items()} == dict.fromkeys(stages, 2), \
            module.__name__
    for family in (cyclic_family, biquadratic_family):
        reports = []
        assert per_t_counts(lambda: reports.extend(family(13, 4, with_class_number=True))) \
            == (1, 1), family.__name__
        assert len(reports) == 4 and all(rep.class_a for rep in reports)
    assert per_t_counts(lambda: (cyclic_pair_report(5, 29, with_class_number=True),
                                 biquadratic_pair_report(5, 29, with_class_number=True))) \
        == (1, 1)


def test_regulator_takes_one_log_per_kplus_and_precision(monkeypatch):
    # reg(K+) is kept on the K+ object, one value per precision, so both
    # members of a pair, a whole family and both kinds at one t take the
    # log of the unit of K+ once, and a K+ built anew takes it again
    from cmquartic import quadratic

    logs = []

    class CountingMpmath:
        """mpmath as `quadratic` sees it, with every log recorded."""

        def __getattr__(self, name):
            return getattr(mpmath, name)

        def log(self, x):
            logs.append(x)
            return mpmath.log(x)

    monkeypatch.setattr(quadratic, "mpmath", CountingMpmath())

    def cold_logs(run):
        quadratic._field_memo.cache_clear()
        logs.clear()
        run()
        return len(logs)

    for pair_report in (cyclic_pair_report, biquadratic_pair_report):
        assert cold_logs(lambda: pair_report(5, 29, with_class_number=True)) == 1, \
            pair_report.__name__
    for family in (cyclic_family, biquadratic_family):
        reports = []
        assert cold_logs(lambda: reports.extend(family(13, 4, with_class_number=True))) == 1, \
            family.__name__
        assert len(reports) == 4 and all(rep.class_a for rep in reports)
    assert cold_logs(lambda: (cyclic_pair_report(5, 29, with_class_number=True),
                              biquadratic_pair_report(5, 29, with_class_number=True))) == 1

    # a second precision computes its own value, and each is then read back
    assert cold_logs(lambda: (cyclic_pair_report(5, 29),
                              cyclic_pair_report(5, 29, precision_bits=256),
                              biquadratic_pair_report(5, 29, precision_bits=256),
                              biquadratic_pair_report(5, 29))) == 2
    kplus = quadratic.quadratic_field(26)
    assert sorted(kplus.regulators) == [128, 256]
    assert kplus.regulators[256].precision_bits == 256
    # a K+ rebuilt after the memo is emptied holds no regulator and computes it again
    quadratic._field_memo.cache_clear()
    rebuilt = quadratic.quadratic_field(26)
    assert rebuilt is not kplus and "regulators" not in vars(rebuilt)
    logs.clear()
    rep = cyclic_pair_report(5, 29)
    assert len(logs) == 1 and rebuilt.regulators == {128: kplus.regulators[128]}
    assert rep.regulator == kplus.regulators[128].doubled()


def _guard_factor(monkeypatch, forbidden):
    """Fail on factor(n) for |n| in the set `forbidden`; return the list of every argument.

    Every module binding of `arith.factor` is replaced, so calls made
    through `from .arith import factor` are seen as well.
    """
    import sys

    from cmquartic import arith

    real = arith.factor
    seen = []

    def guarded(n):
        assert abs(n) not in forbidden, f"factor handed {n}"
        seen.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("cmquartic") and getattr(module, "factor", None) is real:
            monkeypatch.setattr(module, "factor", guarded)
    return seen


def test_biquadratic_field_never_factors_the_product_of_its_radicands(monkeypatch):
    # the third subfield Q(sqrt(ra rb / g^2)) is read off the factorizations
    # of the other two.  At a = -2p, g = 2 and the Kronecker character of that
    # subfield has modulus 4 ra rb / g^2 = ra rb, which its unit group
    # factors, so only the discriminant is checked there.
    from cmquartic import biquadratic as bq

    m = 170  # t = 13
    forbidden = set()
    _guard_factor(monkeypatch, forbidden)
    for p in (173, 1009, 10009):
        for a, with_class_number in ((-p, True), (-2 * p, False)):
            forbidden.clear()
            forbidden.add(abs(a) * m)
            K = bq.biquadratic(a, m)
            assert abs(a) * m // math.gcd(a, m) ** 2 in {abs(r) for r in K.radicands}
            inv = bq.field_invariants(K, 128, with_class_number)
            assert inv.disc.value() == math.prod(r if r % 4 == 1 else 4 * r
                                                 for r in K.radicands)
            assert (inv.class_number is not None) == with_class_number


def test_family_factors_t_squared_plus_one_once(monkeypatch):
    from cmquartic import quadratic

    seen = _guard_factor(monkeypatch, set())
    for family in (cyclic_family, biquadratic_family):
        for t in (5, 13):
            quadratic._field_memo.cache_clear()
            seen.clear()
            family(t, 4, with_class_number=True)
            assert seen.count(t * t + 1) == 1, (family.__name__, t)


#: admissible t: 3 or 5 (mod 8) with t^2+1 square-free
_ADMISSIBLE_T = (5, 11, 13, 19, 21, 27, 29, 35, 37, 45, 51, 53, 59, 61, 67, 69, 75, 77, 83, 85)


def test_field_memo_is_bounded():
    # pairs at 20 values of t ask for 20 real fields, one K+ each; the memo
    # keeps the last FIELD_MEMO_SIZE of them, and the last K+ stays
    from cmquartic import quadratic

    for t in _ADMISSIBLE_T:
        assert is_squarefree(t * t + 1) and t % 8 in (3, 5)
        biquadratic_family(t, 1)
    info = quadratic._field_memo.cache_info()
    assert info.maxsize == quadratic.FIELD_MEMO_SIZE
    assert info.currsize == info.maxsize
    quadratic.quadratic_field(85 * 85 + 1)
    assert quadratic._field_memo.cache_info().hits == info.hits + 1


def test_kplus_stays_in_the_memo_across_pairs_at_other_t(monkeypatch):
    # each biquadratic pair's imaginary subfields Q(sqrt(-p)), Q(sqrt(-2p)) are
    # built anew, so they cannot evict K+: pairs at t = 5, then a pair at each
    # of 8 other t, then t = 5 again compute h(K+) once per t
    from cmquartic import quadratic

    class_numbers = _count_calls(monkeypatch, quadratic, "class_number_real")
    others = _ADMISSIBLE_T[1:9]
    biquadratic_family(5, 2, with_class_number=True)
    for t in others:
        biquadratic_family(t, 1, with_class_number=True)
    reports = biquadratic_family(5, 2, with_class_number=True)
    assert all(rep.class_a and rep.class_b for rep in reports)
    assert [F.radicand for (F,) in class_numbers] == [t * t + 1 for t in (5, *others)]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_cm_regulator_equals_the_rational_rescale_of_reg_kplus(bits):
    # 2 reg(K+) / Q by an exact doubling, or reg(K+) itself, against the
    # workprec rescale by 2/Q: the same value and error bound, for the Q = 1
    # members of both families and for Q(zeta12) = B(-1, 3), whose Q is 2
    from cmquartic import biquadratic as bq
    from cmquartic import families, quadratic
    from cmquartic.cmfield import cm_regulator

    fields = [bq.biquadratic(-1, 3)] + [families._KINDS[kind].member(a, t)
                                        for kind in families._KINDS
                                        for t, p in ((5, 29), (13, 173))
                                        for a in (-p, -2 * p)]
    assert [K.hasse_q for K in fields] == [2] + [1] * 8
    for K in fields:
        reg = cm_regulator(K, bits)
        expected = rescaled(quadratic.regulator(K.kplus, bits), 2, K.hasse_q)
        assert (reg.value, reg.error_bound, reg.precision_bits) == (
            expected.value, expected.error_bound, bits), K.label()
        assert reg.to_decimal() == expected.to_decimal()


@pytest.mark.parametrize("argv", [
    ["pair", "cyclic", "--t", "3", "--p", "1000000007", "--with-class-number"],
    ["pair", "biquad", "--t", "3", "--p", "1000000009", "--with-class-number"],
])
def test_a_prime_power_past_the_code_table_cap_exits_2_at_once(argv, capsys):
    # the p-part of f (cyclic) or of the Kronecker moduli 8p, 8pm' (biquadratic)
    # would need a code table of p residues: refused before any is built
    import json
    import time

    from cmquartic import cli

    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error["code"] == "E_DOMAIN" and "LOCAL_TABLE_CAP" in error["message"]
    assert elapsed < 1


def test_reg_equal_fails_when_the_shipped_regulator_is_wrong(monkeypatch):
    # both members inherit the same wrong K+ regulator, so only the closed form
    # 2 log(t + sqrt(t^2+1)) / Q can tell
    from cmquartic import quadratic

    real = quadratic.regulator
    monkeypatch.setattr(quadratic, "regulator", lambda field, precision_bits=128:
                        rescaled(real(field, precision_bits), 3, 2))
    for rep in (biquadratic_pair_report(5, 29), cyclic_pair_report(5, 29)):
        assert rep.reg_equal is False, rep.kind
        assert not all_flags_true(rep)


def test_distinct_fails_when_the_two_members_are_one_field(monkeypatch):
    # biquadratic: the second member is built at -p as well, so Ka == Kb
    # really holds; cyclic: same_field reports K(-p, t) = K(-2p, t)
    from cmquartic import biquadratic as bq
    from cmquartic import cyclic_quartic as cq

    real = bq.biquadratic
    monkeypatch.setattr(bq, "biquadratic", lambda a, b: real(a // 2 if a % 2 == 0 else a, b))
    monkeypatch.setattr(cq, "same_field", lambda s, s2, t: True)
    for rep in (biquadratic_pair_report(5, 29), cyclic_pair_report(5, 29)):
        assert rep.distinct is False, rep.kind
        assert rep.disc_equal and rep.reg_equal, rep.kind
        assert not all_flags_true(rep)


def test_disc_equal_fails_when_the_second_members_discriminant_is_wrong(monkeypatch):
    # the second member, at -2p, gets its true discriminant times 9
    from cmquartic import biquadratic as bq
    from cmquartic import cyclic_quartic as cq

    p = 29
    for module, second in ((bq, lambda K: -2 * p in K.radicands), (cq, lambda K: K.s == -2 * p)):
        real = module.discriminant
        monkeypatch.setattr(module, "discriminant",
                            lambda K, real=real, second=second:
                            real(K) * factor(9) if second(K) else real(K))
    for rep in (biquadratic_pair_report(5, p), cyclic_pair_report(5, p)):
        assert rep.disc_equal is False, rep.kind
        assert rep.distinct and rep.reg_equal, rep.kind
        assert not all_flags_true(rep)
