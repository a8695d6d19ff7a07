import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from cmquartic import dirichlet
from cmquartic.arith import is_prime, kronecker
from cmquartic.dirichlet import (
    LAMBDA_MEMO_SIZE,
    LOCAL_TABLE_CAP,
    NONUNIT,
    DirichletCharacter,
    GaussianRational,
    bernoulli_B1,
    characters_of_order_dividing_4,
    components,
    kronecker_character,
    unit_group,
)
from cmquartic.errors import DomainError
from cmquartic.quadratic import class_number_imaginary, is_fundamental_discriminant

from oracles import (
    I_POWERS,
    character_value,
    characters_squaring_to,
    component_lifts,
    conjugate,
    gaussian_product,
    gaussian_sum,
    loop_side_by_combinations,
    square_parities,
)


@lru_cache(maxsize=None)
def stepped_logs(f: int) -> dict[int, tuple[int, ...]]:
    """Exponent vector of every unit mod f, found by stepping each component generator.

    Each generator is lifted to f by search (itself modulo its prime
    power, 1 modulo the rest of f) and multiplied through its order over
    the elements reached so far; nothing here reads the code tables.
    """
    logs = {1 % f: ()}
    for c in components(f):
        rest = f // c.modulus
        lift = next(x for x in range(c.generator, f, c.modulus) if x % rest == 1 % rest)
        stepped = {}
        for a, xs in logs.items():
            for k in range(c.order):
                stepped[a] = xs + (k,)
                a = a * lift % f
        logs = stepped
    return logs


def reference_exponent(chi: DirichletCharacter, a: int) -> int | None:
    """k with chi(a) = i^k from the stepped logs, or None when gcd(a, f) > 1."""
    xs = stepped_logs(chi.modulus).get(a % chi.modulus)
    return None if xs is None else sum(q * x for q, x in zip(chi.exponents, xs)) % 4


def reference_B1(chi: DirichletCharacter) -> GaussianRational:
    """B_{1,chi} = (1/f) sum_{a<f} a chi(a), one stepped log per residue."""
    f = chi.modulus
    sums = [0, 0, 0, 0]
    for a in range(1, f):
        k = reference_exponent(chi, a)
        if k is not None:
            sums[k] += a
    return GaussianRational(Fraction(sums[0] - sums[2], f), Fraction(sums[1] - sums[3], f))


def reference_fB1(chi: DirichletCharacter) -> tuple[Fraction, Fraction]:
    """f * `reference_B1`, as (a, b) for a + b*i: what the kernel `_bernoulli_B1s` returns."""
    b1 = reference_B1(chi)
    return b1.re * chi.modulus, b1.im * chi.modulus


def _class_sums(table: bytes) -> tuple[list[int], list[int]]:
    """(counts, sums): how many a have table[a] == k, and their sum, for k = 0..3.

    The table is read as a grid w = isqrt(len) bytes wide, a = row + col
    with row a multiple of w: each row and each strided column is
    counted by `bytes.count`.
    """
    n = len(table)
    w = max(1, math.isqrt(n))
    counts, sums = [0, 0, 0, 0], [0, 0, 0, 0]
    for row in range(0, n, w):
        for k in range(4):
            c = table.count(k, row, row + w)
            counts[k] += c
            sums[k] += row * c
    for col in range(1, w):
        column = table[col::w]
        for k in range(4):
            sums[k] += col * column.count(k)
    return counts, sums


def exponent_table(chi: DirichletCharacter) -> bytes:
    """Byte a is k with chi(a) = i^k, or NONUNIT when chi(a) = 0, for 0 <= a < modulus."""
    return dirichlet._exponent_table(chi._decode)


def grid_B1(chi: DirichletCharacter) -> GaussianRational:
    """O(f) oracle: the half sum sum_{a<f/2} (2a - f) chi(a) of an odd chi, read off
    the exponent table of a < f/2 on a grid."""
    f = chi.modulus
    counts, sums = _class_sums(exponent_table(chi)[:(f + 1) // 2])
    half = [2 * s - f * c for s, c in zip(sums, counts)]
    return GaussianRational(Fraction(half[0] - half[2], f), Fraction(half[1] - half[3], f))


def squares_to_kronecker(chi: DirichletCharacter, D: int) -> bool:
    """chi^2 equals the quadratic character (D|.) on (Z/modulus)^*, by exponent parities."""
    parities = square_parities(chi.modulus, D)
    return parities is not None and all(
        q % 2 == b for q, b in zip(chi.exponents, parities))


def reference_conductor(chi: DirichletCharacter) -> int:
    """Smallest divisor d of the modulus with chi(a) = 1 for every unit a = 1 mod d."""
    f = chi.modulus
    for d in (d for d in range(1, f + 1) if f % d == 0):
        if all(reference_exponent(chi, a) == 0
               for a in range(1 + d, f, d) if math.gcd(a, f) == 1):
            return d


def odd_nontrivial(f: int) -> list[DirichletCharacter]:
    return [chi for chi in characters_of_order_dividing_4(f)
            if chi.order > 1 and chi.is_odd()]


#: 2-power parts 2 to 32, odd prime squares and cubes, three odd primes, and
#: the family conductors 8p(t^2+1) for (t, p) = (3, 13), (5, 29)
B1_MODULI = (3, 4, 5, 8, 16, 32, 30, 60, 120, 240, 480, 195, 390, 819,
             1800, 1029, 1040, 6032)


def test_gaussian_rational_arithmetic():
    i = I_POWERS[1]
    assert gaussian_product(i, i) == I_POWERS[2]
    assert gaussian_product(i, i, i) == I_POWERS[3]
    assert gaussian_product(i, I_POWERS[3]) == I_POWERS[0]
    z = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
    assert conjugate(conjugate(z)) == z
    assert gaussian_sum(z, conjugate(z)).im == 0


def test_unit_group_structure():
    assert [(c.modulus, c.order) for c in components(5)] == [(5, 4)]
    assert [(c.generator, c.order) for c in components(16)] == [(15, 2), (5, 4)]
    assert [(c.generator, c.order) for c in components(8)] == [(7, 2), (5, 2)]
    assert [(c.generator, c.order) for c in components(4)] == [(3, 2)]
    assert components(2) == [] and components(1) == []
    # one local group per prime power, in increasing order of p, each from
    # the per-prime-power memo
    assert [(g.p, g.e, g.modulus) for g in unit_group(720)] == [(2, 4, 16), (3, 2, 9),
                                                                (5, 1, 5)]
    assert [(g.p, g.e, g.components) for g in unit_group(2)] == [(2, 1, ())]
    assert unit_group(1) == ()
    assert unit_group(80)[1] is unit_group(15)[1] is dirichlet._local_table(5, 1)
    with pytest.raises(DomainError):
        unit_group(0)
    # component orders multiply to the group order
    for f in (5, 8, 12, 15, 16, 24, 45, 80, 240, 613):
        order = math.prod(c.order for c in components(f))
        phi = sum(1 for a in range(1, f) if math.gcd(a, f) == 1)
        assert order == phi, f


def test_discrete_logs_reproduce_elements():
    # the stepped logs reach every unit once; chi read from the code tables
    # agrees with them on every residue, for every character
    for f in (1, 2, 4, 5, 8, 9, 15, 16, 21, 24, 27, 80, 240, 1029):
        units = [a for a in range(f) if math.gcd(a, f) == 1]
        assert sorted(stepped_logs(f)) == units, f
        for chi in characters_of_order_dividing_4(f):
            for a in range(f):
                assert chi.value_exponent(a) == reference_exponent(chi, a), (f, chi.exponents, a)


def test_unit_group_keeps_one_byte_per_residue():
    tracemalloc.start()
    try:
        grp = unit_group(2 * 100003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(c.modulus, c.order) for g in grp for c in g.components] == [(100003, 100002)]
    assert peak < 2_000_000, peak


def test_character_values_multiplicative():
    for f in (5, 16, 80):
        for chi in characters_of_order_dividing_4(f):
            for a in range(1, f):
                for b in range(1, f):
                    va, vb = chi.value_exponent(a), chi.value_exponent(b)
                    vab = chi.value_exponent(a * b)
                    if va is None or vb is None:
                        assert vab is None
                    else:
                        assert vab == (va + vb) % 4
    # characters multiply only on one modulus
    with pytest.raises(DomainError, match="do not multiply"):
        DirichletCharacter(5, (1,)) * DirichletCharacter(16, (0, 1))


def test_quartic_character_mod_5():
    chi = DirichletCharacter(5, (1,))
    assert character_value(chi, 2) == I_POWERS[1]
    assert character_value(chi, 4) == I_POWERS[2]
    assert character_value(chi, 3) == I_POWERS[3]
    assert chi.order == 4
    assert chi.is_odd()
    assert chi.conductor() == 5
    assert bernoulli_B1(chi) == GaussianRational(Fraction(-3, 5), Fraction(-1, 5))
    assert bernoulli_B1(chi.conjugate()) == GaussianRational(Fraction(-3, 5), Fraction(1, 5))


def test_bernoulli_odd_quadratic_mod_4():
    chi = DirichletCharacter(4, (2,))
    assert chi.is_odd() and chi.order == 2
    assert bernoulli_B1(chi) == GaussianRational(Fraction(-1, 2), Fraction(0))


def test_bernoulli_rejects_even_or_trivial():
    grp_chars = characters_of_order_dividing_4(5)
    trivial = next(c for c in grp_chars if c.order == 1)
    with pytest.raises(DomainError):
        bernoulli_B1(trivial)
    even_quad = next(c for c in grp_chars if c.order == 2)  # Legendre symbol mod 5
    assert not even_quad.is_odd()
    with pytest.raises(DomainError):
        bernoulli_B1(even_quad)


def test_conductor_of_induced_character():
    # modulus 15 character acting only through the mod-5 component
    assert [(c.modulus, c.order) for c in components(15)] == [(3, 2), (5, 4)]
    chi = DirichletCharacter(15, (0, 1))
    assert chi.conductor() == 5
    chi_full = DirichletCharacter(15, (1, 1))
    assert chi_full.conductor() == 15


def test_squares_to_kronecker():
    # chi mod 5 of order 4 squares to the Legendre symbol mod 5 = kronecker(5, .)
    chi = DirichletCharacter(5, (1,))
    assert squares_to_kronecker(chi, 5)
    assert not squares_to_kronecker(chi, 40)


def test_character_order_and_conjugate():
    for f in (5, 16, 29424):
        for chi in characters_of_order_dividing_4(f)[:8]:
            conj = chi.conjugate()
            assert conj.conjugate() == chi
            assert chi.order == conj.order
            for a in (7, 11, 13):
                va, vc = chi.value_exponent(a), conj.value_exponent(a)
                if va is not None:
                    assert vc == (-va) % 4


def test_bernoulli_table_matches_per_term_sum():
    # imprimitive characters, and splits with a trivial lambda, included
    checked = 0
    for f in B1_MODULI:
        for chi in odd_nontrivial(f):
            assert bernoulli_B1(chi) == reference_B1(chi) == grid_B1(chi), (f, chi.exponents)
            checked += 1
    assert checked == 292


def test_exponent_table_is_value_exponent():
    for f in (5, 16, 480, 1800, 6032):
        for chi in characters_of_order_dividing_4(f)[::5]:
            table = exponent_table(chi)
            assert len(table) == f
            for a in range(f):
                k = chi.value_exponent(a)
                assert table[a] == (NONUNIT if k is None else k), (f, chi.exponents, a)


def test_exponent_table_folds_in_stages(monkeypatch):
    # 2 * 9 * 5 * 7 * 11 * 13: six prime-power tables, folded 1, 2 and 3 at a time
    f = 90090
    chars = [chi for chi in characters_of_order_dividing_4(f) if chi.order == 4][::97]
    whole = [exponent_table(chi) for chi in chars]
    for fold in (1, 2, 3):
        monkeypatch.setattr(dirichlet, "_FOLD", fold)
        assert [exponent_table(chi) for chi in chars] == whole
    # with a non-unit byte of 100 a third table would carry: only folding keeps it exact
    monkeypatch.setattr(dirichlet, "NONUNIT", 100)
    monkeypatch.setattr(dirichlet, "_REDUCE",
                        bytes(x % 4 if x < 100 else 100 for x in range(256)))
    monkeypatch.setattr(dirichlet, "_FOLD", 2)
    for chi, table in zip(chars, whole):
        assert exponent_table(chi) == table.replace(bytes([NONUNIT]), bytes([100]))
        for a in range(0, f, 7):
            k = chi.value_exponent(a)
            assert table[a] == (NONUNIT if k is None else k)


def test_bernoulli_eight_prime_powers():
    # 2*3*5*7*11*13*17*19: eight prime-power tables in one big-integer addition
    f = 9699690
    chi = DirichletCharacter(f, (0, 1, 0, 0, 0, 2, 0))  # quartic at 5, quadratic at 17
    assert chi.is_odd() and chi.conductor() == 85
    table = exponent_table(chi)
    rng = random.Random(20261018)
    for a in (rng.randrange(f) for _ in range(10_000)):
        k = chi.value_exponent(a)
        assert table[a] == (NONUNIT if k is None else k), a
    # B1 of an induced character: B1(chi*) * prod over the other p | f of (1 - chi*(p))
    primitive = DirichletCharacter(85, (1, 2))
    expected = reference_B1(primitive)
    for p in (2, 3, 7, 11, 13, 19):
        assert character_value(primitive, p) != I_POWERS[0]
        expected = gaussian_product(expected, gaussian_sum(
            I_POWERS[0], gaussian_product(I_POWERS[2], character_value(primitive, p))))
    assert bernoulli_B1(chi) == expected == grid_B1(chi)


def test_conductor_matches_divisor_scan():
    # 2-power parts up to 2^7, 7^3 and 11^2 among the larger moduli
    for f in (*range(1, 130), 240, 320, 384, 968, 1029, 1800, 4320):
        for chi in characters_of_order_dividing_4(f):
            assert chi.conductor() == reference_conductor(chi), (f, chi.exponents)


def test_component_lifts_and_square_parities():
    for f in (5, 16, 240, 1040, 6032):
        n = len(components(f))
        for j, g in enumerate(component_lifts(f)):
            assert stepped_logs(f)[g] == tuple(int(i == j) for i in range(n))
        for D in (5, 8, -4, 13, 104, 40):
            for chi in characters_of_order_dividing_4(f):
                # chi^2 = (D|.) at every component lift, value by value
                expected = all(I_POWERS[2 * chi.value_exponent(g) % 4].re == kronecker(D, g)
                               for g in component_lifts(f))
                assert squares_to_kronecker(chi, D) == expected, (f, D, chi.exponents)
            # the parity-first enumeration keeps exactly these characters, in order
            assert characters_squaring_to(f, D) == [
                chi for chi in characters_of_order_dividing_4(f) if squares_to_kronecker(chi, D)]


#: prime powers the random moduli are built from, by prime
_PRIME_POWERS = {2: (2, 4, 8, 16, 32), 3: (3, 9, 27), 5: (5, 25), 7: (7, 49),
                 11: (11,), 13: (13,), 17: (17,), 29: (29,), 37: (37,)}


def _draw_odd_character(hypothesis, data, max_primes: int,
                        f: int | None = None) -> DirichletCharacter:
    """An odd nontrivial character with random exponents, on the modulus f when
    given, else on a modulus f <= 20,000 built from 2 to `max_primes` of the
    prime powers above."""
    st = hypothesis.strategies
    if f is None:
        primes = data.draw(st.lists(st.sampled_from(sorted(_PRIME_POWERS)),
                                    min_size=2, max_size=max_primes, unique=True))
        f = math.prod(data.draw(st.sampled_from(_PRIME_POWERS[p])) for p in primes)
        hypothesis.assume(f <= 20_000)
    exps = tuple(data.draw(st.sampled_from((0, 1, 2, 3) if c.order % 4 == 0 else (0, 2)))
                 for c in components(f))
    chi = DirichletCharacter(f, exps)
    hypothesis.assume(chi.order > 1 and chi.is_odd())
    return chi


def test_split_B1_matches_reference_on_random_moduli():
    # random composite moduli and random odd characters on them, many of
    # them imprimitive or trivial at some prime power, so that psi or lambda
    # of the split can be trivial
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    trivial_parts = []

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        chi = _draw_odd_character(hypothesis, data, max_primes=4)
        try:
            assert bernoulli_B1(chi) == reference_B1(chi) == grid_B1(chi), chi
        finally:
            stepped_logs.cache_clear()
        trivial_parts.append(not all(any(values) for _, values in chi._decode))

    check()
    assert any(trivial_parts) and not all(trivial_parts)


def test_kronecker_character_values():
    for D in (-3, -4, -8, -7, -84, -840, 5, 8, 12, 40, 1229):
        chi = kronecker_character(D, abs(D))
        assert chi.modulus == abs(D) and chi.conductor() == abs(D) and chi.order == 2
        assert chi.is_odd() == (D < 0)
        for a in range(abs(D)):
            k = chi.value_exponent(a)
            assert kronecker(D, a) == (0 if k is None else I_POWERS[k].re), (D, a)


def _imaginary_class_number_from_B1(D: int) -> int:
    """h(D) = -(w/2) * B1((D|.)), w the number of roots of unity of Q(sqrt(D))."""
    w = 6 if D == -3 else 4 if D == -4 else 2
    b1 = bernoulli_B1(kronecker_character(D, abs(D)))
    assert b1.im == 0
    h = -w * b1.re / 2
    assert h.denominator == 1
    return int(h)


def test_B1_class_number_matches_the_form_count():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    for D in (-3, -4, -7, -8, -84, -840, -20020):
        assert _imaginary_class_number_from_B1(D) == class_number_imaginary(D), D

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(3, 200_000))
    def check(d):
        hypothesis.assume(is_fundamental_discriminant(-d))
        assert _imaginary_class_number_from_B1(-d) == class_number_imaginary(-d), -d

    check()


def _split_kind(chi: DirichletCharacter) -> tuple[bool, bool]:
    """(lambda trivial, some unit x of the loop side has c_x = 0) for chi's B1 split."""
    side = dirichlet._loop_side(chi._decode)
    rest = [part for part in chi._decode if part not in side]
    m = math.prod(g.modulus for g, _ in side)
    n = chi.modulus // m
    trivial = not any(any(values) for _, values in rest)
    # c_x = x * m^-1 mod n is 0 exactly when n divides x
    zero_point = n > 1 and any(math.gcd(x, m) == 1 for x in range(n, m, n))
    return trivial, zero_point


def test_halved_B1_loop_matches_per_term_sum():
    # the loop over x < m/2 (nontrivial lambda) and the full loop (trivial
    # lambda, where some c_x can be 0) both give (1/f) sum a chi(a)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kinds = set()
    # trivial at 3, odd quartic at 25: psi lives on m = 25, n = 3 divides x = 3
    chi = DirichletCharacter(75, (0, 1))
    assert _split_kind(chi) == (True, True)
    assert bernoulli_B1(chi) == reference_B1(chi)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        chi = _draw_odd_character(hypothesis, data, max_primes=3)
        try:
            assert bernoulli_B1(chi) == reference_B1(chi), chi
        finally:
            stepped_logs.cache_clear()
        kinds.add(_split_kind(chi))

    check()
    assert {(False, False), (True, False)} <= kinds


def test_loop_side_matches_the_search_over_every_side():
    # the side read off bit masks is the side min() finds over all
    # combinations, part for part and in order, on 1 to 5 prime powers
    # and for characters of either parity, trivial on some parts or none
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    for chi in (chi for f in B1_MODULI for chi in characters_of_order_dividing_4(f)
                if chi.order > 1):
        assert dirichlet._loop_side(chi._decode) == loop_side_by_combinations(chi._decode), chi
    seen = set()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        primes = data.draw(st.lists(st.sampled_from(sorted(_PRIME_POWERS)),
                                    min_size=1, max_size=5, unique=True))
        f = math.prod(data.draw(st.sampled_from(_PRIME_POWERS[p])) for p in primes)
        exps = tuple(data.draw(st.sampled_from((0, 1, 2, 3) if c.order % 4 == 0
                                               else (0, 2) if c.order % 2 == 0 else (0,)))
                     for c in components(f))
        chi = DirichletCharacter(f, exps)
        hypothesis.assume(chi.order > 1)
        assert dirichlet._loop_side(chi._decode) == loop_side_by_combinations(chi._decode), chi
        trivial_parts = sum(not any(values) for _, values in chi._decode)
        seen.add((len(primes), trivial_parts > 0))

    check()
    assert {n for n, _ in seen} == {1, 2, 3, 4, 5}
    assert {trivial for _, trivial in seen} == {False, True}


def _block_kinds(chi: DirichletCharacter, block: int) -> set[str]:
    """How chi's B1 split meets prefix blocks of `block` residues.

    "trivial", "real" or "quartic" for lambda, with the route that reads
    it: "in one block" when lambda's table of n residues fits one block,
    else "in blocks".  On the blocked route also "block start" when some
    point c_x > 0 opens a block, and "short last block" when the last point
    lies in a final block of fewer than `block` residues.
    """
    side = dirichlet._loop_side(chi._decode)
    lam = dirichlet._exponent_table([part for part in chi._decode if part not in side])
    m = math.prod(g.modulus for g, _ in side)
    n = len(lam)
    kind = "quartic" if 1 in lam or 3 in lam else "real" if 2 in lam else "trivial"
    if n <= block:
        return {f"{kind} in one block"}
    kinds = {f"{kind} in blocks"}
    # the loop visits the units x < m/2, or every unit when lambda is trivial
    xs = [x for x in range(m if kind == "trivial" else (m + 1) // 2) if math.gcd(x, m) == 1]
    points = [x * pow(m, -1, n) % n for x in xs]
    if any(c and c % block == 0 for c in points):
        kinds.add("block start")
    if n % block and max(points) >= n - n % block:
        kinds.add("short last block")
    return kinds


@pytest.mark.parametrize("block", [1, 2, 7, 64, dirichlet._BLOCK])
def test_bernoulli_B1_across_prefix_blocks(block, monkeypatch):
    # every split of B1_MODULI and of the random moduli, read from one prefix
    # list when lambda's table fits the default block of 2^16 residues, and
    # with lambda's prefix sums cut into blocks of 1, 2, 7 and 64 residues
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chars = [chi for f in B1_MODULI for chi in odd_nontrivial(f)]
    assert len(chars) == 292
    expected = [reference_B1(chi) for chi in chars]
    assert expected == [grid_B1(chi) for chi in chars]
    one_block = block == dirichlet._BLOCK
    monkeypatch.setattr(dirichlet, "_BLOCK", block)
    kinds = set()
    for chi, b1 in zip(chars, expected):
        assert bernoulli_B1(chi) == b1, chi
        kinds |= _block_kinds(chi, block)

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        chi = _draw_odd_character(hypothesis, data, max_primes=4)
        try:
            assert bernoulli_B1(chi) == reference_B1(chi) == grid_B1(chi), chi
        finally:
            stepped_logs.cache_clear()
        kinds.update(_block_kinds(chi, block))

    check()
    lambdas = ("trivial", "real", "quartic")
    if one_block:
        wanted = {f"{kind} in one block" for kind in lambdas}
    else:
        wanted = {f"{kind} in blocks" for kind in lambdas} | {"block start"}
        if block > 1:
            wanted.add("short last block")
    assert kinds >= wanted, kinds


def _quadratic_twists(f: int) -> list[DirichletCharacter]:
    """The even characters of order 2 mod f that are nontrivial at exactly one prime power."""
    return [eps for eps in characters_of_order_dividing_4(f)
            if eps.order == 2 and not eps.is_odd()
            and sum(any(values) for _, values in eps._decode) == 1]


@pytest.mark.parametrize("block", [7, dirichlet._BLOCK])
def test_twin_B1_matches_reference_for_random_twists(block, monkeypatch):
    # B1 of chi and of chi_b = chi * eps or its conjugate from one pass, against
    # the stepped logs, for random odd chi and twists eps of order 2 at one
    # prime power: eps falls on the loop side (keys k_a + 8 k_b) and on
    # lambda's side (two lambda tables).  The kernel itself takes any two odd
    # characters on one modulus, drawn independently: they agree on the loop
    # side or not, and on lambda's side or not.  A block of 7 residues sends
    # every split with n > 7 down the blocked route
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    route = "one block" if block == dirichlet._BLOCK else "blocked"
    monkeypatch.setattr(dirichlet, "_BLOCK", block)
    seen, pairs = set(), set()

    def split(chi, chi_b):
        """(the loop side of the pair's split as parts of chi, its route)."""
        side = dirichlet._loop_side(chi._decode, chi_b._decode)
        n = chi.modulus // math.prod(g.modulus for g, _ in side)
        return side, "one block" if n <= block else "blocked"

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        chi = _draw_odd_character(hypothesis, data, max_primes=4)
        twists = _quadratic_twists(chi.modulus)
        hypothesis.assume(twists)
        eps = data.draw(st.sampled_from(twists))
        twin = chi * eps
        hypothesis.assume(twin.order > 1)
        chi_b = data.draw(st.sampled_from((twin, twin.conjugate())))
        try:
            b1, (a, b) = dirichlet._bernoulli_B1s((chi, twin))
            assert b1 == reference_fB1(chi)
            # B1(conj chi) = conj B1(chi)
            assert ((a, b) if chi_b == twin else (a, -b)) == reference_fB1(chi_b)
        finally:
            stepped_logs.cache_clear()
        side, at_route = split(chi, twin)
        at = next(i for i, (_, values) in enumerate(eps._decode) if any(values))
        seen.add(("loop side" if chi._decode[at] in side else "lambda side", at_route,
                  chi_b == twin))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check_pair(data):
        chi = _draw_odd_character(hypothesis, data, max_primes=3)
        chi_b = _draw_odd_character(hypothesis, data, max_primes=3, f=chi.modulus)
        try:
            assert dirichlet._bernoulli_B1s((chi, chi_b)) == [reference_fB1(chi),
                                                              reference_fB1(chi_b)]
        finally:
            stepped_logs.cache_clear()
        side, pair_route = split(chi, chi_b)
        agree = [(part in side, part == part_b)
                 for part, part_b in zip(chi._decode, chi_b._decode)]
        pairs.add((all(same for inside, same in agree if inside),
                   all(same for inside, same in agree if not inside), pair_route))

    check()
    assert seen >= {(side, route, same) for side in ("loop side", "lambda side")
                    for same in (True, False)}, seen
    check_pair()
    # (loop sides equal, lambda sides equal), each way on this route
    assert pairs >= {(loop, lam, route) for loop in (True, False)
                     for lam in (True, False)}, pairs


def test_B1_through_the_lambda_memo_cold_warm_and_evicted():
    # the one-block lambda columns are kept per lambda side, keyed by each
    # prime power's modulus and value map: odd characters on one modulus
    # often share lambda's moduli and differ in its values, so a key on the
    # moduli alone would hand one lambda's prefix lists to another.  Every
    # odd character of B1_MODULI, alone and with the next one on its
    # modulus, against the stepped logs: with the memo emptied before each
    # call, then twice in turn, through more distinct lambda sides than the
    # memo keeps
    memo = dirichlet._lambda_columns
    chars = [chi for f in B1_MODULI for chi in odd_nontrivial(f)]
    expected = {chi: reference_fB1(chi) for chi in chars}
    calls = [(chi,) for chi in chars] + [
        (chi, chi_b) for chi, chi_b in zip(chars, chars[1:]) if chi.modulus == chi_b.modulus]
    sides, kinds = set(), set()
    for chis in calls:
        side = dirichlet._loop_side(*(chi._decode for chi in chis))
        inside = [part in side for part in chis[0]._decode]
        for chi in chis:
            lam = tuple(part for part, i in zip(chi._decode, inside) if not i)
            table = dirichlet._exponent_table(lam)
            assert len(table) <= dirichlet._BLOCK
            sides.add(lam)
            kinds.add("quartic" if 1 in table or 3 in table else "real" if 2 in table
                      else "trivial")
    assert kinds == {"trivial", "real", "quartic"}
    assert len(sides) > LAMBDA_MEMO_SIZE
    for chis in calls:
        memo.cache_clear()
        assert dirichlet._bernoulli_B1s(chis) == [expected[chi] for chi in chis], chis
    memo.cache_clear()
    for _ in range(2):
        for chis in calls:
            assert dirichlet._bernoulli_B1s(chis) == [expected[chi] for chi in chis], chis
            assert memo.cache_info().currsize <= LAMBDA_MEMO_SIZE
    info = memo.cache_info()
    # warm calls read the memo, and evicted sides were built again
    assert info.maxsize == LAMBDA_MEMO_SIZE and info.currsize == LAMBDA_MEMO_SIZE
    assert info.hits > 0 and info.misses > len(sides)


def test_kronecker_character_on_a_multiple_of_its_modulus():
    for D, f in ((8, 16 * 13 * 29), (-4, 4 * 3 * 5), (5, 5 * 16), (-7, 7 * 9)):
        chi = kronecker_character(D, f)
        assert chi.modulus == f and chi.conductor() == abs(D)
        assert all(chi.value_exponent(a) in (0, 2) and (chi.value_exponent(a) == 0)
                   == (kronecker(D, a) == 1) for a in range(1, f) if math.gcd(a, f) == 1)
    with pytest.raises(DomainError):
        kronecker_character(8, 20)


def test_local_table_refuses_a_prime_power_past_the_cap():
    # a larger prime power would take a Python step per residue: minutes and GBs
    assert LOCAL_TABLE_CAP == 1 << 25
    for p, e in ((1000000007, 1), (5813, 2), (2, 26)):
        with pytest.raises(DomainError, match="LOCAL_TABLE_CAP"):
            dirichlet._local_table(p, e)


def test_one_code_table_per_prime_power():
    # unit_group keeps every modulus, and each holds its local groups, so the
    # per-prime-power memo keeps them all too: after 40 moduli p^2 with
    # distinct primes, 4 * 3^2 gets the very group of 3^2 built first, and
    # each of the 41 prime powers has its table built once
    primes = [p for p in range(3, 200, 2) if is_prime(p)][:40]
    first = unit_group(primes[0] ** 2)[0]
    for p in primes[1:]:
        unit_group(p * p)
    assert unit_group(4 * primes[0] ** 2)[1] is first
    assert dirichlet._local_table.cache_info().misses == len(primes) + 1
