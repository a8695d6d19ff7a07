"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with -s to see them) and
enforces the stated tolerances and runtime budgets exactly.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import mpmath
import pytest

from cmquartic import cli
from cmquartic.arith import is_squarefree
from cmquartic.cyclic_quartic import (
    discriminant as cyclic_discriminant,
    hsw_discriminant,
    relative_class_number,
    same_field,
    two_adic_distinctness,
)
from cmquartic.dirichlet import DirichletCharacter, bernoulli_B1
from cmquartic.errors import DomainError
from cmquartic.families import (
    biquadratic_family,
    biquadratic_pair_report,
    cyclic_family,
    cyclic_pair_report,
    dedekind_residue,
    same_regulator_family,
)
from cmquartic import biquadratic as bq
from cmquartic import cyclic_quartic as cq
from cmquartic.quadratic import (
    analytic_class_number_oracle,
    class_number_imaginary,
    class_number_real,
    fundamental_unit,
    is_fundamental_discriminant,
    quadratic_field,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def _cli_invariants(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["payload"]["invariants"]


def test_criterion_1_example_biquadratic(capsys):
    with criterion(1, "biquadratic example pair: disc 2822400, reg 3.6368929, h 32", 1.0):
        for a in ("-21", "-42"):
            inv = _cli_invariants(capsys, "invariants", "biquad", "-a", a, "-b", "10",
                                  "--with-class-number")
            assert inv["disc"]["value"] == "2822400"
            assert inv["disc"]["factors"] == [["2", "8"], ["3", "2"], ["5", "2"], ["7", "2"]]
            assert abs(float(inv["regulator"]["value"]) - 3.6368929) <= 1e-6
            assert inv["class_number"] == "32"


def test_criterion_2_example_cyclic(capsys):
    with criterion(2, "cyclic example pair: disc 2^11*3^2*613^3, reg 8.4973985, h 19400", 10.0):
        for s in ("-3", "-6"):
            inv = _cli_invariants(capsys, "invariants", "cyclic", "-s", s, "-t", "35",
                                  "--with-class-number")
            assert inv["disc"]["factors"] == [["2", "11"], ["3", "2"], ["613", "3"]]
            assert abs(float(inv["regulator"]["value"]) - 8.4973985) <= 1e-6
            assert inv["class_number"] == "19400"
            assert 19400 == 2**3 * 5**2 * 97


def test_criterion_3_biquadratic_pair_property():
    with criterion(3, "biquadratic pairs for t in {3,5,13}, 20 primes each: all flags, exact regulator", 5.0):
        for t in (3, 5, 13):
            with mpmath.workprec(144):
                ref = 2 * mpmath.log(t + mpmath.sqrt(t * t + 1))
            reports = biquadratic_family(t, 20)
            assert len(reports) == 20
            for rep in reports:
                assert rep.distinct and rep.disc_equal and rep.reg_equal
                assert rep.regulator.value == ref


def test_criterion_4_cyclic_pair_property():
    with criterion(4, "cyclic pairs for t in {3,5,35}, 10 primes each: all flags, 2-exp 11, p-exp 2", 5.0):
        for t in (3, 5, 35):
            reports = cyclic_family(t, 10)
            assert len(reports) == 10
            for rep in reports:
                assert rep.distinct and rep.disc_equal and rep.reg_equal
                assert rep.disc.exponent(2) == 11
                assert rep.disc.exponent(rep.p) == 2


def test_criterion_5_same_regulator_families():
    with criterion(5, "families of >= 10 distinct fields with one shared regulator", 5.0):
        fam = same_regulator_family("biquadratic", 5, 10)
        assert len(set(fam.fields)) == 10
        fam = same_regulator_family("cyclic", 3, 10)
        assert len(set(fam.fields)) == 10
        discs = [cyclic_discriminant(cq.CyclicQuarticField(-p, 3)).value() for p in fam.primes]
        assert len(set(discs)) == 10


def test_criterion_6_class_number_cross_validation():
    with criterion(6, "combinatorial vs analytic class numbers for all fundamental |D| <= 2000", 30.0):
        checked = 0
        for D in range(-2000, 2001):
            if D == 0 or not is_fundamental_discriminant(D):
                continue
            checked += 1
            expected = class_number_imaginary(D) if D < 0 else class_number_real(D)
            assert analytic_class_number_oracle(D) == expected, D
        assert checked >= 1200


def test_criterion_7_unit_and_parity_sweep():
    with criterion(7, "units t+sqrt(t^2+1) (norm -1) and even class numbers for odd t <= 301", 30.0):
        checked = 0
        for t in range(1, 302, 2):
            m = t * t + 1
            if not is_squarefree(m):
                continue
            checked += 1
            u = fundamental_unit(quadratic_field(m))
            assert (u.x, u.y, u.denom, u.norm) == (t, 1, 1, -1), t
            if t > 1 and m != 2:
                assert class_number_real(4 * m) % 2 == 0, t
        assert checked > 100


def test_criterion_8_relative_class_number_sanity():
    with criterion(8, "odd quartic character mod 5 with Q=1, w=10 gives h- = 1", 1.0):
        chi = DirichletCharacter(5, (1,))
        assert chi.order == 4 and chi.is_odd()
        b1 = bernoulli_B1(chi)
        assert relative_class_number((b1, b1.conjugate()), 1, 10) == 1


def test_criterion_9_residue_cross_check():
    with criterion(9, "zeta residues of both example pairs agree to >= 30 bits", 1.0):
        inv_a = bq.field_invariants(bq.biquadratic(-21, 10), 128, with_class_number=True)
        inv_b = bq.field_invariants(bq.biquadratic(-42, 10), 128, with_class_number=True)
        res_a = dedekind_residue(inv_a, 128)
        res_b = dedekind_residue(inv_b, 128)
        assert res_a.agrees_with(res_b, 30)
        inv_a = cq.field_invariants(cq.CyclicQuarticField(-3, 35), 128, with_class_number=True)
        inv_b = cq.field_invariants(cq.CyclicQuarticField(-6, 35), 128, with_class_number=True)
        res_a = dedekind_residue(inv_a, 128)
        res_b = dedekind_residue(inv_b, 128)
        assert res_a.agrees_with(res_b, 30)


def test_criterion_10_negative_controls():
    with criterion(10, "negative controls: doubled-s distinctness, 2-adic escape, bad congruences", 1.0):
        assert same_field(-3, -6, 35) is False
        assert two_adic_distinctness(7) is False
        with pytest.raises(DomainError):
            hsw_discriminant(1, 1, 1)
        with pytest.raises(DomainError):
            hsw_discriminant(3, 5, 7)


def test_criterion_11_large_cyclic_pair_class_numbers(capsys):
    with criterion(11, "cyclic pair t=35, p=1229 (f = 12,054,032): h 2917160 and 3813800", 10.0):
        code = cli.main(["pair", "cyclic", "--t", "35", "--p", "1229", "--with-class-number"])
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert code == 0
        assert (payload["field_a"], payload["field_b"]) == ("K(-1229,35)", "K(-2458,35)")
        assert (payload["class_a"], payload["class_b"]) == ("2917160", "3813800")
        assert payload["distinct"] and payload["disc_equal"] and payload["reg_equal"]


SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"


def _fresh_cli(argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stdout and peak RSS in MB of one fresh `python -m cmquartic.cli` process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen([sys.executable, "-m", "cmquartic.cli", *argv],
                                stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        out.seek(0)
        peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
        return os.waitstatus_to_exitcode(status), out.read().decode(), peak_mb


@pytest.mark.parametrize("t, p, golden, seconds, megabytes", [
    (101, 10303, "pair_cyclic_t101_p10303_h_json", 5.0, 100),
    (5, 1000003, "pair_cyclic_p1000003_h_json", 3.0, 150),
], ids=["t101_p10303", "t5_p1000003"])
def test_criterion_12_large_conductor_pairs_in_bounded_time_and_memory(t, p, golden, seconds,
                                                                      megabytes):
    # one fresh process per pair, so its peak resident set is its own
    argv = ["pair", "cyclic", "--t", str(t), "--p", str(p), "--with-class-number"]
    f = 8 * p * (t * t + 1)
    with criterion(12, f"cyclic pair t={t}, p={p} (f = {f:,}) as golden, "
                       f"under {megabytes} MB peak RSS", seconds):
        code, out, peak_mb = _fresh_cli(argv)
        assert code == 0
        assert out == (GOLDEN / f"{golden}.stdout").read_text()
        assert peak_mb < megabytes, f"peak RSS {peak_mb:.1f} MB"


def test_criterion_13_large_biquadratic_pair_in_bounded_time_and_memory():
    # |D| = 420,852,904 for the product subfield: its O(|D|) form count took
    # about 5 s on a 2-vCPU Xeon VM, the B1 kernel takes well under a second
    argv = ["pair", "biquad", "--t", "101", "--p", "10313", "--with-class-number"]
    with criterion(13, "biquadratic pair t=101, p=10313 as golden, under 60 MB peak RSS", 2.0):
        code, out, peak_mb = _fresh_cli(argv)
        assert code == 0
        assert out == (GOLDEN / "pair_biquad_t101_p10313_h_json.stdout").read_text()
        assert peak_mb < 60, f"peak RSS {peak_mb:.1f} MB"


def test_criterion_14_sieve_window_in_bounded_time_and_memory():
    # one trial-division factorization per t took about 19 s on a 2-vCPU Xeon
    # VM; the window sieve takes well under a second
    argv = ["sieve-t", "--min", "1", "--max", "200000", "--mod8", "5"]
    with criterion(14, "sieve-t on [1, 200000], t = 5 (mod 8): 22,364 values, "
                       "under 60 MB peak RSS", 2.0):
        code, out, peak_mb = _fresh_cli(argv)
        assert code == 0
        t_values = [int(t) for t in json.loads(out)["payload"]["t_values"]]
        assert (len(t_values), sum(t_values)) == (22_364, 2_236_356_244)
        # t^2+1 = 2*13*10301^2 and 2*5*53353^2: squares above the cube-root bound
        assert 52_525 not in t_values and 168_717 not in t_values
        assert peak_mb < 60, f"peak RSS {peak_mb:.1f} MB"
