"""Tests of the benchmark itself (not of cmquartic).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import traced_cli  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
# cheap inputs from each pool, reaching every wrapped function between them
CHEAP_OPS = {
    "cyclic-pairs": [["cyclic", 5, 29], ["cyclic", 5, 31]],
    "biquad-pairs": [["biquad", 13, 173], ["biquad", 35, 1229]],
    "cli": [["sieve-t", "--min", "1000", "--max", "1199", "--mod8", "5"],
            ["target-regulator", "--M", "6.0", "--mod8", "5", "--precision-bits", "64"],
            ["family", "cyclic", "--t", "5", "--count", "2"],
            ["pair", "cyclic", "--t", "5", "--p", "29", "--format", "csv"]],
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    inner = tr.wrap("arith.is_prime", lambda: setattr(clock, "now", clock.now + 2.0))

    def outer_body():
        clock.now += 1.0
        inner()
        inner()
        clock.now += 0.5

    def sieve_t(t_min, t_max, residue):
        outer_body()

    outer = tr.wrap("families.sieve_t", sieve_t)
    outer(1, 8, residue=5)
    assert tr.calls["arith.is_prime"] == 2
    assert tr.self_s["arith.is_prime"] == pytest.approx(4.0)
    assert tr.incl_s["families.sieve_t"] == pytest.approx(5.5)
    assert tr.self_s["families.sieve_t"] == pytest.approx(1.5)
    assert tr.counters["sieve_candidates"] == 1


def test_slowdown_uses_the_samples_around_an_interval(monkeypatch):
    clock = FakeClock()
    cal = calibrate.Calibrator(clock=clock)
    speed = {"slowdown": 1.0}

    def kernel():
        clock.now += speed["slowdown"] * calibrate.REF_ITER_S
        return 0

    monkeypatch.setattr(calibrate, "kernel", kernel)
    for slowdown, op_s in ((2.0, 0.0), (3.0, 10.0), (4.0, 10.0)):
        clock.now += op_s
        speed["slowdown"] = slowdown
        cal.sample()
    # a sample runs for a tenth of the time since the previous one
    assert cal.ends[1] - cal.starts[1] == pytest.approx(1.0, abs=4 * calibrate.REF_ITER_S)
    assert cal.slowdown(cal.ends[0] + 1.0, cal.starts[1] - 1.0) == pytest.approx(2.5)
    assert cal.slowdown(cal.ends[1], cal.starts[2]) == pytest.approx(3.5)


def test_pools_and_rounds_are_deterministic():
    for wl in workloads.WORKLOADS:
        assert workloads.pool(wl) == workloads.pool(wl)
        first = list(itertools.islice(workloads.rounds(wl, 7), 5))
        assert first == list(itertools.islice(workloads.rounds(wl, 7), 5))
        assert first != list(itertools.islice(workloads.rounds(wl, 8), 5))
        assert all(len(r) == len(workloads.strata(wl)) for r in first)


def test_every_pool_input_has_a_reference():
    for wl in workloads.WORKLOADS:
        refs = verify.load_refs(wl)
        assert {workloads.op_key(op) for op in workloads.pool(wl)} == set(refs)


def _run_library(ops, traced):
    tr = tracer.Tracer() if traced else None
    if tr is not None:
        tr.install()
    try:
        outputs = []
        for op in ops:
            if tr is not None:
                tr.begin_op()
            outputs.append(json.dumps(workloads.LIBRARY_OPS[op[0]](*op[1:]), sort_keys=True))
    finally:
        if tr is not None:
            tr.uninstall()
    return outputs, tr


def _run_cli(argv, traced):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()) as err:
        if traced:
            code = traced_cli.main(argv)
        else:
            import cmquartic.cli
            code = cmquartic.cli.main(argv)
    assert code == 0
    state = json.loads(err.getvalue().strip().splitlines()[-1]) if traced else None
    return buf.getvalue(), state


@pytest.fixture(scope="module")
def traced_states():
    """Traced and untraced outputs of the cheap ops, plus the traced tracer states."""
    sys.path.insert(0, str(ROOT / "src"))
    out = {}
    for wl in ("cyclic-pairs", "biquad-pairs"):
        plain, _ = _run_library(CHEAP_OPS[wl], traced=False)
        traced, tr = _run_library(CHEAP_OPS[wl], traced=True)
        out[wl] = (plain, traced, [tr.state()])
    plain, traced, states = [], [], []
    for argv in CHEAP_OPS["cli"]:
        plain.append(_run_cli(argv, traced=False)[0])
        stdout, state = _run_cli(argv, traced=True)
        traced.append(stdout)
        states.append(state)
    out["cli"] = (plain, traced, states)
    return out


def test_traced_and_untraced_outputs_are_byte_identical(traced_states):
    for wl, (plain, traced, _) in traced_states.items():
        assert plain == traced, wl


def test_every_wrapped_function_is_called(traced_states):
    merged = tracer.merge_states([s for _, _, states in traced_states.values() for s in states])
    missed = [k for k in tracer.function_keys() if merged["calls"][k] == 0]
    assert missed == []


def test_uninstall_restores_the_package():
    import cmquartic.families as families
    import cmquartic.arith as arith

    before = (families.is_prime, arith.factor)
    tr = tracer.Tracer()
    tr.install()
    assert families.is_prime is not before[0] and families.is_prime.__wrapped__ is before[0]
    tr.uninstall()
    assert (families.is_prime, arith.factor) == before


def test_useful_fraction_counts_distinct_arguments_per_op(traced_states):
    _, _, states = traced_states["cyclic-pairs"]
    layer = tracer.layer_metrics(tracer.merge_states(states), 0.0)
    # each pair computes B1 of two characters twice over
    assert layer["dirichlet.bernoulli_B1.useful_frac"][0] == pytest.approx(0.5)


def test_reference_comparison_honours_error_bounds():
    real = {"value": "1.000", "error_bound": "0.001", "precision_bits": 64}
    assert verify.compare(dict(real, value="1.0015"), real) == []
    assert verify.compare(dict(real, value="1.0025"), real) != []
    assert verify.compare({"h": "32"}, {"h": "33"}) != []


def test_numpy_sieve_matches_trial_division():
    expected = [t for t in range(5, 2000, 8)
                if all((t * t + 1) % (q * q) for q in range(2, t + 1))]
    assert verify.numpy_sieve(1, 1999, 5) == expected


def test_tail_percentile_leaves_ten_ops_beyond():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1) == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1) == "unchanged"
    noisy = [1.0, 2.0, 0.5, 1.5, 1.0, 0.7, 1.8, 0.6, 1.2, 1.1]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
