import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cmquartic import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_biquad_example(capsys):
    code, out = run_cli(capsys, "invariants", "biquad", "-a", "-21", "-b", "10",
                        "--with-class-number")
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "cmq/1"
    inv = record["payload"]["invariants"]
    assert inv["disc"]["value"] == "2822400"
    assert inv["disc"]["factors"] == [["2", "8"], ["3", "2"], ["5", "2"], ["7", "2"]]
    assert inv["class_number"] == "32"
    assert inv["hasse_q"] == "1"
    assert abs(float(inv["regulator"]["value"]) - 3.6368929) < 1e-6
    assert record["payload"]["maximal_real_subfield"] == "10"


def test_invariants_cyclic_example(capsys):
    code, out = run_cli(capsys, "invariants", "cyclic", "-s", "-3", "-t", "35",
                        "--with-class-number")
    assert code == 0
    record = json.loads(out)
    inv = record["payload"]["invariants"]
    assert inv["disc"]["factors"] == [["2", "11"], ["3", "2"], ["613", "3"]]
    assert inv["class_number"] == "19400"
    assert abs(float(inv["regulator"]["value"]) - 8.4973985) < 1e-6


def test_invariants_without_class_number(capsys):
    code, out = run_cli(capsys, "invariants", "cyclic", "-s", "-3", "-t", "35")
    assert code == 0
    assert json.loads(out)["payload"]["invariants"]["class_number"] is None


def test_invariants_zero_parameter_error(capsys):
    code, out = run_cli(capsys, "invariants", "cyclic", "-s", "0", "-t", "1")
    assert code == 2
    record = json.loads(out)
    assert record["error"]["code"] == "E_PARAM_ZERO"


def test_pair_cyclic(capsys):
    code, out = run_cli(capsys, "pair", "cyclic", "--t", "35", "--p", "1229")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["distinct"] and payload["disc_equal"] and payload["reg_equal"]
    assert payload["field_a"] == "K(-1229,35)"


def test_pair_inadmissible_prime(capsys):
    code, out = run_cli(capsys, "pair", "biquad", "--t", "5", "--p", "31")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "E_PRIME_INADMISSIBLE"


def test_family_inadmissible_t(capsys):
    code, out = run_cli(capsys, "family", "cyclic", "--t", "4", "--count", "1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "E_T_INADMISSIBLE"


def test_family_csv(capsys):
    code, out = run_cli(capsys, "family", "cyclic", "--t", "35", "--count", "5",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    assert list(rows[0]) == list(cli.CSV_FAMILY_COLUMNS)
    for row in rows:
        assert row["distinct"] == row["disc_equal"] == row["reg_equal"] == "true"
    assert [r["p"] for r in rows] == ["1229", "1231", "1237", "1249", "1259"]


def test_family_json_and_csv_information_equivalent(capsys):
    code, json_out = run_cli(capsys, "family", "biquad", "--t", "3", "--count", "2")
    assert code == 0
    # JSON stream: one record per pair, separated as complete documents
    docs = []
    decoder = json.JSONDecoder()
    rest = json_out.strip()
    while rest:
        doc, idx = decoder.raw_decode(rest)
        docs.append(doc)
        rest = rest[idx:].strip()
    assert len(docs) == 2
    code, csv_out = run_cli(capsys, "family", "biquad", "--t", "3", "--count", "2",
                            "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    for doc, row in zip(docs, rows):
        payload = doc["payload"]
        assert payload["p"] == row["p"]
        assert payload["disc"]["pretty"] == row["disc_factored"]
        assert payload["regulator"]["value"] == row["regulator"]
        assert str(payload["distinct"]).lower() == row["distinct"]
        assert str(payload["disc_equal"]).lower() == row["disc_equal"]
        assert str(payload["reg_equal"]).lower() == row["reg_equal"]


def test_sieve_command(capsys):
    code, out = run_cli(capsys, "sieve-t", "--min", "1", "--max", "100", "--mod8", "5")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["t_values"][:4] == ["5", "13", "21", "29"]
    code, out = run_cli(capsys, "sieve-t", "--min", "1", "--max", "100", "--mod8", "3")
    assert json.loads(out)["payload"]["t_values"][:4] == ["3", "11", "19", "27"]
    code, out = run_cli(capsys, "sieve-t", "--min", "50", "--max", "40", "--mod8", "3")
    assert code == 0
    assert json.loads(out)["payload"]["t_values"] == []


def test_target_regulator_command(capsys):
    code, out = run_cli(capsys, "target-regulator", "--M", "3", "--mod8", "5")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["t"] == "21"
    assert float(payload["regulator"]["value"]) > 3


def test_determinism_byte_identical(capsys):
    _, first = run_cli(capsys, "invariants", "cyclic", "-s", "-3", "-t", "35",
                       "--with-class-number")
    _, second = run_cli(capsys, "invariants", "cyclic", "-s", "-3", "-t", "35",
                        "--with-class-number")
    assert first == second
    _, fam1 = run_cli(capsys, "family", "cyclic", "--t", "3", "--count", "3")
    _, fam2 = run_cli(capsys, "family", "cyclic", "--t", "3", "--count", "3")
    assert fam1 == fam2


def test_target_regulator_rejects_non_finite_M(capsys):
    for M in ("nan", "inf"):
        code, out = run_cli(capsys, "target-regulator", "--M", M)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "E_DOMAIN"


def test_timings_flag_adds_field(capsys):
    _, out = run_cli(capsys, "invariants", "biquad", "-a", "-21", "-b", "10", "--timings")
    assert "timings" in json.loads(out)


def test_config_validation(capsys):
    code, out = run_cli(capsys, "invariants", "biquad", "-a", "-21", "-b", "10",
                        "--precision-bits", "32")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "E_CONFIG"


def test_verify_examples_passes(capsys):
    code, out = run_cli(capsys, "verify-examples")
    assert code == 0
    assert "all invariants match" in out
    assert out.count(" ok") >= 12


def test_verify_examples_lower_precision_still_passes(capsys):
    code, _ = run_cli(capsys, "verify-examples", "--precision-bits", "64")
    assert code == 0


def test_verify_examples_detects_injected_fault(capsys, monkeypatch):
    # both kinds share `cmfield.class_number`; the fault hits biquadratic fields only
    from cmquartic import biquadratic as bq
    from cmquartic import cmfield

    real = cmfield.class_number

    def corrupted(K):
        return real(K) + isinstance(K, bq.BiquadraticField)

    monkeypatch.setattr(cmfield, "class_number", corrupted)
    code, out = run_cli(capsys, "verify-examples")
    assert code == 1
    assert "MISMATCH" in out
    assert "class_number" in out


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # exit 1 means a verification mismatch; any other fault must exit 3
    from cmquartic import families

    def broken(*args):
        return 1 // 0

    monkeypatch.setattr(families, "sieve_t", broken)
    code, out = run_cli(capsys, "sieve-t", "--min", "1", "--max", "20", "--mod8", "5")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == "E_INTERNAL"
    assert error["message"].startswith("ZeroDivisionError")


@pytest.mark.parametrize("argv", [
    ("sieve-t", "--min", "1", "--max", "100", "--mod8", "3"),
    ("sieve-t", "--min", "1", "--max", "100", "--mod8", "3", "--format", "csv"),
    ("sieve-t", "--min", "0", "--max", "100", "--mod8", "3"),
], ids=["json", "csv", "domain-error"])
def test_a_closed_stdout_exits_3_without_a_traceback(argv):
    # the reader is gone before the command writes: neither the output nor an
    # error record can be written, and exit 1 would claim a verification mismatch
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cmquartic.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (3, "")


RECORD_FLAGS = {"--precision-bits", "--format", "--with-class-number", "--timings"}

#: subcommand path -> every option it accepts, besides -h
OPTION_SURFACE = {
    ("invariants", "biquad"): RECORD_FLAGS | {"-a", "-b"},
    ("invariants", "cyclic"): RECORD_FLAGS | {"-s", "-t"},
    ("pair",): RECORD_FLAGS | {"--t", "--p"},
    ("family",): RECORD_FLAGS | {"--jobs", "--t", "--count"},
    ("sieve-t",): {"--format", "--timings", "--min", "--max", "--mod8"},
    ("target-regulator",): {"--precision-bits", "--timings", "--M", "--mod8"},
    ("verify-examples",): {"--precision-bits"},
}


def _commands(parser, path=()):
    """(path, parser) of every leaf command under `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _commands(child, path + (name,))


def test_each_subcommand_accepts_exactly_the_flags_it_acts_on():
    surface = {path: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
               for path, p in _commands(cli.build_parser())}
    assert surface == OPTION_SURFACE


@pytest.mark.parametrize("argv", [
    ["target-regulator", "--M", "3", "--format", "csv"],
    ["sieve-t", "--min", "1", "--max", "20", "--mod8", "5", "--precision-bits", "128"],
    ["invariants", "biquad", "-a", "-21", "-b", "10", "-s", "3"],
    ["invariants", "biquad", "-a", "-21"],
    ["invariants", "cyclic", "-s", "-3"],
    ["verify-examples", "--jobs", "8"],
])
def test_a_flag_the_command_does_not_take_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["family", "cyclic", "--t", "5", "--count", "2", "--jobs", "0"],
    ["target-regulator", "--M", "3", "--precision-bits", "32"],
    ["verify-examples", "--precision-bits", "32"],
])
def test_config_errors_still_exit_2(argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "E_CONFIG"


def test_serializer_rejects_types_without_a_cmq1_form():
    assert cli._data((1, True, None, "x", (2,))) == ["1", True, None, "x", ["2"]]
    for value in (1.5, [1], {1, 2}, b"1"):
        with pytest.raises(TypeError):
            cli._data(value)


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("cmquartic ")]


def test_readme_cli_block_is_listed():
    assert len(_readme_cli_lines()) == 8


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(line, capsys):
    code, _ = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, line
