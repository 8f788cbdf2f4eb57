import inspect
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from math import isclose, log

import numpy as np
import pytest

from tandemwalks import (
    RATIONAL_ALPHA,
    CountSequence,
    TandemModel,
    ValidationError,
    count_excursions,
    exponent_report,
    tandem_step_set,
)
from tandemwalks import cli as cli_module
from tandemwalks.cli import TABLE1_BALLOT_TRIPLES, run

from conftest import TABLE2_QUINTUPLES, coprime_triples


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_exact_csv(capsys):
    code, out, _ = cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "12")
    assert code == 0
    nonzero = {0: 1, 3: 1, 6: 5, 9: 42, 12: 462}
    expected = ["n,count"] + [f"{n},{nonzero.get(n, 0)}" for n in range(13)]
    assert out == "\n".join(expected) + "\n"


def test_enumerate_logfloat_csv(capsys):
    code, out, _ = cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "6",
                       "--mode", "logfloat")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,log_count"
    rows = dict(line.split(",") for line in lines[1:])
    assert float(rows["0"]) == 0.0
    assert float(rows["1"]) == float("-inf")
    assert isclose(float(rows["6"]), log(5), rel_tol=1e-12)


def test_enumerate_json(capsys):
    code, out, _ = cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "6",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "enumerate"
    assert doc["model"] == {"A": 1, "B": 1, "C": 1, "a": 1, "b": 1, "c": 1, "period": 3}
    assert doc["what"] == "excursions"
    assert doc["terms"] == [1, 0, 0, 1, 0, 0, 5]


def _reject_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


def test_enumerate_logfloat_json_zero_counts_are_null(capsys):
    code, out, _ = cli(capsys, "enumerate", "--model", "3,2,1", "--n-max", "3",
                       "--mode", "logfloat", "--format", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["schema_version"] == 1
    assert doc["terms"] == [0.0, None, None, None]


def test_emit_json_rejects_non_finite_floats(capsys, monkeypatch):
    nan_seq = CountSequence("logfloat", (0.0, float("nan")))
    monkeypatch.setattr(cli_module, "count_excursions", lambda *args: nan_seq)
    code, out, err = cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "1",
                         "--mode", "logfloat", "--format", "json")
    assert code == 3
    assert out == ""
    assert err.startswith("tandemwalks: internal error: ValueError: Out of range float values")


def test_enumerate_total_and_endpoint(capsys):
    code, out, _ = cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "7",
                       "--what", "total")
    assert code == 0
    assert out.splitlines()[1:] == [f"{n},{v}" for n, v in
                                    enumerate([1, 1, 2, 4, 9, 21, 51, 127])]

    code, out, _ = cli(capsys, "enumerate", "--model", "3,2,1", "--n-max", "4",
                       "--what", "endpoint", "--target", "3,0")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0", "1,1", "2,0", "3,0", "4,0"]


def test_enumerate_reruns_byte_identical(capsys):
    argv = ("enumerate", "--model", "3,2,1", "--n-max", "40", "--mode", "logfloat",
            "--what", "total")
    _, out1, _ = cli(capsys, *argv)
    _, out2, _ = cli(capsys, *argv)
    assert out1 == out2


def test_thread_count_does_not_change_output(capsys):
    base = ("enumerate", "--model", "3,2,1", "--n-max", "40", "--mode", "logfloat")
    _, out1, _ = cli(capsys, *base, "--threads", "1")
    _, out4, _ = cli(capsys, *base, "--threads", "4")
    assert out1 == out4


def test_exponent_text(capsys):
    code, out, _ = cli(capsys, "exponent", "--model", "3,2,1")
    assert code == 0
    assert "gamma^2 = 4/15" in out
    assert "verdict: not_dfinite_proven" in out
    assert "mu = " in out


def test_exponent_json(capsys):
    code, out, _ = cli(capsys, "exponent", "--model", "3,2,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["gamma_sq"] == "4/15"
    assert doc["verdict"] == "not_dfinite_proven"
    assert doc["alpha_exact"] is None
    rep = exponent_report(TandemModel(3, 2, 1))
    assert isclose(doc["alpha"], rep.alpha, rel_tol=1e-15)
    assert isclose(doc["mu"], rep.mu, rel_tol=1e-15)


def test_exponent_ballot_spelling_matches_tandem(capsys):
    _, out1, _ = cli(capsys, "exponent", "--model", "ballot:2,3,6", "--json")
    _, out2, _ = cli(capsys, "exponent", "--model", "3,2,1", "--json")
    assert out1 == out2


def test_table1(capsys):
    code, out, _ = cli(capsys, "table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,c,A,B,C,gamma_sq,alpha,alpha_closed_form,verdict"
    assert len(lines) == 16
    assert lines[1].startswith("1,1,1,1,1,1,1/4,-4,")
    assert lines[1].endswith("known_dfinite")
    for triple, line in zip(TABLE1_BALLOT_TRIPLES, lines[1:]):
        assert line.startswith("%d,%d,%d," % triple)
        assert line.endswith(("known_dfinite", "not_dfinite_proven", "unknown"))


def test_table2_default_bound(capsys):
    code, out, _ = cli(capsys, "table2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma_sq,A,B,C,alpha"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} <= {"1/4", "1/2", "3/4"}
    present = {(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows}
    for key, quintuple in TABLE2_QUINTUPLES.items():
        tag = f"{key.numerator}/{key.denominator}"
        for triple in quintuple:
            if max(triple) <= 50:
                assert (tag, *triple) in present
                assert (tag, *reversed(triple)) in present
    assert ("3/4", 4, 60, 15) not in present  # beyond the default bound


def test_classify(capsys):
    code, out, _ = cli(capsys, "classify", "--gamma-sq", "4/15", "--bound", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A,B,C,alpha"
    assert len(lines) == 3
    assert lines[1].startswith("1,2,3,")
    assert lines[2].startswith("3,2,1,")
    a1 = float(lines[1].split(",")[3])
    a2 = float(lines[2].split(",")[3])
    assert a1 == a2
    assert isclose(a1, -4.055556, abs_tol=1e-4)


def test_fit_csv(capsys):
    code, out, _ = cli(capsys, "fit", "--model", "1,1,1", "--m-max", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,alpha_hat"
    ms = [int(line.split(",")[0]) for line in lines[1:]]
    assert ms == list(range(2, 41))
    last = float(lines[-1].split(",")[1])
    assert -4.5 < last < -3.5


def test_fit_json_and_plot(capsys, tmp_path):
    plot = tmp_path / "chart.svg"
    code, out, _ = cli(capsys, "fit", "--model", "1,1,1", "--m-max", "60",
                       "--mode", "exact", "--format", "json", "--plot", str(plot))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["alpha_reference"] == -4.0
    assert doc["deviation"] < 0.01
    assert abs(doc["mu_final"] - 3.0) < 0.01
    assert 0 <= doc["level_used"] <= doc["metadata"]["richardson"]
    svg = plot.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert svg.rstrip().endswith("</svg>")


def test_guess_positive(capsys, tmp_path):
    seq = count_excursions(tandem_step_set(TandemModel(1, 1, 1)), 87)
    series = tmp_path / "series.csv"
    series.write_text("\n".join(str(seq.values[3 * m]) for m in range(30)) + "\n")
    code, out, _ = cli(capsys, "guess", "--series", str(series),
                       "--max-order", "3", "--max-degree", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["order"] == 1
    assert doc["degree"] == 2
    assert doc["coefficients"] == [["-6", "-27", "-27"], ["6", "5", "1"]]
    assert doc["searched_grid"][0] == [1, 0]
    assert doc["n_terms"] == 30


def test_guess_negative(capsys, tmp_path):
    series = tmp_path / "noise.csv"
    series.write_text("\n".join(str(7**k % 101) for k in range(30)) + "\n")
    code, out, _ = cli(capsys, "guess", "--series", str(series),
                       "--max-order", "2", "--max-degree", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["coefficients"] is None


def test_guess_rational_series(capsys, tmp_path):
    series = tmp_path / "halves.csv"
    series.write_text("1/2\n" * 13)
    code, out, _ = cli(capsys, "guess", "--series", str(series),
                       "--max-order", "1", "--max-degree", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [["-1"], ["1"]]


def test_guess_too_few_terms_exits_1(capsys, tmp_path):
    # the Motzkin numbers M_0..M_15 on a 2x1 grid: 18 terms are needed
    series = tmp_path / "motzkin.csv"
    series.write_text("\n".join(map(str, [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798,
                                          15511, 41835, 113634, 310572])))
    code, out, err = cli(capsys, "guess", "--series", str(series),
                         "--max-order", "2", "--max-degree", "1")
    assert (code, out) == (1, "")
    assert err == "tandemwalks: error: need at least 18 terms for the 2x1 grid, got 16\n"


def test_guess_bad_series_line(capsys, tmp_path):
    series = tmp_path / "bad.csv"
    series.write_text("1\n2\nthree\n")
    code, _, err = cli(capsys, "guess", "--series", str(series),
                       "--max-order", "1", "--max-degree", "0")
    assert code == 1
    assert "not an integer" in err


def test_exponent_notation_rejected_fast(capsys, tmp_path):
    # Fraction("1e-999999999") would build 10^999999999 before failing
    series = tmp_path / "exp.csv"
    series.write_text("1\n1e-999999999\n")
    t0 = time.perf_counter()
    code, _, err = cli(capsys, "guess", "--series", str(series),
                       "--max-order", "1", "--max-degree", "0")
    assert code == 1
    assert err == (f"tandemwalks: error: {series}:2: not an integer or num/den rational: "
                   "'1e-999999999'\n")
    code, _, err = cli(capsys, "classify", "--gamma-sq", "1e-999999999", "--bound", "5")
    assert code == 1
    assert "expected a fraction like 1/4, got '1e-999999999'" in err
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("text", ["1/0", "1e3", "1_000", "١", ".5", "1 / 4", "0x10", ""])
def test_rational_rejects_all_but_plain_forms(text):
    with pytest.raises(ValidationError, match="expected a fraction like 1/4"):
        cli_module._rational(text)


@pytest.mark.parametrize("text, value", [("7", 7), ("-3/4", Fraction(-3, 4)), ("+0.25", Fraction(1, 4)),
                                         (" 6/8 ", Fraction(3, 4))])
def test_rational_plain_forms(text, value):
    assert cli_module._rational(text) == value


def test_guess_non_utf8_series(capsys, tmp_path):
    series = tmp_path / "binary.csv"
    series.write_bytes(b"1\n\xff\xfe\x00\x81\n")
    code, out, err = cli(capsys, "guess", "--series", str(series),
                         "--max-order", "1", "--max-degree", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("tandemwalks: error: ")


def test_bijection_check(capsys):
    code, out, _ = cli(capsys, "bijection-check", "--ballot", "2,3,6", "--rounds", "2")
    assert code == 0
    assert out == "round 1: count 34 ok,mapped\nround 2: count 164622 ok\n"


def test_bijection_check_walk_cap(capsys):
    code, out, _ = cli(capsys, "bijection-check", "--ballot", "1,1,1", "--rounds", "3",
                       "--walk-cap", "4")
    assert code == 0
    assert out == "round 1: count 1 ok,mapped\nround 2: count 5 ok\nround 3: count 42 ok\n"


def test_bijection_check_walk_cap_is_inclusive(capsys):
    code, out, _ = cli(capsys, "bijection-check", "--ballot", "1,1,1", "--rounds", "3",
                       "--walk-cap", "42")
    assert code == 0
    assert out == "round 1: count 1 ok,mapped\nround 2: count 5 ok,mapped\nround 3: count 42 ok,mapped\n"


def test_output_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = cli(capsys, "enumerate", "--model", "2,2,1", "--n-max", "10",
                       "--output", str(path))
    assert code == 0
    assert out == ""
    _, direct, _ = cli(capsys, "enumerate", "--model", "2,2,1", "--n-max", "10")
    assert path.read_text() == direct


def test_exit_code_validation_errors(capsys, tmp_path):
    assert cli(capsys, "exponent", "--model", "2,4,6")[0] == 1       # gcd 2
    assert cli(capsys, "exponent", "--model", "1,1")[0] == 1         # not a triple
    assert cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "-3")[0] == 1
    assert cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "4",
               "--what", "endpoint")[0] == 1                         # missing --target
    assert cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "4",
               "--target", "1,1")[0] == 1                            # target w/o endpoint
    assert cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "4",
               "--output", str(tmp_path / "missing" / "x.csv"))[0] == 1
    assert cli(capsys, "table2", "--bound", "0")[0] == 1
    assert cli(capsys, "classify", "--gamma-sq", "1/0", "--bound", "5")[0] == 1
    assert cli(capsys, "fit", "--model", "1,1,1", "--m-max", "1")[0] == 1  # run too short
    assert cli(capsys, "nonsense")[0] == 1
    assert cli(capsys)[0] == 1
    assert cli(capsys, "enumerate", "--model", "1,1,1", "--n-max", "4", "--bogus")[0] == 1


def test_cached_parser_matches_fresh_processes(capsys, monkeypatch):
    # one process runs all three on the same parser; each must print what a
    # fresh process prints, a usage error in between included
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    src = str(Path(cli_module.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    runs = [["table1"], ["exponent", "--model", "3,2"],
            ["exponent", "--model", "3,2,1", "--json"]]
    for argv, expected_code in zip(runs, (0, 1, 0)):
        code, out, err = cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "tandemwalks", *argv],
                               capture_output=True, check=False)
        assert code == fresh.returncode == expected_code
        assert (out.encode(), err.encode()) == (fresh.stdout, fresh.stderr)


def test_exit_code_budget(capsys):
    code, _, err = cli(capsys, "enumerate", "--model", "3,2,1", "--n-max", "2000",
                       "--cell-budget", "100")
    assert code == 2
    assert "aborted" in err


def test_help_exits_zero(capsys):
    code, out, _ = cli(capsys, "--help")
    assert code == 0
    for name in ("enumerate", "exponent", "table1", "table2", "classify",
                 "fit", "guess", "bijection-check"):
        assert name in out


def test_subcommand_help_lists_flags(capsys):
    code, out, _ = cli(capsys, "enumerate", "--help")
    assert code == 0
    for flag in ("--model", "--what", "--n-max", "--mode", "--target",
                 "--format", "--output", "--cell-budget", "--threads"):
        assert flag in out
    code, out, _ = cli(capsys, "fit", "--help")
    assert code == 0
    for flag in ("--m-max", "--richardson", "--plot"):
        assert flag in out


def test_large_triples_exit_zero(capsys):
    # (9,153,136) is the first table2 model whose closed forms overflow integer powers
    code, out, _ = cli(capsys, "exponent", "--model", "9,153,136")
    assert code == 0
    assert "alpha = -5" in out
    code, out, _ = cli(capsys, "table2", "--bound", "160")
    assert code == 0
    assert "1/2,9,153,136,-5" in out.splitlines()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_huge_triples_get_answers(capsys):
    # a float gamma rounds to -1 at B = 10^20; entries above 10^308 overflow a float
    code, out, err = cli(capsys, "exponent", "--model", "1,100000000000000000000,1")
    assert (code, err) == (0, "")
    assert "rationality: irrational" in out
    big = str(10**400)
    for model in (f"1,{big},1", f"ballot:{big},1,1"):
        code, out, err = cli(capsys, "exponent", "--model", model, "--json")
        assert (code, err) == (0, "")
        doc = _strict_json(out)
        assert doc["alpha"] <= -3.0 and 1.0 <= doc["mu"] <= 3.0
    # the exponents no longer stop a fit before its budget does, not even
    # where alpha is below the float range
    for model in ("1,100000000000000000000,1", f"1,{10**620},1"):
        code, out, err = cli(capsys, "fit", "--model", model, "--m-max", "5")
        assert (code, out) == (2, "")
        assert err.startswith("tandemwalks: aborted: level sweep needs ")


@pytest.mark.parametrize("form", [(), ("--json",)])
def test_alpha_beyond_the_float_range_is_a_validation_error(capsys, form):
    # alpha is about -pi*sqrt(B/2) for A = C = 1: finite at B = 10^615, past
    # the float range at 10^620, and at 10^700 the scaled angle underflows to 0
    code, out, err = cli(capsys, "exponent", "--model", f"1,{10**615},1", *form)
    assert (code, err) == (0, "")
    if form:
        assert _strict_json(out)["alpha"] == -7.024814731308987e307
    else:
        assert "\nalpha = -7.0248147313089874e+307  [" in out
    for exp10 in (620, 700):
        code, out, err = cli(capsys, "exponent", "--model", f"1,{10**exp10},1", *form)
        assert (code, out) == (1, "")
        assert err.startswith("tandemwalks: error: alpha is below the float range")
        assert err.count("\n") == 1


def test_search_budget_aborts_at_once(capsys):
    t0 = time.perf_counter()
    code, out, err = cli(capsys, "classify", "--gamma-sq", "1/2", "--bound", "14143")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == "tandemwalks: aborted: triple search needs 200024449 pairs, budget is 200000000\n"
    assert cli(capsys, "table2", "--bound", "14143")[0] == 2


def test_table2_matches_a_brute_force_search(capsys):
    code, out, _ = cli(capsys, "table2", "--bound", "60")
    assert code == 0
    lines = ["gamma_sq,A,B,C,alpha"]
    for r, alpha in RATIONAL_ALPHA.items():
        lines += [
            f"{r.numerator}/{r.denominator},{A},{B},{C},{float(alpha):.17g}"
            for A, B, C in coprime_triples(60)
            if B * B * r.denominator == (A + B) * (B + C) * r.numerator
        ]
    assert out == "\n".join(lines) + "\n"


# valid arguments of every subcommand; a new subcommand must be added here
_VALID_ARGS = {
    "enumerate": ["--model", "1,1,1", "--n-max", "1"],
    "exponent": ["--model", "1,1,1"],
    "table1": [],
    "table2": [],
    "classify": ["--gamma-sq", "1/4", "--bound", "1"],
    "fit": ["--model", "1,1,1", "--m-max", "1"],
    "guess": ["--series", "series.csv", "--max-order", "1", "--max-degree", "0"],
    "bijection-check": ["--ballot", "1,1,1", "--rounds", "1"],
}


@pytest.mark.parametrize("command", sorted(cli_module._COMMANDS))
def test_exit_code_internal_error(capsys, monkeypatch, command):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli_module._COMMANDS, command, broken)
    code, out, err = cli(capsys, command, *_VALID_ARGS[command])
    assert code == 3
    assert out == ""
    assert err == "tandemwalks: internal error: RuntimeError: boom\n"


def test_bijection_check_count_mismatch_exit_code(capsys, monkeypatch):
    real = cli_module.count_ballot_3d

    def off_by_one(m, rounds_max):
        seq = real(m, rounds_max)
        return replace(seq, values=seq.values[:-1] + (seq.values[-1] + 1,))

    monkeypatch.setattr(cli_module, "count_ballot_3d", off_by_one)
    code, out, err = cli(capsys, "bijection-check", "--ballot", "2,3,6", "--rounds", "2")
    assert code == 4
    assert out == ""
    assert err == (
        "tandemwalks: check failed: count mismatch at round 2: "
        "3d gives 164623, 2d gives 164622\n"
    )


def test_bijection_check_walk_mismatch_exit_code(capsys, monkeypatch):
    # every 3D walk mapped to one image: the walk-level check must fail
    monkeypatch.setattr(cli_module, "map_walk_3to2",
                        lambda words: np.full((len(words), 1), ord("R"), dtype=np.uint8))
    code, out, err = cli(capsys, "bijection-check", "--ballot", "2,3,6", "--rounds", "1")
    assert code == 4
    assert out == ""
    assert err == (
        "tandemwalks: check failed: walk-level bijection failed at round 1: "
        "34 walks, 1 distinct images, count 34\n"
    )


def test_bijection_check_image_leaves_quadrant_exit_code(capsys, monkeypatch):
    # a map that reads the word backwards sends a cone walk out of the quadrant
    real = cli_module.map_walk_3to2
    monkeypatch.setattr(cli_module, "map_walk_3to2", lambda words: real(words)[:, ::-1])
    code, out, err = cli(capsys, "bijection-check", "--ballot", "2,3,6", "--rounds", "1")
    assert code == 4
    assert out == ""
    assert err == (
        "tandemwalks: check failed: walk-level bijection failed at round 1: "
        "prefix of length 1 leaves the quadrant at (0, -1)\n"
    )


def test_bijection_check_image_not_an_excursion_exit_code(capsys, monkeypatch):
    # dropping each word's last letter is injective and stays in the quadrant,
    # but the images no longer end at the origin
    real = cli_module.map_walk_3to2
    monkeypatch.setattr(cli_module, "map_walk_3to2", lambda words: real(words)[:, :-1])
    code, out, err = cli(capsys, "bijection-check", "--ballot", "1,1,1", "--rounds", "3")
    assert code == 4
    assert out == ""
    assert err == (
        "tandemwalks: check failed: walk-level bijection failed at round 1: "
        "image RD ends at (0, 1), not the origin\n"
    )


def test_bijection_check_walk_outside_the_cone_exit_code(capsys, monkeypatch):
    # a generator that swaps the first two letters of its last walk starts it
    # with Y, which leaves the cone at once
    real = cli_module.generate_ballot_walks

    def swapped_start(m, rounds):
        words = real(m, rounds)
        words[-1, :2] = words[-1, 1::-1].copy()
        return words

    monkeypatch.setattr(cli_module, "generate_ballot_walks", swapped_start)
    code, out, err = cli(capsys, "bijection-check", "--ballot", "1,1,1", "--rounds", "2")
    assert code == 4
    assert out == ""
    assert err == (
        "tandemwalks: check failed: walk-level bijection failed at round 1: "
        "prefix of length 1 leaves the cone at (0, 1, 0)\n"
    )


def test_bijection_check_budget_abort_skips_the_cone_sweep(capsys, monkeypatch):
    def no_cone_sweep(*args):
        raise AssertionError("3D counts computed before the 2D budget check")

    monkeypatch.setattr(cli_module, "count_ballot_3d", no_cone_sweep)
    code, out, err = cli(capsys, "bijection-check", "--ballot", "1,1,1", "--rounds", "400")
    assert code == 2
    assert out == ""
    assert err.startswith("tandemwalks: aborted: level sweep needs ")


# the cli names that perfbench/layers.py wraps, with the parameters its
# classifiers read; a rename here silently zeroes the per-layer metrics
_TRACED = {
    "count_excursions": ("s", "n_max", "mode"),
    "count_endpoint": ("s", "n_max", "mode"),
    "count_walks_total": ("s", "n_max", "mode"),
    "count_ballot_3d": (),
    "generate_ballot_walks": (),
    "estimate_alpha": (),
    "exponent_report": (),
    "guess_recurrence": ("max_order", "max_degree"),
    "map_walk_3to2": (),
    "run": (),
}


@pytest.mark.parametrize("name", sorted(_TRACED))
def test_benchmark_traced_names_exist(name):
    fn = getattr(cli_module, name)
    params = inspect.signature(fn).parameters
    for param in _TRACED[name]:
        assert param in params, f"{name} lost parameter {param!r}"
