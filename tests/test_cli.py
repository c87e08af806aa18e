"""CLI behavior: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import magicfiber
from magicfiber.cli import dyadic_decimal, main, round_decimal
from fractions import Fraction


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestSerialization:
    def test_dyadic_decimal_exact(self):
        assert dyadic_decimal(Fraction(1, 4)) == "0.25"
        assert dyadic_decimal(Fraction(-3, 8)) == "-0.375"
        assert dyadic_decimal(Fraction(7)) == "7"
        assert dyadic_decimal(Fraction(3, 2)) == "1.5"

    def test_round_decimal(self):
        assert round_decimal(Fraction(1, 3), 4) == "0.3333"
        assert round_decimal(Fraction(-1, 3), 4) == "-0.3333"
        assert round_decimal(Fraction(2), 4) == "2"

    def test_dyadic_decimal_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            dyadic_decimal(Fraction(1, 3))


class TestClassCommand:
    def test_full_output(self):
        code, out = run_cli("class", "3", "1", "-2")
        assert code == 0
        assert "t^6 - t^5 - 2*t^3 - t + 1" in out
        assert "genus" in out and "1.7220838" in out

    def test_out_of_cone_exit_2(self):
        code, out = run_cli("class", "1", "0", "0")
        assert code == 2
        assert "norm" in out  # partial output still emitted

    def test_norm_only_exit_0(self):
        code, out = run_cli("class", "1", "0", "0", "--norm-only")
        assert code == 0
        code, out = run_cli("class", "0", "0", "0", "--norm-only")
        assert code == 0

    def test_zero_class_exit_2(self):
        code, _ = run_cli("class", "0", "0", "0")
        assert code == 2

    def test_json_root_bracket_present(self):
        code, out = run_cli("class", "3", "1", "-2", "--format", "json")
        rec = json.loads(out)
        assert rec["schema_version"] == "1"
        row = rec["rows"][0]
        assert row["lambda_lo"].startswith("1.72")
        assert row["lambda_hi"].startswith("1.72")

    def test_precision_ceiling_exit_3(self):
        code, _ = run_cli("class", "3", "1", "-2", "--tol", "1/100000000000000000000000000000000000000000000000000",
                          "--max-bits", "128")
        assert code == 3


class TestUsageErrors:
    def test_unknown_command(self):
        code, _ = run_cli("frobnicate")
        assert code == 2

    def test_bad_tol(self):
        code, _ = run_cli("class", "3", "1", "-2", "--tol", "zero")
        assert code == 2

    def test_bad_range(self):
        code, _ = run_cli("bounds", "-g", "2", "-n", "9..3")
        assert code == 2

    def test_bounds_genus_too_small(self):
        code, _ = run_cli("bounds", "-g", "1", "-n", "3..5")
        assert code == 2


class TestStarCommand:
    def test_g7_witness(self):
        code, out = run_cli("star", "--max", "10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "g,holds,witness_s"
        assert "7,false,5" in lines
        assert "4,true," in lines


class TestBoundsCommand:
    def test_plain_header_contains_volume(self):
        code, out = run_cli("bounds", "-g", "2", "-n", "3..6")
        assert code == 0
        assert "5.3334" in out

    def test_csv_columns(self):
        code, out = run_cli("bounds", "-g", "2", "-n", "8", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,status,witness_p,filled,pruned_p,lambda_lo,lambda_hi,lambda"
        assert lines[1].startswith("8,ok,3,")

    def test_no_witness_rows_emitted(self):
        code, out = run_cli("bounds", "-g", "7", "-n", "5..6", "--format", "csv")
        assert code == 0
        assert out.count("no_witness") == 2


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("class", "3", "1", "-2"),
            ("family", "-g", "2", "--p-max", "4"),
            ("bounds", "-g", "2", "-n", "3..10"),
            ("star", "--max", "12"),
            ("asymp", "ratio", "--points", "10,20", "--tol", "1e-8"),
            ("asymp", "bracket", "--m-range", "2..12", "--tol", "1e-8"),
        ],
    )
    def test_round_trip(self, argv):
        code, out = run_cli(*argv, "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "-g", "2", "-n", "3..40", "--format", "csv"),
            ("asymp", "bracket", "--m-range", "2..40", "--format", "json"),
            ("asymp", "ratio", "--points", "10,40,90", "--format", "csv"),
        ],
    )
    def test_jobs_do_not_change_bytes(self, argv):
        code1, out1 = run_cli(*argv, "--jobs", "1")
        code8, out8 = run_cli(*argv, "--jobs", "8")
        assert code1 == code8 == 0
        assert out1 == out8


class TestJobsValidation:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv", [("bounds", "-g", "2", "-n", "3..5"), ("verify", "roots")]
    )
    def test_jobs_below_one_is_usage_error(self, argv, jobs):
        code, out = run_cli(*argv, "--jobs", jobs)
        assert code == 2
        assert out == ""


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ("asymp", "bracket", "--c1", "1/0", "--m-range", "2..3"),
            ("asymp", "ratio", "-q", "1/0", "--points", "10"),
            ("class", "3", "1", "-2", "--tol", "1/0"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, argv):
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("class", "3", "1", "-2", "--max-bits", "0"),
            ("class", "3", "1", "-2", "--max-bits", "-5"),
            ("family", "-g", "2", "--p-max", "-1"),
            ("star", "--max", "1"),
            ("star", "--max", "-3"),
        ],
    )
    def test_int_flag_below_its_least_value_is_usage_error(self, argv):
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""


class TestHugeExponentDenominator:
    @pytest.mark.parametrize(
        "c1, m_range",
        [("1/1000000000000", "2..2"), ("1/1000000000000", "2..50"), ("1e-400", "2..50")],
    )
    def test_fails_fast_with_the_verdicts_of_a_small_one(self, c1, m_range):
        # c1 = 1/b once meant powers t^(b m); run in a child process so that a
        # hang fails the test instead of stalling the suite
        argv = ["asymp", "bracket", "-g", "2", "--m-range", m_range, "--format", "json"]
        env = {**os.environ, "PYTHONPATH": str(Path(magicfiber.__file__).parents[1])}
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "magicfiber", *argv, "--c1", c1],
            capture_output=True, text=True, env=env, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 10, f"took {elapsed:.1f} s"
        code, out = run_cli(*argv, "--c1", "1/1000")
        assert code == 0
        rows = [json.loads(text)["rows"][0] for text in (proc.stdout, out)]
        assert rows[0]["failures"] == rows[1]["failures"]

    @pytest.mark.parametrize("c1", ["759987450781/1000000000000", "0.75998745"])
    def test_near_tie_fails_fast_with_exit_3(self, c1):
        # c1 within about 1e-8 of m ln(lambda_m) / ln m at m = 2: the float
        # logs cannot decide, and the exact powers would be far too large
        argv = ["asymp", "bracket", "-g", "2", "--m-range", "2..2", "--c1", c1]
        env = {**os.environ, "PYTHONPATH": str(Path(magicfiber.__file__).parents[1])}
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "magicfiber", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 3, proc.stderr
        assert elapsed < 10, f"took {elapsed:.1f} s"
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")


class TestFlagSets:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "-g", "2", "-n", "3..4", "--max-bits", "8"),
            ("star", "--tol", "1e-3"),
            ("class", "3", "1", "-2", "--jobs", "2"),
        ],
    )
    def test_flag_not_applied_is_usage_error(self, argv):
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""

    def test_echo_is_the_value_in_force(self):
        # star isolates nothing and the verify suites isolate at their own
        # tols, so neither echoes a tolerance
        _, out = run_cli("star", "--max", "3", "--format", "json")
        assert json.loads(out)["tolerances"] == {}
        _, out = run_cli("verify", "star", "--format", "json")
        assert json.loads(out)["tolerances"] == {}
        _, out = run_cli("class", "3", "1", "-2", "--tol", "1e-6", "--max-bits", "256",
                         "--format", "json")
        assert json.loads(out)["tolerances"] == {"tol": "1e-6", "max_bits": 256}


class TestVerifyCommand:
    def test_selected_fast_suites(self):
        code, out = run_cli("verify", "roots", "identity")
        assert code == 0
        assert "roots" in out and "identity" in out

    def test_output_is_reproducible(self):
        first = run_cli("verify", "roots", "identity", "--format", "json")
        assert first[0] == 0
        assert run_cli("verify", "roots", "identity", "--format", "json") == first

    def test_unknown_suite(self):
        code, _ = run_cli("verify", "nonsense")
        assert code == 2
