"""CLI behavior: formats, exit codes, determinism."""

import concurrent.futures
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import magicfiber
from magicfiber import FiberedClass, dilatation_poly, unique_root_gt1
from magicfiber.cli import dyadic_decimal, main, round_decimal
from decimal import Decimal
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

    @pytest.mark.parametrize("tol", ["1e-12", "1e-1500"])
    def test_bracket_reads_back_exactly(self, tol):
        # at 1e-1500 the endpoints have about 5,000 digits, past the
        # interpreter's limit on int-to-str conversion
        code, out = run_cli("class", "1", "1", "0", "--tol", tol, "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        root = unique_root_gt1(dilatation_poly(FiberedClass(1, 1, 0)), Fraction(tol))
        got = tuple(Fraction(Decimal(row[key])) for key in ("lambda_lo", "lambda_hi"))
        assert got == (root.lo, root.hi)


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

    def test_asymp_bracket_negative_genus(self, capsys):
        code, out = run_cli("asymp", "bracket", "-g", "-1", "--m-range", "2..3")
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("-g", "-1", "--points", "10,100"),
            ("-q", "-1", "-v", "10", "--points=-5,-6"),
        ],
        ids=["genus", "points"],
    )
    def test_asymp_ratio_bad_input_starts_no_worker(self, argv, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a worker pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
        code, out = run_cli("asymp", "ratio", *argv, "--jobs", "2")
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


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
            ("asymp", "bracket", "--m-range", "2..12"),
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


def test_closed_pipe_exits_141_without_a_traceback():
    # about 330 kB, several times a pipe's buffer, so the writer is still
    # blocked when the reader goes
    env = {**os.environ, "PYTHONPATH": str(Path(magicfiber.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "magicfiber", "star", "--max", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"# magicfiber ")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv", [["bounds", "--help"], ["--version"]])
def test_help_to_a_closed_pipe_exits_141_quietly(argv):
    # The reader is gone before the child starts.  stdout is block-buffered,
    # as under a shell, so argparse's write succeeds and the flush fails.
    env = {**os.environ, "PYTHONPATH": str(Path(magicfiber.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "magicfiber", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == b""


def _limit_address_space():
    # runs in the child only: 1 GiB of address space
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, code",
    [
        # degree about 2**62: t**deg at t = 2 would not fit the 2**20-bit ceiling
        (["class", "4611686018427387904", "1", "0"], 3),
        # lambda - 1 is about 6e-29, far below tol
        (["asymp", "ratio", "-g", "2", "-q", "2", "-v", "4", "--points", str(10**30)], 0),
        # a near-tie with an exponent denominator of 10**12
        (["asymp", "bracket", "-g", "2", "--c1", "759987450781/1000000000000", "--m-range", "2..2"], 3),
        # the degree is past the float range, so there is no guessed start
        # cell, and the size guard refuses the path from (0, 0)
        (["asymp", "ratio", "-g", "2", "-q", "1e-20", "-v", "4", "--points", str(10**320)], 3),
        # n = q*m + v is past the float range, so the ratio guard refuses it
        # before any isolation
        (["asymp", "ratio", "-g", "2", "-q", "2", "-v", "4", "--points", str(10**320)], 3),
        (["asymp", "ratio", "-g", "2", "-q", "1e400", "-v", "0", "--points", "10"], 3),
        # the bracket's endpoints have about 5,000 decimal digits
        (["class", "1", "1", "0", "--tol", "1e-1500"], 0),
        # sweeps past the pool's task cap are refused before a task list exists
        (["bounds", "-g", "2", "-n", "3..100000000"], 3),
        (["asymp", "bracket", "--m-range", "2..100000000"], 3),
        # and so are row sweeps that never reach the pool
        (["star", "--max", "1000000000"], 3),
        (["family", "-g", "2", "--p-max", "100000000"], 3),
    ],
)
def test_extreme_inputs_finish_in_bounded_memory(argv, code):
    env = {**os.environ, "PYTHONPATH": str(Path(magicfiber.__file__).parents[1])}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "magicfiber", *argv],
        capture_output=True, text=True, env=env, timeout=20,
        preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 5, f"took {elapsed:.1f} s"


class TestFlagSets:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "-g", "2", "-n", "3..4", "--max-bits", "8"),
            ("star", "--tol", "1e-3"),
            ("class", "3", "1", "-2", "--jobs", "2"),
            # each asymp mode takes only its own flags
            ("asymp", "ratio", "--c1", "0.5", "--m-range", "2..3", "--points", "10"),
            ("asymp", "bracket", "-q", "7", "-v", "1", "--points", "5", "--m-range", "2..3"),
            ("asymp", "ratio", "--c1", "0.5", "--points", "10"),
            ("asymp", "bracket", "--points", "5", "--m-range", "2..3"),
            ("asymp", "bracket", "--tol", "1e-8", "--m-range", "2..3"),
        ],
    )
    def test_flag_not_applied_is_usage_error(self, argv):
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "mode, own, other",
        [
            ("bracket", ("--c1", "default: 0.9"), "--points"),
            ("ratio", ("--points", "default: 10,100,1000,10000"), "--c1"),
        ],
    )
    def test_mode_help_lists_its_own_flags_with_defaults(self, mode, own, other):
        code, out = run_cli("asymp", mode, "--help")
        text = " ".join(out.split())  # help wraps to the terminal width
        assert code == 0
        assert all(word in text for word in own)
        assert other not in text

    def test_echo_is_the_value_in_force(self):
        # star isolates nothing, asymp bracket's verdicts do not depend on a
        # tol, and the verify suites isolate at their own tols, so none of
        # them echoes a tolerance
        _, out = run_cli("star", "--max", "3", "--format", "json")
        assert json.loads(out)["tolerances"] == {}
        _, out = run_cli("asymp", "bracket", "--m-range", "2..3", "--format", "json")
        assert json.loads(out)["tolerances"] == {}
        _, out = run_cli("verify", "star", "--format", "json")
        assert json.loads(out)["tolerances"] == {}
        _, out = run_cli("class", "3", "1", "-2", "--tol", "1e-6", "--max-bits", "256",
                         "--format", "json")
        assert json.loads(out)["tolerances"] == {"tol": "1e-6", "max_bits": 256}
        # an asymp mode flag left out is echoed at its default
        _, out = run_cli("asymp", "ratio", "--points", "10", "--format", "json")
        assert json.loads(out)["inputs"] == {
            "mode": "ratio", "g": 2, "q": "2", "v": "4", "points": "10",
        }
        _, out = run_cli("asymp", "bracket", "--m-range", "2..3", "--format", "json")
        assert json.loads(out)["inputs"] == {
            "mode": "bracket", "g": 2, "c1": "0.9", "c2": "1.1", "m": "2..3",
        }


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

    def test_all_takes_no_other_suite_names(self, capsys):
        code, out = run_cli("verify", "all", "roots")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: 'all' takes no other suite names\n"
