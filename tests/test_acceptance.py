"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7 checks the asymptotic trend of the paper's family
(p+g+1, 2p+1, p-g) at g = 2, whose dilatation lambda_p is the root above 1
of t^(2p+6) - t^(2p+1) - 2t^(p+3) - t^5 + 1.  The paper proves that the
normalized ratio n*log(lambda_p)/log(n), n = 2p+4, tends to 2; it says
nothing about the side or the speed.

The original target, fixed before anything was computed, was: ratios
decreasing into (2.0, 2.4) by p = 10^4, and the two-sided bracket
m^(0.9/m) < lambda_m < m^(1.1/m) holding from some M0 <= 2000.  The
certified computation refutes both parts.  The ratios at p = 10, 100, 1000,
10^4 are 0.91088, 1.03177, 1.18295, 1.29925: they rise toward 2 from below.
The narrow bracket fails at every m in [2, 2000].  mpmath at 60 digits, by
plain bisection on the polynomial above, gives the same four ratios to 10
digits, and 1.38640, 1.45344 at p = 10^5, 10^6.

The expansion explains both.  Put lambda = 1 + w/p.  Then t^(2p) ~ e^(2w),
t^p ~ e^w and t^(2g+1) - 1 ~ (2g+1)w/p, so the two dominant terms balance
when w*e^w ~ 2p/(2g+1), i.e.

    w = w0 + o(1),   w0 = ln p - ln ln p - ln((2g+1)/2),

and the ratio is (2p+4)*log(1 + w/p)/ln n ~ 2w/ln n.  Since w0 < ln p, the
ratio sits below 2 and rises toward it as ln ln p / ln p -> 0.

* Window at p = 10^4.  Upper end 2*ln(p)/ln(n) (~1.860): to first order
  the ratio is 2w/ln n, and w < ln p (the root lies below p^(1/p); see
  the upper side of the brackets below).  The correction
  (2p+4)*log(1 + w/p) - 2w = w*(4 - w)/p + O(w^3/p^2) is about -0.002
  here, far inside the gap.  Lower end 2*w0/ln(n) (~1.2266).  This
  end is not proved: neither the paper nor the code settles the sign of
  the o(1) remainder.  It rests on the mpmath figures, w - w0 = 0.36 at
  p = 10^4 and 0.27 at p = 10^6, positive and shrinking.  They agree with
  the balance equation: its solution W(2p/5) (Lambert W) exceeds
  ln(2p/5) - ln ln(2p/5) >= w0, and lies within 0.002 of w at p = 10^4;
  the gap between the two is not bounded here.
* Brackets.  The upper side m^(c2/m) with c2 > 1 always holds, because
  w < ln m.  The lower side needs w/ln m > c1.  For c1 = 0.9 that first
  holds near ln m ~ 50, so the narrow (0.9, 1.1) bracket must fail on the
  whole desk-scale range [2, 2000].  For c1 = 0.5 it holds near ln m ~ 5,
  so the (0.5, 2.0) bracket (the pair of the README example and of
  `verify asymp`) has its threshold M0 <= 2000, the original form of the
  target.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

from magicfiber import b_family, bracket_check, ratio_table, verify
from magicfiber.cli import main as cli_main


def _report(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget: {elapsed:.2f}s"
    print(f"ACCEPTANCE criterion {num} PASS ({label}, {elapsed:.2f}s)")


# Criteria 1-6 run the `verify` suites; the tests add budgets and sweep guards.


def test_criterion_1_root_regression():
    t0 = time.perf_counter()
    result = verify.suite_roots()
    assert result.passed, result.detail
    _report(1, "root regressions", t0, 1.0)


def test_criterion_2_polynomial_identity():
    t0 = time.perf_counter()
    result = verify.suite_identity()
    assert result.passed, result.detail
    assert result.counts["pairs"] == 2601
    _report(2, "2601 identities", t0, 5.0)


def test_criterion_3_topology_oracle():
    t0 = time.perf_counter()
    result = verify.suite_topology()
    assert result.passed, result.detail
    swept, pairs = result.counts["classes"], result.counts["pairs"]
    assert swept == 58_853  # exact, so that a faster sweep cannot quietly shrink
    assert pairs == 3_021
    _report(3, f"{swept} classes, {pairs} family pairs", t0, 30.0)


def test_criterion_4_root_count_property():
    t0 = time.perf_counter()
    result = verify.suite_rootcount()
    assert result.passed, result.detail
    _report(4, "500 sampled classes", t0, 60.0)


def test_criterion_5_condition_star():
    t0 = time.perf_counter()
    result = verify.suite_star()
    assert result.passed, result.detail
    _report(5, "g <= 10000 equivalence, g <= 2000 oracle", t0, 10.0)


def test_criterion_6_bound_tables():
    t0 = time.perf_counter()
    result = verify.suite_bounds()
    assert result.passed, result.detail
    _report(6, "g in {2..6,8,9} full, g=7 pruned", t0, 120.0)


def test_criterion_7_asymptotic_trend():
    t0 = time.perf_counter()
    g = 2
    fam = b_family(g)
    table = ratio_table(fam, 2, 4, [10, 100, 1000, 10000])
    for row in table.rows:
        print(
            f"  computed ratio at p={row.m}: "
            f"[{row.ratio_lo:.10f}, {row.ratio_hi:.10f}]"
        )
    narrow = bracket_check(fam, "0.9", "1.1", 2, 2000)
    wide = bracket_check(fam, "0.5", "2.0", 2, 2000)
    for label, report in (("0.9, 1.1", narrow), ("0.5, 2.0", wide)):
        print(
            f"  computed bracket({label}) on [2, 2000]: "
            f"{len(report.failures)} failures, threshold {report.threshold}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 7 exceeded 300s budget: {elapsed:.2f}s"
    assert table.strictly_increasing, "ratios are not strictly increasing"
    assert all(row.ratio_hi < 2.0 for row in table.rows), (
        "a ratio is not below the limit 2"
    )
    last = table.rows[-1]
    p, ln_n = last.m, math.log(last.n)
    w0 = math.log(p) - math.log(math.log(p)) - math.log((2 * g + 1) / 2)
    lower, upper = 2 * w0 / ln_n, 2 * math.log(p) / ln_n
    assert lower < last.ratio_lo and last.ratio_hi < upper, (
        f"ratio at p={p} is [{last.ratio_lo:.6f}, {last.ratio_hi:.6f}], "
        f"not in ({lower:.6f}, {upper:.6f})"
    )
    assert narrow.failures == tuple(range(2, 2001)), (
        f"bracket(0.9, 1.1) holds at some m <= 2000: {len(narrow.failures)} failures"
    )
    assert wide.holds_tail and wide.threshold <= 2000, (
        f"bracket(0.5, 2.0) threshold on [2, 2000] is {wide.threshold}"
    )
    _report(7, "asymptotic trend", t0, 300.0)


def _run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def test_criterion_8_determinism():
    t0 = time.perf_counter()
    commands = [
        ("bounds", "-g", "2", "-n", "3..80", "--format", "csv"),
        ("bounds", "-g", "7", "-n", "3..40", "--format", "json"),
        ("asymp", "bracket", "--m-range", "2..60", "--format", "json"),
        ("asymp", "ratio", "--points", "10,100,1000", "--format", "csv"),
    ]
    for argv in commands:
        code1, out1 = _run_cli(*argv, "--jobs", "1")
        code8, out8 = _run_cli(*argv, "--jobs", "8")
        assert code1 == code8 == 0
        assert out1 == out8, f"output differs across --jobs for {argv}"
        if "json" in argv:
            parsed = json.loads(out1)
            assert json.dumps(parsed, indent=2) + "\n" == out1
    _report(8, "byte-identical across --jobs", t0, 120.0)
