"""Output checks for the benchmark's CLI runs.

Each run passes two kinds of check:

* the certified fields of its JSON record (brackets, witness_p, filled,
  pruned_p, failures, threshold, trend flags, suite verdicts) must hash to
  the reference recorded in ``reference.json``;
* every printed root bracket must pass a sign check that does not use the
  package: exact integer arithmetic for the bound tables, mpmath interval
  arithmetic for the ratio rows (degree up to 2*10^6, too large for exact
  powers), plus containment of the mpmath ratio in [ratio_lo, ratio_hi].

The family polynomial is rebuilt here from its definition,
t^(x+y-z) - t^x - t^y - t^(x-z) - t^(y-z) + 1 at the class
(p+g+1, 2p+1, p-g), not taken from the package.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import mpmath

BOUNDS_TOL = Fraction("1e-30")
RATIO_TOL = Fraction("1e-12")  # the CLI default; see README.md for why


class CheckError(Exception):
    """A run's output is wrong."""


def family_terms(g: int, p: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of the (g, p) family polynomial."""
    x, y, z = p + g + 1, 2 * p + 1, p - g
    acc: dict[int, int] = {}
    for e, c in ((x + y - z, 1), (x, -1), (y, -1), (x - z, -1), (y - z, -1), (0, 1)):
        acc[e] = acc.get(e, 0) + c
    return [(e, c) for e, c in acc.items() if c]


def exact_sign(terms, t: Fraction) -> int:
    """Sign of sum(c * t**e) at a rational t > 0, in exact integers."""
    a, b = t.numerator, t.denominator
    d = max(e for e, _ in terms)
    total = sum(c * a**e * b ** (d - e) for e, c in terms)
    return (total > 0) - (total < 0)


def interval_sign(terms, t: str) -> int:
    """Sign of sum(c * t**e) at the decimal t, by mpmath interval arithmetic.

    Precision doubles until the enclosure excludes zero.
    """
    iv = mpmath.iv
    saved = iv.prec
    try:
        for prec in (128, 512, 2048, 8192):
            iv.prec = prec
            x = iv.mpf(t)
            val = iv.mpf(0)
            for e, c in terms:
                val += c * x**e
            if val.a > 0:
                return 1
            if val.b < 0:
                return -1
    finally:
        iv.prec = saved
    raise CheckError(f"sign at {t} undetermined at 8192 bits")


def mp_ratio(terms, lo: str, hi: str, n: int):
    """n * ln(lambda) / ln(n) with lambda found by mpmath inside [lo, hi]."""
    mp = mpmath.mp

    def f(t):
        return mpmath.fsum(c * t**e for e, c in terms)

    with mpmath.workdps(60):
        lam = mp.findroot(f, (mp.mpf(lo), mp.mpf(hi)), solver="anderson")
        if not mp.mpf(lo) <= lam <= mp.mpf(hi):
            raise CheckError(f"mpmath root {lam} outside [{lo}, {hi}]")
        return n * mp.log(lam) / mp.log(n)


def _bracket(lo_s: str, hi_s: str, tol: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(lo_s), Fraction(hi_s)
    if not (1 < lo < hi and hi - lo <= 2 * tol):
        raise CheckError(f"malformed bracket [{lo_s}, {hi_s}]")
    return lo, hi


def certified_fields(workload: str, record: dict):
    """The fields of a CLI JSON record that the reference pins down.

    Timings (verify's elapsed_s) and float displays are left out.
    """
    rows = record["rows"]
    if workload == "bounds":
        keys = ("n", "status", "witness_p", "filled", "pruned_p", "lambda_lo", "lambda_hi")
    elif workload == "bracket":
        keys = ("c_lower", "c_upper", "m_lo", "m_hi", "failures", "threshold", "holds_tail")
    elif workload == "ratio":
        keys = ("m", "n", "lambda_lo", "lambda_hi")
    elif workload == "oracles":
        keys = ("suite", "passed")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "inputs": record["inputs"],
        "rows": [[r[k] for k in keys] for r in rows],
        "summary": record.get("summary"),
    }


def reference_key(genus: int | None) -> str:
    return "all" if genus is None else str(genus)


def digest(workload: str, record: dict) -> str:
    blob = json.dumps(certified_fields(workload, record), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def independent_check(workload: str, genus: int, record: dict) -> None:
    """Checks that need no reference; raise CheckError on the first failure."""
    rows = record["rows"]
    if workload == "bounds":
        seen = set()
        for r in rows:
            if r["status"] != "ok":
                continue
            key = (r["witness_p"], r["lambda_lo"], r["lambda_hi"])
            if key in seen:
                continue
            seen.add(key)
            lo, hi = _bracket(r["lambda_lo"], r["lambda_hi"], BOUNDS_TOL)
            terms = family_terms(genus, r["witness_p"])
            if not (exact_sign(terms, lo) < 0 < exact_sign(terms, hi)):
                raise CheckError(f"n={r['n']}: bracket signs do not straddle a root")
    elif workload == "ratio":
        for r in rows:
            _bracket(r["lambda_lo"], r["lambda_hi"], RATIO_TOL)
            terms = family_terms(genus, r["m"])
            if not (interval_sign(terms, r["lambda_lo"]) < 0 < interval_sign(terms, r["lambda_hi"])):
                raise CheckError(f"m={r['m']}: bracket signs do not straddle a root")
            ratio = mp_ratio(terms, r["lambda_lo"], r["lambda_hi"], int(r["n"]))
            if not mpmath.mpf(r["ratio_lo"]) <= ratio <= mpmath.mpf(r["ratio_hi"]):
                raise CheckError(
                    f"m={r['m']}: ratio {mpmath.nstr(ratio, 20)} outside "
                    f"[{r['ratio_lo']}, {r['ratio_hi']}]"
                )
    elif workload == "bracket":
        for r in rows:
            failures = [int(m) for m in r["failures"].split(";") if m]
            if r["n_failures"] != len(failures) or r["checked"] != r["m_hi"] - r["m_lo"] + 1:
                raise CheckError("bracket summary disagrees with its failure list")
    elif workload == "oracles":
        failed = [r["suite"] for r in rows if not r["passed"]]
        if failed:
            raise CheckError(f"verify suites failed: {failed}")


class OutputChecker:
    """Checks CLI stdout against the reference; full checks run once per output.

    Identical outputs give identical verdicts, so the costly independent
    checks are cached by a hash of the output with its timings masked.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self._verdicts: dict[tuple[str, int, str], str | None] = {}

    def check(self, workload: str, genus: int, returncode: int, stdout: str) -> str | None:
        """None when the run is correct, otherwise the reason it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            record = json.loads(stdout)
            got = digest(workload, record)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable output: {exc!r}"
        want = self.reference.get(workload, {}).get(reference_key(genus))
        if got != want:
            return f"certified fields differ from the reference ({got[:12]} != {str(want)[:12]})"
        for row in record["rows"]:
            row.pop("elapsed_s", None)  # verify's timings differ on every run
        key = (workload, genus, hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest())
        if key not in self._verdicts:
            try:
                independent_check(workload, genus, record)
                self._verdicts[key] = None
            except CheckError as exc:
                self._verdicts[key] = str(exc)
        return self._verdicts[key]
