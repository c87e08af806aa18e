"""Command-line interface.

Subcommands
-----------
class X Y Z   norm, cone membership, primitivity, fiber topology, polynomial,
              and certified dilatation of a single integral class
family        the (g, p) family: topology and dilatations for p = 0..P
bounds        certified upper-bound table for minimal dilatations at genus g
star          the coprimality condition on 2g+1, with failure witnesses
asymp         asymptotic sweeps: two-sided root brackets and ratio tables
verify        run the built-in invariant suites

Output goes to stdout in plain, csv, or json form (``--format``); stderr
carries diagnostics only.  Exit codes: 0 success, 1 verification failure,
2 usage error (including out-of-cone / non-primitive classes when fiber data
was requested), 3 precision-ceiling failure.  Numeric approximations are
always accompanied by their exact bracket endpoints, serialized as decimal
strings; identical invocations produce byte-identical output regardless of
``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .asymptotics import b_family, bracket_check, ratio_table
from .family import (
    condition_star,
    family_class,
    family_dilatation,
    family_fiber_data,
    upper_bound_table,
)
from .homology import (
    FiberedClass,
    NotInConeError,
    NotPrimitiveError,
    fiber_data,
    in_fibered_cone,
    is_primitive,
    thurston_norm,
)
from .polynomials import dilatation_poly
from .roots import DEFAULT_MAX_BITS, PrecisionError, unique_root_gt1
from .verify import SUITES, run_suites

SCHEMA_VERSION = "1"
DEFAULT_TOL_TEXT = "1e-12"  # roots.DEFAULT_TOL as typed on the command line

# Hyperbolic volume of the magic manifold (cited constant, informational
# only: every witnessed bound is realized by a bundle obtained from the
# magic manifold, whose volume does not increase under the fillings used).
MAGIC_MANIFOLD_VOLUME = "5.3334"

COLUMNS = {
    "class": [
        "x", "y", "z", "norm", "in_cone", "primitive", "genus", "n_total",
        "b_alpha", "b_beta", "b_gamma", "prongs_alpha", "prongs_beta",
        "prongs_gamma", "degree", "poly", "lambda_lo", "lambda_hi", "lambda",
    ],
    "class_norm_only": ["x", "y", "z", "norm", "in_cone"],
    "family": [
        "p", "x", "y", "z", "primitive", "norm", "genus", "n_total",
        "b_alpha", "b_beta", "b_gamma", "prongs_alpha", "prongs_beta",
        "prongs_gamma", "lambda_lo", "lambda_hi", "lambda",
    ],
    "bounds": [
        "n", "status", "witness_p", "filled", "pruned_p",
        "lambda_lo", "lambda_hi", "lambda",
    ],
    "star": ["g", "holds", "witness_s"],
    "asymp_bracket": [
        "c_lower", "c_upper", "m_lo", "m_hi", "checked", "n_failures",
        "largest_failure", "threshold", "holds_tail", "failures",
    ],
    "asymp_ratio": ["m", "n", "lambda_lo", "lambda_hi", "ratio_lo", "ratio_hi"],
    "verify": ["suite", "passed", "detail"],
}


def dyadic_decimal(x: Fraction) -> str:
    """Exact decimal string of a dyadic rational (no float ambiguity)."""
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    if den & (den - 1):
        raise ValueError(f"{x} is not dyadic")
    k = den.bit_length() - 1
    digits = str(abs(num) * 5**k).rjust(k + 1, "0")
    ip, fp = digits[:-k], digits[-k:].rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{ip}.{fp}" if fp else f"{sign}{ip}"


def round_decimal(x: Fraction, places: int) -> str:
    """Decimal string of x rounded to the given number of places."""
    n = round(x * 10**places)
    sign = "-" if n < 0 else ""
    ip, fp = divmod(abs(n), 10**places)
    fs = str(fp).rjust(places, "0").rstrip("0")
    return f"{sign}{ip}.{fs}" if fs else f"{sign}{ip}"


def _value_places(tol: Fraction) -> int:
    places = 0
    t = Fraction(1)
    while t > tol and places < 60:
        t /= 10
        places += 1
    return max(6, places + 2)


def _root_fields(root, places) -> tuple[str, str, str]:
    return (
        dyadic_decimal(root.lo),
        dyadic_decimal(root.hi),
        round_decimal(root.value, places),
    )


def _parse_tol(text: str) -> Fraction:
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse tolerance {text!r}") from exc
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _parse_points(text: str) -> list[int]:
    pts = [int(tok) for tok in text.split(",") if tok.strip()]
    if not pts:
        raise ValueError("need at least one point")
    return pts


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _record(command, inputs, args, columns, rows, info=None, summary=None):
    # A subcommand without --tol or --max-bits runs at the package default,
    # so that default is the value echoed.
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "tolerances": {
            "tol": getattr(args, "tol", DEFAULT_TOL_TEXT),
            "max_bits": getattr(args, "max_bits", DEFAULT_MAX_BITS),
        },
    }
    if info:
        rec["info"] = info
    rec["columns"] = columns
    rec["rows"] = rows
    if summary is not None:
        rec["summary"] = summary
    return rec


def _cell_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit(record, fmt, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(record, indent=2))
        stream.write("\n")
        return
    columns = record["columns"]
    rows = record["rows"]
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for c in columns:
                text = _cell_text(row.get(c))
                if any(ch in text for ch in ',"\n'):
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
            stream.write(",".join(cells) + "\n")
        return
    # plain
    stream.write(f"# magicfiber {__version__} :: {record['command']}\n")
    for key, val in record["inputs"].items():
        stream.write(f"# {key}: {val}\n")
    tols = record["tolerances"]
    stream.write(f"# tol: {tols['tol']}  max_bits: {tols['max_bits']}\n")
    for key, val in record.get("info", {}).items():
        stream.write(f"# {key}: {val}\n")
    grid = [columns] + [[_cell_text(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
    for r in grid:
        stream.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")
    for key, val in (record.get("summary") or {}).items():
        stream.write(f"# {key}: {_cell_text(val)}\n")


def cmd_class(args, out) -> int:
    fc = FiberedClass(args.x, args.y, args.z)
    tol = _parse_tol(args.tol)
    base = {
        "x": fc.x,
        "y": fc.y,
        "z": fc.z,
        "norm": thurston_norm(fc),
        "in_cone": in_fibered_cone(fc),
    }
    inputs = {"x": fc.x, "y": fc.y, "z": fc.z}
    if args.norm_only:
        rec = _record("class", inputs, args, COLUMNS["class_norm_only"], [base])
        _emit(rec, args.format, out)
        return 0
    if fc.coords() == (0, 0, 0):
        rec = _record("class", inputs, args, COLUMNS["class_norm_only"], [base])
        _emit(rec, args.format, out)
        print("error: the zero class is not fibered (primitivity undefined)",
              file=sys.stderr)
        return 2
    base["primitive"] = is_primitive(fc)
    if not base["in_cone"] or not base["primitive"]:
        rec = _record("class", inputs, args,
                      COLUMNS["class_norm_only"] + ["primitive"], [base])
        _emit(rec, args.format, out)
        print(f"error: {fc.coords()} has no fiber data "
              "(needs a primitive class in the open cone); "
              "use --norm-only to silence", file=sys.stderr)
        return 2
    fd = fiber_data(fc)
    poly = dilatation_poly(fc)
    root = unique_root_gt1(poly, tol, max_bits=args.max_bits)
    lo, hi, val = _root_fields(root, _value_places(tol))
    base.update(
        genus=fd.genus, n_total=fd.n_total, b_alpha=fd.b_alpha,
        b_beta=fd.b_beta, b_gamma=fd.b_gamma, prongs_alpha=fd.prongs_alpha,
        prongs_beta=fd.prongs_beta, prongs_gamma=fd.prongs_gamma,
        degree=poly.degree(), poly=str(poly),
    )
    base["lambda_lo"] = lo
    base["lambda_hi"] = hi
    base["lambda"] = val
    rec = _record("class", inputs, args, COLUMNS["class"], [base])
    _emit(rec, args.format, out)
    return 0


def cmd_family(args, out) -> int:
    tol = _parse_tol(args.tol)
    places = _value_places(tol)
    rows = []
    for p in range(args.p_max + 1):
        fc = family_class(args.genus, p)
        root = family_dilatation(args.genus, p, tol, max_bits=args.max_bits)
        lo, hi, val = _root_fields(root, places)
        row = {
            "p": p,
            "x": fc.fibered_class.x,
            "y": fc.fibered_class.y,
            "z": fc.fibered_class.z,
            "primitive": fc.primitive,
            "norm": thurston_norm(fc.fibered_class),
            "genus": None, "n_total": None, "b_alpha": None, "b_beta": None,
            "b_gamma": None, "prongs_alpha": None, "prongs_beta": None,
            "prongs_gamma": None,
            "lambda_lo": lo, "lambda_hi": hi, "lambda": val,
        }
        if fc.primitive:
            fd = family_fiber_data(args.genus, p)
            row.update(
                genus=fd.genus, n_total=fd.n_total, b_alpha=fd.b_alpha,
                b_beta=fd.b_beta, b_gamma=fd.b_gamma,
                prongs_alpha=fd.prongs_alpha, prongs_beta=fd.prongs_beta,
                prongs_gamma=fd.prongs_gamma,
            )
        rows.append(row)
    rec = _record(
        "family", {"g": args.genus, "p_max": args.p_max}, args,
        COLUMNS["family"], rows,
        info={"magic_manifold_volume": MAGIC_MANIFOLD_VOLUME},
    )
    _emit(rec, args.format, out)
    return 0


def cmd_bounds(args, out) -> int:
    tol = _parse_tol(args.tol)
    places = _value_places(tol)
    n_min, n_max = _parse_range(args.punctures)
    table = upper_bound_table(args.genus, n_min, n_max, tol, jobs=args.jobs)
    rows = []
    for row in table:
        cells = {
            "n": row.n,
            "status": "ok" if row.record else "no_witness",
            "witness_p": row.record.witness_p if row.record else None,
            "filled": "+".join(row.record.filled) if row.record else None,
            "pruned_p": ";".join(str(p) for p in row.pruned_p),
            "lambda_lo": None, "lambda_hi": None, "lambda": None,
        }
        if row.record:
            lo, hi, val = _root_fields(row.record.bound, places)
            cells.update(lambda_lo=lo, lambda_hi=hi)
            cells["lambda"] = val
        rows.append(cells)
    rec = _record(
        "bounds", {"g": args.genus, "n": args.punctures}, args,
        COLUMNS["bounds"], rows,
        info={"magic_manifold_volume": MAGIC_MANIFOLD_VOLUME},
    )
    _emit(rec, args.format, out)
    return 0


def cmd_star(args, out) -> int:
    if args.max < 2:
        raise ValueError("--max must be at least 2")
    rows = []
    for g in range(2, args.max + 1):
        holds, witness = condition_star(g)
        rows.append({"g": g, "holds": holds, "witness_s": witness})
    rec = _record("star", {"g_max": args.max}, args, COLUMNS["star"], rows,
                  info={"magic_manifold_volume": MAGIC_MANIFOLD_VOLUME})
    _emit(rec, args.format, out)
    return 0


def cmd_asymp(args, out) -> int:
    tol = _parse_tol(args.tol)
    fam = b_family(args.genus)
    if args.mode == "bracket":
        m_lo, m_hi = _parse_range(args.m_range)
        report = bracket_check(fam, args.c1, args.c2, m_lo, m_hi, tol, jobs=args.jobs)
        row = {
            "c_lower": str(report.c_lower),
            "c_upper": str(report.c_upper),
            "m_lo": report.m_lo,
            "m_hi": report.m_hi,
            "checked": report.m_hi - report.m_lo + 1,
            "n_failures": len(report.failures),
            "largest_failure": report.largest_failure,
            "threshold": report.threshold,
            "holds_tail": report.holds_tail,
            "failures": ";".join(str(m) for m in report.failures),
        }
        rec = _record(
            "asymp", {"mode": "bracket", "g": args.genus, "c1": args.c1,
                      "c2": args.c2, "m": args.m_range},
            args, COLUMNS["asymp_bracket"], [row],
            info={"magic_manifold_volume": MAGIC_MANIFOLD_VOLUME},
        )
        _emit(rec, args.format, out)
        return 0
    points = _parse_points(args.points)
    table = ratio_table(fam, args.q, args.v, points, tol, jobs=args.jobs)
    places = _value_places(tol)
    rows = []
    for r in table.rows:
        lo, hi, _ = _root_fields(r.root, places)
        rows.append({
            "m": r.m,
            "n": str(r.n),
            "lambda_lo": lo,
            "lambda_hi": hi,
            "ratio_lo": repr(r.ratio_lo),
            "ratio_hi": repr(r.ratio_hi),
        })
    rec = _record(
        "asymp", {"mode": "ratio", "g": args.genus, "q": args.q, "v": args.v,
                  "points": args.points},
        args, COLUMNS["asymp_ratio"], rows,
        info={"magic_manifold_volume": MAGIC_MANIFOLD_VOLUME},
        summary={
            "strictly_decreasing": table.strictly_decreasing,
            "strictly_increasing": table.strictly_increasing,
        },
    )
    _emit(rec, args.format, out)
    return 0


def cmd_verify(args, out) -> int:
    results = run_suites(args.suites, jobs=args.jobs)
    rows = [{"suite": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    rec = _record("verify", {"suites": " ".join(args.suites)}, args, COLUMNS["verify"],
                  rows, info={"magic_manifold_volume": MAGIC_MANIFOLD_VOLUME})
    _emit(rec, args.format, out)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the shared flags it applies.
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", default=DEFAULT_TOL_TEXT,
                     help="root bracket half-width (decimal or fraction)")
    max_bits = argparse.ArgumentParser(add_help=False)
    max_bits.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS,
                          help="precision ceiling for sign certification")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "csv", "json"),
                     default="plain", help="output format")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_positive_int, default=1,
                      help="worker processes (at least 1, capped at the CPU count); "
                           "never affects output bytes")

    parser = argparse.ArgumentParser(
        prog="magicfiber",
        description="Fiber topology and certified dilatations on the fibered "
                    "cone of the magic 3-manifold.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "class", parents=[tol, max_bits, fmt],
        help="analyze a single integral class (x, y, z)",
        epilog="CSV columns: " + ",".join(COLUMNS["class"]) +
               " (reduced to " + ",".join(COLUMNS["class_norm_only"]) +
               " under --norm-only)",
    )
    sp.add_argument("x", type=int)
    sp.add_argument("y", type=int)
    sp.add_argument("z", type=int)
    sp.add_argument("--norm-only", action="store_true",
                    help="report only the norm and cone membership (exit 0)")
    sp.set_defaults(func=cmd_class)

    sp = sub.add_parser(
        "family", parents=[tol, max_bits, fmt],
        help="the (g, p) class family for p = 0..P",
        epilog="CSV columns: " + ",".join(COLUMNS["family"]),
    )
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("--p-max", type=int, default=10)
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser(
        "bounds", parents=[tol, fmt, jobs],
        help="certified upper bounds for minimal dilatations at genus g",
        epilog="CSV columns: " + ",".join(COLUMNS["bounds"]),
    )
    sp.add_argument("-g", "--genus", type=int, required=True)
    sp.add_argument("-n", "--punctures", default="3..500",
                    help="puncture range, e.g. 3..20 or a single value")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser(
        "star", parents=[fmt],
        help="coprimality condition on 2g+1 for g = 2..MAX",
        epilog="CSV columns: " + ",".join(COLUMNS["star"]),
    )
    sp.add_argument("--max", type=int, default=20)
    sp.set_defaults(func=cmd_star)

    sp = sub.add_parser(
        "asymp", parents=[tol, fmt, jobs],
        help="asymptotic sweeps for the (g, p) family",
        epilog="CSV columns (bracket): " + ",".join(COLUMNS["asymp_bracket"]) +
               "; (ratio): " + ",".join(COLUMNS["asymp_ratio"]),
    )
    sp.add_argument("mode", choices=("bracket", "ratio"))
    sp.add_argument("-g", "--genus", type=int, default=2)
    sp.add_argument("--c1", default="0.9", help="lower exponent (bracket mode)")
    sp.add_argument("--c2", default="1.1", help="upper exponent (bracket mode)")
    sp.add_argument("--m-range", default="2..2000", help="m sweep (bracket mode)")
    sp.add_argument("-q", default="2", help="ratio slope (ratio mode)")
    sp.add_argument("-v", default="4", help="ratio offset (ratio mode)")
    sp.add_argument("--points", default="10,100,1000,10000",
                    help="comma-separated m values (ratio mode)")
    sp.set_defaults(func=cmd_asymp)

    sp = sub.add_parser(
        "verify", parents=[fmt, jobs],
        help="run invariant suites: " + " ".join(SUITES) + " (or: all)",
        epilog="CSV columns: " + ",".join(COLUMNS["verify"]),
    )
    sp.add_argument("suites", nargs="*", default=["all"])
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, sys.stdout)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotInConeError, NotPrimitiveError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
