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

A run builds one record: the subcommand's ``cmd_*`` computes it and returns
it with its outcome, and ``main`` writes it once, to stdout in plain, csv, or
json form (``--format``), then maps the outcome to the exit code.  stderr
carries diagnostics only.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 a guard's refusal (precision ceiling, float range, sweep
size), 141 (128 + SIGPIPE) when the reader closes stdout before the record
is written.  A ``class`` with no fiber data (zero, out of the cone, or not
primitive) writes its partial record to stdout, then its ``error:`` line to
stderr, and exits 2; the other usage and precision errors write no record.
Numeric approximations are always accompanied by their exact bracket
endpoints, serialized as decimal strings; identical invocations produce
byte-identical output regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .homology import (
    FiberedClass,
    fiber_data,
    in_fibered_cone,
    is_primitive,
    thurston_norm,
)
from .polynomials import dilatation_poly
from .roots import DEFAULT_MAX_BITS, PrecisionError, _as_tol, check_tasks, unique_root_gt1

# Each cmd_* imports the asymptotics, family or verify code it runs when it is
# called, so an invocation loads only its own subcommand's modules.  The
# verify help names the suites of verify.SUITES, in order, from this copy.
SUITE_NAMES = ("roots", "identity", "topology", "rootcount", "star", "bounds", "asymp")

SCHEMA_VERSION = "1"
DEFAULT_TOL_TEXT = "1e-12"  # roots.DEFAULT_TOL as typed on the command line
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a program SIGPIPE ends

# Hyperbolic volume of the magic manifold (cited constant, informational
# only: every witnessed bound is realized by a bundle obtained from the
# magic manifold, whose volume does not increase under the fillings used).
MAGIC_MANIFOLD_VOLUME = "5.3334"

FIBER_FIELDS = [
    "genus", "n_total", "b_alpha", "b_beta", "b_gamma",
    "prongs_alpha", "prongs_beta", "prongs_gamma",
]
ROOT_FIELDS = ["lambda_lo", "lambda_hi", "lambda"]

COLUMNS = {
    "class": [
        "x", "y", "z", "norm", "in_cone", "primitive", *FIBER_FIELDS,
        "degree", "poly", *ROOT_FIELDS,
    ],
    "class_norm_only": ["x", "y", "z", "norm", "in_cone"],
    "family": ["p", "x", "y", "z", "primitive", "norm", *FIBER_FIELDS, *ROOT_FIELDS],
    "bounds": ["n", "status", "witness_p", "filled", "pruned_p", *ROOT_FIELDS],
    "star": ["g", "holds", "witness_s"],
    "asymp_bracket": [
        "c_lower", "c_upper", "m_lo", "m_hi", "checked", "n_failures",
        "largest_failure", "threshold", "holds_tail", "failures",
    ],
    "asymp_ratio": ["m", "n", *ROOT_FIELDS[:2], "ratio_lo", "ratio_hi"],
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
    # Decimal writes an int of any length; str() stops at the interpreter's
    # 4300-digit limit on int-to-str conversion.
    digits = format(Decimal(abs(num) * 5**k), "f").rjust(k + 1, "0")
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


def _fiber_cells(fd) -> dict:
    """The FIBER_FIELDS cells of fd, all None when there is no fiber data."""
    return {f: None if fd is None else getattr(fd, f) for f in FIBER_FIELDS}


def _root_cells(root, places) -> dict:
    """The ROOT_FIELDS cells of a bracket, all None when there is no root."""
    if root is None:
        return dict.fromkeys(ROOT_FIELDS)
    return dict(zip(ROOT_FIELDS, (
        dyadic_decimal(root.lo),
        dyadic_decimal(root.hi),
        round_decimal(root.value, places),
    )))


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


def _int_at_least(lo: int):
    """An argparse type: an int that is at least ``lo``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n

    return parse


def _record(args, inputs, columns, rows, summary=None):
    # A subcommand with --tol isolates roots at it; without --max-bits it
    # runs at the package ceiling, so that is the value echoed.  One without
    # --tol applies neither (star isolates nothing, asymp bracket's verdicts
    # do not depend on a tol, the verify suites use their own), so it echoes
    # none.
    tolerances = {}
    if hasattr(args, "tol"):
        tolerances = {
            "tol": args.tol,
            "max_bits": getattr(args, "max_bits", DEFAULT_MAX_BITS),
        }
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "tolerances": tolerances,
    }
    if args.command != "class":
        rec["info"] = {"magic_manifold_volume": MAGIC_MANIFOLD_VOLUME}
    rec["columns"] = columns
    # JSON writes each row's keys in order, so every row is cut to `columns`.
    rec["rows"] = [{c: row[c] for c in columns} for row in rows]
    if summary is not None:
        rec["summary"] = summary
    return rec


def _cell_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv_cell(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(record, fmt, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(record, indent=2) + "\n")
        return
    columns = record["columns"]
    grid = [columns] + [[_cell_text(row[c]) for c in columns] for row in record["rows"]]
    if fmt == "csv":
        stream.writelines(",".join(map(_csv_cell, r)) + "\n" for r in grid)
        return
    # plain
    head = [f"magicfiber {__version__} :: {record['command']}"]
    head += [f"{key}: {val}" for key, val in record["inputs"].items()]
    if record["tolerances"]:
        head.append("tol: {tol}  max_bits: {max_bits}".format(**record["tolerances"]))
    head += [f"{key}: {val}" for key, val in record.get("info", {}).items()]
    tail = [f"{key}: {_cell_text(val)}" for key, val in record.get("summary", {}).items()]
    widths = [max(len(r[i]) for r in grid) for i in range(len(columns))]
    body = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in grid]
    stream.writelines(f"# {line}\n" for line in head)
    stream.writelines(f"{line}\n" for line in body)
    stream.writelines(f"# {line}\n" for line in tail)


# Each cmd_* returns its record and its outcome, which main maps to the exit
# code: an int is the code itself (1 for a failed verify suite); an error
# message follows the record on stderr and exits 2.


def cmd_class(args):
    fc = FiberedClass(args.x, args.y, args.z)
    tol = _as_tol(args.tol)
    inputs = fc._asdict()
    cells = {**inputs, "norm": thurston_norm(fc), "in_cone": in_fibered_cone(fc)}
    outcome = 0
    if not args.norm_only and tuple(fc) == (0, 0, 0):
        outcome = "the zero class is not fibered (primitivity undefined)"
    elif not args.norm_only:
        cells["primitive"] = is_primitive(fc)
        if not (cells["in_cone"] and cells["primitive"]):
            outcome = (f"{tuple(fc)} has no fiber data "
                       "(needs a primitive class in the open cone); "
                       "use --norm-only to silence")
        else:
            fd = fiber_data(fc)
            poly = dilatation_poly(fc)
            root = unique_root_gt1(poly, tol, max_bits=args.max_bits)
            cells.update(_fiber_cells(fd), degree=poly.degree(), poly=str(poly),
                         **_root_cells(root, _value_places(tol)))
    # A class without fiber data stops at the cells computed for it.
    columns = [c for c in COLUMNS["class"] if c in cells]
    return _record(args, inputs, columns, [cells]), outcome


def cmd_family(args):
    from .family import family_class, family_dilatation, family_fiber_data

    tol = _as_tol(args.tol)
    places = _value_places(tol)
    check_tasks(args.p_max + 1)
    rows = []
    for p in range(args.p_max + 1):
        fc = family_class(args.genus, p)
        root = family_dilatation(args.genus, p, tol, max_bits=args.max_bits)
        fd = family_fiber_data(args.genus, p) if fc.primitive else None
        rows.append({
            "p": p,
            **fc.fibered_class._asdict(),
            "primitive": fc.primitive,
            "norm": thurston_norm(fc.fibered_class),
            **_fiber_cells(fd),
            **_root_cells(root, places),
        })
    inputs = {"g": args.genus, "p_max": args.p_max}
    return _record(args, inputs, COLUMNS["family"], rows), 0


def cmd_bounds(args):
    from .family import upper_bound_table

    tol = _as_tol(args.tol)
    places = _value_places(tol)
    n_min, n_max = _parse_range(args.punctures)
    table = upper_bound_table(args.genus, n_min, n_max, tol, jobs=args.jobs)
    rows = []
    for row in table:
        entry = row.record
        rows.append({
            "n": row.n,
            "status": "ok" if entry else "no_witness",
            "witness_p": entry.witness_p if entry else None,
            "filled": "+".join(entry.filled) if entry else None,
            "pruned_p": ";".join(str(p) for p in row.pruned_p),
            **_root_cells(entry.bound if entry else None, places),
        })
    inputs = {"g": args.genus, "n": args.punctures}
    return _record(args, inputs, COLUMNS["bounds"], rows), 0


def cmd_star(args):
    from .family import condition_star

    check_tasks(args.max - 1)
    rows = []
    for g in range(2, args.max + 1):
        holds, witness = condition_star(g)
        rows.append({"g": g, "holds": holds, "witness_s": witness})
    return _record(args, {"g_max": args.max}, COLUMNS["star"], rows), 0


def cmd_asymp_bracket(args):
    from .asymptotics import bracket_check

    m_lo, m_hi = _parse_range(args.m_range)
    report = bracket_check(args.genus, args.c1, args.c2, m_lo, m_hi)
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
    inputs = {"mode": "bracket", "g": args.genus, "c1": args.c1, "c2": args.c2,
              "m": args.m_range}
    return _record(args, inputs, COLUMNS["asymp_bracket"], [row]), 0


def cmd_asymp_ratio(args):
    from .asymptotics import ratio_table

    tol = _as_tol(args.tol)
    points = _parse_points(args.points)
    table = ratio_table(args.genus, args.q, args.v, points, tol)
    places = _value_places(tol)
    rows = [
        {
            "m": r.m,
            "n": str(r.n),
            **_root_cells(r.root, places),
            "ratio_lo": repr(r.ratio_lo),
            "ratio_hi": repr(r.ratio_hi),
        }
        for r in table.rows
    ]
    inputs = {"mode": "ratio", "g": args.genus, "q": args.q, "v": args.v,
              "points": args.points}
    summary = {
        "strictly_decreasing": table.strictly_decreasing,
        "strictly_increasing": table.strictly_increasing,
    }
    return _record(args, inputs, COLUMNS["asymp_ratio"], rows, summary), 0


def cmd_verify(args):
    from .verify import run_suites

    results = run_suites(args.suites)
    rows = [{"suite": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    rec = _record(args, {"suites": " ".join(args.suites)}, COLUMNS["verify"], rows)
    return rec, 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the shared flags it applies.
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", default=DEFAULT_TOL_TEXT,
                     help="root bracket half-width (decimal or fraction)")
    max_bits = argparse.ArgumentParser(add_help=False)
    max_bits.add_argument("--max-bits", type=_int_at_least(1), default=DEFAULT_MAX_BITS,
                          help="precision ceiling for sign certification")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "csv", "json"),
                     default="plain", help="output format")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_int_at_least(1), default=1,
                      help="worker processes for bound tables (at least 1, capped at "
                           "the CPU count); asymp and verify accept it and run in this "
                           "process; never affects output bytes")

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
    sp.add_argument("--p-max", type=_int_at_least(0), default=10)
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
    sp.add_argument("--max", type=_int_at_least(2), default=20)
    sp.set_defaults(func=cmd_star)

    # Each mode is its own parser, so it takes only its own flags.
    sp = sub.add_parser("asymp", help="asymptotic sweeps for the (g, p) family")
    modes = sp.add_subparsers(dest="mode", required=True)
    sp = modes.add_parser(
        "bracket", parents=[fmt, jobs],
        help="check m^(c1/m) < lambda_m < m^(c2/m) over an m sweep",
        epilog="CSV columns: " + ",".join(COLUMNS["asymp_bracket"]),
    )
    sp.add_argument("-g", "--genus", type=int, default=2, help="(default: %(default)s)")
    sp.add_argument("--c1", default="0.9", help="lower exponent (default: %(default)s)")
    sp.add_argument("--c2", default="1.1", help="upper exponent (default: %(default)s)")
    sp.add_argument("--m-range", default="2..2000", help="m sweep (default: %(default)s)")
    sp.set_defaults(func=cmd_asymp_bracket)
    sp = modes.add_parser(
        "ratio", parents=[tol, fmt, jobs],
        help="normalized-entropy ratios n log(lambda_m) / log n, n = q m + v",
        epilog="CSV columns: " + ",".join(COLUMNS["asymp_ratio"]),
    )
    sp.add_argument("-g", "--genus", type=int, default=2, help="(default: %(default)s)")
    sp.add_argument("-q", default="2", help="ratio slope (default: %(default)s)")
    sp.add_argument("-v", default="4", help="ratio offset (default: %(default)s)")
    sp.add_argument("--points", default="10,100,1000,10000",
                    help="comma-separated m values (default: %(default)s)")
    sp.set_defaults(func=cmd_asymp_ratio)

    sp = sub.add_parser(
        "verify", parents=[fmt, jobs],
        help="run invariant suites: " + " ".join(SUITE_NAMES) + " (or: all)",
        epilog="CSV columns: " + ",".join(COLUMNS["verify"]),
    )
    sp.add_argument("suites", nargs="*", default=["all"])
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, during a record or a --help text.
        # Point stdout at devnull so that the interpreter's final flush cannot
        # raise again (the SIGPIPE note in the docs of Python's signal
        # module), and exit as a program that SIGPIPE ends does in a shell.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    record = None
    try:
        record, outcome = args.func(args)
    except (PrecisionError, ValueError, OverflowError) as exc:
        outcome = exc
    if record is not None:
        _emit(record, args.format, sys.stdout)
        sys.stdout.flush()
    if isinstance(outcome, int):
        return outcome
    print(f"error: {outcome}", file=sys.stderr)
    return 3 if isinstance(outcome, PrecisionError) else 2


if __name__ == "__main__":
    sys.exit(main())
