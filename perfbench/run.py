#!/usr/bin/env python3
"""The magicfiber benchmark: closed-loop CLI runs, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bounds --seed 0 --seconds 28 --trace 0

One client runs the ``magicfiber`` CLI in a fresh interpreter, one
invocation at a time, until ``--seconds`` have passed, and checks every
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the same command in-process under the layer tracer (``tracer.py``) and
reports per-layer metrics.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import OutputChecker, digest, reference_key  # noqa: E402

# Genera whose 2g+1 satisfies the coprimality condition star.
GENERA = (2, 3, 4, 5, 6)
RATIO_POINTS = "10000,100000,300000,1000000"
SETUP_EVERY_S = 2.5


def workload_args(workload: str, genus: int | None) -> list[str]:
    """CLI arguments of one invocation; the program sees nothing else."""
    if workload == "bounds":
        args = ["bounds", "-g", str(genus), "-n", "3..500", "--tol", "1e-30", "--jobs", "2"]
    elif workload == "bracket":
        args = ["asymp", "bracket", "-g", str(genus), "--m-range", "2..2000"]
    elif workload == "ratio":
        # Default tol: at --tol 1e-30 the m=10^6 row's ratio interval misses
        # the true ratio (float rounding exceeds the display pad).
        args = ["asymp", "ratio", "-g", str(genus), "-q", "2", "-v", "4", "--points", RATIO_POINTS]
    elif workload == "oracles":
        args = ["verify", "roots", "identity", "topology", "rootcount", "star"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return args + ["--format", "json"]


WORKLOADS = ("bounds", "bracket", "ratio", "oracles")


def genus_order(workload: str, seed: int) -> list[int | None]:
    """The seed picks the first genus; invocations then cycle through all.

    Every figure weighs the genera equally, so timings compare across seeds
    although the cost differs by genus.  Seed 0 starts at g = 2.
    """
    if workload == "oracles":
        return [None]
    k = seed % len(GENERA)
    return list(GENERA[k:] + GENERA[:k])


def with_jobs(args: list[str], jobs: int) -> list[str]:
    out = list(args)
    if "--jobs" in out:
        out[out.index("--jobs") + 1] = str(jobs)
    else:
        out += ["--jobs", str(jobs)]
    return out


def run_tol(args: list[str]) -> Fraction:
    return Fraction(args[args.index("--tol") + 1]) if "--tol" in args else Fraction("1e-12")


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    """Outcome of one child interpreter, measured from spawn to exit."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str]) -> Proc:
    """Run ``python argv`` with the checkout's sources first on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as p:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        out = p.stdout.read()
        reader.join()
        # wait4's rusage covers the child and every descendant it reaped,
        # so pool workers count towards cpu_s and peak RSS.
        _, status, usage = os.wait4(p.pid, 0)
        wall_s = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        returncode=p.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out.decode(),
        stderr=b"".join(err).decode(errors="replace"),
    )


def cli(args: list[str]) -> Proc:
    return spawn(["-m", "magicfiber", *args])


def import_backend() -> str:
    """Untimed first import: it compiles the bytecode and names the kernel."""
    probe = spawn(["-c", "import magicfiber.cli, magicfiber; print(magicfiber.KERNEL_BACKEND)"])
    if probe.returncode != 0:
        raise SystemExit(f"error: cannot import magicfiber from {SRC}:\n{probe.stderr}")
    return probe.stdout.strip()


def setup_time() -> float:
    """A fresh interpreter through ``import magicfiber.cli``."""
    return spawn(["-c", "import magicfiber.cli"]).wall_s


# ---------------------------------------------------------------- machine


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from /proc/stat, read only; None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(backend: str, ticks0, ticks1) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": backend,
        "cpu_model": cpu_model(),
        "steal_s": None,
        "steal_share": None,
    }
    if ticks0 and ticks1:
        hz = os.sysconf("SC_CLK_TCK")
        steal, total = ticks1[0] - ticks0[0], ticks1[1] - ticks0[1]
        info["steal_s"] = steal / hz
        info["steal_share"] = steal / total if total else 0.0
    return info


# ---------------------------------------------------------------- modes


def measure_end_to_end(workload: str, seed: int, seconds: float, checker: OutputChecker):
    backend = import_backend()
    order = genus_order(workload, seed)
    runs: dict[int | None, list[Proc]] = {genus: [] for genus in order}
    failures = []
    setups: list[float] = []
    t_start = time.perf_counter()
    for genus in itertools.cycle(order):
        proc = cli(workload_args(workload, genus))
        runs[genus].append(proc)
        why = checker.check(workload, genus, proc.returncode, proc.stdout)
        if why:
            failures.append(f"g={genus}: {why}")
        # Set-up is timed between invocations, once per SETUP_EVERY_S of the
        # run, so that it sees the host as the invocations do; --seconds
        # counts the run without it.
        elapsed = time.perf_counter() - t_start - sum(setups)
        while len(setups) * SETUP_EVERY_S < elapsed:
            setups.append(setup_time())
        # Stop once another invocation as long as this one would end more than
        # half of it past --seconds, so that runs last --seconds on average.
        if all(runs.values()) and elapsed + proc.wall_s / 2 > seconds:
            break

    def per_run(attr, stat):
        # One figure per genus over its invocations, then the mean over genera.
        return statistics.fmean(stat(getattr(p, attr) for p in ps) for ps in runs.values())

    # Times are the mean per invocation, the inverse of the closed loop's
    # throughput.  An oracles invocation takes about 7 s, so a run holds only
    # three to five: their mean is steadier than their median, which keeps
    # one or two of them.
    metrics = {
        "wall_s": (per_run("wall_s", statistics.fmean), "s"),
        "cpu_s": (per_run("cpu_s", statistics.fmean), "s"),
        "peak_rss_mb": (per_run("peak_rss_mb", statistics.median), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, sum(len(ps) for ps in runs.values()), failures, backend


def in_process(cli_main, args: list[str]) -> tuple[float, int, str]:
    """Wall time, exit code and stdout of ``cli_main(args)`` in this process.

    An exception escaping the CLI counts as a failed run (exit code -1).
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_main(args)
    except Exception:
        traceback.print_exc()
        rc = -1
    return time.perf_counter() - t0, rc, buf.getvalue()


def measure_layers(workload: str, seed: int, seconds: float, checker: OutputChecker):
    sys.path.insert(0, str(SRC))
    import magicfiber
    import magicfiber.cli
    from tracer import Tracer

    genus = genus_order(workload, seed)[0]
    args = workload_args(workload, genus)
    serial = with_jobs(args, 1)
    tol = run_tol(args)
    failures: list[str] = []
    attempted = 0

    def checked(rc, out):
        nonlocal attempted
        attempted += 1
        why = checker.check(workload, genus, rc, out)
        if why:
            failures.append(why)

    untraced, traced, pool = [], [], {1: [], 2: []}
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        wall, rc, out = in_process(magicfiber.cli.main, serial)
        checked(rc, out)
        untraced.append(wall)
        # Two traced runs in the first round, for the count self-check.
        for _ in range(2 if not traced else 1):
            tracer = Tracer("magicfiber", tol)
            with tracer.installed():
                wall, rc, out = in_process(magicfiber.cli.main, serial)
            checked(rc, out)
            traced.append((wall, tracer))
        for jobs in (1, 2):
            proc = cli(with_jobs(args, jobs))
            checked(proc.returncode, proc.stdout)
            pool[jobs].append(proc)
        if time.perf_counter() - t_start + (time.perf_counter() - t_round) > seconds:
            break

    counts = traced[0][1].counts()
    for _, tracer in traced[1:]:
        if tracer.counts() != counts:
            failures.append(f"traced runs disagree on counts: {counts} != {tracer.counts()}")
            break

    def med(fn):
        """Median over the traced runs of fn(wall, tracer)."""
        return statistics.median(fn(wall, t) for wall, t in traced)

    def share(layer):
        return med(lambda wall, t: t.self_s[layer] / wall)

    def suite_share(name):
        return med(lambda wall, t: t.suite_s[name] / wall)

    def pct(q):
        def ms(wall, t):
            lat = t.root_latencies
            return 1e3 * (statistics.quantiles(lat, n=100, method="inclusive")[q - 1] if len(lat) > 1 else lat[0])
        return med(ms)

    iso = counts["roots.isolations"]
    med_wall = statistics.median(w for w, _ in traced)
    metrics = {
        "kernel.calls": (counts["kernel.calls"], "count"),
        "kernel.self_s": (med(lambda wall, t: t.self_s["kernel"]), "s"),
        "kernel.terms": (counts["kernel.terms"], "count"),
        "kernel.max_prec_bits": (counts["kernel.max_prec_bits"], "bits"),
        "kernel.mults_computed": (counts["kernel.mults_computed"], "count"),
        "kernel.escalations": (counts["kernel.escalations"], "count"),
        "kernel.pow_calls": (counts["kernel.pow_calls"], "count"),
        "roots.isolations": (iso, "count"),
        "roots.self_s": (med(lambda wall, t: t.self_s["roots"]), "s"),
        "roots.kernel_calls_per_root": (counts["kernel.calls"] / iso, "calls/root"),
        "roots.distinct_share": (counts["roots.distinct"] / iso, "share"),
        "roots.refine_isolations": (counts["roots.refine_isolations"], "count"),
        "roots.p50_ms": (pct(50), "ms"),
        "roots.p99_ms": (pct(99), "ms"),
        "family.rows": (counts["family.rows"], "count"),
        "family.self_share": (share("family"), "share"),
        "asymptotics.self_share": (share("asymptotics"), "share"),
        "asymptotics.pow_cmp_calls": (counts["asymptotics.pow_cmp_calls"], "count"),
        "sturm.calls": (counts["sturm.calls"], "count"),
        "sturm.self_share": (share("sturm"), "share"),
        "homology.calls": (counts["homology.calls"], "count"),
        "homology.self_share": (share("homology"), "share"),
        "polynomials.calls": (counts["polynomials.calls"], "count"),
        "polynomials.self_s": (med(lambda wall, t: t.self_s["polynomials"]), "s"),
        "cli.emit_s": (med(lambda wall, t: t.self_s["cli"]), "s"),
        "pool.speedup": (
            statistics.median(p.wall_s for p in pool[1]) / statistics.median(p.wall_s for p in pool[2]),
            "ratio",
        ),
        "pool.cpu_overhead": (
            statistics.median(p.cpu_s for p in pool[2]) / statistics.median(p.cpu_s for p in pool[1]),
            "ratio",
        ),
        "trace.wall_s": (med_wall, "s"),
        "trace.overhead": (med_wall / statistics.median(untraced), "ratio"),
    }
    for suite in ("roots", "identity", "topology", "rootcount", "star"):
        metrics[f"verify.{suite}_share"] = (suite_share(suite), "share")
    return metrics, attempted, failures, magicfiber.KERNEL_BACKEND


def write_reference() -> None:
    """Record the certified fields of every workload input as the reference."""
    ref = {}
    for workload in WORKLOADS:
        ref[workload] = {}
        for genus in genus_order(workload, 0):
            proc = cli(workload_args(workload, genus))
            if proc.returncode != 0:
                raise SystemExit(f"{workload} g={genus} exited {proc.returncode}:\n{proc.stderr}")
            ref[workload][reference_key(genus)] = digest(workload, json.loads(proc.stdout))
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the reference from the current code and exit")
    opts = ap.parse_args()
    if not (SRC / "magicfiber" / "cli.py").is_file():
        print(f"error: no magicfiber sources under {SRC}", file=sys.stderr)
        return 2
    if opts.write_reference:
        write_reference()
        return 0
    if opts.workload is None:
        ap.error("--workload is required")

    with open(HERE / "reference.json") as fh:
        checker = OutputChecker(json.load(fh))
    ticks0 = cpu_ticks()
    measure = measure_layers if opts.trace else measure_end_to_end
    metrics, attempted, failures, backend = measure(opts.workload, opts.seed, opts.seconds, checker)
    ticks1 = cpu_ticks()

    for why in failures:
        print(f"FAILED: {why}", file=sys.stderr)
    print("machine " + json.dumps(machine(backend, ticks0, ticks1), sort_keys=True))
    print(f"{opts.workload} seed={opts.seed} trace={opts.trace} order={genus_order(opts.workload, opts.seed)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  {'error_rate':28s} {len(failures) / attempted:.6g} failed/attempted")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
