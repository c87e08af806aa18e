"""In-process layer tracer for magicfiber, applied from outside the package.

``Tracer.installed()`` replaces each layer's public functions with timing
wrappers in every ``magicfiber`` module that binds them (``roots`` binds
``eval_enclosure``, ``family`` binds ``unique_root_gt1``, and so on), and
puts the originals back on exit.  No file under ``src/`` is touched.

A span's self time is its duration minus the time covered by wrapped calls
made inside it; the tracer's own bookkeeping is charged to nobody.
Counts are deterministic: they depend on the inputs, never on the machine.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# layer name -> (module, function names); the public functions of each layer.
LAYERS = {
    "kernel": ("_kernel", ["eval_enclosure", "pow_enclosure"]),
    "roots": ("roots", ["unique_root_gt1", "evaluate_certified", "as_dyadic"]),
    "polynomials": ("polynomials", ["make_poly", "dilatation_poly", "family_poly", "sign_variations"]),
    "homology": ("homology", [
        "thurston_norm", "in_fibered_cone", "is_primitive", "boundary_counts",
        "fiber_data", "euler_poincare_check", "as_fibered_class",
    ]),
    "sturm": ("sturm", ["sturm_count"]),
    "family": ("family", [
        "family_class", "family_fiber_data", "no_one_prong", "family_dilatation",
        "filled_variants", "condition_star", "condition_star_brute",
        "condition_star_star", "bound_row", "upper_bound_table",
    ]),
    "asymptotics": ("asymptotics", ["b_family", "bracket_check", "ratio_table", "_dyadic_pow_cmp"]),
    "cli": ("cli", ["_emit"]),
}


def _pow_mults(e: int) -> int:
    """Big-integer multiplies of the kernel's binary powering for exponent e.

    Each squaring and each multiply into the result works on a [lo, hi] pair,
    so it costs two multiplies.  Computed from the exponent's bits.
    """
    if e <= 1:
        return 0
    return 2 * (e.bit_length() - 1) + 2 * (e.bit_count() - 1)


class Tracer:
    """Per-layer self time and deterministic counts for one traced run."""

    def __init__(self, package: str, run_tol: Fraction):
        self.package = package
        self.run_tol = run_tol
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.suite_s: dict[str, float] = defaultdict(float)
        self.root_latencies: list[float] = []
        self.root_keys: set = set()
        self.refine_isolations = 0
        self.kernel_terms = 0
        self.kernel_mults = 0
        self.max_prec = 0
        self.escalations = 0
        self._last_point = None
        self._mults_cache: dict[tuple, int] = {}
        self._stack: list[list] = []  # [child time, layer] per open span

    def _wrap(self, fn, layer: str, hook=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                if not stack or stack[-1][1] != layer:
                    calls[layer] += 1  # entries into the layer, not calls within it
                if hook is not None:
                    hook(dt, args, kwargs)
                if stack:
                    stack[-1][0] += time.perf_counter() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    # hooks: called after the span closes, outside every layer's self time

    def _on_eval(self, dt, args, kwargs):
        exps, _coeffs, tnum, tk, prec = args
        self.calls["kernel.eval"] += 1
        self.kernel_terms += len(exps)
        key = tuple(exps)
        mults = self._mults_cache.get(key)
        if mults is None:
            mults = self._mults_cache[key] = sum(_pow_mults(e) for e in exps)
        self.kernel_mults += mults
        self.max_prec = max(self.max_prec, prec)
        last = self._last_point
        if last is not None and last[0] is exps and last[1] == tnum and last[2] == tk and prec > last[3]:
            self.escalations += 1
        self._last_point = (exps, tnum, tk, prec)

    def _on_pow(self, dt, args, kwargs):
        _tnum, _tk, e, prec = args
        self.calls["kernel.pow"] += 1
        self.kernel_mults += _pow_mults(e)
        self.max_prec = max(self.max_prec, prec)

    def _on_isolate(self, dt, args, kwargs):
        f = args[0]
        tol = args[1] if len(args) > 1 else kwargs.get("tol")
        tol = Fraction(tol) if tol is not None else None
        self.calls["roots.isolations"] += 1
        self.root_latencies.append(dt)
        self.root_keys.add((f.terms, tol))
        if tol is not None and tol < self.run_tol:
            self.refine_isolations += 1

    def _counter(self, name):
        def hook(dt, args, kwargs):
            self.calls[name] += 1
        return hook

    def _suite(self, name):
        def hook(dt, args, kwargs):
            self.suite_s[name] += dt
        return hook

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function where it is bound; restore on exit."""
        hooks = {
            "eval_enclosure": self._on_eval,
            "pow_enclosure": self._on_pow,
            "unique_root_gt1": self._on_isolate,
            "bound_row": self._counter("family.rows"),
            "_dyadic_pow_cmp": self._counter("asymptotics.pow_cmp"),
        }
        wrappers = {}
        for layer, (mod, names) in LAYERS.items():
            owner = importlib.import_module(f"{self.package}.{mod}")
            for name in names:
                fn = getattr(owner, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, hooks.get(name)))
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package or n.startswith(self.package + ".")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patched.append((module, name, value))
                    setattr(module, name, wrappers[id(value)][1])
        suites = importlib.import_module(f"{self.package}.verify").SUITES
        saved_suites = dict(suites)
        for name, fn in saved_suites.items():
            suites[name] = self._wrap(fn, "verify", self._suite(name))
        try:
            yield self
        finally:
            suites.update(saved_suites)
            for module, name, value in patched:
                setattr(module, name, value)

    def counts(self) -> dict[str, int]:
        """The deterministic counts of the run."""
        return {
            "kernel.calls": self.calls["kernel.eval"],
            "kernel.terms": self.kernel_terms,
            "kernel.max_prec_bits": self.max_prec,
            "kernel.mults_computed": self.kernel_mults,
            "kernel.escalations": self.escalations,
            "kernel.pow_calls": self.calls["kernel.pow"],
            "roots.isolations": self.calls["roots.isolations"],
            "roots.distinct": len(self.root_keys),
            "roots.refine_isolations": self.refine_isolations,
            "family.rows": self.calls["family.rows"],
            "asymptotics.pow_cmp_calls": self.calls["asymptotics.pow_cmp"],
            "sturm.calls": self.calls["sturm"],
            "homology.calls": self.calls["homology"],
            "polynomials.calls": self.calls["polynomials"],
        }
