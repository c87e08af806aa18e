"""Fixtures shared by the test modules."""

import pytest

from magicfiber import roots


class KernelCalls(list):
    """(tnum, tk, prec) of each ``roots.eval_enclosure`` call, in order.

    A call is recorded before the kernel runs.  ``guard``, when set, is
    called with the same three values first, so a test can refuse a point
    before the kernel builds its integers.
    """

    guard = None


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record every certified evaluation made through ``roots``."""
    calls = KernelCalls()
    kernel = roots.eval_enclosure

    def recording(exps, coeffs, tnum, tk, prec):
        if calls.guard is not None:
            calls.guard(tnum, tk, prec)
        calls.append((tnum, tk, prec))
        return kernel(exps, coeffs, tnum, tk, prec)

    monkeypatch.setattr(roots, "eval_enclosure", recording)
    return calls
