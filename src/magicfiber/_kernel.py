"""The dyadic interval-evaluation kernel.

All rounding is floor/ceil on exact integers, never floats, so enclosures
are bit-reproducible on every machine.
"""

__all__ = ["eval_enclosure", "pow_enclosure"]


def _base_interval(tnum, tk, prec):
    # exact when prec >= tk, otherwise the point itself is rounded outward
    if prec >= tk:
        t = tnum << (prec - tk)
        return t, t
    sh = tk - prec
    return tnum >> sh, -((-tnum) >> sh)


def eval_enclosure(exps, coeffs, tnum, tk, prec):
    """Enclose sum(coeffs[i] * t**exps[i]) at t = tnum / 2**tk > 0.

    Returns integers (lo, hi) with the exact value inside
    [lo / 2**prec, hi / 2**prec].  Requires tnum > 0, tk >= 0 and
    nonnegative exponents (``SparsePoly`` guarantees the last).
    """
    t_lo, t_hi = _base_interval(tnum, tk, prec)
    acc_lo = 0
    acc_hi = 0
    for i in range(len(exps)):
        plo, phi = _pow_enclosure(t_lo, t_hi, exps[i], prec)
        c = coeffs[i]
        if c >= 0:
            acc_lo += c * plo
            acc_hi += c * phi
        else:
            acc_lo += c * phi
            acc_hi += c * plo
    return acc_lo, acc_hi


def pow_enclosure(tnum, tk, e, prec):
    """Enclose (tnum / 2**tk) ** e for e >= 0; same representation as eval_enclosure."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    t_lo, t_hi = _base_interval(tnum, tk, prec)
    return _pow_enclosure(t_lo, t_hi, e, prec)


def _pow_enclosure(blo, bhi, e, prec):
    # Binary powering on [lo, hi] intervals of nonnegative scaled integers,
    # rounding lo down and hi up at every multiplication.
    if e == 0:
        one = 1 << prec
        return one, one
    rlo = rhi = 0
    have = False
    while True:
        if e & 1:
            if not have:
                rlo, rhi = blo, bhi
                have = True
            else:
                rlo = (rlo * blo) >> prec
                rhi = -((-(rhi * bhi)) >> prec)
        e >>= 1
        if not e:
            return rlo, rhi
        blo, bhi = (blo * blo) >> prec, -((-(bhi * bhi)) >> prec)
