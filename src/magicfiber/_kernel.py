"""The dyadic interval-evaluation kernel.

A polynomial is evaluated by one Horner pass over its terms, from the
leading one down, so each step multiplies by t**gap, where gap is the
difference of two neighbouring exponents, and each distinct gap is powered
once per call, by binary powering.  This pays off because every dilatation
polynomial t**(x+y-z) - t**x - t**y - t**(x-z) - t**(y-z) + 1 is a
palindrome (f(t) = t**deg * f(1/t)): its exponents pair up as e and
deg - e, so its gaps mirror each other (d1, d2, d3, d2, d1 for six terms)
and at most three are distinct; the paper's family has two, 2g+1 and p-g.
Near t = 1 the leading partial sums cancel while they are still small,
before the large powers scale them, so deep points of high-degree
polynomials certify at less precision than powering each term alone.
Horner needs the exponents strictly decreasing and nonnegative; the kernel
checks that as it goes.

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
    [lo / 2**prec, hi / 2**prec], and (0, 0) for no terms.  Requires
    tnum > 0, tk >= 0 and strictly decreasing, nonnegative exponents (the
    order of ``SparsePoly`` terms); anything else raises ``ValueError``.

    One Horner pass from the leading term: the accumulator starts at
    coeffs[0], and at each next exponent (0 after the last term) it is
    multiplied by the enclosure of t**gap, the gap to that exponent, before
    the next coefficient is added exactly.  Each distinct gap is powered
    once per call.
    """
    if not exps:
        return 0, 0
    t_lo, t_hi = _base_interval(tnum, tk, prec)
    powers = {}
    lo = hi = coeffs[0] << prec
    prev = exps[0]
    n = len(exps)
    for i in range(1, n + 1):
        e, c = (exps[i], coeffs[i]) if i < n else (0, 0)
        gap = prev - e
        if gap < 0 or (gap == 0 and i < n):
            raise ValueError("exponents must be strictly decreasing and nonnegative")
        if gap:
            p = powers.get(gap)
            if p is None:
                p = powers[gap] = _pow_enclosure(t_lo, t_hi, gap, prec)
            plo, phi = p
            # plo >= 0, so these are the least and the greatest of the four
            # end products, rounded outward
            lo = (lo * (plo if lo >= 0 else phi)) >> prec
            hi = -((-hi * (phi if hi >= 0 else plo)) >> prec)
        lo += c << prec
        hi += c << prec
        prev = e
    return lo, hi


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
