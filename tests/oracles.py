"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force: plain truncated series in
extended precision, trapezoid convolution on dense grids.  None of it shares
code with the package under test.
"""

from __future__ import annotations

import mpmath
import numpy as np


def _certified(total, last, peak, dps: int, what: str) -> float:
    """float(total) once the tail and the cancellation are both negligible.

    The sum is certified when its last term is below 1e-17 of |total| (the
    truncation) and when its largest term, times the working precision
    10^-dps, is too (the digits lost to cancellation).  Otherwise raise: an
    oracle that returns an uncertified value freezes a wrong expectation.
    """
    bound = mpmath.mpf("1e-17") * abs(total)
    if not last < bound:
        raise ArithmeticError(f"{what}: last term {float(last):.3e} not below 1e-17 of the sum")
    if not peak * mpmath.mpf(10) ** (-dps) < bound:
        raise ArithmeticError(
            f"{what}: peak term {float(peak):.3e} loses the sum to cancellation at {dps} digits"
        )
    return float(total)


def mp_ml2(alpha, beta, z, terms: int = 400, dps: int = 60) -> float:
    """Two-parameter Mittag-Leffler by brute-force extended-precision series.

    Raises ArithmeticError when `terms` or `dps` do not certify the value.
    """
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        zz = mpmath.mpf(z)
        total = peak = term = mpmath.mpf(0)
        for k in range(terms + 1):
            term = zz**k / mpmath.gamma(a * k + b)
            total += term
            peak = max(peak, abs(term))
        return _certified(total, abs(term), peak, dps, f"mp_ml2({alpha}, {beta}, {z})")


def mp_mml(beta0, betas, zs, shells: int = 400, dps: int = 60) -> float:
    """Multinomial Mittag-Leffler (two arguments) by brute-force summation.

    Raises ArithmeticError when `shells` or `dps` do not certify the value.
    """
    assert len(betas) == len(zs) == 2
    with mpmath.workdps(dps):
        b0 = mpmath.mpf(beta0)
        b1, b2 = (mpmath.mpf(b) for b in betas)
        z1, z2 = (mpmath.mpf(z) for z in zs)
        total = peak = shell = mpmath.mpf(0)
        for k in range(shells + 1):
            shell = mpmath.mpf(0)
            for k1 in range(k + 1):
                k2 = k - k1
                term = (
                    mpmath.binomial(k, k1)
                    * z1**k1
                    * z2**k2
                    / mpmath.gamma(b0 + b1 * k1 + b2 * k2)
                )
                shell += term
                peak = max(peak, abs(term))
            total += shell
        return _certified(total, abs(shell), peak, dps, f"mp_mml({beta0}, {betas}, {zs})")


def trapezoid_convolution(kernel, sigma, t: float, n: int = 10_000) -> float:
    """integral_0^t sigma(t - s) kernel(s) ds on a log-graded grid.

    The grid concentrates near s = 0 where the kernel carries an integrable
    singularity; the [0, s_min] sliver is dropped (negligible for the spans
    used in the tests).
    """
    s = np.geomspace(t * 1e-12, t, n)
    vals = np.array([kernel(float(x)) * sigma(t - float(x)) for x in s])
    return float(np.trapezoid(vals, s))


def central_difference(f, x: np.ndarray, rel_step: float = 1e-7) -> np.ndarray:
    """Central-difference gradient with relative steps."""
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        h = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g
