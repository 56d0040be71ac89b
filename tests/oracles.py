"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute force: plain truncated series in
extended precision, trapezoid convolution on dense grids.  None of it shares
code with the package under test.
"""

from __future__ import annotations

import math

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


def _compositions(k: int, m: int):
    """The m-tuples of non-negative integers summing to k, lexicographic."""
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, m - 1):
            yield (first, *rest)


def mp_mml(beta0, betas, zs, shells: int = 400, dps: int = 60) -> float:
    """Multinomial Mittag-Leffler function by brute-force summation, shell by
    shell, each term k!/(k_1! ... k_m!) prod z_j**k_j / Gamma(beta0 + sum
    beta_j k_j) formed on its own.

    Raises ArithmeticError when `shells` or `dps` do not certify the value.
    """
    assert len(betas) == len(zs) >= 1
    with mpmath.workdps(dps):
        b0 = mpmath.mpf(beta0)
        bs = [mpmath.mpf(b) for b in betas]
        zz = [mpmath.mpf(z) for z in zs]
        total = peak = shell = mpmath.mpf(0)
        for k in range(shells + 1):
            shell = mpmath.mpf(0)
            for comp in _compositions(k, len(bs)):
                term = mpmath.mpf(math.factorial(k) // math.prod(map(math.factorial, comp)))
                for z, kj in zip(zz, comp):
                    term *= z**kj
                term /= mpmath.gamma(sum((b * kj for b, kj in zip(bs, comp)), b0))
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
