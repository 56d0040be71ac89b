"""Spectral forward model.

Assembles boundary time traces g(t) and Laplace-domain traces from a list of
eigenmodes.  Each mode carries one fused weight w_n: the product of the
expansion coefficient of the datum (initial value or source profile) and the
boundary trace of the eigenfunction at the observation point.  For the
cosine-product examples below every eigenfunction equals one at the corner,
so w_n is just the raw expansion coefficient.

The trace reads the problem only through these modes, so the boundary
values recovered next to the orders are sums over them too: u0(x0) = g(0+)
= sum w_n and Au0(x0) = sum lambda_n w_n for initial data, and f(x0) =
sum w_n for a source.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from fracorder.specfun import (
    DomainError,
    OrderSpec,
    _check_source_exponent,
    _hyperbola_integral,
    _transform_at,
    s1_kernel_series,
    s2_kernel_int_series,
)

__all__ = [
    "Case",
    "SpectralProblem",
    "TraceSample",
    "trace_initial",
    "trace_source",
    "laplace_trace",
    "build_example_4_1",
    "build_example_4_2",
    "sample_trace",
]

PI2 = math.pi * math.pi


class Case(enum.Enum):
    INITIAL_DATA = "initial-data"
    SOURCE = "source"


def _shift(case: Case, a: float) -> float:
    """The source exponent a, the shift of the exponents: a in [0, 1] in the
    source case, and a = 0 on initial data, which has none."""
    if case is Case.INITIAL_DATA and a != 0.0:
        raise DomainError(f"the initial-data case has no source exponent, got a = {a!r}")
    _check_source_exponent(a)
    return a


@dataclass(frozen=True)
class SpectralProblem:
    """Eigenvalues with fused boundary weights, and the source case's time
    exponent a (the time factor s^a / Gamma(a+1))."""

    modes: tuple[tuple[float, float], ...]
    case: Case
    source_exponent: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.case, Case):
            raise DomainError(f"case must be a Case, got {self.case!r}")
        object.__setattr__(
            self, "modes", tuple((float(l), float(w)) for l, w in self.modes)
        )
        lams = [l for l, _ in self.modes]
        if not lams:
            raise DomainError("at least one mode is required")
        if not all(0.0 < l < math.inf for l in lams):
            raise DomainError(f"eigenvalues must be positive and finite, got {lams}")
        if any(lams[i] > lams[i + 1] for i in range(len(lams) - 1)):
            raise DomainError("eigenvalues must be nondecreasing")
        if not all(math.isfinite(w) for _, w in self.modes):
            raise DomainError(f"mode weights must be finite, got {[w for _, w in self.modes]}")
        _shift(self.case, self.source_exponent)


@dataclass(frozen=True)
class TraceSample:
    """Observation grid on (0, T0] with trace values."""

    times: np.ndarray
    values: np.ndarray
    T0: float

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
            raise DomainError("times and values must be 1-d arrays of equal length")
        if len(t) == 0:
            raise DomainError("empty sample")
        for name, arr in (("time", t), ("value", v)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise DomainError(f"{name} {arr[bad[0]]} at index {bad[0]} is not finite")
        if not 0.0 < self.T0 < math.inf:
            raise DomainError(f"T0 must be positive and finite, got {self.T0}")
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise DomainError("times must be strictly increasing and positive")
        if t[-1] > self.T0 * (1.0 + 1e-12):
            raise DomainError("times must not exceed T0")

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# pointwise trace evaluation
# ---------------------------------------------------------------------------


def _kernel_exponent(problem: SpectralProblem) -> float | None:
    """The a of the modes' kernels: None (S1) on initial data, else the source exponent."""
    return None if problem.case is Case.INITIAL_DATA else problem.source_exponent


def _as_times(t) -> tuple[np.ndarray, bool]:
    """t as a 1-d array of positive finite times, and whether it was a scalar."""
    times = np.asarray(t, dtype=float)
    scalar = times.ndim == 0
    times = np.atleast_1d(times)
    if times.ndim != 1 or times.size == 0:
        raise DomainError(f"t must be a float or a non-empty 1-d array, got shape {times.shape}")
    bad = np.flatnonzero(~((times > 0.0) & (times < math.inf)))
    if bad.size:
        raise DomainError(f"t must be positive and finite, got {times[bad[0]]}")
    return times, scalar


def _mode_sum(
    problem: SpectralProblem, spec: OrderSpec, t: float | np.ndarray, method: str
) -> tuple[list[float], bool]:
    """sum_n w_n K_n(t), where K_n is each mode's kernel (S1 for initial data,
    else the convolution of S2 with s^a / Gamma(a+1)), for the problem's
    eigenvalues and the orders with their weights as given, at t: a float or
    a 1-d array of times.  Returns the sum per time, and whether t was a
    scalar.  Each mode's products w_n K_n form one column, and each time's
    sum is the math.fsum of its row.

    Each distinct eigenvalue is evaluated once per time.  method "series"
    calls specfun's series kernel time by time, the largest eigenvalue first:
    |z| grows with lambda, so the worst arguments come first, and one beyond
    Z_MAX raises before any sum.  "auto" takes every value from
    the Weideman-Trefethen hyperbola quadrature of the Laplace transform
    (no series and no extended precision; S1 and the S2 convolutions lie
    within 2.3e-12 of a Talbot inversion on the figure grid), at any t > 0,
    with one vectorized call over all times per distinct eigenvalue.
    """
    times, scalar = _as_times(t)
    a = _kernel_exponent(problem)
    distinct = dict.fromkeys(lam for lam, _ in problem.modes)
    if method == "series":
        kernel = {lam: [] for lam in distinct}
        # a scalar t goes to the series as given; the eigenvalues ascend
        for ti in [t] if scalar else times:
            for lam in reversed(distinct):
                if a is None:
                    kernel[lam].append(s1_kernel_series(lam, spec, ti))
                else:
                    kernel[lam].append(s2_kernel_int_series(lam, spec, a, ti))
        columns = [[w * k for k in kernel[lam]] for lam, w in problem.modes]
    elif method == "auto":
        kernel = {lam: _hyperbola_integral(lam, spec, times, a) for lam in distinct}
        columns = [(w * kernel[lam]).tolist() for lam, w in problem.modes]
    else:
        raise DomainError(f"unknown method {method!r}; expected 'series' or 'auto'")
    return list(map(math.fsum, zip(*columns))), scalar


def trace_initial(
    problem: SpectralProblem, spec: OrderSpec, t: float | np.ndarray, *, method: str = "series"
) -> float | np.ndarray:
    """g(t) for the initial-datum case: sum of w_n S1(t; lambda_n), at a
    float t (a float result) or a 1-d array of times (an array).  method is
    "series" or "auto" (see _mode_sum)."""
    if problem.case is not Case.INITIAL_DATA:
        raise DomainError("trace_initial requires an initial-data problem")
    g, scalar = _mode_sum(problem, spec, t, method)
    return g[0] if scalar else np.array(g)


def trace_source(
    problem: SpectralProblem, spec: OrderSpec, t: float | np.ndarray, *, method: str = "series"
) -> float | np.ndarray:
    """g(t) for the source case with power-law time factor
    sigma(s) = s^a / Gamma(a+1), at a float t or a 1-d array of times.
    method is "series" or "auto" (see _mode_sum)."""
    if problem.case is not Case.SOURCE:
        raise DomainError("trace_source requires a source problem")
    g, scalar = _mode_sum(problem, spec, t, method)
    return g[0] if scalar else np.array(g)


def laplace_trace(problem: SpectralProblem, spec: OrderSpec, p: float) -> float:
    """Laplace transform of the boundary trace at real p > 0, from specfun's _transform_at."""
    if not p > 0.0:
        raise DomainError(f"p must be positive, got {p}")
    num, den = _transform_at(spec, p, _kernel_exponent(problem))
    return math.fsum(w * num / (lam + den) for lam, w in problem.modes)


# ---------------------------------------------------------------------------
# example problems
# ---------------------------------------------------------------------------


def build_example_4_1(orders: OrderSpec | None = None) -> SpectralProblem:
    """Interval problem whose initial datum is an eigenfunction: one mode at
    lambda = pi^2 + 1 with unit weight, observed at the left endpoint."""
    if orders is not None:
        if orders.n > 2:
            raise DomainError("the single-mode example uses at most two orders")
        if abs(orders.weights[-1] - 1.0) > 1e-12:
            raise DomainError("the leading weight must be normalized to 1")
    return SpectralProblem(modes=((PI2 + 1.0, 1.0),), case=Case.INITIAL_DATA)


def build_example_4_2(case: str) -> SpectralProblem:
    """Square-domain cosine problems observed at the corner.

    Case "i": initial datum with modes at 2 pi^2, 5 pi^2 (twice), 8 pi^2.
    Case "ii": separable source with unit time factor (a = 0).
    """
    if case == "i":
        modes = (
            (2.0 * PI2, 1.0),
            (5.0 * PI2, 0.25),
            (5.0 * PI2, 0.25),
            (8.0 * PI2, 0.125),
        )
        return SpectralProblem(modes=modes, case=Case.INITIAL_DATA)
    if case == "ii":
        modes = (
            (2.0 * PI2, 1.0),
            (5.0 * PI2, 0.5),
            (5.0 * PI2, 0.5),
            (10.0 * PI2, 0.25),
            (10.0 * PI2, 0.25),
        )
        return SpectralProblem(modes=modes, case=Case.SOURCE)
    raise DomainError(f"unknown case {case!r}; expected 'i' or 'ii'")


def sample_trace(problem: SpectralProblem, spec: OrderSpec, T0: float, n: int) -> TraceSample:
    """Uniform open grid t_k = k T0 / n, k = 1..n (t = 0 excluded), sampled
    by the series route, the last time first: |z| grows with t, so the worst
    arguments come first, and one beyond Z_MAX raises before any other time
    is summed.  The values are returned in ascending time order."""
    try:
        n = operator.index(n)  # a float n would shift the grid past T0
    except TypeError:
        raise DomainError(f"n must be an integer, got {n!r}") from None
    if n < 2:
        raise DomainError(f"need n >= 2 grid points, got {n}")
    if not 0.0 < T0 < math.inf:
        raise DomainError(f"T0 must be positive and finite, got {T0}")
    times = np.arange(1, n + 1) * (T0 / n)
    trace = trace_initial if problem.case is Case.INITIAL_DATA else trace_source
    last = trace(problem, spec, times[-1])
    values = np.array([trace(problem, spec, t) for t in times[:-1]] + [last])
    return TraceSample(times, values, T0=T0)
