"""Box-constrained nonlinear least-squares recovery of (c, beta).

`minimize` and `recover` return the fitted (c, beta) only; the models
module maps them to orders, weight ratio and amplitude.  A two-term
`recover` that falls back to one term reads as a zero trailing amplitude.

The driver is a hand-rolled projected limited-memory BFGS: two-loop recursion
for the search direction, projection of trial points onto the exponent box
[0.01, 1.99] (one fixed box for every term of every fit), backtracking line
search with sufficient decrease along the projected path, and an alternation
step that re-solves the amplitudes by linear least squares whenever the
exponents have drifted.  Trial points evaluate the objective only, computing
the powers t**beta_i once.  The gradient, the model Jacobian (which the
`model-jacobian-vs-fd` check audits) times the residual, is formed at the
start, at each accepted point and at an accepted re-solve, from that point's
powers (and, for the rational kinds, its denominator) and one ln t per fit.
Each memory pair keeps its curvature scalars.

The reported objective is the quadrature form

    J = (1/2) (T0/n) sum_k (g(t_k) - f(t_k))^2 .

Internally the optimizer works on J divided by (T0 * Var(g)), a constant
positive multiple with the same minimizers.  Without that normalization a
fixed gradient tolerance would be meaningless across time horizons spanning
seven decades: at T0 = 1e-8 the raw objective and its gradient are of order
1e-20 at the starting point already.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from fracorder.forward import Case, TraceSample
from fracorder.models import (
    Kind,
    ModelParams,
    _eval_arrays,
    _grad_arrays,
    n_coeffs,
    n_head,
)
from fracorder.specfun import DomainError

__all__ = [
    "FitConfig",
    "FitResult",
    "RankDeficiencyError",
    "NumericsError",
    "objective",
    "linear_init",
    "minimize",
    "recover",
]

# line search constants: halving factor, sufficient-decrease slope, max halvings
_LS_FACTOR = 0.5
_LS_C1 = 1e-4
_LS_MAX = 40
# exponent drift (per coordinate) that triggers a linear re-solve of c
_REINIT_DRIFT = 0.05
_COND_LIMIT = 1e12
# the closed box every exponent is fitted in
_BETA_LO, _BETA_HI = 0.01, 1.99
# L-BFGS memory, projected-gradient stopping tolerance, and the smallest gap
# kept between exponents
_MEMORY = 10
_GRAD_TOL = 1e-10
_MIN_GAP = 1e-3
# smallest peak contribution of the trailing term, relative to the leading
# term, for the trailing term to count as resolved by the data
_SECOND_TERM_MIN_REL = 0.03


class RankDeficiencyError(ValueError):
    """Design matrix numerically rank deficient for the requested exponents."""


class NumericsError(ArithmeticError):
    """Objective evaluated to NaN/Inf where a finite value is required."""


@dataclass(frozen=True)
class FitConfig:
    """One fit: the model shape, and one starting exponent per power term."""

    kind: Kind
    case: Case
    beta_init: tuple[float, ...]
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind) or not isinstance(self.case, Case):
            raise DomainError(
                f"kind must be a Kind and case a Case, got {self.kind!r}, {self.case!r}"
            )
        object.__setattr__(self, "beta_init", tuple(float(b) for b in self.beta_init))
        # a bool is an int, and a float such as NaN or 2.5 slips past the
        # range check below
        if not isinstance(self.max_iter, int) or isinstance(self.max_iter, bool):
            raise DomainError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.n_terms not in (1, 2):
            raise DomainError(f"beta_init must hold one or two exponents, got {self.beta_init}")
        for b in self.beta_init:
            if not _BETA_LO <= b <= _BETA_HI:
                raise DomainError(
                    f"beta_init {b} outside the exponent box [{_BETA_LO}, {_BETA_HI}]"
                )
        if self.max_iter < 1:
            raise DomainError("max_iter must be positive")

    @property
    def n_terms(self) -> int:
        return len(self.beta_init)


@dataclass(frozen=True)
class FitResult:
    """A fit: its params, objective J, iterations (both stages' for a
    one-term fallback), the optimizer's own converged flag and the history
    of J over accepted points."""

    params: ModelParams
    objective: float
    iterations: int
    converged: bool
    history: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def objective(sample: TraceSample, params: ModelParams) -> float:
    """Quadrature discretization of the squared L2(0, T0) misfit."""
    n = len(sample)
    powers = [sample.times**b for b in params.beta]
    f, _ = _eval_arrays(params.kind, params.case, params.c, powers)
    r = f - sample.values
    return 0.5 * (sample.T0 / n) * float(r @ r)


# ---------------------------------------------------------------------------
# linear amplitude initialization
# ---------------------------------------------------------------------------


def _lstsq_columns(columns: list[np.ndarray], y: np.ndarray, beta):
    design = np.column_stack(columns)
    norms = np.sqrt(np.sum(design * design, axis=0))
    norms[norms == 0.0] = 1.0
    scaled = design / norms
    cond = float(np.linalg.cond(scaled))
    gaps = np.diff(np.asarray(beta, dtype=float))
    if cond > _COND_LIMIT and len(gaps) and float(np.min(gaps)) < _MIN_GAP:
        raise RankDeficiencyError(
            f"exponents {tuple(beta)} closer than {_MIN_GAP} give condition "
            f"number {cond:.3e}"
        )
    coef, *_ = np.linalg.lstsq(scaled, y, rcond=None)
    return coef / norms


def linear_init(
    sample: TraceSample,
    beta: tuple[float, ...],
    kind: Kind,
    case: Case,
) -> np.ndarray:
    """Amplitudes for fixed exponents by (linearized) linear least squares.

    Polynomial kinds are solved exactly.  For the rational kinds the problem
    is linearized: initial data regresses 1/g - 1/c0 on the power columns
    with c0 estimated from the first sample; source regresses g / (cA - g)
    with cA taken from a preliminary polynomial fit.
    """
    t = sample.times
    g = sample.values
    powers = [t**b for b in beta]
    if kind is Kind.POLYNOMIAL:
        cols = [np.ones_like(t)] * n_head(kind, case) + powers
        return _lstsq_columns(cols, g, beta)
    if case is Case.INITIAL_DATA:
        c0 = float(g[0])
        if c0 == 0.0 or np.any(g == 0.0):
            raise RankDeficiencyError("rational initial-data regression needs g != 0")
        y = 1.0 / g - 1.0 / c0
        d = _lstsq_columns(powers, y, beta)
        # the regression fits D / c0, so rescale to the stored denominators
        return np.concatenate(([c0], c0 * d))
    # rational source: amplitude scale from a preliminary polynomial fit
    cpoly = _lstsq_columns(list(powers), g, beta)
    ca = float(cpoly[0]) * math.gamma(beta[0] + 1.0)
    gmax = float(np.max(np.abs(g)))
    if gmax == 0.0:
        raise RankDeficiencyError("rational source regression needs nonzero data")
    ca = max(ca, (1.0 + 1e-3) * gmax)
    y = g / (ca - g)
    return np.concatenate(([ca], _lstsq_columns(powers, y, beta)))


# ---------------------------------------------------------------------------
# projected limited-memory BFGS
# ---------------------------------------------------------------------------


def _two_loop(grad: np.ndarray, memory) -> np.ndarray:
    """Two-loop recursion over pairs stored as (s, y, 1/(y.s), s.y, y.y)."""
    q = grad.copy()
    alphas = []
    for s, y, rho, _, _ in reversed(memory):
        a = rho * float(s.dot(q))
        alphas.append(a)
        q -= a * y
    if memory:
        _, _, _, sy, yy = memory[-1]
        q *= sy / yy
    for (s, y, rho, _, _), a in zip(memory, reversed(alphas)):
        b = rho * float(y.dot(q))
        q += (a - b) * s
    return q


def _sorted_exit_params(kind: Kind, case: Case, c: np.ndarray, beta: np.ndarray) -> ModelParams:
    """Sort exponents ascending (permuting their amplitudes) and enforce the
    minimum gap; the box keeps them inside the model's open (0, 2)."""
    nb = len(beta)
    h = n_head(kind, case)
    head = list(c[:h])
    amps = list(c[h:])
    order = sorted(range(nb), key=lambda i: beta[i])
    beta_sorted = [float(beta[i]) for i in order]
    amps_sorted = [float(amps[i]) for i in order]
    for i in range(1, nb):
        if beta_sorted[i] < beta_sorted[i - 1] + _MIN_GAP:
            beta_sorted[i] = beta_sorted[i - 1] + _MIN_GAP
    return ModelParams(kind, case, tuple(head + amps_sorted), tuple(beta_sorted))


def minimize(sample: TraceSample, config: FitConfig) -> FitResult:
    """Projected quasi-Newton fit of (c, beta) on the given sample."""
    kind, case = config.kind, config.case
    t, g = sample.times, sample.values
    nc = n_coeffs(kind, case, config.n_terms)

    # finite data whose scale overflows abort here, before numpy warns
    with np.errstate(over="ignore", invalid="ignore"):
        gbar = float(np.mean(g))
        var = float(np.mean((g - gbar) ** 2))
    norm = var if var > 0.0 else max(1.0, gbar * gbar)
    # pinned objective = jtilde * T0 * norm
    j_scale = sample.T0 * norm
    n_norm = len(sample) * norm
    if not (math.isfinite(gbar) and math.isfinite(n_norm)):
        raise NumericsError(f"variance scale of the data not finite (mean {gbar}, scale {norm})")
    lnt = np.log(t)

    def value(x: np.ndarray) -> tuple[float, tuple]:
        """Objective at x, and the residual, amplitudes, powers and power sum
        from which the point's Jacobian is built if it is accepted."""
        # the exponents stay numpy scalars: numpy takes a Python float
        # exponent of 0.5 or 2.0 through sqrt or square instead of pow
        c = x[:nc].tolist()
        powers = [t**b for b in x[nc:]]
        f, acc = _eval_arrays(kind, case, c, powers)
        r = f - g
        return 0.5 * float(r.dot(r)) / n_norm, (r, c, powers, acc)

    def gradient(point: tuple) -> np.ndarray:
        r, c, powers, acc = point
        return _grad_arrays(kind, case, c, powers, lnt, acc) @ r / n_norm

    beta0 = np.array(config.beta_init)
    c0 = linear_init(sample, tuple(beta0), kind, case)
    x = np.concatenate([c0, beta0])

    lo = np.concatenate([np.full(nc, -np.inf), np.full(config.n_terms, _BETA_LO)])
    hi = np.concatenate([np.full(nc, np.inf), np.full(config.n_terms, _BETA_HI)])

    jt, point = value(x)
    r, c, powers, acc = point
    # this Jacobian also sets the diagonal scaling below
    jac = _grad_arrays(kind, case, c, powers, lnt, acc)
    gx = jac @ r / n_norm
    if not math.isfinite(jt) or not np.all(np.isfinite(gx)):
        raise NumericsError(
            f"objective not finite at the initial point (beta={tuple(beta0)})"
        )

    # freeze a diagonal scaling from the Gauss-Newton diagonal at the start;
    # without it the amplitude and exponent directions differ by many decades
    diag = np.sqrt(np.mean(jac * jac, axis=1) / norm)
    dmax = float(np.max(diag)) if np.any(diag > 0.0) else 1.0
    scale = np.maximum(diag, max(1e-10 * dmax, 1e-12))

    y = x * scale
    lo_y, hi_y = lo * scale, hi * scale
    gy = gx / scale
    # the scalar tests below run on Python floats, where they are exact
    box = list(zip(lo_y.tolist(), hi_y.tolist()))

    def stationary(yv: np.ndarray, gv: np.ndarray, tol: float) -> bool:
        """max |y - clip(y - g)| < tol, the projected-gradient test."""
        return all(
            abs(yi - min(max(yi - gi, a), b)) < tol
            for yi, gi, (a, b) in zip(yv.tolist(), gv.tolist(), box)
        )

    memory = deque(maxlen=_MEMORY)
    history = [jt]
    beta_ref = x[nc:].tolist()
    iterations = 0
    converged = False
    line_search_failed = False

    while iterations < config.max_iter:
        if stationary(y, gy, _GRAD_TOL):
            converged = True
            break
        d = -_two_loop(gy, memory)
        dg = float(d.dot(gy))
        if not math.isfinite(dg) or dg > -1e-14 * (
            math.sqrt(d.dot(d)) * math.sqrt(gy.dot(gy))
        ):
            d = -gy
            memory.clear()
        alpha = 1.0
        accepted = False
        for _ in range(_LS_MAX):
            y_new = np.minimum(np.maximum(y + alpha * d, lo_y), hi_y)
            step = y_new - y
            if not any(step.tolist()):
                break
            x_new = y_new / scale
            jt_new, point_new = value(x_new)
            slope = min(0.0, float(gy.dot(step)))
            if math.isfinite(jt_new) and jt_new <= jt + _LS_C1 * slope:
                accepted = True
                break
            alpha *= _LS_FACTOR
        if not accepted:
            line_search_failed = True
            break
        gy_new = gradient(point_new) / scale
        y_vec = gy_new - gy
        sy = float(step.dot(y_vec))
        yy = float(y_vec.dot(y_vec))
        if sy > 1e-12 * (math.sqrt(step.dot(step)) * math.sqrt(yy)):
            memory.append((step, y_vec, 1.0 / sy, sy, yy))
        y, jt, gy = y_new, jt_new, gy_new
        iterations += 1
        history.append(jt)
        assert all(
            a - 1e-12 <= v <= b + 1e-12 for v, (a, b) in zip(y[nc:].tolist(), box[nc:])
        ), "exponent iterate escaped its box"

        beta_cur = x_new[nc:]
        if any(abs(b - b0) > _REINIT_DRIFT for b, b0 in zip(beta_cur.tolist(), beta_ref)):
            try:
                c_cand = linear_init(sample, tuple(beta_cur), kind, case)
            except RankDeficiencyError:
                c_cand = None
            if c_cand is not None and np.all(np.isfinite(c_cand)):
                x_try = np.concatenate([c_cand, beta_cur])
                jt_try, point_try = value(x_try)
                if math.isfinite(jt_try) and jt_try < jt:
                    y = x_try * scale
                    jt = jt_try
                    gy = gradient(point_try) / scale
                    memory.clear()
                    history.append(jt)
            beta_ref = beta_cur.tolist()

    if line_search_failed and stationary(y, gy, 1e2 * _GRAD_TOL):
        converged = True
    x_final = y / scale
    params = _sorted_exit_params(kind, case, x_final[:nc], x_final[nc:])
    return FitResult(
        params=params,
        objective=objective(sample, params),
        iterations=iterations,
        converged=converged,
        history=tuple(j * j_scale for j in history),
    )


# ---------------------------------------------------------------------------
# staged recovery with model-order gate
# ---------------------------------------------------------------------------


def _trailing_share(sample: TraceSample, params: ModelParams) -> float:
    """Peak |a_i t^beta_i| of the trailing term over that of the leading one:
    power terms, or for the rational kinds denominator components."""
    t, amps = sample.times, params.c[n_head(params.kind, params.case) :]
    lead, trail = (float(np.max(np.abs(amps[i] * t ** params.beta[i]))) for i in (0, -1))
    return trail / max(lead, 1e-300)


def recover(sample: TraceSample, config: FitConfig) -> FitResult:
    """Fit the sample, gating the second term on the data.

    With two terms requested, a one-term fit is run first and the two-term
    fit is accepted only when its trailing term is actually resolved by the
    data (it lowers the objective and contributes a non-negligible fraction
    of the leading term).  Otherwise the one-term fit is reported in
    two-term form: zero trailing amplitude, which is how a fallback reads,
    and the trailing exponent left at its initialization.
    """
    if config.n_terms == 1:
        return minimize(sample, config)

    res1 = minimize(sample, replace(config, beta_init=config.beta_init[:1]))
    res2 = minimize(sample, config)
    improved = res2.objective <= res1.objective * (1.0 + 1e-12)
    if improved and _trailing_share(sample, res2.params) >= _SECOND_TERM_MIN_REL:
        return res2
    p1 = res1.params
    beta = (p1.beta[0], max(config.beta_init[1], p1.beta[0] + _MIN_GAP))
    params = replace(p1, c=(*p1.c, 0.0), beta=beta)
    return replace(
        res1,
        params=params,
        objective=objective(sample, params),
        iterations=res1.iterations + res2.iterations,
    )
