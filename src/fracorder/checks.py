"""Cross-module invariant battery behind `fracorder check`.

Each check measures one identity or limit that the result tables rest on:
special-function identities, series versus contour agreement, Laplace
consistency of the traces, the small-time expansion order and the model
Jacobian that the fits form.  Each entry is one function that returns its
`CheckResult` with the measured error; `CHECKS` lists them in report order.
These entries are the only statement of the invariants: the test suite runs
each one once (five through acceptance criteria 5-8) and does not restate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracorder import models, specfun
from fracorder.forward import (
    PI2,
    Case,
    build_example_4_1,
    build_example_4_2,
    laplace_trace,
    trace_initial,
    trace_source,
)
from fracorder.models import Kind, PhysicalParams, from_physical
from fracorder.specfun import (
    OrderSpec,
    ml2,
    s1_kernel_contour,
    s1_kernel_series,
    s2_kernel_contour,
    s2_kernel_int_series,
    s2_kernel_series,
    tight_contour,
)

__all__ = ["CHECKS", "CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _max_rel_err(name: str, err: float, bound: float) -> CheckResult:
    return CheckResult(name, bool(err < bound), f"max rel err {err:.3e}")


def gamma_spot_values() -> CheckResult:
    err = max(
        abs(specfun.gamma(1.0) - 1.0),
        abs(specfun.gamma(5.0) - 24.0) / 24.0,
        abs(specfun.gamma(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi),
    )
    return _max_rel_err("gamma-spot-values", err, 1e-13)


def ml_identity_e12() -> CheckResult:
    """E_{1,2}(z) = (e^z - 1)/z, exercised through the series path."""
    err = 0.0
    for z in np.linspace(-8.0, -0.25, 16):
        ref = (math.exp(z) - 1.0) / z
        err = max(err, abs(ml2(1.0, 2.0, float(z)) - ref) / abs(ref))
    return _max_rel_err("ml-identity-e12", err, 1e-10)


def ml_identity_erfc() -> CheckResult:
    """E_{1/2,1}(-x) = exp(x^2) erfc(x)."""
    err = 0.0
    for x in (0.25, 0.5, 1.0, 2.0):
        ref = math.exp(x * x) * math.erfc(x)
        err = max(err, abs(ml2(0.5, 1.0, -x) - ref) / ref)
    return _max_rel_err("ml-identity-erfc", err, 1e-10)


def oracle_grid_series_vs_contour() -> CheckResult:
    """Worst series-vs-contour relative disagreement of S1 and S2 over a fixed
    36-point grid.

    The series side is certified to 1e-8, two orders tighter than the 1e-6
    agreement bound, which keeps the deep-cancellation points inside a
    sensible extended-precision budget.
    """
    lams = (1.0, PI2 + 1.0, 2.0 * PI2)
    specs = (
        OrderSpec((0.5,), (1.0,)),
        OrderSpec((0.3, 0.7), (0.5, 1.0)),
        OrderSpec((0.2, 0.9), (1.0, 1.0)),
    )
    times = (1e-4, 1e-2, 1e-1, 1.0)
    err = 0.0
    for lam in lams:
        for spec in specs:
            for t in times:
                contour = tight_contour(t, 3000)
                for series_fn, contour_fn in (
                    (s1_kernel_series, s1_kernel_contour),
                    (s2_kernel_series, s2_kernel_contour),
                ):
                    a = series_fn(lam, spec, t, rel_tol=1e-8)
                    b = contour_fn(lam, spec, t, contour)
                    err = max(err, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return _max_rel_err("oracle-grid-series-vs-contour", err, 1e-6)


def kernel_small_time_limits() -> CheckResult:
    """S1 tends to 1 and the running S2 integral to 0 as t -> 0."""
    spec = OrderSpec((0.3, 0.9), (0.5, 1.0))
    v1 = s1_kernel_series(1.0, spec, 1e-12)
    v2 = s2_kernel_int_series(1.0, spec, 0.0, 1e-12)
    return CheckResult(
        "kernel-small-time-limits",
        bool(abs(v1 - 1.0) < 1e-8 and abs(v2) < 1e-8),
        f"|S1-1|={abs(v1-1.0):.3e}, |int S2|={abs(v2):.3e}",
    )


def kernel_weight_rescaling() -> CheckResult:
    """Leading-weight rescaling: S1 is invariant under the map
    (lam, r) -> (lam/rN, r/rN) and S2 picks up the factor 1/rN."""
    rng = np.random.default_rng(11)
    lam, t = 7.0, 0.05
    c = tight_contour(t, 2000)
    err = 0.0
    for _ in range(5):
        rn = float(rng.uniform(0.5, 2.0))
        spec = OrderSpec((0.4, 0.8), (0.7 * rn, rn))
        unit = OrderSpec(spec.alphas, tuple(w / rn for w in spec.weights))
        a = s1_kernel_contour(lam, spec, t, c)
        b = s1_kernel_contour(lam / rn, unit, t, c)
        err = max(err, abs(a - b) / abs(b))
        a2 = s2_kernel_contour(lam, spec, t, c)
        b2 = 1.0 / rn * s2_kernel_contour(lam / rn, unit, t, c)
        err = max(err, abs(a2 - b2) / abs(b2))
    return _max_rel_err("kernel-weight-rescaling", err, 1e-10)


def s2_derivative_identity() -> CheckResult:
    """d/dt of the running S2 integral equals S2 (central differences)."""
    spec = OrderSpec((0.3, 0.7), (0.5, 1.0))
    err = 0.0
    for t in (0.05, 0.2):
        h = 1e-5 * t
        lhs = (
            s2_kernel_int_series(5.0, spec, 0.0, t + h)
            - s2_kernel_int_series(5.0, spec, 0.0, t - h)
        ) / (2.0 * h)
        rhs = s2_kernel_series(5.0, spec, t)
        err = max(err, abs(lhs - rhs) / abs(rhs))
    return _max_rel_err("s2-derivative-identity", err, 1e-5)


def laplace_consistency() -> CheckResult:
    """Quadrature of the single-mode time trace matches its closed-form
    Laplace transform.  One fixed rule: 10 Gauss-Legendre nodes on each of
    40 geometric panels over [1e-12, 50], with the trace by the series where
    lambda t^0.7 <= 5 and by the hyperbola route (method "auto") beyond."""
    orders = OrderSpec((0.7,), (1.0,))
    problem = build_example_4_1()
    lam = problem.modes[0][0]
    edges = np.geomspace(1e-12, 50.0, 41)
    x, w = np.polynomial.legendre.leggauss(10)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    # t ascends, so the series times come first
    series = lam * t**0.7 <= 5.0
    g = np.concatenate([
        trace_initial(problem, orders, t[series]),
        trace_initial(problem, orders, t[~series], method="auto"),
    ])
    err = 0.0
    for p in (5.0, 20.0):
        quad = math.fsum(weights * np.exp(-p * t) * g)
        ref = laplace_trace(problem, orders, p)
        err = max(err, abs(quad - ref) / abs(ref))
    return _max_rel_err("laplace-consistency", err, 1e-4)


def _boundary_values(problem) -> tuple[float, float]:
    """sum w_n and sum lambda_n w_n over the modes: u0(x0) and Au0(x0) of
    an initial-data problem, and f(x0) (the first) of a source."""
    return (
        math.fsum(w for _, w in problem.modes),
        math.fsum(lam * w for lam, w in problem.modes),
    )


def laplace_initial_value_recovery() -> CheckResult:
    """p ghat(p) tends to the initial trace value as p -> infinity."""
    problem = build_example_4_2("i")
    orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
    p = 1e6
    val = p * laplace_trace(problem, orders, p)
    ref, _ = _boundary_values(problem)
    err = abs(val - ref) / ref
    return CheckResult("laplace-initial-value-recovery", bool(err < 1e-2), f"rel err {err:.3e}")


def laplace_step2_source_value() -> CheckResult:
    """Large-p limit p^(a+1) q(p) ghat(p) that recovers the boundary value
    f(x0) of the source profile."""
    problem = build_example_4_2("ii")
    orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
    p = 1e8
    a = problem.source_exponent
    _, q = specfun._transform_at(orders, p, a)
    val = p ** (a + 1.0) * q * laplace_trace(problem, orders, p)
    f_x0, _ = _boundary_values(problem)
    err = abs(val - f_x0) / f_x0
    return CheckResult(
        "laplace-step2-source-value", bool(err < 0.01), f"value {val!r}, rel err {err:.3e}"
    )


def _remainder_order(case: str) -> CheckResult:
    """Spread (max/min) of |g - two-term expansion| / t^(2 alpha_N) over
    three small-time decades for a square-domain example."""
    problem = build_example_4_2(case)
    w_sum, lam_w_sum = _boundary_values(problem)
    if case == "i":
        orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
        phys = PhysicalParams(orders.alphas, orders.weights, lam_w_sum, w_sum)
        model = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        trace = lambda t: trace_initial(problem, orders, t)
    else:
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        phys = PhysicalParams(orders.alphas, orders.weights, w_sum, None)
        model = from_physical(phys, Kind.POLYNOMIAL, Case.SOURCE, a=0.0)
        trace = lambda t: trace_source(problem, orders, t)
    an = orders.alphas[-1]
    ratios = [
        abs(trace(t) - models.eval_model(model, t)) / t ** (2.0 * an) for t in (1e-8, 1e-7, 1e-6)
    ]
    spread = max(ratios) / min(ratios)
    return CheckResult(
        f"expansion-remainder-order-case-{case}", bool(spread < 4.0), f"ratio spread {spread:.3f}"
    )


def expansion_remainder_order_case_i() -> CheckResult:
    return _remainder_order("i")


def expansion_remainder_order_case_ii() -> CheckResult:
    return _remainder_order("ii")


def model_asymptotic_tightness() -> CheckResult:
    """Both model kinds match the trace to 1e-6 at t = 1e-6, and the rational
    one is the closer over [1e-6, 0.1], at alpha = 0.75."""
    alpha, lamv = 0.75, PI2 + 1.0
    phys = PhysicalParams((alpha,), (1.0,), lamv, 1.0)
    fp = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
    fr = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
    g6 = ml2(alpha, 1.0, -lamv * 1e-6**alpha)
    ep = abs(g6 - models.eval_model(fp, 1e-6))
    er = abs(g6 - models.eval_model(fr, 1e-6))
    sup_p = sup_r = 0.0
    for t in np.geomspace(1e-6, 0.1, 60):
        gv = ml2(alpha, 1.0, -lamv * float(t) ** alpha)
        sup_p = max(sup_p, abs(gv - models.eval_model(fp, float(t))))
        sup_r = max(sup_r, abs(gv - models.eval_model(fr, float(t))))
    return CheckResult(
        "model-asymptotic-tightness",
        bool(ep < 1e-6 and er < 1e-6 and sup_r < sup_p),
        f"|g-fp|(1e-6)={ep:.3e}, |g-fr|(1e-6)={er:.3e}, sup fr {sup_r:.3e} < sup fp {sup_p:.3e}",
    )


def model_jacobian_vs_fd() -> CheckResult:
    """The model Jacobian as `fit.minimize` forms it, from the powers and the
    power sum of `_eval_arrays`, versus central differences of `_eval_arrays`:
    worst relative error over 50 random in-bounds draws across all shapes."""
    rng = np.random.default_rng(20240501)
    shapes = [(k, c) for k in Kind for c in Case]
    err = 0.0
    t = np.arange(1, 41) / 40.0

    def model(kind, case, x, nc):
        """Values, power sum and powers at x = (c..., beta...)."""
        powers = [t**b for b in x[nc:]]
        return (*models._eval_arrays(kind, case, x[:nc].tolist(), powers), powers)

    for i in range(50):
        kind, case = shapes[i % len(shapes)]
        m = 2
        while True:
            beta = np.sort(rng.uniform(0.1, 1.7, size=m))
            if beta[1] - beta[0] > 0.1:
                break
        if kind is Kind.POLYNOMIAL:
            c = rng.uniform(-2.0, 2.0, size=models.n_coeffs(kind, case, m))
        else:
            d = rng.uniform(-0.2, 0.8, size=m)
            c = np.concatenate([rng.uniform(0.5, 2.0, size=models.n_head(kind, case)), d])
        x, nc = np.concatenate([c, beta]), len(c)
        _, acc, powers = model(kind, case, x, nc)
        ana = models._grad_arrays(kind, case, c.tolist(), powers, np.log(t), acc)
        fd = np.zeros_like(ana)
        for j in range(len(x)):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[j] = (model(kind, case, xp, nc)[0] - model(kind, case, xm, nc)[0]) / (2.0 * h)
        err = max(err, float(np.linalg.norm(fd - ana) / max(np.linalg.norm(ana), 1e-300)))
    return _max_rel_err("model-jacobian-vs-fd", err, 1e-6)


CHECKS = (
    gamma_spot_values,
    ml_identity_e12,
    ml_identity_erfc,
    oracle_grid_series_vs_contour,
    kernel_small_time_limits,
    kernel_weight_rescaling,
    s2_derivative_identity,
    laplace_consistency,
    laplace_initial_value_recovery,
    laplace_step2_source_value,
    expansion_remainder_order_case_i,
    expansion_remainder_order_case_ii,
    model_asymptotic_tightness,
    model_jacobian_vs_fd,
)


def run_checks() -> list[CheckResult]:
    return [check() for check in CHECKS]
