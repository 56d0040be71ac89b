"""Cross-module invariant battery behind `fracorder check`.

Each check measures one identity or limit that the result tables rest on:
special-function identities, series versus contour agreement, Laplace
consistency of the traces, the small-time expansion order and the analytic
objective gradient.  Every entry carries its measured error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracorder import models, specfun
from fracorder.fit import objective, objective_grad
from fracorder.forward import (
    Case,
    TraceSample,
    build_example_4_1,
    build_example_4_2,
    laplace_trace,
    trace_initial,
    trace_source,
)
from fracorder.models import Kind, ModelParams, PhysicalParams, from_physical
from fracorder.specfun import (
    ContourSpec,
    MLArgs,
    OrderSpec,
    ml2,
    mml,
    normalize_spec,
    s1_kernel_contour,
    s1_kernel_series,
    s2_kernel_contour,
    s2_kernel_int_series,
    s2_kernel_series,
    tight_contour,
)

__all__ = ["CheckResult", "run_checks"]

PI2 = math.pi * math.pi


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _adaptive_simpson(f, a: float, b: float, tol: float, depth: int = 24) -> float:
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, d):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if d <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(x0, xm, f0, fl, f1, left, d - 1) + rec(
            xm, x2, f1, fr, f2, right, d - 1
        )

    fm = f(0.5 * (a + b))
    fa, fb = f(a), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return rec(a, b, fa, fm, fb, whole, depth)


def _oracle_grid() -> list[tuple[float, OrderSpec, float]]:
    lams = (1.0, PI2 + 1.0, 2.0 * PI2)
    specs = (
        OrderSpec((0.5,), (1.0,)),
        OrderSpec((0.3, 0.7), (0.5, 1.0)),
        OrderSpec((0.2, 0.9), (1.0, 1.0)),
    )
    times = (1e-4, 1e-2, 1e-1, 1.0)
    return [(lam, spec, t) for lam in lams for spec in specs for t in times]


def oracle_grid_max_err(n_radial: int = 3000) -> float:
    """Worst series-vs-contour relative disagreement of S1 and S2 over the
    fixed 36-point grid.

    The series side is certified to 1e-8, two orders tighter than the 1e-6
    agreement bound, which keeps the deep-cancellation points inside a
    sensible extended-precision budget.
    """
    worst = 0.0
    for lam, spec, t in _oracle_grid():
        contour = tight_contour(t, n_radial)
        for series_fn, contour_fn in (
            (s1_kernel_series, s1_kernel_contour),
            (s2_kernel_series, s2_kernel_contour),
        ):
            a = series_fn(lam, spec, t, rel_tol=1e-8)
            b = contour_fn(lam, spec, t, contour)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return worst


def step2_laplace_value(p: float = 1e8) -> float:
    """Large-p limit that recovers the boundary value of the source profile."""
    problem = build_example_4_2("ii")
    orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
    q = math.fsum(r * p**a for a, r in zip(orders.alphas, orders.weights))
    a = problem.source_exponent
    return (
        p ** (a + 1.0)
        * q
        * laplace_trace(problem, orders, p)
        / problem.source_scale
    )


def remainder_ratio_spread(case: str) -> float:
    """Spread (max/min) of |g - two-term expansion| / t^(2 alpha_N) over
    three small-time decades for the square-domain examples."""
    if case == "i":
        problem = build_example_4_2("i")
        orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
        phys = PhysicalParams(
            orders.alphas, orders.weights, problem.ref_Au0_x0, problem.ref_u0_x0
        )
        model = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        trace = lambda t: trace_initial(problem, orders, t)
    else:
        problem = build_example_4_2("ii")
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        phys = PhysicalParams(orders.alphas, orders.weights, problem.ref_f_x0, None)
        model = from_physical(phys, Kind.POLYNOMIAL, Case.SOURCE, a=0.0)
        trace = lambda t: trace_source(problem, orders, t)
    an = orders.alphas[-1]
    ratios = []
    for t in (1e-8, 1e-7, 1e-6):
        r = trace(t) - models.eval_model(model, t)
        ratios.append(abs(r) / t ** (2.0 * an))
    return max(ratios) / min(ratios)


def gradient_check_max_err(n_draws: int = 50, seed: int = 20240501) -> float:
    """Analytic objective gradient versus central differences, worst relative
    error over random in-bounds draws across all model shapes."""
    rng = np.random.default_rng(seed)
    shapes = [(k, c) for k in Kind for c in Case]
    worst = 0.0
    t = np.arange(1, 41) / 40.0
    for i in range(n_draws):
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
            c = np.concatenate([[rng.uniform(0.5, 2.0)], d])
        params = ModelParams(kind, case, tuple(c), tuple(beta))
        g = models.eval_model(params, t) + rng.normal(0.0, 0.1, size=len(t))
        sample = TraceSample(t, g, T0=1.0)
        ana = objective_grad(sample, params)
        x = np.concatenate([c, beta])
        fd = np.zeros_like(ana)
        for j in range(len(x)):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            pp = ModelParams(kind, case, tuple(xp[: len(c)]), tuple(xp[len(c) :]))
            pm = ModelParams(kind, case, tuple(xm[: len(c)]), tuple(xm[len(c) :]))
            fd[j] = (objective(sample, pp) - objective(sample, pm)) / (2.0 * h)
        err = float(np.linalg.norm(fd - ana) / max(np.linalg.norm(ana), 1e-300))
        worst = max(worst, err)
    return worst


def run_checks() -> list[CheckResult]:
    """Cross-module invariant battery; each entry carries the measured error."""
    out: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        out.append(CheckResult(name, bool(passed), detail))

    # Gamma spot values
    err = max(
        abs(specfun.gamma(1.0) - 1.0),
        abs(specfun.gamma(5.0) - 24.0) / 24.0,
        abs(specfun.gamma(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi),
    )
    add("gamma-spot-values", err <= 1e-13, f"max rel err {err:.3e}")

    # ML identity: E_{1,2}(z) = (e^z - 1)/z, exercised through the series path
    err = 0.0
    for z in np.linspace(-8.0, -0.25, 16):
        ref = (math.exp(z) - 1.0) / z
        err = max(err, abs(ml2(1.0, 2.0, float(z)) - ref) / abs(ref))
    add("ml-identity-e12", err <= 1e-10, f"max rel err {err:.3e}")

    # ML identity: E_{1/2,1}(-x) = exp(x^2) erfc(x)
    err = 0.0
    for x in (0.25, 0.5, 1.0, 2.0):
        ref = math.exp(x * x) * math.erfc(x)
        err = max(err, abs(ml2(0.5, 1.0, -x) - ref) / ref)
    add("ml-identity-erfc", err <= 1e-10, f"max rel err {err:.3e}")

    # multinomial reduction to the two-parameter function
    rng = np.random.default_rng(7)
    err = 0.0
    for _ in range(50):
        b0 = float(rng.uniform(0.5, 1.8))
        b1 = float(rng.uniform(0.4, 0.95))
        z = float(rng.uniform(-20.0, 0.0))
        z = max(z, -0.8 * (25.0 ** b1))  # keep the series inside its envelope
        a = mml(MLArgs(b0, (b1,), (z,)))
        b = ml2(b1, b0, z)
        err = max(err, abs(a - b) / max(abs(b), 1e-300))
    add("mml-m1-reduction", err <= 1e-12, f"max rel err {err:.3e}")

    # series versus contour on the fixed grid
    err = oracle_grid_max_err()
    add("oracle-grid-series-vs-contour", err <= 1e-6, f"max rel err {err:.3e}")

    # small-time normalization of the kernels
    spec = OrderSpec((0.3, 0.9), (0.5, 1.0))
    v1 = s1_kernel_series(1.0, spec, 1e-12)
    v2 = s2_kernel_int_series(1.0, spec, 0.0, 1e-12)
    ok = abs(v1 - 1.0) <= 1e-8 and abs(v2) <= 1e-8
    add("kernel-small-time-limits", ok, f"|S1-1|={abs(v1-1.0):.3e}, |int S2|={abs(v2):.3e}")

    # leading-weight rescaling invariance
    rng = np.random.default_rng(11)
    err = 0.0
    for _ in range(5):
        rn = float(rng.uniform(0.5, 2.0))
        spec = OrderSpec((0.4, 0.8), (0.7 * rn, rn))
        lam, t = 7.0, 0.05
        ns = normalize_spec(spec, lam)
        a = s1_kernel_contour(lam, spec, t, tight_contour(t, 2000))
        b = s1_kernel_contour(ns.lam, ns.spec, t, tight_contour(t, 2000))
        err = max(err, abs(a - b) / abs(b))
        a2 = s2_kernel_contour(lam, spec, t, tight_contour(t, 2000))
        b2 = ns.kernel_scale * s2_kernel_contour(ns.lam, ns.spec, t, tight_contour(t, 2000))
        err = max(err, abs(a2 - b2) / abs(b2))
    add("kernel-weight-rescaling", err <= 1e-10, f"max rel err {err:.3e}")

    # derivative identity: d/dt of the running S2 integral equals S2
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
    add("s2-derivative-identity", err <= 1e-5, f"max rel err {err:.3e}")

    # Laplace consistency of the single-mode trace
    orders = OrderSpec((0.7,), (1.0,))
    problem = build_example_4_1(orders)
    lam = PI2 + 1.0

    def gfun(t: float) -> float:
        z = lam * t**0.7
        if z <= 5.0:
            return ml2(0.7, 1.0, -z)
        c = ContourSpec(5.0 * math.pi / 6.0, 1.0 / t, 2500, 55.0 / t)
        return s1_kernel_contour(lam, orders, t, c)

    err = 0.0
    for p in (5.0, 20.0):
        quad = _adaptive_simpson(lambda t: math.exp(-p * t) * gfun(t), 1e-12, 50.0, 1e-12)
        ref = laplace_trace(problem, orders, p)
        err = max(err, abs(quad - ref) / abs(ref))
    add("laplace-consistency", err <= 1e-4, f"max rel err {err:.3e}")

    # initial-value recovery in the Laplace domain
    problem = build_example_4_2("i")
    orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
    p = 1e6
    val = p * laplace_trace(problem, orders, p)
    ref = sum(w for _, w in problem.modes)
    err = abs(val - ref) / ref
    add("laplace-initial-value-recovery", err <= 1e-2, f"rel err {err:.3e}")

    # large-p source check
    val = step2_laplace_value()
    err = abs(val - 2.5) / 2.5
    add("laplace-step2-source-value", err <= 0.01, f"value {val!r}, rel err {err:.3e}")

    # two-term expansion remainder order
    for case in ("i", "ii"):
        spread = remainder_ratio_spread(case)
        add(
            f"expansion-remainder-order-case-{case}",
            spread <= 4.0,
            f"ratio spread {spread:.3f}",
        )

    # model tightness at alpha = 0.75
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
    ok = ep <= 1e-6 and er <= 1e-6 and sup_r < sup_p
    add(
        "model-asymptotic-tightness",
        ok,
        f"|g-fp|(1e-6)={ep:.3e}, |g-fr|(1e-6)={er:.3e}, sup fr {sup_r:.3e} < sup fp {sup_p:.3e}",
    )

    # analytic gradients versus central differences
    err = gradient_check_max_err()
    add("objective-gradient-vs-fd", err <= 1e-6, f"max rel err {err:.3e}")

    return out
