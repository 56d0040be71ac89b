"""Batch experiment runner.

Generates boundary traces, runs order recoveries, and writes the CSV
artifacts behind the benchmark tables and figures.  All output is
deterministic: fixed grids, no timestamps, shortest round-trip float
formatting in result files and 17-significant-digit formatting in trace
files.

Verbs:
    simulate   write trace CSVs (and figure CSVs with model overlays)
    fit        run recoveries, one CSV per (sub)table
    check      run the cross-module invariant suite, exit 0 iff all pass
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fracorder import models, specfun
from fracorder.fit import (
    FitConfig,
    FitResult,
    beta_init_from_alphas,
    objective,
    objective_grad,
    recover,
)
from fracorder.forward import (
    Case,
    SpectralProblem,
    TraceSample,
    build_example_4_1,
    build_example_4_2,
    laplace_trace,
    sample_trace,
    trace_initial,
    trace_source,
)
from fracorder.models import Kind, ModelParams, PhysicalParams, from_physical
from fracorder.specfun import (
    ContourSpec,
    DomainError,
    MLArgs,
    OrderSpec,
    ml2,
    mml,
    normalize_spec,
    s1_kernel_contour,
    s1_kernel_series,
    s2_kernel_contour,
    s2_kernel_series,
    s2_kernel_int_series,
    tight_contour,
)

__all__ = ["main", "run_checks", "experiment_rows", "ExperimentConfig", "CheckResult"]

log = logging.getLogger("fracorder")

# the two-term tables do not state r1; the figures do
R1 = 0.5
_R1_ASSUMED = (
    f"true r1 not stated for the two-term tables; adopting r1 = {R1} "
    "(the figure-caption value)"
)

# the columns of a result row after its label column
RESULT_COLUMNS = (
    "kind", "alpha1", "alpha2", "amplitude", "r1", "constant",
    "objective", "iterations", "converged", "status",
)

_KIND_BY_FLAG = {"fp": Kind.POLYNOMIAL, "fr": Kind.RATIONAL}
_FLAG_BY_KIND = {v: k for k, v in _KIND_BY_FLAG.items()}

PI2 = math.pi * math.pi


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    out_dir: Path
    t0_list: tuple[float, ...] | None = None
    kinds: tuple[str, ...] = ("fp", "fr")
    jobs: int = 1
    n_points: int = 100
    t_max: float = 1.0
    fig_points: int = 500

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise DomainError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.t0_list is not None:
            if len(self.t0_list) == 0:
                raise DomainError("empty T0 list")
            if any(t <= 0 for t in self.t0_list):
                raise DomainError("T0 values must be positive")
        if not self.kinds or any(k not in _KIND_BY_FLAG for k in self.kinds):
            raise DomainError(f"kinds must be a non-empty list of 'fp' and 'fr', got {self.kinds}")
        if self.jobs < 1:
            raise DomainError(f"jobs must be at least 1, got {self.jobs}")


@dataclass(frozen=True)
class FitRow:
    """One recovery task: a (sub)table row for one model kind."""

    table: str
    label: str  # leading CSV cell, e.g. the T0 or the true alpha
    label_column: str
    problem: SpectralProblem
    orders: OrderSpec
    T0: float
    kind: Kind
    beta_init: tuple[float, ...]
    n_terms: int
    assumptions: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# experiment registry
# ---------------------------------------------------------------------------

_EX_4_1 = build_example_4_1()

# experiment -> (label column, default T0 list, sub-tables); a sub-table is
# (table name, example problem, true orders, order guess), and everything else
# about its rows follows from those: one order means one term, two orders two
# terms, the weights (R1, 1) and the assumption that names R1
TABLES = {
    "table1a": ("T0", (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1), (
        ("table1a", _EX_4_1, (0.7,), (0.5,)),
    )),
    "table1b": ("alpha_true", (1e-6,), tuple(
        ("table1b", _EX_4_1, (alpha,), (0.5,)) for alpha in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    )),
    "table2": ("T0", (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2), (
        ("table2a", _EX_4_1, (0.6, 0.9), (0.4, 0.8)),
        ("table2b", _EX_4_1, (0.5, 0.7), (0.2, 0.6)),
    )),
    "table3": ("T0", (1e-8, 1e-7, 1e-6, 1e-5, 1e-4), (
        ("table3a", build_example_4_2("i"), (0.5, 0.8), (0.3, 0.7)),
        ("table3b", build_example_4_2("ii"), (0.5, 0.7), (0.3, 0.6)),
    )),
}


# figure -> (panel name, orders) per panel
FIGURES = {
    "fig1": tuple((f"alpha{alpha:.2f}", (alpha,)) for alpha in (0.25, 0.5, 0.75, 1.0)),
    "fig2": tuple((f"alpha0.2_{alpha}", (0.2, alpha)) for alpha in (0.3, 0.5, 0.7, 0.9)),
}

EXPERIMENTS = (*TABLES, *FIGURES)


def _weights(alphas: tuple[float, ...]) -> tuple[float, ...]:
    """Order weights with the leading weight one: (1,) or (R1, 1)."""
    return (R1, 1.0) if len(alphas) == 2 else (1.0,)


def experiment_rows(cfg: ExperimentConfig) -> list[FitRow]:
    """Expand an experiment into recovery tasks (tables only)."""
    if cfg.experiment not in TABLES:
        raise DomainError(f"experiment {cfg.experiment!r} has no fit rows (figure only)")
    label_column, default_t0, subtables = TABLES[cfg.experiment]
    t0s = cfg.t0_list or default_t0
    if label_column != "T0":
        t0s = t0s[:1]  # rows labelled by their order hold one horizon
    rows: list[FitRow] = []
    for table, problem, alphas, guess in subtables:
        orders = OrderSpec(alphas, _weights(alphas))
        beta_init = beta_init_from_alphas(guess, problem.source_exponent, problem.case)
        for t0 in t0s:
            for flag in cfg.kinds:
                rows.append(
                    FitRow(
                        table=table,
                        label=repr(t0 if label_column == "T0" else alphas[-1]),
                        label_column=label_column,
                        problem=problem,
                        orders=orders,
                        T0=t0,
                        kind=_KIND_BY_FLAG[flag],
                        beta_init=beta_init,
                        n_terms=orders.n,
                        assumptions=(_R1_ASSUMED,) if orders.n == 2 else (),
                    )
                )
    return rows


def _sample_groups(rows: list[FitRow]) -> list[list[FitRow]]:
    """Runs of consecutive rows that share one trace sample."""
    key = lambda row: (row.problem, row.orders, row.T0)
    return [list(group) for _, group in itertools.groupby(rows, key)]


# ---------------------------------------------------------------------------
# row execution
# ---------------------------------------------------------------------------


def make_sample(row: FitRow, n_points: int) -> TraceSample:
    return sample_trace(row.problem, row.orders, row.T0, n_points)


def _inadmissible(phys: PhysicalParams) -> list[str]:
    """The physical constraints that the recovered values break."""
    a1, a2, r1 = phys.alphas[0], phys.alphas[-1], phys.weights[0]
    two_term = len(phys.alphas) == 2
    broken = {
        "alpha2 <= 0 or >= 1": not 0.0 < a2 < 1.0,
        "amplitude <= 0": not phys.amplitude > 0.0,
        "alpha1 <= 0 or > alpha2": two_term and not 0.0 < a1 <= a2,
        "r1 < 0": two_term and not r1 >= 0.0,
    }
    return [what for what, is_broken in broken.items() if is_broken]


def _fill_result(out: dict, result: FitResult) -> None:
    out["objective"] = repr(result.objective)
    out["iterations"] = repr(result.iterations)
    out["converged"] = repr(result.converged)
    phys = result.physical
    if phys is None:
        out["status"] = "; ".join(a for a in result.assumptions if a.startswith("identifiability"))
        return
    if len(phys.alphas) == 2:
        out["alpha1"] = repr(phys.alphas[0])
        out["r1"] = repr(phys.weights[0])
    out["alpha2"] = repr(phys.alphas[-1])
    out["amplitude"] = repr(phys.amplitude)
    if phys.constant is not None:
        out["constant"] = repr(phys.constant)
    if broken := _inadmissible(phys):
        out["status"] = "inadmissible: " + "; ".join(broken)


def _error_status(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_fit_group(rows: list[FitRow], n_points: int) -> list[dict]:
    """Result rows of recovery tasks that share one trace sample: the trace
    is sampled once and each row fitted to it.  Failures are recorded per row
    and the run continues; a sampling failure is the status of every row."""
    outs = [
        {row.label_column: row.label, **dict.fromkeys(RESULT_COLUMNS, ""),
         "kind": _FLAG_BY_KIND[row.kind], "status": "ok"}
        for row in rows
    ]
    try:
        sample = make_sample(rows[0], n_points)
    except Exception as exc:
        for out in outs:
            out["status"] = _error_status(exc)
        return outs
    for row, out in zip(rows, outs):
        config = FitConfig(
            kind=row.kind,
            case=row.problem.case,
            n_terms=row.n_terms,
            beta_init=row.beta_init,
            source_exponent=row.problem.source_exponent,
        )
        try:
            _fill_result(out, recover(sample, config))
        except Exception as exc:
            out["status"] = _error_status(exc)
    return outs


def run_fit_row(row: FitRow, n_points: int) -> dict:
    return run_fit_group([row], n_points)[0]


def _write_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([row.get(h, "") for h in header] for row in rows)


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _row_metadata(row: FitRow, n_points: int) -> dict:
    return {
        "table": row.table,
        "case": row.problem.case.value,
        "alphas": list(row.orders.alphas),
        "weights": list(row.orders.weights),
        "modes": [list(m) for m in row.problem.modes],
        "n_points": n_points,
        "series_truncation_k": specfun.DEFAULT_SHELL_CAP,
        "assumptions": list(row.assumptions),
    }


def cmd_fit(cfg: ExperimentConfig) -> int:
    rows = experiment_rows(cfg)
    groups = _sample_groups(rows)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    run = lambda group: run_fit_group(group, cfg.n_points)
    if cfg.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            grouped = list(pool.map(run, groups))
    else:
        grouped = [run(group) for group in groups]
    results = [out for outs in grouped for out in outs]

    failures = sum(1 for r in results if r["status"] != "ok")
    tables = sorted({r.table for r in rows})
    for table in tables:
        picked = [(row, res) for row, res in zip(rows, results) if row.table == table]
        header = [picked[0][0].label_column, *RESULT_COLUMNS]
        _write_csv(cfg.out_dir / f"{table}.csv", header, [res for _, res in picked])
        meta = _row_metadata(picked[0][0], cfg.n_points)
        meta["T0_list"] = sorted({row.T0 for row, _ in picked})
        _write_json(cfg.out_dir / f"{table}.meta.json", meta)
    log.info("fit: wrote %d tables to %s (%d row failures)", len(tables), cfg.out_dir, failures)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _write_fig_panel(path: Path, alphas: tuple[float, ...], cfg: ExperimentConfig) -> None:
    lam = PI2 + 1.0
    tgrid = np.geomspace(cfg.t_max * 1e-6, cfg.t_max, cfg.fig_points)
    phys = PhysicalParams(alphas, _weights(alphas), amplitude=lam, constant=1.0)
    # order one is the classical limit, outside the fractional order range
    orders = None if alphas == (1.0,) else OrderSpec(alphas, _weights(alphas))
    problem = SpectralProblem(((lam, 1.0),), Case.INITIAL_DATA)
    fp = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
    fr = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
    with open(path, "w", newline="") as fh:
        fh.write("t,g,fp,fr\n")
        for t in tgrid:
            if orders is None:
                g = math.exp(-lam * t)
            else:
                g = trace_initial(problem, orders, float(t), method="auto")
            vp = models.eval_model(fp, float(t))
            vr = models.eval_model(fr, float(t))
            fh.write(f"{t:.17g},{g:.17g},{vp:.17g},{vr:.17g}\n")


def cmd_simulate(cfg: ExperimentConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    if cfg.experiment in FIGURES:
        for name, alphas in FIGURES[cfg.experiment]:
            path = cfg.out_dir / f"{cfg.experiment}_{name}.csv"
            try:
                _write_fig_panel(path, alphas, cfg)
            except Exception as exc:
                failures += 1
                log.error("panel %s failed: %s", name, exc)
        meta = {
            "experiment": cfg.experiment,
            "lambda": PI2 + 1.0,
            "t_max": cfg.t_max,
            "points": cfg.fig_points,
            "assumptions": [_R1_ASSUMED] if cfg.experiment == "fig2" else [],
        }
        _write_json(cfg.out_dir / f"{cfg.experiment}.meta.json", meta)
        return 0 if failures == 0 else 1

    for group in _sample_groups(experiment_rows(cfg)):
        row = group[0]
        order = "" if row.label_column == "T0" else f"_alpha{row.label}"
        stem = f"{row.table}{order}_T0_{row.T0:.0e}"
        try:
            sample = make_sample(row, cfg.n_points)
            sample.to_csv(cfg.out_dir / f"{stem}.csv")
            meta = _row_metadata(row, cfg.n_points)
            meta["T0"] = row.T0
            _write_json(cfg.out_dir / f"{stem}.meta.json", meta)
        except Exception as exc:
            failures += 1
            log.error("trace %s failed: %s", stem, exc)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# check suite
# ---------------------------------------------------------------------------


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
            nc = m + (1 if case is Case.INITIAL_DATA else 0)
            c = rng.uniform(-2.0, 2.0, size=nc)
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


def cmd_check(_cfg: ExperimentConfig | None = None) -> int:
    checks = run_checks()
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}")
    n_fail = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_t0_list(text: str) -> tuple[float, ...]:
    """Comma-separated T0 values; ExperimentConfig rejects an empty list."""
    try:
        return tuple(float(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad T0 list {text!r}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracorder",
        description="Simulate boundary traces of multi-order subdiffusion "
        "problems and recover the orders by small-time model fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "write trace CSV files"),
        ("fit", "run recoveries and write result tables"),
        ("check", "run the invariant suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--experiment", choices=EXPERIMENTS)
        # an unset flag (None) falls back to the config file, then to the
        # default in _config_from_args, so a flag given at its default wins
        p.add_argument("--out", type=Path, help="output directory (default: out)")
        p.add_argument("--jobs", type=int, help="worker threads (default: 1)")
        p.add_argument("--t0", type=_parse_t0_list, help="comma-separated T0 list")
        p.add_argument("--kind", choices=("fp", "fr", "both"), help="default: both")
        p.add_argument("--t-max", type=float, default=None, help="figure time range")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            raw = json.load(fh)
    experiment = args.experiment or raw.get("experiment")
    if args.command != "check" and not experiment:
        raise DomainError("an experiment must be given via --experiment or --config")
    if args.command == "fit" and experiment in FIGURES:
        raise DomainError(f"experiment {experiment!r} has no fit rows; use simulate")
    t0 = args.t0 if args.t0 is not None else raw.get("t0")
    if args.kind is None:
        kinds = tuple(raw.get("kinds", ("fp", "fr")))
    else:
        kinds = ("fp", "fr") if args.kind == "both" else (args.kind,)
    return ExperimentConfig(
        experiment=experiment or "table1a",
        out_dir=Path(args.out if args.out is not None else raw.get("out", "out")),
        t0_list=None if t0 is None else tuple(t0),
        kinds=kinds,
        jobs=args.jobs if args.jobs is not None else int(raw.get("jobs", 1)),
        n_points=int(raw.get("n_points", 100)),
        t_max=float(args.t_max if args.t_max is not None else raw.get("t_max", 1.0)),
        fig_points=int(raw.get("fig_points", 500)),
    )


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FRACORDER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = _config_from_args(args)
    except (DomainError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "check":
        return cmd_check(cfg)
    if args.command == "simulate":
        return cmd_simulate(cfg)
    return cmd_fit(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
