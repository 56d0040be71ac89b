"""Independent correctness checks of one round's outputs.

Every check compares an output with a value computed apart from the package
(closed forms, `mpmath.invertlaplace`, `scipy.optimize.least_squares`), or
with a property the method must have.  Each check returns a list of problems
per operation; an empty list is a pass.  The only package code used here is
the experiment registry, which says which row is which, and the sampler that
built the trace samples the fits were given, so that the reference optimizer
solves the same least-squares problem as `fit`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy.optimize import least_squares
from scipy.special import erfcx

import workloads as wl

SMALL_T0 = 1e-6  # small-time regime: rows here must recover the truth
ALPHA_TOL = 0.01  # leading order against the generating value
CONST_RTOL = 1e-5  # u0(x0) against the generating value
OPT_RTOL = 1e-3  # one-term objective against the reference optimum
OBJ_RTOL = 1e-6  # reported objective against the objective of the reported parameters
TRACE_RTOL = 1e-5  # figure and source traces against closed forms and Talbot
KERNEL_RTOL = 1e-6  # the series-vs-contour bound of acceptance criterion 5
ML2_RTOL = 1e-9
OVERLAY_RTOL = 1e-12
TALBOT_DPS = 30
TALBOT_STRIDE = 25  # figure points checked by Laplace inversion: every 25th and the last

# (alpha_N, u0(x0)) that generated each table; u0 is None in the source case
TRUTH = {
    "table1a": (0.7, 1.0),
    "table2a": (0.9, 1.0),
    "table2b": (0.7, 1.0),
    "table3a": (0.8, 1.625),
    "table3b": (0.7, None),
}

# operations that fail on today's code because of a known fault
KNOWN_FAULTS = {
    "table1b/0.9/fp": "fit.minimize stops at max_iter=200 with alpha 0.8666, far from the optimum alpha 0.89998",
    "table2a/0.001/fr": "status=ok with r1 < 0: cli.run_fit_row never checks admissibility",
    "table2a/0.01/fr": "status=ok with r1 < 0: cli.run_fit_row never checks admissibility",
    "table2b/0.001/fr": "status=ok with r1 < 0: cli.run_fit_row never checks admissibility",
    "table2b/0.01/fr": "status=ok with r1 < 0: cli.run_fit_row never checks admissibility",
    "table3b/1e-05/fr": "status=ok with r1 < 0: cli.run_fit_row never checks admissibility",
    "table3b/0.0001/fr": "status=ok with r1 < 0: cli.run_fit_row never checks admissibility",
    f"source/t={wl.SOURCE_FAILING_T!r}": "trace_source ignores method and has no contour route: DomainError, |z| > Z_MAX",
}

FIG_PANELS = {
    "fig1_alpha0.25": ((0.25,), (1.0,)),
    "fig1_alpha0.50": ((0.5,), (1.0,)),
    "fig1_alpha0.75": ((0.75,), (1.0,)),
    "fig1_alpha1.00": ((1.0,), (1.0,)),
    "fig2_alpha0.2_0.3": ((0.2, 0.3), (0.5, 1.0)),
    "fig2_alpha0.2_0.5": ((0.2, 0.5), (0.5, 1.0)),
    "fig2_alpha0.2_0.7": ((0.2, 0.7), (0.5, 1.0)),
    "fig2_alpha0.2_0.9": ((0.2, 0.9), (0.5, 1.0)),
}
FIG_POINTS = 500
FIG_T_MIN = 1e-6

# the table3b source problem: square-domain cosine modes, unit time factor
SOURCE_MODES = (
    (2.0 * wl.PI2, 1.0),
    (5.0 * wl.PI2, 0.5),
    (5.0 * wl.PI2, 0.5),
    (10.0 * wl.PI2, 0.25),
    (10.0 * wl.PI2, 0.25),
)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def one_term_model(kind: str, c0: float, c1: float, beta: float, t: np.ndarray) -> np.ndarray:
    """c0 + c1 t^beta (fp) or c0 / (1 + c1 t^beta) (fr), initial-data case."""
    if kind == "fp":
        return c0 + c1 * t**beta
    return c0 / (1.0 + c1 * t**beta)


def quad_objective(t: np.ndarray, g: np.ndarray, T0: float, f: np.ndarray) -> float:
    r = f - g
    return 0.5 * T0 / len(t) * float(r @ r)


def reference_optimum(kind: str, t: np.ndarray, g: np.ndarray, T0: float) -> tuple[float, float]:
    """(objective, beta) of the best one-term fit found by a trust-region
    least-squares solver started from the three best exponents of a profiled
    grid (linear least squares in the amplitudes at each grid exponent)."""
    y = g if kind == "fp" else 1.0 / g
    starts = []
    for b in np.linspace(0.02, 1.98, 50):
        design = np.column_stack([np.ones_like(t), t**b])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        starts.append((float(np.sum((design @ coef - y) ** 2)), b, coef))
    starts.sort(key=lambda s: s[0])
    scale = float(np.std(g)) or 1.0
    best = (math.inf, math.nan)
    for _, b, coef in starts[:3]:
        x0 = [coef[0], coef[1], b] if kind == "fp" else [1.0 / coef[0], coef[1] / coef[0], b]
        sol = least_squares(
            lambda x: (one_term_model(kind, *x, t) - g) / scale,
            x0,
            bounds=([-np.inf, -np.inf, 0.01], [np.inf, np.inf, 1.99]),
            x_scale="jac",
            ftol=1e-15,
            xtol=1e-15,
            gtol=1e-15,
            max_nfev=2000,
        )
        j = quad_objective(t, g, T0, one_term_model(kind, *sol.x, t))
        if j < best[0]:
            best = (j, float(sol.x[2]))
    return best


def check_table_row(table: str, T0: float, row: dict, sample=None) -> list[str]:
    """Problems with one result row.  `sample` is the (t, g) pair the fit was
    given, needed for one-term rows only."""
    status = row.get("status", "")
    if status != "ok":
        # a row that names its reason honestly is fine, except where the
        # method must work: the small-time regime
        return [f"status {status!r} at T0={T0!r}"] if T0 <= SMALL_T0 else []
    try:
        a2 = float(row["alpha2"])
        amp = float(row["amplitude"])
        a1 = float(row["alpha1"]) if row["alpha1"] else None
        r1 = float(row["r1"]) if row["r1"] else None
        const = float(row["constant"]) if row["constant"] else None
        objective = float(row["objective"])
    except (KeyError, ValueError) as exc:
        return [f"unparsable row: {exc}"]
    problems = []
    if not 0.0 < a2 < 1.0:
        problems.append(f"alpha2={a2!r} outside (0, 1)")
    if not amp > 0.0:
        problems.append(f"amplitude={amp!r} not positive")
    if a1 is not None and not 0.0 < a1 <= a2:
        problems.append(f"alpha1={a1!r} outside (0, alpha2]")
    if r1 is not None and not r1 >= 0.0:
        problems.append(f"r1={r1!r} negative")
    if table in TRUTH and T0 <= SMALL_T0:
        a_true, u0 = TRUTH[table]
        if not abs(a2 - a_true) <= ALPHA_TOL:
            problems.append(f"alpha2={a2!r} vs true {a_true} (tol {ALPHA_TOL})")
        if u0 is not None and not (const is not None and rel_err(const, u0) <= CONST_RTOL):
            problems.append(f"constant={const!r} vs true u0(x0)={u0} (rtol {CONST_RTOL})")
    if a1 is None and sample is not None:
        t, g = sample
        if const is None:
            return problems + ["one-term initial-data row without a constant"]
        c1 = -amp / math.gamma(a2 + 1.0) if row["kind"] == "fp" else amp / (const * math.gamma(a2 + 1.0))
        j_rep = quad_objective(t, g, T0, one_term_model(row["kind"], const, c1, a2, t))
        j_ref, b_ref = reference_optimum(row["kind"], t, g, T0)
        if not j_rep <= j_ref * (1.0 + OPT_RTOL):
            problems.append(
                f"objective {j_rep:.6e} at alpha2={a2!r} is not the least-squares "
                f"optimum {j_ref:.6e} at alpha={b_ref:.6f}"
            )
        if not rel_err(objective, j_rep) <= OBJ_RTOL:
            problems.append(f"reported objective {objective!r} vs {j_rep!r} of the reported parameters")
    return problems


def kind_flag(kind) -> str:
    """The CLI's name of a model kind."""
    return "fp" if kind.value == "polynomial" else "fr"


def table_row_id(table: str, row: dict) -> str:
    label = row.get("T0", row.get("alpha_true", ""))
    return f"{table}/{label}/{row.get('kind', '')}"


def check_tables(inputs: dict, round_dir: Path) -> dict[str, list[str]]:
    from fracorder import cli

    results: dict[str, list[str]] = {}
    for exp in wl.TABLE_EXPERIMENTS:
        cfg = cli.ExperimentConfig(exp, round_dir)
        expected = cli.experiment_rows(cfg)
        by_table: dict[str, list] = {}
        for fit_row in expected:
            by_table.setdefault(fit_row.table, []).append(fit_row)
        for table, fit_rows in by_table.items():
            path = round_dir / f"{table}.csv"
            rows = list(csv.DictReader(path.open())) if path.exists() else []
            for i, fit_row in enumerate(fit_rows):
                op = f"{table}/{fit_row.label}/{kind_flag(fit_row.kind)}"
                if i >= len(rows) or table_row_id(table, rows[i]) != op:
                    results[op] = ["row missing from the output"]
                    continue
                sample = None
                if fit_row.n_terms == 1:
                    s = cli.make_sample(fit_row, cfg.n_points)
                    sample = (s.times, s.values)
                results[op] = check_table_row(table, fit_row.T0, rows[i], sample)
    return results


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def talbot(F, t: float) -> float:
    with mpmath.workdps(TALBOT_DPS):
        return float(mpmath.invertlaplace(F, t, method="talbot"))


def initial_transform(lam: float, alphas, weights):
    """Laplace transform of the one-mode initial-data trace."""
    a = [mpmath.mpf(x) for x in alphas]
    r = [mpmath.mpf(x) for x in weights]
    lam = mpmath.mpf(lam)

    def F(p):
        return sum(ri * p ** (ai - 1) for ai, ri in zip(a, r)) / (lam + sum(ri * p**ai for ai, ri in zip(a, r)))

    return F


def source_transform():
    """Laplace transform of the table3b source trace (unit time factor)."""
    a = [mpmath.mpf(x) for x in wl.SOURCE_ORDERS[0]]
    r = [mpmath.mpf(x) for x in wl.SOURCE_ORDERS[1]]
    modes = [(mpmath.mpf(l), mpmath.mpf(w)) for l, w in SOURCE_MODES]

    def F(p):
        q = sum(ri * p**ai for ai, ri in zip(a, r))
        return sum(w / (l + q) for l, w in modes) / p

    return F


def overlay_reference(alphas, weights, t: np.ndarray):
    """fp and fr overlays of a figure panel: amplitude lambda, constant 1."""
    lam = wl.LAM_41
    terms = [lam * t ** alphas[-1] / math.gamma(alphas[-1] + 1.0)]
    if len(alphas) == 2:
        b1 = 2.0 * alphas[1] - alphas[0]
        terms.append(-lam * weights[0] * t**b1 / math.gamma(b1 + 1.0))
    total = sum(terms)
    size = 1.0 + sum(np.abs(x) for x in terms)
    return 1.0 - total, 1.0 / (1.0 + total), size


def check_panel(
    name: str, t: np.ndarray, g: np.ndarray, fp: np.ndarray, fr: np.ndarray, n_points: int = FIG_POINTS
) -> list[list[str]]:
    """Problems per point of one figure panel on its n_points geometric grid."""
    alphas, weights = FIG_PANELS[name]
    lam = wl.LAM_41
    problems: list[list[str]] = [[] for _ in range(len(t))]
    grid = np.geomspace(FIG_T_MIN, 1.0, n_points)
    for i in range(len(t)):
        if i >= len(grid) or abs(t[i] - grid[i]) > 1e-14 * grid[i]:
            problems[i].append(f"t={t[i]!r} off the figure grid")
        if not g[i] > 0.0:
            problems[i].append(f"g={g[i]!r} not positive")
        if i and not g[i] <= g[i - 1]:
            problems[i].append(f"g increases from {g[i - 1]!r} to {g[i]!r}")
    if alphas == (0.5,):
        ref = erfcx(lam * np.sqrt(t))
        checked = range(len(t))
    elif alphas == (1.0,):
        ref = np.exp(-lam * t)
        checked = range(len(t))
    else:
        F = initial_transform(lam, alphas, weights)
        checked = sorted(set(range(0, len(t), TALBOT_STRIDE)) | {len(t) - 1})
        ref = {i: talbot(F, float(t[i])) for i in checked}
    for i in checked:
        if not rel_err(g[i], ref[i]) <= TRACE_RTOL:
            problems[i].append(f"g={g[i]!r} vs reference {ref[i]!r} at t={t[i]!r}")
    fp_ref, fr_ref, size = overlay_reference(alphas, weights, t)
    for col, got, want in (("fp", fp, fp_ref), ("fr", fr, fr_ref)):
        bad = np.abs(got - want) > OVERLAY_RTOL * size * np.maximum(np.abs(want), 1.0)
        for i in np.flatnonzero(bad):
            problems[i].append(f"{col}={got[i]!r} vs {want[i]!r}")
    return problems


def check_source_point(t: float, value) -> list[str]:
    if not isinstance(value, float):
        return [f"t={t!r}: {value}"]
    ref = talbot(source_transform(), t)
    if not rel_err(value, ref) <= TRACE_RTOL:
        return [f"g={value!r} vs Talbot {ref!r} at t={t!r}"]
    return []


def check_figures(inputs: dict, round_dir: Path, values: dict) -> dict[str, list[str]]:
    results: dict[str, list[str]] = {}
    for name in FIG_PANELS:
        path = round_dir / f"{name}.csv"
        if not path.exists():
            for i in range(FIG_POINTS):
                results[f"{name}/{i}"] = ["panel missing from the output"]
            continue
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        per_point = check_panel(name, data[:, 0], data[:, 1], data[:, 2], data[:, 3])
        for i in range(FIG_POINTS):
            results[f"{name}/{i}"] = per_point[i] if i < len(per_point) else ["point missing"]
        if len(per_point) > FIG_POINTS:
            results[f"{name}/{FIG_POINTS - 1}"].append(f"{len(per_point) - FIG_POINTS} points beyond the grid")
    for t in inputs["source_ts"]:
        op = f"source/t={t!r}"
        results[op] = check_source_point(t, values.get(op, "missing"))
    return results


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def half_order_kernel(kernel: str, lam: float, t: float) -> float:
    """S1 and S2 of order 1/2 in closed form."""
    x = lam * math.sqrt(t)
    if kernel == "s1":
        return float(erfcx(x))
    return (1.0 / math.sqrt(math.pi) - x * float(erfcx(x))) / math.sqrt(t)


def ml2_half(beta: float, z: float) -> float:
    """E_{1/2,beta}(z) for beta in {1, 1/2}, z <= 0, in closed form."""
    if beta == 1.0:
        return float(erfcx(-z))
    return 1.0 / math.sqrt(math.pi) + z * float(erfcx(-z))


def check_kernels(inputs: dict, values: dict) -> dict[str, list[str]]:
    results: dict[str, list[str]] = {}
    pairs: dict[tuple, list[dict]] = {}
    for op in inputs["ops"]:
        v = values.get(op["id"], "missing")
        results[op["id"]] = [] if isinstance(v, float) and math.isfinite(v) else [f"no value: {v}"]
        if results[op["id"]]:
            continue
        if op["fn"] == "ml2":
            ref = ml2_half(op["beta"], op["z"])
            if not rel_err(v, ref) <= ML2_RTOL:
                results[op["id"]].append(f"ml2={v!r} vs closed form {ref!r}")
            continue
        kernel = op["fn"][:2]
        if tuple(op["alphas"]) == (0.5,):
            ref = half_order_kernel(kernel, op["lam"], op["t"])
            if not rel_err(v, ref) <= KERNEL_RTOL:
                results[op["id"]].append(f"{op['fn']}={v!r} vs closed form {ref!r}")
        else:
            key = (kernel, op["lam"], tuple(op["alphas"]), tuple(op["weights"]), op["t"])
            pairs.setdefault(key, []).append(op)
    for ops in pairs.values():
        vals = [values[op["id"]] for op in ops]
        if len(ops) == 2 and not rel_err(vals[0], vals[1]) <= KERNEL_RTOL:
            for op in ops:
                results[op["id"]].append(f"series and contour disagree: {vals[0]!r} vs {vals[1]!r}")
    return results


def check_workload(workload: str, inputs: dict, round_dir: Path, values: dict) -> dict[str, list[str]]:
    if workload == "tables":
        return check_tables(inputs, round_dir)
    if workload == "figures":
        return check_figures(inputs, round_dir, values)
    return check_kernels(inputs, values)
