"""Workload inputs and one round of each workload.

`make_inputs` uses the standard library only, so the worker and the checking
parent derive the same inputs from the same seed.  `run_round` is the timed
part: it calls the package the way a user would, and writes or returns every
output of one round.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("tables", "figures", "kernels")

PI2 = math.pi * math.pi
LAM_41 = PI2 + 1.0  # eigenvalue of the interval problem and of the figures

TABLE_EXPERIMENTS = ("table1a", "table1b", "table2", "table3")
FIGURE_EXPERIMENTS = ("fig1", "fig2")

# source-case points on the table3b problem: one seeded t per stratum, each
# stratum narrow enough that the cost of a point barely depends on the seed,
# plus the fixed point t = 0.3 that fails (|z| > Z_MAX, no contour route)
SOURCE_STRATA = ((0.0095, 0.0105), (0.019, 0.021), (0.038, 0.042))
SOURCE_FAILING_T = 0.3
SOURCE_ORDERS = ((0.5, 0.7), (0.5, 1.0))

# the fixed 36-point series-vs-contour grid of acceptance criterion 5
GRID_LAMS = (1.0, LAM_41, 2.0 * PI2)
GRID_SPECS = (
    ((0.5,), (1.0,)),
    ((0.3, 0.7), (0.5, 1.0)),
    ((0.2, 0.9), (1.0, 1.0)),
)
GRID_TIMES = (1e-4, 1e-2, 1e-1, 1.0)
SERIES_REL_TOL = 1e-8
CONTOUR_RADIAL = 3000

# three-order spec: the fixed point falls back to the extended-precision
# series for S2 (about 1 s); the seeded points stay in double precision
THREE_ORDER = ((0.2, 0.5, 0.8), (0.5, 0.5, 1.0))
THREE_ORDER_MP_POINT = (2.0 * PI2, 0.2)
THREE_ORDER_T_STRATA = ((1e-3, 2e-3), (5e-3, 1e-2), (2e-2, 4e-2), (5e-2, 8e-2))
THREE_ORDER_LAM_RANGE = (1.0, 2.0 * PI2)

# ml2 at large |z|, order 1/2 so that closed forms check every value;
# |z| in [19, 20] keeps each call near 0.15 s on the extended-precision path
ML2_BETAS = (1.0, 0.5)
ML2_Z_RANGE = (-20.0, -19.0)
ML2_POINTS_PER_BETA = 2


def kernel_ops(lam: float, spec, t: float, tag: str) -> list[dict]:
    """S1 and S2 at one point, each by the series and by the contour."""
    ops = []
    for kernel in ("s1", "s2"):
        base = {"lam": lam, "alphas": spec[0], "weights": spec[1], "t": t}
        ops.append({"id": f"{tag}/{kernel}/series/lam={lam!r}/a={spec[0]}/t={t!r}",
                    "fn": f"{kernel}_kernel_series", **base})
        ops.append({"id": f"{tag}/{kernel}/contour/lam={lam!r}/a={spec[0]}/t={t!r}",
                    "fn": f"{kernel}_kernel_contour", **base})
    return ops


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload, a pure function of (workload, seed)."""
    rng = random.Random(seed)
    if workload == "tables":
        order = list(TABLE_EXPERIMENTS)
        rng.shuffle(order)
        return {"experiments": order}
    if workload == "figures":
        ts = [rng.uniform(lo, hi) for lo, hi in SOURCE_STRATA]
        return {"experiments": list(FIGURE_EXPERIMENTS), "source_ts": ts + [SOURCE_FAILING_T]}
    if workload == "kernels":
        ops: list[dict] = []
        for lam in GRID_LAMS:
            for spec in GRID_SPECS:
                for t in GRID_TIMES:
                    ops += kernel_ops(lam, spec, t, "grid")
        mp_lam, mp_t = THREE_ORDER_MP_POINT
        ops += kernel_ops(mp_lam, THREE_ORDER, mp_t, "three")
        lo, hi = THREE_ORDER_LAM_RANGE
        for tlo, thi in THREE_ORDER_T_STRATA:
            lam = rng.uniform(lo, hi)
            t = math.exp(rng.uniform(math.log(tlo), math.log(thi)))
            ops += kernel_ops(lam, THREE_ORDER, t, "three")
        for beta in ML2_BETAS:
            for _ in range(ML2_POINTS_PER_BETA):
                z = rng.uniform(*ML2_Z_RANGE)
                ops.append({"id": f"ml2/alpha=0.5/beta={beta!r}/z={z!r}", "fn": "ml2",
                            "alpha": 0.5, "beta": beta, "z": z})
        return {"ops": ops}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def call_kernel(specfun, op: dict) -> float:
    """Look the kernel up on the module at call time, so a traced run sees it."""
    if op["fn"] == "ml2":
        return specfun.ml2(op["alpha"], op["beta"], op["z"])
    spec = specfun.OrderSpec(tuple(op["alphas"]), tuple(op["weights"]))
    fn = getattr(specfun, op["fn"])
    if op["fn"].endswith("_series"):
        return fn(op["lam"], spec, op["t"], rel_tol=SERIES_REL_TOL)
    return fn(op["lam"], spec, op["t"], specfun.tight_contour(op["t"], CONTOUR_RADIAL))


def run_round(workload: str, inputs: dict, out_dir: Path) -> dict:
    """One round of the workload.  Files go to out_dir; values that are not
    written by the package itself are returned, keyed by operation id."""
    from fracorder import cli, forward, specfun

    out_dir.mkdir(parents=True, exist_ok=True)
    values: dict[str, object] = {}
    if workload == "tables":
        for exp in inputs["experiments"]:
            cli.main(["fit", "--experiment", exp, "--out", str(out_dir), "--jobs", "1"])
        return values
    if workload == "figures":
        for exp in inputs["experiments"]:
            cli.main(["simulate", "--experiment", exp, "--out", str(out_dir), "--jobs", "1"])
        problem = forward.build_example_4_2("ii")
        orders = specfun.OrderSpec(*SOURCE_ORDERS)
        lines = ["t,g"]
        for t in inputs["source_ts"]:
            try:
                g = forward.trace_source(problem, orders, t, method="auto")
                values[f"source/t={t!r}"] = g
                lines.append(f"{t!r},{g!r}")
            except (ArithmeticError, ValueError) as exc:
                values[f"source/t={t!r}"] = f"{type(exc).__name__}: {exc}"
                lines.append(f"{t!r},")
        (out_dir / "source.csv").write_text("\n".join(lines) + "\n")
        return values
    for op in inputs["ops"]:
        try:
            values[op["id"]] = call_kernel(specfun, op)
        except (ArithmeticError, ValueError) as exc:
            values[op["id"]] = f"{type(exc).__name__}: {exc}"
    return values
