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
from fracorder.fit import FitConfig, FitResult, beta_init_from_alphas, recover
from fracorder.forward import (
    Case,
    SpectralProblem,
    TraceSample,
    build_example_4_1,
    build_example_4_2,
    sample_trace,
    trace_initial,
)
from fracorder.models import Kind, PhysicalParams, from_physical
from fracorder.specfun import DomainError, OrderSpec

__all__ = ["main", "experiment_rows", "ExperimentConfig"]

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


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    out_dir: Path
    t0_list: tuple[float, ...] | None = None
    kinds: tuple[str, ...] = ("fp", "fr")
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
            if not all(0.0 < t < math.inf for t in self.t0_list):
                raise DomainError(f"T0 values must be positive and finite, got {self.t0_list}")
            if len(set(self.t0_list)) < len(self.t0_list):
                raise DomainError(f"repeated T0 in {self.t0_list}")
            by_order = self.experiment in TABLES and TABLES[self.experiment][0] != "T0"
            if by_order and len(self.t0_list) > 1:
                raise DomainError(
                    f"{self.experiment} labels its rows by order and takes one T0, "
                    f"got {len(self.t0_list)}"
                )
        if not self.kinds or any(k not in _KIND_BY_FLAG for k in self.kinds):
            raise DomainError(f"kinds must be a non-empty list of 'fp' and 'fr', got {self.kinds}")
        if self.n_points < 2:
            raise DomainError(f"n_points must be at least 2, got {self.n_points}")
        if self.fig_points < 2:
            raise DomainError(f"fig_points must be at least 2, got {self.fig_points}")
        if not 0.0 < self.t_max < math.inf:
            raise DomainError(f"t_max must be positive and finite, got {self.t_max}")


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

# the keys a JSON config file may set
_CONFIG_KEYS = ("experiment", "out", "t0", "kinds", "jobs", "n_points", "t_max", "fig_points")
# the settings that an experiment never reads: the figures draw fixed panels
# on their own time grid, and the tables sample on (0, T0]
_UNREAD = {
    **dict.fromkeys(FIGURES, ("t0", "kinds", "n_points")),
    **dict.fromkeys(TABLES, ("t_max", "fig_points")),
}


def _weights(alphas: tuple[float, ...]) -> tuple[float, ...]:
    """Order weights with the leading weight one: (1,) or (R1, 1)."""
    return (R1, 1.0) if len(alphas) == 2 else (1.0,)


def experiment_rows(cfg: ExperimentConfig) -> list[FitRow]:
    """Expand an experiment into recovery tasks (tables only)."""
    if cfg.experiment not in TABLES:
        raise DomainError(f"experiment {cfg.experiment!r} has no fit rows (figure only)")
    label_column, default_t0, subtables = TABLES[cfg.experiment]
    t0s = cfg.t0_list or default_t0
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
    results = [out for group in groups for out in run_fit_group(group, cfg.n_points)]

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
    lam = _EX_4_1.modes[0][0]
    tgrid = np.geomspace(cfg.t_max * 1e-6, cfg.t_max, cfg.fig_points)
    phys = PhysicalParams(alphas, _weights(alphas), amplitude=lam, constant=1.0)
    # order one is the classical limit, outside the fractional order range
    orders = None if alphas == (1.0,) else OrderSpec(alphas, _weights(alphas))
    fp = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
    fr = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
    # every value is computed before the file is opened, so a failing panel
    # leaves no partial CSV
    ts = tgrid.tolist()
    if orders is None:
        g = [math.exp(-lam * t) for t in ts]
    else:
        g = trace_initial(_EX_4_1, orders, tgrid, method="auto").tolist()
    vp = models.eval_model(fp, tgrid).tolist()
    vr = models.eval_model(fr, tgrid).tolist()
    # plain floats under %.17g give the bytes of "{:.17g}" on numpy scalars
    lines = map("%.17g,%.17g,%.17g,%.17g\n".__mod__, zip(ts, g, vp, vr))
    with open(path, "w", newline="") as fh:
        fh.write("t,g,fp,fr\n")
        fh.writelines(lines)


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
            "lambda": _EX_4_1.modes[0][0],
            "t_max": cfg.t_max,
            "points": cfg.fig_points,
            "assumptions": [_R1_ASSUMED] if cfg.experiment == "fig2" else [],
        }
        _write_json(cfg.out_dir / f"{cfg.experiment}.meta.json", meta)
        return 0 if failures == 0 else 1

    for group in _sample_groups(experiment_rows(cfg)):
        row = group[0]
        order = "" if row.label_column == "T0" else f"_alpha{row.label}"
        # the short form names every default T0, a power of ten; any other
        # T0 takes its repr, so distinct values never share a file
        t0 = f"{row.T0:.0e}" if float(f"{row.T0:.0e}") == row.T0 else repr(row.T0)
        stem = f"{row.table}{order}_T0_{t0}"
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


def cmd_check() -> int:
    from fracorder.checks import run_checks  # only `check` loads the battery

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
    # check runs a fixed battery and takes no experiment flags
    sub.add_parser("check", help="run the invariant suite")
    for name, help_text in (
        ("simulate", "write trace CSV files"),
        ("fit", "run recoveries and write result tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--experiment", choices=EXPERIMENTS)
        # an unset flag (None) falls back to the config file, then to the
        # default in _config_from_args, so a flag given at its default wins
        p.add_argument("--out", type=Path, help="output directory (default: out)")
        p.add_argument("--jobs", type=int, help="accepted for compatibility; only 1")
        p.add_argument("--t0", type=_parse_t0_list, help="comma-separated T0 list")
        p.add_argument("--kind", choices=("fp", "fr", "both"), help="default: both")
        p.add_argument("--t-max", type=float, default=None, help="figure time range")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DomainError(f"{args.config}: the config file must hold a JSON object")
        if unknown := sorted(set(raw) - set(_CONFIG_KEYS)):
            raise DomainError(f"{args.config}: unknown keys {unknown}; known: {_CONFIG_KEYS}")
        for key in ("t0", "kinds"):
            if key in raw and not isinstance(raw[key], list):
                raise DomainError(f"{args.config}: {key!r} must be a list, got {raw[key]!r}")
        for key in ("n_points", "fig_points", "jobs"):
            # type, not isinstance: a bool is an int; and no float is truncated
            if key in raw and type(raw[key]) is not int:
                raise DomainError(f"{args.config}: {key!r} must be an integer, got {raw[key]!r}")
        for key, values in (("t_max", [raw.get("t_max", 1.0)]), ("t0", raw.get("t0", []))):
            if any(type(x) not in (int, float) for x in values):
                raise DomainError(f"{args.config}: {key!r} must hold numbers, got {raw[key]!r}")
    experiment = args.experiment or raw.get("experiment")
    if not experiment:
        raise DomainError("an experiment must be given via --experiment or --config")
    if args.command == "fit" and experiment in FIGURES:
        raise DomainError(f"experiment {experiment!r} has no fit rows; use simulate")
    # a setting that the experiment never reads is an error, not a no-op
    unread = _UNREAD.get(experiment, ())
    if args.command == "simulate" and experiment in TABLES:
        unread += ("kinds",)  # one trace serves both model kinds
    flags = {"t0": ("--t0", args.t0), "kinds": ("--kind", args.kind), "t_max": ("--t-max", args.t_max)}
    given = [flag for key, (flag, value) in flags.items() if key in unread and value is not None]
    given += [f"{key!r} in {args.config}" for key in unread if key in raw]
    if given:
        raise DomainError(f"experiment {experiment!r} does not read {', '.join(given)}")
    jobs = args.jobs if args.jobs is not None else raw.get("jobs", 1)
    if jobs != 1:
        raise DomainError(f"jobs must be 1 (the runner is serial), got {jobs!r}")
    t0 = args.t0 if args.t0 is not None else raw.get("t0")
    if args.kind is None:
        kinds = tuple(raw.get("kinds", ("fp", "fr")))
    else:
        kinds = ("fp", "fr") if args.kind == "both" else (args.kind,)
    return ExperimentConfig(
        experiment=experiment,
        out_dir=Path(args.out if args.out is not None else raw.get("out", "out")),
        t0_list=None if t0 is None else tuple(float(x) for x in t0),
        kinds=kinds,
        n_points=raw.get("n_points", 100),
        t_max=float(args.t_max if args.t_max is not None else raw.get("t_max", 1.0)),
        fig_points=raw.get("fig_points", 500),
    )


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FRACORDER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if args.command == "check":
        return cmd_check()
    try:
        cfg = _config_from_args(args)
    except (DomainError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "simulate":
        return cmd_simulate(cfg)
    return cmd_fit(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
