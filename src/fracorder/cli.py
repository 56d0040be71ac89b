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

Exit codes: 0 when every row, panel, trace or check passed, 1 when one
failed (the rest are still written), 2 for a usage or configuration error,
3 for a crash (an uncaught exception, whose traceback goes to stderr).
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
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from fracorder import models, specfun
from fracorder.fit import FitConfig, FitResult, recover
from fracorder.forward import (
    Case,
    SpectralProblem,
    TraceSample,
    build_example_4_1,
    build_example_4_2,
    sample_trace,
    trace_initial,
)
from fracorder.models import Kind, PhysicalParams, exponents, from_physical, to_physical
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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of a `simulate` or `fit` run, named as the config file's
    keys and the flags' destinations; t0 None is the experiment's T0 list."""

    experiment: str
    out: Path = Path("out")
    t0: tuple[float, ...] | None = None
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
        object.__setattr__(self, "out", Path(self.out))
        if self.t0 is not None:
            if not isinstance(self.t0, (tuple, list)) or not all(map(_is_number, self.t0)):
                raise DomainError(f"T0 values must be a list of numbers, got {self.t0!r}")
            object.__setattr__(self, "t0", tuple(float(t) for t in self.t0))
            if len(self.t0) == 0:
                raise DomainError("empty T0 list")
            if not all(0.0 < t < math.inf for t in self.t0):
                raise DomainError(f"T0 values must be positive and finite, got {self.t0}")
            if len(set(self.t0)) < len(self.t0):
                raise DomainError(f"repeated T0 in {self.t0}")
            by_order = self.experiment in TABLES and TABLES[self.experiment][0] != "T0"
            if by_order and len(self.t0) > 1:
                raise DomainError(
                    f"{self.experiment} labels its rows by order and takes one T0, "
                    f"got {len(self.t0)}"
                )
        kinds = self.kinds
        if not isinstance(kinds, (tuple, list)) or not kinds or any(k not in _KIND_BY_FLAG for k in kinds):
            raise DomainError(f"kinds must be a non-empty list of 'fp' and 'fr', got {kinds!r}")
        object.__setattr__(self, "kinds", tuple(kinds))
        if len(set(self.kinds)) < len(self.kinds):
            raise DomainError(f"repeated kind in {self.kinds}")
        # type, not ==: True == 1.0 == 1
        if type(self.jobs) is not int or self.jobs != 1:
            raise DomainError(f"jobs must be 1 (the runner is serial), got {self.jobs!r}")
        for name in ("n_points", "fig_points"):
            # a bool is an int, and a float would be truncated
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 2:
                raise DomainError(f"{name} must be an integer of at least 2, got {value!r}")
        if not _is_number(self.t_max) or not 0.0 < self.t_max < math.inf:
            raise DomainError(f"t_max must be a positive finite number, got {self.t_max!r}")
        object.__setattr__(self, "t_max", float(self.t_max))


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
    assumptions: tuple[str, ...] = ()

    @property
    def n_terms(self) -> int:
        return len(self.beta_init)


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
    t0s = cfg.t0 or default_t0
    rows: list[FitRow] = []
    for table, problem, alphas, guess in subtables:
        orders = OrderSpec(alphas, _weights(alphas))
        beta_init = exponents(guess, problem.case, problem.source_exponent)
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
    """The physical constraints that the recovered values break; none, and the row is ok."""
    a1, a2, r1 = phys.alphas[0], phys.alphas[-1], phys.weights[0]
    two_term = len(phys.alphas) == 2
    broken = {
        "alpha2 <= 0 or >= 1": not 0.0 < a2 < 1.0,
        "amplitude <= 0": not phys.amplitude > 0.0,
        "alpha1 <= 0 or > alpha2": two_term and not 0.0 < a1 <= a2,
        "r1 < 0": two_term and not r1 >= 0.0,
    }
    return [what for what, is_broken in broken.items() if is_broken]


def _fill_result(out: dict, result: FitResult, phys: PhysicalParams) -> None:
    """Write a fit and its physical values, converged or not, judged by _inadmissible."""
    out["objective"] = repr(result.objective)
    out["iterations"] = repr(result.iterations)
    out["converged"] = repr(result.converged)
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
        try:
            result = recover(sample, FitConfig(row.kind, row.problem.case, row.beta_init))
            _fill_result(out, result, to_physical(result.params, row.problem.source_exponent))
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
    cfg.out.mkdir(parents=True, exist_ok=True)
    results = [out for group in groups for out in run_fit_group(group, cfg.n_points)]

    failures = sum(1 for r in results if r["status"] != "ok")
    tables = sorted({r.table for r in rows})
    for table in tables:
        picked = [(row, res) for row, res in zip(rows, results) if row.table == table]
        header = [picked[0][0].label_column, *RESULT_COLUMNS]
        _write_csv(cfg.out / f"{table}.csv", header, [res for _, res in picked])
        meta = _row_metadata(picked[0][0], cfg.n_points)
        meta["T0_list"] = sorted({row.T0 for row, _ in picked})
        _write_json(cfg.out / f"{table}.meta.json", meta)
    log.info("fit: wrote %d tables to %s (%d row failures)", len(tables), cfg.out, failures)
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
    cfg.out.mkdir(parents=True, exist_ok=True)
    failures = 0
    if cfg.experiment in FIGURES:
        for name, alphas in FIGURES[cfg.experiment]:
            path = cfg.out / f"{cfg.experiment}_{name}.csv"
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
        _write_json(cfg.out / f"{cfg.experiment}.meta.json", meta)
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
            sample.to_csv(cfg.out / f"{stem}.csv")
            meta = _row_metadata(row, cfg.n_points)
            meta["T0"] = row.T0
            _write_json(cfg.out / f"{stem}.meta.json", meta)
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


def _parse_kinds(text: str) -> tuple[str, ...]:
    """fp, fr, or both."""
    if text not in ("fp", "fr", "both"):
        raise argparse.ArgumentTypeError(f"invalid choice {text!r} (choose from fp, fr, both)")
    return tuple(_KIND_BY_FLAG) if text == "both" else (text,)


# the keys a JSON config file may set
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
# the flags of simulate and fit by the field they set; an unset flag (None)
# leaves it to the file, then to its default, so a given flag always wins
_FLAGS = {
    "experiment": ("--experiment", {"choices": EXPERIMENTS}),
    "out": ("--out", {"type": Path, "help": "output directory (default: out)"}),
    "jobs": ("--jobs", {"type": int, "help": "accepted for compatibility; only 1"}),
    "t0": ("--t0", {"type": _parse_t0_list, "help": "comma-separated T0 list"}),
    "kinds": ("--kind", {"type": _parse_kinds, "metavar": "{fp,fr,both}", "help": "default: both"}),
    "t_max": ("--t-max", {"type": float, "help": "figure time range"}),
}


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
        for key, (flag, spec) in _FLAGS.items():
            p.add_argument(flag, dest=key, **spec)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's settings, overlaid by the flags given."""
    raw: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise DomainError(f"{args.config}: the config file must hold a JSON object")
        if unknown := sorted(set(raw) - set(_CONFIG_KEYS)):
            raise DomainError(f"{args.config}: unknown keys {unknown}; known: {_CONFIG_KEYS}")
        # None stands for an unset setting, such as the default T0 list
        if nulls := [key for key, value in raw.items() if value is None]:
            raise DomainError(f"{args.config}: {nulls} must not be null")
    given = {key: value for key in _FLAGS if (value := getattr(args, key)) is not None}
    settings = {**raw, **given}
    experiment = settings.get("experiment")
    if not experiment:
        raise DomainError("an experiment must be given via --experiment or --config")
    if args.command == "fit" and experiment in FIGURES:
        raise DomainError(f"experiment {experiment!r} has no fit rows; use simulate")
    # a setting that the experiment never reads is an error, not a no-op
    unread = _UNREAD.get(experiment, ())
    if args.command == "simulate" and experiment in TABLES:
        unread += ("kinds",)  # one trace serves both model kinds
    named = [_FLAGS[key][0] for key in given if key in unread]
    named += [f"{key!r} in {args.config}" for key in unread if key in raw]
    if named:
        raise DomainError(f"experiment {experiment!r} does not read {', '.join(named)}")
    return ExperimentConfig(**settings)


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FRACORDER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if args.command != "check":
        try:
            cfg = _config_from_args(args)
        except (DomainError, OSError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # a crash exits 3, apart from the 1 of a failed row, panel or check
    try:
        if args.command == "check":
            return cmd_check()
        return cmd_simulate(cfg) if args.command == "simulate" else cmd_fit(cfg)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
