"""Experiment runner: CSV artifacts, exit codes, determinism, check suite."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from scipy.special import erfcx

import fracorder.checks as checks
import fracorder.cli as cli
import fracorder.models as models
import fracorder.specfun as specfun
from fracorder.cli import (
    ExperimentConfig,
    _build_parser,
    _config_from_args,
    cmd_check,
    cmd_fit,
    cmd_simulate,
    experiment_rows,
    main,
    run_fit_row,
)
from fracorder.checks import (
    CHECKS,
    CheckResult,
    expansion_remainder_order_case_i,
    expansion_remainder_order_case_ii,
    laplace_step2_source_value,
    ml_identity_e12,
    ml_identity_erfc,
    model_jacobian_vs_fd,
    oracle_grid_series_vs_contour,
)
from fracorder.fit import FitResult, RankDeficiencyError
from fracorder.forward import Case, SpectralProblem, sample_trace
from fracorder.models import Kind, ModelParams, exponents, to_physical
from fracorder.specfun import AccuracyError, DomainError

from conftest import count_calls


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExperimentRegistry:
    def test_table1a_rows(self):
        cfg = ExperimentConfig("table1a", Path("unused"))
        rows = experiment_rows(cfg)
        assert len(rows) == 14  # 7 horizons x 2 kinds
        assert all(r.n_terms == 1 for r in rows)
        assert all(r.beta_init == (0.5,) for r in rows)

    def test_table3_rows(self):
        cfg = ExperimentConfig("table3", Path("unused"))
        rows = experiment_rows(cfg)
        assert len(rows) == 20  # 2 sub-tables x 5 horizons x 2 kinds
        names = {r.table for r in rows}
        assert names == {"table3a", "table3b"}
        assert all("r1" in cli._row_metadata(r, 100)["assumptions"][0] for r in rows)

    def test_each_horizon_fits_both_kinds_in_order(self):
        rows = experiment_rows(ExperimentConfig("table1a", Path("unused")))
        assert [r.kind for r in rows] == [Kind.POLYNOMIAL, Kind.RATIONAL] * 7
        assert all(cli._row_metadata(r, 100)["assumptions"] == [] for r in rows)


class TestCmdFit:
    def test_table1a_output(self, tmp_path):
        cfg = ExperimentConfig("table1a", tmp_path, t0=(1e-6,))
        assert cmd_fit(cfg) == 0
        rows = _read_csv(tmp_path / "table1a.csv")
        assert len(rows) == 2
        assert {r["kind"] for r in rows} == {"fp", "fr"}
        for r in rows:
            assert r["status"] == "ok"
            assert abs(float(r["alpha2"]) - 0.7) < 0.01
        meta = json.loads((tmp_path / "table1a.meta.json").read_text())
        assert meta["n_points"] == 100

    def test_table3_subtables(self, tmp_path):
        cfg = ExperimentConfig("table3", tmp_path, t0=(1e-8,))
        assert cmd_fit(cfg) == 0
        a = _read_csv(tmp_path / "table3a.csv")
        b = _read_csv(tmp_path / "table3b.csv")
        assert len(a) == 2 and len(b) == 2
        meta = json.loads((tmp_path / "table3a.meta.json").read_text())
        assert any("r1" in s for s in meta["assumptions"])

    def test_determinism(self, tmp_path):
        cfg1 = ExperimentConfig("table1a", tmp_path / "a", t0=(1e-6, 1e-5))
        cfg2 = ExperimentConfig("table1a", tmp_path / "b", t0=(1e-6, 1e-5))
        cmd_fit(cfg1)
        cmd_fit(cfg2)
        b1 = (tmp_path / "a" / "table1a.csv").read_bytes()
        b2 = (tmp_path / "b" / "table1a.csv").read_bytes()
        assert b1 == b2

    def test_partial_failure_exit_code(self, tmp_path):
        # a horizon far outside the series envelope fails per-row but the
        # run continues and reports exit code 1
        cfg = ExperimentConfig("table1a", tmp_path, t0=(1e6, 1e-6))
        assert cmd_fit(cfg) == 1
        rows = _read_csv(tmp_path / "table1a.csv")
        statuses = {r["T0"]: r["status"] for r in rows if r["kind"] == "fp"}
        assert statuses["1e-06"] == "ok"
        assert "DomainError" in statuses["1000000.0"]

    def test_failing_fit_marks_only_its_row(self, tmp_path, monkeypatch):
        # the fr fit of the shared sample raises: the fp row is fitted and
        # reads ok, the fr row reads the error, and the run exits 1
        real = cli.recover

        def recover(sample, config):
            if config.kind is Kind.RATIONAL:
                raise RankDeficiencyError("rank 1 < 2")
            return real(sample, config)

        monkeypatch.setattr(cli, "recover", recover)
        assert main(["fit", "--experiment", "table1a", "--t0", "1e-6", "--out", str(tmp_path)]) == 1
        rows = {r["kind"]: r for r in _read_csv(tmp_path / "table1a.csv")}
        assert rows["fp"]["status"] == "ok"
        assert abs(float(rows["fp"]["alpha2"]) - 0.7) < 0.01
        assert rows["fr"]["status"] == "RankDeficiencyError: rank 1 < 2"
        assert rows["fr"]["alpha2"] == ""

    def test_each_sample_is_drawn_once(self, tmp_path, monkeypatch):
        # both model kinds of a row are fitted to one trace sample
        calls = []
        real = cli.sample_trace

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_trace", counted)
        assert cmd_fit(ExperimentConfig("table1a", tmp_path, t0=(1e-6,))) == 0
        assert len(calls) == 1
        assert len(_read_csv(tmp_path / "table1a.csv")) == 2

    def test_inadmissible_row_is_not_ok(self):
        # the two-term rational fit at T0 = 1e-3 lands on r1 < 0
        rows = experiment_rows(ExperimentConfig("table2", Path("unused"), t0=(1e-3,)))
        row = next(r for r in rows if r.table == "table2a" and r.kind is Kind.RATIONAL)
        out = run_fit_row(row, 100)
        assert float(out["r1"]) < 0.0
        assert out["status"] == "inadmissible: r1 < 0"

    def test_row_maps_with_its_own_source_exponent(self):
        # a source problem with a = 0.5: the fitted exponent near 1.2 reads
        # as alpha2 near 0.7 only when the row's a is undone (a = 0 would
        # read 1.2, inadmissible); the cells are pinned as first written
        problem = SpectralProblem(((2.0 * math.pi**2, 1.0),), Case.SOURCE, source_exponent=0.5)
        orders = specfun.OrderSpec((0.7,), (1.0,))
        pinned = {
            "fp": ("0.6996374080550323", "0.994081251097907", "1.672674171643436e-31", "75", "True"),
            "fr": ("0.6996374185045431", "0.9940814599246127", "1.6716657322004265e-31", "70", "False"),
        }
        for kind in Kind:
            row = cli.FitRow(
                "source", "1e-06", "T0", problem, orders, 1e-6, kind,
                exponents((0.5,), Case.SOURCE, 0.5),
            )
            out = run_fit_row(row, 100)
            cells = ("alpha2", "amplitude", "objective", "iterations", "converged")
            assert tuple(out[c] for c in cells) == pinned[out["kind"]]
            assert (out["alpha1"], out["r1"], out["constant"], out["status"]) == ("", "", "", "ok")


class TestResultCsv:
    def test_status_with_commas_and_quotes_round_trips(self, tmp_path):
        header = ["T0", *cli.RESULT_COLUMNS]
        status = 'DomainError: exponents must lie in (0, 2), got (0.88, "2.5")'
        cli._write_csv(tmp_path / "t.csv", header, [{"T0": "0.1", "kind": "fr", "status": status}])
        (row,) = _read_csv(tmp_path / "t.csv")
        assert list(row) == header
        assert row["status"] == status
        assert row["alpha1"] == ""

    def test_negative_first_order_is_written_inadmissible(self):
        # beta_2 > 2 beta_1 maps to a negative first order: the row keeps its
        # values and the optimizer's flag, and the admissibility rule judges it
        params = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -1.0, 0.1), (0.5, 1.2))
        phys = to_physical(params)
        out = {"status": "ok"}
        cli._fill_result(out, FitResult(params, 1.0, 5, True), phys)
        assert out["status"] == "inadmissible: alpha1 <= 0 or > alpha2"
        assert float(out["alpha1"]) == phys.alphas[0] == 2.0 * 0.5 - 1.2
        assert out["alpha2"] == "0.5"
        assert out["converged"] == "True"


class TestCmdSimulate:
    def test_trace_files(self, tmp_path):
        cfg = ExperimentConfig("table1a", tmp_path, t0=(1e-6,))
        assert cmd_simulate(cfg) == 0
        lines = (tmp_path / "table1a_T0_1e-06.csv").read_text().splitlines()
        assert lines[0] == "t,g"
        assert len(lines) == 101
        first_t = float(lines[1].split(",")[0])
        assert first_t == 1e-8

    def test_round_trip_and_format(self, tmp_path):
        # a trace file holds the times and values of sample_trace's sample,
        # each cell the "{:.17g}" of the value it reads back as
        cfg = ExperimentConfig("table1a", tmp_path, t0=(1e-6,))
        assert cmd_simulate(cfg) == 0
        row = experiment_rows(cfg)[0]
        sample = sample_trace(row.problem, row.orders, row.T0, cfg.n_points)
        text = (tmp_path / "table1a_T0_1e-06.csv").read_text().splitlines()
        assert text[0] == "t,g"
        assert len(text) == 101
        cells = [[float(c) for c in line.split(",")] for line in text[1:]]
        assert cells == [[t, g] for t, g in zip(sample.times.tolist(), sample.values.tolist())]
        for line, t, g in zip(text[1:], sample.times, sample.values):
            assert line == f"{t:.17g},{g:.17g}"

    def test_distinct_t0_values_name_distinct_files(self, tmp_path):
        # 1.5e-6 and 2e-6 share the short form 2e-06; a T0 that the short
        # form does not round-trip is named by its repr
        cfg = ExperimentConfig("table1a", tmp_path, t0=(1.5e-6, 2e-6))
        assert cmd_simulate(cfg) == 0
        for stem, t0 in (("table1a_T0_1.5e-06", 1.5e-6), ("table1a_T0_2e-06", 2e-6)):
            assert json.loads((tmp_path / f"{stem}.meta.json").read_text())["T0"] == t0
            last_t = (tmp_path / f"{stem}.csv").read_text().splitlines()[-1].split(",")[0]
            assert math.isclose(float(last_t), t0, rel_tol=1e-15)
        assert len(list(tmp_path.glob("*.csv"))) == 2

    def test_table1b_one_trace_per_order(self, tmp_path):
        assert cmd_simulate(ExperimentConfig("table1b", tmp_path)) == 0
        alphas = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        assert len(list(tmp_path.glob("table1b_*.csv"))) == len(alphas)
        for alpha in alphas:
            stem = f"table1b_alpha{alpha}_T0_1e-06"
            meta = json.loads((tmp_path / f"{stem}.meta.json").read_text())
            assert meta["alphas"] == [alpha]
            assert len((tmp_path / f"{stem}.csv").read_text().splitlines()) == 101

    def test_fig1_columns(self, tmp_path):
        cfg = ExperimentConfig("fig1", tmp_path, fig_points=40)
        assert cmd_simulate(cfg) == 0
        lines = (tmp_path / "fig1_alpha0.25.csv").read_text().splitlines()
        assert lines[0] == "t,g,fp,fr"
        assert len(lines) == 41
        # the classical-limit panel decays like exp(-lambda t)
        lam = math.pi**2 + 1.0
        last = (tmp_path / "fig1_alpha1.00.csv").read_text().splitlines()[-1]
        t, g, _, _ = (float(x) for x in last.split(","))
        assert abs(g - math.exp(-lam * t)) < 1e-12

    def test_figure_traces(self, tmp_path, monkeypatch):
        # the large-t points of the fractional panels leave the double series;
        # none of them may fall back to extended precision
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        config = tmp_path / "fig.json"
        config.write_text(json.dumps({"fig_points": 60}))
        for fig in ("fig1", "fig2"):
            assert main(["simulate", "--experiment", fig, "--config", str(config), "--out", str(tmp_path)]) == 0
        assert mp_calls == []
        panels = sorted(tmp_path.glob("fig*_alpha*.csv"))
        assert len(panels) == 8
        for path in panels:
            g = [float(r["g"]) for r in _read_csv(path)]
            assert len(g) == 60
            assert all(v > 0.0 for v in g)
            assert all(b <= a for a, b in zip(g, g[1:])), path.name
        # S1 of the order 1/2 is E_{1/2}(-lam sqrt(t)) = erfcx(lam sqrt(t))
        lam = math.pi**2 + 1.0
        for r in _read_csv(tmp_path / "fig1_alpha0.50.csv"):
            ref = erfcx(lam * math.sqrt(float(r["t"])))
            assert abs(float(r["g"]) - ref) <= 1e-9 * ref

    def test_panel_lines_are_17_digit_floats(self, tmp_path):
        # each cell is "{:.17g}" of the value it reads back as
        assert cmd_simulate(ExperimentConfig("fig1", tmp_path, fig_points=50)) == 0
        for path in sorted(tmp_path.glob("fig1_*.csv")):
            lines = path.read_text().splitlines()
            assert len(lines) == 51
            for line in lines[1:]:
                assert line == ",".join("{:.17g}".format(float(x)) for x in line.split(","))

    def test_failing_panel_writes_no_csv(self, tmp_path, monkeypatch, caplog):
        # the other panels and the metadata are written, the failing panel
        # leaves no partial CSV, and the run exits 1
        real = cli.trace_initial

        def trace(problem, orders, t, **kwargs):
            if orders.alphas == (0.5,):
                raise AccuracyError("boom")
            return real(problem, orders, t, **kwargs)

        monkeypatch.setattr(cli, "trace_initial", trace)
        assert main(["simulate", "--experiment", "fig1", "--out", str(tmp_path)]) == 1
        written = sorted(path.name for path in tmp_path.iterdir())
        panels = [f"fig1_alpha{alpha}.csv" for alpha in ("0.25", "0.75", "1.00")]
        assert written == ["fig1.meta.json", *panels]
        assert "panel alpha0.50 failed: boom" in caplog.text

    def test_failing_trace_is_logged_and_skipped(self, tmp_path, monkeypatch, caplog):
        # one table1b order's sampling raises: the other six traces are
        # written, the failure is logged, and the run exits 1
        real = cli.make_sample

        def sample(row, n_points):
            if row.label == "0.5":
                raise AccuracyError("boom")
            return real(row, n_points)

        monkeypatch.setattr(cli, "make_sample", sample)
        assert cmd_simulate(ExperimentConfig("table1b", tmp_path)) == 1
        stems = sorted(path.stem for path in tmp_path.glob("*.csv"))
        assert stems == [f"table1b_alpha{a}_T0_1e-06" for a in (0.3, 0.4, 0.6, 0.7, 0.8, 0.9)]
        assert len(list(tmp_path.glob("*.meta.json"))) == 6
        assert "trace table1b_alpha0.5_T0_1e-06 failed: boom" in caplog.text

    def test_fig2_metadata_flags_r1(self, tmp_path):
        cfg = ExperimentConfig("fig2", tmp_path, fig_points=12)
        assert cmd_simulate(cfg) == 0
        meta = json.loads((tmp_path / "fig2.meta.json").read_text())
        assert any("r1" in s for s in meta["assumptions"])
        assert len(list(tmp_path.glob("fig2_alpha*.csv"))) == 4


class TestMainEntry:
    def test_import_loads_no_mpmath(self):
        # a layer loads the package root, itself and the layers under it, and
        # cli loads no checks; mpmath loads when an extended-precision sum
        # first runs, so a run that needs none does not pay for the import
        layers = ("specfun", "forward", "models", "fit", "cli")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for i, layer in enumerate(layers):
            code = (
                f"import sys, fracorder.{layer}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('fracorder', 'mpmath')))"
            )
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            loaded = sorted(["fracorder", *(f"fracorder.{name}" for name in layers[: i + 1])])
            assert (run.returncode, run.stdout) == (0, f"{loaded}\n"), layer

    def test_module_entry_exits_with_the_code_of_main(self):
        # python -m fracorder runs __main__.py, which exits with main's code
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = [sys.executable, "-m", "fracorder", "fit", "--experiment", "nonsense"]
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert "error: argument --experiment: invalid choice: 'nonsense'" in run.stderr

    def test_usage_errors_exit_2(self, tmp_path):
        assert main(["fit", "--experiment", "table1a", "--t0", "", "--out", str(tmp_path)]) == 2
        assert main(["fit", "--out", str(tmp_path)]) == 2
        assert main(["nonsense"]) == 2
        # an empty T0 list from the config file is an error, not the defaults
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"experiment": "table1a", "t0": []}))
        assert main(["fit", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        # a figure has no fit rows
        for fig in ("fig1", "fig2"):
            assert main(["fit", "--experiment", fig, "--out", str(tmp_path)]) == 2
        # more than one T0 for a table whose rows are labelled by order
        argv = ["fit", "--experiment", "table1b", "--t0", "1e-5,1e-4", "--out", str(tmp_path)]
        assert main(argv) == 2
        # an infinite T0 and a repeated T0
        for t0 in ("inf", "1e-6,inf", "1e999", "1e-6,1e-6", "2e-6,1e-5,2e-06"):
            assert main(["fit", "--experiment", "table1a", "--t0", t0, "--out", str(tmp_path)]) == 2
            assert main(["simulate", "--experiment", "table1a", "--t0", t0, "--out", str(tmp_path)]) == 2
        # bad values from the config file: a scalar where a list belongs, a
        # null, an unknown key, and a T0 that is not a number: no bool, no
        # string
        for bad in (
            {"t0": 1e-6}, {"t0": None}, {"t_0": [1e-6]},
            {"t0": [True]}, {"t0": [1e-6, False]}, {"t0": ["1e-6"]},
            # a T0 that parses as inf (json writes it as Infinity)
            {"t0": [1e-6, math.inf]},
        ):
            cfgfile.write_text(json.dumps({"experiment": "table1a", "t0": [1e-6], **bad}))
            assert main(["fit", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        # the figure point count, on a figure, which reads it: an integer of
        # at least 2, no truncated float, no bool, no string
        for bad in (
            {"fig_points": 0}, {"fig_points": 2.5}, {"fig_points": 500.0},
            {"fig_points": True}, {"fig_points": "500"},
        ):
            cfgfile.write_text(json.dumps({"experiment": "fig1", **bad}))
            assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert list(tmp_path.glob("*.csv")) == []
        # a config built in Python gets the same checks as one from the file
        for experiment, bad in (
            ("fig1", {"fig_points": 2.5}),
            ("table1a", {"t0": (True,)}),
        ):
            with pytest.raises(DomainError):
                ExperimentConfig(experiment, tmp_path, **bad)

    def test_fixed_values_are_not_settings(self, tmp_path, capsys):
        # the model kinds, the sample size and the figure time range are
        # constants, and the job count is a flag that takes only 1
        assert [f.name for f in fields(ExperimentConfig)] == ["experiment", "out", "t0", "fig_points"]
        cfg = ExperimentConfig("table1a", tmp_path)
        assert (cfg.n_points, cfg.t_max) == (100, 1.0)
        assert (type(cfg.n_points), type(cfg.t_max)) == (int, float)
        for name in ("kinds", "n_points", "t_max", "jobs"):
            with pytest.raises(TypeError):
                ExperimentConfig("table1a", tmp_path, **{name: 1})
        out = ["--out", str(tmp_path)]
        cfgfile = tmp_path / "cfg.json"
        for key, value in (("kinds", ["fp"]), ("n_points", 100), ("t_max", 1.0), ("jobs", 1)):
            cfgfile.write_text(json.dumps({"experiment": "table1a", "t0": [1e-6], key: value}))
            assert main(["fit", "--config", str(cfgfile), *out]) == 2
            assert f"unknown keys ['{key}']" in capsys.readouterr().err
        for flags in (["--kind", "fp"], ["--kind", "both"], ["--t-max", "1"]):
            assert main(["fit", "--experiment", "table1a", "--t0", "1e-6", *flags, *out]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        for jobs in ("0", "-2", "2", "True", "1.0"):
            assert main(["simulate", "--experiment", "fig1", "--jobs", jobs, *out]) == 2
            assert "--jobs: invalid" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []
        args = _build_parser().parse_args(["fit", "--experiment", "table1a", "--jobs", "1"])
        assert _config_from_args(args) == ExperimentConfig("table1a")

    def test_log_level_from_environment(self, monkeypatch, capsys):
        # the five level names in any case; any other value is a usage error
        # that names it, not a silent WARNING or a crash in logging
        monkeypatch.setattr(cli, "cmd_check", lambda: 0)
        for level in ("debug", "Info", "WARNING", "error", "critical"):
            monkeypatch.setenv("FRACORDER_LOG", level)
            assert main(["check"]) == 0
        for level in ("verbose", "basic_format", "", "10"):
            monkeypatch.setenv("FRACORDER_LOG", level)
            assert main(["check"]) == 2
            assert f"FRACORDER_LOG={level!r}" in capsys.readouterr().err

    def test_crash_exits_3(self, tmp_path, monkeypatch, capsys):
        # a crash is told apart from the exit 1 of a failed row: an --out
        # under a regular file, then each command raising
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["fit", "--experiment", "table1a", "--t0", "1e-6", "--out", str(blocker / "out")]
        assert main(argv) == 3
        assert "NotADirectoryError" in capsys.readouterr().err

        def crash(*args):
            raise RuntimeError("boom")

        out = ["--out", str(tmp_path)]
        for name, argv in (
            ("cmd_fit", ["fit", "--experiment", "table1a", "--t0", "1e-6", *out]),
            ("cmd_simulate", ["simulate", "--experiment", "fig1", *out]),
            ("cmd_check", ["check"]),
        ):
            monkeypatch.setattr(cli, name, crash)
            assert main(argv) == 3
            assert "RuntimeError: boom" in capsys.readouterr().err

    def test_unread_settings_exit_2(self, tmp_path, capsys):
        # a flag or config key that the experiment never reads is named, not
        # dropped: the figures read no T0, the tables no figure point count
        out = ["--out", str(tmp_path)]
        for fig in ("fig1", "fig2"):
            assert main(["simulate", "--experiment", fig, "--t0", "1e-3", *out]) == 2
            assert "does not read --t0" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg.json"
        for cfg, verb, key in (
            ({"experiment": "fig2", "t0": [1e-6]}, "simulate", "t0"),
            ({"experiment": "fig1", "t0": [1e-6], "fig_points": 3}, "simulate", "t0"),
            ({"experiment": "table1a", "fig_points": 500}, "fit", "fig_points"),
            ({"experiment": "table3", "fig_points": 500}, "simulate", "fig_points"),
        ):
            cfgfile.write_text(json.dumps(cfg))
            assert main([verb, "--config", str(cfgfile), *out]) == 2
            assert f"does not read {key!r} in {cfgfile}" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []
        # the one job count, and the figure point count on a figure, stay
        cfgfile.write_text(json.dumps({"experiment": "fig1", "fig_points": 3}))
        assert main(["simulate", "--config", str(cfgfile), "--jobs", "1", *out]) == 0

    def test_numbers_accepted(self, tmp_path):
        # integers and floats where T0 values belong, from the file or from
        # the flag, and the one job count there is
        def config(verb, *argv):
            return _config_from_args(_build_parser().parse_args([verb, *argv])).t0

        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"experiment": "table1a", "t0": [1e-6, 1]}))
        assert config("fit", "--config", str(cfgfile), "--jobs", "1") == (1e-6, 1.0)
        assert config("simulate", "--experiment", "table1a", "--t0", "1e-6,1") == (1e-6, 1.0)
        assert config("fit", "--experiment", "table1a", "--jobs", "1") is None

    def test_fit_via_flags(self, tmp_path):
        rc = main(["fit", "--experiment", "table1a", "--out", str(tmp_path), "--t0", "1e-6"])
        assert rc == 0
        rows = _read_csv(tmp_path / "table1a.csv")
        assert [(r["T0"], r["kind"]) for r in rows] == [("1e-06", "fp"), ("1e-06", "fr")]

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps(
                {"experiment": "table1a", "t0": [1e-5], "out": str(tmp_path / "out")}
            )
        )
        assert main(["fit", "--config", str(cfgfile)]) == 0
        rows = _read_csv(tmp_path / "out" / "table1a.csv")
        assert [(r["T0"], r["kind"]) for r in rows] == [("1e-05", "fp"), ("1e-05", "fr")]

    def test_explicit_flags_override_config_file(self, tmp_path):
        # a flag given with its default value still wins over the file
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"experiment": "table1b", "out": "elsewhere", "t0": [1e-5]})
        )

        def config(*argv):
            cfg = _config_from_args(_build_parser().parse_args(["fit", *argv]))
            return cfg.experiment, cfg.out, cfg.t0

        flags = ("--experiment", "table1a", "--out", "out", "--t0", "1e-6")
        assert config("--config", str(cfgfile), *flags) == ("table1a", Path("out"), (1e-6,))
        assert config("--config", str(cfgfile)) == ("table1b", Path("elsewhere"), (1e-5,))
        assert config("--experiment", "table1a") == ("table1a", Path("out"), None)


# the entries that criteria 5-8 of test_acceptance.py run
BY_CRITERIA = (
    oracle_grid_series_vs_contour,
    expansion_remainder_order_case_i,
    expansion_remainder_order_case_ii,
    laplace_step2_source_value,
    model_jacobian_vs_fd,
)


class TestCheckSuite:
    # the battery's entries in report order; each entry is the only statement
    # of its invariant, run once per pass: by criteria 5-8 of
    # test_acceptance.py, or else by test_entry_passes
    NAMES = (
        "gamma-spot-values",
        "ml-identity-e12",
        "ml-identity-erfc",
        "oracle-grid-series-vs-contour",
        "kernel-small-time-limits",
        "kernel-weight-rescaling",
        "s2-derivative-identity",
        "laplace-consistency",
        "laplace-initial-value-recovery",
        "laplace-step2-source-value",
        "expansion-remainder-order-case-i",
        "expansion-remainder-order-case-ii",
        "model-asymptotic-tightness",
        "model-jacobian-vs-fd",
    )

    # strict: a battery that gains or loses an entry fails collection here
    @pytest.mark.parametrize(
        "name, check",
        [
            pytest.param(name, check, id=name)
            for name, check in zip(NAMES, CHECKS, strict=True)
            if check not in BY_CRITERIA
        ],
    )
    def test_entry_passes(self, name, check):
        result = check()
        assert (result.name, result.passed) == (name, True), result.detail

    def test_failing_entry_exits_1(self, monkeypatch, capsys):
        stubs = (
            lambda: CheckResult("stub-ok", True, "fine"),
            lambda: CheckResult("stub-failing", False, "off by 1"),
        )
        monkeypatch.setattr(checks, "CHECKS", stubs)
        assert cmd_check() == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS  stub-ok       fine",
            "FAIL  stub-failing  off by 1",
            "1/2 checks passed",
        ]

    def test_takes_no_experiment_flags(self, tmp_path, capsys):
        for flags in (
            ["--t0", "5"], ["--kind", "fp"], ["--t-max", "1"], ["--experiment", "table1a"],
            ["--config", str(tmp_path / "cfg.json")], ["--out", str(tmp_path)], ["--jobs", "1"],
        ):
            assert main(["check", *flags]) == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_corrupted_gamma_fails_ml_identities(self, monkeypatch):
        real = specfun.log_gamma

        def corrupted(x):
            return real(x) + 1e-6

        monkeypatch.setattr(specfun, "log_gamma", corrupted)
        ml_checks = [ml_identity_e12(), ml_identity_erfc()]
        assert any(not c.passed for c in ml_checks)

    # every block of Jacobian rows (head coefficients, amplitudes, exponents)
    # of every model shape is audited: a 1e-4 relative error in one of them
    # must fail the 1e-6 bound (the polynomial source model has no head)
    @pytest.mark.parametrize(
        "kind, case, block",
        [
            (k, c, b)
            for k in Kind
            for c in Case
            for b in ("head", "amplitude", "exponent")
            if b != "head" or models.n_head(k, c)
        ],
    )
    def test_corrupted_jacobian_fails_audit(self, monkeypatch, kind, case, block):
        real = models._grad_arrays

        def corrupted(k, cs, c, powers, lnt, acc):
            rows = real(k, cs, c, powers, lnt, acc)
            if (k, cs) == (kind, case):
                head, m = models.n_head(k, cs), len(powers)
                start = {"head": 0, "amplitude": head, "exponent": head + m}[block]
                stop = {"head": head, "amplitude": head + m, "exponent": head + 2 * m}[block]
                rows[start:stop] *= 1.0 + 1e-4
            return rows

        monkeypatch.setattr(models, "_grad_arrays", corrupted)
        result = model_jacobian_vs_fd()
        assert not result.passed, result.detail
