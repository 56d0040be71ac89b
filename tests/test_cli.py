"""Experiment runner: CSV artifacts, exit codes, determinism, check suite."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from scipy.special import erfcx

import fracorder.cli as cli
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
from fracorder.checks import ml_identity_e12, ml_identity_erfc
from fracorder.fit import FitConfig, FitResult, _attach_physical
from fracorder.forward import Case
from fracorder.models import Kind, ModelParams

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
        assert all("r1" in r.assumptions[0] for r in rows)

    def test_kind_filter(self):
        cfg = ExperimentConfig("table1a", Path("unused"), kinds=("fp",))
        assert len(experiment_rows(cfg)) == 7


class TestCmdFit:
    def test_table1a_output(self, tmp_path):
        cfg = ExperimentConfig(
            "table1a", tmp_path, t0_list=(1e-6,), kinds=("fp", "fr")
        )
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
        cfg = ExperimentConfig("table3", tmp_path, t0_list=(1e-8,))
        assert cmd_fit(cfg) == 0
        a = _read_csv(tmp_path / "table3a.csv")
        b = _read_csv(tmp_path / "table3b.csv")
        assert len(a) == 2 and len(b) == 2
        meta = json.loads((tmp_path / "table3a.meta.json").read_text())
        assert any("r1" in s for s in meta["assumptions"])

    def test_determinism(self, tmp_path):
        cfg1 = ExperimentConfig("table1a", tmp_path / "a", t0_list=(1e-6, 1e-5))
        cfg2 = ExperimentConfig("table1a", tmp_path / "b", t0_list=(1e-6, 1e-5))
        cmd_fit(cfg1)
        cmd_fit(cfg2)
        b1 = (tmp_path / "a" / "table1a.csv").read_bytes()
        b2 = (tmp_path / "b" / "table1a.csv").read_bytes()
        assert b1 == b2

    def test_partial_failure_exit_code(self, tmp_path):
        # a horizon far outside the series envelope fails per-row but the
        # run continues and reports exit code 1
        cfg = ExperimentConfig("table1a", tmp_path, t0_list=(1e6, 1e-6))
        assert cmd_fit(cfg) == 1
        rows = _read_csv(tmp_path / "table1a.csv")
        statuses = {r["T0"]: r["status"] for r in rows if r["kind"] == "fp"}
        assert statuses["1e-06"] == "ok"
        assert "DomainError" in statuses["1000000.0"]

    def test_each_sample_is_drawn_once(self, tmp_path, monkeypatch):
        # both model kinds of a row are fitted to one trace sample
        calls = []
        real = cli.sample_trace

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_trace", counted)
        assert cmd_fit(ExperimentConfig("table1a", tmp_path, t0_list=(1e-6,))) == 0
        assert len(calls) == 1
        assert len(_read_csv(tmp_path / "table1a.csv")) == 2

    def test_inadmissible_row_is_not_ok(self):
        # the two-term rational fit at T0 = 1e-3 lands on r1 < 0
        rows = experiment_rows(ExperimentConfig("table2", Path("unused"), t0_list=(1e-3,), kinds=("fr",)))
        row = next(r for r in rows if r.table == "table2a")
        out = run_fit_row(row, 100)
        assert float(out["r1"]) < 0.0
        assert out["status"] == "inadmissible: r1 < 0"


class TestResultCsv:
    def test_status_with_commas_and_quotes_round_trips(self, tmp_path):
        header = ["T0", *cli.RESULT_COLUMNS]
        status = 'identifiability: exponents beta=(0.88, 1.85) map to "alpha_1", not > 0'
        cli._write_csv(tmp_path / "t.csv", header, [{"T0": "0.1", "kind": "fr", "status": status}])
        (row,) = _read_csv(tmp_path / "t.csv")
        assert list(row) == header
        assert row["status"] == status
        assert row["alpha1"] == ""

    def test_identifiability_status_has_one_prefix(self):
        # beta_2 > 2 beta_1 maps to a negative first order
        params = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -1.0, 0.1), (0.5, 1.2))
        config = FitConfig(kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, n_terms=2, beta_init=(0.5, 1.2))
        result = _attach_physical(FitResult(params, None, 1e-3, 1.0, 5, True), config)
        assert result.physical is None
        out = {}
        cli._fill_result(out, result)
        assert out["status"].startswith("identifiability: ")
        assert out["status"].count("identifiability") == 1


class TestCmdSimulate:
    def test_trace_files(self, tmp_path):
        cfg = ExperimentConfig("table1a", tmp_path, t0_list=(1e-6,))
        assert cmd_simulate(cfg) == 0
        lines = (tmp_path / "table1a_T0_1e-06.csv").read_text().splitlines()
        assert lines[0] == "t,g"
        assert len(lines) == 101
        first_t = float(lines[1].split(",")[0])
        assert first_t == 1e-8

    def test_distinct_t0_values_name_distinct_files(self, tmp_path):
        # 1.5e-6 and 2e-6 share the short form 2e-06; a T0 that the short
        # form does not round-trip is named by its repr
        cfg = ExperimentConfig("table1a", tmp_path, t0_list=(1.5e-6, 2e-6))
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

    def test_fig2_metadata_flags_r1(self, tmp_path):
        cfg = ExperimentConfig("fig2", tmp_path, fig_points=12)
        assert cmd_simulate(cfg) == 0
        meta = json.loads((tmp_path / "fig2.meta.json").read_text())
        assert any("r1" in s for s in meta["assumptions"])
        assert len(list(tmp_path.glob("fig2_alpha*.csv"))) == 4


class TestMainEntry:
    def test_import_loads_no_mpmath(self):
        # mpmath loads when an extended-precision sum first runs, so a run
        # that needs none does not pay for the import
        code = "import sys, fracorder.cli; print('mpmath' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "False\n")

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
        # the runner is serial: --jobs takes only 1
        for jobs in ("0", "-2", "2"):
            argv = ["fit", "--experiment", "table1a", "--t0", "1e-6", "--jobs", jobs]
            assert main([*argv, "--out", str(tmp_path)]) == 2
        # more than one T0 for a table whose rows are labelled by order
        argv = ["fit", "--experiment", "table1b", "--t0", "1e-5,1e-4", "--out", str(tmp_path)]
        assert main(argv) == 2
        # a non-positive figure time range
        assert main(["simulate", "--experiment", "fig1", "--t-max", "-1", "--out", str(tmp_path)]) == 2
        # an infinite T0, as for the time range, and a repeated T0
        for t0 in ("inf", "1e-6,inf", "1e999", "1e-6,1e-6", "2e-6,1e-5,2e-06"):
            assert main(["fit", "--experiment", "table1a", "--t0", t0, "--out", str(tmp_path)]) == 2
            assert main(["simulate", "--experiment", "table1a", "--t0", t0, "--out", str(tmp_path)]) == 2
        # bad values from the config file: other job counts, a kind that is
        # neither fp nor fr, scalars where lists belong, an unknown key, too
        # few points, a value of the wrong type
        for bad in (
            {"jobs": 0}, {"jobs": -2}, {"jobs": 2},
            {"kinds": ["xx"]}, {"kinds": ["fp", "xx"]}, {"kinds": []}, {"kinds": "fp"},
            {"t0": 1e-6}, {"t_0": [1e-6]}, {"n_points": 1}, {"n_points": None},
            # point counts must be integers: no truncated float, no bool
            {"n_points": 2.9}, {"n_points": 100.0}, {"n_points": True}, {"n_points": "100"},
            # a job count is an integer and each T0 a number: no bool, no
            # float job count, no string
            {"jobs": True}, {"jobs": 1.0},
            {"t0": [True]}, {"t0": [1e-6, False]}, {"t0": ["1e-6"]},
            # a T0 that parses as inf (json writes it as Infinity)
            {"t0": [1e-6, math.inf]},
        ):
            cfgfile.write_text(json.dumps({"experiment": "table1a", "t0": [1e-6], **bad}))
            assert main(["fit", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        # the figure settings, on a figure, which reads them: a point count
        # is an integer of at least 2 and a time range a number
        for bad in (
            {"fig_points": 0}, {"fig_points": 2.5}, {"fig_points": True},
            {"t_max": True}, {"t_max": "1"}, {"jobs": True, "t_max": True},
        ):
            cfgfile.write_text(json.dumps({"experiment": "fig1", **bad}))
            assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert list(tmp_path.glob("*.csv")) == []

    def test_unread_settings_exit_2(self, tmp_path, capsys):
        # a flag or config key that the experiment never reads is named, not
        # dropped: the figures read no T0, kinds or sample size, the tables
        # no figure time range or figure point count, and simulate on a table
        # no kinds
        out = ["--out", str(tmp_path)]
        for argv, named in (
            (["simulate", "--experiment", "fig1", "--t0", "1e-3", "--kind", "fp"], "--t0, --kind"),
            (["simulate", "--experiment", "fig2", "--kind", "both"], "--kind"),
            (["fit", "--experiment", "table1a", "--t-max", "5"], "--t-max"),
            (["simulate", "--experiment", "table2", "--t-max", "1"], "--t-max"),
            (["simulate", "--experiment", "table1a", "--kind", "fp"], "--kind"),
        ):
            assert main([*argv, *out]) == 2
            assert f"does not read {named}" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg.json"
        for cfg, verb, key in (
            ({"experiment": "fig1", "n_points": 100}, "simulate", "n_points"),
            ({"experiment": "fig2", "t0": [1e-6]}, "simulate", "t0"),
            ({"experiment": "fig1", "kinds": ["fp"]}, "simulate", "kinds"),
            ({"experiment": "table1a", "fig_points": 500}, "fit", "fig_points"),
            ({"experiment": "table3", "t_max": 1.0}, "simulate", "t_max"),
            ({"experiment": "table1b", "kinds": ["fr"]}, "simulate", "kinds"),
        ):
            cfgfile.write_text(json.dumps(cfg))
            assert main([verb, "--config", str(cfgfile), *out]) == 2
            assert f"does not read {key!r} in {cfgfile}" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []
        # the one job count, and the figure point count on a figure, stay
        cfgfile.write_text(json.dumps({"experiment": "fig1", "fig_points": 3, "jobs": 1}))
        assert main(["simulate", "--config", str(cfgfile), "--jobs", "1", *out]) == 0

    def test_numbers_accepted(self, tmp_path):
        # integers and floats where numbers belong, and the one job count
        # there is, from the file or from the flag
        def config(verb, *argv):
            cfg = _config_from_args(_build_parser().parse_args([verb, *argv]))
            return cfg.t0_list, cfg.t_max

        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"experiment": "table1a", "t0": [1e-6, 1], "jobs": 1}))
        assert config("fit", "--config", str(cfgfile)) == ((1e-6, 1.0), 1.0)
        # the time range on a figure, which reads it
        cfgfile.write_text(json.dumps({"experiment": "fig1", "jobs": 1, "t_max": 2}))
        assert config("simulate", "--config", str(cfgfile)) == (None, 2.0)
        assert config("fit", "--experiment", "table1a", "--jobs", "1") == (None, 1.0)

    def test_fit_via_flags(self, tmp_path):
        rc = main(
            ["fit", "--experiment", "table1a", "--out", str(tmp_path),
             "--t0", "1e-6", "--kind", "fp"]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "table1a.csv")
        assert len(rows) == 1 and rows[0]["kind"] == "fp"

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps(
                {"experiment": "table1a", "t0": [1e-6], "kinds": ["fr"],
                 "out": str(tmp_path / "out")}
            )
        )
        assert main(["fit", "--config", str(cfgfile)]) == 0
        rows = _read_csv(tmp_path / "out" / "table1a.csv")
        assert len(rows) == 1 and rows[0]["kind"] == "fr"

    def test_explicit_flags_override_config_file(self, tmp_path):
        # a flag given with its default value still wins over the file
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(
            json.dumps({"experiment": "table1a", "out": "elsewhere", "kinds": ["fr"]})
        )

        def config(*argv):
            cfg = _config_from_args(_build_parser().parse_args(["fit", *argv]))
            return cfg.out_dir, cfg.kinds

        both = ("fp", "fr")
        flags = ("--out", "out", "--kind", "both")
        assert config("--config", str(cfgfile), *flags) == (Path("out"), both)
        assert config("--config", str(cfgfile)) == (Path("elsewhere"), ("fr",))
        assert config("--experiment", "table1a") == (Path("out"), both)


class TestCheckSuite:
    NAMES = (
        "gamma-spot-values",
        "ml-identity-e12",
        "ml-identity-erfc",
        "mml-m1-reduction",
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
        "objective-gradient-vs-fd",
    )

    def test_fresh_build_passes(self, capsys):
        assert cmd_check() == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [["PASS", name] for name in self.NAMES]
        assert lines[-1] == f"{len(self.NAMES)}/{len(self.NAMES)} checks passed"

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
