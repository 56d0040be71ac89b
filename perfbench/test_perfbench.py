"""The benchmark's own tests: every check passes on a correct output and
flags a perturbed one, the tracer leaves outputs unchanged, the speed probe
scales time as documented, and inputs are a function of the seed.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fracorder import cli, forward, specfun  # noqa: E402


def _fit_row(table: str, label: str, kind: str):
    exp = table[:6] if table[:6] in ("table2", "table3") else table
    rows = cli.experiment_rows(cli.ExperimentConfig(exp, Path("unused")))
    row = next(r for r in rows if r.table == table and r.label == label and checks.kind_flag(r.kind) == kind)
    sample = cli.make_sample(row, 100)
    return row, cli.run_fit_row(row, 100), (sample.times, sample.values)


@pytest.fixture(scope="module")
def table1a_fp():
    return _fit_row("table1a", "1e-06", "fp")


def test_table_row_passes_and_flags_perturbed_alpha(table1a_fp):
    row, out, sample = table1a_fp
    assert checks.check_table_row("table1a", row.T0, out, sample) == []
    bad = dict(out, alpha2=repr(float(out["alpha2"]) + 0.02))
    problems = checks.check_table_row("table1a", row.T0, bad, sample)
    assert any("vs true" in p for p in problems)
    assert any("least-squares optimum" in p for p in problems)


def test_table_row_flags_constant_and_objective(table1a_fp):
    row, out, sample = table1a_fp
    bad = dict(out, constant=repr(float(out["constant"]) * (1.0 + 1e-4)))
    assert any("u0(x0)" in p for p in checks.check_table_row("table1a", row.T0, bad, sample))
    bad = dict(out, objective=repr(float(out["objective"]) * 1.01))
    assert any("reported objective" in p for p in checks.check_table_row("table1a", row.T0, bad, sample))


def test_one_term_optimum_flags_max_iter_stop():
    # table1b alpha = 0.9, fp stops at max_iter far from the optimum
    row, out, sample = _fit_row("table1b", "0.9", "fp")
    problems = checks.check_table_row("table1b", row.T0, out, sample)
    assert any("least-squares optimum" in p for p in problems)


def test_admissibility_and_status():
    ok = {"kind": "fr", "alpha1": "0.6", "alpha2": "0.9", "amplitude": "10.0", "r1": "0.5",
          "constant": "1.0", "objective": "1e-16", "status": "ok"}
    assert checks.check_table_row("table2a", 1e-3, ok) == []
    assert any("r1" in p for p in checks.check_table_row("table2a", 1e-3, dict(ok, r1="-0.5")))
    assert any("alpha1" in p for p in checks.check_table_row("table2a", 1e-3, dict(ok, alpha1="0.95")))
    assert any("amplitude" in p for p in checks.check_table_row("table2a", 1e-3, dict(ok, amplitude="-1")))
    honest = dict(ok, status="identifiability: alpha_1 <= 0")
    assert checks.check_table_row("table2a", 1e-3, honest) == []
    assert checks.check_table_row("table2a", 1e-7, honest) != []


@pytest.fixture(scope="module")
def small_fig2(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"fig_points": 40}))
    assert cli.main(["simulate", "--experiment", "fig2", "--config", str(cfg), "--out", str(out)]) == 0
    return np.loadtxt(out / "fig2_alpha0.2_0.7.csv", delimiter=",", skiprows=1)


def test_talbot_panel_check(small_fig2):
    t, g, fp, fr = small_fig2.T.copy()
    name = "fig2_alpha0.2_0.7"
    assert all(p == [] for p in checks.check_panel(name, t, g, fp, fr, n_points=40))
    g[25] *= 1.0 + 1e-4
    problems = checks.check_panel(name, t, g, fp, fr, n_points=40)
    assert any("reference" in p for p in problems[25])


def test_panel_order_and_overlay_checks(small_fig2):
    t, g, fp, fr = small_fig2.T.copy()
    name = "fig2_alpha0.2_0.7"
    g[10], g[11] = g[11], g[10]
    fp[5] *= 1.0 + 1e-9
    problems = checks.check_panel(name, t, g, fp, fr, n_points=40)
    assert any("increases" in p for p in problems[11])
    assert any(p.startswith("fp=") for p in problems[5])


def test_closed_form_panel_check():
    t = np.geomspace(checks.FIG_T_MIN, 1.0, 30)
    lam = workloads.LAM_41
    problem = forward.SpectralProblem(((lam, 1.0),), forward.Case.INITIAL_DATA)
    spec = specfun.OrderSpec((0.5,), (1.0,))
    g = np.array([forward.trace_initial(problem, spec, float(x), method="auto") for x in t])
    fp, fr, _ = checks.overlay_reference((0.5,), (1.0,), t)
    assert all(p == [] for p in checks.check_panel("fig1_alpha0.50", t, g, fp, fr, n_points=30))
    g[7] *= 1.0 + 1e-4
    assert any("reference" in p for p in checks.check_panel("fig1_alpha0.50", t, g, fp, fr, n_points=30)[7])


def test_source_point_check():
    problem = forward.build_example_4_2("ii")
    value = forward.trace_source(problem, specfun.OrderSpec(*workloads.SOURCE_ORDERS), 0.01)
    assert checks.check_source_point(0.01, value) == []
    assert checks.check_source_point(0.01, value * (1.0 + 1e-4)) != []
    assert checks.check_source_point(0.3, "DomainError: |z| > Z_MAX") != []


def test_kernel_checks():
    lam = workloads.LAM_41
    ops = (
        workloads.kernel_ops(lam, ((0.5,), (1.0,)), 0.01, "grid")
        + workloads.kernel_ops(lam, ((0.3, 0.7), (0.5, 1.0)), 0.01, "grid")
        + [{"id": "ml2", "fn": "ml2", "alpha": 0.5, "beta": 0.5, "z": -5.0}]
    )
    inputs = {"ops": ops}
    values = {op["id"]: workloads.call_kernel(specfun, op) for op in ops}
    assert all(p == [] for p in checks.check_kernels(inputs, values).values())
    for op in ops:
        bad = dict(values, **{op["id"]: values[op["id"]] * (1.0 + 1e-4)})
        assert checks.check_kernels(inputs, bad)[op["id"]], op["id"]
    bad = dict(values, ml2="AccuracyError: retries exhausted")
    assert checks.check_kernels(inputs, bad)["ml2"]


def test_tracer_leaves_outputs_and_restores_bindings():
    problem = forward.build_example_4_1(specfun.OrderSpec((0.7,), (1.0,)))
    spec = specfun.OrderSpec((0.7,), (1.0,))
    plain = forward.sample_trace(problem, spec, 1e-4, 5)
    original = forward.trace_initial
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = forward.sample_trace(problem, spec, 1e-4, 5)
    finally:
        tr.uninstall()
    assert forward.trace_initial is original
    assert np.array_equal(plain.values, traced.values)
    snap = tr.snapshot()
    m = snap["metrics"]
    assert m["forward.sample_trace.calls"] == 1
    assert m["forward.trace_initial.calls"] == 5
    assert m["specfun.mml.calls"] == 5
    assert m["forward.unique_sample_share"] == 1.0
    for calls, total, self_s in snap["spans"].values():
        assert 0.0 <= self_s <= total


def test_tracer_marks_missing_private_hook_absent(monkeypatch):
    monkeypatch.delattr(specfun, "_mml_mp")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    m = tr.snapshot()["metrics"]
    assert m["specfun.mml_mp.calls"] == tracer.ABSENT
    assert m["specfun.mp_share"] == tracer.ABSENT
    assert m["specfun.mml.calls"] == 0


def test_speed_probe_scales_gaps_and_skips_probe_time():
    ref = speed.REFERENCE_PROBE_S
    p = speed.SpeedProbe()
    # every probe takes twice the reference time, except one outlier that the
    # median over neighbouring probes ignores: the machine runs at half speed
    p.marks = [(t, t + (20 if t == 2.0 else 2) * ref) for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)]
    assert p.speed(2) == pytest.approx(0.5)
    assert p.scaled(1, 2) == pytest.approx(0.5 * (1.0 - 2 * ref))
    assert p.scaled(0, 5) == pytest.approx(0.5 * (5.0 - 2 * ref * 4 - 20 * ref))


def test_speed_probe_ticks_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    p = speed.SpeedProbe()
    first = p.start()
    end = time.monotonic() + 10 * speed.PERIOD_S
    while time.monotonic() < end:
        pass
    last = p.mark()
    p.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert last - first >= 3
    assert all(a[1] <= b[0] for a, b in zip(p.marks, p.marks[1:]))
    assert p.scaled(first, last) > 0


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    a, b = workloads.make_inputs("kernels", 1), workloads.make_inputs("kernels", 2)
    assert len(a["ops"]) == len(b["ops"]) and a != b
    ts = workloads.make_inputs("figures", 5)["source_ts"]
    assert ts[-1] == workloads.SOURCE_FAILING_T
    assert all(lo <= x <= hi for x, (lo, hi) in zip(ts, workloads.SOURCE_STRATA))


def test_per_layer_metrics_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert set(tracer.Tracer().snapshot()["metrics"]) | {"cli.import_s", "trace.overhead_s"} == set(run.PER_LAYER_UNITS)
