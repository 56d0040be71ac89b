"""Acceptance gate: each test enforces one criterion at its stated tolerance
and prints one PASS/FAIL line (run with -s or -rA to see them).

Published reference values quoted below are the recovered entries of the
benchmark tables; the bands around them are part of the criteria.  Criteria
5-8 run the `fracorder check` entry that states their invariant.
"""

import math
import time

from fracorder.checks import (
    expansion_remainder_order_case_i,
    expansion_remainder_order_case_ii,
    laplace_step2_source_value,
    model_jacobian_vs_fd,
    oracle_grid_series_vs_contour,
)
from fracorder.cli import ExperimentConfig, cmd_fit
from fracorder.fit import FitConfig, recover
from fracorder.forward import Case, build_example_4_1, build_example_4_2, sample_trace
from fracorder.models import Kind, exponents, to_physical
from fracorder.specfun import OrderSpec

PI2 = math.pi * math.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")


def _fit(problem, orders, T0, kind, case, alpha_init):
    """The physical values of one recovery."""
    sample = sample_trace(problem, orders, T0, 100)
    cfg = FitConfig(kind=kind, case=case, beta_init=exponents(alpha_init, case))
    return to_physical(recover(sample, cfg).params)


def test_criterion_1_table1a_reproduction():
    published = {
        (Kind.POLYNOMIAL, 1e-7): (0.6993, 10.74),
        (Kind.POLYNOMIAL, 1e-6): (0.6998, 10.83),
        (Kind.POLYNOMIAL, 1e-5): (0.6989, 10.71),
        (Kind.RATIONAL, 1e-7): (0.6995, 10.78),
        (Kind.RATIONAL, 1e-6): (0.7001, 10.88),
        (Kind.RATIONAL, 1e-5): (0.7005, 10.95),
    }
    orders = OrderSpec((0.7,), (1.0,))
    problem = build_example_4_1()
    start = time.perf_counter()
    failures = []
    for (kind, T0), (a_ref, lam_ref) in published.items():
        p = _fit(problem, orders, T0, kind, Case.INITIAL_DATA, (0.5,))
        a_hat = p.alphas[0]
        lam_hat = p.amplitude
        if abs(a_hat - a_ref) > 0.01:
            failures.append(f"alpha {a_hat:.4f} vs {a_ref} at T0={T0:g} {kind.value}")
        if abs(lam_hat - lam_ref) / lam_ref > 0.10:
            failures.append(f"lambda {lam_hat:.3f} vs {lam_ref} at T0={T0:g} {kind.value}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(1, not failures, f"6 recoveries in {elapsed:.2f}s; deviations within bands" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_2_table1b_trend():
    orders_grid = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    problem = build_example_4_1()
    failures = []
    fr_03_err = None
    for alpha in orders_grid:
        orders = OrderSpec((alpha,), (1.0,))
        res = {}
        for kind in Kind:
            res[kind] = _fit(problem, orders, 1e-6, kind, Case.INITIAL_DATA, (0.5,)).alphas[0]
        e_p = abs(res[Kind.POLYNOMIAL] - alpha)
        e_r = abs(res[Kind.RATIONAL] - alpha)
        if e_r > e_p + 0.005:
            failures.append(f"alpha={alpha}: fr err {e_r:.4f} > fp err {e_p:.4f} + 0.005")
        if alpha == 0.3:
            fr_03_err = e_r
    if fr_03_err is None or fr_03_err >= 0.01:
        failures.append(f"fr error at alpha=0.3 is {fr_03_err}")
    _report(2, not failures, f"rational never worse; fr err at 0.3 = {fr_03_err:.4f}" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_3_table3a_reproduction():
    published = {
        (Kind.POLYNOMIAL, 1e-8): (0.4992, 0.7996, 53.80),
        (Kind.POLYNOMIAL, 1e-7): (0.4984, 0.7992, 53.40),
        (Kind.RATIONAL, 1e-8): (0.4992, 0.7996, 53.81),
        (Kind.RATIONAL, 1e-7): (0.4985, 0.7992, 53.44),
    }
    orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
    problem = build_example_4_2("i")
    failures = []
    for (kind, T0), (a1_ref, a2_ref, amp_ref) in published.items():
        p = _fit(problem, orders, T0, kind, Case.INITIAL_DATA, (0.3, 0.7))
        if abs(p.alphas[0] - a1_ref) > 0.01 or abs(p.alphas[1] - a2_ref) > 0.01:
            failures.append(f"alphas {p.alphas} vs ({a1_ref},{a2_ref}) at T0={T0:g} {kind.value}")
        if abs(p.amplitude - amp_ref) / amp_ref > 0.05:
            failures.append(f"amplitude {p.amplitude:.2f} vs {amp_ref} at T0={T0:g} {kind.value}")
        if not abs(p.weights[0]) < 1e-6:
            failures.append(f"r1 {p.weights[0]!r} not < 1e-6 at T0={T0:g} {kind.value}")
    _report(3, not failures, "orders, amplitude, and r1 within bands" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_4_table2a_reproduction():
    published = {1e-7: (0.5971, 0.8985), 1e-6: (0.5943, 0.8972), 1e-5: (0.5887, 0.8943)}
    wide = {1e-4: (0.5766, 0.8883)}
    orders = OrderSpec((0.6, 0.9), (0.5, 1.0))
    problem = build_example_4_1()
    failures = []
    for table, tol in ((published, 0.02), (wide, 0.05)):
        for T0, (a1_ref, a2_ref) in table.items():
            for kind in Kind:
                p = _fit(problem, orders, T0, kind, Case.INITIAL_DATA, (0.4, 0.8))
                if abs(p.alphas[0] - a1_ref) > tol or abs(p.alphas[1] - a2_ref) > tol:
                    failures.append(
                        f"alphas {p.alphas} vs ({a1_ref},{a2_ref}) +-{tol} at T0={T0:g} {kind.value}"
                    )
    _report(4, not failures, "orders within bands at all four horizons" if not failures else "; ".join(failures))
    assert not failures


def test_criterion_5_oracle_equivalence():
    # series certified 100x tighter than the 1e-6 agreement bound, on the
    # battery's 36-point grid
    start = time.perf_counter()
    result = oracle_grid_series_vs_contour()
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 5.0
    _report(5, ok, f"36-point grid, {result.detail}, {elapsed:.2f}s")
    assert result.passed
    assert elapsed < 5.0


def test_criterion_6_remainder_order():
    results = [expansion_remainder_order_case_i(), expansion_remainder_order_case_ii()]
    ok = all(r.passed for r in results)
    _report(6, ok, "; ".join(f"{r.name}: {r.detail}" for r in results))
    assert ok


def test_criterion_7_laplace_step2():
    result = laplace_step2_source_value()
    _report(7, result.passed, result.detail)
    assert result.passed


def test_criterion_8_gradient_suite():
    # 50 draws over all model shapes, each the relative error of the model
    # Jacobian that every fit forms against central differences
    result = model_jacobian_vs_fd()
    _report(8, result.passed, f"50 draws, {result.detail}")
    assert result.passed


def test_criterion_9_determinism(tmp_path):
    outs = []
    for name in ("run1", "run2"):
        cfg = ExperimentConfig("table1a", tmp_path / name)
        assert cmd_fit(cfg) == 0
        outs.append((tmp_path / name / "table1a.csv").read_bytes())
    ok = outs[0] == outs[1]
    _report(9, ok, f"two table1a runs byte-identical ({len(outs[0])} bytes)")
    assert ok
