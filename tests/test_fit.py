"""Objective, linear initialization, projected quasi-Newton fit, recovery."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracorder import fit
from fracorder.fit import (
    FitConfig,
    NumericsError,
    RankDeficiencyError,
    linear_init,
    minimize,
    objective,
    objective_grad,
    recover,
)
from fracorder.forward import (
    Case,
    TraceSample,
    build_example_4_1,
    build_example_4_2,
    sample_trace,
)
from fracorder.models import (
    Kind,
    ModelParams,
    PhysicalParams,
    eval_model,
    exponents,
    from_physical,
    to_physical,
)
from fracorder.specfun import DomainError, OrderSpec

from conftest import count_calls, rel_err

PI2 = math.pi * math.pi


def _grid_sample(params: ModelParams, T0: float = 1.0, n: int = 100) -> TraceSample:
    t = np.arange(1, n + 1) * (T0 / n)
    return TraceSample(t, eval_model(params, t), T0=T0)


class TestObjective:
    def test_single_point_arithmetic(self):
        sample = TraceSample(np.array([1.0]), np.array([2.0]), T0=1.0)
        params = ModelParams(Kind.POLYNOMIAL, Case.SOURCE, (1.0,), (0.5,))
        assert objective(sample, params) == 0.5

    def test_exact_fit_is_zero(self):
        params = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7,))
        sample = _grid_sample(params)
        assert objective(sample, params) < 1e-28

    def test_quadratic_homogeneity(self):
        params = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7,))
        sample = _grid_sample(params)
        shifted1 = TraceSample(sample.times, sample.values + 0.1, T0=1.0)
        shifted2 = TraceSample(sample.times, sample.values + 0.2, T0=1.0)
        assert rel_err(objective(shifted2, params), 4.0 * objective(shifted1, params)) < 1e-12


class TestObjectiveGrad:
    def test_zero_at_exact_fit(self):
        params = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7,))
        sample = _grid_sample(params)
        assert np.max(np.abs(objective_grad(sample, params))) < 1e-12

    def test_linear_in_residuals(self):
        params = ModelParams(Kind.POLYNOMIAL, Case.SOURCE, (1.0,), (0.5,))
        base = _grid_sample(params)
        s1 = TraceSample(base.times, base.values + 0.1, T0=1.0)
        s2 = TraceSample(base.times, base.values + 0.3, T0=1.0)
        g1 = objective_grad(s1, params)
        g2 = objective_grad(s2, params)
        assert np.allclose(g2, 3.0 * g1, rtol=1e-12, atol=1e-18)


class TestLinearInit:
    def test_exact_polynomial_recovery(self):
        params = ModelParams(
            Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.5, -3.0, 0.7), (0.6, 1.1)
        )
        sample = _grid_sample(params)
        c = linear_init(sample, (0.6, 1.1), Kind.POLYNOMIAL, Case.INITIAL_DATA)
        assert np.max(np.abs(c - np.array([1.5, -3.0, 0.7]))) < 1e-10

    def test_constant_data_source(self):
        t = np.arange(1, 101) / 100.0
        sample = TraceSample(t, np.ones_like(t), T0=1.0)
        c = linear_init(sample, (0.5,), Kind.POLYNOMIAL, Case.SOURCE)
        # one decaying power column cannot explain a constant: large RMS misfit
        misfit = c[0] * t**0.5 - 1.0
        assert math.sqrt(np.mean(misfit * misfit)) > 0.05

    def test_example_lambda_within_one_percent(self):
        orders = OrderSpec((0.7,), (1.0,))
        problem = build_example_4_1()
        sample = sample_trace(problem, orders, 1e-6, 100)
        c = linear_init(sample, (0.7,), Kind.POLYNOMIAL, Case.INITIAL_DATA)
        lam_hat = -c[1] * math.gamma(1.7)
        assert rel_err(lam_hat, PI2 + 1.0) < 0.01

    def test_rank_deficiency(self):
        params = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7,))
        sample = _grid_sample(params)
        with pytest.raises(RankDeficiencyError):
            linear_init(
                sample, (0.7, 0.7 + 1e-12), Kind.POLYNOMIAL, Case.INITIAL_DATA
            )

    def test_rational_initial_linearization(self):
        phys = PhysicalParams((0.6,), (1.0,), 5.0, 1.0)
        params = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
        sample = _grid_sample(params, T0=1e-6)
        c = linear_init(sample, params.beta, Kind.RATIONAL, Case.INITIAL_DATA)
        # the linearization carries a structural offset from anchoring c0 at
        # the first sample; it only seeds the optimizer
        assert rel_err(c[1], params.c[1]) < 0.15
        # the c0 != 1 scaling must be honored
        phys2 = PhysicalParams((0.6,), (1.0,), 5.0, 2.5)
        params2 = from_physical(phys2, Kind.RATIONAL, Case.INITIAL_DATA)
        sample2 = _grid_sample(params2, T0=1e-6)
        c2 = linear_init(sample2, params2.beta, Kind.RATIONAL, Case.INITIAL_DATA)
        assert rel_err(c2[1], params2.c[1]) < 0.15


class TestMinimize:
    def test_exact_data_init_at_truth(self):
        params = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -4.0), (0.7,))
        sample = _grid_sample(params, T0=1e-2)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.7,)
        )
        res = minimize(sample, cfg)
        assert res.iterations <= 2
        assert res.objective < 1e-20
        assert res.converged

    def test_exact_rational_data(self):
        phys = PhysicalParams((0.6,), (1.0,), 8.0, 1.2)
        params = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
        sample = _grid_sample(params, T0=1e-2)
        cfg = FitConfig(
            kind=Kind.RATIONAL, case=Case.INITIAL_DATA, beta_init=(0.6,)
        )
        res = minimize(sample, cfg)
        assert res.converged
        assert res.objective < 1e-20

    def test_monotone_descent(self):
        orders = OrderSpec((0.7,), (1.0,))
        sample = sample_trace(build_example_4_1(), orders, 1e-4, 100)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.4,)
        )
        res = minimize(sample, cfg)
        hist = np.array(res.history)
        assert np.all(np.diff(hist) <= 1e-30 + 1e-12 * hist[:-1])

    def test_box_feasibility(self):
        # the optimum exponent 2.5 lies above the box [0.01, 1.99]: the
        # iterate rides the upper bound and stops there, stationary
        t = np.arange(1, 101) / 100.0
        sample = TraceSample(t, 1.0 - t**2.5, T0=1.0)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.5,)
        )
        res = minimize(sample, cfg)
        assert res.params.beta == (1.99,)
        assert res.converged
        assert res.iterations == 16

    def test_argmin_invariant_under_data_scaling(self):
        orders = OrderSpec((0.7,), (1.0,))
        sample = sample_trace(build_example_4_1(), orders, 1e-5, 100)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.5,)
        )
        res1 = minimize(sample, cfg)
        scaled = TraceSample(sample.times, 37.0 * sample.values, T0=sample.T0)
        res2 = minimize(scaled, cfg)
        assert abs(res1.params.beta[0] - res2.params.beta[0]) < 1e-8

    def test_nan_data_aborts(self):
        t = np.arange(1, 11) / 10.0
        g = np.ones(10)
        g[3] = np.nan
        sample = TraceSample(t, g, T0=1.0)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.5,)
        )
        with pytest.raises(NumericsError):
            minimize(sample, cfg)

    def test_config_validation(self):
        # one or two terms, one starting exponent each
        for binit in ((), (0.3, 0.5, 0.9)):
            with pytest.raises(DomainError, match="one or two exponents"):
                FitConfig(kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=binit)
        # every exponent starts inside the fixed box [0.01, 1.99]
        for binit in ((0.0,), (0.009,), (1.995,), (2.5,), (0.5, 1.991), (-0.3, 0.7)):
            with pytest.raises(DomainError, match="outside the exponent box"):
                FitConfig(
                    kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=binit,
                )
        for binit in ((0.01,), (1.99,), (0.01, 1.99)):
            cfg = FitConfig(
                kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=binit,
            )
            assert (cfg.beta_init, cfg.n_terms) == (binit, len(binit))
        # a kind or case given by its string value
        for kind, case in (("polynomial", Case.INITIAL_DATA), (Kind.RATIONAL, "source")):
            with pytest.raises(DomainError, match="kind must be a Kind"):
                FitConfig(kind=kind, case=case, beta_init=(0.5,))
        # the iteration count is a plain int: NaN iterations ran none and 2.5
        # ran three
        base = dict(kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.5,))
        for bad in (
            {"max_iter": math.nan}, {"max_iter": 2.5}, {"max_iter": 200.0}, {"max_iter": True},
        ):
            with pytest.raises(DomainError, match="must be an integer"):
                FitConfig(**{**base, **bad})

    def test_gradient_formed_only_at_accepted_points(self, monkeypatch):
        # a fit that backtracks and re-solves its amplitudes: trial points
        # evaluate the objective only, so the Jacobian is built once at the
        # start, once per accepted step and once per accepted re-solve
        orders = OrderSpec((0.7,), (1.0,))
        sample = sample_trace(build_example_4_1(), orders, 1e-4, 100)
        evals = count_calls(monkeypatch, fit, "_eval_arrays")
        jacobians = count_calls(monkeypatch, fit, "_grad_arrays")
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.4,)
        )
        res = minimize(sample, cfg)
        # the history holds the start, each accepted step and each accepted
        # re-solve
        resolves = len(res.history) - 1 - res.iterations
        assert res.iterations > 0 and resolves > 0
        assert len(jacobians) == 1 + res.iterations + resolves
        # one evaluation at the start, one per trial point and re-solve
        # attempt, one for the reported objective: some trials were rejected
        assert len(evals) > 2 + res.iterations + resolves
        assert len(jacobians) < len(evals)
        # the powers t**beta_i are formed once per evaluation, and each
        # Jacobian reads those of its point, with one ln t for the whole fit
        eval_powers = {id(args[3]) for args in evals}
        assert len(eval_powers) == len(evals)
        assert all(id(args[3]) in eval_powers for args in jacobians)
        assert len({id(args[4]) for args in jacobians}) == 1


def _textbook_two_loop(grad, s_list, y_list):
    """Nocedal's two-loop recursion, recomputing every curvature scalar."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        q *= float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
    for s, y, a in zip(s_list, y_list, reversed(alphas)):
        rho = 1.0 / float(y @ s)
        q += (a - rho * float(y @ q)) * s
    return q


class TestTwoLoop:
    def test_cached_pairs_match_textbook_bits(self):
        # both sides run here, on this machine's BLAS: the cached scalars must
        # not change a single bit of the search direction
        rng = np.random.default_rng(20261019)
        cases = 0
        for n_pairs in range(11):
            for dim in range(2, 7):
                for _ in range(20):
                    mags = 10.0 ** rng.uniform(-8, 8, size=dim)
                    s_list, y_list, memory = [], [], []
                    for _ in range(n_pairs):
                        s = rng.normal(size=dim) * mags
                        y = rng.normal(size=dim) / mags
                        if s.dot(y) <= 0.0:
                            y = -y
                        sy = float(s.dot(y))
                        s_list.append(s)
                        y_list.append(y)
                        memory.append((s, y, 1.0 / sy, sy, float(y.dot(y))))
                    grad = rng.normal(size=dim) / mags
                    got = fit._two_loop(grad, memory)
                    want = _textbook_two_loop(grad, s_list, y_list)
                    assert got.tobytes() == want.tobytes(), (n_pairs, dim, got, want)
                    cases += 1
        assert cases == 11 * 5 * 20


# float.hex of every minimize output on fixed table samples: params, objective
# and history, with iterations and the converged flag. A fit that stops at
# max_iter reacts to a last-bit change anywhere in an iteration (an exponent,
# a dot product's summation order), which no tolerance test sees; refreeze
# fit_bits.json only for an intended change of the optimizer's arithmetic or
# of the sampled traces
FIT_BITS = Path(__file__).with_name("fit_bits.json")
# name -> (problem, orders, weights, T0) of each sample
FIT_SAMPLES = {
    "table2a": (build_example_4_1, (0.6, 0.9), (0.5, 1.0), 1e-4),
    "table3b": (lambda: build_example_4_2("ii"), (0.5, 0.7), (0.5, 1.0), 1e-6),
    "table1b-0.9": (build_example_4_1, (0.9,), (1.0,), 1e-6),
    "example-4.1": (build_example_4_1, (0.7,), (1.0,), 1e-4),
}
# name -> (sample, kind, beta_init): each (kind, case) shape with one and two
# terms; the table1b alpha = 0.9 fp row, which stops at max_iter; and the fit
# with backtracking and re-solves of test_gradient_formed_only_at_accepted_points
FIT_CASES = {
    **{
        f"{kind.value}/{case.value}/{len(binit)}": (name, kind, binit)
        for name, case, binits in (
            ("table2a", Case.INITIAL_DATA, ((0.8,), (0.8, 1.2))),
            ("table3b", Case.SOURCE, ((0.6,), (0.6, 0.9))),
        )
        for kind in Kind
        for binit in binits
    },
    "table1b-0.9/polynomial": ("table1b-0.9", Kind.POLYNOMIAL, (0.5,)),
    "example-4.1/polynomial": ("example-4.1", Kind.POLYNOMIAL, (0.4,)),
}


def _iterate_bits(name: str) -> dict:
    def hexes(values):
        return [float(v).hex() for v in values]

    sample_name, kind, beta_init = FIT_CASES[name]
    build, alphas, weights, T0 = FIT_SAMPLES[sample_name]
    problem = build()
    sample = sample_trace(problem, OrderSpec(alphas, weights), T0, 100)
    cfg = FitConfig(kind=kind, case=problem.case, beta_init=beta_init)
    res = minimize(sample, cfg)
    return {
        "c": hexes(res.params.c),
        "beta": hexes(res.params.beta),
        "objective": res.objective.hex(),
        "history": hexes(res.history),
        "iterations": res.iterations,
        "converged": res.converged,
    }


class TestFrozenIterates:
    @pytest.mark.parametrize("name", list(FIT_CASES))
    def test_results_keep_their_bits(self, name):
        frozen = json.loads(FIT_BITS.read_text())[name]
        assert _iterate_bits(name) == frozen


class TestRecover:
    def test_self_consistent_single_mode(self):
        # data generated by the regressor itself is recovered exactly
        phys = PhysicalParams((0.7,), (1.0,), PI2 + 1.0, 1.0)
        params = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        sample = _grid_sample(params, T0=1e-3)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.7,)
        )
        res = recover(sample, cfg)
        assert res.objective < 1e-20
        assert rel_err(to_physical(res.params).alphas[0], 0.7) < 1e-9

    def test_table_1b_rational_beats_polynomial_at_small_order(self):
        orders = OrderSpec((0.3,), (1.0,))
        sample = sample_trace(build_example_4_1(), orders, 1e-6, 100)
        res_p = recover(
            sample,
            FitConfig(kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=(0.5,)),
        )
        res_r = recover(
            sample,
            FitConfig(kind=Kind.RATIONAL, case=Case.INITIAL_DATA, beta_init=(0.5,)),
        )
        a_p = to_physical(res_p.params).alphas[0]
        a_r = to_physical(res_r.params).alphas[0]
        assert abs(a_r - 0.3034) < 0.01
        assert abs(a_r - 0.3) < abs(a_p - 0.3)

    def test_two_term_resolved_when_signal_present(self):
        # synthetic two-term data with a strong trailing term: the staged
        # gate must accept the full fit and recover both exponents
        phys = PhysicalParams((0.5, 0.8), (0.5, 1.0), 20.0, 1.0)
        params = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        sample = _grid_sample(params, T0=0.5)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL,
            case=Case.INITIAL_DATA,
            beta_init=exponents((0.45, 0.75), Case.INITIAL_DATA),
            max_iter=1000,
        )
        res = recover(sample, cfg)
        phys = to_physical(res.params)
        assert rel_err(phys.alphas[0], 0.5) < 1e-4
        assert rel_err(phys.alphas[1], 0.8) < 1e-4
        assert rel_err(phys.weights[0], 0.5) < 1e-3
        assert not any("unresolved" in a for a in res.assumptions)

    def test_two_term_unresolved_reports_frozen_exponent(self):
        # tiny horizon: the trailing term sits below the resolvability
        # threshold; the trailing exponent is reported at its initialization
        # with zero amplitude
        orders = OrderSpec((0.6, 0.9), (0.5, 1.0))
        sample = sample_trace(build_example_4_1(), orders, 1e-6, 100)
        binit = exponents((0.4, 0.8), Case.INITIAL_DATA)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL, case=Case.INITIAL_DATA, beta_init=binit
        )
        res = recover(sample, cfg)
        assert res.params.c[-1] == 0.0
        assert res.params.beta[1] == binit[1]
        assert to_physical(res.params).weights[0] == 0.0
        assert any("unresolved" in a for a in res.assumptions)

    def test_negative_first_order_keeps_the_optimizer_verdict(self):
        # force beta_2 > 2 beta_1 so the recovered first order is negative:
        # the fit reports the optimizer's own flag, and the map still reads
        # the orders, alpha_1 = 2 beta_1 - beta_2 included
        params = ModelParams(
            Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -1.0, 0.5), (0.5, 1.3)
        )
        sample = _grid_sample(params, T0=1.0)
        cfg = FitConfig(
            kind=Kind.POLYNOMIAL,
            case=Case.INITIAL_DATA,
            beta_init=(0.5, 1.3),
        )
        res = recover(sample, cfg)
        assert res.converged == minimize(sample, cfg).converged
        alpha_1 = to_physical(res.params).alphas[0]
        assert alpha_1 == 2.0 * res.params.beta[0] - res.params.beta[1]
        assert rel_err(alpha_1, -0.3) < 1e-6
