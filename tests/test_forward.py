"""Spectral forward model: traces, Laplace transforms, example problems."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fracorder import cli, forward, specfun
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
from fracorder.models import Kind, ModelParams, PhysicalParams, eval_model, from_physical
from fracorder.specfun import (
    DomainError,
    OrderSpec,
    ml2,
    s1_kernel_series,
    s2_kernel_int_series,
)

from conftest import count_calls, rel_err

PI2 = math.pi * math.pi


class TestBuilders:
    def test_example_4_1_fields(self):
        p = build_example_4_1()
        assert p.modes == ((PI2 + 1.0, 1.0),)
        assert p.case is Case.INITIAL_DATA

    def test_example_4_1_requires_unit_leading_weight(self):
        with pytest.raises(DomainError):
            build_example_4_1(OrderSpec((0.3, 0.7), (0.5, 2.0)))

    def test_example_4_2_case_i(self):
        p = build_example_4_2("i")
        # u0(x0) and Au0(x0), the latter reported as 5.428e1
        assert sum(w for _, w in p.modes) == 1.625
        au0 = sum(l * w for l, w in p.modes)
        assert rel_err(au0, 5.5 * PI2) < 1e-15
        assert abs(au0 - 54.28) < 0.01

    def test_example_4_2_case_ii(self):
        p = build_example_4_2("ii")
        assert p.case is Case.SOURCE
        assert p.source_exponent == 0.0
        # f(x0)
        assert sum(w for _, w in p.modes) == 2.5

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            build_example_4_2("iii")

    def test_case_must_be_a_case(self):
        with pytest.raises(DomainError, match="case must be a Case"):
            SpectralProblem(((1.0, 1.0),), "source")

    # a non-finite field would make every trace nan or inf
    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_mode_weight(self, weight):
        with pytest.raises(DomainError, match=f"weights must be finite, got .*{weight}"):
            SpectralProblem(((1.0, 1.0), (2.0, weight)), Case.INITIAL_DATA)

    def test_non_finite_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalues must be positive and finite, got .*inf"):
            SpectralProblem(((1.0, 1.0), (math.inf, 1.0)), Case.INITIAL_DATA)

    # a source exponent lies in [0, 1], and initial data has none
    @pytest.mark.parametrize("case, a, message", [
        (Case.INITIAL_DATA, 0.7, "initial-data case has no source exponent, got a = 0.7"),
        (Case.INITIAL_DATA, math.nan, "initial-data case has no source exponent, got a = nan"),
        (Case.SOURCE, -0.5, r"source exponent a must lie in \[0, 1\], got -0.5"),
        (Case.SOURCE, 1.5, r"source exponent a must lie in \[0, 1\], got 1.5"),
        (Case.SOURCE, math.nan, r"source exponent a must lie in \[0, 1\], got nan"),
    ])
    def test_source_exponent_rule(self, case, a, message):
        with pytest.raises(DomainError, match=message):
            SpectralProblem(((1.0, 1.0),), case, source_exponent=a)


class TestTraceInitial:
    def test_single_mode_closed_form(self):
        orders = OrderSpec((0.7,), (1.0,))
        p = build_example_4_1()
        lam = PI2 + 1.0
        for t in (1e-6, 1e-3, 1e-1):
            a = trace_initial(p, orders, t)
            b = ml2(0.7, 1.0, -lam * t**0.7)
            assert rel_err(a, b) < 1e-12

    def test_small_time_value(self):
        orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
        p = build_example_4_2("i")
        val = trace_initial(p, orders, 1e-12)
        assert abs(val - 1.625) < 1e-6

    def test_two_term_expansion_order(self):
        # discrepancy against the two-term small-time model decays like t^1.6
        orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
        p = build_example_4_2("i")
        u0 = sum(w for _, w in p.modes)
        au0 = sum(l * w for l, w in p.modes)
        phys = PhysicalParams(orders.alphas, orders.weights, au0, u0)
        model = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        ratios = []
        for t in (1e-6, 1e-5, 1e-4):
            r = trace_initial(p, orders, t) - eval_model(model, t)
            ratios.append(abs(r) / t**1.6)
        assert max(ratios) / min(ratios) < 4.0

    def test_case_mismatch(self):
        orders = OrderSpec((0.5,), (1.0,))
        with pytest.raises(DomainError):
            trace_initial(build_example_4_2("ii"), orders, 0.1)


class TestTraceSource:
    def test_small_time_limit(self):
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        p = build_example_4_2("ii")
        assert abs(trace_source(p, orders, 1e-12)) < 1e-7

    def test_leading_term(self):
        # leading behaviour f(x0) t^alpha_N / Gamma(alpha_N + 1)
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        p = build_example_4_2("ii")
        t = 1e-8
        lead = 2.5 * t**0.7 / math.gamma(1.7)
        # next term enters at relative size O(t^0.2) ~ 1.2 percent here
        assert rel_err(trace_source(p, orders, t), lead) < 2e-2

    def test_single_mode_reduction(self):
        orders = OrderSpec((0.5,), (1.0,))
        p = SpectralProblem(((3.0, 2.0 * 0.5),), Case.SOURCE)
        for t in (1e-4, 1e-2):
            a = trace_source(p, orders, t)
            b = 2.0 * 0.5 * t**0.5 * ml2(0.5, 1.5, -3.0 * t**0.5)
            assert rel_err(a, b) < 1e-12

    @pytest.mark.parametrize("method", ["series", "auto"])
    def test_doubling_the_weights_doubles_the_trace(self, method):
        # the trace is linear in the weights: doubling each one doubles g
        # to the last bit, so a time factor c0 s^a / Gamma(a+1) is c0 on w_n
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        p = build_example_4_2("ii")
        doubled = SpectralProblem(tuple((l, 2.0 * w) for l, w in p.modes), Case.SOURCE)
        times = np.geomspace(1e-6, 1e-2, 5)
        g = trace_source(p, orders, times, method=method)
        assert np.array_equal(trace_source(doubled, orders, times, method=method), 2.0 * g)


class TestRepeatedEigenvalues:
    # case i repeats 5 pi^2 and case ii repeats 5 pi^2 and 10 pi^2; each
    # distinct eigenvalue is summed once and the per-mode products keep their
    # order inside fsum, so the trace is unchanged to the last bit
    def test_initial_sums_each_eigenvalue_once(self, monkeypatch):
        problem = build_example_4_2("i")
        spec = OrderSpec((0.5, 0.8), (0.5, 1.0))
        t = 1e-4
        ref = math.fsum(w * s1_kernel_series(lam, spec, t) for lam, w in problem.modes)
        calls = count_calls(monkeypatch, specfun, "mml")
        assert trace_initial(problem, spec, t) == ref
        assert len(calls) == 3

    def test_source_sums_each_eigenvalue_once(self, monkeypatch):
        problem = build_example_4_2("ii")
        spec = OrderSpec((0.5, 0.7), (0.5, 1.0))
        t = 1e-4
        ref = math.fsum(w * s2_kernel_int_series(lam, spec, 0.0, t) for lam, w in problem.modes)
        calls = count_calls(monkeypatch, specfun, "mml")
        assert trace_source(problem, spec, t) == ref
        assert len(calls) == 3


class TestAutoMethod:
    @staticmethod
    def _talbot(problem, orders, t):
        """Laplace inversion of the trace at 30 digits, apart from the package."""
        a = [mpmath.mpf(x) for x in orders.alphas]
        r = [mpmath.mpf(x) for x in orders.weights]
        modes = [(mpmath.mpf(l), mpmath.mpf(w)) for l, w in problem.modes]

        def F(p):
            q = sum(ri * p**ai for ai, ri in zip(a, r))
            if problem.case is Case.SOURCE:
                return sum(w / (l + q) for l, w in modes) / p
            num = sum(ri * p ** (ai - 1) for ai, ri in zip(a, r))
            return sum(w * num / (l + q) for l, w in modes)

        with mpmath.workdps(30):
            return float(mpmath.invertlaplace(F, t, method="talbot"))

    def test_source_beyond_series_envelope(self, monkeypatch):
        # at t = 0.3 the series arguments exceed Z_MAX for the large modes,
        # and the small modes cancel too much for the double sum
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        problem = build_example_4_2("ii")
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        g = trace_source(problem, orders, 0.3, method="auto")
        assert rel_err(g, self._talbot(problem, orders, 0.3)) < 1e-6
        assert mp_calls == []

    def test_initial_beyond_series_envelope(self):
        # |z| = 45.3 > Z_MAX for the 8 pi^2 mode; auto decides before building
        # the series arguments
        problem = build_example_4_2("i")
        orders = OrderSpec((0.5, 0.8), (0.5, 1.0))
        g = trace_initial(problem, orders, 0.5, method="auto")
        assert rel_err(g, self._talbot(problem, orders, 0.5)) < 1e-6

    def test_auto_matches_the_series_without_summing_it(self, monkeypatch):
        # the table3a initial-data and table3b source problems at small t
        cases = (
            (trace_initial, build_example_4_2("i"), OrderSpec((0.5, 0.8), (0.5, 1.0))),
            (trace_source, build_example_4_2("ii"), OrderSpec((0.5, 0.7), (0.5, 1.0))),
        )
        times = (1e-8, 1e-6, 1e-4)
        series = [trace(p, o, t) for trace, p, o in cases for t in times]
        sums = count_calls(monkeypatch, specfun, "_mml_double")
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        auto = [trace(p, o, t, method="auto") for trace, p, o in cases for t in times]
        assert sums == [] and mp_calls == []
        for a, s in zip(auto, series):
            assert rel_err(a, s) < 1e-9

    @pytest.mark.parametrize("trace, case", [(trace_initial, "i"), (trace_source, "ii")])
    def test_series_and_auto_agree_at_any_leading_weight(self, trace, case):
        # both routes take the weights as given, r_N = 2 here
        problem = build_example_4_2(case)
        orders = OrderSpec((0.5, 0.8), (0.5, 2.0))
        for t in np.geomspace(1e-4, 0.05, 6):
            assert rel_err(trace(problem, orders, t), trace(problem, orders, t, method="auto")) < 1e-9
        assert rel_err(trace(problem, orders, 0.05), self._talbot(problem, orders, 0.05)) < 1e-6

    def test_unknown_method(self):
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        with pytest.raises(DomainError):
            trace_initial(build_example_4_1(), orders, 0.01, method="contour")
        with pytest.raises(DomainError):
            trace_source(build_example_4_2("ii"), orders, 0.01, method="contour")


class TestTimeArrays:
    # an array of times is one hyperbola pass per distinct eigenvalue, and
    # must give the scalar calls' values to the last bit
    FIG_SPECS = tuple(
        OrderSpec(alphas, cli._weights(alphas))
        for panels in cli.FIGURES.values()
        for _, alphas in panels
        if alphas != (1.0,)
    )
    SOURCE_SPECS = (
        OrderSpec((0.5,), (1.0,)),
        OrderSpec((0.5, 0.7), (0.5, 1.0)),
        OrderSpec((0.2, 0.5, 0.8), (0.5, 0.5, 1.0)),
    )

    def test_figure_panels_match_scalar_calls(self):
        lam = PI2 + 1.0
        problem = SpectralProblem(((lam, 1.0),), Case.INITIAL_DATA)
        times = np.geomspace(1e-6, 1.0, 500)
        assert len(self.FIG_SPECS) == 7
        for spec in self.FIG_SPECS:
            batched = trace_initial(problem, spec, times, method="auto")
            assert isinstance(batched, np.ndarray) and batched.shape == times.shape
            scalar = [trace_initial(problem, spec, float(t), method="auto") for t in times]
            assert all(type(g) is float for g in scalar)
            assert np.array_equal(batched, scalar)

    def test_source_matches_scalar_and_one_element_calls(self, monkeypatch):
        # 5 modes with 3 distinct eigenvalues; t = 0.3 and beyond lie outside
        # the series envelope
        problem = build_example_4_2("ii")
        times = np.geomspace(1e-6, 0.5, 270)
        passes = count_calls(monkeypatch, forward, "_hyperbola_integral")
        for spec in self.SOURCE_SPECS:
            del passes[:]
            batched = trace_source(problem, spec, times, method="auto")
            assert len(passes) == 3
            scalar = [trace_source(problem, spec, float(t), method="auto") for t in times]
            single = [trace_source(problem, spec, times[i : i + 1], method="auto")[0] for i in range(len(times))]
            assert np.array_equal(batched, scalar)
            assert np.array_equal(batched, single)

    def test_series_runs_time_by_time(self, monkeypatch):
        cases = (
            (trace_initial, build_example_4_2("i"), OrderSpec((0.5, 0.8), (0.5, 1.0))),
            (trace_source, build_example_4_2("ii"), OrderSpec((0.5, 0.7), (0.5, 1.0))),
        )
        times = np.array([1e-7, 1e-6, 1e-5, 1e-4])
        for trace, problem, spec in cases:
            scalar = [trace(problem, spec, t) for t in times]
            calls = count_calls(monkeypatch, specfun, "mml")
            batched = trace(problem, spec, times, method="series")
            assert len(calls) == 3 * len(times)
            assert np.array_equal(batched, scalar)
            monkeypatch.undo()

    @pytest.mark.parametrize("method", ["series", "auto"])
    def test_bad_arrays(self, method):
        orders = OrderSpec((0.5, 0.7), (0.5, 1.0))
        cases = ((trace_initial, build_example_4_2("i")), (trace_source, build_example_4_2("ii")))
        bad = (
            np.array([1e-4, 0.0]),
            np.array([1e-4, -1e-3]),
            np.array([1e-4, math.nan]),
            np.array([1e-4, math.inf]),
            np.full((2, 2), 1e-4),
            np.array([]),
        )
        for trace, problem in cases:
            for times in bad:
                with pytest.raises(DomainError):
                    trace(problem, orders, times, method=method)


class TestSeriesFailsFast:
    # on the table3b problem at t = 0.3 the 10 pi^2 modes have |z| > Z_MAX
    PROBLEM = build_example_4_2("ii")
    ORDERS = OrderSpec((0.5, 0.7), (0.5, 1.0))

    def test_trace_checks_every_mode_before_summing(self, monkeypatch):
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        with pytest.raises(DomainError, match="Z_MAX"):
            trace_source(self.PROBLEM, self.ORDERS, 0.3)
        assert mp_calls == []

    def test_sample_checks_the_horizon_first(self, monkeypatch):
        # the earlier grid points are inside the envelope, but none is summed
        sums = count_calls(monkeypatch, specfun, "_mml_double")
        with pytest.raises(DomainError, match="Z_MAX"):
            sample_trace(self.PROBLEM, self.ORDERS, 0.3, 5)
        assert sums == []

    def test_non_positive_or_infinite_time(self):
        # both routes, and the regressor, reject the time before any
        # arithmetic: at t = inf no quadrature runs and no warning is emitted
        model = ModelParams(Kind.POLYNOMIAL, Case.SOURCE, (1.0,), (0.7,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.0, -0.1, math.inf):
                for call in (
                    lambda: eval_model(model, t),
                    lambda: trace_source(self.PROBLEM, self.ORDERS, t, method="series"),
                    lambda: trace_source(self.PROBLEM, self.ORDERS, t, method="auto"),
                ):
                    with pytest.raises(DomainError, match="t must be positive and finite"):
                        call()


class TestLaplaceTrace:
    def test_source_single_mode_closed_form(self):
        orders = OrderSpec((0.4,), (0.7,))
        p = SpectralProblem(((5.0, 2.0 * 1.3),), Case.SOURCE)
        for pp in (0.5, 3.0, 40.0):
            a = laplace_trace(p, orders, pp)
            b = 2.0 * 1.3 / (pp * (5.0 + 0.7 * pp**0.4))
            assert rel_err(a, b) < 1e-14

    def test_domain(self):
        orders = OrderSpec((0.5,), (1.0,))
        with pytest.raises(DomainError):
            laplace_trace(build_example_4_1(), orders, 0.0)


class TestSampleTrace:
    def test_grid_definition(self):
        orders = OrderSpec((0.7,), (1.0,))
        p = build_example_4_1()
        s = sample_trace(p, orders, 1e-6, 100)
        assert len(s) == 100
        assert s.times[0] == 1e-6 / 100
        assert s.times[-1] == pytest.approx(1e-6, rel=1e-15)
        assert rel_err(s.values[0], trace_initial(p, orders, 1e-8)) < 1e-6

    def test_monotone_decreasing_single_mode(self):
        orders = OrderSpec((0.7,), (1.0,))
        p = build_example_4_1()
        s = sample_trace(p, orders, 1e-2, 100)
        assert np.all(np.diff(s.values) < 0.0)

    def test_n_validation(self):
        orders = OrderSpec((0.7,), (1.0,))
        with pytest.raises(DomainError):
            sample_trace(build_example_4_1(), orders, 1e-6, 1)
        # a float n would put the grid past T0 or pass as an integer
        for n in (2.5, 100.5):
            with pytest.raises(DomainError, match=f"n must be an integer, got {n}"):
                sample_trace(build_example_4_1(), orders, 1e-6, n)
        assert len(sample_trace(build_example_4_1(), orders, 1e-6, np.int64(3))) == 3

    def test_non_finite_horizon(self):
        orders = OrderSpec((0.7,), (1.0,))
        with pytest.raises(DomainError, match="T0 must be positive and finite"):
            sample_trace(build_example_4_1(), orders, math.inf, 4)


class TestTraceSample:
    def test_validation(self):
        with pytest.raises(DomainError):
            TraceSample(np.array([0.0, 1.0]), np.array([1.0, 2.0]), T0=1.0)
        with pytest.raises(DomainError):
            TraceSample(np.array([2.0, 1.0]), np.array([1.0, 2.0]), T0=2.0)
        with pytest.raises(DomainError):
            TraceSample(np.array([1.0]), np.array([1.0, 2.0]), T0=1.0)
        with pytest.raises(DomainError, match="T0 must be positive and finite"):
            TraceSample([1.0, 2.0], [1.0, 2.0], T0=math.inf)
        # every ordering test on NaN is false, so finiteness is checked first
        for times, values, bad in (
            ([1.0, math.nan], [1.0, 2.0], "time nan at index 1"),
            ([math.nan, 1.0], [1.0, 2.0], "time nan at index 0"),
            ([0.5, 1.0], [math.inf, 2.0], "value inf at index 0"),
        ):
            with pytest.raises(DomainError, match=f"{bad} is not finite"):
                TraceSample(times, values, T0=2.0)
