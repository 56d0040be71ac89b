"""Regressor families, gradients, and the physical-parameter map."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracorder.forward import Case
from fracorder.models import (
    Kind,
    ModelParams,
    PhysicalParams,
    _eval_arrays,
    _grad_arrays,
    eval_model,
    exponents,
    from_physical,
    n_coeffs,
    to_physical,
)
from fracorder.specfun import DomainError, OrderSpec, ml2, s1_kernel_contour, tight_contour

from conftest import rel_err
from oracles import central_difference

PI2 = math.pi * math.pi


class TestEval:
    def test_polynomial_initial_example(self):
        p = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7,))
        assert eval_model(p, 1.0) == -1.0

    def test_rational_initial_matches_display_form(self):
        # 1/(1 + x t^alpha) with x = lambda / Gamma(alpha + 1)
        lam, alpha = PI2 + 1.0, 0.6
        x = lam / math.gamma(alpha + 1.0)
        p = ModelParams(Kind.RATIONAL, Case.INITIAL_DATA, (1.0, x), (alpha,))
        for t in (1e-4, 0.3):
            assert rel_err(eval_model(p, t), 1.0 / (1.0 + x * t**alpha)) < 1e-15

    def test_polynomial_vs_rational_first_order(self):
        # matched parameters differ at O(t^{2 beta_1})
        lam, alpha = PI2 + 1.0, 0.6
        phys = PhysicalParams((alpha,), (1.0,), lam, 1.0)
        fp = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        fr = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
        ratios = []
        for t in (1e-8, 1e-7):
            ratios.append(abs(eval_model(fp, t) - eval_model(fr, t)) / t ** (2 * alpha))
        assert 0.25 < ratios[0] / ratios[1] < 4.0

    def test_source_shapes(self):
        p = ModelParams(Kind.POLYNOMIAL, Case.SOURCE, (2.0, -1.0), (0.5, 1.1))
        assert rel_err(eval_model(p, 0.25), 2.0 * 0.5 - 0.25**1.1) < 1e-15
        r = ModelParams(Kind.RATIONAL, Case.SOURCE, (3.0, 0.5), (0.5,))
        d = 0.5 * 0.25**0.5
        assert rel_err(eval_model(r, 0.25), 3.0 * (1.0 - 1.0 / (1.0 + d))) < 1e-15

    def test_domain_and_validation(self):
        p = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7,))
        for t in (0.0, math.nan, np.array([1e-3, -1e-3]), np.full((1, 2), 1e-3), np.array([])):
            with pytest.raises(DomainError):
                eval_model(p, t)
        with pytest.raises(DomainError):
            ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7, 0.6))
        with pytest.raises(DomainError):
            ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0,), (0.7,))

    def test_kind_and_case_must_be_the_enums(self):
        # the string "polynomial" was once read as the rational model
        # (3.414 at t = 0.5, where the polynomial gives 0.293)
        for kind, case in (
            ("polynomial", Case.INITIAL_DATA),
            (Kind.POLYNOMIAL, "initial-data"),
            (Case.INITIAL_DATA, Kind.POLYNOMIAL),
        ):
            with pytest.raises(DomainError, match="kind must be a Kind"):
                ModelParams(kind, case, (1.0, -1.0), (0.5,))
        p = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -1.0), (0.5,))
        assert rel_err(eval_model(p, 0.5), 1.0 - math.sqrt(0.5)) < 1e-15


def _jacobian(params: ModelParams, t: float) -> np.ndarray:
    """The partials over (c..., beta...) at one time, formed as minimize
    forms them: _grad_arrays from _eval_arrays' powers and power sum."""
    arr = np.array([t])
    powers = [arr**b for b in params.beta]
    _, acc = _eval_arrays(params.kind, params.case, params.c, powers)
    return _grad_arrays(params.kind, params.case, params.c, powers, np.log(arr), acc)[:, 0]


class TestGrad:
    def test_polynomial_partials(self):
        p = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -2.0), (0.7,))
        g = _jacobian(p, 0.5)
        assert g[0] == 1.0
        assert rel_err(g[1], 0.5**0.7) < 1e-15
        # at t = 1 the exponent partial vanishes (ln 1 = 0)
        assert _jacobian(p, 1.0)[2] == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(123)
        shapes = [(k, c) for k in Kind for c in Case]
        t = 0.37
        for i in range(20):
            kind, case = shapes[i % 4]
            beta = np.sort(rng.uniform(0.2, 1.5, size=2))
            while beta[1] - beta[0] < 0.1:
                beta = np.sort(rng.uniform(0.2, 1.5, size=2))
            if kind is Kind.POLYNOMIAL:
                c = rng.uniform(-2, 2, size=n_coeffs(kind, case, 2))
            else:
                c = np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(0.0, 0.6, 2)])
            params = ModelParams(kind, case, tuple(c), tuple(beta))
            ana = _jacobian(params, t)

            def f(x):
                q = ModelParams(kind, case, tuple(x[: len(c)]), tuple(x[len(c) :]))
                return eval_model(q, t)

            fd = central_difference(f, np.concatenate([c, beta]))
            assert np.linalg.norm(fd - ana) / max(np.linalg.norm(ana), 1e-12) < 1e-6


# float.hex of every model-layer value at one fixed (c, beta) per shape. Fits
# that stop at max_iter react to a last-bit change, which the 1e-6 gradient
# check cannot see, so a reordered sum or product must fail here; refreeze
# model_bits.json only for an intended change of the arithmetic
FROZEN_BITS = Path(__file__).with_name("model_bits.json")
BITS_T = np.arange(1, 41) / 40.0
BITS_BETA = (0.7125, 1.0875)
BITS_C = {
    (Kind.POLYNOMIAL, Case.INITIAL_DATA): (1.25, -2.375, 0.8125),
    (Kind.POLYNOMIAL, Case.SOURCE): (1.5, -0.625),
    (Kind.RATIONAL, Case.INITIAL_DATA): (1.3, 0.9, -0.35),
    (Kind.RATIONAL, Case.SOURCE): (2.2, 0.7, -0.3),
}


def _model_bits(kind: Kind, case: Case) -> dict:
    def hexes(values):
        return [float(v).hex() for v in values]

    c = BITS_C[(kind, case)]
    a = 0.25 if case is Case.SOURCE else 0.0
    phys = to_physical(ModelParams(kind, case, c, BITS_BETA), a=a)
    back = from_physical(phys, kind, case, a=a)
    powers = [BITS_T**b for b in BITS_BETA]
    value, acc = _eval_arrays(kind, case, c, powers)
    return {
        "eval": hexes(value),
        "grad": [hexes(row) for row in _grad_arrays(kind, case, c, powers, np.log(BITS_T), acc)],
        "to_physical": hexes((*phys.alphas, *phys.weights, phys.amplitude)),
        "constant": None if phys.constant is None else phys.constant.hex(),
        "from_physical": hexes((*back.c, *back.beta)),
    }


class TestFrozenBits:
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("case", list(Case))
    def test_values_keep_their_bits(self, kind, case):
        frozen = json.loads(FROZEN_BITS.read_text())[f"{kind.value}/{case.value}"]
        assert _model_bits(kind, case) == frozen


class TestPhysicalMap:
    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("case", list(Case))
    def test_round_trip_two_term(self, kind, case):
        phys = PhysicalParams((0.6, 0.9), (0.5, 1.0), PI2 + 1.0, 1.0)
        a = 0.25 if case is Case.SOURCE else 0.0
        model = from_physical(phys, kind, case, a=a)
        back = to_physical(model, a=a)
        assert rel_err(back.alphas[0], 0.6) < 1e-12
        assert rel_err(back.alphas[1], 0.9) < 1e-12
        assert rel_err(back.weights[0], 0.5) < 1e-12
        assert rel_err(back.amplitude, PI2 + 1.0) < 1e-12
        if case is Case.INITIAL_DATA:
            assert rel_err(back.constant, 1.0) < 1e-15

    def test_round_trip_property_100_draws(self):
        rng = np.random.default_rng(42)
        shapes = [(k, c) for k in Kind for c in Case]
        for i in range(100):
            kind, case = shapes[i % 4]
            a1 = float(rng.uniform(0.05, 0.85))
            an = float(rng.uniform(a1 + 0.05, 0.95))
            r1 = float(rng.uniform(0.1, 3.0))
            amp = float(rng.uniform(0.5, 80.0))
            const = float(rng.uniform(0.2, 3.0))
            phys = PhysicalParams((a1, an), (r1, 1.0), amp, const)
            model = from_physical(phys, kind, case)
            assert all(
                model.beta[i] < model.beta[i + 1] for i in range(len(model.beta) - 1)
            )
            back = to_physical(model)
            assert rel_err(back.alphas[0], a1) < 1e-10
            assert rel_err(back.alphas[1], an) < 1e-10
            assert rel_err(back.weights[0], r1) < 1e-10
            assert rel_err(back.amplitude, amp) < 1e-10

    def test_single_term_examples(self):
        # recovered lambda from a fitted polynomial amplitude; the first row
        # of the single-order table: beta = 0.6998 with lambda = 1.083e1
        beta, lam = 0.6998, 10.83
        c1 = -lam / math.gamma(beta + 1.0)
        p = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, c1), (beta,))
        assert rel_err(to_physical(p).amplitude, lam) < 1e-12

        q = from_physical(
            PhysicalParams((0.7,), (1.0,), 10.87, 1.0), Kind.POLYNOMIAL, Case.INITIAL_DATA
        )
        assert q.beta == (0.7,)
        assert rel_err(q.c[1], -10.87 / math.gamma(1.7)) < 1e-15

    def test_source_exponent_shift(self):
        phys = PhysicalParams((0.5, 0.7), (0.5, 1.0), 2.5, None)
        m = from_physical(phys, Kind.POLYNOMIAL, Case.SOURCE, a=0.5)
        assert m.beta == pytest.approx((1.2, 1.4), abs=1e-15)
        assert m.beta == exponents((0.5, 0.7), Case.SOURCE, a=0.5)
        assert exponents((0.5, 0.7), Case.INITIAL_DATA) == pytest.approx((0.7, 0.9), abs=1e-15)
        # initial data has no source exponent; the map ignored one
        init = PhysicalParams((0.5, 0.7), (0.5, 1.0), 2.5, 1.0)
        model = from_physical(init, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        for call in (
            lambda: exponents((0.5, 0.7), Case.INITIAL_DATA, a=0.5),
            lambda: from_physical(init, Kind.POLYNOMIAL, Case.INITIAL_DATA, a=0.5),
            lambda: to_physical(model, a=0.5),
        ):
            with pytest.raises(DomainError, match="no source exponent"):
                call()

    def test_source_amplitude_estimate(self):
        # a = 0: amplitude = c1 Gamma(beta1 + 1) estimates f(x0)
        beta1 = 0.7
        c1 = 2.5 / math.gamma(beta1 + 1.0)
        p = ModelParams(Kind.POLYNOMIAL, Case.SOURCE, (c1,), (beta1,))
        assert rel_err(to_physical(p).amplitude, 2.5) < 1e-14

    def test_negative_first_order_maps(self):
        # beta_2 > 2 beta_1 maps to alpha_1 = 2 beta_1 - beta_2 <= 0, which
        # to_physical reports and from_physical inverts
        p = ModelParams(Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -1.0, 0.1), (0.5, 1.2))
        phys = to_physical(p)
        assert phys.alphas == (2.0 * 0.5 - 1.2, 0.5)
        assert phys.alphas[0] <= 0.0
        back = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        assert all(rel_err(x, y) < 1e-14 for x, y in zip((*back.c, *back.beta), (*p.c, *p.beta)))

    def test_three_terms_rejected(self):
        p = ModelParams(
            Kind.POLYNOMIAL, Case.INITIAL_DATA, (1.0, -1.0, 0.1, 0.2), (0.5, 0.9, 1.2)
        )
        with pytest.raises(DomainError):
            to_physical(p)


class TestAsymptoticTightness:
    def test_both_models_tight_and_rational_wins(self):
        alpha, lam = 0.75, PI2 + 1.0
        phys = PhysicalParams((alpha,), (1.0,), lam, 1.0)
        fp = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        fr = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
        g6 = ml2(alpha, 1.0, -lam * 1e-6**alpha)
        assert abs(g6 - eval_model(fp, 1e-6)) < 1e-6
        assert abs(g6 - eval_model(fr, 1e-6)) < 1e-6
        sup_p = sup_r = 0.0
        for t in np.geomspace(1e-6, 0.1, 80):
            g = ml2(alpha, 1.0, -lam * float(t) ** alpha)
            sup_p = max(sup_p, abs(g - eval_model(fp, float(t))))
            sup_r = max(sup_r, abs(g - eval_model(fr, float(t))))
        assert sup_r < sup_p

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_single_term_bounds(self, alpha):
        # rational model is an upper bound, truncated polynomial a lower bound
        lam = PI2 + 1.0
        spec = OrderSpec((alpha,), (1.0,))
        phys = PhysicalParams((alpha,), (1.0,), lam, 1.0)
        fp = from_physical(phys, Kind.POLYNOMIAL, Case.INITIAL_DATA)
        fr = from_physical(phys, Kind.RATIONAL, Case.INITIAL_DATA)
        for t in np.geomspace(1e-4, 1.0, 25):
            t = float(t)
            z = lam * t**alpha
            if z <= 3.0:
                g = ml2(alpha, 1.0, -z)
            else:
                g = s1_kernel_contour(lam, spec, t, tight_contour(t, 3000))
            assert eval_model(fr, t) >= g - 1e-7
            assert g >= eval_model(fp, t) - 1e-7
