"""Special-function layer: Gamma, Mittag-Leffler family, contour kernels."""

import math
import re
import time

import numpy as np
import pytest

from fracorder import specfun
from fracorder.specfun import (
    AccuracyError,
    ContourSpec,
    DomainError,
    MLArgs,
    OrderSpec,
    gamma,
    ml2,
    mml,
    s1_kernel_contour,
    s1_kernel_series,
    s2_kernel_contour,
    s2_kernel_int_series,
    s2_kernel_series,
    tight_contour,
)

from conftest import count_calls, rel_err
from oracles import mp_ml2, mp_mml, trapezoid_convolution

PI2 = math.pi * math.pi


def _normalized(spec: OrderSpec, lam: float) -> tuple[float, OrderSpec, float]:
    """(lam/r_N, the orders with weights r/r_N, 1/r_N)."""
    rn = spec.weights[-1]
    return lam / rn, OrderSpec(spec.alphas, tuple(w / rn for w in spec.weights)), 1.0 / rn


# frozen from oracles.mp_ml2(0.5, 1, -1, terms=200); equals exp(1) erfc(1)
E_HALF_AT_MINUS_1 = 0.42758357615580700441
# frozen from oracles.mp_mml(1.8, (0.8, 0.3), (-1, -0.5), shells=400)
MML_2TERM_REF = 0.48160288302913938125
# frozen from oracles.mp_mml(b0, (0.7, 0.7 - 0.3), (-(pi^2 + 1), -0.5),
# shells=250, dps=60) for b0 = 1.7 and 0.7; the oracle takes about 5 s per call
MML_2TERM_CANCEL_REF = {1.7: 0.085823955734415, 0.7: 0.003139918450898772}
# frozen from oracles.mp_mml(0.8690813610180956, (0.4153272098346321,
# 0.5499314778096944), (-2.763779141305004, -0.13213655553686376), shells=400),
# which takes about 10 s; 160 shells give the same double
MML_ZERO_DROPPED_REF = 0.16328393006863895


class TestOracles:
    def test_uncertified_sums_raise(self):
        # the terms peak near 1e54 against a value near 0.11: 400 terms do
        # not reach the tail, and 60 digits lose the value to cancellation
        args = (0.3488701945393492, 0.9516513922504399, -5.427034871394923)
        with pytest.raises(ArithmeticError, match="last term"):
            mp_ml2(*args)
        with pytest.raises(ArithmeticError, match="cancellation"):
            mp_ml2(*args, terms=2000)
        assert mp_ml2(*args, terms=2000, dps=100) == 0.11446401684847052
        with pytest.raises(ArithmeticError, match="last term"):
            mp_mml(1.8, (0.8, 0.3), (-6.0, -0.5), shells=20)


class TestGamma:
    def test_spot_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0
        assert rel_err(gamma(0.5), math.sqrt(math.pi)) < 1e-15

    def test_accuracy_envelope(self):
        for x in np.geomspace(0.1, 50.0, 200):
            ref = float(np.exp(math.lgamma(float(x))))
            assert rel_err(gamma(float(x)), ref) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-2.5)


class TestMl2:
    def test_exponential_reduction(self):
        assert rel_err(ml2(1.0, 1.0, -2.0), math.exp(-2.0)) < 1e-14

    def test_zero_argument(self):
        assert ml2(0.7, 1.0, 0.0) == 1.0

    def test_erfc_identity_frozen(self):
        val = ml2(0.5, 1.0, -1.0)
        assert rel_err(val, E_HALF_AT_MINUS_1) < 1e-12
        assert rel_err(val, math.exp(1.0) * math.erfc(1.0)) < 1e-12

    def test_erfc_identity_sweep(self):
        for x in (0.25, 0.5, 1.5, 3.0):
            ref = mp_ml2(0.5, 1.0, -x)
            assert rel_err(ml2(0.5, 1.0, -x), ref) < 1e-10

    def test_exponential_identity_property(self):
        # invariant: E_{1,1}(z) = exp(z) to 1e-12 down to z = -30
        for z in np.linspace(-30.0, 0.0, 61):
            assert rel_err(ml2(1.0, 1.0, float(z)), math.exp(float(z))) < 1e-12

    def test_equals_the_one_argument_mml(self):
        # one series, one shell cap: E_{alpha,beta}(z) is the multinomial
        # function of the one argument (beta, z) to the bit, also where the
        # double sum needs more than _SHELL_CAP + 1 shells, as at (0.1, 1, -0.9)
        for alpha, beta, z in (
            (0.1, 1.0, -0.9), (0.5, 1.0, -1.0), (0.7, 1.5, -3.0), (0.3, 0.8, -5.0), (0.9, 2.0, -12.0),
        ):
            assert ml2(alpha, beta, z) == mml(MLArgs(beta, (alpha,), (z,))), (alpha, beta, z)

    def test_extended_precision_regime(self):
        # deep cancellation: plain double summation would lose everything
        ref = mp_ml2(0.5, 1.0, -20.0, terms=2500, dps=220)
        assert rel_err(ml2(0.5, 1.0, -20.0), ref) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ml2(0.7, 1.0, 1.0)
        with pytest.raises(DomainError):
            ml2(0.7, 1.0, -41.0)
        with pytest.raises(DomainError):
            ml2(2.0, 1.0, -1.0)

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError, match="got nan"):
            ml2(0.5, 1.0, math.nan)

    def test_infinite_beta_rejected(self):
        with pytest.raises(DomainError, match="got inf"):
            ml2(0.5, math.inf, -1.0)

    def test_nonpositive_beta_rejected(self):
        # for beta <= 0 some Gamma arguments of the series are poles or
        # negative; E_{1,-2}(-30) = z^3 e^z is about -2.5e-9, not 0
        for beta in (0.0, -0.5, -2.0):
            with pytest.raises(DomainError):
                ml2(1.0, beta, -30.0)

    def test_alpha_at_least_one_extended_precision(self, monkeypatch):
        # alpha in [1, 2) puts a series beta at or above 1, which MLArgs never
        # allows; both points cancel past what double precision certifies
        real, calls = specfun._mml_mp, []
        monkeypatch.setattr(specfun, "_mml_mp", lambda *a: calls.append(a) or real(*a))
        for alpha, beta, z in ((1.5, 1.2, -30.0), (1.9, 0.3, -39.0)):
            assert rel_err(ml2(alpha, beta, z), mp_ml2(alpha, beta, z)) < 1e-10
        assert len(calls) == 2


class TestMml:
    def test_single_term_reduction_example(self):
        a = mml(MLArgs(1.0, (0.7,), (-0.3,)))
        assert rel_err(a, ml2(0.7, 1.0, -0.3)) < 1e-14

    def test_zero_arguments(self):
        for m in (1, 2, 3):
            args = MLArgs(1.8, (0.5,) * m, (0.0,) * m)
            assert rel_err(mml(args), 1.0 / gamma(1.8)) < 1e-15

    def test_two_term_frozen_oracle(self):
        val = mml(MLArgs(1.8, (0.8, 0.3), (-1.0, -0.5)))
        assert rel_err(val, MML_2TERM_REF) < 1e-12

    def test_two_term_extended_precision_frozen_oracle(self):
        # the t = 1 point of the oracle grid at lam = pi^2 + 1, orders
        # (0.3, 0.7): terms peak near e^30, so the double series cannot
        # certify and the value comes from the extended-precision path
        for b0, ref in MML_2TERM_CANCEL_REF.items():
            val = mml(MLArgs(b0, (0.7, 0.7 - 0.3), (-(PI2 + 1.0), -0.5)))
            assert rel_err(val, ref) < 1e-10, b0

    def test_mixed_zero_component(self):
        a = mml(MLArgs(1.5, (0.8, 0.3), (-2.0, 0.0)))
        b = ml2(0.8, 1.5, -2.0)
        assert rel_err(a, b) < 1e-13

    def test_zero_argument_is_dropped_before_summing(self):
        # both calls once raised AccuracyError: the extended-precision term
        # budget counted the compositions of the zero argument, whose terms
        # all vanish; the one-argument terms peak near 1e55, so the oracle
        # sums 2000 of them at 100 digits
        b0, b1, z1 = 0.9516513922504399, 0.3488701945393492, -5.427034871394923
        value = mml(MLArgs(b0, (b1, 0.8021543622004972), (z1, 0.0)))
        assert value == mml(MLArgs(b0, (b1,), (z1,))) == ml2(b1, b0, z1)
        assert rel_err(value, mp_ml2(b1, b0, z1, terms=2000, dps=100)) < 1e-10
        b0, betas = 0.8690813610180956, (0.4153272098346321, 0.5499314778096944)
        zs = (-2.763779141305004, -0.13213655553686376)
        value = mml(MLArgs(b0, (0.4118928553273513, *betas), (0.0, *zs)))
        assert value == mml(MLArgs(b0, betas, zs))
        assert rel_err(value, MML_ZERO_DROPPED_REF) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            MLArgs(1.0, (0.5,), (-41.0,))
        with pytest.raises(DomainError):
            MLArgs(1.0, (0.5,) * 5, (-1.0,) * 5)
        with pytest.raises(DomainError):
            MLArgs(1.0, (0.5, 0.6), (-1.0,))

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError, match="got z=nan"):
            mml(MLArgs(1.0, (0.5,), (math.nan,)))


@pytest.mark.parametrize("rel_tol", [math.nan, 0.0, -1.0, math.inf])
def test_bad_rel_tol_rejected_at_the_entry(rel_tol):
    # each call checks rel_tol before any zero-argument shortcut or sum
    calls = (
        lambda: ml2(0.5, 1.0, -1.0, rel_tol=rel_tol),
        lambda: ml2(0.5, 1.0, 0.0, rel_tol=rel_tol),
        lambda: mml(MLArgs(1.5, (0.5,), (-1.0,)), rel_tol=rel_tol),
        lambda: mml(MLArgs(1.5, (0.5,), (0.0,)), rel_tol=rel_tol),
        lambda: s2_kernel_series(1.0, OrderSpec((0.5,), (1.0,)), 0.1, rel_tol=rel_tol),
    )
    for call in calls:
        with pytest.raises(DomainError, match=f"rel_tol must be positive and finite, got {rel_tol!r}"):
            call()


# repr of mml values taken from the series before its z-independent terms were
# memoized, at (beta0, betas, zs): the S1 (beta0 = 1 + alpha_N) and S2
# (beta0 = alpha_N) arguments of lam = pi^2 + 1 at t = 1e-6 and 1e-2 for
# orders (0.7), (0.5, 0.7) and (0.2, 0.5, 0.8) with weights (1), (0.5, 1) and
# (0.5, 0.5, 1); three points with a z = 0, the last of which _mml_mp
# sums; and a three-order argument that sums 96 shells, past the memo's term
# limit
GOLDEN_MML = {
    (1.7, (0.7,), (-0.0006858256728461567,)): "1.0999955001819277",
    (0.7, (0.7,), (-0.0006858256728461567,)): "0.7696106661130243",
    (1.7, (0.7,), (-0.43272674531535266,)): "0.822735140517084",
    (0.7, (0.7,), (-0.43272674531535266,)): "0.4221473783685314",
    (1.7, (0.7, 0.19999999999999996), (-0.0006858256728461567, -0.03154786722400968)):
        "1.0681474185019573",
    (0.7, (0.7, 0.19999999999999996), (-0.0006858256728461567, -0.03154786722400968)):
        "0.7411473830503346",
    (1.7, (0.7, 0.19999999999999996), (-0.43272674531535266, -0.19905358527674866)):
        "0.7185310244513048",
    (0.7, (0.7, 0.19999999999999996), (-0.43272674531535266, -0.19905358527674866)):
        "0.3667321342365332",
    (1.8, (0.8, 0.6000000000000001, 0.30000000000000004),
     (-0.00017227162020031872, -0.00012559432157547884, -0.007924465962305562)):
        "1.0659302369044663",
    (0.8, (0.8, 0.6000000000000001, 0.30000000000000004),
     (-0.00017227162020031872, -0.00012559432157547884, -0.007924465962305562)):
        "0.8503482520504375",
    (1.8, (0.8, 0.6000000000000001, 0.30000000000000004),
     (-0.2730321181097317, -0.03154786722400965, -0.12559432157547898)):
        "0.8085770903080566",
    (0.8, (0.8, 0.6000000000000001, 0.30000000000000004),
     (-0.2730321181097317, -0.03154786722400965, -0.12559432157547898)):
        "0.5195030943473002",
    (1.7, (0.7, 0.4), (-1.5, 0.0)): "0.4774393535855073",
    (1.8, (0.8, 0.6, 0.3), (-0.5, 0.0, -0.1)): "0.7422788573755242",
    (1.7, (0.7, 0.4), (-15.0, 0.0)): "0.065099903981464",
    (1.8, (0.8, 0.6, 0.3), (-4.7, -0.5, -0.5)): "0.17081647454317483",
}
# the same for ml2 at (alpha, beta, z); the z = -19.5 value comes from _mml_mp
GOLDEN_ML2 = {
    (0.5, 1.0, -1.0): "0.4275835761558072",
    (0.7, 1.3, -3.0): "0.22302362942487866",
    (0.5, 0.5, -19.5): "0.0007389592149610425",
}


class TestShellMemo:
    """The z-independent part of each series term is cached per
    (beta0, betas) for the leading shells; the values keep every bit."""

    def values(self):
        return [repr(mml(MLArgs(*key))) for key in GOLDEN_MML] + [
            repr(ml2(*key)) for key in GOLDEN_ML2
        ]

    def test_golden_bits_cold_and_warm(self, monkeypatch):
        golden = [*GOLDEN_MML.values(), *GOLDEN_ML2.values()]
        specfun._leading_shells.cache_clear()
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        assert self.values() == golden
        # mml drops the zero argument before it sums
        assert mp_calls == [(1.7, (0.7,), (-15.0,), 1e-10), (0.5, (0.5,), (-19.5,), 1e-10)]
        assert specfun._leading_shells.cache_info().currsize
        assert self.values() == golden
        specfun._leading_shells.cache_clear()
        assert self.values() == golden

    def test_term_limit_holds_to_the_shell_cap(self):
        # the double sum runs all _SHELL_CAP + 1 shells (176k terms)
        # without converging; the cache keeps only the leading ones
        specfun._leading_shells.cache_clear()
        args = (1.8, (0.8, 0.6, 0.3), (-6.0, -0.5, -0.5))
        _, _, converged = specfun._mml_double(*args)
        assert not converged
        assert specfun._leading_shells.cache_info().currsize == 1
        *_, starts = specfun._leading_shells(specfun.log_gamma, *args[:2])
        assert specfun._leading_shells.cache_info().misses == 1
        assert 0 < starts[-1] <= specfun._MEMO_TERMS

    def test_table_limit(self):
        specfun._leading_shells.cache_clear()
        for i in range(specfun._MEMO_TABLES + 4):
            mml(MLArgs(1.0 + 0.01 * i, (0.5,), (-0.1,)))
        assert specfun._leading_shells.cache_info().currsize == specfun._MEMO_TABLES

    @pytest.mark.parametrize(
        "betas, n_shells", [((0.7,), 2048), ((0.7, 0.4), 63), ((0.8, 0.6, 0.3), 22)]
    )
    def test_table_equals_the_rows_of_each_shell(self, betas, n_shells):
        # the one-pass table holds the most leading shells that fit, and each
        # is byte for byte the rows that a single-shell build gives
        comps, coef, lg, starts = specfun._leading_shells(specfun.log_gamma, 1.7, betas)
        m = len(betas)
        assert len(starts) - 1 == n_shells
        assert starts[-1] <= specfun._MEMO_TERMS < math.comb(n_shells + m, m)
        assert not any(a.flags.writeable for a in (comps, coef, lg))
        for k in range(n_shells):
            lo, hi = starts[k], starts[k + 1]
            one = specfun._compositions(k, m)
            run = (comps[lo:hi], coef[lo:hi], lg[lo:hi])
            for a, b in zip(run, (one, *specfun._rows(1.7, betas, one))):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kmax", [5, 30])
    def test_walk_yields_each_shell_as_built_alone(self, kmax):
        # the table holds 22 shells at these betas: kmax = 5 stops inside the
        # first run (shells 0..7), kmax = 30 crosses the table's edge
        beta0, betas, zs = 1.8, (0.8, 0.6, 0.3), (-0.5, -0.2, -0.1)
        lnz = [math.log(-z) for z in zs]
        walk = list(specfun._shells(beta0, betas, zs, kmax))
        assert len(walk) == kmax + 1
        for k, (comps, logs) in enumerate(walk):
            one = specfun._compositions(k, 3)
            alone = specfun._logs(one, *specfun._rows(beta0, betas, one), lnz)
            assert np.array(logs).tobytes() == alone.tobytes()
            assert logs == alone.tolist()
            assert comps.dtype == one.dtype and comps.shape == one.shape
            assert comps.tobytes() == one.tobytes()

    def test_short_sum_forms_the_logs_of_few_rows(self, monkeypatch):
        # the double sum stops after 13 shells (91 rows); the walk reads runs
        # of shells 0..7 and 8..15, 136 rows, and no longer ones
        specfun._leading_shells(specfun.log_gamma, 1.7, (0.7, 0.2))  # built apart from _logs
        calls = count_calls(monkeypatch, specfun, "_logs")
        assert repr(mml(MLArgs(1.7, (0.7, 0.2), (-0.02, -0.02)))) == "1.0647443008316475"
        assert sum(len(comps) for comps, *_ in calls) == math.comb(17, 2) == 136

    def test_lnfact_is_one_read_only_table_to_the_largest_cap(self):
        # every m >= 2 shell walk reads this one table, up to _mp_plan's cap
        table = specfun._lnfact(specfun.log_gamma)
        assert specfun._lnfact(specfun.log_gamma) is table
        assert not table.flags.writeable
        assert table[0] == 0.0 and table[10] == math.lgamma(11.0)
        caps = [
            specfun._mp_plan(1.5, betas, (-0.1,) * len(betas), 1e-8)[0]
            for betas in ((0.7, 0.4), (0.8, 0.6, 0.3), (0.8, 0.6, 0.3, 0.2))
        ]
        assert len(table) - 1 == max(caps) == 2000

    def test_replaced_gamma_reads_no_other_table(self, monkeypatch):
        args = MLArgs(1.7, (0.7, 0.4), (-1.5, -0.2))
        value = mml(args)
        real = specfun.log_gamma
        monkeypatch.setattr(specfun, "log_gamma", lambda x: real(x) + 1e-6)
        assert mml(args) != value


# repr of values that the extended-precision series (_mml_mp) gave before it
# summed in integer fixed point, at (beta0, betas, zs, rel_tol): the S2
# argument of the kernels benchmark's three-order point (lam = 2 pi^2, t = 0.2,
# orders (0.2, 0.5, 0.8), weights (0.5, 0.5, 1)), and the S1 and S2 arguments
# of the 36-point grid's orders (0.3, 0.7) at lam = 2 pi^2, t = 1, |z_1| = 19.74.
# The three-order value is the correctly rounded one: a direct 45-digit sum to
# shell 109 gives 0.013362870858540299076 (the sum stopped at shell 88 once the
# scan's peak guess matched the true peak; it read 0.0133628708585403 before)
GOLDEN_MP = {
    (0.8, (0.8, 0.6000000000000001, 0.30000000000000004),
     (-5.446954375628454, -0.19036539387158782, -0.3085169313600048), 1e-8):
        "0.013362870858540299",
    (1.7, (0.7, 0.39999999999999997), (-19.739208802178716, -0.5), 1e-8):
        "0.04879681661366187",
    (0.7, (0.7, 0.39999999999999997), (-19.739208802178716, -0.5), 1e-8):
        "0.000932466235099053",
}


# the S2 argument of the 36-point grid's orders (0.2, 0.9) at lam = 2 pi^2,
# t = 1: its betas (0.9, 0.7) satisfy 4 beta_1 + 2 beta_2 = 5 exactly as
# doubles, a Gamma relation that no unit step of the recurrence reaches
GRID_S2_ARGS = (0.9, (0.9, 0.7), (-19.739208802178716, -1.0))
# frozen from oracles.mp_mml at (beta0, betas, zs): the three-order GOLDEN_MP
# argument with shells=110, dps=45 (about 16 s) and GRID_S2_ARGS with
# shells=160, dps=40 (about 1 s)
MP_MML_REF = {
    next(iter(GOLDEN_MP))[:3]: 0.013362870858540299,
    GRID_S2_ARGS: 0.0007194798264508124,
}


class TestExtendedPrecisionSeries:
    def test_golden_bits_cold(self, monkeypatch):
        # the three-order point sums about 121k terms (to shell 88), inside
        # the term budget
        specfun._leading_shells.cache_clear()
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        for (b0, betas, zs, tol), golden in GOLDEN_MP.items():
            assert repr(mml(MLArgs(b0, betas, zs), rel_tol=tol)) == golden
        assert mp_calls == list(GOLDEN_MP)

    def test_reads_no_global_mpmath_context(self, monkeypatch):
        # the sum passes its own precision to mpmath.libmp: with a process-wide
        # mpmath.mp that raises on any use, each value keeps its bits
        import mpmath

        spec = OrderSpec((0.2, 0.5, 0.8), (0.5, 0.5, 1.0))
        calls = (
            lambda: ml2(0.5, 1.0, -20.0),
            lambda: s2_kernel_series(2.0 * PI2, spec, 0.2, rel_tol=1e-8),
        )
        specfun._leading_shells.cache_clear()
        expected = [repr(call()) for call in calls]

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"mpmath.mp.{name} was read")

            def __setattr__(self, name, value):
                raise AssertionError(f"mpmath.mp.{name} was set")

        monkeypatch.setattr(mpmath, "mp", Untouchable())
        specfun._leading_shells.cache_clear()
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        assert [repr(call()) for call in calls] == expected
        assert len(mp_calls) == 2

    @pytest.mark.parametrize(
        "args, rel_tol, reference",
        [
            # terms peak near e^7.3 against a value near 0.15, so the double
            # series cannot certify 1e-12; the oracle sums shells 0..180 at
            # 60 digits, where the last is below 1e-60
            ((1.8, (0.8, 0.3), (-6.0, -0.5)), 1e-12, lambda args: mp_mml(*args, shells=180)),
            ((1.7, (0.7,), (-15.0,)), 1e-10, lambda args: mp_mml(*args)),
            (next(iter(GOLDEN_MP))[:3], 1e-8, MP_MML_REF.get),
            (GRID_S2_ARGS, 1e-8, MP_MML_REF.get),
        ],
        ids=["two-args-z-6", "one-arg-z-15", "kernels-three-order-s2", "grid-s2-0.9-0.7"],
    )
    def test_against_direct_series(self, monkeypatch, args, rel_tol, reference):
        # each value is summed in extended precision, where the double
        # band and the n-step Gamma recurrence serve some of its terms
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        value = mml(MLArgs(*args), rel_tol=rel_tol)
        assert len(mp_calls) == 1
        assert rel_err(value, reference(args)) < rel_tol

    def test_gamma_recurrence_serves_most_misses(self, monkeypatch):
        # with unit steps only, this sum called mpf_rgamma 4,803 times; steps
        # up to 8 reach the relation 4 beta_1 + 2 beta_2 = 5
        from mpmath import libmp

        calls = count_calls(monkeypatch, libmp, "mpf_rgamma")
        assert repr(specfun._mml_mp(*GRID_S2_ARGS, 1e-8)) == "0.0007194798264508146"
        assert 0 < len(calls) < 600

    @pytest.mark.parametrize(
        "args, kmax",
        [
            (next(iter(GOLDEN_MP))[:3], 60),
            (GRID_S2_ARGS, 120),
            ((0.3, (0.9, 0.6, 0.4, 0.1), (-3.0, -1.0, -0.5, -0.2)), 24),
        ],
        ids=["three-order", "grid-s2-0.9-0.7", "four-args"],
    )
    def test_band_bound_covers_the_log_error(self, args, kmax):
        # the band sums a term as its double exp(tlog); the error of tlog,
        # against 40-digit logs of up to 16 terms per shell, stays below an
        # eighth of the bound _term_rel_err puts on the error of exp(tlog)
        import mpmath

        beta0, betas, zs = args
        with mpmath.workdps(40):
            for k, (comps, logs) in enumerate(specfun._shells(*args, kmax)):
                bound = specfun._term_rel_err(k, *args)
                for i in range(0, len(logs), max(1, len(logs) // 16)):
                    comp = comps[i].tolist()
                    x = sum((mpmath.mpf(b) * kj for b, kj in zip(betas, comp)), mpmath.mpf(beta0))
                    exact = (
                        mpmath.loggamma(k + 1)
                        - sum(mpmath.loggamma(kj + 1) for kj in comp)
                        + sum(kj * mpmath.log(-z) for kj, z in zip(comp, zs))
                        - mpmath.loggamma(x)
                    )
                    assert abs(logs[i] - exact) < bound / 8, (k, comp)

    @pytest.mark.parametrize(
        "args, rel_tol",
        [
            (next(iter(GOLDEN_MP))[:3], 1e-8),
            ((1.8, (0.8, 0.6, 0.3), (-6.0, -0.5, -0.5)), 1e-10),
        ],
        ids=["kernels-three-order-s2", "three-order-z-6"],
    )
    def test_scan_agrees_with_the_sum_at_three_arguments(self, monkeypatch, args, rel_tol):
        # the scan's peak guess is the largest log term that the sum then
        # walks, and its term estimate is not below the terms walked
        _, peak_guess = specfun._mp_plan(*args, rel_tol)
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_MAX_SERIES_TERMS", 0)
            with pytest.raises(AccuracyError, match=r"needs about \d+ terms") as info:
                specfun._mp_plan(*args, rel_tol)
        estimate = int(re.search(r"about (\d+) terms", str(info.value)).group(1))
        walked, peaks = [], []
        real = specfun._shells

        def recorded(*walk_args):
            for comps, logs in real(*walk_args):
                walked.append(len(logs))
                peaks.append(max(logs))
                yield comps, logs

        monkeypatch.setattr(specfun, "_shells", recorded)
        specfun._mml_mp(*args, rel_tol)
        assert abs(peak_guess - max(peaks)) < 0.05
        assert estimate >= 0.9 * sum(walked)

    def test_hopeless_sums_fail_fast(self):
        # the scan puts these past the term budget (2,731,135 and 8,783,390
        # terms); summed anyway, the first takes seconds, the second minutes
        for args in (
            MLArgs(1.5, (0.8, 0.5, 0.3), (-15.0, -1.0, -0.5)),
            MLArgs(0.3, (0.9, 0.6, 0.4, 0.1), (-3.0, -1.0, -0.5, -0.2)),
        ):
            start = time.perf_counter()
            with pytest.raises(AccuracyError, match=r"needs about \d+ terms"):
                mml(args)
            assert time.perf_counter() - start < 1.0

    def test_low_peak_guess_retries_at_more_digits(self, monkeypatch):
        # a peak guess 20 (80) ln-units low starts too few digits: the sum
        # certifies itself on the second (third) walk, to the same bits; a
        # digit cap at the first attempt's digits turns the retry into an error
        args = (1.7, (0.7, 0.39999999999999997), (-19.739208802178716, -0.5), 1e-8)
        real_plan = specfun._mp_plan
        for drop, walks in ((20.0, 2), (80.0, 3)):
            with monkeypatch.context() as patch:
                low = lambda *a: (lambda cap, peak: (cap, peak - drop))(*real_plan(*a))
                patch.setattr(specfun, "_mp_plan", low)
                shells = count_calls(patch, specfun, "_shells")
                assert repr(specfun._mml_mp(*args)) == GOLDEN_MP[args] == "0.04879681661366187"
                assert len(shells) == walks
                _, low_guess = specfun._mp_plan(*args)
                patch.setattr(specfun, "_MAX_MP_DPS", specfun._mp_digits(args[-1], low_guess) + 12)
                with pytest.raises(AccuracyError, match=r"needs ~\d+ digits$"):
                    specfun._mml_mp(*args)

    def test_retries_end_after_four_walks(self, monkeypatch):
        # digit estimates that rise with every call are never met: the sum
        # gives up after its fourth walk instead of retrying without end
        real, estimates = specfun._mp_digits, []

        def rising(rel_tol, peak_ln):
            estimates.append(peak_ln)
            return real(rel_tol, peak_ln) + 12 * len(estimates)

        monkeypatch.setattr(specfun, "_mp_digits", rising)
        shells = count_calls(monkeypatch, specfun, "_shells")
        with pytest.raises(AccuracyError, match="extended-precision retries exhausted"):
            specfun._mml_mp(1.0, (0.5,), (-5.0,), 1e-8)
        assert len(shells) == 4

    def test_digits_envelope_fails_fast(self):
        # the scan puts the peak near e^1600, which needs more digits than
        # _MAX_MP_DPS: the sum raises before it walks any shell
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match=r"needs ~715 digits; outside the series envelope"):
            ml2(0.5, 1.0, -40.0)
        assert time.perf_counter() - start < 0.5

    def test_four_arguments_long_double_sum(self, monkeypatch):
        # the double sum is not quiet by the last of the 13 cached shells, so
        # the scan runs once and the sum goes on in double precision, where
        # it certifies itself without extended precision
        args = (0.5, (0.9, 0.6, 0.4, 0.1), (-0.2, -0.1, -0.05, -0.025))
        plans = count_calls(monkeypatch, specfun, "_mp_plan")
        mp_calls = count_calls(monkeypatch, specfun, "_mml_mp")
        value = mml(MLArgs(*args))
        assert repr(value) == "0.28049247113074366"
        assert (len(plans), mp_calls) == (1, [])
        assert rel_err(value, specfun._mml_mp(*args, 1e-12)) < 1e-14

    def test_four_arguments_scan_only_a_long_sum(self, monkeypatch):
        # the double sum converges on shell 13, the first past the 13 cached
        # shells, so _mp_plan's scan (about 20 ms a call) does not run
        plans = count_calls(monkeypatch, specfun, "_mp_plan")
        assert repr(mml(MLArgs(0.5, (0.9, 0.6, 0.4, 0.1), (-0.01,) * 4))) == "0.5279447459585168"
        assert plans == []


class TestOrderSpecAndNormalize:
    def test_validation(self):
        with pytest.raises(DomainError):
            OrderSpec((0.5, 0.4), (1.0, 1.0))
        with pytest.raises(DomainError):
            OrderSpec((0.5, 1.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            OrderSpec((0.5,), (-1.0,))
        with pytest.raises(DomainError, match="got .*inf"):
            OrderSpec((0.5,), (math.inf,))

    # dividing the equation by the leading weight r_N maps (lam, r) to
    # (lam/r_N, r/r_N): S1 is invariant under the map and S2 picks up 1/r_N
    def test_identity_when_normalized(self):
        spec = OrderSpec((0.3, 0.7), (0.5, 1.0))
        lam, unit, scale = _normalized(spec, 4.0)
        assert (lam, unit, scale) == (4.0, spec, 1.0)

    def test_single_term_example(self):
        spec = OrderSpec((0.5,), (2.0,))
        lam, unit, scale = _normalized(spec, 4.0)
        assert (lam, unit.weights, scale) == (2.0, (1.0,), 0.5)
        for t in (1e-3, 0.05):
            assert rel_err(s1_kernel_series(4.0, spec, t), ml2(0.5, 1.0, -lam * t**0.5)) < 1e-13

    def test_two_term_example_with_contour_check(self):
        spec = OrderSpec((0.4, 0.8), (0.5, 2.0))
        lam, unit, scale = _normalized(spec, 10.0)
        assert (lam, unit.weights, scale) == (5.0, (0.25, 1.0), 0.5)
        t = 0.1
        before = s2_kernel_contour(10.0, spec, t, tight_contour(t, 2000))
        after = scale * s2_kernel_contour(lam, unit, t, tight_contour(t, 2000))
        assert rel_err(before, after) < 1e-10


class TestSeriesKernels:
    def test_s1_single_term_identity(self):
        spec = OrderSpec((0.6,), (1.0,))
        for t in (1e-3, 0.05, 0.4):
            a = s1_kernel_series(7.0, spec, t)
            b = ml2(0.6, 1.0, -7.0 * t**0.6)
            assert rel_err(a, b) < 1e-13

    def test_s1_two_term_against_contour(self):
        spec = OrderSpec((0.2, 0.5), (0.5, 1.0))
        lam = PI2 + 1.0
        t = 0.1
        a = s1_kernel_series(lam, spec, t)
        b = s1_kernel_contour(lam, spec, t, tight_contour(t, 4000))
        assert rel_err(a, b) < 1e-6

    def test_s2_single_term_identity(self):
        spec = OrderSpec((0.6,), (1.0,))
        for t in (1e-3, 0.05, 0.4):
            a = s2_kernel_series(7.0, spec, t)
            b = t ** (0.6 - 1.0) * ml2(0.6, 0.6, -7.0 * t**0.6)
            assert rel_err(a, b) < 1e-13

    def test_s2_decreasing_in_lambda(self):
        spec = OrderSpec((0.3, 0.7), (0.5, 1.0))
        vals = [s2_kernel_series(lam, spec, 0.1) for lam in (1.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_s2_two_term_against_contour(self):
        spec = OrderSpec((0.5, 0.8), (1.0, 1.0))
        lam = 2.0 * PI2
        t = 0.05
        a = s2_kernel_series(lam, spec, t)
        b = s2_kernel_contour(lam, spec, t, tight_contour(t, 4000))
        assert rel_err(a, b) < 1e-6

    def test_any_positive_leading_weight(self):
        # the kernels divide the leading weight out: S1 is the normalized
        # call bit for bit, S2 and its convolution carry the factor 1/r_N
        for spec in (OrderSpec((0.5,), (2.0,)), OrderSpec((0.4, 0.8), (0.5, 2.0))):
            lam, unit, scale = _normalized(spec, 10.0)
            for t in (1e-3, 0.05, 0.4):
                assert s1_kernel_series(10.0, spec, t) == s1_kernel_series(lam, unit, t)
                s2 = scale * s2_kernel_series(lam, unit, t)
                assert rel_err(s2_kernel_series(10.0, spec, t), s2) < 1e-15
                for a in (0.0, 0.5):
                    s2_int = scale * s2_kernel_int_series(lam, unit, a, t)
                    assert rel_err(s2_kernel_int_series(10.0, spec, a, t), s2_int) < 1e-15

    def test_s2_int_a0_is_running_integral(self):
        # a = 0 reduces to the running integral of S2 (exponent-shift identity)
        spec = OrderSpec((0.5, 0.7), (0.5, 1.0))
        lam = 2.0 * PI2
        t = 0.01
        direct = s2_kernel_int_series(lam, spec, 0.0, t)
        oracle = trapezoid_convolution(
            lambda s: s2_kernel_series(lam, spec, s), lambda _: 1.0, t
        )
        assert rel_err(direct, oracle) < 2e-5

    def test_s2_int_power_law_factor(self):
        # a = 0.5: convolution against sqrt(s)/Gamma(1.5)
        spec = OrderSpec((0.4, 0.7), (0.5, 1.0))
        lam = 5.0
        t = 0.02
        direct = s2_kernel_int_series(lam, spec, 0.5, t)
        g15 = gamma(1.5)
        oracle = trapezoid_convolution(
            lambda s: s2_kernel_series(lam, spec, s),
            lambda u: math.sqrt(u) / g15 if u > 0 else 0.0,
            t,
        )
        assert rel_err(direct, oracle) < 2e-5

    def test_s2_int_domain(self):
        spec = OrderSpec((0.5,), (1.0,))
        with pytest.raises(DomainError):
            s2_kernel_int_series(1.0, spec, -0.1, 0.1)
        with pytest.raises(DomainError):
            s2_kernel_int_series(1.0, spec, 1.5, 0.1)


class TestContourKernels:
    def test_single_term_against_ml2(self):
        spec = OrderSpec((0.6,), (1.0,))
        a = s1_kernel_contour(1.0, spec, 1.0, tight_contour(1.0, 4000))
        assert rel_err(a, ml2(0.6, 1.0, -1.0)) < 1e-6

    def test_s2_single_term_identity(self):
        spec = OrderSpec((0.7,), (1.0,))
        t = 0.3
        a = s2_kernel_contour(5.0, spec, t, tight_contour(t, 4000))
        b = t ** (0.7 - 1.0) * ml2(0.7, 0.7, -5.0 * t**0.7)
        assert rel_err(a, b) < 1e-6

    def test_series_match_at_two_horizons(self):
        spec = OrderSpec((0.2, 0.9), (0.5, 1.0))
        lam = PI2 + 1.0
        for t in (1e-3, 1e-1):
            c = tight_contour(t, 4000)
            assert rel_err(
                s1_kernel_series(lam, spec, t), s1_kernel_contour(lam, spec, t, c)
            ) < 1e-6
            assert rel_err(
                s2_kernel_series(lam, spec, t), s2_kernel_contour(lam, spec, t, c)
            ) < 1e-6

    def test_s2_int_series_match(self):
        # the convolution has no contour kernel: the hyperbola, which shares
        # no code with the series, is its quadrature
        spec = OrderSpec((0.3, 0.7), (0.5, 1.0))
        lam = PI2 + 1.0
        for a in (0.0, 0.5):
            for t in (1e-3, 1e-1):
                assert rel_err(
                    s2_kernel_int_series(lam, spec, a, t),
                    specfun._hyperbola_integral(lam, spec, t, a),
                ) < 1e-6

    def test_bare_s2_is_the_order_zero_integral(self):
        # a = -1 names bare S2: its numerator (1, -a - 1) is exactly 1 p**0,
        # which the nodes take as the scalar 1.0, with no power formed
        spec = OrderSpec((0.3, 0.7), (0.5, 1.0))
        numerator, denominator = specfun._transform(spec, -1.0)
        assert numerator == ((1.0, 0.0),) and math.copysign(1.0, numerator[0][1]) == 1.0
        assert denominator == ((0.5, 0.3), (1.0, 0.7))
        assert specfun._at_nodes(numerator, np.full(3, 2.0 + 1.0j)) == [(1.0, 0.0, 1.0)]
        assert specfun._transform(spec, None)[0] == ((0.5, 0.3 - 1.0), (1.0, 0.7 - 1.0))

    def test_default_contour_shape(self):
        c = tight_contour(0.01)
        assert c.n_radial == 4000
        assert c.delta == 100.0
        assert c.r_max > c.delta
        assert math.pi / 2 < c.theta < math.pi

    def test_contour_validation(self):
        with pytest.raises(DomainError):
            ContourSpec(theta=0.5, delta=1.0, n_radial=400, r_max=10.0)
        with pytest.raises(DomainError):
            ContourSpec(theta=2.6, delta=1.0, n_radial=8, r_max=10.0)
        with pytest.raises(DomainError):
            ContourSpec(theta=2.6, delta=1.0, n_radial=400, r_max=0.5)
        # non-finite inputs raise rather than give nan or 0
        with pytest.raises(DomainError, match="r_max must be finite"):
            ContourSpec(theta=5 * math.pi / 6, delta=1.0, n_radial=400, r_max=math.inf)
        with pytest.raises(DomainError, match="t must be positive and finite"):
            tight_contour(math.inf)
        # a float n_radial would end the ray grid past r_max
        for n in (4000.5, 16.0):
            with pytest.raises(DomainError, match=f"n_radial must be an integer, got {n!r}"):
                tight_contour(0.1, n)
        assert tight_contour(0.1, np.int64(400)) == tight_contour(0.1, 400)
        spec = OrderSpec((0.7,), (1.0,))
        for kernel in (s1_kernel_contour, s2_kernel_contour):
            with pytest.raises(DomainError, match="t must be positive and finite"):
                kernel(1.0, spec, math.inf, tight_contour(1.0, 400))
            with pytest.raises(DomainError, match="lambda must be positive and finite"):
                kernel(math.inf, spec, 0.1, tight_contour(0.1, 400))

    def test_truncation_guard(self):
        # r_max far too small for this t: the tail estimate must trip
        spec = OrderSpec((0.5,), (1.0,))
        bad = ContourSpec(theta=5 * math.pi / 6, delta=1.0, n_radial=400, r_max=3.0)
        with pytest.raises(AccuracyError):
            s2_kernel_contour(1.0, spec, 1e-3, bad)


GRID_LAMS = (1.0, PI2 + 1.0, 2.0 * PI2)
GRID_SPECS = (
    OrderSpec((0.5,), (1.0,)),
    OrderSpec((0.3, 0.7), (0.5, 1.0)),
    OrderSpec((0.2, 0.9), (1.0, 1.0)),
)
GRID_TIMES = (1e-4, 1e-2, 1e-1, 1.0)


# the (lam, orders) of the figure panels' fractional specs and of the three
# eigenvalues of the figures benchmark's source problem (table3b)
FIGURE_SPECS = (
    *((PI2 + 1.0, OrderSpec((alpha,), (1.0,))) for alpha in (0.25, 0.5, 0.75)),
    *((PI2 + 1.0, OrderSpec((0.2, alpha), (0.5, 1.0))) for alpha in (0.3, 0.5, 0.7, 0.9)),
)
SOURCE_SPECS = tuple((k * PI2, OrderSpec((0.5, 0.7), (0.5, 1.0))) for k in (2.0, 5.0, 10.0))


def direct_hyperbola(lam, spec, t, a):
    """The hyperbola rule for the kernel named by a, with every factor
    formed at each time: the nodes p = mu (1 + sin(iu - alpha)) with
    mu = 4.4921 N / t, complex p**e per node and exp(t p); t is a 1-d array
    of times.  Returns the values and the rule's rounding scale, the sum of
    its terms' magnitudes."""
    numerator, _ = specfun._transform(spec, a)
    n = 20
    w = 1j * (1.0818 / n) * np.arange(n + 1) - 1.1721
    mu = 4.4921 * n / np.asarray(t)[:, None]
    p = mu * (1.0 + np.sin(w))
    den = lam + sum(r * p**alpha for alpha, r in zip(spec.alphas, spec.weights))
    num = sum(c * p**e for c, e in numerator)
    f = np.exp(t[:, None] * p) * num / den * np.cos(w)
    scale = mu[:, 0] * (1.0818 / n) / math.pi
    return scale * np.real(np.sum(f, axis=1) - 0.5 * f[:, 0]), scale * np.sum(np.abs(f), axis=1)


class TestHyperbola:
    @staticmethod
    def _hyperbola(kernel, lam, spec, t, a=None):
        # bare S2 is the kernel a = -1
        return specfun._hyperbola_integral(lam, spec, t, -1.0 if kernel == "s2" else a)

    @pytest.mark.parametrize("lam, spec", FIGURE_SPECS + SOURCE_SPECS)
    def test_time_free_factors_match_the_direct_formula(self, lam, spec):
        # hoisting exp(t p) cos(iu - alpha) and q**e out of the time rows moves
        # values by rounding only, on the figures' 500-point grid: within a few
        # eps of the sum of the terms' magnitudes, and within 1e-11 of the
        # values of S1 and of the S2 convolutions, which the figures and the
        # source points read.  S2 alone cancels by up to 5e5 near t = 1, where
        # both forms lie up to 1.6e-10 from a 40-digit sum of the same rule
        times = np.geomspace(1e-6, 1.0, 500)
        for kernel, a in (("s1", None), ("s2", -1.0), ("int", 0.0), ("int", 0.5)):
            got = specfun._hyperbola_integral(lam, spec, times, a)
            ref, rounding = direct_hyperbola(lam, spec, times, a)
            assert np.max(np.abs(got - ref) / rounding) < 1e-14, (kernel, a)
            if kernel != "s2":
                assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11, (kernel, a)

    def test_grid_against_series(self):
        # the series certified to 1e-10, through extended precision where the
        # double sum cannot certify itself
        worst = 0.0
        for lam in GRID_LAMS:
            for spec in GRID_SPECS:
                for t in GRID_TIMES:
                    worst = max(
                        worst,
                        rel_err(s1_kernel_series(lam, spec, t), self._hyperbola("s1", lam, spec, t)),
                        rel_err(s2_kernel_series(lam, spec, t), self._hyperbola("s2", lam, spec, t)),
                    )
        assert worst < 1e-9

    def test_three_orders_against_series(self):
        spec = OrderSpec((0.2, 0.5, 0.8), (0.5, 0.5, 1.0))
        for lam in GRID_LAMS:
            for t in (1e-4, 1e-2, 1e-1):
                assert rel_err(s1_kernel_series(lam, spec, t), self._hyperbola("s1", lam, spec, t)) < 1e-9
                assert rel_err(s2_kernel_series(lam, spec, t), self._hyperbola("s2", lam, spec, t)) < 1e-9
                for a in (0.0, 0.5):
                    assert rel_err(
                        s2_kernel_int_series(lam, spec, a, t), self._hyperbola("int", lam, spec, t, a)
                    ) < 1e-9

    def test_non_finite_sum_raises(self):
        spec = OrderSpec((0.5,), (1.0,))
        with pytest.raises(AccuracyError), np.errstate(invalid="ignore"):
            specfun._hyperbola_integral(math.nan, spec, 0.1, -1.0)

    def test_time_array_matches_scalar_calls(self):
        # more times than one vectorized pass takes
        times = np.geomspace(1e-4, 1.0, 2 * specfun._HYP_ROWS + 3)
        for lam in GRID_LAMS:
            for spec in GRID_SPECS:
                for kernel in ("s1", "s2"):
                    batched = self._hyperbola(kernel, lam, spec, times)
                    scalar = [self._hyperbola(kernel, lam, spec, float(t)) for t in times]
                    assert np.array_equal(batched, scalar)

    def test_non_finite_value_names_its_time(self):
        # a NaN time, not inf: at t = inf the S2 rule has mu = 0 and gives 0,
        # the limit of S2
        spec = OrderSpec((0.5,), (1.0,))
        times = np.append(np.full(specfun._HYP_ROWS + 1, 0.1), math.nan)
        with pytest.raises(AccuracyError, match="t=nan"), np.errstate(all="ignore"):
            specfun._hyperbola_integral(2.0, spec, times, -1.0)
