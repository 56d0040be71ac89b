"""Small-time regressor families and the map to physical parameters.

Two model kinds are supported, each in an initial-data and a source flavour:

  polynomial, initial data   f(t) = c0 + sum_i c_i t^beta_i
  polynomial, source         f(t) = sum_i c_i t^beta_i
  rational, initial data     f(t) = c0 / (1 + sum_i d_i t^beta_i)
  rational, source           f(t) = cA (1 - 1 / (1 + sum_i d_i t^beta_i))

The amplitudes are stored raw; the Gamma factors that link them to physical
quantities (orders, weights, boundary values of the datum) appear only in
to_physical / from_physical, so the optimizer never differentiates through
Gamma.  to_physical maps any fit and passes no verdict: whether the values
are physically admissible is decided where the result rows are written.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from fracorder.forward import Case, _as_times, _shift
from fracorder.specfun import DomainError, gamma

__all__ = [
    "Kind",
    "ModelParams",
    "PhysicalParams",
    "eval_model",
    "to_physical",
    "from_physical",
    "exponents",
]


class Kind(enum.Enum):
    POLYNOMIAL = "polynomial"
    RATIONAL = "rational"


def n_head(kind: Kind, case: Case) -> int:
    """Number of head amplitudes (c0 or cA) stored before the per-term ones:
    none for the polynomial source model, one for every other shape."""
    return 0 if kind is Kind.POLYNOMIAL and case is Case.SOURCE else 1


def n_coeffs(kind: Kind, case: Case, n_terms: int) -> int:
    """Number of amplitude parameters for a given model shape."""
    return n_head(kind, case) + n_terms


@dataclass(frozen=True)
class ModelParams:
    kind: Kind
    case: Case
    c: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind) or not isinstance(self.case, Case):
            raise DomainError(
                f"kind must be a Kind and case a Case, got {self.kind!r}, {self.case!r}"
            )
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        b = self.beta
        if len(b) < 1:
            raise DomainError("at least one exponent is required")
        if not all(0.0 < x < 2.0 for x in b):
            raise DomainError(f"exponents must lie in (0, 2), got {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise DomainError(f"exponents must be strictly increasing, got {b}")
        expected = n_coeffs(self.kind, self.case, len(b))
        if len(self.c) != expected:
            raise DomainError(
                f"{self.kind.value}/{self.case.value} with {len(b)} exponents "
                f"needs {expected} amplitudes, got {len(self.c)}"
            )

    @property
    def n_terms(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class PhysicalParams:
    """Recovered physical quantities with the leading weight fixed to one.

    Stored as raw floats rather than a validated order spec: boundary-regime
    fits legitimately return degenerate values (a zero weight, an order at a
    box bound) that a strict order spec would reject.
    """

    alphas: tuple[float, ...]
    weights: tuple[float, ...]
    amplitude: float
    constant: float | None = None


# ---------------------------------------------------------------------------
# evaluation and gradients on raw arrays (used by the optimizer mid-flight,
# where the exponents may transiently violate the ordering invariant)
# ---------------------------------------------------------------------------


def _eval_arrays(kind: Kind, case: Case, c, powers: list[np.ndarray]):
    """Model values from the powers t**beta_i, with the power sum they were
    mapped from (the rational denominator, which the Jacobian reuses)."""
    # one power sum: start at c0 (polynomial, initial data), 0 (polynomial,
    # source) or 1 (rational denominator), then apply the kind's map
    head = n_head(kind, case)
    if kind is Kind.RATIONAL:
        acc = 1.0
    else:
        acc = c[0] if head else 0.0
    for ai, pi in zip(c[head:], powers):
        acc = acc + ai * pi
    if kind is Kind.POLYNOMIAL:
        return acc, acc
    if case is Case.INITIAL_DATA:
        return c[0] / acc, acc
    return c[0] * (1.0 - 1.0 / acc), acc


def _grad_arrays(
    kind: Kind, case: Case, c, powers: list[np.ndarray], lnt: np.ndarray, acc: np.ndarray
) -> np.ndarray:
    """Jacobian rows over (c..., beta...) from the powers, ln t and the power
    sum of _eval_arrays at the same point; only the rational rows read the
    power sum, as their denominator."""
    head = n_head(kind, case)
    amps = c[head:]
    if kind is Kind.POLYNOMIAL:
        rows = [np.ones_like(lnt)] * head + powers
        rows.extend(ai * pi * lnt for ai, pi in zip(amps, powers))
        return np.array(rows)
    q2 = 1.0 / (acc * acc)
    if case is Case.INITIAL_DATA:
        rows, k = [1.0 / acc], -c[0]
    else:
        rows, k = [(acc - 1.0) / acc], c[0]
    rows.extend(k * pi * q2 for pi in powers)
    rows.extend(k * di * pi * lnt * q2 for di, pi in zip(amps, powers))
    return np.array(rows)


def eval_model(params: ModelParams, t):
    """Evaluate the regressor at t > 0 (scalar or 1-d array)."""
    arr, scalar = _as_times(t)
    out, _ = _eval_arrays(params.kind, params.case, params.c, [arr**b for b in params.beta])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# physical-parameter correspondence
# ---------------------------------------------------------------------------


def exponents(alphas: tuple[float, ...], case: Case, a: float = 0.0) -> tuple[float, ...]:
    """The exponents implied by the orders (alpha_1[, alpha_N]):
    beta_1 = alpha_N (+ a) and beta_2 = 2 alpha_N - alpha_1 (+ a)."""
    if len(alphas) not in (1, 2):
        raise DomainError("physical inversion supports one or two orders")
    shift = _shift(case, a)
    alpha_n = alphas[-1]
    if len(alphas) == 1:
        return (alpha_n + shift,)
    return (alpha_n + shift, 2.0 * alpha_n - alphas[0] + shift)


def to_physical(params: ModelParams, a: float = 0.0) -> PhysicalParams:
    """Map fitted (c, beta) to orders, weight ratio and amplitude.

    Inverts the exponent map of `exponents`, undoing the source case's shift
    by a, with the beta_2 term entering the expansion with the opposite sign
    of the beta_1 term; the leading weight is fixed to one.  Any fit maps,
    alpha_1 <= 0 included: judging the values is the caller's.
    """
    m = params.n_terms
    if m not in (1, 2):
        raise DomainError("physical inversion supports one or two power terms")
    shift = _shift(params.case, a)
    b = params.beta
    alpha_n = b[0] - shift
    c = params.c
    h = n_head(params.kind, params.case)
    # the first per-term amplitude times Gamma(beta_1 + 1); the beta_2 term
    # enters with the opposite sign, so r1 is minus its ratio to this one
    lead = c[h] * gamma(b[0] + 1.0)
    if params.kind is Kind.RATIONAL:
        amplitude = c[0] * lead
    elif params.case is Case.INITIAL_DATA:
        amplitude = -lead
    else:
        amplitude = lead
    constant = c[0] if params.case is Case.INITIAL_DATA else None
    if m == 1:
        return PhysicalParams((alpha_n,), (1.0,), amplitude, constant)
    r1 = (-c[h + 1] * gamma(b[1] + 1.0) / lead + 0.0) if lead != 0.0 else math.nan
    alpha_1 = 2.0 * b[0] - b[1] - shift
    return PhysicalParams((alpha_1, alpha_n), (r1, 1.0), amplitude, constant)


def from_physical(
    phys: PhysicalParams, kind: Kind, case: Case, a: float = 0.0
) -> ModelParams:
    """Exact inverse of to_physical (source case shifts the exponents by a)."""
    beta = exponents(phys.alphas, case, a)
    amp, c0 = phys.amplitude, phys.constant
    # the head amplitudes, and the lead c[h] Gamma(beta_1 + 1) that
    # to_physical divides out, as num / den: -A, A, A / c0 or 1
    if kind is Kind.POLYNOMIAL:
        head, num, den = ([c0], -amp, 1.0) if case is Case.INITIAL_DATA else ([], amp, 1.0)
    else:
        head, num, den = ([c0], amp, c0) if case is Case.INITIAL_DATA else ([amp], 1.0, 1.0)
    c = head + [num / (den * gamma(beta[0] + 1.0))]
    if len(beta) == 2:
        c.append(-num * phys.weights[0] / (den * gamma(beta[1] + 1.0)))
    return ModelParams(kind, case, tuple(c), tuple(beta))
