"""Special-function kernel layer.

Gamma, the two-parameter and multinomial Mittag-Leffler functions, and two
quadratures of the relaxation kernels' Laplace transforms that share no code
with the series: the arc-plus-rays contour kernels (s*_kernel_contour), the
independent cross-check of the series evaluations, which form each node
power from the node's polar parts (_polar_nodes), and the Weideman-Trefethen
hyperbola (_hyperbola_integral), which serves every value of forward's "auto"
method.  Both, and the values at real p (_transform_at), read one statement
of a mode kernel's Laplace transform (_transform), which names the kernel by
its exponent a and gives both sides as power terms (weight, exponent),
summed by one helper (_power_sum).  The hyperbola takes a float or a 1-d
array of times, and evaluates an array in vectorized passes of up to
_HYP_ROWS times, one row of nodes per time.  Its nodes scale with 1/t, so the
factors that do not depend on t (exp(t p), dp/du and the node powers) are
formed once, and a time costs one real power per term and complex
multiply-adds over its row.

There is one series: the multinomial one, summed shell by shell.  The
two-parameter function E_{alpha,beta}(z) is its one-argument case, and like
beta0 of the multinomial function it needs beta > 0, so every Gamma argument
of a term is positive.  Its arguments are reduced once, at the entry that
ml2 and mml share (_mml_value): it drops every pair with z_j = 0, so the sum
only ever sees z_j < 0, and the series kernels (s*_kernel_series, the only
map from a mode kernel to its series arguments, which forward's "series"
method calls) divide the equation by the leading weight themselves, so they
take any positive weights, as the contour and hyperbola routes do.

The series is summed with compensated (Kahan) accumulation and certifies
its own rounding envelope: the worst term magnitude is tracked
in log space, and when alternating-term cancellation would eat the requested
accuracy in double precision the evaluation transparently retries in bounded
extended precision.  When even that cannot be certified, or a coarse scan says
the sum would need more than _MAX_SERIES_TERMS terms, AccuracyError is raised
instead of silently returning garbage or summing for minutes.  The extended
sum is integer fixed point: a running Python integer counts a fixed quantum
far below the noise floor.  The factors of each term (1/Gamma, z_j**k_j/k_j!,
k!) are mpmath mantissas whose exact product is shifted once into that
integer, so no term costs an mpf multiply, add or normalization; only a miss
of the 1/Gamma memo does, served by the recurrence from a neighbour up to
_GAMMA_STEPS unit steps away with one rounding, else by mpf_rgamma.  Terms
just above the per-term cut, whose double exp(log) errs by less than a
dropped term (_term_rel_err), are summed in double precision instead, one
math.fsum per shell added to the integer once.  Both sums read each shell
from one walk (_shells) as its compositions, rows of an int64 array, and the
log magnitudes of its terms: _rows forms their z-independent parts from the
compositions alone, to which each call adds its own powers (_logs).  rel_tol
must be positive and finite; ml2 and mml reject any other value before they
sum or take a shortcut.

Every public function is a pure function of its arguments.  The module
state is two read-only caches, which only save rebuilding: ln k! (_lnfact)
and, per (beta0, betas), the z-independent parts of the leading shells'
terms (_leading_shells, a bounded LRU cache).  Neither needs a lock:
lru_cache is thread-safe, and a cached table is never written after it is
built.  The extended-precision sum passes its own precision to each
mpmath.libmp call, so no global mpmath state is read or set.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import count, pairwise

import numpy as np

__all__ = [
    "Z_MAX",
    "MAX_ML_TERMS",
    "DomainError",
    "AccuracyError",
    "OrderSpec",
    "MLArgs",
    "ContourSpec",
    "gamma",
    "log_gamma",
    "ml2",
    "mml",
    "s1_kernel_series",
    "s2_kernel_series",
    "s2_kernel_int_series",
    "s1_kernel_contour",
    "s2_kernel_contour",
    "tight_contour",
]

# Series evaluation envelope: beyond this argument size the alternating series
# is never attempted, even in extended precision.
Z_MAX = 40.0
# Shells the double-precision sum may take before extended precision takes over.
_SHELL_CAP = 100
# Cap on the number of Mittag-Leffler arguments (compositions blow up fast).
MAX_ML_TERMS = 4

_EPS = float(np.finfo(float).eps)
# Margin applied to the cancellation certificate: accounts for the relative
# error of terms assembled as exp(log-expressions) whose logs reach O(300).
_CERT_FACTOR = 400.0
_MAX_MP_DPS = 400
# Shells an extended-precision sum may take at m = 1, 2 and more arguments
_MP_SHELL_CAPS = (30000, 2000, 600)
# Most terms an extended-precision sum may need (see _mp_plan)
_MAX_SERIES_TERMS = 500_000
# Largest step n of the Gamma recurrence that serves a 1/Gamma memo miss
_GAMMA_STEPS = 8
_LN10 = math.log(10.0)
# ln of the smallest normal double: exp below it returns a subnormal
_LN_TINY = math.log(float(np.finfo(float).tiny))


class DomainError(ValueError):
    """Argument outside the supported regime."""


class AccuracyError(ArithmeticError):
    """The evaluation cannot be certified to the target accuracy."""


def gamma(x: float) -> float:
    """Euler Gamma for x > 0."""
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0.  The series kernels below route through this
    so a perturbation here propagates to every Mittag-Leffler value."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderSpec:
    """Fractional orders 0 < alpha_1 < ... < alpha_N < 1 with positive weights."""

    alphas: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        a, w = self.alphas, self.weights
        if len(a) < 1:
            raise DomainError("at least one order is required")
        if len(a) != len(w):
            raise DomainError("orders and weights must have equal length")
        if not all(0.0 < x < 1.0 for x in a):
            raise DomainError(f"orders must lie in (0, 1), got {a}")
        if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise DomainError(f"orders must be strictly increasing, got {a}")
        if not all(0.0 < x < math.inf for x in w):
            raise DomainError(f"weights must be positive and finite, got {w}")

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class MLArgs:
    """Arguments of the multinomial Mittag-Leffler function.

    beta0 is allowed up to 3 (not just 2) so the source kernel integrated
    against a power-law factor t^a, which shifts beta0 by a + 1, stays in
    range for every a in [0, 1].
    """

    beta0: float
    betas: tuple[float, ...]
    zs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "zs", tuple(float(z) for z in self.zs))
        if not 0.0 < self.beta0 < 3.0:
            raise DomainError(f"beta0 must lie in (0, 3), got {self.beta0}")
        if len(self.betas) != len(self.zs):
            raise DomainError("betas and zs must have equal length")
        if len(self.betas) < 1:
            raise DomainError("at least one (beta, z) pair is required")
        if len(self.betas) > MAX_ML_TERMS:
            raise DomainError(
                f"at most {MAX_ML_TERMS} arguments supported, got {len(self.betas)}"
            )
        if not all(0.0 < b < 1.0 for b in self.betas):
            raise DomainError(f"betas must lie in (0, 1), got {self.betas}")
        for z in self.zs:
            if not z <= 0.0:
                raise DomainError(f"only non-positive arguments supported, got z={z}")
            if abs(z) > Z_MAX:
                raise DomainError(
                    f"|z| = {abs(z)} exceeds Z_MAX = {Z_MAX}; series unreliable"
                )


@dataclass(frozen=True)
class ContourSpec:
    """Integration contour: arc of radius delta spanning |arg p| <= theta,
    plus two rays to radius r_max, with n_radial geometrically graded nodes."""

    theta: float
    delta: float
    n_radial: int
    r_max: float

    def __post_init__(self) -> None:
        if not math.pi / 2.0 < self.theta < math.pi:
            raise DomainError(f"theta must lie in (pi/2, pi), got {self.theta}")
        if not self.delta > 0.0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        try:
            object.__setattr__(self, "n_radial", operator.index(self.n_radial))
        except TypeError:
            raise DomainError(f"n_radial must be an integer, got {self.n_radial!r}") from None
        if self.n_radial < 16:
            raise DomainError(f"n_radial must be >= 16, got {self.n_radial}")
        if not self.delta < self.r_max < math.inf:
            raise DomainError(f"r_max must be finite and exceed delta, got {self.r_max}")


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------


def _certified(value: float, peak_log: float, rel_tol: float) -> bool:
    if value == 0.0 or not math.isfinite(value):
        return False
    lhs = peak_log + math.log(_EPS * _CERT_FACTOR)
    rhs = math.log(rel_tol * abs(value))
    return lhs <= rhs


def _compositions(k: int, m: int) -> np.ndarray:
    """All m-tuples of non-negative integers summing to k, lexicographic, as
    the rows of an int64 array, filled one column at a time."""
    out = np.empty((math.comb(k + m - 1, m - 1), m), dtype=np.int64)
    left = np.array([k], dtype=np.int64)  # what each prefix leaves to the columns after it
    for j in range(m - 1):
        # a prefix leaving r takes each v = 0..r in column j, and each v spans
        # the C(r - v + p, p) rows that split r - v over the p + 1 columns
        # after j, formed as a running product that stays an exact integer
        n = left + 1
        v = np.arange(n.sum(), dtype=np.int64) - np.repeat(np.cumsum(n) - n, n)
        left = np.repeat(left, n) - v
        span = np.ones_like(left)
        for i in range(1, m - j - 1):
            span = span * (left + i) // i
        out[:, j] = np.repeat(v, span)
    out[:, -1] = left
    return out


# The terms of the multinomial series at z_j < 0, listed shell by shell.
# Shell k of sum_k sum_{|comp| = k} k!/(k_1! ... k_m!) prod z_j**k_j
# / Gamma(beta0 + sum beta_j k_j) holds one term per composition of k, and
# the sign of every term in it is (-1)**k.  A term's log magnitude is
# (ln k! - sum ln k_j!) + sum k_j ln|z_j| - ln Gamma(beta0 + sum beta_j k_j):
# _rows builds the parts that do not depend on z, through the module's
# log_gamma, and _logs adds one call's powers.


@functools.lru_cache(maxsize=2)
def _lnfact(gamma_fn) -> np.ndarray:
    """Read-only ln k! up to the largest shell cap at m >= 2, keyed as in
    _leading_shells; ln 0! = 0 exactly, so a zero part changes no bit."""
    table = np.array([0.0] + [gamma_fn(k + 1.0) for k in range(1, max(_MP_SHELL_CAPS[1:]) + 1)])
    table.flags.writeable = False
    return table


def _rows(beta0: float, betas: tuple[float, ...], comps: np.ndarray):
    """(coef, lg) of the compositions comps (an int64 array, one per row):
    the log coefficient ln k! - sum ln k_j! and ln Gamma(beta0 + sum beta_j
    k_j), where k = sum k_j is the row's shell (ln k! from _lnfact at m >= 2)."""
    # the multinomial log coefficient is assembled apart from the powers so
    # that at m = 1 it is exactly 0 (ln k! - ln k!, no table needed), and the
    # Gamma argument is the float sum: the small-t fits hinge on the last bit
    # of these values, so both are formed in j order
    coef, bsum = np.zeros(len(comps)), np.zeros(len(comps))
    if len(betas) > 1:
        lnfact = _lnfact(log_gamma)
        coef += lnfact[comps.sum(axis=1)]
        for col in comps.T:
            coef -= lnfact[col]
    for b, col in zip(betas, comps.T):
        bsum += b * col
    return coef, np.array(list(map(log_gamma, (beta0 + bsum).tolist())))


def _logs(comps: np.ndarray, coef: np.ndarray, lg: np.ndarray, lnz) -> np.ndarray:
    """log |term| of each row at the powers lnz = (ln|z_j|)."""
    pow_log = np.zeros(len(coef))
    for col, lz in zip(comps.T, lnz):
        # k_j ln|z_j| added in j order, as a scalar sum would
        pow_log += col * lz
    return coef + pow_log - lg


# Bounds of the cache of leading shells: at most _MEMO_TABLES (beta0, betas)
# pairs, each holding its shells 0, 1, ... while they total at most
# _MEMO_TERMS terms: 2048 shells at m = 1, 63 at m = 2, 22 at m = 3.  The
# fits reach shell 42 at most, 946 terms at m = 2; a three-order series can
# run to _SHELL_CAP, 176k terms, and past the table its shells are
# built per call and not kept.
_MEMO_TABLES = 16
_MEMO_TERMS = 2048


@functools.lru_cache(maxsize=_MEMO_TABLES)
def _leading_shells(gamma_fn, beta0: float, betas: tuple[float, ...]):
    """The read-only rows (comps, coef, lg, starts) of the shells 0..n-1 of
    the series of (beta0, betas), shell k being rows starts[k]:starts[k + 1],
    for the largest n whose C(n - 1 + m, m) terms fit in _MEMO_TERMS, built
    in one pass.  gamma_fn is the module's log_gamma, which builds them; it
    is in the key so that a replaced Gamma routine never reads tables built
    by another."""
    m = len(betas)
    n = next(n for n in count() if math.comb(n + m, m) > _MEMO_TERMS)
    starts = tuple(math.comb(k - 1 + m, m) for k in range(n + 1))
    comps = np.vstack([_compositions(k, m) for k in range(n)])
    table = (comps, *_rows(beta0, betas, comps))
    for a in table:
        a.flags.writeable = False  # every caller shares them
    return (*table, starts)


def _shells(beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], kmax: int):
    """Shells 0..kmax of the series at zs in turn, each as the pair
    (compositions, logs): an int64 array of one composition per row and the
    list of their log |term|.  The cached leading shells are read in runs of
    shells 0..7, 8..15, 16..31 and on, each as long as all before it, since
    most sums stop well before the table ends, and the logs of a run are
    formed in one pass; past the table each shell is built alone and not
    kept; kmax is at most _mp_plan's cap."""
    lnz = [math.log(-z) for z in zs]
    comps, coef, lg, starts = _leading_shells(log_gamma, beta0, betas)
    n = len(starts) - 1
    k = 0
    while k <= kmax and k < n:
        end = min(n, max(8, 2 * k))
        lo, hi = starts[k], starts[end]
        flat = _logs(comps[lo:hi], coef[lo:hi], lg[lo:hi], lnz).tolist()
        for a, b in pairwise(starts[k : min(end, kmax + 1) + 1]):
            yield comps[a:b], flat[a - lo : b - lo]
        k = end
    for k in range(k, kmax + 1):
        shell = _compositions(k, len(betas))
        yield shell, _logs(shell, *_rows(beta0, betas, shell), lnz).tolist()


def _mml_double(beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], kmax: int = _SHELL_CAP):
    # Kahan-compensated sum s of the shells 0..kmax, c its running compensation
    s = c = 0.0
    peak_log = -math.inf
    quiet = 0
    for k, (_, logs) in enumerate(_shells(beta0, betas, zs, kmax)):
        peak_log = max(peak_log, max(logs))
        if peak_log > 700.0:
            return math.nan, peak_log, False
        shell = math.fsum(map(math.exp, logs))
        y = (shell if k % 2 == 0 else -shell) - c
        t = s + y
        c = (t - s) - y
        s = t
        if abs(shell) <= 1e-17 * max(abs(s), 1e-300):
            quiet += 1
            if quiet >= 2:
                return s, peak_log, True
        else:
            quiet = 0
    return s, peak_log, False


def _mp_digits(rel_tol: float, peak_ln: float) -> int:
    """Digits for rel_tol plus those lost to cancellation from e**peak_ln."""
    return max(6, int(math.ceil(-math.log10(rel_tol)))) + max(0, int(peak_ln / _LN10) + 1)


# Relative error of a term formed in double precision as exp(tlog), in units
# of _EPS per unit of L = ln k! + k max|ln|z_j|| + max|lgamma(x)| + 1.  Of
# tlog = (ln k! - sum ln k_j!) + sum k_j ln|z_j| - lgamma(x), the factorial
# part errs by under 13 ulps of ln k! (m + 1 values of math.lgamma, each
# within 2 ulps at the integers, and m roundings), the powers by under 5 ulps
# of k max|ln|z_j||, and lgamma(x) by under 16 ulps of |lgamma(x)| + 1: 7 of
# math.lgamma's own (against 40-digit mpmath at 40,000 arguments), and 2m as
# the Gamma argument x, a float sum of 2m roundings, moves lgamma(x) by at
# most m eps |x digamma(x)| < 2m eps (|lgamma(x)| + 1).  With the two final
# additions, exp and the band's fsum, that is under 18 ulps of L at m <= 4;
# 64 leaves a factor 3.5.
_BAND_ULPS = 64.0


def _term_rel_err(k: int, beta0: float, betas: tuple[float, ...], zs: tuple[float, ...]) -> float:
    """Bound on the relative error of exp(tlog) for every term of shell k:
    the Gamma arguments of the shell lie between beta0 + k min(betas) and
    beta0 + k max(betas), where |lgamma| is largest at an end, or below 1."""
    lgam = max(abs(math.lgamma(beta0 + k * b)) for b in (min(betas), max(betas)))
    lnz = max(abs(math.log(-z)) for z in zs)
    return _BAND_ULPS * _EPS * (math.lgamma(k + 1.0) + k * lnz + lgam + 1.0)


def _mp_plan(beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], rel_tol: float):
    """The shell cap and the peak guess of an extended-precision sum;
    AccuracyError, before any full shell is built, where the scan puts the
    first shell K below the first attempt's noise floor so far out that
    shells 0..K hold more than _MAX_SERIES_TERMS terms, C(K + m, m).

    The scan takes the largest log term (double precision) of geometrically
    spaced shells k up to the cap, each over the compositions of 16 scaled
    to k (running sums times k/16, rounded, differenced), all in one array;
    the summation itself re-verifies against the peak it actually saw."""
    m = len(betas)
    shell_cap = _MP_SHELL_CAPS[min(m, 3) - 1]
    lnz = [math.log(-z) for z in zs]
    ks = sorted({int(round(shell_cap ** (i / 59.0))) for i in range(60)} | {0, 1, shell_cap})
    grid = np.cumsum(_compositions(16, m), axis=1)
    scaled = np.rint(grid * (np.array(ks)[:, None, None] / 16.0)).astype(np.int64)
    comps = np.diff(scaled, axis=2, prepend=0).reshape(-1, m)
    peaks = _logs(comps, *_rows(beta0, betas, comps), lnz).reshape(len(ks), -1).max(axis=1).tolist()
    peak_guess = max(peaks)
    noise_guess = peak_guess - (_mp_digits(rel_tol, peak_guess) + 8) * _LN10
    reach = next(
        (k for k, ln in zip(ks, peaks) if ln + math.log(math.comb(k + m - 1, m - 1)) < noise_guess),
        shell_cap,
    )
    if (n_terms := math.comb(reach + m, m)) > _MAX_SERIES_TERMS:
        raise AccuracyError(
            f"mml(beta0={beta0}, betas={betas}, zs={zs}) needs about {n_terms} terms "
            f"(shells 0..{reach}) in extended precision, more than the "
            f"{_MAX_SERIES_TERMS} allowed"
        )
    return shell_cap, peak_guess


def _mml_mp(beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], rel_tol: float) -> float:
    """The extended-precision sum, retried at more digits until the peak
    magnitude it observed certifies the result to rel_tol."""
    from mpmath import libmp as lib  # loaded on first use: most runs never need it

    m = len(betas)
    rnd = lib.round_nearest
    label = f"mml(beta0={beta0}, betas={betas}, zs={zs})"
    shell_cap, peak_guess = _mp_plan(beta0, betas, zs, rel_tol)
    dps = _mp_digits(rel_tol, peak_guess) + 12
    if dps > _MAX_MP_DPS:
        raise AccuracyError(f"{label} needs ~{dps} digits; outside the series envelope")
    # every double is a dyadic rational, so with unit = 2**scale the Gamma
    # argument beta0 + sum beta_j k_j is exactly the integer key
    # key0 + sum bkey_j k_j over unit
    ratios = [b.as_integer_ratio() for b in (beta0, *betas)]
    scale = max(d.bit_length() - 1 for _, d in ratios)
    unit = 1 << scale
    key0, *bkeys = (n * (unit // d) for n, d in ratios)

    def summed(dps, prec):
        # the sum is one integer counting quanta 2**-fbits, 12 digits and 32
        # bits below the noise floor that the cut below keeps to
        fbits = math.ceil(((dps + 8) * _LN10 - peak_guess) / math.log(2.0)) + 32
        # a term is k!/(k_1! ... k_m!) prod z_j**k_j / Gamma(x): the factors
        # |z_j|**k_j / k_j! are tabulated per index as (man, exp), and
        # k! = kman * 2**kexp is kept to 64 bits more than prec
        mzs = [lib.from_float(-z) for z in zs]
        zlast, zpow = [lib.fone] * m, [[(1, 0)] for _ in range(m)]
        kman, kexp = 1, 0
        # per-call memo of 1/Gamma on the exact argument lattice, as raw libmp
        # values (sign, man, exp, bits); arguments are all positive, and the
        # nearest neighbour at n unit offsets, n <= _GAMMA_STEPS, serves a
        # miss by the recurrence 1/Gamma(x) = x (x+1) ... (x+n-1) / Gamma(x+n)
        # = 1/((x-n) ... (x-1) Gamma(x-n)), the product of the n factors an
        # exact integer over unit**n, applied with one rounding
        rgam: dict[int, tuple] = {}

        def rgamma(key: int) -> tuple:
            r = rgam.get(key)
            if r is not None:
                return r
            for n in range(1, _GAMMA_STEPS + 1):
                if (up := rgam.get(key + n * unit)) is not None:
                    man = up[1] * math.prod(range(key, key + n * unit, unit))
                    r = lib.normalize(0, man, up[2] - n * scale, man.bit_length(), prec, rnd)
                    break
                if (down := rgam.get(key - n * unit)) is not None:
                    den = lib.from_man_exp(math.prod(range(key - n * unit, key, unit)), -n * scale)
                    r = lib.mpf_div(down, den, prec, rnd)
                    break
            else:
                r = lib.mpf_rgamma(lib.from_man_exp(key, -scale), prec, rnd)
            rgam[key] = r
            return r

        total = 0
        peak_ln = -math.inf
        quiet = 0
        for k, (comps, logs) in enumerate(_shells(beta0, betas, zs, shell_cap)):
            if k:
                kman *= k
                if (drop := kman.bit_length() - prec - 64) > 0:
                    kman, kexp = kman >> drop, kexp + drop
                mk = lib.from_int(k)
                for j in range(m):
                    zlast[j] = lib.mpf_div(lib.mpf_mul(zlast[j], mzs[j], prec, rnd), mk, prec, rnd)
                    zpow[j].append(zlast[j][1:3])
            # double-precision log magnitudes decide which terms matter at
            # the working precision; only those are computed in mp
            shell_max_ln = max(logs)
            peak_ln = max(peak_ln, shell_max_ln)
            # terms below the working-precision noise floor (relative to the
            # largest term seen) cannot move the certified result; a tighter,
            # result-scale cut is unsafe because the partial sum overstates
            # the result by many decades during the cancellation plateau
            noise_ln = peak_ln - (dps - 4) * _LN10
            size_ln = math.log(len(logs))
            if shell_max_ln + size_ln < noise_ln:
                quiet += 1
                if quiet >= 2 and k >= 4:
                    return lib.from_man_exp(total, -fbits, prec, rnd), peak_ln
                continue
            quiet = 0
            # every term of shell k has the sign (-1)**k; the exact products
            # of their mantissas are summed in quanta 2**-(fbits + kbits), so
            # that times k! each has lost less than one quantum 2**-fbits
            kbits = kexp + kman.bit_length()
            shell = 0
            cut = noise_ln - size_ln - 8.0
            # a term in [cut, top) is summed as its double exp(tlog), which
            # errs by less than a dropped term (see _term_rel_err), so the
            # mass neglected per shell stays below 2 e**(noise_ln - 8); below
            # _LN_TINY, exp(tlog) would lose bits as a subnormal
            top = cut - math.log(_term_rel_err(k, beta0, betas, zs)) if cut > _LN_TINY else cut
            band = []
            for comp, tlog in zip(comps.tolist(), logs):
                if tlog < top:
                    if tlog >= cut:
                        band.append(tlog)
                    continue
                key, man, exp = key0, 1, fbits + kbits
                for bk, zj, kj in zip(bkeys, zpow, comp):
                    key += bk * kj
                    man *= zj[kj][0]
                    exp += zj[kj][1]
                _, rman, rexp, _ = rgamma(key)
                man *= rman
                exp += rexp
                shell += man << exp if exp >= 0 else man >> -exp
            shell = (shell * kman) >> kman.bit_length()
            shell += round(math.ldexp(math.fsum(map(math.exp, band)), fbits))
            total += -shell if k % 2 else shell
        raise AccuracyError(f"{label}: series did not converge")

    for _ in range(4):
        prec = lib.dps_to_prec(dps)
        total, peak_ln = summed(dps, prec)
        if total == lib.fzero:
            return 0.0
        # int(log10 |total|) as mpmath.log10 forms it: the ln of each side
        # at prec + 20 bits, their quotient rounded to prec, truncated
        wp = prec + 20
        ln_total, ln10 = (lib.mpf_log(x, wp, rnd) for x in (lib.mpf_abs(total), lib.from_int(10)))
        need = _mp_digits(rel_tol, peak_ln) + 8 - lib.to_int(lib.mpf_div(ln_total, ln10, prec, rnd))
        if need <= dps:
            return lib.to_float(total, rnd=rnd)
        if need > _MAX_MP_DPS:
            raise AccuracyError(f"{label} needs ~{need} digits")
        dps = need + 10
    raise AccuracyError(f"{label}: extended-precision retries exhausted")


def _mml_value(
    beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], rel_tol: float
) -> float:
    """The common entry of ml2 and mml.  It rejects a bad rel_tol, drops every
    zero argument (its pair keeps only the k_j = 0 terms, which are the series
    of the other arguments), and takes the closed forms: 1/Gamma(beta0) with
    no argument left and E_{1,1}(z) = exp(z).  Otherwise it returns the
    double-precision sum of at most _SHELL_CAP + 1 shells when that certifies
    itself, else the extended-precision one."""
    if not 0.0 < rel_tol < math.inf:
        raise DomainError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    live = [(b, z) for b, z in zip(betas, zs) if z != 0.0]
    if not live:
        return math.exp(-log_gamma(beta0))
    betas, zs = zip(*live)
    if betas == (1.0,) and beta0 == 1.0:
        # exact classical limit; the raw series cancels hopelessly for large |z|
        return math.exp(zs[0])
    m = len(betas)
    if math.comb(_SHELL_CAP + m, m) <= _MAX_SERIES_TERMS:
        value, peak_log, converged = _mml_double(beta0, betas, zs)
    else:
        # the double sum alone could take long: it runs past the cached
        # leading shells and the first shell after them, which confirms a
        # quiet last cached one, only after _mp_plan's scan finds it within
        # budget
        *_, starts = _leading_shells(log_gamma, beta0, betas)
        value, peak_log, converged = _mml_double(beta0, betas, zs, len(starts) - 1)
        if not converged:
            _mp_plan(beta0, betas, zs, rel_tol)
            value, peak_log, converged = _mml_double(beta0, betas, zs)
    if converged and _certified(value, peak_log, rel_tol):
        return value
    return _mml_mp(beta0, betas, zs, rel_tol)


def ml2(alpha: float, beta: float, z: float, *, rel_tol: float = 1e-10) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for z <= 0 and
    beta > 0: the multinomial series with the one argument (beta, z)."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0, 2), got {alpha}")
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    if not z <= 0.0:
        raise DomainError(f"only z <= 0 is supported, got {z}")
    if abs(z) > Z_MAX:
        raise DomainError(f"|z| = {abs(z)} exceeds Z_MAX = {Z_MAX}; series unreliable")
    return _mml_value(beta, (alpha,), (z,), rel_tol)


def mml(args: MLArgs, *, rel_tol: float = 1e-10) -> float:
    """Multinomial Mittag-Leffler function for non-positive real arguments.

    Double-precision k-shell summation over at most _SHELL_CAP + 1 shells
    with early stop once a whole shell contributes below 1e-16 of the partial
    sum; falls back to extended precision when the sum has not converged by
    then or the cancellation certificate fails.
    A zero argument's pair is dropped before any summing.
    """
    return _mml_value(args.beta0, args.betas, args.zs, rel_tol)

# ---------------------------------------------------------------------------
# relaxation kernels, series route
# ---------------------------------------------------------------------------


def _check_kernel_inputs(lam: float, t: float) -> None:
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lambda must be positive and finite, got {lam}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")


def _check_source_exponent(a: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"source exponent a must lie in [0, 1], got {a!r}")


def _series_args(lam: float, spec: OrderSpec, t: float, beta0: float) -> MLArgs:
    """The checked series arguments of the equation divided by the leading
    weight; MLArgs raises on an argument beyond Z_MAX."""
    _check_kernel_inputs(lam, t)
    an, rn = spec.alphas[-1], spec.weights[-1]
    betas = [an]
    zs = [-(lam / rn) * t**an]
    for ai, ri in zip(spec.alphas[:-1], spec.weights[:-1]):
        betas.append(an - ai)
        zs.append(-(ri / rn) * t ** (an - ai))
    return MLArgs(beta0, tuple(betas), tuple(zs))


def s1_kernel_series(lam: float, spec: OrderSpec, t: float, *, rel_tol: float = 1e-10) -> float:
    """Mode relaxation factor S1(t): response of a unit initial datum."""
    an = spec.alphas[-1]
    e = mml(_series_args(lam, spec, t, 1.0 + an), rel_tol=rel_tol)
    return 1.0 - (lam / spec.weights[-1]) * t**an * e


def s2_kernel_series(lam: float, spec: OrderSpec, t: float, *, rel_tol: float = 1e-10) -> float:
    """Impulse-response kernel S2(t) of the forced problem."""
    an = spec.alphas[-1]
    e = mml(_series_args(lam, spec, t, an), rel_tol=rel_tol)
    return t ** (an - 1.0) * e / spec.weights[-1]


def s2_kernel_int_series(
    lam: float, spec: OrderSpec, a: float, t: float, *, rel_tol: float = 1e-10
) -> float:
    """Convolution of S2 with the power-law factor s^a / Gamma(a+1).

    For a = 0 this is the running integral of S2.
    """
    _check_source_exponent(a)
    an = spec.alphas[-1]
    e = mml(_series_args(lam, spec, t, an + a + 1.0), rel_tol=rel_tol)
    return t ** (an + a) * e / spec.weights[-1]


# ---------------------------------------------------------------------------
# relaxation kernels, contour route
# ---------------------------------------------------------------------------

_RMAX_LOG = -math.log(1e-18)


def tight_contour(t: float, n_radial: int = 4000) -> ContourSpec:
    """Contour for oracle-grade agreement checks: theta = 5 pi / 6, delta =
    max(1, 1/t), radial truncation where exp(t r cos theta) falls below
    1e-18."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    theta = 5.0 * math.pi / 6.0
    delta = max(1.0, 1.0 / t)
    r_max = max(_RMAX_LOG / (t * abs(math.cos(theta))), 2.0 * delta)
    return ContourSpec(theta, delta, n_radial, r_max)


def _transform(spec: OrderSpec, a: float | None):
    """Numerator and denominator power terms (w, e), each side the sum of
    w p**e, of the transform numerator(p) / (lam + sum r_j p**alpha_j) of the
    kernel named by a: S1 for None, S2 convolved with s^a / Gamma(a+1) for a
    in [0, 1], bare S2 for -1 (the order-0 integral: (1, -a - 1) is (1, 0.0))."""
    den = tuple(zip(spec.weights, spec.alphas))
    if a is None:
        return tuple((r, alpha - 1.0) for r, alpha in den), den
    return ((1.0, -a - 1.0),), den


def _transform_at(spec: OrderSpec, p: float, a: float | None) -> tuple[float, float]:
    """The numerator and sum r_j p**alpha_j of _transform at a real p > 0."""
    return tuple(_power_sum(_at_nodes(terms, p)) for terms in _transform(spec, a))


def _at_nodes(terms, p: np.ndarray) -> list:
    """(w, e, p**e) of each power term; p**0 is the scalar 1.0, so S2's
    numerator costs no power."""
    return [(w, e, p**e if e else 1.0) for w, e in terms]


def _power_sum(node_terms, mu=1.0):
    """The sum of w (mu p)**e over the node terms of _at_nodes, in order,
    formed as (w mu**e) p**e: with mu a column of one scale per time, each
    time adds one real power per term to the shared node powers."""
    acc = 0.0
    for w, e, pe in node_terms:
        acc = acc + w * mu**e * pe
    return acc


def _polar_nodes(terms, radius, angle) -> list:
    """_at_nodes at p = radius e^(i angle), |angle| < pi, one of the two an
    array: p**e on the principal branch is radius**e e^(i e angle), a real
    power and a phase, which cost far less than a complex power."""
    return [(w, e, radius**e * np.exp(1j * e * angle) if e else 1.0) for w, e in terms]


def _contour_integral(lam, spec, t, contour, a) -> float:
    """Inverse Laplace transform at t of the kernel named by a (see _transform)."""
    numerator, denominator = _transform(spec, a)

    def integrand(p: np.ndarray, radius, angle) -> np.ndarray:
        den = lam + _power_sum(_polar_nodes(denominator, radius, angle))
        return np.exp(t * p) * _power_sum(_polar_nodes(numerator, radius, angle)) / den

    theta, delta, n, r_max = contour.theta, contour.delta, contour.n_radial, contour.r_max
    eith = complex(math.cos(theta), math.sin(theta))

    # outgoing ray, composite trapezoid on geometrically graded nodes;
    # the incoming ray is its conjugate, so the pair contributes Im(.)/pi
    r = delta * (r_max / delta) ** (np.arange(n + 1) / n)
    fray = integrand(r * eith, r, theta) * eith
    seg = 0.5 * (fray[1:] + fray[:-1]) * np.diff(r)
    ray_part = float(np.imag(np.sum(seg))) / math.pi

    # arc, midpoint rule on [0, theta] doubled by conjugate symmetry
    n_arc = max(64, 2 * n)
    phi = (np.arange(n_arc) + 0.5) * (theta / n_arc)
    eiphi = np.exp(1j * phi)
    garc = integrand(delta * eiphi, delta, phi) * eiphi
    arc_part = delta / math.pi * float(np.sum(np.real(garc))) * (theta / n_arc)

    total = ray_part + arc_part
    tail = abs(seg[-1]) / math.pi
    if tail > 1e-8 * max(abs(total), 1e-300):
        raise AccuracyError(
            f"contour truncation remainder {tail:.3e} exceeds 1e-8 of |result| "
            f"{abs(total):.3e}; enlarge r_max"
        )
    return total


def s1_kernel_contour(lam: float, spec: OrderSpec, t: float, contour: ContourSpec) -> float:
    """Contour quadrature of the S1 kernel (initial-datum response)."""
    _check_kernel_inputs(lam, t)
    return _contour_integral(lam, spec, t, contour, None)


def s2_kernel_contour(lam: float, spec: OrderSpec, t: float, contour: ContourSpec) -> float:
    """Contour quadrature of the S2 kernel (forcing response)."""
    _check_kernel_inputs(lam, t)
    return _contour_integral(lam, spec, t, contour, -1.0)


# ---------------------------------------------------------------------------
# relaxation kernels, hyperbola route
# ---------------------------------------------------------------------------

# fixed-t parameters of the hyperbola p(u) = mu (1 + sin(iu - alpha)) from
# Weideman & Trefethen, Math. Comp. 76 (2007): N = 20 trapezoid steps of
# h = 1.0818/N and mu = 4.4921 N / t; rounding grows like
# exp(mu t (1 - sin alpha)), so N stays small
_HYP_N = 20
_HYP_H = 1.0818 / _HYP_N
_HYP_MU_T = 4.4921 * _HYP_N
# iu - alpha at the nodes u = k h, k = 0..N
_HYP_W = 1j * _HYP_H * np.arange(_HYP_N + 1) - 1.1721
# p = mu q at every t, so t p = 4.4921 N q: the factor exp(t p) of the
# integrand and dp/du / (i mu) = cos(iu - alpha) are the same at every time
_HYP_Q = 1.0 + np.sin(_HYP_W)
_HYP_EXP_COS = np.exp(_HYP_MU_T * _HYP_Q) * np.cos(_HYP_W)
# times per vectorized pass: each (rows, N + 1) node array stays near 20 KB,
# so a long time grid does not raise the process's peak memory
_HYP_ROWS = 64


def _hyperbola_integral(lam, spec, t, a):
    """Inverse Laplace transform at t of the kernel named by a (see
    _transform) by the trapezoid rule on a hyperbola around the branch cut.

    t is a float (a float result) or a 1-d array of times (an array): each
    time is one row of nodes, summed along the row, so an array is a few
    vectorized passes and gives the scalar calls' values to the last bit.
    The nodes scale with 1/t, p = mu q, so a power term w p**e is
    (w mu**e) q**e: the node powers q**e are formed once per call, and with
    the time-free factor exp(t p) cos(iu - alpha) each time costs one real
    mu**e per term and complex multiply-adds over its row.  The transform
    is real on the real axis, so the nodes u >= 0 stand for the whole rule:
    the other half is their mirror image.  S1 and the S2 convolutions lie
    within 2.3e-12 of a Talbot inversion on the figure grid.  Bare S2 cancels:
    at lambda = 10 pi^2, orders (0.5, 0.7) and t = 0.8 it lies 1.3e-10 from a
    40-digit sum of the same rule; no CLI output reads it from here.
    """
    times = np.asarray(t, dtype=float)
    tcol = np.atleast_1d(times)[:, None]
    num_nodes, den_nodes = (_at_nodes(terms, _HYP_Q) for terms in _transform(spec, a))
    total = np.empty(len(tcol))
    for i in range(0, len(tcol), _HYP_ROWS):
        mu = _HYP_MU_T / tcol[i : i + _HYP_ROWS]
        # dp/du = i mu cos(iu - alpha); its factor i turns Im into Re
        f = _HYP_EXP_COS * _power_sum(num_nodes, mu) / (lam + _power_sum(den_nodes, mu))
        node_sum = np.real(np.sum(f, axis=1) - 0.5 * f[:, 0])
        total[i : i + _HYP_ROWS] = mu[:, 0] * _HYP_H / math.pi * node_sum
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        i = bad[0]
        raise AccuracyError(f"hyperbola quadrature at t={float(tcol[i, 0])} gave {float(total[i])}")
    return float(total[0]) if times.ndim == 0 else total
