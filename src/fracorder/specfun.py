"""Special-function kernel layer.

Gamma, the two-parameter and multinomial Mittag-Leffler functions, and two
quadratures of the relaxation kernels' Laplace transforms that share no code
with the series: the arc-plus-rays contour kernels (s*_kernel_contour), the
independent cross-check of the series evaluations, and the Weideman-Trefethen
hyperbola (_hyperbola_integral), which serves every value of forward's "auto"
method.  The hyperbola takes a float or a 1-d array of times, and evaluates
an array in vectorized passes of up to _HYP_ROWS times, one row of nodes per
time.

There is one series: the multinomial one, summed shell by shell.  The
two-parameter function E_{alpha,beta}(z) is its one-argument case, and like
beta0 of the multinomial function it needs beta > 0, so every Gamma argument
of a term is positive.  Its arguments are reduced once, at the entry: mml
drops every pair with z_j = 0, so the sum only ever sees z_j < 0, and the
series kernels divide the equation by the leading weight themselves, so
they take any positive weights, as the contour and hyperbola routes do.

The series is summed with compensated (Kahan) accumulation and certifies
its own rounding envelope: the worst term magnitude is tracked
in log space, and when alternating-term cancellation would eat the requested
accuracy in double precision the evaluation transparently retries in bounded
extended precision.  When even that cannot be certified, or a coarse scan says
the sum would need more than _MAX_SERIES_TERMS terms, AccuracyError is raised
instead of silently returning garbage or summing for minutes.  The extended
sum is integer fixed point: the factors of each term (1/Gamma, z_j**k_j/k_j!,
k!) are mpmath mantissas, their exact product is shifted once into a running
Python integer that counts a fixed quantum far below the noise floor, and no
term costs an mpf multiply, add or normalization.  A shell's compositions and
the z-independent parts of its terms are built as numpy columns.

Every public function is a pure function of its arguments.  The one piece
of module state is a bounded LRU cache (_leading_shells) of the series
terms' z-independent parts (compositions, log coefficients, log-Gamma values)
for the leading shells per (beta0, betas), which only saves their rebuilding.
It needs no lock: lru_cache is thread-safe, and a cached table is never
written after it is built.  The rare extended-precision path serializes on a
lock because mpmath's precision is global.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from itertools import count, pairwise

import numpy as np

__all__ = [
    "Z_MAX",
    "DEFAULT_SHELL_CAP",
    "MAX_ML_TERMS",
    "DomainError",
    "AccuracyError",
    "OrderSpec",
    "MLArgs",
    "ContourSpec",
    "NormalizedSpec",
    "gamma",
    "log_gamma",
    "ml2",
    "mml",
    "normalize_spec",
    "s1_kernel_series",
    "s2_kernel_series",
    "s2_kernel_int_series",
    "s1_kernel_contour",
    "s2_kernel_contour",
    "s2_kernel_int_contour",
    "default_contour",
    "tight_contour",
]

# Series evaluation envelope: beyond this argument size the alternating series
# is never attempted, even in extended precision.
Z_MAX = 40.0
# Shell truncation of the multinomial series in the double-precision path;
# ml2 alone allows more shells.
DEFAULT_SHELL_CAP = 100
_ML2_SHELL_CAP = 400
# Cap on the number of Mittag-Leffler arguments (compositions blow up fast).
MAX_ML_TERMS = 4

_EPS = float(np.finfo(float).eps)
# Margin applied to the cancellation certificate: accounts for the relative
# error of terms assembled as exp(log-expressions) whose logs reach O(300).
_CERT_FACTOR = 400.0
_MAX_MP_DPS = 400
# Most terms an extended-precision sum may need (see _mp_plan)
_MAX_SERIES_TERMS = 500_000
_MP_LOCK = threading.Lock()
_LN10 = math.log(10.0)


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
        if not all(x > 0.0 for x in w):
            raise DomainError(f"weights must be positive, got {w}")

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
            if z > 0.0:
                raise DomainError(f"only non-positive arguments supported, got z={z}")
            if abs(z) > Z_MAX:
                raise DomainError(
                    f"|z| = {abs(z)} exceeds Z_MAX = {Z_MAX}; series unreliable"
                )

    @property
    def m(self) -> int:
        return len(self.betas)


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
        if self.n_radial < 16:
            raise DomainError(f"n_radial must be >= 16, got {self.n_radial}")
        if not self.r_max > self.delta:
            raise DomainError("r_max must exceed delta")


@dataclass(frozen=True)
class NormalizedSpec:
    """Result of dividing the evolution equation by the leading weight."""

    spec: OrderSpec
    lam: float
    kernel_scale: float


def normalize_spec(spec: OrderSpec, lam: float) -> NormalizedSpec:
    """Rescale so the leading weight is one.

    S1 is invariant under the joint map (lam, r) -> (lam/rN, r/rN); S2 picks
    up the factor kernel_scale = 1/rN.
    """
    rn = spec.weights[-1]
    scaled = OrderSpec(spec.alphas, tuple(w / rn for w in spec.weights))
    return NormalizedSpec(scaled, lam / rn, 1.0 / rn)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------


class _Kahan:
    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _certified(value: float, peak_log: float, rel_tol: float) -> bool:
    if value == 0.0 or not math.isfinite(value):
        return False
    lhs = peak_log + math.log(_EPS * _CERT_FACTOR)
    rhs = math.log(rel_tol * abs(value))
    return lhs <= rhs


def _compositions(k: int, m: int) -> np.ndarray:
    """All m-tuples of non-negative integers summing to k, lexicographic, as
    the rows of an int64 array."""
    if m == 1:
        return np.array([[k]], dtype=np.int64)
    head = np.arange(k + 1, dtype=np.int64)
    if m == 2:
        return np.column_stack([head, k - head])
    return np.vstack(
        [np.column_stack([np.full(math.comb(k - f + m - 2, m - 2), f), _compositions(k - f, m - 1)])
         for f in range(k + 1)]
    )


@dataclass(frozen=True)
class _Rows:
    """The part of some series terms that does not depend on z, for a run of
    consecutive shells, the i-th of which is rows starts[i]:starts[i + 1].
    Per row: the composition (k_1, ..., k_m), the log coefficient
    ln k! - sum ln k_j! and ln Gamma(beta0 + sum beta_j k_j)."""

    comps: np.ndarray
    coef: np.ndarray
    lg: np.ndarray
    starts: tuple[int, ...]

    @property
    def n_shells(self) -> int:
        return len(self.starts) - 1

    def run(self, a: int, b: int) -> _Rows:
        """The rows of the shells a..b-1 of this run."""
        lo, hi = self.starts[a], self.starts[b]
        starts = tuple(s - lo for s in self.starts[a : b + 1])
        return _Rows(self.comps[lo:hi], self.coef[lo:hi], self.lg[lo:hi], starts)


# Bounds of the cache of leading shells: at most _MEMO_TABLES (beta0, betas)
# pairs, each holding its shells 0, 1, ... while they total at most
# _MEMO_TERMS terms: 2048 shells at m = 1, 63 at m = 2, 22 at m = 3.  The
# fits reach shell 42 at most, 946 terms at m = 2; a three-order series can
# run to DEFAULT_SHELL_CAP, 176k terms, and past the table its shells are
# built per call and not kept.
_MEMO_TABLES = 16
_MEMO_TERMS = 2048


@functools.lru_cache(maxsize=_MEMO_TABLES)
def _leading_shells(gamma_fn, beta0: float, betas: tuple[float, ...]) -> _Rows:
    """The rows of the shells 0..n-1 of the series of (beta0, betas), for the
    largest n whose C(n - 1 + m, m) terms fit in _MEMO_TERMS, built in one
    pass.  gamma_fn is the module's log_gamma, which builds them; it is in the
    key so that a replaced Gamma routine never reads tables built by another."""
    m = len(betas)
    n = next(n for n in count() if math.comb(n + m, m) > _MEMO_TERMS)
    starts = tuple(math.comb(k - 1 + m, m) for k in range(n + 1))
    ks = np.repeat(np.arange(n, dtype=np.int64), np.diff(starts))
    comps = ks[:, None] if m == 1 else np.vstack([_compositions(k, m) for k in range(n)])
    rows = _ShellRows(beta0, betas).rows(ks, comps)
    for a in (comps, rows.coef, rows.lg):
        a.flags.writeable = False  # every caller shares them
    return _Rows(comps, rows.coef, rows.lg, starts)


class _ShellRows:
    """The parts of the terms of the multinomial series of (beta0, betas)
    that do not depend on z, built shell by shell through the module's
    log_gamma."""

    def __init__(self, beta0: float, betas: tuple[float, ...]) -> None:
        self.beta0, self.betas, self.m = beta0, betas, len(betas)
        # ln k! for k = 0, 1, ..., grown as the shells need it; ln 0! = 0
        # exactly, so a zero part of a composition changes no coefficient bit
        self.lnfact = np.zeros(1)

    def rows(self, k, comps: np.ndarray | None = None) -> _Rows:
        """The rows of the compositions comps of k (an int64 array, all of
        them by default), as one shell.  k may instead be the ascending int64
        array of each row's shell, for the rows of many shells in one pass;
        one shell reads its ln k! as a scalar."""
        comps = _compositions(k, self.m) if comps is None else comps
        # the multinomial log coefficient is assembled apart from the powers
        # so that at m = 1 it is exactly 0 (ln k! - ln k!, no table needed),
        # and the Gamma argument is the float sum: the small-t fits hinge on
        # the last bit of these values, so both are formed in j order
        coef, bsum = np.zeros(len(comps)), np.zeros(len(comps))
        if self.m > 1:
            top = int(k[-1]) if isinstance(k, np.ndarray) else k
            if len(self.lnfact) <= top:
                grown = [log_gamma(i + 1.0) for i in range(len(self.lnfact), top + 1)]
                self.lnfact = np.concatenate([self.lnfact, grown])
            coef += self.lnfact[k]
            for col in comps.T:
                coef -= self.lnfact[col]
        for b, col in zip(self.betas, comps.T):
            bsum += b * col
        lg = np.array([log_gamma(x) for x in (self.beta0 + bsum).tolist()])
        return _Rows(comps, coef, lg, (0, len(comps)))


class _ShellTerms(_ShellRows):
    """The terms of one multinomial series at z_j < 0, listed shell by shell.

    Shell k of sum_k sum_{|comp| = k} k!/(k_1! ... k_m!) prod z_j**k_j
    / Gamma(beta0 + sum beta_j k_j) holds one term per composition of k;
    the sign of every term in it is (-1)**k.  A term's log magnitude is
    (ln k! - sum ln k_j!) + sum k_j ln|z_j| - ln Gamma(beta0 + sum beta_j k_j):
    `rows` builds the parts that do not depend on z and `logs` adds this
    call's powers.  The leading shells' rows come from the cached table of
    _leading_shells.
    """

    def __init__(self, beta0: float, betas: tuple[float, ...], zs: tuple[float, ...]) -> None:
        super().__init__(beta0, betas)
        self.lnz = [math.log(-z) for z in zs]

    def logs(self, rows: _Rows) -> np.ndarray:
        """log |term| of each row at this call's z."""
        pow_log = np.zeros(len(rows.coef))
        for col, lz in zip(rows.comps.T, self.lnz):
            # k_j ln|z_j| added in j order, as a scalar sum would
            pow_log += col * lz
        return rows.coef + pow_log - rows.lg

    def _shells_from(self, k: int) -> _Rows:
        """Rows of shell k and maybe some after it.  The cached leading shells
        come in runs that double in length, since most sums stop well before
        the table ends; past it, shell k alone is built and not kept."""
        kept = _leading_shells(log_gamma, self.beta0, self.betas)
        if k < kept.n_shells:
            return kept.run(k, min(kept.n_shells, 2 * k + 8))
        return self.rows(k)

    def shells(self, kmax: int, with_comps: bool = False):
        """Shells 0..kmax in turn: the list of log |term| of each, or with
        with_comps the pair (compositions, logs), as lists.  The logs of a
        run of shells are formed in one pass."""
        k = 0
        while k <= kmax:
            rows = self._shells_from(k)
            flat = self.logs(rows).tolist()
            # without with_comps the sliced "compositions" are never yielded
            comps = rows.comps.tolist() if with_comps else flat
            for a, b in pairwise(rows.starts[: kmax + 2 - k]):
                yield (comps[a:b], flat[a:b]) if with_comps else flat[a:b]
            k += rows.n_shells


def _log_peak_scan(series: _ShellTerms, kcap: int) -> list[tuple[int, float]]:
    """Largest log term (double precision) of geometrically spaced shells up
    to kcap, each scanned over a coarse sample of its compositions: the pairs
    (k, largest sampled log term of shell k).

    Used to size the working precision of the extended path, and the work it
    would do, before summing; the summation itself re-verifies against the
    peak it actually saw.
    """
    m = series.m
    samples = []
    for k in sorted({int(round(kcap ** (i / 59.0))) for i in range(60)} | {0, 1, kcap}):
        if m == 1:
            comps = [(k,)]
        elif m == 2:
            comps = [(k1, k - k1) for k1 in sorted({round(k * i / 16.0) for i in range(17)})]
        else:
            # axes plus the even split; backed up by the in-pass check
            comps = [tuple(k if j == i else 0 for j in range(m)) for i in range(m)]
            comps.append(tuple(k // m for _ in range(m - 1)) + (k - (m - 1) * (k // m),))
        samples.append((k, float(series.logs(series.rows(k, np.array(comps))).max())))
    return samples


def _mml_double(beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], shell_cap: int):
    series = _ShellTerms(beta0, betas, zs)
    acc = _Kahan()
    peak_log = -math.inf
    quiet = 0
    for k, logs in enumerate(series.shells(shell_cap)):
        peak_log = max(peak_log, max(logs))
        if peak_log > 700.0:
            return math.nan, peak_log, False
        shell = math.fsum(map(math.exp, logs))
        acc.add(shell if k % 2 == 0 else -shell)
        if abs(shell) <= 1e-17 * max(abs(acc.s), 1e-300):
            quiet += 1
            if quiet >= 2:
                return acc.s, peak_log, True
        else:
            quiet = 0
    return acc.s, peak_log, False


def _mp_digits(rel_tol: float, peak_ln: float) -> int:
    """Digits for rel_tol plus those lost to cancellation from e**peak_ln."""
    return max(6, int(math.ceil(-math.log10(rel_tol)))) + max(0, int(peak_ln / _LN10) + 1)


def _mp_plan(beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], rel_tol: float):
    """The series, shell cap and peak guess of an extended-precision sum;
    AccuracyError, before any full shell is built, where the scan puts the
    first shell K below the first attempt's noise floor so far out that
    shells 0..K hold more than _MAX_SERIES_TERMS terms, C(K + m, m).  Few
    compositions are sampled per shell, so K runs low (terms by about 2x at
    m = 3)."""
    m = len(betas)
    shell_cap = 30000 if m == 1 else (2000 if m == 2 else 600)
    series = _ShellTerms(beta0, betas, zs)
    samples = _log_peak_scan(series, shell_cap)
    peak_guess = max(ln for _, ln in samples)
    noise_guess = peak_guess - (_mp_digits(rel_tol, peak_guess) + 8) * _LN10
    reach = next(
        (k for k, ln in samples if ln + math.log(math.comb(k + m - 1, m - 1)) < noise_guess),
        shell_cap,
    )
    if (n_terms := math.comb(reach + m, m)) > _MAX_SERIES_TERMS:
        raise AccuracyError(
            f"mml(beta0={beta0}, betas={betas}, zs={zs}) needs about {n_terms} terms "
            f"(shells 0..{reach}) in extended precision, more than the "
            f"{_MAX_SERIES_TERMS} allowed"
        )
    return series, shell_cap, peak_guess


def _mml_mp(beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], rel_tol: float) -> float:
    """The extended-precision sum, retried at more digits until the peak
    magnitude it observed certifies the result to rel_tol."""
    import mpmath  # loaded on first use: most runs never need it

    m = len(betas)
    label = f"mml(beta0={beta0}, betas={betas}, zs={zs})"
    series, shell_cap, peak_guess = _mp_plan(beta0, betas, zs, rel_tol)
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

    mp, lib = mpmath.mp, mpmath.libmp

    def summed(dps):
        # the sum is one integer counting quanta 2**-fbits, 12 digits and 32
        # bits below the noise floor that the cut below keeps to
        prec, rnd = mp.prec, lib.round_nearest
        fbits = math.ceil(((dps + 8) * _LN10 - peak_guess) / math.log(2.0)) + 32
        # a term is k!/(k_1! ... k_m!) prod z_j**k_j / Gamma(x): the factors
        # |z_j|**k_j / k_j! are tabulated per index as (man, exp), and
        # k! = kman * 2**kexp is kept to 64 bits more than prec
        mzs = [lib.from_float(-z) for z in zs]
        zlast, zpow = [lib.fone] * m, [[(1, 0)] for _ in range(m)]
        kman, kexp = 1, 0
        # per-call memo of 1/Gamma on the exact argument lattice, as raw libmp
        # values (sign, man, exp, bits); arguments are all positive, and a
        # neighbour at unit offset is served by the recurrence
        # 1/Gamma(x) = x/Gamma(x+1) = 1/((x-1) Gamma(x-1))
        rgam: dict[int, tuple] = {}

        def rgamma(key: int) -> tuple:
            r = rgam.get(key)
            if r is None:
                if (up := rgam.get(key + unit)) is not None:
                    man = up[1] * key  # x times up, rounded once as mpf_mul does
                    r = lib.normalize(0, man, up[2] - scale, man.bit_length(), prec, rnd)
                elif (down := rgam.get(key - unit)) is not None:
                    r = lib.mpf_div(down, lib.from_man_exp(key - unit, -scale), prec, rnd)
                else:
                    r = lib.mpf_rgamma(lib.from_man_exp(key, -scale), prec, rnd)
                rgam[key] = r
            return r

        total = 0
        peak_ln = -math.inf
        quiet = 0
        for k, (comps, logs) in enumerate(series.shells(shell_cap, with_comps=True)):
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
                    return mp.make_mpf(lib.from_man_exp(total, -fbits, prec, rnd)), peak_ln, True
                continue
            quiet = 0
            # every term of shell k has the sign (-1)**k; the exact products
            # of their mantissas are summed in quanta 2**-(fbits + kbits), so
            # that times k! each has lost less than one quantum 2**-fbits
            kbits = kexp + kman.bit_length()
            shell = 0
            cut = noise_ln - size_ln - 8.0
            for comp, tlog in zip(comps, logs):
                if tlog < cut:
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
            total += -shell if k % 2 else shell
        return mp.make_mpf(lib.from_man_exp(total, -fbits, prec, rnd)), peak_ln, False

    with _MP_LOCK:
        for _ in range(4):
            with mp.workdps(dps):
                total, peak_ln, converged = summed(dps)
                if not converged:
                    raise AccuracyError(f"{label}: series did not converge")
                if total == 0:
                    return 0.0
                need = _mp_digits(rel_tol, peak_ln) + 8 - int(mp.log10(abs(total)))
                if need <= dps:
                    return float(total)
            if need > _MAX_MP_DPS:
                raise AccuracyError(f"{label} needs ~{need} digits")
            dps = need + 10
    raise AccuracyError(f"{label}: extended-precision retries exhausted")


def _mml_value(
    beta0: float, betas: tuple[float, ...], zs: tuple[float, ...], rel_tol: float, shell_cap: int
) -> float:
    """The double-precision sum of at most shell_cap + 1 shells when it
    certifies itself, else the extended-precision one."""
    m = len(betas)
    if math.comb(shell_cap + m, m) > _MAX_SERIES_TERMS:
        _mp_plan(beta0, betas, zs, rel_tol)  # the double sum alone could take long
    value, peak_log, converged = _mml_double(beta0, betas, zs, shell_cap)
    if converged and _certified(value, peak_log, rel_tol):
        return value
    return _mml_mp(beta0, betas, zs, rel_tol)


def ml2(alpha: float, beta: float, z: float, *, rel_tol: float = 1e-10) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for z <= 0 and
    beta > 0: the multinomial series with the one argument (beta, z)."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie in (0, 2), got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if z > 0.0:
        raise DomainError(f"only z <= 0 is supported, got {z}")
    if abs(z) > Z_MAX:
        raise DomainError(f"|z| = {abs(z)} exceeds Z_MAX = {Z_MAX}; series unreliable")
    if z == 0.0:
        return math.exp(-log_gamma(beta))
    if alpha == 1.0 and beta == 1.0:
        # exact classical limit; the raw series cancels hopelessly for large |z|
        return math.exp(z)
    return _mml_value(beta, (alpha,), (z,), rel_tol, _ML2_SHELL_CAP)


def mml(args: MLArgs, *, rel_tol: float = 1e-10) -> float:
    """Multinomial Mittag-Leffler function for non-positive real arguments.

    Double-precision k-shell summation truncated at DEFAULT_SHELL_CAP with
    early stop once a whole shell contributes below 1e-16 of the partial sum;
    falls back to extended precision when the cancellation certificate fails.
    A zero argument keeps only the terms with k_j = 0, which are the series
    of the other arguments, so its pair is dropped before any summing.
    """
    live = [(b, z) for b, z in zip(args.betas, args.zs) if z != 0.0]
    if not live:
        return math.exp(-log_gamma(args.beta0))
    betas, zs = zip(*live)
    return _mml_value(args.beta0, betas, zs, rel_tol, DEFAULT_SHELL_CAP)

# ---------------------------------------------------------------------------
# relaxation kernels, series route
# ---------------------------------------------------------------------------


def _kernel_ml_args(lam: float, spec: OrderSpec, t: float, beta0: float) -> MLArgs:
    """The series arguments of the equation divided by the leading weight."""
    an, rn = spec.alphas[-1], spec.weights[-1]
    betas = [an]
    zs = [-(lam / rn) * t**an]
    for ai, ri in zip(spec.alphas[:-1], spec.weights[:-1]):
        betas.append(an - ai)
        zs.append(-(ri / rn) * t ** (an - ai))
    return MLArgs(beta0, tuple(betas), tuple(zs))


def _check_kernel_inputs(lam: float, t: float) -> None:
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")


def _check_source_exponent(a: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"a must lie in [0, 1], got {a}")


def _kernel_args(lam: float, spec: OrderSpec, t: float, a: float | None) -> MLArgs:
    """Checked series arguments of S1 (a is None) or of the convolution of S2
    with s^a / Gamma(a+1)."""
    if a is not None:
        _check_source_exponent(a)
    _check_kernel_inputs(lam, t)
    an = spec.alphas[-1]
    return _kernel_ml_args(lam, spec, t, 1.0 + an if a is None else an + a + 1.0)


def _kernel_from_ml(lam: float, spec: OrderSpec, t: float, a: float | None, e: float) -> float:
    """The kernel of _kernel_args from the value e of its Mittag-Leffler
    function."""
    an, rn = spec.alphas[-1], spec.weights[-1]
    if a is None:
        return 1.0 - (lam / rn) * t**an * e
    return t ** (an + a) * e / rn


def s1_kernel_series(lam: float, spec: OrderSpec, t: float, *, rel_tol: float = 1e-10) -> float:
    """Mode relaxation factor S1(t): response of a unit initial datum."""
    e = mml(_kernel_args(lam, spec, t, None), rel_tol=rel_tol)
    return _kernel_from_ml(lam, spec, t, None, e)


def s2_kernel_series(lam: float, spec: OrderSpec, t: float, *, rel_tol: float = 1e-10) -> float:
    """Impulse-response kernel S2(t) of the forced problem."""
    _check_kernel_inputs(lam, t)
    an = spec.alphas[-1]
    e = mml(_kernel_ml_args(lam, spec, t, an), rel_tol=rel_tol)
    return t ** (an - 1.0) * e / spec.weights[-1]


def s2_kernel_int_series(
    lam: float, spec: OrderSpec, a: float, t: float, *, rel_tol: float = 1e-10
) -> float:
    """Convolution of S2 with the power-law factor s^a / Gamma(a+1).

    For a = 0 this is the running integral of S2.
    """
    e = mml(_kernel_args(lam, spec, t, a), rel_tol=rel_tol)
    return _kernel_from_ml(lam, spec, t, a, e)


# ---------------------------------------------------------------------------
# relaxation kernels, contour route
# ---------------------------------------------------------------------------

_RMAX_LOG = -math.log(1e-18)


def default_contour(t: float) -> ContourSpec:
    """Desk-accuracy default: theta = 5 pi / 6, delta = max(1, 1/t), radial
    truncation where exp(t r cos theta) falls below 1e-18."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    theta = 5.0 * math.pi / 6.0
    delta = max(1.0, 1.0 / t)
    r_max = max(_RMAX_LOG / (t * abs(math.cos(theta))), 2.0 * delta)
    return ContourSpec(theta=theta, delta=delta, n_radial=400, r_max=r_max)


def tight_contour(t: float, n_radial: int = 4000) -> ContourSpec:
    """Refined contour for oracle-grade agreement checks."""
    base = default_contour(t)
    return ContourSpec(base.theta, base.delta, n_radial, base.r_max)


def _sum_powers(p: np.ndarray, spec: OrderSpec, shift: float) -> np.ndarray:
    acc = np.zeros_like(p)
    for ak, rk in zip(spec.alphas, spec.weights):
        acc = acc + rk * p ** (ak + shift)
    return acc


def _laplace_numerator(spec: OrderSpec, a: float | None):
    """Numerator of the Laplace transform of S1 (a is None) or of the
    convolution of S2 with s^a / Gamma(a+1); the denominator of both is
    lam + sum r p^alpha."""
    if a is None:
        return lambda p: _sum_powers(p, spec, -1.0)
    return lambda p: p ** (-a - 1.0)


def _contour_integral(lam, spec, t, contour, numerator) -> float:
    """Inverse Laplace transform at t of numerator(p) / (lam + sum r p^alpha)."""

    def integrand(p: np.ndarray) -> np.ndarray:
        den = lam + _sum_powers(p, spec, 0.0)
        return np.exp(t * p) * numerator(p) / den

    theta, delta, n, r_max = contour.theta, contour.delta, contour.n_radial, contour.r_max
    eith = complex(math.cos(theta), math.sin(theta))

    # outgoing ray, composite trapezoid on geometrically graded nodes;
    # the incoming ray is its conjugate, so the pair contributes Im(.)/pi
    r = delta * (r_max / delta) ** (np.arange(n + 1) / n)
    fray = integrand(r * eith) * eith
    seg = 0.5 * (fray[1:] + fray[:-1]) * np.diff(r)
    ray_part = float(np.imag(np.sum(seg))) / math.pi

    # arc, midpoint rule on [0, theta] doubled by conjugate symmetry
    n_arc = max(64, 2 * n)
    phi = (np.arange(n_arc) + 0.5) * (theta / n_arc)
    parc = delta * np.exp(1j * phi)
    garc = integrand(parc) * np.exp(1j * phi)
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
    return _contour_integral(lam, spec, t, contour, _laplace_numerator(spec, None))


def s2_kernel_contour(lam: float, spec: OrderSpec, t: float, contour: ContourSpec) -> float:
    """Contour quadrature of the S2 kernel (forcing response)."""
    _check_kernel_inputs(lam, t)
    return _contour_integral(lam, spec, t, contour, lambda p: 1.0)


def s2_kernel_int_contour(
    lam: float, spec: OrderSpec, a: float, t: float, contour: ContourSpec
) -> float:
    """Contour quadrature of the convolution of S2 with s^a / Gamma(a+1), the
    twin of s2_kernel_int_series."""
    _check_source_exponent(a)
    _check_kernel_inputs(lam, t)
    return _contour_integral(lam, spec, t, contour, _laplace_numerator(spec, a))


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
# times per vectorized pass: each (rows, N + 1) node array stays near 20 KB,
# so a long time grid does not raise the process's peak memory
_HYP_ROWS = 64


def _hyperbola_integral(lam, spec, t, numerator):
    """Inverse Laplace transform at t of numerator(p) / (lam + sum r p^alpha)
    by the trapezoid rule on a hyperbola around the branch cut.

    t is a float (a float result) or a 1-d array of times (an array): each
    time is one row of nodes, summed along the row, so an array is a few
    vectorized passes and gives the scalar calls' values to the last bit.
    The transform is real on the real axis, so the nodes u >= 0 stand for the
    whole rule: the other half is their mirror image.  About 1e-10 accurate
    for the relaxation kernels.
    """
    times = np.asarray(t, dtype=float)
    tcol = np.atleast_1d(times)[:, None]
    total = np.empty(len(tcol))
    for i in range(0, len(tcol), _HYP_ROWS):
        tb = tcol[i : i + _HYP_ROWS]
        mu = _HYP_MU_T / tb
        p = mu * (1.0 + np.sin(_HYP_W))
        den = lam + _sum_powers(p, spec, 0.0)
        # dp/du = i mu cos(iu - alpha); its factor i turns Im into Re
        f = np.exp(tb * p) * numerator(p) / den * np.cos(_HYP_W)
        node_sum = np.real(np.sum(f, axis=1) - 0.5 * f[:, 0])
        total[i : i + _HYP_ROWS] = mu[:, 0] * _HYP_H / math.pi * node_sum
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        i = bad[0]
        raise AccuracyError(f"hyperbola quadrature at t={float(tcol[i, 0])} gave {float(total[i])}")
    return float(total[0]) if times.ndim == 0 else total
