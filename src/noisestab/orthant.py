"""Multivariate Gaussian orthant probabilities Pr(X_i <= x_i for all i).

Two estimators over general PSD covariances (unit diagonal not assumed):

* :func:`orthant_mc` -- plain Monte Carlo over Cholesky-mixed standard
  normals; the slow, unbiased oracle.
* :func:`orthant_qmc` -- a separation-of-variables (sequential
  conditioning) transform integrated with randomly shifted rank-1
  lattice rules; the fast estimator, with a standard error taken across
  independent shifts.

Both are bit-for-bit reproducible for a fixed (query, sample size, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .gaussian import PD_TOL, PSD_TOL, SingularMatrix, _check_symmetric, _readonly, \
    cholesky, std_normal_quantile
from .seeding import batches, check_seed, derive_rng

MAX_QMC_DIM = 12
DEFAULT_SAMPLE_CAP = 10**8
MIN_SHIFTS = 12

_QMC_START_POINTS = 1021  # prime


@dataclass(frozen=True, eq=False)
class OrthantQuery:
    """Upper limits (extended reals allowed) and a PSD covariance."""
    limits: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        lim = np.asarray(self.limits, dtype=float)
        if lim.ndim != 1 or lim.size < 1:
            raise ValueError("limits must be a nonempty vector")
        if np.any(np.isnan(lim)):
            raise ValueError("limits may not be NaN")
        c = _check_symmetric(self.cov, name="covariance")
        if c.shape[0] != lim.size:
            raise ValueError(f"limits length {lim.size} does not match "
                             f"covariance dimension {c.shape[0]}")
        if np.linalg.eigvalsh(c)[0] < -PSD_TOL:
            raise SingularMatrix("covariance is not positive semidefinite")
        object.__setattr__(self, "limits", _readonly(lim))
        object.__setattr__(self, "cov", _readonly(c))

    @property
    def k(self) -> int:
        return self.limits.size


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo value with its standard error and provenance.

    ``samples == 0`` together with ``std_error == 0`` marks an analytic
    (exact) branch. ``cap_hit`` records that an adaptive estimator stopped
    on its sample cap instead of the requested precision.
    """
    value: float
    std_error: float
    samples: int
    seed: int
    cap_hit: bool = False

    @classmethod
    def binomial(cls, hits, samples: int, seed: int) -> "Estimate":
        """Frequency of ``hits`` in ``samples`` draws with its binomial
        standard error."""
        value = hits / samples
        se = math.sqrt(max(value * (1.0 - value), 0.0) / samples)
        return cls(value=float(value), std_error=se, samples=int(samples),
                   seed=seed)


def bivariate_orthant_closed(rho: float) -> float:
    """Closed-form Pr(X <= 0, Y <= 0) = 1/4 + arcsin(rho)/(2*pi).

    Test oracle only; never used inside the estimators.
    """
    r = float(rho)
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {r}")
    return 0.25 + np.arcsin(r) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# plain Monte Carlo
# ---------------------------------------------------------------------------

def orthant_mc(q: OrthantQuery, samples: int, seed: int) -> Estimate:
    """Indicator average over Cholesky-mixed standard normal draws.

    Singular covariances are fine: the factor samples on the supported
    subspace. Standard error is the binomial one.
    """
    seed = check_seed(seed)
    factor = cholesky(q.cov)
    rng = derive_rng(seed, "orthant_mc", 0)
    hits = 0
    for _, n in batches(samples):
        z = rng.standard_normal((n, q.k))
        hits += int(np.all(z @ factor.T <= q.limits, axis=1).sum())
    return Estimate.binomial(hits, samples, seed)


# ---------------------------------------------------------------------------
# rank-1 lattice construction (fast component-by-component, prime sizes)
# ---------------------------------------------------------------------------

def _primes_up_to(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0]


def _prev_prime(n: int) -> int:
    if n < 2:
        raise ValueError("no prime below 2")
    primes = _primes_up_to(n)
    return int(primes[-1])


def _next_prime(n: int) -> int:
    m = max(n, 2)
    while True:
        primes = _primes_up_to(2 * m)
        bigger = primes[primes >= n]
        if bigger.size:
            return int(bigger[0])
        m *= 2


def _primitive_root(p: int) -> int:
    pm = p - 1
    factors = []
    m = pm
    for f in _primes_up_to(int(m**0.5) + 1):
        if m % f == 0:
            factors.append(int(f))
            while m % f == 0:
                m //= f
    if m != 1:
        factors.append(int(m))
    r = 2
    while True:
        if all(pow(r, pm // f, p) != 1 for f in factors):
            return r
        r += 1


@lru_cache(maxsize=64)
def _cbc_lattice(dim: int, n_target: int) -> tuple[np.ndarray, int]:
    """Generating vector (as fractions) for a rank-1 lattice of prime size.

    Fast CBC construction minimizing a weighted shift-invariant kernel;
    the target size is rounded down to the nearest prime.
    """
    n = _prev_prime(max(int(n_target), 3))
    z = np.ones(dim, dtype=np.int64)
    if dim > 1:
        gamma = np.hstack([1.0, 0.8 ** np.arange(dim - 1)])
        m = (n - 1) // 2
        g = _primitive_root(n)
        perm = np.ones(m, dtype=np.int64)
        for j in range(m - 1):
            perm[j + 1] = (g * perm[j]) % n
        perm = np.minimum(n - perm, perm)
        pn = perm / n
        c = pn * pn - pn + 1.0 / 6.0
        fc = np.fft.fft(c)
        q = np.ones(m)
        w = 0
        for s in range(1, dim):
            reordered = np.hstack([c[: w + 1][::-1], c[w + 1: m][::-1]])
            q = q * (1.0 + gamma[s - 1] * reordered)
            w = int(np.fft.ifft(fc * np.fft.fft(q)).real.argmin())
            z[s] = perm[w]
    frac = _readonly(z / n)
    return frac, n


# ---------------------------------------------------------------------------
# sequential-conditioning QMC
# ---------------------------------------------------------------------------

def _reduce_query(q: OrthantQuery):
    """Drop +inf coordinates and sort the rest by limit ascending."""
    finite = q.limits < np.inf
    limits = q.limits[finite]
    cov = q.cov[np.ix_(finite, finite)]
    order = np.argsort(limits, kind="stable")
    return limits[order], cov[np.ix_(order, order)]


def _chain_means(factor: np.ndarray, limits: np.ndarray, gen: np.ndarray,
                 n_points: int, shifts: np.ndarray) -> np.ndarray:
    """Per-shift means of the sequential-conditioning integrand."""
    k = limits.size
    idx = np.arange(1, n_points + 1, dtype=float)
    means = np.empty(shifts.shape[0])
    d0 = special.ndtr(limits[0] / factor[0, 0])
    for b, shift in enumerate(shifts):
        y = np.empty((k - 1, n_points))
        pv = np.full(n_points, d0)
        d = pv.copy()
        for i in range(1, k):
            z = gen[i - 1] * idx + shift[i - 1]
            z -= np.floor(z)
            u = np.abs(2.0 * z - 1.0)  # tent periodization
            y[i - 1] = std_normal_quantile(np.clip(u * d, 1e-300, 1.0 - 1e-16))
            s = factor[i, :i] @ y[:i]
            d = special.ndtr((limits[i] - s) / factor[i, i])
            pv *= d
        means[b] = pv.mean()
    return means


def orthant_qmc_shift_means(q: OrthantQuery, points: int, seed: int,
                            n_shifts: int = MIN_SHIFTS,
                            round_index: int = 0) -> tuple[np.ndarray, int]:
    """Per-shift lattice means for a fixed point budget.

    The lattice and shift stream depend only on (dimension, points, seed,
    round_index, n_shifts), so two queries of equal dimension evaluated
    with the same arguments share all randomness -- the hook used by the
    coupled finite-difference comparisons.

    Analytic cases (a -inf limit, everything +inf, or a single
    coordinate) return a constant vector of shift means and 0 points.
    """
    seed = check_seed(seed)
    if n_shifts < MIN_SHIFTS:
        raise ValueError(f"need at least {MIN_SHIFTS} randomized shifts")
    if q.k > MAX_QMC_DIM:
        raise ValueError(f"QMC estimator supports dimension <= {MAX_QMC_DIM}")
    if np.any(q.limits == -np.inf):
        return np.zeros(n_shifts), 0
    limits, cov = _reduce_query(q)
    if limits.size == 0:
        return np.ones(n_shifts), 0
    if np.linalg.eigvalsh(cov)[0] < PD_TOL:
        raise SingularMatrix("covariance is singular after reduction; "
                             "QMC needs a strictly PD core")
    factor = np.linalg.cholesky(cov)
    if limits.size == 1:
        v = float(special.ndtr(limits[0] / factor[0, 0]))
        return np.full(n_shifts, v), 0
    gen, n = _cbc_lattice(limits.size - 1, points)
    rng = derive_rng(seed, "orthant_qmc", round_index)
    shifts = rng.random((n_shifts, limits.size - 1))
    return _chain_means(factor, limits, gen, n, shifts), n


def orthant_qmc(q: OrthantQuery, target_se: float, seed: int,
                n_shifts: int = MIN_SHIFTS,
                sample_cap: int = DEFAULT_SAMPLE_CAP) -> Estimate:
    """Adaptive randomized-lattice estimate of the orthant probability.

    Doubles the lattice size until the shift-spread standard error drops
    to ``target_se`` or the cumulative point budget exceeds
    ``sample_cap`` (reported via ``cap_hit``).
    """
    seed = check_seed(seed)
    if not target_se > 0.0:
        raise ValueError("target_se must be positive")
    n_pts = _QMC_START_POINTS
    total = 0
    round_index = 0
    while True:
        means, n_used = orthant_qmc_shift_means(q, n_pts, seed,
                                                n_shifts=n_shifts,
                                                round_index=round_index)
        if n_used == 0:
            return Estimate(value=float(means[0]), std_error=0.0,
                            samples=0, seed=seed)
        total += n_used * n_shifts
        value = float(means.mean())
        se = float(means.std(ddof=1) / np.sqrt(n_shifts))
        if se <= target_se or total >= sample_cap:
            return Estimate(value=float(np.clip(value, 0.0, 1.0)),
                            std_error=se, samples=n_used * n_shifts,
                            seed=seed, cap_hit=bool(se > target_se))
        n_pts = _next_prime(2 * n_used)
        round_index += 1
