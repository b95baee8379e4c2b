"""Multivariate Gaussian orthant probabilities Pr(X_i <= x_i for all i).

Two estimators over general PSD covariances (unit diagonal not assumed):

* :func:`orthant_mc` -- plain Monte Carlo over Cholesky-mixed standard
  normals; the slow, unbiased oracle.
* :func:`orthant_qmc` -- a separation-of-variables (sequential
  conditioning) transform integrated with randomly shifted rank-1
  lattice rules; the fast estimator, with a standard error taken across
  independent shifts. Queries that reduce to one or two coordinates are
  exact: ``ndtr`` in one, Owen's T form of the bivariate normal CDF in
  two. They report standard error 0 and 0 samples.

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
from .seeding import check_seed, derive_rng, indicator_hits

MAX_QMC_DIM = 12
# Lattice points over all rounds after which orthant_qmc stops short of
# its target and reports cap_hit.
DEFAULT_SAMPLE_CAP = 10**8
# Random shifts of every lattice round; the standard error is their spread.
MIN_SHIFTS = 12
# The shift spread cannot resolve an error below rounding: when a chain's
# conditional ndtr saturates, the shift means agree to the last bits. The
# reported standard error is at least this many ulps of the value.
SE_FLOOR_ULPS = 8

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
    (exact) branch, which :meth:`exact` builds. ``cap_hit`` records that
    an adaptive estimator stopped on its sample cap instead of the
    requested precision.
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

    @classmethod
    def exact(cls, value, seed: int) -> "Estimate":
        """An analytic value: no standard error and no samples."""
        return cls(value=float(value), std_error=0.0, samples=0, seed=seed)


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
    hits = indicator_hits(seed, "orthant_mc", samples, q.k,
                          lambda z: np.all(z @ factor.T <= q.limits, axis=1))
    return Estimate.binomial(hits, samples, seed)


# ---------------------------------------------------------------------------
# rank-1 lattice construction (fast component-by-component, prime sizes)
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to sqrt(n)."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def _prev_prime(n: int) -> int:
    if n < 2:
        raise ValueError("no prime below 2")
    while not _is_prime(n):
        n -= 1
    return n


def _next_prime(n: int) -> int:
    n = max(n, 2)
    while not _is_prime(n):
        n += 1
    return n


def _primitive_root(p: int) -> int:
    pm = p - 1
    # every prime factor of pm, or its cofactor, is at most sqrt(pm)
    factors = {d for f in range(1, math.isqrt(pm) + 1) if pm % f == 0
               for d in (f, pm // f) if _is_prime(d)}
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
        # perm[j] = g^j mod n, filled by doubling: g^(j + k) = g^j g^k,
        # each product below n^2 < 2^62 for n < 2^31
        perm = np.ones(m, dtype=np.int64)
        k = 1
        while k < m:
            perm[k:2 * k] = perm[:min(k, m - k)] * pow(g, k, n) % n
            k *= 2
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


def _bivariate_orthant(h: float, k: float, rho: float) -> float:
    """Pr(X <= h, Y <= k) for standard normals with correlation ``rho``,
    |rho| < 1, by Owen (1956): 1/2 Phi(h) + 1/2 Phi(k) - T(h, a_h)
    - T(k, a_k) - beta.

    The form is accurate in absolute, not relative, terms, so deep in the
    tail it can round below 0; the result is clipped to [0, 1].
    """
    s = math.sqrt((1.0 - rho) * (1.0 + rho))
    if h == 0.0 and k == 0.0:  # also -0.0
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    if h == 0.0 or k == 0.0:
        # limit of the form: T(0, +-inf) = +-1/4 cancels beta
        x = k if h == 0.0 else h
        v = 0.5 * special.ndtr(x) + special.owens_t(x, rho / s)
    else:
        beta = 0.5 if (h < 0.0) != (k < 0.0) else 0.0
        v = (0.5 * (special.ndtr(h) + special.ndtr(k))
             - special.owens_t(h, (k - rho * h) / h / s)
             - special.owens_t(k, (h - rho * k) / k / s) - beta)
    return min(max(float(v), 0.0), 1.0)


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
                            round_index: int = 0) -> tuple[np.ndarray, int]:
    """Per-shift lattice means for a fixed point budget, one for each of
    ``MIN_SHIFTS`` random shifts.

    The lattice and shift stream depend only on (dimension, points, seed,
    round_index), so two queries of equal dimension evaluated with the
    same arguments share all randomness -- the hook used by the coupled
    finite-difference comparisons.

    Analytic cases (a -inf limit, everything +inf, a single coordinate or
    two coordinates) return a constant vector of shift means and 0
    points. Two coordinates are standardised by their own variances, since
    a conditional covariance need not have a unit diagonal.
    """
    seed = check_seed(seed)
    if q.k > MAX_QMC_DIM:
        raise ValueError(f"QMC estimator supports dimension <= {MAX_QMC_DIM}")
    if np.any(q.limits == -np.inf):
        return np.zeros(MIN_SHIFTS), 0
    limits, cov = _reduce_query(q)
    if limits.size == 0:
        return np.ones(MIN_SHIFTS), 0
    if np.linalg.eigvalsh(cov)[0] < PD_TOL:
        raise SingularMatrix("covariance is singular after reduction; "
                             "QMC needs a strictly PD core")
    if limits.size == 2:
        (l0, l1), ((c00, c01), (_, c11)) = limits.tolist(), cov.tolist()
        v = _bivariate_orthant(l0 / math.sqrt(c00), l1 / math.sqrt(c11),
                               c01 / math.sqrt(c00 * c11))
        return np.full(MIN_SHIFTS, v), 0
    factor = np.linalg.cholesky(cov)
    if limits.size == 1:
        v = float(special.ndtr(limits[0] / factor[0, 0]))
        return np.full(MIN_SHIFTS, v), 0
    gen, n = _cbc_lattice(limits.size - 1, points)
    rng = derive_rng(seed, "orthant_qmc", round_index)
    shifts = rng.random((MIN_SHIFTS, limits.size - 1))
    return _chain_means(factor, limits, gen, n, shifts), n


def orthant_qmc(q: OrthantQuery, target_se: float, seed: int) -> Estimate:
    """Adaptive randomized-lattice estimate of the orthant probability.

    Doubles the lattice size until the shift-spread standard error drops
    to ``target_se`` or the cumulative point budget reaches
    ``DEFAULT_SAMPLE_CAP`` (reported via ``cap_hit``). The standard error
    is floored at ``SE_FLOOR_ULPS`` ulps of the value.
    """
    seed = check_seed(seed)
    if not target_se > 0.0:
        raise ValueError("target_se must be positive")
    n_pts = _QMC_START_POINTS
    total = 0
    round_index = 0
    while True:
        means, n_used = orthant_qmc_shift_means(q, n_pts, seed,
                                                round_index=round_index)
        if n_used == 0:
            return Estimate.exact(means[0], seed)
        total += n_used * MIN_SHIFTS
        value = float(means.mean())
        se = max(float(means.std(ddof=1) / np.sqrt(MIN_SHIFTS)),
                 SE_FLOOR_ULPS * float(np.finfo(float).eps) * abs(value))
        if se <= target_se or total >= DEFAULT_SAMPLE_CAP:
            return Estimate(value=float(np.clip(value, 0.0, 1.0)),
                            std_error=se, samples=n_used * MIN_SHIFTS,
                            seed=seed, cap_hit=bool(se > target_se))
        n_pts = _next_prime(2 * n_used)
        round_index += 1
