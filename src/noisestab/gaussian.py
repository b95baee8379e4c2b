"""Scalar Gaussian special functions and small dense correlation-matrix algebra.

Provides the standard normal CDF / density / quantile, the Gaussian
isoperimetric profile, the semigroup slope (e^{2t}-1)^{-1/2}, Cholesky
factors with PSD clamping, conditional (Schur) reductions of correlation
matrices, exponential-decay covariances on time grids, the loadings of
one-factor correlation matrices, and the structural matrix predicates
used by the inequality checks.

All operations are pure functions over immutable inputs; the domain type
is a frozen dataclass wrapping a read-only array, and Cholesky factors
are read-only arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Eigenvalues above -PSD_TOL are treated as numerically semidefinite and
# clamped to zero; anything below is a hard error.
PSD_TOL = 1e-10

# Strict positive definiteness threshold for operations that invert.
PD_TOL = 1e-12


class NotPositiveSemidefinite(ValueError):
    """Matrix has an eigenvalue below the semidefiniteness tolerance."""


class SingularMatrix(ValueError):
    """Matrix is numerically singular where strict definiteness is required."""


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def _check_symmetric(m, name: str = "matrix") -> np.ndarray:
    a = _as_square(m, name)
    scale = max(1.0, np.abs(a).max(initial=0.0))
    if not np.all(np.abs(a - a.T) <= 1e-12 * scale):
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (a + a.T)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# scalar special functions
# ---------------------------------------------------------------------------

def std_normal_cdf(z):
    """Standard normal CDF. Total on the extended reals, vectorized."""
    return special.ndtr(z)


def std_normal_pdf(z):
    """Standard normal density exp(-z^2/2)/sqrt(2*pi)."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p, out=None):
    """Inverse of the standard normal CDF (scipy's ``ndtri``).

    Returns -inf at 0 and +inf at 1; rejects NaN and p outside [0, 1].
    An array ``out`` (``p`` itself, say) receives and returns the values.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("quantile argument must lie in [0, 1]")
    z = special.ndtri(arr, out=out)
    return float(z) if arr.ndim == 0 else z


def isoperimetric_profile(x):
    """Gaussian isoperimetric profile: density evaluated at the quantile.

    Vanishes at 0 and 1, where the quantile is infinite, and is symmetric
    about 1/2. Rejects NaN and x outside [0, 1].
    """
    return std_normal_pdf(std_normal_quantile(x))


def semigroup_slope(t: float) -> float:
    """Slope (e^{2t}-1)^{-1/2} of the quantile-transformed heat flow on
    half-space indicators; also the gradient bound for general indicators.

    Strictly decreasing, diverges as t -> 0+ and vanishes as t -> inf.
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    return 1.0 / math.sqrt(math.expm1(2.0 * t))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric PSD matrix with unit diagonal.

    The constructor symmetrizes exactly, pins the diagonal to 1 (inputs
    must already be within 1e-8 of that; use :meth:`from_covariance` for
    the general rescaling) and records whether all entries are
    nonnegative, which is the hypothesis of the half-space bound.
    """
    entries: np.ndarray
    nonnegative: bool = field(init=False)

    def __post_init__(self):
        m = _check_symmetric(self.entries, name="correlation matrix")
        if m.shape[0] < 1:
            raise ValueError("correlation matrix must be at least 1x1")
        if not np.all(np.abs(np.diag(m) - 1.0) <= 1e-8):
            raise ValueError("correlation matrix must have unit diagonal "
                             "(use from_covariance to rescale)")
        np.fill_diagonal(m, 1.0)
        w = np.linalg.eigvalsh(m)
        if w[0] < -PSD_TOL:
            raise NotPositiveSemidefinite(
                f"minimum eigenvalue {w[0]:.3e} below -{PSD_TOL:.0e}")
        object.__setattr__(self, "entries", _readonly(m))
        object.__setattr__(self, "nonnegative", bool(np.all(m >= 0.0)))

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def is_strictly_pd(self) -> bool:
        return self.min_eigenvalue() > PD_TOL

    def one_factor(self) -> np.ndarray | None:
        """Loadings lambda with r_ij = lambda_i lambda_j for every i != j
        and 1 - lambda_i^2 > PD_TOL, lambda_i != 0, or None where there are
        none. Then X_i = lambda_i W + sqrt(1 - lambda_i^2) Z_i with W and
        the Z_i iid standard.

        A 2 x 2 matrix with 0 < |rho| < 1 takes (sqrt|rho|, sign(rho)
        sqrt|rho|). For k >= 3, lambda_i^2 = r_ij r_il / r_jl over the
        first two other indices j < l, the sign of lambda_i is that of
        r_1i (lambda_1 > 0), and every off-diagonal must agree with
        lambda_i lambda_j to 1e-12. The identity, a zero entry, and
        ``ou_covariance`` grids at k >= 3 (whose inner loadings are 1)
        have none.
        """
        m, k = self.entries, self.k
        off = ~np.eye(k, dtype=bool)
        if k < 2 or not np.all((m[off] != 0.0) & (np.abs(m[off]) < 1.0)):
            return None
        if k == 2:
            lam = math.sqrt(abs(m[0, 1]))
            loadings = np.array([lam, math.copysign(lam, m[0, 1])])
        else:
            square = np.empty(k)
            for i in range(k):
                j, l = [x for x in range(k) if x != i][:2]
                square[i] = m[i, j] * m[i, l] / m[j, l]
            if np.any(square <= 0.0):
                return None
            loadings = np.sqrt(square) * np.sign(m[0])
            if np.any(np.abs(np.outer(loadings, loadings) - m)[off] > 1e-12):
                return None
        if np.any(1.0 - loadings * loadings <= PD_TOL):
            return None
        return loadings

    @classmethod
    def from_covariance(cls, cov) -> "CorrelationMatrix":
        """Rescale a general PSD covariance to unit diagonal."""
        c = _check_symmetric(cov, name="covariance")
        d = np.diag(c)
        if np.any(d <= 0.0):
            raise ValueError("covariance diagonal must be positive to rescale")
        s = 1.0 / np.sqrt(d)
        return cls(c * np.outer(s, s))

    @classmethod
    def identity(cls, k: int) -> "CorrelationMatrix":
        return cls(np.eye(int(k)))

    @classmethod
    def equicorrelated(cls, k: int, rho: float) -> "CorrelationMatrix":
        k = int(k)
        m = np.full((k, k), float(rho))
        np.fill_diagonal(m, 1.0)
        return cls(m)


# ---------------------------------------------------------------------------
# matrix operations
# ---------------------------------------------------------------------------

def cholesky(m) -> np.ndarray:
    """Lower-triangular factor Q, QQ^T = m, of a symmetric PSD matrix, as
    a read-only array.

    Strictly PD inputs go straight to the standard factorization.
    Semidefinite inputs (eigenvalues in [-PSD_TOL, ~0]) are clamped and
    factored with a 1e-13 diagonal jitter, so the reconstruction error
    stays far below PSD_TOL. Eigenvalues below -PSD_TOL raise.
    """
    a = _check_symmetric(m)
    try:
        return _readonly(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(a)
    if w[0] < -PSD_TOL:
        raise NotPositiveSemidefinite(
            f"minimum eigenvalue {w[0]:.3e} below -{PSD_TOL:.0e}")
    w = np.clip(w, 0.0, None)
    a2 = (v * w) @ v.T
    a2 = 0.5 * (a2 + a2.T) + 1e-13 * np.eye(a.shape[0])
    return _readonly(np.linalg.cholesky(a2))


def conditional_reduction(cov, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Conditional-mean coefficients and conditional covariance of a
    general-diagonal Gaussian covariance given coordinate ``i``.

    Returns (coef, reduced): conditioned on X_i = x, the remaining
    coordinates have mean x*coef and covariance ``reduced`` (the Schur
    complement). For a strictly PD input, reduced^{-1} equals the inverse
    of ``cov`` with row and column i deleted.
    """
    c = _as_square(cov, "covariance")
    k = c.shape[0]
    if not 0 <= i < k:
        raise IndexError(f"index {i} out of range for dimension {k}")
    vii = c[i, i]
    if vii <= 0.0:
        raise SingularMatrix("conditioning coordinate has nonpositive variance")
    keep = [j for j in range(k) if j != i]
    col = c[keep, i]
    coef = col / vii
    reduced = c[np.ix_(keep, keep)] - np.outer(col, col) / vii
    return coef, 0.5 * (reduced + reduced.T)


def ou_covariance(times) -> CorrelationMatrix:
    """Correlation matrix exp(-|t_i - t_j|) of a stationary exponential-decay
    process observed on a strictly increasing time grid."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("times must be a nonempty 1-d sequence")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("times must be strictly increasing")
    return CorrelationMatrix(np.exp(-np.abs(t[:, None] - t[None, :])))


def inverse_offdiag_nonpositive(m: CorrelationMatrix) -> bool:
    """True iff every off-diagonal entry of the inverse is <= 1e-10.

    This is the conditional-positive-correlation hypothesis; entrywise
    nonnegativity of the matrix itself is the other hypothesis, and
    neither implies the other.
    """
    if not m.is_strictly_pd():
        raise SingularMatrix("correlation matrix is numerically singular")
    inv = np.linalg.inv(m.entries)
    off = inv[~np.eye(m.k, dtype=bool)]
    return bool(off.size == 0 or off.max() <= 1e-10)


def laplacian_quadratic_form(a, v) -> float:
    """Quadratic form of a zero-row-sum matrix via its pair decomposition.

    For a with a_ii = -sum_{j!=i} a_ij, returns
    -sum_{i<j} a_ij (v_i - v_j)^2, which equals v^T a v. The all-ones
    vector is always in the kernel. A row sum above 1e-10 times the
    largest entry (or 1e-10, if larger) raises.
    """
    am = _as_square(a, "matrix")
    vv = np.asarray(v, dtype=float)
    k = am.shape[0]
    if vv.shape != (k,):
        raise ValueError(f"vector length {vv.shape} does not match matrix {k}")
    row_resid = np.abs(am.sum(axis=1))
    if np.any(row_resid > 1e-10 * max(1.0, np.abs(am).max())):
        raise ValueError(f"row sums must vanish (max residual {row_resid.max():.3e})")
    iu, ju = np.triu_indices(k, 1)
    diff = vv[iu] - vv[ju]
    return float(-np.sum(am[iu, ju] * diff * diff))
