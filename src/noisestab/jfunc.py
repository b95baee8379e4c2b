"""The Gaussian stability functional J and its derivative calculus.

J(x; M) is the probability that a correlated standard Gaussian vector
falls below the coordinatewise quantiles of x. Its gradient is a reduced
orthant probability under the conditional (Schur) covariance; second
derivatives reduce to the nonnegative pair interactions

    J_ij = I(x_i) * d/dy_j K(y; reduced covariance at i),

from which the Hadamard-weighted Hessian assembles exactly as

    M (.) H_J = D A D,   D = diag(1 / I(x_i)),

where A has offdiagonal m_ij * J_ij and zero row sums. With nonnegative
m_ij this is negative semidefinite by construction (diagonal dominance),
so the estimator certifies the stability inequality's Hessian condition
with the statistical content confined to the J_ij values themselves.
``hadamard_hessian`` computes only those; the value and the gradient
(``j_value``, ``j_grad``) serve the half-space bound and its error
propagation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    CorrelationMatrix,
    SingularMatrix,
    _readonly,
    conditional_reduction,
    isoperimetric_profile,
    std_normal_pdf,
    std_normal_quantile,
)
from .orthant import Estimate, OrthantQuery, orthant_qmc
from .seeding import check_seed, subseed

# 1/I(x) diverges at the endpoints; derivatives are restricted to this band.
DERIV_LO = 1e-6
DERIV_HI = 1.0 - 1e-6


@dataclass(frozen=True, eq=False)
class JQuery:
    """Coordinates x in [0,1]^k paired with a correlation matrix."""
    x: np.ndarray
    m: CorrelationMatrix

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size != self.m.k:
            raise ValueError(f"x must be a vector of length {self.m.k}")
        if np.any(np.isnan(x)) or np.any((x < 0.0) | (x > 1.0)):
            raise ValueError("x must lie in [0, 1]")
        object.__setattr__(self, "x", _readonly(x))

    @property
    def k(self) -> int:
        return self.x.size

    def interior(self) -> bool:
        return bool(np.all((self.x >= DERIV_LO) & (self.x <= DERIV_HI)))


@dataclass(frozen=True, eq=False)
class JEvaluation:
    """Pair interactions and the Hessian data assembled from them.

    ``mixed`` holds the pair interactions J_ij (zero diagonal), not the
    raw second derivatives; ``a_matrix`` is the zero-row-sum coupling
    matrix m_ij * J_ij; ``hadamard_hessian`` is stored as the exact
    congruence D A D with D = diag(iota), so the factorization identity
    holds by construction. Every statistical entry carries a first-order
    propagated standard error. ``cap_hit``: some pair interaction's QMC
    run stopped on its cap.
    """
    m: CorrelationMatrix
    mixed: np.ndarray
    mixed_se: np.ndarray
    a_matrix: np.ndarray
    iota: np.ndarray
    hadamard_hessian: np.ndarray
    hessian_se: np.ndarray
    cap_hit: bool


@dataclass(frozen=True)
class KernelDiagnostic:
    """Spectral check of the coupling matrix: the near-zero eigenvalue
    should align with the all-ones direction and the rest stay negative.

    ``applicable`` is False when some offdiagonal coupling is not
    strictly positive, in which case the kernel need not be simple.
    """
    applicable: bool
    zero_eigenvalue_gap: float
    kernel_alignment: float


def _require_interior(q: JQuery):
    if not q.interior():
        raise ValueError(
            f"derivatives need x in [{DERIV_LO:g}, {DERIV_HI:g}]^k")


def _require_strict_pd(q: JQuery):
    if not q.m.is_strictly_pd():
        raise SingularMatrix("correlation matrix must be strictly positive "
                             "definite for derivative work")


def j_value(q: JQuery, target_se: float, seed: int) -> Estimate:
    """J(x; M): orthant probability at the coordinatewise quantiles.

    Exact at the boundary: any x_i = 0 gives 0 and any x_i = 1 reduces
    the dimension.
    """
    limits = std_normal_quantile(q.x)
    return orthant_qmc(OrthantQuery(limits, q.m.entries), target_se, seed)


def _reduced_system(q: JQuery, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Limits and covariance of the conditional system behind d_i J;
    callers have checked that the matrix is strictly PD."""
    z = std_normal_quantile(q.x)
    coef, reduced = conditional_reduction(q.m.entries, i)
    return np.delete(z, i) - coef * z[i], reduced


def j_grad(q: JQuery, i: int, target_se: float, seed: int) -> Estimate:
    """dJ/dx_i: the (k-1)-dimensional orthant probability of the
    conditional system at coordinate i."""
    _require_interior(q)
    _require_strict_pd(q)
    if not 0 <= i < q.k:
        raise IndexError(f"index {i} out of range for dimension {q.k}")
    if q.k == 1:
        return Estimate(value=1.0, std_error=0.0, samples=0,
                        seed=check_seed(seed))
    limits, cov = _reduced_system(q, i)
    return orthant_qmc(OrthantQuery(limits, cov), target_se, seed)


def _pair_interaction(q: JQuery, i: int, j: int, target_se: float,
                      seed: int) -> Estimate:
    """J_ij: profile factor times the conditional-density-weighted
    (k-2)-dimensional orthant probability. Nonnegative by construction.

    Evaluated literally in the stated (i, j) order -- condition on i,
    differentiate the limit of j -- so that comparing against the
    swapped order is a genuine numerical check of the symmetry identity.
    """
    _require_interior(q)
    _require_strict_pd(q)
    if i == j:
        raise ValueError("pair interaction needs distinct indices")
    limits, cov = _reduced_system(q, i)
    pos = j - 1 if j > i else j
    var = cov[pos, pos]
    if var <= 0.0:
        raise SingularMatrix("conditional variance vanished")
    sigma = np.sqrt(var)
    dens = std_normal_pdf(limits[pos] / sigma) / sigma
    coef = isoperimetric_profile(q.x[i]) * dens
    if q.k == 2:
        return Estimate(value=float(coef), std_error=0.0, samples=0,
                        seed=check_seed(seed))
    coef_row, reduced = conditional_reduction(cov, pos)
    inner_limits = np.delete(limits, pos) - coef_row * limits[pos]
    inner_target = float(np.clip(target_se / max(coef, 1e-12), 1e-8, 0.5))
    inner = orthant_qmc(OrthantQuery(inner_limits, reduced), inner_target, seed)
    return Estimate(value=float(coef * inner.value),
                    std_error=float(coef * inner.std_error),
                    samples=inner.samples, seed=inner.seed,
                    cap_hit=inner.cap_hit)


def j_mixed_second(q: JQuery, i: int, j: int, target_se: float,
                   seed: int) -> Estimate:
    """Mixed second derivative d^2 J / dx_i dx_j = J_ij / (I(x_i) I(x_j))."""
    pair = _pair_interaction(q, i, j, target_se, seed)
    scale = 1.0 / (isoperimetric_profile(q.x[i]) * isoperimetric_profile(q.x[j]))
    return Estimate(value=pair.value * scale,
                    std_error=pair.std_error * scale,
                    samples=pair.samples, seed=pair.seed, cap_hit=pair.cap_hit)


def j_diag_second(q: JQuery, i: int, target_se: float, seed: int) -> Estimate:
    """Repeated second derivative
    d^2 J / dx_i^2 = -(1/I(x_i)^2) * sum_{j!=i} m_ij J_ij."""
    _require_interior(q)
    _require_strict_pd(q)
    if not 0 <= i < q.k:
        raise IndexError(f"index {i} out of range for dimension {q.k}")
    total = 0.0
    var = 0.0
    samples = 0
    cap_hit = False
    for j in range(q.k):
        if j == i:
            continue
        mij = q.m.entries[i, j]
        if mij == 0.0:
            continue
        pair = _pair_interaction(q, i, j, target_se,
                                 subseed(seed, "diag", i, j))
        total += mij * pair.value
        var += (mij * pair.std_error) ** 2
        samples += pair.samples
        cap_hit |= pair.cap_hit
    scale = 1.0 / isoperimetric_profile(q.x[i]) ** 2
    return Estimate(value=-scale * total, std_error=scale * np.sqrt(var),
                    samples=samples, seed=check_seed(seed), cap_hit=cap_hit)


def hadamard_hessian(q: JQuery, target_se: float, seed: int) -> JEvaluation:
    """Pair interactions, coupling matrix and the Hadamard-weighted
    Hessian D A D: everything the negativity certificate reads.

    Every J_ij is computed once and shared between the mixed and the
    repeated second derivatives, so the stored factorization holds
    exactly rather than statistically.
    """
    _require_interior(q)
    _require_strict_pd(q)
    if not q.m.nonnegative:
        raise ValueError("the Hessian negativity certificate needs an "
                         "entrywise-nonnegative correlation matrix")
    # k = 2 makes no QMC query and _pair_interaction clips the inner
    # target, so no query downstream would reject a bad target_se
    if not target_se > 0.0:
        raise ValueError("target_se must be positive")
    seed = check_seed(seed)
    k = q.k

    cap_hit = False
    mixed = np.zeros((k, k))
    mixed_se = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            pair = _pair_interaction(q, i, j, target_se,
                                     subseed(seed, "pair", i, j))
            mixed[i, j] = mixed[j, i] = pair.value
            mixed_se[i, j] = mixed_se[j, i] = pair.std_error
            cap_hit |= pair.cap_hit

    a = q.m.entries * mixed
    a_var = (q.m.entries * mixed_se) ** 2
    for i in range(k):
        a[i, i] = -np.sum(np.delete(a[i], i))
        a_var[i, i] = np.sum(np.delete(a_var[i], i))

    iota = 1.0 / isoperimetric_profile(q.x)
    hess = iota[:, None] * a * iota[None, :]
    # grouped so that the standard errors are exactly symmetric
    hess_se = np.sqrt(a_var) * (iota[:, None] * iota[None, :])

    return JEvaluation(
        m=q.m, mixed=_readonly(mixed), mixed_se=_readonly(mixed_se),
        a_matrix=_readonly(a), iota=_readonly(iota),
        hadamard_hessian=_readonly(hess), hessian_se=_readonly(hess_se),
        cap_hit=cap_hit,
    )


def hessian_top_eigenvalue(ev: JEvaluation) -> tuple[float, float]:
    """Largest eigenvalue of the weighted Hessian with a first-order
    propagated standard error.

    Writing the form in pair coordinates, the sensitivity of the top
    eigenvalue to J_pq is -m_pq (w_p - w_q)^2 with w the iota-weighted
    top eigenvector, so the error combines the pair standard errors.
    """
    w_eig, vecs = np.linalg.eigh(ev.hadamard_hessian)
    lam = float(w_eig[-1])
    v = vecs[:, -1]
    wvec = ev.iota * v
    k = wvec.size
    var = 0.0
    for p in range(k):
        for qq in range(p + 1, k):
            sens = ev.m.entries[p, qq] * (wvec[p] - wvec[qq]) ** 2
            var += (sens * ev.mixed_se[p, qq]) ** 2
    return lam, float(np.sqrt(var))


def kernel_diagnostic(ev: JEvaluation) -> KernelDiagnostic:
    """Check that the coupling matrix has the expected kernel structure.

    Applicable only when every offdiagonal coupling is strictly
    positive; reports the magnitude of the second-largest eigenvalue
    (the spectral gap below the structural zero) and the cosine between
    the top eigenvector and the all-ones direction.
    """
    a = np.asarray(ev.a_matrix)
    k = a.shape[0]
    off = a[~np.eye(k, dtype=bool)]
    if np.any(off <= 0.0):
        return KernelDiagnostic(applicable=False,
                                zero_eigenvalue_gap=float("nan"),
                                kernel_alignment=float("nan"))
    w_eig, vecs = np.linalg.eigh(a)
    gap = float(abs(w_eig[-2])) if k > 1 else 0.0
    v = vecs[:, -1]
    ones = np.ones(k) / np.sqrt(k)
    return KernelDiagnostic(applicable=True,
                            zero_eigenvalue_gap=gap,
                            kernel_alignment=float(abs(v @ ones)))
