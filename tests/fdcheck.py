"""Coupled finite-difference oracles for the stability functional.

Every stencil evaluation reuses the same lattice, the same randomized
shifts, and the same evaluation order (guaranteed by well-separated
coordinates), so differences of the per-shift means estimate the
derivative integrand directly instead of amplifying independent noise
by 1/h. The standard error comes from the spread of the per-shift
differences.
"""
import numpy as np

from noisestab.gaussian import std_normal_quantile
from noisestab.orthant import OrthantQuery, orthant_qmc_shift_means

FD_POINTS = 8191


def _shift_means(x, m, points, seed):
    q = OrthantQuery(std_normal_quantile(np.asarray(x, dtype=float)),
                     m.entries)
    means, _ = orthant_qmc_shift_means(q, points, seed)
    return means


def _summary(per_shift):
    return float(per_shift.mean()), float(per_shift.std(ddof=1) / np.sqrt(per_shift.size))


def fd_grad(x, m, i, seed, h=1e-4, points=FD_POINTS):
    xp = np.array(x, dtype=float)
    xm = xp.copy()
    xp[i] += h
    xm[i] -= h
    d = (_shift_means(xp, m, points, seed) - _shift_means(xm, m, points, seed)) / (2.0 * h)
    return _summary(d)


def fd_mixed(x, m, i, j, seed, h=1e-3, points=FD_POINTS):
    acc = None
    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        xx = np.array(x, dtype=float)
        xx[i] += si * h
        xx[j] += sj * h
        term = si * sj * _shift_means(xx, m, points, seed)
        acc = term if acc is None else acc + term
    return _summary(acc / (4.0 * h * h))


def fd_diag(x, m, i, seed, h=1e-3, points=FD_POINTS):
    xp = np.array(x, dtype=float)
    xm = xp.copy()
    xp[i] += h
    xm[i] -= h
    d = (_shift_means(xp, m, points, seed)
         - 2.0 * _shift_means(np.asarray(x, dtype=float), m, points, seed)
         + _shift_means(xm, m, points, seed)) / (h * h)
    return _summary(d)


def second_derivative(ev, i, j):
    """d^2 J / dx_i dx_j and its standard error, read off a
    ``JEvaluation``: iota_i iota_j J_ij off the diagonal, the weighted
    Hessian's entry on it (m_ii = 1)."""
    if i == j:
        return float(ev.hadamard_hessian[i, i]), float(ev.hessian_se[i, i])
    scale = ev.iota[i] * ev.iota[j]
    return float(scale * ev.mixed[i, j]), float(scale * ev.mixed_se[i, j])


def agrees(closed_value, closed_se, fd_value, fd_se,
           rel=1e-3, band_ses=3.0) -> bool:
    scale = max(abs(closed_value), abs(fd_value))
    tol = rel * scale + band_ses * np.hypot(closed_se, fd_se)
    return abs(closed_value - fd_value) <= tol
