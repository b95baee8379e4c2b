"""Continuous-time values of the OU scans for balls centred at the origin.

The radius R_t = |X_t| of an n-dimensional stationary OU process is a
1-d diffusion on [0, inf) with generator (psi f')' / psi, psi(r) =
r^{n-1} e^{-r^2/2}, and stationary law the chi law with n degrees of
freedom. A path stays in the ball of radius rho exactly while R stays
below rho, so the ball's survival and the occupation of a concentric
ball solve one 1-d problem on [0, rho], killed at rho.

It is solved by finite volumes: cells uniform on each piece between 0
and the radii, each of mass the exact chi mass of the cell, fluxes
psi (u_{i+1} - u_i) / (c_{i+1} - c_i) between the cell centres c_i,
no flux at 0 and u = 0 at rho. With D = diag(sqrt(mass)) the generator
L is D^-1 B D with B symmetric tridiagonal, B = V diag(lam) V^T
(``scipy.linalg.eigh_tridiagonal``), so from the stationary start

    survival(tau)  = sum_k p_k^2 e^{tau lam_k},
    occupation(tau) = sum_k p_k q_k (e^{tau lam_k} - 1) / lam_k,

with p = V^T D 1 and q = V^T D 1{r < rho_2}. Only the ``_MODES`` slowest
modes are kept in the e^{tau lam} terms, whose others are below e^{-200}
for tau >= 0.01; the -1 / lam part of the occupation is the whole sum
-(D 1)^T B^-1 (D 1{r < rho_2}), one banded solve. The scheme is second
order, so each value is Richardson-extrapolated from ``nodes`` cells and
half as many. At the default 2,000 nodes the values agree with 8,000
nodes to about 1e-9.

This is a test-side oracle: the package keeps ``scipy.linalg`` out of its
import, and this module imports it at the top.
"""
import math

import numpy as np
from scipy import linalg, special

NODES = 2000
_MODES = 64


def _chain(radii, counts, n):
    """(centres, sqrt(mass), diag, off) of the symmetrised chain on the
    cells of [0, radii[-1]], ``counts[j]`` uniform cells between
    radii[j - 1] (0 for j = 0) and radii[j]."""
    faces = np.concatenate([[0.0]] + [
        np.linspace(a, b, k + 1)[1:]
        for a, b, k in zip((0.0, *radii[:-1]), radii, counts)])
    centres = 0.5 * (faces[1:] + faces[:-1])
    mass = np.diff(special.gammainc(0.5 * n, 0.5 * faces ** 2))
    psi = (faces[1:] ** (n - 1) * np.exp(-0.5 * faces[1:] ** 2)
           / (2.0 ** (0.5 * n - 1.0) * special.gamma(0.5 * n)))
    # the flux coefficient of each cell's outer face; the last is the
    # absorbing boundary, half a cell from its centre
    flux = psi / np.diff(np.append(centres, faces[-1]))
    diag = -(np.append(0.0, flux[:-1]) + flux) / mass
    off = flux[:-1] / np.sqrt(mass[:-1] * mass[1:])
    return centres, np.sqrt(mass), diag, off


def _value(radii, counts, n, tau, inner):
    centres, root, diag, off = _chain(radii, counts, n)
    size = len(root)
    modes = min(_MODES, size)
    lam, vec = linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(size - modes, size - 1),
        lapack_driver="stemr")
    p = vec.T @ root
    if inner is None:
        return float(p ** 2 @ np.exp(tau * lam))
    target = root * (centres < inner)
    banded = np.zeros((3, size))
    banded[0, 1:], banded[1], banded[2, :-1] = off, diag, off
    solved = linalg.solve_banded((1, 1), banded, target)
    return float((p * (vec.T @ target)) @ (np.exp(tau * lam) / lam)
                 - root @ solved)


def _extrapolated(radii, weights, n, tau, inner, nodes):
    half = [round(0.5 * nodes * w) for w in weights]
    half[-1] = nodes // 2 - sum(half[:-1])
    coarse = _value(radii, half, n, tau, inner)
    fine = _value(radii, [2 * k for k in half], n, tau, inner)
    return (4.0 * fine - coarse) / 3.0


def ball_survival(radius, tau, n=2, nodes=NODES):
    """Pr(|X_t| < ``radius`` for all t in [0, tau]) for the stationary
    n-dimensional OU process."""
    return _extrapolated([radius], [1.0], n, tau, None, nodes)


def ball_occupation(outer, inner, tau, n=2, nodes=NODES):
    """E int_0^{min(tau, T)} 1{|X_t| < ``inner``} dt, T the first exit
    from the ball of radius ``outer`` > ``inner``: the occupation of
    concentric balls. ``inner`` is a cell face."""
    if not 0.0 < inner < outer:
        raise ValueError("the inner radius must lie in (0, outer)")
    return _extrapolated([inner, outer], [inner / outer, 1.0 - inner / outer],
                         n, tau, inner, nodes)


def measure_radius(p, n=2):
    """The radius of the centred ball of Gaussian measure ``p``."""
    return math.sqrt(2.0 * special.gammaincinv(0.5 * n, p))
