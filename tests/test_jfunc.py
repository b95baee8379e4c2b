import dataclasses
import math

import numpy as np
import pytest

import fdcheck
from conftest import random_interior_x, random_nonneg_correlation
from noisestab import (
    CorrelationMatrix,
    JQuery,
    hadamard_hessian,
    hessian_top_eigenvalue,
    isoperimetric_profile,
    j_grad,
    j_value,
    kernel_diagnostic,
    laplacian_quadratic_form,
    ou_covariance,
)
import noisestab.jfunc as jfunc
from noisestab.jfunc import _pair_interaction


def biv(rho):
    return CorrelationMatrix.equicorrelated(2, rho)


class TestValue:
    def test_independence_product(self):
        est = j_value(JQuery([0.3, 0.7], CorrelationMatrix.identity(2)),
                      1e-5, 1)
        assert abs(est.value - 0.21) <= 1e-9

    def test_arcsine_third(self):
        est = j_value(JQuery([0.5, 0.5], biv(0.5)), 1e-5, 2)
        assert abs(est.value - 1.0 / 3.0) <= max(3 * est.std_error, 1e-4)

    def test_marginal_collapse(self):
        for rho in (0.2, 0.8):
            est = j_value(JQuery([0.37, 1.0], biv(rho)), 1e-5, 3)
            assert abs(est.value - 0.37) <= 1e-9

    def test_zero_coordinate_kills(self):
        est = j_value(JQuery([0.0, 0.9], biv(0.5)), 1e-5, 4)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_rejects_outside_unit_cube(self):
        with pytest.raises(ValueError):
            JQuery([0.5, 1.2], biv(0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            JQuery([0.5, 0.5, 0.5], biv(0.5))

    def test_reproducible(self):
        q = JQuery([0.4, 0.6], biv(0.3))
        assert j_value(q, 1e-5, 7) == j_value(q, 1e-5, 7)


class TestGrad:
    def test_symmetric_half(self):
        # limit (quantile(1/2) - rho*quantile(1/2)) = 0 under any variance
        for rho in (-0.6, 0.0, 0.3, 0.9):
            est = j_grad(JQuery([0.5, 0.5], biv(rho)), 0, 1e-5, 1)
            assert abs(est.value - 0.5) <= 1e-12

    def test_identity_product_rule(self):
        q = JQuery([0.3, 0.6, 0.8], CorrelationMatrix.identity(3))
        est = j_grad(q, 0, 1e-5, 2)
        assert abs(est.value - 0.6 * 0.8) <= 1e-9

    def test_one_dimensional(self):
        est = j_grad(JQuery([0.4], CorrelationMatrix.identity(1)), 0, 1e-5, 3)
        assert est.value == 1.0

    def test_matches_finite_difference(self):
        m = ou_covariance([0.0, 0.45, 1.1])
        x = np.array([0.35, 0.62, 0.48])
        q = JQuery(x, m)
        for i in range(3):
            cf = j_grad(q, i, 1e-5, 40 + i)
            fd, fd_se = fdcheck.fd_grad(x, m, i, 140 + i)
            assert fdcheck.agrees(cf.value, cf.std_error, fd, fd_se)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            j_grad(JQuery([0.5, 1.0], biv(0.2)), 0, 1e-5, 1)

    def test_rejects_bad_index(self):
        with pytest.raises(IndexError):
            j_grad(JQuery([0.5, 0.5], biv(0.2)), 5, 1e-5, 1)


def second(q, i, j, target_se, seed):
    """d^2 J / dx_i dx_j and its standard error off one evaluation."""
    return fdcheck.second_derivative(hadamard_hessian(q, target_se, seed), i, j)


def swapped_pair(q, i, j, target_se, seed):
    """The pair interaction in the stated (i, j) order, scaled to the
    mixed second derivative iota_i iota_j J_ij, with its standard error."""
    pair = _pair_interaction(q, i, j, target_se, seed)
    iota = 1.0 / isoperimetric_profile(q.x)
    scale = iota[i] * iota[j]
    return pair.value * scale, pair.std_error * scale


class TestMixedSecond:
    def test_independent_unit(self):
        value, _ = second(JQuery([0.5, 0.5], biv(0.0)), 0, 1, 1e-5, 1)
        assert abs(value - 1.0) <= 1e-12

    def test_half_correlation(self):
        value, _ = second(JQuery([0.5, 0.5], biv(0.5)), 0, 1, 1e-5, 2)
        assert abs(value - 1.0 / math.sqrt(0.75)) <= 1e-12

    def test_swap_symmetric_exact_case(self):
        # k = 3 inner systems are one-dimensional, hence analytic: the
        # i<->j identity shows up as a pure float agreement
        m = ou_covariance([0.0, 0.4, 1.1])
        q = JQuery([0.3, 0.6, 0.45], m)
        a, a_se = swapped_pair(q, 0, 2, 1e-5, 3)
        b, b_se = swapped_pair(q, 2, 0, 1e-5, 4)
        assert a_se == 0.0 and b_se == 0.0
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_swap_symmetric_statistical_case(self):
        # the inner orthant of a pair has k - 2 coordinates: exact up to
        # two (k = 4), a QMC estimate with a standard error from three
        for k in (4, 5):
            rng = np.random.default_rng(31)
            m = random_nonneg_correlation(rng, k)
            q = JQuery(random_interior_x(rng, k), m)
            a, a_se = swapped_pair(q, 1, 3, 2e-5, 5)
            b, b_se = swapped_pair(q, 3, 1, 2e-5, 6)
            assert (a_se > 0.0 and b_se > 0.0) == (k == 5)
            comb = max(np.hypot(a_se, b_se), 1e-9)
            assert abs(a - b) <= max(3 * comb, 1e-3 * abs(a))

    def test_matches_finite_difference(self):
        m = ou_covariance([0.0, 0.5, 1.2])
        x = np.array([0.4, 0.65, 0.3])
        cf, cf_se = second(JQuery(x, m), 0, 1, 1e-5, 7)
        fd, fd_se = fdcheck.fd_mixed(x, m, 0, 1, 207)
        assert fdcheck.agrees(cf, cf_se, fd, fd_se)

    def test_nonnegative_under_nonneg_matrix(self):
        rng = np.random.default_rng(32)
        for trial in range(5):
            m = random_nonneg_correlation(rng, 3)
            q = JQuery(random_interior_x(rng, 3), m)
            est = _pair_interaction(q, 0, 2, 1e-5, trial)
            assert est.value >= 0.0


class TestDiagSecond:
    def test_independence_zero(self):
        value, _ = second(JQuery([0.3, 0.7], CorrelationMatrix.identity(2)),
                          0, 0, 1e-5, 1)
        assert value == 0.0

    def test_half_correlation(self):
        value, _ = second(JQuery([0.5, 0.5], biv(0.5)), 0, 0, 1e-5, 2)
        assert abs(value - (-0.5 / math.sqrt(0.75))) <= 1e-12

    def test_matches_finite_difference(self):
        m = ou_covariance([0.0, 0.5, 1.2])
        x = np.array([0.4, 0.65, 0.3])
        ev = hadamard_hessian(JQuery(x, m), 1e-5, 10)
        for i in range(3):
            cf, cf_se = fdcheck.second_derivative(ev, i, i)
            fd, fd_se = fdcheck.fd_diag(x, m, i, 210 + i)
            assert fdcheck.agrees(cf, cf_se, fd, fd_se)


class TestHadamardHessian:
    def test_identity_matrix_is_zero(self):
        ev = hadamard_hessian(JQuery([0.3, 0.7], CorrelationMatrix.identity(2)),
                              1e-5, 1)
        assert np.array_equal(ev.a_matrix, np.zeros((2, 2)))
        assert np.array_equal(ev.hadamard_hessian, np.zeros((2, 2)))

    def test_factorization_is_stored_identity(self):
        m = ou_covariance([0.0, 0.6, 1.3])
        ev = hadamard_hessian(JQuery([0.35, 0.5, 0.7], m), 1e-5, 2)
        rebuilt = ev.iota[:, None] * ev.a_matrix * ev.iota[None, :]
        assert np.array_equal(ev.hadamard_hessian, rebuilt)

    def test_zero_row_sums_same_grouping(self):
        m = ou_covariance([0.0, 0.6, 1.3])
        ev = hadamard_hessian(JQuery([0.35, 0.5, 0.7], m), 1e-5, 3)
        for i in range(3):
            off = np.sum(np.delete(ev.a_matrix[i], i))
            assert ev.a_matrix[i, i] + off == 0.0

    def test_all_ones_kernel(self):
        m = ou_covariance([0.0, 0.6, 1.3])
        ev = hadamard_hessian(JQuery([0.35, 0.5, 0.7], m), 1e-5, 4)
        assert laplacian_quadratic_form(ev.a_matrix, np.ones(3)) == 0.0

    def test_mixed_symmetric(self):
        m = random_nonneg_correlation(np.random.default_rng(33), 4)
        ev = hadamard_hessian(JQuery([0.3, 0.5, 0.6, 0.75], m), 1e-4, 5)
        assert np.array_equal(ev.mixed, ev.mixed.T)
        assert np.array_equal(ev.hessian_se, ev.hessian_se.T)

    def test_negative_semidefinite_sweep(self):
        rng = np.random.default_rng(34)
        for trial in range(10):
            k = int(rng.integers(2, 5))
            m = random_nonneg_correlation(rng, k)
            q = JQuery(random_interior_x(rng, k), m)
            ev = hadamard_hessian(q, 1e-4, 100 + trial)
            lam, lam_se = hessian_top_eigenvalue(ev)
            assert lam <= 1e-6 + 3 * lam_se
            assert abs(np.linalg.eigvalsh(ev.hadamard_hessian)[-1] - lam) <= 1e-12

    def test_matches_finite_difference_hessian(self):
        # every entry: hessian = m_ij * d2J/dx_i dx_j from coupled stencils;
        # the pair interactions are exact at k = 3 and QMC estimates with
        # a standard error at k = 5
        rng = np.random.default_rng(36)
        m5 = random_nonneg_correlation(rng, 5)
        cases = [(ou_covariance([0.0, 0.55, 1.15]),
                  np.array([0.45, 0.7, 0.25]), 6, 300),
                 (m5, random_interior_x(rng, 5), 7, 400)]
        for m, x, seed, fd_seed in cases:
            k = x.size
            ev = hadamard_hessian(JQuery(x, m), 1e-5, seed)
            off = ~np.eye(k, dtype=bool)
            assert np.all(ev.mixed_se[off] > 0.0) == (k == 5)
            for i in range(k):
                fd, se = fdcheck.fd_diag(x, m, i, fd_seed + i)
                assert fdcheck.agrees(ev.hadamard_hessian[i, i],
                                      ev.hessian_se[i, i], fd, se)
                for j in range(i + 1, k):
                    fd, se = fdcheck.fd_mixed(x, m, i, j,
                                              fd_seed + 10 + k * i + j)
                    w = m.entries[i, j]
                    assert fdcheck.agrees(ev.hadamard_hessian[i, j],
                                          ev.hessian_se[i, j], w * fd, w * se)

    def test_rejects_negative_entries(self):
        m = CorrelationMatrix([[1.0, -0.3], [-0.3, 1.0]])
        with pytest.raises(ValueError):
            hadamard_hessian(JQuery([0.5, 0.5], m), 1e-4, 1)

    def test_rejects_boundary_x(self):
        with pytest.raises(ValueError):
            hadamard_hessian(JQuery([0.5, 1.0], biv(0.5)), 1e-4, 1)


class TestKernelDiagnostic:
    def test_two_point(self):
        ev = hadamard_hessian(JQuery([0.5, 0.5], biv(0.5)), 1e-5, 1)
        diag = kernel_diagnostic(ev)
        assert diag.applicable
        assert diag.kernel_alignment >= 1.0 - 1e-12
        assert diag.zero_eigenvalue_gap > 0.0

    def test_ou_alignment(self):
        m = ou_covariance([0.0, 0.5, 1.0])
        ev = hadamard_hessian(JQuery([0.5, 0.5, 0.5], m), 1e-5, 2)
        diag = kernel_diagnostic(ev)
        assert diag.applicable
        assert diag.kernel_alignment >= 1.0 - 1e-6

    def test_inapplicable_with_zero_coupling(self):
        ev = hadamard_hessian(JQuery([0.4, 0.6], CorrelationMatrix.identity(2)),
                              1e-5, 3)
        diag = kernel_diagnostic(ev)
        assert not diag.applicable
        assert math.isnan(diag.kernel_alignment)


class TestSymmetryAndBoundary:
    def test_permutation_exact(self):
        # distinct coordinates: the limit-sorted transform is permutation
        # canonical, so seed-matched values agree bit for bit
        m = ou_covariance([0.0, 0.5, 1.0])
        x = np.array([0.3, 0.55, 0.8])
        perm = [2, 0, 1]
        mp = CorrelationMatrix(m.entries[np.ix_(perm, perm)])
        a = j_value(JQuery(x, m), 1e-5, 9)
        b = j_value(JQuery(x[perm], mp), 1e-5, 9)
        assert a.value == b.value

    def test_permutation_gradient(self):
        m = ou_covariance([0.0, 0.5, 1.0])
        x = np.array([0.3, 0.55, 0.8])
        perm = [2, 0, 1]
        mp = CorrelationMatrix(m.entries[np.ix_(perm, perm)])
        a = j_grad(JQuery(x, m), 2, 1e-5, 10)
        b = j_grad(JQuery(x[perm], mp), 0, 1e-5, 10)
        assert a.value == b.value

    def test_permutation_with_ties_statistical(self):
        m = CorrelationMatrix.equicorrelated(3, 0.4)
        x = np.array([0.5, 0.5, 0.3])
        perm = [1, 2, 0]
        a = j_value(JQuery(x, m), 2e-5, 11)
        b = j_value(JQuery(x[perm], m), 2e-5, 11)
        comb = max(np.hypot(a.std_error, b.std_error), 1e-9)
        assert abs(a.value - b.value) <= 3 * comb

    def test_boundary_continuity(self):
        target = 0.4
        est = j_value(JQuery([target, 1.0 - 1e-6], biv(0.5)), 1e-5, 12)
        assert abs(est.value - target) <= 3 * est.std_error + 1e-5


class TestFiniteDifferenceSweep:
    def test_random_instances(self):
        rng = np.random.default_rng(35)
        for trial in range(5):
            k = int(rng.integers(2, 4))
            m = random_nonneg_correlation(rng, k)
            x = random_interior_x(rng, k)
            q = JQuery(x, m)
            i = int(rng.integers(k))
            j = int((i + 1 + rng.integers(k - 1)) % k)
            cf = j_grad(q, i, 1e-5, 800 + trial)
            fd, fd_se = fdcheck.fd_grad(x, m, i, 900 + trial)
            assert fdcheck.agrees(cf.value, cf.std_error, fd, fd_se)
            cf2, cf2_se = second(q, i, j, 1e-5, 810 + trial)
            fd2, fd2_se = fdcheck.fd_mixed(x, m, i, j, 910 + trial)
            assert fdcheck.agrees(cf2, cf2_se, fd2, fd2_se)


class TestCapHit:
    def test_diag_second_carries_pair_cap(self, monkeypatch):
        q = JQuery([0.3, 0.5, 0.6], CorrelationMatrix.equicorrelated(3, 0.5))
        assert not hadamard_hessian(q, 1e-3, 1).cap_hit
        real = jfunc.orthant_qmc

        def capped(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), cap_hit=True)

        monkeypatch.setattr(jfunc, "orthant_qmc", capped)
        assert hadamard_hessian(q, 1e-3, 1).cap_hit
