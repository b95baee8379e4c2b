import math

import numpy as np
import pytest
from scipy import integrate, special

from conftest import random_correlation
from noisestab import (
    CorrelationMatrix,
    JQuery,
    NotPositiveSemidefinite,
    SingularMatrix,
    cholesky,
    inverse_offdiag_nonpositive,
    j_grad,
    isoperimetric_profile,
    laplacian_quadratic_form,
    ou_covariance,
    semigroup_slope,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from noisestab.gaussian import conditional_reduction

# Reference CDF values computed with a 40-digit error-function oracle
# (mpmath.ncdf), frozen here.
CDF_TABLE = [
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (1.959964, 0.9750000009035576),
    (2.0, 0.9772498680518208),
    (4.0, 0.9999683287581669),
    (-4.0, 3.167124183311992e-05),
    (8.0, 0.9999999999999994),
    (-8.0, 6.220960574271784e-16),
    (0.123, 0.5489464510164368),
    (-2.5, 0.006209665325776135),
]


class TestCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert std_normal_cdf(np.inf) == 1.0
        assert std_normal_cdf(-np.inf) == 0.0

    @pytest.mark.parametrize("z,expected", CDF_TABLE)
    def test_reference_values(self, z, expected):
        assert abs(std_normal_cdf(z) - expected) <= 1e-14

    def test_derived_example(self):
        assert abs(std_normal_cdf(1.959964) - 0.975000) <= 1e-6

    def test_monotone(self):
        z = np.linspace(-10, 10, 2001)
        v = std_normal_cdf(z)
        assert np.all(np.diff(v) >= 0.0)


class TestPdf:
    def test_center(self):
        assert abs(std_normal_pdf(0.0) - 0.3989422804014327) < 1e-16

    def test_symmetric(self):
        z = np.linspace(0.1, 6.0, 40)
        assert np.array_equal(std_normal_pdf(z), std_normal_pdf(-z))

    def test_derived_value(self):
        # frozen from the high-precision exponential oracle
        assert abs(std_normal_pdf(1.0) - 0.24197072451914337) <= 1e-6

    def test_integrates_to_one(self):
        total, err = integrate.quad(std_normal_pdf, -40, 40)
        assert abs(total - 1.0) <= 1e-10


def _bisect_quantile(p, lo=-40.0, hi=40.0):
    # independent oracle: bisection against the CDF
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQuantile:
    def test_half(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_boundaries(self):
        assert std_normal_quantile(0.0) == -np.inf
        assert std_normal_quantile(1.0) == np.inf

    def test_out_of_range(self):
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                std_normal_quantile(bad)

    def test_derived_value(self):
        assert abs(std_normal_quantile(0.975) - 1.959964) <= 1e-6
        assert abs(std_normal_quantile(0.975) - _bisect_quantile(0.975)) <= 1e-9

    def test_bisection_oracle_grid(self):
        for p in (1e-9, 1e-4, 0.01, 0.2, 0.77, 0.999, 1 - 1e-8):
            assert abs(std_normal_quantile(p) - _bisect_quantile(p)) <= 1e-9

    def test_round_trip(self):
        p = np.linspace(1e-12, 1 - 1e-12, 1000)
        err = np.abs(std_normal_cdf(std_normal_quantile(p)) - p)
        assert err.max() <= 1e-12

    def test_matches_ndtri(self):
        p = np.concatenate([np.logspace(-300, -1, 50),
                            np.linspace(0.01, 0.99, 199),
                            1.0 - np.logspace(-16, -1, 50)])
        assert np.array_equal(std_normal_quantile(p), special.ndtri(p))
        assert all(std_normal_quantile(float(v)) == special.ndtri(v)
                   for v in p[::25])

    def test_vectorized(self):
        p = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        z = std_normal_quantile(p)
        assert z[0] == -np.inf and z[-1] == np.inf and z[2] == 0.0


class TestIsoperimetricProfile:
    def test_center(self):
        assert abs(isoperimetric_profile(0.5) - 0.3989422804014327) < 1e-15

    def test_endpoints(self):
        assert isoperimetric_profile(0.0) == 0.0
        assert isoperimetric_profile(1.0) == 0.0

    def test_composition_value(self):
        # pdf(quantile(0.975)); frozen oracle value 0.05844506980503536
        assert abs(isoperimetric_profile(0.975) - 0.0584451) <= 1e-5
        assert abs(isoperimetric_profile(0.975)
                   - std_normal_pdf(std_normal_quantile(0.975))) < 1e-15

    def test_symmetry(self):
        x = np.linspace(0.01, 0.49, 25)
        assert np.allclose(isoperimetric_profile(x),
                           isoperimetric_profile(1.0 - x), atol=1e-14)

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            isoperimetric_profile(1.5)


class TestSemigroupSlope:
    def test_unit_point(self):
        assert abs(semigroup_slope(math.log(math.sqrt(2.0))) - 1.0) <= 1e-12

    def test_derived_value(self):
        # frozen: 1/sqrt(e - 1) at t = 0.5
        assert abs(semigroup_slope(0.5) - 0.7628739783668902) <= 1e-5

    def test_decreasing_and_limits(self):
        t = np.linspace(0.05, 6.0, 60)
        v = np.array([semigroup_slope(ti) for ti in t])
        assert np.all(np.diff(v) < 0.0)
        assert semigroup_slope(1e-8) > 1e3
        assert semigroup_slope(30.0) < 1e-10

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                semigroup_slope(bad)


class TestCholesky:
    def test_identity(self):
        q = cholesky(np.eye(3))
        assert isinstance(q, np.ndarray) and not q.flags.writeable
        assert np.array_equal(q, np.eye(3))

    def test_two_by_two(self):
        rho = 0.6
        q = cholesky([[1.0, rho], [rho, 1.0]])
        expected = np.array([[1.0, 0.0], [rho, math.sqrt(1 - rho * rho)]])
        assert np.allclose(q, expected, atol=1e-15)

    def test_reconstruction_corpus(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            m = a @ a.T
            q = cholesky(m)
            assert np.abs(q @ q.T - m).max() <= 1e-10 * max(1, np.abs(m).max())
            assert np.all(np.diag(q) >= 0.0)

    def test_singular_psd(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        q = cholesky(m)
        assert np.abs(q @ q.T - m).max() <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            cholesky(np.diag([1.0, -1.0]))


class TestCorrelationMatrix:
    def test_nonnegative_flag(self):
        assert CorrelationMatrix.identity(3).nonnegative
        m = CorrelationMatrix([[1.0, -0.5], [-0.5, 1.0]])
        assert not m.nonnegative

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[2.0, 0.0], [0.0, 1.0]])

    def test_from_covariance(self):
        cov = np.array([[4.0, 1.0], [1.0, 1.0]])
        m = CorrelationMatrix.from_covariance(cov)
        assert np.allclose(np.diag(m.entries), 1.0)
        assert abs(m.entries[0, 1] - 0.5) < 1e-15

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CorrelationMatrix([[1.0, 0.3], [0.2, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            CorrelationMatrix(np.zeros((0, 0)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            CorrelationMatrix([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8],
                               [-0.8, 0.8, 1.0]])

    def test_entries_read_only(self):
        m = CorrelationMatrix.identity(2)
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.5


class TestSchurComplement:
    def test_two_by_two(self):
        m = CorrelationMatrix.equicorrelated(2, 0.6)
        coef, reduced = conditional_reduction(m.entries, 0)
        assert np.allclose(coef, [0.6])
        assert np.allclose(reduced, [[1 - 0.36]])

    def test_identity(self):
        m = CorrelationMatrix.identity(4)
        coef, reduced = conditional_reduction(m.entries, 2)
        assert np.array_equal(reduced, np.eye(3))
        assert np.array_equal(coef, np.zeros(3))

    def test_ou_inverse_identity(self):
        m = ou_covariance([0.0, 0.5, 1.0])
        _, reduced = conditional_reduction(m.entries, 1)
        inv = np.linalg.inv(m.entries)
        target = np.delete(np.delete(inv, 1, axis=0), 1, axis=1)
        assert np.abs(np.linalg.inv(reduced) - target).max() <= 1e-8

    def test_inverse_identity_corpus(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            m = random_correlation(rng, k)
            i = int(rng.integers(k))
            _, reduced = conditional_reduction(m.entries, i)
            inv = np.linalg.inv(m.entries)
            target = np.delete(np.delete(inv, i, axis=0), i, axis=1)
            assert np.abs(np.linalg.inv(reduced) - target).max() <= 1e-8
            assert np.linalg.eigvalsh(reduced)[0] >= -1e-12

    def test_rejects_singular(self):
        # The conditional system behind the gradient needs a strictly PD
        # matrix; a rank-one one is refused before any reduction.
        m = CorrelationMatrix([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrix):
            j_grad(JQuery([0.5, 0.5], m), 0, 1e-3, 0)


class TestOUCovariance:
    def test_ln2_pair(self):
        m = ou_covariance([0.0, math.log(2.0)])
        assert abs(m.entries[0, 1] - 0.5) <= 1e-15

    def test_three_times(self):
        m = ou_covariance([0.0, 0.5, 1.0])
        assert abs(m.entries[0, 2] - math.exp(-1.0)) <= 1e-15

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ou_covariance([0.0, 0.5, 0.5])

    def test_psd_corpus(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            times = np.cumsum(rng.uniform(0.01, 1.0, k))
            m = ou_covariance(times)
            assert m.min_eigenvalue() >= -1e-12

    def test_satisfies_both_hypotheses(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            times = np.cumsum(rng.uniform(0.01, 1.0, k))
            m = ou_covariance(times)
            assert m.nonnegative
            assert inverse_offdiag_nonpositive(m)


class TestInverseOffdiag:
    def test_identity(self):
        assert inverse_offdiag_nonpositive(CorrelationMatrix.identity(3))

    def test_ou(self):
        assert inverse_offdiag_nonpositive(ou_covariance([0.0, 0.5, 1.0]))

    def test_entrywise_witness_fails_inverse(self):
        # (2,3) cofactor 0.7*0.7 - 0 > 0 forces a positive inverse entry
        m = CorrelationMatrix([[1.0, 0.7, 0.7],
                               [0.7, 1.0, 0.0],
                               [0.7, 0.0, 1.0]])
        assert m.nonnegative
        assert not inverse_offdiag_nonpositive(m)

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            inverse_offdiag_nonpositive(CorrelationMatrix([[1.0, 1.0],
                                                           [1.0, 1.0]]))


def _zero_row_sum_matrix(rng, k):
    a = rng.uniform(0.1, 2.0, (k, k))
    a = 0.5 * (a + a.T)
    for i in range(k):
        a[i, i] = -(a[i].sum() - a[i, i])
    return a


class TestLaplacianForm:
    def test_ones_in_kernel(self):
        rng = np.random.default_rng(8)
        a = _zero_row_sum_matrix(rng, 4)
        assert laplacian_quadratic_form(a, np.ones(4)) == 0.0

    def test_single_pair(self):
        a = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert laplacian_quadratic_form(a, np.array([1.0, 0.0])) == -1.0

    def test_matches_dense_form(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            a = _zero_row_sum_matrix(rng, k)
            v = rng.standard_normal(k)
            assert abs(laplacian_quadratic_form(a, v) - v @ a @ v) <= 1e-8

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            laplacian_quadratic_form(np.eye(3), np.ones(3))


def _power_iteration_max_eig(m, iters=20000):
    # independent oracle: shift to dominance, then iterate
    shift = 1.0 + np.abs(m).sum()
    a = m + shift * np.eye(m.shape[0])
    v = np.ones(m.shape[0]) / math.sqrt(m.shape[0])
    lam = 0.0
    for _ in range(iters):
        w = a @ v
        lam = float(v @ w)
        v = w / np.linalg.norm(w)
    return lam - shift


class TestMaxEigenvalue:
    def test_identity(self):
        assert abs(np.linalg.eigvalsh(np.eye(3))[-1] - 1.0) <= 1e-12

    def test_diagonal(self):
        assert abs(np.linalg.eigvalsh(np.diag([-1.0, -2.0]))[-1] + 1.0) <= 1e-12

    def test_matches_iteration_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            m = 0.5 * (a + a.T)
            assert abs(np.linalg.eigvalsh(m)[-1]
                       - _power_iteration_max_eig(m)) <= 1e-8

    def test_zero_row_sum_nonneg_offdiag_is_nsd(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            a = _zero_row_sum_matrix(rng, k)
            assert np.linalg.eigvalsh(a)[-1] <= 1e-8
