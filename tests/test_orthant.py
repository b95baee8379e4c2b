import math

import numpy as np
import pytest

from conftest import random_correlation
from noisestab import (
    Estimate,
    OrthantQuery,
    SingularMatrix,
    bivariate_orthant_closed,
    orthant_mc,
    orthant_qmc,
    std_normal_cdf,
)
from noisestab import orthant
from noisestab.orthant import orthant_qmc_shift_means


def _biv_query(rho, limits=(0.0, 0.0)):
    return OrthantQuery(np.array(limits), [[1.0, rho], [rho, 1.0]])


# Two coordinates are exact, so the lattice tests use three.
_TRI_COV = [[1.0, 0.25, 0.4], [0.25, 1.0, 0.1], [0.4, 0.1, 1.0]]


def _tri_query(limits=(0.1, -0.6, 0.4)):
    return OrthantQuery(np.array(limits), _TRI_COV)


class TestClosedForm:
    def test_independent(self):
        assert bivariate_orthant_closed(0.0) == 0.25

    def test_coupled(self):
        assert bivariate_orthant_closed(1.0) == 0.5

    def test_arcsine_third(self):
        assert abs(bivariate_orthant_closed(0.5) - 1.0 / 3.0) <= 1e-15

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            bivariate_orthant_closed(1.5)


class TestQueryValidation:
    def test_rejects_indefinite(self):
        with pytest.raises(SingularMatrix):
            OrthantQuery([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nan_limits(self):
        with pytest.raises(ValueError):
            OrthantQuery([0.0, np.nan], np.eye(2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            OrthantQuery([0.0], np.eye(2))


class TestEstimate:
    def test_exact(self):
        est = Estimate.exact(np.float64(0.25), 3)
        assert est == Estimate(0.25, 0.0, 0, 3)
        assert type(est.value) is float and not est.cap_hit


class TestMonteCarlo:
    def test_all_infinite(self):
        est = orthant_mc(OrthantQuery([np.inf, np.inf], np.eye(2)), 1000, 1)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_minus_infinite(self):
        est = orthant_mc(OrthantQuery([-np.inf, 0.0], np.eye(2)), 1000, 1)
        assert est.value == 0.0

    def test_independent_quadrant(self):
        est = orthant_mc(_biv_query(0.0), 200_000, 2)
        assert abs(est.value - 0.25) <= 3 * est.std_error

    def test_arcsine_value(self):
        est = orthant_mc(_biv_query(0.5), 200_000, 3)
        assert abs(est.value - bivariate_orthant_closed(0.5)) <= 3 * est.std_error

    def test_reproducible(self):
        q = _biv_query(0.3)
        a = orthant_mc(q, 50_000, 11)
        b = orthant_mc(q, 50_000, 11)
        assert a == b
        c = orthant_mc(q, 50_000, 12)
        assert c.value != a.value

    def test_singular_covariance_supported(self):
        # rank-one: both coordinates are the same variable
        q = OrthantQuery([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        est = orthant_mc(q, 100_000, 5)
        assert abs(est.value - 0.5) <= 3 * est.std_error

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            orthant_mc(_biv_query(0.0), 0, 1)


class TestQmc:
    def test_trivial_independent(self):
        est = orthant_qmc(_biv_query(0.0), 1e-5, 1)
        assert abs(est.value - 0.25) <= max(3 * est.std_error, 1e-5)

    def test_exact_bivariate_sweep(self):
        for idx, rho in enumerate(np.arange(-0.9, 0.95, 0.1)):
            est = orthant_qmc(_biv_query(float(rho)), 1e-5, 100 + idx)
            target = bivariate_orthant_closed(float(rho))
            assert abs(est.value - target) <= max(3 * est.std_error, 1e-5)

    def test_equicorrelated_k3(self):
        cov = np.full((3, 3), 0.5)
        np.fill_diagonal(cov, 1.0)
        q = OrthantQuery(np.zeros(3), cov)
        est = orthant_qmc(q, 1e-5, 7)
        oracle = orthant_mc(q, 10_000_000, 8)
        comb = np.hypot(est.std_error, oracle.std_error)
        assert abs(est.value - oracle.value) <= 3 * comb
        # closed form for this symmetric case: 1/4
        assert abs(est.value - 0.25) <= max(3 * est.std_error, 1e-5)

    @pytest.mark.parametrize("seed", [1, 5, 8, 13])
    def test_se_not_below_rounding(self, seed, monkeypatch):
        # both conditional ndtrs saturate here, so the shift means agree to
        # the last bits. Pr(X3 > 9) is 1e-19, so the value is the bivariate
        # one of the first two coordinates: scipy's Genz value is
        # 0.5560650288285746
        cov = [[1.0, 0.822, 0.3], [0.822, 1.0, 0.3], [0.3, 0.3, 1.0]]
        q = OrthantQuery([0.141, 4.577, 9.0], cov)
        est = orthant_qmc(q, 1e-7, seed)
        floor = orthant.SE_FLOOR_ULPS * np.finfo(float).eps * est.value
        assert est.samples > 0
        assert est.std_error >= floor
        assert abs(est.value - 0.5560650288285746) <= 3 * est.std_error
        # the floor binds: the shift spread alone is below it
        monkeypatch.setattr(orthant, "SE_FLOOR_ULPS", 0)
        assert orthant_qmc(q, 1e-7, seed).std_error < floor

    def test_agrees_with_mc_corpus(self):
        rng = np.random.default_rng(43)
        mc_samples = 100_000
        for trial in range(100):
            k = int(rng.integers(2, 5))
            m = random_correlation(rng, k)
            limits = rng.uniform(-1.5, 1.5, k)
            q = OrthantQuery(limits, m.entries)
            fast = orthant_qmc(q, 2e-4, 1000 + trial)
            slow = orthant_mc(q, mc_samples, 5000 + trial)
            # floor keeps the band meaningful when the MC count is zero
            comb = max(np.hypot(fast.std_error, slow.std_error),
                       1.0 / mc_samples)
            assert abs(fast.value - slow.value) <= 3 * comb

    def test_marginalization_exact(self):
        # +inf coordinates are dropped before the transform, so the
        # reduced query is evaluated identically
        rng = np.random.default_rng(21)
        for trial in range(50):
            k = int(rng.integers(2, 5))
            m = random_correlation(rng, k)
            limits = rng.uniform(-1.0, 1.5, k)
            i = int(rng.integers(k))
            full = np.array(limits)
            full[i] = np.inf
            keep = [j for j in range(k) if j != i]
            sub_cov = m.entries[np.ix_(keep, keep)]
            a = orthant_qmc(OrthantQuery(full, m.entries), 1e-4, 31 + trial)
            b = orthant_qmc(OrthantQuery(limits[keep], sub_cov), 1e-4,
                            31 + trial)
            assert a.value == b.value

    def test_marginalization_vs_mc(self):
        m = random_correlation(np.random.default_rng(5), 3)
        limits = np.array([0.4, np.inf, -0.3])
        fast = orthant_qmc(OrthantQuery(limits, m.entries), 1e-4, 3)
        slow = orthant_mc(OrthantQuery(limits, m.entries), 200_000, 4)
        assert abs(fast.value - slow.value) <= 3 * np.hypot(
            fast.std_error, slow.std_error)

    def test_monotone_in_each_limit(self):
        m = random_correlation(np.random.default_rng(6), 3)
        base = np.array([-0.5, 0.2, 0.8])
        for coord in range(3):
            prev = None
            for shift in (0.0, 0.4, 0.8, 1.2):
                limits = base.copy()
                limits[coord] += shift
                est = orthant_qmc(OrthantQuery(limits, m.entries), 5e-5, 9)
                if prev is not None:
                    assert est.value >= prev.value - 3 * np.hypot(
                        est.std_error, prev.std_error)
                prev = est

    def test_target_se_honored(self):
        est = orthant_qmc(_tri_query(), 5e-6, 13)
        assert est.samples > 0
        assert est.std_error <= 5e-6
        assert not est.cap_hit

    def test_sample_cap_reported(self, monkeypatch):
        monkeypatch.setattr(orthant, "DEFAULT_SAMPLE_CAP", 20_000)
        est = orthant_qmc(_tri_query(), 1e-12, 13)
        assert est.cap_hit
        assert est.std_error > 1e-12

    def test_reproducible(self):
        q = _biv_query(-0.4, limits=(0.7, -0.1))
        assert orthant_qmc(q, 1e-5, 17) == orthant_qmc(q, 1e-5, 17)

    def test_minus_infinity_short_circuit(self):
        est = orthant_qmc(OrthantQuery([-np.inf, 0.0], np.eye(2)), 1e-5, 1)
        assert est == Estimate(0.0, 0.0, 0, 1)

    def test_all_plus_infinity(self):
        est = orthant_qmc(OrthantQuery([np.inf, np.inf], np.eye(2)), 1e-5, 1)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_one_dimensional_analytic(self):
        est = orthant_qmc(OrthantQuery([0.3], [[1.0]]), 1e-6, 1)
        assert est.std_error == 0.0 and est.samples == 0

    def test_rejects_singular(self):
        q = OrthantQuery([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrix):
            orthant_qmc(q, 1e-4, 1)

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            orthant_qmc(OrthantQuery(np.zeros(13), np.eye(13)), 1e-4, 1)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(60)
        for trial in range(20):
            m = random_correlation(rng, 3)
            limits = rng.uniform(-3.0, 3.0, 3)
            est = orthant_qmc(OrthantQuery(limits, m.entries), 1e-4, trial)
            assert 0.0 <= est.value <= 1.0


class TestShiftMeans:
    def test_matching_randomness(self):
        # same dimension, points, seed -> same lattice and shifts, so a
        # null difference is exactly zero
        q = _tri_query()
        a, na = orthant_qmc_shift_means(q, 4093, 99)
        b, nb = orthant_qmc_shift_means(q, 4093, 99)
        assert na == nb > 0 and np.array_equal(a, b)

    def test_coupled_difference_is_smooth(self):
        # coupled evaluations of nearby queries differ by far less than
        # independent noise would allow
        qa = _tri_query()
        qb = _tri_query(limits=(0.1 + 1e-4, -0.6, 0.4))
        a, na = orthant_qmc_shift_means(qa, 4093, 99)
        b, _ = orthant_qmc_shift_means(qb, 4093, 99)
        assert na > 0
        d = a - b
        assert np.abs(d).max() < 1e-4
        assert d.std(ddof=1) < 1e-6


class TestExactBivariate:
    """Two coordinates take Owen's T form of the bivariate normal CDF."""

    @staticmethod
    def _exact(limits, cov):
        est = orthant_qmc(OrthantQuery(limits, cov), 1e-4, 1)
        assert est.std_error == 0.0 and est.samples == 0
        return est.value

    def test_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(70)
        for trial in range(320):
            rho = rng.uniform(-0.95, 0.95)
            # every other query has a non-unit diagonal, as a conditional
            # covariance does
            sd = rng.uniform(0.3, 3.0, 2) if trial % 2 else np.ones(2)
            cov = np.array([[1.0, rho], [rho, 1.0]]) * np.outer(sd, sd)
            limits = 1.5 * sd * rng.standard_normal(2)
            want = stats.multivariate_normal(cov=cov).cdf(
                limits, rng=np.random.default_rng(trial))
            assert abs(self._exact(limits, cov) - want) <= 1e-15

    def test_arcsine_at_origin(self):
        for rho in np.linspace(-0.99, 0.99, 23):
            cov = [[1.0, rho], [rho, 1.0]]
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            for limits in ([0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0]):
                assert self._exact(limits, cov) == want
            # limits of opposite sign whose product underflows to -0.0
            for limits in ([1e-200, -1e-200], [-1e-200, 1e-200]):
                assert abs(self._exact(limits, cov) - want) <= 1e-15

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.4, 0.85])
    @pytest.mark.parametrize("other", [-1.7, -0.2, 0.6, 2.5])
    def test_one_zero_limit(self, zero, rho, other):
        # the limit form at one zero limit is continuous with the general
        # form on both sides of it
        cov = [[1.0, rho], [rho, 1.0]]
        for pair in ([zero, other], [other, zero]):
            v = self._exact(pair, cov)
            for eps in (1e-9, -1e-9):
                near = [eps if x == 0.0 else x for x in pair]
                assert abs(self._exact(near, cov) - v) <= 1e-9

    def test_independent_product(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            h, k = 2.0 * rng.standard_normal(2)
            want = std_normal_cdf(h) * std_normal_cdf(k)
            assert abs(self._exact([h, k], np.eye(2)) - want) <= 1e-15

    def test_saturated_case(self):
        # on the lattice this query's shift means agree to the last bits;
        # scipy's Genz value
        v = self._exact([0.141, 4.577], [[1.0, 0.822], [0.822, 1.0]])
        assert abs(v - 0.5560650288285746) <= 4 * np.spacing(v)

    def test_deep_tail_clipped(self):
        # Owen's form rounds to -2.7e-17 here; the value is about 1e-25
        v = self._exact([-1.26, -7.6], [[1.0, -0.57], [-0.57, 1.0]])
        assert 0.0 <= v <= 1e-16


class TestNextPrime:
    def test_matches_brute_force(self):
        def is_prime(m):
            return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))

        want = next(m for m in range(10_000, 20_000) if is_prime(m))
        for n in range(10_000, -1, -1):
            if is_prime(n):
                want = n
            assert orthant._next_prime(n) == want
        below = None
        for n in range(2, 10_000):
            if is_prime(n):
                below = n
            assert orthant._prev_prime(n) == below


class TestCbcLattice:
    # the generating vectors of the 12-d lattices, as a sieve of
    # Eratosthenes found the primes; a lattice of fewer dimensions is the
    # prefix of the 12-d one, which the construction extends coordinate
    # by coordinate
    LATTICES = {
        3: (3, [1] * 12),
        1021: (1021, [1, 374, 421, 449, 236, 55, 353, 309, 145, 457, 194,
                      253]),
        2053: (2053, [1, 794, 609, 867, 243, 404, 277, 447, 494, 953, 675,
                      937]),
        65537: (65537, [1, 25016, 11134, 28225, 10616, 17729, 4042, 20832,
                        22105, 20019, 12807, 29586]),
        10**6: (999983, [1, 414343, 381485, 107044, 45701, 165407, 25803,
                         484872, 297897, 195507, 287476, 189052]),
    }

    @pytest.mark.parametrize("target", sorted(LATTICES))
    def test_cbc_lattice_pinned(self, target):
        prime, z = self.LATTICES[target]
        for dim in (1, 2, 5, 12):
            frac, n = orthant._cbc_lattice(dim, target)
            assert n == prime
            assert np.array_equal(frac, np.array(z[:dim]) / prime)
