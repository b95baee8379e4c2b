import dataclasses
import math
import resource
import sys
import threading
import time

import numpy as np
import pytest
from scipy import integrate, special

from noisestab import (
    Ball,
    CorrelationMatrix,
    HalfSpace,
    Intersection,
    KroneckerSampler,
    exit_survival,
    exit_survival_pair,
    exit_survival_refined,
    gaussian_measure,
    gradient_bound_check,
    halfspace_occupation,
    halfspace_survival,
    heat_flow,
    occupation,
    occupation_pair,
    ou_covariance,
    semigroup_apply,
    std_normal_cdf,
)
import noisestab.ousim as ousim
from noisestab.geometry import boundary_distance, contains
from noisestab import seeding
from noisestab.ousim import exit_dominance_refined

HALF_BALL = Ball(np.zeros(2), math.sqrt(2.0 * math.log(2.0)))
HS0 = HalfSpace(np.array([1.0, 0.0]), 0.0)
FULL = HalfSpace(np.array([1.0, 0.0]), np.inf)


def _walk(count, n, tau, steps, seed):
    """States of ``count`` independent stationary OU paths (singles, no
    antithetic pairs) at the ``steps + 1`` grid times of [0, tau],
    advanced by ``ousim._advance``, from the stream of shard 0: an array
    of shape (steps + 1, count, n)."""
    _, _, decay, scale = ousim._grid_params(tau, steps)
    rng = seeding.derive_rng(seed, "exit", 0)
    states = rng.standard_normal((count, n))
    z = rng.standard_normal((steps, count, n))
    return np.concatenate([states[None], ousim._advance(states, z, 0, decay,
                                                        scale)])


class TestSimulatePath:
    """The exact-transition law of the scans' advance ``ousim._advance``."""

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ousim._grid_params(-0.5, 4)
        with pytest.raises(ValueError):
            ousim._grid_params(0.5, 0)
        # a fractional count is rejected, not truncated
        msg = "steps must be an integer >= 1"
        for call in (lambda: ousim._grid_params(0.5, 8.5),
                     lambda: occupation(HS0, HALF_BALL, 0.5, 8.5, 100, 1),
                     lambda: occupation_pair((HS0, HS0), (HS_06, HS_03), 0.5,
                                             8.5, 100, 1)):
            with pytest.raises(ValueError, match=msg):
                call()

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_nonfinite_horizon_rejected(self, tau):
        msg = "horizon must be finite and nonnegative"
        with pytest.raises(ValueError, match=msg):
            ousim._grid_params(tau, 4)
        with pytest.raises(ValueError, match=msg):
            exit_survival(HALF_BALL, tau, 4, 100, 1)
        with pytest.raises(ValueError, match=msg):
            exit_survival_pair(HALF_BALL, HS0, tau, 4, 100, 1)
        with pytest.raises(ValueError, match=msg):
            occupation(HALF_BALL, HALF_BALL, tau, 4, 100, 1)

    def test_repeated_time_identical_state(self):
        # a zero step has decay 1 and scale 0, so the state is kept
        p = _walk(50, 2, 0.0, 3, 3)
        assert np.array_equal(p[0], p[3])

    def test_shapes(self):
        p = _walk(5, 3, 0.2, 2, 4)
        assert p.shape == (3, 5, 3)
        # a block of four steps of two rows leaves its normals raw
        z = seeding.derive_rng(4, "exit", 0).standard_normal((4, 2, 3))
        raw = z.copy()
        out = ousim._advance(p[-1, :2], z, 0, 0.5, 0.5)
        assert out.shape == (4, 2, 3) and np.array_equal(z, raw)

    def test_block_is_steps_in_turn(self):
        # each state is s * decay + z * scale, rounded as written
        _, _, decay, scale = ousim._grid_params(0.7, 9)
        p = _walk(40, 2, 0.7, 9, 12)
        z = seeding.derive_rng(12, "exit", 0).standard_normal((10, 40, 2))
        for j in range(1, 10):
            assert np.array_equal(p[j], p[j - 1] * decay + z[j] * scale)

    def test_stationarity_moments(self):
        pooled = _walk(800, 2, 1.2, 3, 5).ravel()
        n = pooled.size
        assert abs(pooled.mean()) <= 4.0 / math.sqrt(n)
        assert abs(pooled.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)

    def test_markov_correlation(self):
        t = 0.6
        pairs = _walk(6000, 1, t, 1, 6)[:, :, 0].T
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        # Fisher-style bound, 4 standard errors
        se = (1.0 - math.exp(-2 * t)) / math.sqrt(pairs.shape[0])
        assert abs(corr - math.exp(-t)) <= 4 * se

    def test_reproducible(self):
        assert np.array_equal(_walk(10, 2, 1.0, 2, 9), _walk(10, 2, 1.0, 2, 9))


class TestSampleJoint:
    def test_identity_shape(self):
        x = KroneckerSampler(CorrelationMatrix.identity(3), 4).sample(1, 1)
        assert x[0].shape == (3, 4)

    def test_empirical_kronecker_covariance(self):
        m = ou_covariance([0.0, 0.7])
        sampler = KroneckerSampler(m, 2)
        draws = sampler.sample(200_000, 2)
        flat = draws.reshape(draws.shape[0], -1)  # (count, k*n)
        emp = np.cov(flat.T)
        target = np.kron(m.entries, np.eye(2))
        se = 4.0 * math.sqrt(2.0 / draws.shape[0])
        assert np.abs(emp - target).max() <= se

    def test_matches_path_frequencies(self):
        # joint draws at rho = e^{-t} against path-based (X_0, X_t)
        t = 0.5
        m = CorrelationMatrix.equicorrelated(2, math.exp(-t))
        draws = KroneckerSampler(m, 1).sample(100_000, 3)
        joint_freq = np.mean((draws[:, 0, 0] <= 0) & (draws[:, 1, 0] <= 0))
        paths = _walk(20_000, 1, t, 1, 10_000)[:, :, 0].T
        path_freq = np.mean((paths[:, 0] <= 0) & (paths[:, 1] <= 0))
        comb = math.hypot(math.sqrt(0.25 / 100_000), math.sqrt(0.25 / 20_000))
        assert abs(joint_freq - path_freq) <= 3 * comb

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            KroneckerSampler(CorrelationMatrix.identity(2), 0)


def _einsum_draws(sampler, count, seed):
    """The sampler's draws as one einsum over the whole noise array: the
    oracle of the triangular block mixing."""
    z = seeding.derive_rng(seed, "kronecker").standard_normal(
        (count, sampler.m.k, sampler.n))
    return np.einsum("ij,cjn->cin", sampler.q, z), z


def _matrices(k):
    yield CorrelationMatrix.equicorrelated(k, 0.5)
    if k > 1:
        yield ou_covariance(np.linspace(0.0, 1.3, k))


class TestKroneckerBlocks:
    """``sample`` mixes cache-sized row blocks through the triangular
    factor in the einsum's order of terms."""

    COUNTS = (1, 7, ousim._BLOCK_ROWS - 1, ousim._BLOCK_ROWS,
              2 * ousim._BLOCK_ROWS + 5)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_equals_einsum_for_n_at_least_2(self, k):
        for m in _matrices(k):
            for n in (2, 3, 5, 8):
                sampler = KroneckerSampler(m, n)
                for count in self.COUNTS:
                    want, _ = _einsum_draws(sampler, count, 100 + count)
                    assert np.array_equal(sampler.sample(count, 100 + count),
                                          want)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_n_1_within_summation_rounding(self, k):
        # for n = 1 the einsum unrolls its sum over j, so a draw may move
        # by the rounding of a k-term sum: at most (k - 1) eps sum|terms|
        for m in _matrices(k):
            sampler = KroneckerSampler(m, 1)
            count = 2 * ousim._BLOCK_ROWS + 5
            want, z = _einsum_draws(sampler, count, 9)
            got = sampler.sample(count, 9)
            if k <= 2:
                assert np.array_equal(got, want)
            terms = np.einsum("ij,cjn->cin", np.abs(sampler.q), np.abs(z))
            bound = (k - 1) * np.finfo(float).eps * terms
            assert np.all(np.abs(got - want) <= bound)

    def test_block_size_does_not_change_draws(self, monkeypatch):
        sampler = KroneckerSampler(CorrelationMatrix.equicorrelated(3, 0.4), 2)
        count = 3 * ousim._BLOCK_ROWS + 1234
        want = sampler.sample(count, 5)
        for rows in (1000, count):
            monkeypatch.setattr(ousim, "_BLOCK_ROWS", rows)
            assert np.array_equal(sampler.sample(count, 5), want)

    def test_columns_contiguous(self):
        sampler = KroneckerSampler(CorrelationMatrix.equicorrelated(3, 0.4), 2)
        draws = sampler.sample(ousim._BLOCK_ROWS + 3, 5)
        assert draws.shape == (ousim._BLOCK_ROWS + 3, 3, 2)
        assert all(draws[:, i, :].flags.c_contiguous for i in range(3))

    def test_counts(self):
        sampler = KroneckerSampler(CorrelationMatrix.identity(2), 2)
        assert sampler.sample(0, 1).shape == (0, 2, 2)
        with pytest.raises(ValueError):
            sampler.sample(-1, 1)


class TestExitSurvival:
    def test_full_space(self):
        est = exit_survival(FULL, 1.0, 16, 2000, 1)
        assert est.value == 1.0

    def test_tiny_horizon_is_measure(self):
        est = exit_survival(HALF_BALL, 1e-9, 1, 100_000, 2)
        mu = gaussian_measure(HALF_BALL).value
        assert abs(est.value - mu) <= 3 * est.std_error

    def test_zero_horizon(self):
        est = exit_survival(HS0, 0.0, 4, 50_000, 3)
        assert abs(est.value - 0.5) <= 3 * est.std_error

    def test_monotone_in_horizon_shared_paths(self):
        prev = None
        for tau in (0.2, 0.5, 0.8):
            est = exit_survival(HALF_BALL, tau, 128, 20_000, 4)
            if prev is not None:
                comb = math.hypot(est.std_error, prev.std_error)
                assert est.value <= prev.value + 3 * comb
            prev = est

    def test_refinement_never_increases(self):
        coarse, fine, change, change_se = exit_survival_refined(
            HALF_BALL, 0.5, 64, 20_000, 5)
        assert change >= 0.0
        assert coarse.value >= fine.value

    def test_fine_grid_consistency(self):
        # one coupled pass at 8x resolution bounds the discretization gap
        coarse, fine, change, _ = exit_survival_refined(
            HALF_BALL, 0.5, 512, 20_000, 6, refine=8)
        assert change <= 0.02

    def test_independent_fine_grid_oracle(self):
        # independent runs at 512 vs 4096 steps agree within the band
        # plus the sqrt(step)-scale discretization allowance
        a = exit_survival(HS0, 0.5, 512, 20_000, 61)
        b = exit_survival(HS0, 0.5, 4096, 20_000, 62)
        comb = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3 * comb + 0.01
        # one-sided: the coarse grid can only overshoot
        assert a.value >= b.value - 3 * comb

    def test_reproducible(self):
        a = exit_survival(HALF_BALL, 0.4, 32, 10_000, 7)
        b = exit_survival(HALF_BALL, 0.4, 32, 10_000, 7)
        assert a == b

    def test_pair_shares_paths(self):
        est_a, est_b, paired = exit_survival_pair(HS0, HS0, 0.4, 32,
                                                  20_000, 8)
        assert est_a.value == est_b.value
        assert paired == 0.0

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_halfspace_closed_form(self, tau):
        # stationary OU stays in {x_1 <= 0} over [0, tau] with probability
        # asin(e^{-tau}) / pi; the raw grid monitor misses it by 3-9 SE
        est = exit_survival(HS0, tau, 512, 100_000, 12)
        exact = math.asin(math.exp(-tau)) / math.pi
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_epsilon_enlargement_converges(self):
        base = exit_survival(HS0, 0.5, 128, 30_000, 9)
        prev_value = None
        last_diff = None
        for eps in (0.2, 0.1, 0.05, 0.02):
            est = exit_survival(HalfSpace(HS0.normal, HS0.offset + eps),
                                0.5, 128, 30_000, 9)
            if prev_value is not None:
                assert est.value <= prev_value + 3 * est.std_error
            prev_value = est.value
            last_diff = est.value - base.value
        assert last_diff >= 0.0
        assert last_diff <= 3 * math.hypot(base.std_error,
                                           est.std_error) + 0.02


class TestHalfspaceSurvival:
    """The exact survival of a stationary 1-d OU process below an offset,
    which ``exit_survival_pair`` takes for every half-space arm."""

    @pytest.mark.parametrize("tau", [0.01, 0.1, 0.5, 1.0, 5.0])
    def test_origin_closed_form(self, tau):
        exact = math.asin(math.exp(-tau)) / math.pi
        assert abs(halfspace_survival(0.0, tau) - exact) <= 1e-6

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.6, 0.95])
    def test_matches_bridge_monte_carlo(self, p):
        # off the origin the bridge correction leaves an O(d) bias, small
        # at 2048 steps
        c = float(special.ndtri(p))
        hs = HalfSpace(np.array([0.6, -0.8]), c)
        est = exit_survival(hs, 0.5, 2048, 100_000, 40)
        assert abs(est.value - halfspace_survival(c, 0.5)) \
            <= 3 * est.std_error

    @pytest.mark.parametrize("c", [-2.0, -0.3, 0.0, 0.7, 3.5])
    def test_zero_horizon_is_measure(self, c):
        assert halfspace_survival(c, 0.0) == special.ndtr(c)
        # continuous at tau = 0
        assert 0.0 < special.ndtr(c) - halfspace_survival(c, 1e-8) < 1e-3

    def test_infinite_offsets(self):
        assert halfspace_survival(np.inf, 0.7) == 1.0
        assert halfspace_survival(-np.inf, 0.7) == 0.0

    def test_monotone_in_offset_and_horizon(self):
        values = [[halfspace_survival(c, tau) for tau in (0.05, 0.5, 2.0)]
                  for c in (-1.0, 0.0, 1.0)]
        assert all(a > b for row in values for a, b in zip(row, row[1:]))
        assert all(a < b for col in zip(*values) for a, b in zip(col, col[1:]))

    def test_rejects_bad_arguments(self):
        for args in ((0.0, -0.1), (float("nan"), 0.5), (0.0, math.nan),
                     (0.0, math.inf)):
            with pytest.raises(ValueError):
                halfspace_survival(*args)

    def test_pair_takes_halfspace_arms_exactly(self):
        hs = HalfSpace(np.array([0.0, 2.0]), 0.6)  # x_2 <= 0.3
        for a, b in ((HALF_BALL, hs), (hs, HALF_BALL)):
            est_a, est_b, paired = exit_survival_pair(a, b, 0.5, 32, 20_000,
                                                      14)
            exact, scanned = (est_a, est_b) if a is hs else (est_b, est_a)
            assert exact.value == halfspace_survival(0.3, 0.5)
            assert (exact.std_error, exact.samples) == (0.0, 0)
            # the other arm is scanned alone, as exit_survival scans it
            assert scanned == exit_survival(HALF_BALL, 0.5, 32, 20_000, 14)
            assert paired == scanned.std_error

    def test_pair_without_halfspace_unchanged(self):
        # two scanned arms keep common random numbers
        a, b, paired = exit_survival_pair(HALF_BALL, BALL_06, 0.5, 32,
                                          70_000, 23)
        assert (a.value, a.std_error, b.value, b.std_error, paired) == (
            0.07764131161461611, 0.0009131113422149826, 0.15704153041134397,
            0.001191804321252979, 0.0008397914753235022)

    def test_equal_for_one_and_two_workers(self, monkeypatch):
        # the horizons run on pool threads, each diagonalising its grids
        hs = HalfSpace(np.array([1.0, 0.0]), -0.4)
        cases = [(hs, hs, tau, 16, 1000, 3) for tau in (0.1, 0.4, 0.9, 2.0)]
        sequential = [halfspace_survival(-0.4, tau) for tau in
                      (0.1, 0.4, 0.9, 2.0)]
        for workers in (1, 2):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            got = seeding.fan_out(lambda c: exit_survival_pair(*c), cases)
            assert [g[0].value for g in got] == sequential
            assert [g[1].value for g in got] == sequential
            assert all(g[2] == 0.0 for g in got)

    def test_concurrent_threads_equal_sequential(self):
        args = [(c, tau) for c in (-0.8, 0.25) for tau in (0.05, 0.3, 1.5)]
        sequential = [halfspace_survival(*a) for a in args]
        results = [None] * len(args)

        def run(i):
            results[i] = halfspace_survival(*args[i])

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(args))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == sequential


def _integrated_survival(c, tau, nodes=40):
    """int_0^tau halfspace_survival(c, t) dt by Gauss-Legendre in s, with
    t = s^2: S(t) has a sqrt(t) term at 0, S(s^2) is smooth in s."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    root = math.sqrt(tau)
    s = 0.5 * root * (s + 1.0)
    return 0.5 * root * sum(wi * 2.0 * si * halfspace_survival(c, si * si)
                            for si, wi in zip(s, w))


class TestHalfspaceOccupation:
    """The exact occupation of parallel half-spaces, which
    ``occupation_pair`` takes for every such pair."""

    @pytest.mark.parametrize("tau", [0.05, 0.5, 1.0, 5.0])
    def test_origin_closed_form(self, tau):
        exact = integrate.quad(lambda t: math.asin(math.exp(-t)) / math.pi,
                               0.0, tau, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(halfspace_occupation(0.0, 0.0, tau) - exact) <= 1e-7

    @pytest.mark.parametrize("c1", [-1.0, 0.3, 1.5])
    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_target_above_offset_is_integrated_survival(self, c1, tau):
        want = _integrated_survival(c1, tau)
        for c2 in (c1, c1 + 2.0, np.inf):
            assert abs(halfspace_occupation(c1, c2, tau) - want) <= 1e-7

    def test_limits(self):
        assert halfspace_occupation(np.inf, 0.3, 2.0) == \
            2.0 * special.ndtr(0.3)
        assert halfspace_occupation(np.inf, np.inf, 2.0) == 2.0
        assert halfspace_occupation(-np.inf, 0.3, 2.0) == 0.0
        assert halfspace_occupation(0.3, -np.inf, 2.0) == 0.0
        assert halfspace_occupation(0.3, 0.1, 0.0) == 0.0
        # a target below the grid: those paths survive to tau
        low = halfspace_occupation(0.0, -12.0, 1.0)
        assert 0.0 < low == special.ndtr(-12.0)
        for c in (-40.0, -10.0, 10.0, 40.0):
            assert 0.0 <= halfspace_occupation(c, c - 0.5, 1.0) \
                <= special.ndtr(c - 0.5)

    def test_rejects_bad_arguments(self):
        for args in ((math.nan, 0.0, 0.5), (0.0, math.nan, 0.5),
                     (0.0, 0.0, math.nan), (0.0, 0.0, -0.1),
                     (0.0, 0.0, math.inf)):
            with pytest.raises(ValueError):
                halfspace_occupation(*args)

    def test_monotone(self):
        values = [[halfspace_occupation(0.5, c2, tau)
                   for tau in (0.1, 0.5, 2.0)] for c2 in (-1.0, 0.0, 0.4)]
        assert all(a < b for row in values for a, b in zip(row, row[1:]))
        assert all(a < b for col in zip(*values) for a, b in zip(col, col[1:]))

    def test_matches_fine_grid(self):
        # the 0.6/0.3 pair: c2 cuts a grid interval, whose share is
        # integrated against the linear interpolant of the survival
        c1, c2, tau = HS_06.offset, HS_03.offset, 0.5
        width = min(ousim._HALFSPACE_WIDTH,
                    ousim._HALFSPACE_LAYER * math.sqrt(tau))
        coarse, fine = (ousim._halfspace_grid(c1, c2, tau, width, nodes,
                                              ousim._occupied)
                        for nodes in (800, 1600))
        ref = (tau * special.ndtr(min(c2, c1 - width))
               + (4.0 * fine - coarse) / 3.0)
        assert abs(halfspace_occupation(c1, c2, tau) - ref) <= 2e-6

    def test_matches_raw_scan(self):
        # the raw grid functional misses the excursions above c1 between
        # grid times, so it estimates the continuous occupation with c1
        # moved out by beta sqrt(2 d), beta = -zeta(1/2) / sqrt(2 pi), to
        # o(sqrt(d)) (Broadie, Glasserman & Kou 1997; the OU diffusion
        # coefficient is sqrt 2); unshifted, it overshoots by about
        # 0.0004 at 2048 steps
        d = 0.5 / 2048
        beta = -special.zeta(0.5) / math.sqrt(2.0 * math.pi)
        est = occupation(HS_06, HS_03, 0.5, 2048, 40_000, 41)
        exact = halfspace_occupation(HS_06.offset + beta * math.sqrt(2.0 * d),
                                     HS_03.offset, 0.5)
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_pair_takes_parallel_pairs_exactly(self):
        balls, halves = (BALL_06, BALL_03), (HS_06, HS_03)
        exact = halfspace_occupation(HS_06.offset, HS_03.offset, 0.5)
        # the ball pair is scanned alone, as occupation scans it
        alone = occupation(*balls, 0.5, 32, 20_000, 15)
        for a, b in ((balls, halves), (halves, balls)):
            occ_a, occ_b, paired = occupation_pair(a, b, 0.5, 32, 20_000, 15)
            held, scanned = (occ_a, occ_b) if a is halves else (occ_b, occ_a)
            assert held.value == exact
            assert (held.std_error, held.samples) == (0.0, 0)
            assert scanned == alone
            assert paired == scanned.std_error
        occ_a, occ_b, paired = occupation_pair(halves, halves, 0.5, 32,
                                               20_000, 15)
        assert occ_a == occ_b and paired == 0.0

    def test_crossed_normals_are_scanned(self):
        crossed = (HS_06, HalfSpace(np.array([0.0, 1.0]), HS_03.offset))
        occ_a, _, _ = occupation_pair(crossed, (HS_06, HS_03), 0.5, 32,
                                      5_000, 16)
        assert occ_a.samples == 5_000 and occ_a.std_error > 0.0


class TestHalfspaceRange:
    """Both exact arms stay in their physical ranges at large offsets,
    where the Richardson residual is of either sign: a survival lies in
    [0, Phi(c)], Pr(Y_0 <= c), and an occupation of {y <= c2} in
    [0, tau Phi(min(c1, c2))], the time a stationary path spends there."""

    OFFSETS = 5.0 + 0.125 * np.arange(57)  # 5 to 12
    TAUS = (0.01, 0.1, 0.5, 0.9, 2.0, 4.0, 10.0, 17.9, 50.0)

    @pytest.mark.parametrize("tau", TAUS)
    def test_survival(self, tau):
        for c in self.OFFSETS:
            assert 0.0 <= halfspace_survival(c, tau) <= special.ndtr(c)

    @pytest.mark.parametrize("tau", TAUS)
    def test_occupation(self, tau):
        # c2 = c1 - 0.3 cuts a grid cell; every fourth offset keeps it quick
        for c1, c2 in [(c, c) for c in self.OFFSETS] + \
                [(c, c - 0.3) for c in self.OFFSETS[::4]]:
            assert 0.0 <= halfspace_occupation(c1, c2, tau) \
                <= tau * special.ndtr(c2)


class TestHalfspacePins:
    """Both exact arms bit for bit, at points that reach every branch of
    their shared spectral sum: the width 12 sqrt(tau) (tau < 0.5625) and
    9, unit target weights (c2 >= c1) and a c2 that cuts a grid cell,
    offsets of 8 and more, where the top eigenvalue is rounding noise
    and the occupation clips to tau Phi(c2), and a survival far below the
    origin that clips to 0."""

    SURVIVAL = [
        ((0.3, 0.3), 0.376755912930131),
        ((0.3, 0.9), 0.21941587081086178),
        ((-0.4, 4.0), 0.0008698212674018158),
        ((1.7, 0.05), 0.9276436522562569),
        ((8.5, 0.3), 0.999999999999996),
        ((-9.0, 0.05), 5.720956322598531e-21),
        ((-6.0, 1.0), 0.0),  # Phi(c) minus the exit is -2.7e-14 here
    ]
    OCCUPATION = [
        ((0.3, 1.2, 0.3), 0.1370561809235332),
        ((-0.7, -0.7, 4.0), 0.08756039366371327),
        ((0.25, -0.5, 0.3), 0.08714052626081496),
        ((0.6, 0.3, 0.9), 0.3997620106503558),
        ((-3.0, -3.4, 0.05), 1.5946961093750933e-05),
        ((8.5, 8.5, 0.9), 0.9),  # clipped to tau Phi(c2)
        ((9.0, 7.3, 4.0), 3.9999999999994245),  # clipped to tau Phi(c2)
    ]

    @pytest.mark.parametrize("args,value", SURVIVAL)
    def test_survival(self, args, value):
        assert halfspace_survival(*args) == value

    @pytest.mark.parametrize("args,value", OCCUPATION)
    def test_occupation(self, args, value):
        assert halfspace_occupation(*args) == value


class TestHalfspaceSolver:
    """The tridiagonal eigensolver behind both exact half-space arms."""

    OFFSETS = [float(special.ndtri(p)) for p in
               (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 1 - 1e-6)]
    TAUS = (1e-4, 1e-2, 0.1, 0.5, 1.0, 5.0, 17.9, 50.0)

    def _values(self):
        survival = [halfspace_survival(c, tau) for c in self.OFFSETS
                    for tau in self.TAUS]
        occupation = [halfspace_occupation(c1, c2, tau) / max(1.0, tau)
                      for c1 in self.OFFSETS for c2 in self.OFFSETS[::4]
                      for tau in self.TAUS]
        return np.array(survival), np.array(occupation)

    def test_matches_dense_eigh(self, monkeypatch):
        import scipy.linalg

        def dense(diag, off, lapack_driver=None):
            return np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                  + np.diag(off, -1))

        survival, occupation = self._values()
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", dense)
        dense_survival, dense_occupation = self._values()
        assert np.abs(survival - dense_survival).max() <= 1e-10
        # occupations reach tau, so they are compared per unit of time
        assert np.abs(occupation - dense_occupation).max() <= 2e-11

    def test_leaves_no_blas_thread_spinning(self):
        # a pooled OpenBLAS call leaves its threads spinning for about
        # 0.13 s of CPU after it returns, which the OU scans' shards
        # would otherwise have; the first sleep lets any earlier spin end
        def cpu_s():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime

        time.sleep(0.3)
        halfspace_survival(0.3, 0.5)
        before = cpu_s()
        time.sleep(0.3)
        assert cpu_s() - before < 0.03


class TestOccupation:
    def test_empty_target(self):
        empty = Intersection((Ball(np.array([5.0, 5.0]), 0.5),
                              Ball(np.array([-5.0, -5.0]), 0.5)))
        est = occupation(FULL, empty, 0.5, 32, 5000, 1)
        assert est.value == 0.0

    def test_full_everything_gives_horizon(self):
        est = occupation(FULL, FULL, 0.75, 32, 2000, 2)
        assert abs(est.value - 0.75) <= 1e-12

    def test_value_bounded_by_horizon(self):
        est = occupation(HS0, HALF_BALL, 0.5, 64, 10_000, 3)
        assert 0.0 <= est.value <= 0.5

    def test_fine_grid_consistency(self):
        a = occupation(HS0, HS0, 0.5, 128, 40_000, 4)
        b = occupation(HS0, HS0, 0.5, 512, 40_000, 5)
        comb = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3 * comb + 0.01

    def test_pair_identical_sets_zero_margin(self):
        occ_a, occ_b, paired = occupation_pair((HS0, HS0), (HS0, HS0),
                                               0.5, 64, 10_000, 6)
        assert occ_a.value == occ_b.value
        assert paired == 0.0


class TestSemigroup:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            semigroup_apply(HS0, -0.1, np.zeros(2), 100, 1)

    def test_rejects_nan_time(self):
        # NaN draws lie in no set, which would read as 0.0 +- 0.0
        with pytest.raises(ValueError):
            semigroup_apply(HS0, float("nan"), np.zeros(2), 100, 1)

    def test_zero_time_exact_membership(self):
        est = semigroup_apply(HS0, 0.0, np.array([-1.0, 0.0]), 100, 1)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_long_time_reaches_measure(self):
        est = semigroup_apply(HALF_BALL, 20.0, np.array([3.0, -2.0]),
                              200_000, 2)
        assert abs(est.value - 0.5) <= 3 * est.std_error

    def test_symmetric_point(self):
        est = semigroup_apply(HS0, 0.7, np.array([0.0, 1.3]), 200_000, 3)
        assert abs(est.value - 0.5) <= 3 * est.std_error

    def test_matches_closed_form(self):
        rng = np.random.default_rng(20)
        hs = HalfSpace(np.array([0.6, 0.8]), 0.3)
        for trial in range(5):
            x = rng.standard_normal(2)
            t = float(rng.uniform(0.1, 1.5))
            mc = semigroup_apply(hs, t, x, 200_000, 100 + trial)
            exact = heat_flow(hs, t, x)
            assert abs(mc.value - exact) <= 3 * max(mc.std_error, 1e-5)

    def test_closed_form_values(self):
        # the flow of {y <= c} in 1-d at the point y = u
        def flow(c, t, u):
            return heat_flow(HalfSpace(np.ones(1), c), t, np.array([u]))

        assert flow(0.0, 1.0, 0.0) == 0.5
        # stationary limit
        assert abs(flow(0.7, 40.0, 5.0) - float(std_normal_cdf(0.7))) <= 1e-12
        # unit slope at t = ln sqrt(2): coefficient of u is -1
        v = flow(0.0, math.log(math.sqrt(2.0)), 1.0)
        assert abs(v - 0.15865525393145707) <= 1e-12


class TestGradientBound:
    def test_halfspace_ratio_one(self):
        res = gradient_bound_check(HS0, 0.5, 6, 1)
        assert abs(res.max_ratio - 1.0) <= 0.02

    def test_ball_within_bound(self):
        res = gradient_bound_check(HALF_BALL, 0.5, 6, 2, samples=200_000)
        assert res.max_ratio <= 1.02

    def test_long_time_flat(self):
        res = gradient_bound_check(HALF_BALL, 3.0, 4, 3, samples=200_000)
        assert res.max_ratio <= 0.25

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            gradient_bound_check(HS0, 0.0, 4, 1)


class TestDominanceRefined:
    def test_equal_sets_zero_everything(self):
        r = exit_dominance_refined(HS0, HS0, 0.4, 32, 10_000, 1)
        assert r.est_a.value == r.est_b.value
        assert r.paired_se == 0.0
        assert r.margin_change == 0.0

    @pytest.mark.parametrize("refine", [0, -1, 1.7, math.nan])
    def test_rejects_bad_refine(self, refine):
        msg = "refine must be an integer >= 1"
        with pytest.raises(ValueError, match=msg):
            exit_survival_refined(HALF_BALL, 0.5, 8, 100, 1, refine=refine)
        with pytest.raises(ValueError, match=msg):
            exit_dominance_refined(HALF_BALL, HS0, 0.5, 8, 100, 1, refine)

    def test_changes_nonnegative(self):
        # the raw grid monitor nests pathwise, so its fine total is at most
        # its coarse one in every start cell; the corrected changes are
        # signed and carry their own standard errors
        m = ousim._survival_scan([HALF_BALL, HS0], 0.4, 64, 20_000, 2,
                                 refine=2)
        for arm in (0, 1):
            raw, fine = (m.sums[:, m.column(block, arm)]
                         for block in ("raw", "raw_fine"))
            assert np.all(raw >= fine) and raw.sum() > fine.sum()


class _CountingRng:
    """Generator proxy that records the shape of every normal draw."""

    def __init__(self, rng, shapes):
        self._rng = rng
        self._shapes = shapes

    def standard_normal(self, size=None, out=None):
        self._shapes.append(tuple(size) if out is None else out.shape)
        return self._rng.standard_normal(size, out=out)


@pytest.fixture
def draws(monkeypatch):
    shapes = []
    real = ousim.derive_rng
    monkeypatch.setattr(ousim, "derive_rng",
                        lambda *key: _CountingRng(real(*key), shapes))
    return shapes


@pytest.fixture
def step_rows(monkeypatch):
    """The rows of every step a scan commits, in order."""
    rows = []
    real = ousim._commit

    def commit(inside, alive):
        k, drop = real(inside, alive)
        rows.extend([inside.shape[2]] * k)
        return k, drop

    monkeypatch.setattr(ousim, "_commit", commit)
    return rows


@pytest.fixture
def step_units(monkeypatch):
    """(rows, units) of every step a scan commits, in order: a unit is a
    pair, which steps with one normal vector for its two rows, or a
    single row."""
    steps, block = [], []
    advance, commit = ousim._advance, ousim._commit

    def paired_advance(states, z, pairs, decay, scale):
        assert z.shape[1] == len(states) - pairs and 2 * pairs <= len(states)
        block[:] = [(len(states), z.shape[1])]
        return advance(states, z, pairs, decay, scale)

    def counted_commit(inside, alive):
        k, drop = commit(inside, alive)
        steps.extend(block * k)
        return k, drop

    monkeypatch.setattr(ousim, "_advance", paired_advance)
    monkeypatch.setattr(ousim, "_commit", counted_commit)
    return steps


def _normals(shapes, dim, step_units):
    """(drawn, consumed) normals of a one-shard scan: the draws recorded
    by ``draws``, and the start plus one vector per unit of every
    committed step."""
    drawn = sum(math.prod(shape) for shape in shapes)
    return drawn, dim * (shapes[0][0] + sum(u for _, u in step_units))


class TestShards:
    @pytest.mark.parametrize("paths", [1, 2, 16_383, 16_384, 16_385, 65_535,
                                       65_536, 70_000, 1_000_000])
    def test_near_equal_split(self, paths):
        shards = ousim._shards(paths)
        sizes = [size for _, size in shards]
        assert [index for index, _ in shards] == list(range(len(shards)))
        assert sum(sizes) == paths and max(sizes) - min(sizes) <= 1
        if 4 * paths < seeding.BATCH:
            assert len(shards) == 1
        else:
            assert len(shards) == 2 * math.ceil(paths / seeding.BATCH)

    def test_batch_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(seeding, "BATCH", 7000)
        assert len(ousim._shards(70_000)) == 20
        assert ousim._shards(1749) == [(0, 1749)]
        assert len(ousim._shards(1750)) == 2

    def test_split_ignores_workers(self, monkeypatch):
        splits = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            splits.append([ousim._shards(p) for p in (3000, 25_000, 70_000)])
        assert splits[0] == splits[1] == splits[2]

    @pytest.mark.parametrize("paths", [0, -5])
    def test_rejects_no_paths(self, paths):
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            ousim._shards(paths)
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            exit_survival(HALF_BALL, 0.5, 8, paths, 1)
        # pairs whose arms are all exact run no scan, and check the paths
        # all the same
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            exit_survival_pair(HS_06, HS0, 0.5, 8, paths, 1)
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            occupation_pair((HS_06, HS_03), (HS0, HS0), 0.5, 8, paths, 1)


class TestCompaction:
    POINT = Ball(np.zeros(2), 0.0)  # every path starts outside

    def test_dead_at_start_exit(self, draws, step_rows):
        # 3,000 paths are 1,500 pairs, each drawing one start
        est = exit_survival(self.POINT, 0.5, 64, 3000, 1)
        assert est.value == 0.0 and est.std_error == 0.0
        assert draws == [(1500, 2)] and step_rows == []

    def test_dead_at_start_refined(self, draws, step_rows):
        r = exit_dominance_refined(self.POINT, self.POINT, 0.5, 64, 3000, 1)
        assert r.est_a.value == r.est_b.value == 0.0
        assert r.change_a == r.margin_change == 0.0
        assert draws == [(1500, 2)] and step_rows == []

    def test_dead_at_start_occupation(self, draws, step_rows):
        est = occupation(self.POINT, FULL, 0.5, 64, 3001, 1)
        assert est.value == 0.0 and est.std_error == 0.0
        assert draws == [(1501, 2)] and step_rows == []

    def test_no_exit_draws_every_path(self, draws, step_units):
        # nothing leaves A_1, so nothing is dropped: every step draws one
        # normal vector per pair, and no block is cut, so every normal
        # drawn is used
        est = occupation(FULL, HALF_BALL, 0.5, 64, 3000, 11)
        assert draws[0] == (1500, 2) and step_units == [(3000, 1500)] * 64
        drawn, consumed = _normals(draws, 2, step_units)
        assert drawn == consumed
        assert est.value == 0.24627864583333334
        assert est.std_error == 0.003619203001569907

    def test_dropped_paths_keep_their_counts(self):
        # the occupation of {x_1 <= 0} before leaving it is the integral
        # of the survival asin(e^{-t})/pi, which the raw grid overshoots
        # (+0.020 at 256 steps); losing the counts of dropped paths would
        # undershoot it by 0.08
        est = occupation(HS0, HS0, 1.0, 256, 20_000, 13)
        exact = integrate.quad(lambda t: math.asin(math.exp(-t)) / math.pi,
                               0.0, 1.0)[0]
        assert exact - 3 * est.std_error <= est.value <= exact + 0.03

    def test_draws_shrink_with_survivors(self, draws, step_units):
        # a pair that loses one row goes on as a single, which draws its
        # own normals: units never outnumber rows or fall below half
        exit_survival(HALF_BALL, 1.0, 128, 3000, 2)
        assert draws[0] == (1500, 2) and len(step_units) <= 128
        rows = [3000] + [r for r, _ in step_units]
        units = [1500] + [u for _, u in step_units]
        assert all(b <= a for a, b in zip(rows, rows[1:]))
        assert all(b <= a for a, b in zip(units, units[1:]))
        assert rows[-1] < 3000 * ousim._LIVE_SHARE
        assert any(2 * u > r for r, u in step_units)
        # the normals a cut block left unused are the next round's: no
        # more than one block is ever drawn ahead
        drawn, consumed = _normals(draws, 2, step_units)
        assert consumed <= drawn <= consumed + ousim._BLOCK_STATES

    def test_coarse_monitor_kept_alive(self):
        # with refine=2 a path that left on the fine grid may still be
        # alive on the coarse one; the coarse raw survival must match an
        # independent scan on the coarse grid alone, which it would
        # undershoot by the raw drop (about 7 SE here) if such paths
        # were dropped
        coarse, fine, drop, _ = exit_survival_refined(
            HALF_BALL, 0.5, 16, 40_000, 31, refine=2)
        alone, _, _, _ = exit_survival_refined(HALF_BALL, 0.5, 16, 40_000,
                                               32, refine=1)
        a, b = coarse, alone
        assert drop > 0.0
        assert abs(a.value - b.value) <= 3 * math.hypot(a.std_error,
                                                        b.std_error)


BALL_06 = Ball(np.zeros(2), 1.353728726055671)
BALL_03 = Ball(np.zeros(2), 0.8446004309005916)
HS_06 = HalfSpace(np.array([1.0, 0.0]), 0.2533471031357997)
HS_03 = HalfSpace(np.array([1.0, 0.0]), -0.5244005127080407)


def _stepped_scan(dim, tau, steps, paths, seed, start, update, columns,
                  cells):
    """The shard loop as it ran before blocks, in antithetic pairs: one
    step per round, the normals of each step drawn when it is taken, one
    vector per pair (+z for its first row, -z for its second) and per
    single. Rows are laid out as the first rows of the pairs, the
    second rows, then the singles; when fewer than 7/8 of the rows are
    live, the dead rows go, and the live row of a pair whose partner died
    joins the singles. Returns, per shard, each unit's start cell, path
    count and values (its rows' values summed), in unit order, and the
    number of pairs that lost one row and went on as a single."""
    _, steps, decay, scale = ousim._grid_params(tau, steps)

    def shard(part):
        index, c = part
        pairs, lone = divmod(c, 2)
        rng = seeding.derive_rng(seed, "exit", index)
        starts = rng.standard_normal((pairs + lone, dim))
        cell, arrays = start(starts)
        count = np.r_[np.full(pairs, 2.0), np.ones(lone)]
        unit = np.r_[np.arange(pairs), np.arange(pairs + lone)]
        states = starts[unit]
        arrays = [x[:, unit] for x in arrays]
        values = np.zeros((len(columns(*arrays)), pairs + lone))
        demoted = 0

        def settle(rows):
            np.add.at(values, (slice(None), unit[rows]),
                      columns(*(x[:, rows] for x in arrays)))

        for i in range(1, steps + 1):
            live = arrays[0].any(axis=0)
            if np.count_nonzero(live) < ousim._LIVE_SHARE * live.size:
                settle(~live)
                plus, minus = live[:pairs], live[pairs:2 * pairs]
                both = [j for j in range(pairs) if plus[j] and minus[j]]
                one = [j if plus[j] else pairs + j for j in range(pairs)
                       if plus[j] != minus[j]]
                singles = [j for j in range(2 * pairs, len(live)) if live[j]]
                order = np.array(both + [pairs + j for j in both] + singles
                                 + one, dtype=int)
                demoted += len(one)
                pairs = len(both)
                states, unit = states[order], unit[order]
                arrays = [x[:, order] for x in arrays]
                if not len(states):
                    break
            z = rng.standard_normal((len(states) - pairs, dim))
            inc = np.concatenate([z[:pairs], -z[:pairs], z[pairs:]])
            states *= decay
            inc *= scale
            states += inc
            update(i, states, *arrays)
        settle(np.arange(len(states)))
        return cell, count, values, demoted

    return [shard(part) for part in ousim._shards(paths)], cells


def _unit_moments(reference):
    """The cell sums and cross-products of a stepped reference, tallied
    per shard and summed in shard order, as ``ousim._scan`` does."""
    shards, cells = reference
    sums = cross = 0.0
    for cell, count, values, _ in shards:
        s, q = ousim._tally(cell, count, values, cells)
        sums, cross = sums + s, cross + q
    return sums, cross


def _stepped_survival(regions, tau, steps, paths, seed, *, cuts, refine=1):
    """``ousim._survival_scan`` stepped one step at a time, its start
    cells cut at each region's own ``cuts``."""
    tau, steps, _, _ = ousim._grid_params(tau, steps)
    inv_fine = ousim._inv_sinh(tau / (steps * refine))
    inv_coarse = ousim._inv_sinh(tau / steps)
    r = len(regions)

    def start(states):
        last = np.array([boundary_distance(reg, states)
                         for reg in regions] * min(refine, 2))
        cell = ousim._cell(last[:r] >= 0.0, last[:r], cuts)
        return cell, [last >= 0.0, np.ones_like(last), last]

    def monitor(alive, weight, a0, a1, inv):
        alive &= a1 >= 0.0
        if inv is not None:
            x = a0 * a1
            x *= -inv
            near = np.flatnonzero(alive & (x > -40.0))
            weight[near] *= -np.expm1(x[near])

    def update(i, states, alive, weight, last):
        on_coarse = refine > 1 and i % refine == 0
        for idx, reg in enumerate(regions):
            a1 = boundary_distance(reg, states)
            rows = (idx, r + idx) if on_coarse else (idx,)
            for row, inv in zip(rows, (inv_fine, inv_coarse)):
                monitor(alive[row], weight[row], last[row], a1, inv)
                last[row] = a1

    def columns(alive, weight, last):
        # coarse weight, coarse raw, then fine weight and raw
        w = np.where(alive, weight, 0.0)
        rows = [w[-r:], alive[-r:]]
        if refine > 1:
            rows += [w[:r], alive[:r]]
        return np.vstack(rows).astype(float)

    return _stepped_scan(regions[0].dim, tau, steps * refine, paths, seed,
                         start, update, columns, ousim._CELL ** r)


def _stepped_occupation(pairs, tau, steps, paths, seed, *, cuts):
    """``ousim._occupation_scan`` stepped one step at a time, its start
    cells cut at each A_1's own ``cuts``."""

    def start(states):
        alive = np.array([contains(a1, states) for a1, _ in pairs])
        dist = [boundary_distance(a1, states) for a1, _ in pairs]
        return (ousim._cell(alive, dist, cuts),
                [alive, np.zeros(alive.shape, dtype=np.int64)])

    def update(i, states, alive, counts):
        for idx, (a1, a2) in enumerate(pairs):
            counts[idx] += alive[idx] & contains(a2, states)
            alive[idx] &= contains(a1, states)

    def columns(alive, counts):
        return counts.astype(float)

    return _stepped_scan(pairs[0][0].dim, tau, steps, paths, seed, start,
                         update, columns, ousim._CELL ** len(pairs))


def _same_moments(m, reference):
    sums, cross = _unit_moments(reference)
    return np.array_equal(m.sums, sums) and np.array_equal(m.cross, cross)


def _cuts(sets, tau):
    return [ousim._shells(s, tau)[0] for s in sets]


# a half-space that every path leaves by tau = 3, the last one alone, and
# a ball whose few starting paths all leave in the first step of a block
LEAVING = HalfSpace(np.array([0.6, 0.8]), -1.2)
TINY = Ball(np.zeros(2), 0.05)
SLANTED = HalfSpace(np.array([0.6, 0.8]), 0.8)


class TestBlocksMatchSteps:
    """The blocked scans return exactly the cell moments of the scan that
    stepped one step at a time and tallied every path with its values:
    the same rows, normals and float operations at every step. Each
    start set is cut into its shells, so the paths fall into several
    cells."""

    EXIT = {
        "one region": ([HALF_BALL], 0.5, 37, 1),
        "two regions": ([HALF_BALL, HS0], 0.5, 37, 1),
        "refine 2": ([HALF_BALL, HS0], 0.5, 37, 2),
        "refine 3": ([HS0], 0.4, 13, 3),
        "zero horizon": ([HALF_BALL, HS0], 0.0, 37, 2),
        "last row alone": ([LEAVING], 3.0, 151, 1),
        "dead mid-block": ([TINY], 3.0, 7, 1),
    }
    OCCUPATION = {
        "one pair": ([(BALL_06, BALL_03)], 0.5, 37),
        "two pairs": ([(BALL_06, BALL_03), (BALL_06, HS_03)], 0.5, 37),
        "zero horizon": ([(BALL_06, BALL_03)], 0.0, 37),
        "last row alone": ([(LEAVING, HS0)], 3.0, 151),
        "dead mid-block": ([(TINY, TINY)], 3.0, 7),
    }

    @pytest.mark.parametrize("paths", [3000, 40_000])
    @pytest.mark.parametrize("case", sorted(EXIT))
    def test_exit(self, case, paths):
        regions, tau, steps, refine = self.EXIT[case]
        args = (regions, tau, steps, paths, 3)
        assert _same_moments(
            ousim._survival_scan(*args, refine=refine),
            _stepped_survival(*args, cuts=_cuts(regions, tau), refine=refine))

    @pytest.mark.parametrize("paths", [3000, 40_000])
    @pytest.mark.parametrize("case", sorted(OCCUPATION))
    def test_occupation(self, case, paths):
        pairs, tau, steps = self.OCCUPATION[case]
        args = (pairs, tau, steps, paths, 3)
        cuts = _cuts([a1 for a1, _ in pairs], tau)
        assert _same_moments(ousim._occupation_scan(*args),
                             _stepped_occupation(*args, cuts=cuts))

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_single_path(self, seed):
        # numpy takes a one-row product with the normal through a dot,
        # whose last bits differ from a batched product's in about a
        # third of the points here; the projection sums the columns in
        # a fixed order instead, so a lone live row may take a block
        args = ([SLANTED], 2.0, 4, 1, seed)
        assert _same_moments(ousim._survival_scan(*args),
                             _stepped_survival(*args,
                                               cuts=_cuts([SLANTED], 2.0)))

    def test_one_tally_per_shard(self, monkeypatch):
        # a finished row adds its values to its unit when it drops, and
        # each shard tallies its units once, at the end: 1,500 pairs at
        # 3,000 paths, and 10,000 pairs plus a lone path and 10,000 pairs
        # in the two shards of 40,001 paths
        calls = []
        real = ousim._tally
        monkeypatch.setattr(ousim, "_tally",
                            lambda *a: calls.append(len(a[0])) or real(*a))
        ousim._survival_scan([HALF_BALL], 0.5, 37, 3000, 3)
        ousim._occupation_scan([(BALL_06, BALL_03)], 0.5, 37, 3000, 3)
        m = ousim._occupation_scan([(BALL_06, BALL_03)], 0.5, 37, 40_001, 3)
        assert sorted(calls) == [1500, 1500, 10_000, 10_001]
        assert m.sums[:, 0].sum() == 40_001

    def test_cases_reach_their_edges(self, step_rows):
        # the scan ends on one live row, and the tiny ball loses both
        # rows of its one starting pair in the first step of a seven-step
        # block
        ousim._survival_scan([LEAVING], 3.0, 151, 3000, 3)
        assert step_rows[-1] == 1 and len(step_rows) < 151
        step_rows.clear()
        ousim._occupation_scan([(TINY, TINY)], 3.0, 7, 3000, 3)
        assert step_rows == [2]


# the Gaussian measure of an n = 3 composite is Monte Carlo
SLAB_BALL = Intersection((Ball(np.zeros(3), 1.5),
                          HalfSpace(np.array([1.0, 0.0, 0.0]), 0.3)))


def _one_cell(m):
    """The moments ``m`` of a one-arm scan with every start cell inside
    the start set merged into cell 1, and its levels cut to [mu(A), 0]:
    the start set as one stratum."""
    sums, cross = m.sums.copy(), m.cross.copy()
    for x in (sums, cross):
        x[1] = x[1:].sum(axis=0)
        x[2:] = 0.0
    return dataclasses.replace(m, sums=sums, cross=cross,
                               levels=[m.levels[0][[0, -1]]])


class TestPostStratification:
    """The scanned estimates sum, over shells of the start set A, each
    shell's exact measure times the mean value of the paths that start
    in it, where mu(A) is exact, and give the plain mean where it is
    Monte Carlo."""

    POINT = Ball(np.zeros(2), 0.0)

    def test_runs(self):
        assert ousim._MIN_STARTS == 20
        assert ousim._runs([25.0, 5.0, 30.0, 3.0]) == [0, 1, 4]
        assert ousim._runs([5.0, 5.0, 5.0]) == [0, 3]
        assert ousim._runs([0.0, 0.0, 40.0, 20.0]) == [0, 3, 4]
        assert ousim._runs([40.0, 0.0, 0.0]) == [0, 3]
        assert ousim._runs([0.0]) == [0, 1]

    def test_shells(self):
        # delta_j = j sigma / 2 up to the first empty level set, at most
        # eight shells, one at tau = 0, none for a Monte Carlo measure
        sigma = math.sqrt(-math.expm1(-1.0))
        cuts, levels = ousim._shells(HALF_BALL, 0.5)
        assert np.array_equal(cuts, [0.5 * sigma, sigma])
        assert levels[0] == gaussian_measure(HALF_BALL).value
        assert levels[-1] == 0.0 and np.all(np.diff(levels) < 0.0)
        assert levels[1] == pytest.approx(
            1.0 - math.exp(-0.5 * (HALF_BALL.radius - 0.5 * sigma) ** 2))
        cuts, levels = ousim._shells(HS0, 0.5)
        assert len(cuts) == 7 and levels[-2] == pytest.approx(
            special.ndtr(-3.5 * sigma))
        cuts, levels = ousim._shells(HALF_BALL, 0.0)
        assert len(cuts) == 0 and list(levels) == [levels[0], 0.0]
        cuts, levels = ousim._shells(SLAB_BALL, 0.5)
        assert len(cuts) == 0 and levels is None

    def test_no_path_starts_inside(self):
        # the tiny ball holds 0.1% of the mass: none of 20 paths starts in
        # it, and no path starts in the point
        m = ousim._survival_scan([TINY], 0.5, 8, 20, 1)
        assert m.sums[0, 0] == 20.0 and not m.sums[1:, 0].any()
        for s, paths in ((TINY, 20), (self.POINT, 3000)):
            results = [exit_survival(s, 0.5, 8, paths, 1),
                       occupation(s, FULL, 0.5, 8, paths, 1)]
            a, b, paired = exit_survival_pair(s, self.POINT, 0.5, 8, paths, 1)
            results += [a, b]
            assert paired == 0.0
            a, b, paired = occupation_pair((s, FULL), (self.POINT, s), 0.5,
                                           8, paths, 1)
            results += [a, b]
            assert paired == 0.0
            for est in results:
                assert (est.value, est.std_error) == (0.0, 0.0)
                assert est.samples == paths

    def test_few_starts_merge_to_one_stratum(self):
        # at 20 paths no shell of the half-measure ball holds 20 starts,
        # so they merge into the start set alone: the one-stratum scan,
        # read off the scan's cells merged into one
        assert len(ousim._shells(HALF_BALL, 0.5)[0]) == 2
        for seed in range(1, 6):
            m = _one_cell(ousim._survival_scan([HALF_BALL], 0.5, 8, 20, seed))
            want = m.estimate(m.mean("coarse", 0))
            m = _one_cell(ousim._occupation_scan([(HALF_BALL, FULL)], 0.5, 8,
                                                 20, seed))
            want_occ = m.estimate(m.mean("count", 0, 0.5 / 8))
            for got, ref in ((exit_survival(HALF_BALL, 0.5, 8, 20, seed),
                              want),
                             (occupation(HALF_BALL, FULL, 0.5, 8, 20, seed),
                              want_occ)):
                assert got.value == pytest.approx(ref.value, rel=1e-12)
                assert got.std_error == pytest.approx(ref.std_error,
                                                      rel=1e-12)
                assert got.std_error > 0.0

    def test_identical_arms_pair_exactly(self):
        a, b, paired = exit_survival_pair(HALF_BALL, HALF_BALL, 0.5, 32,
                                          20_000, 3)
        assert a == b and a.std_error > 0.0 and paired == 0.0
        pair = (BALL_06, BALL_03)
        a, b, paired = occupation_pair(pair, pair, 0.5, 32, 20_000, 4)
        assert a == b and a.std_error > 0.0 and paired == 0.0
        r = exit_dominance_refined(HALF_BALL, HALF_BALL, 0.5, 32, 20_000, 5)
        assert r.est_a == r.est_b and r.paired_se == 0.0
        assert r.change_a == r.change_b and r.change_a_se > 0.0
        assert r.margin_change == 0.0 and r.margin_change_se == 0.0

    def test_monte_carlo_measure_keeps_the_plain_mean(self):
        assert ousim.exact_measure(SLAB_BALL) is None
        m = ousim._survival_scan([SLAB_BALL], 0.5, 32, 20_000, 6)
        assert m.levels == [None]
        est = exit_survival(SLAB_BALL, 0.5, 32, 20_000, 6)
        m2 = ousim._occupation_scan([(SLAB_BALL, Ball(np.zeros(3), 1.0))],
                                    0.5, 32, 20_000, 7)
        occ = occupation(SLAB_BALL, Ball(np.zeros(3), 1.0), 0.5, 32, 20_000,
                         7)
        for moments, block, scale, got in ((m, "coarse", 1.0, est),
                                           (m2, "count", 0.5 / 32, occ)):
            # the residual of a unit of n paths with summed value V is
            # V - n mean, and the units are independent
            v = moments.column(block, 0)
            mean = moments.sums[:, v].sum() / 20_000
            vv, nv, nn = (moments.cross[:, i, j].sum()
                          for i, j in ((v, v), (0, v), (0, 0)))
            var = (vv - 2.0 * mean * nv + mean * mean * nn) / 20_000
            assert got.value == pytest.approx(scale * mean, rel=1e-12)
            assert got.std_error == pytest.approx(
                scale * math.sqrt(var / 20_000), rel=1e-12)
            assert mean > 0.0

    def test_calibrated_on_origin_halfspace(self):
        # the bridge-corrected survival in a half-space through the origin
        # is exact, so z = (estimate - exact) / SE is a standard normal
        # draw per seed, up to the Monte Carlo error of the SE itself
        exact = halfspace_survival(0.0, 0.5)
        assert len(ousim._shells(HS0, 0.5)[0]) == 7  # eight shells
        z = [(est.value - exact) / est.std_error
             for est in (exit_survival(HS0, 0.5, 64, 20_000, seed)
                         for seed in range(1, 61))]
        assert abs(np.mean(z)) <= 0.5
        assert 0.8 <= np.std(z, ddof=1) <= 1.2

    def test_smaller_se_on_the_short_horizon_ball(self):
        # the short-horizon exit scan of the ou-scan benchmark: a centred
        # ball of measure 1/2 at tau = 0.1, where half the paths start
        # outside and the survival is 0.29; on its six shells a path
        # deep inside almost always survives
        ball = Ball(np.zeros(2), math.sqrt(2.0 * math.log(2.0)))
        m = ousim._survival_scan([ball], 0.1, 512, 25_000, 1)
        shells = m.std_error(m.mean("coarse", 0))
        one = _one_cell(m)
        start = one.std_error(one.mean("coarse", 0))
        plain = m.std_error(m.plain("coarse", 0))
        assert len(m.levels[0]) == 7  # six shells
        assert start <= 0.8 * plain
        assert shells <= 0.88 * start


class TestAntithetic:
    """The scans run their paths in antithetic pairs: both rows of a pair
    start at one point and step with +z and -z, a pair that has lost one
    row goes on as a single with the finished row's values fixed, and
    every standard error is that of the unit (pair, single or lone path)
    residual sums."""

    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_calibrated_on_origin_halfspace(self, tau):
        # exact for a half-space through the origin, so z = (estimate -
        # exact) / SE is a standard normal draw per seed if the paired SE
        # is right; over 100 seeds the sample sd of z has an SE of 0.07
        exact = halfspace_survival(0.0, tau)
        z = [(est.value - exact) / est.std_error
             for est in (exit_survival(HS0, tau, 64, 20_000, seed)
                         for seed in range(1, 101))]
        assert abs(np.mean(z)) <= 0.5
        assert 0.8 <= np.std(z, ddof=1) <= 1.2

    @pytest.mark.parametrize("scan", ["exit", "occupation"])
    def test_clustered_se_by_hand(self, scan):
        # the SE of the unit sums of the stepped reference: residuals of
        # the paths of a unit are summed before squaring
        paths, s = 3001, (HALF_BALL if scan == "exit" else BALL_06)
        cuts, levels = ousim._shells(s, 0.5)
        if scan == "exit":
            args = ([s], 0.5, 37, paths, 3)
            m = ousim._survival_scan(*args)
            shards, _ = _stepped_survival(*args, cuts=[cuts])
            block = "coarse"
        else:
            args = ([(s, BALL_03)], 0.5, 37, paths, 3)
            m = ousim._occupation_scan(*args)
            shards, _ = _stepped_occupation(*args, cuts=[cuts])
            block = "count"
        assert sum(demoted for *_, demoted in shards) > 100
        cell, n = (np.concatenate([sh[i] for sh in shards]) for i in (0, 1))
        v = np.concatenate([sh[2][0] for sh in shards])
        assert n.sum() == paths and np.count_nonzero(n == 1) == 1
        edges = ousim._runs(np.bincount(cell, n)[1:len(levels)])
        value, residual = 0.0, np.zeros(len(cell))
        for lo, hi in zip(edges, edges[1:]):
            run = (cell > lo) & (cell <= hi)
            q = v[run].sum() / n[run].sum()
            mu = levels[lo] - levels[hi]
            residual[run] = mu * paths / n[run].sum() * (v[run] - n[run] * q)
            value += mu * q
        est = m.mean(block, 0)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert m.std_error(est) == pytest.approx(
            math.sqrt(np.sum(residual ** 2)) / paths, rel=1e-9)
        q = v.sum() / paths
        assert m.std_error(m.plain(block, 0)) == pytest.approx(
            math.sqrt(np.sum((v - n * q) ** 2)) / paths, rel=1e-9)
        if scan == "exit":
            # the raw oracle is the plain mean of the raw column summed
            # over the shell cells; its count total is exact
            raw = np.concatenate([sh[2][1] for sh in shards])
            q = raw.sum() / paths
            est = m.plain("raw", 0)
            assert m.std_error(est) == pytest.approx(
                math.sqrt(np.sum((raw - n * q) ** 2)) / paths, rel=1e-9)
            coarse, *_ = exit_survival_refined(s, 0.5, 37, paths, 3,
                                               refine=1)
            assert coarse.value == est.value == q
            assert coarse.std_error == m.std_error(est)

    @pytest.mark.parametrize("paths,lone", [(8000, 0), (8001, 1),
                                            (40_000, 0), (40_001, 1)])
    def test_odd_shard_holds_one_lone_unit(self, paths, lone):
        # the count column sums n = 2 pairs + lone paths and its square
        # n^2 = 4 pairs + lone; 40,001 paths are shards of 20,001 and
        # 20,000
        m = ousim._survival_scan([HALF_BALL], 0.5, 8, paths, 3)
        count, square = m.sums[:, 0].sum(), m.cross[:, 0, 0].sum()
        assert count == paths and 2 * count - square == lone

    def test_partners_share_their_start(self, monkeypatch):
        # nothing leaves the full space, so the first round steps every
        # row from its start: partners from one start point, with +z and
        # -z, and the lone path from its own
        rounds = []
        real = ousim._advance

        def advance(states, z, pairs, decay, scale):
            out = real(states, z, pairs, decay, scale)
            rounds.append((states, z, pairs, decay, scale, out))
            return out

        monkeypatch.setattr(ousim, "_advance", advance)
        ousim._occupation_scan([(FULL, HALF_BALL)], 0.5, 4, 3001, 5)
        states, z, pairs, decay, scale, out = rounds[0]
        starts = seeding.derive_rng(5, "exit", 0).standard_normal((1501, 2))
        assert pairs == 1500 and z.shape == (4, 1501, 2)
        assert np.array_equal(states, starts[np.r_[0:1500, 0:1501]])
        assert np.array_equal(out[0, :1500], states[:1500] * decay
                              + z[0, :1500] * scale)
        assert np.array_equal(out[0, 1500:3000], states[1500:3000] * decay
                              - z[0, :1500] * scale)
        assert np.array_equal(out[0, 3000], states[3000] * decay
                              + z[0, 1500] * scale)


def _occupation_case():
    # two scanned pairs (two half-spaces with one normal would be exact)
    a, b, paired = occupation_pair((BALL_06, BALL_03), (BALL_06, HS_03), 0.5,
                                   32, 70_000, 21)
    return a.value, a.std_error, b.value, b.std_error, paired


def _exit_case():
    # one scanned region: a dropped row's values are 0
    est = exit_survival(HALF_BALL, 0.5, 32, 70_000, 23)
    return est.value, est.std_error


def _single_occupation_case():
    # one scanned pair: a dropped row adds its counts to its unit
    est = occupation(BALL_06, BALL_03, 0.5, 32, 70_000, 24)
    return est.value, est.std_error


def _dominance_case():
    r = exit_dominance_refined(HALF_BALL, HS0, 0.5, 32, 70_000, 22)
    return (r.est_a.value, r.est_b.value, r.paired_se,
            r.change_a, r.change_b, r.margin_change, r.margin_change_se)


class TestWorkerCount:
    """The shards of a scan run on the thread pool and their sums are
    merged in shard order, so results do not depend on the worker count
    and equal those of the sequential scans (pinned here)."""

    CASES = {"occupation_pair": _occupation_case,
             "exit_dominance_refined": _dominance_case,
             "exit_survival": _exit_case,
             "occupation": _single_occupation_case}
    # 70,000 paths are four shards at the default batch size and twenty
    # at 7,000, where the order of the float sums matters
    PINNED = {
        ("occupation_pair", seeding.BATCH): (
            0.10950739224303954, 0.0004016578062431989, 0.03565748872284022,
            0.00028024474812744175, 0.00047185721797063867),
        ("occupation_pair", 7000): (
            0.10854598360692963, 0.0003974567172144427, 0.03566456031746801,
            0.000278379410876901, 0.0004631470933790375),
        ("exit_dominance_refined", seeding.BATCH): (
            0.0753398879599918, 0.20734315130284253, 0.0012333720479507729,
            -0.00024755841357491926, 0.00012093651246306014,
            0.0003684949260379794, 0.00026543731090954115),
        ("exit_dominance_refined", 7000): (
            0.07606522745865191, 0.20752865687285538, 0.0012336216562168958,
            8.60793797227144e-05, -0.0003435099120318863,
            -0.0004295892917546007, 0.0002628399540780548),
        ("exit_survival", seeding.BATCH): (
            0.0767743707938208, 0.0009125809416508895),
        ("exit_survival", 7000): (
            0.07661917229430962, 0.0009069270135582768),
        ("occupation", seeding.BATCH): (
            0.10999580349932961, 0.0004036984232945685),
        ("occupation", 7000): (
            0.10891033555829445, 0.00040096179297723284),
    }

    @pytest.mark.parametrize("name,batch", sorted(PINNED))
    def test_pinned_for_one_and_two_workers(self, name, batch, monkeypatch):
        monkeypatch.setattr(seeding, "BATCH", batch)
        for workers in (1, 2):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            assert self.CASES[name]() == self.PINNED[name, batch]

    def test_concurrent_calls_equal_sequential(self):
        calls = [(HALF_BALL, HS0, 0.5, 32, 70_000, seed)
                 for seed in (31, 32, 33, 34)]
        sequential = [exit_survival_pair(*c) for c in calls]
        results = [None] * len(calls)

        def run(i):
            results[i] = exit_survival_pair(*calls[i])

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(calls))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == sequential
