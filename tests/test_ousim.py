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
    AxisBox,
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
import radial
from noisestab.geometry import boundary_distance, contains, pair_measure
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
        # a block of four steps of two rows scales its normals in place
        z = seeding.derive_rng(4, "exit", 0).standard_normal((4, 2, 3))
        raw = z.copy()
        out = ousim._advance(p[-1, :2], z, 0, 0.5, 0.5)
        assert out.shape == (4, 2, 3) and np.array_equal(z, raw * 0.5)

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

    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_ball_matches_radial_oracle(self, tau):
        # the bridge-corrected exit of a curved boundary against its
        # exact continuous-time value
        est = exit_survival(HALF_BALL, tau, 512, 25_000, 17)
        exact = radial.ball_survival(HALF_BALL.radius, tau)
        assert abs(est.value - exact) <= 3 * est.std_error

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
            0.07538621525198978, 0.0007631351950253323, 0.15475749925855692,
            0.0009633229667265847, 0.0008319783001129455)

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

    # the first pair holds measures 0.6 and 0.3
    @pytest.mark.parametrize("c1,c2,tau", [
        (0.2533471031357997, -0.5244005127080407, 0.5), (0.0, 0.0, 1.0),
        (1.0, 0.5, 0.2), (-0.3, -1.0, 1.0)])
    def test_matches_intersection_scan(self, c1, c2, tau):
        # parallel half-spaces written as intersections with a far
        # half-space (the same sets up to measure e^{-800}) are scanned,
        # and the bridge-weighted occupation reads the continuous value
        def far(c):
            return Intersection((HalfSpace(np.array([1.0, 0.0]), c),
                                 HalfSpace(np.array([0.0, 1.0]), 40.0)))

        est = occupation(far(c1), far(c2), tau, 512, 40_000, 41)
        assert est.samples == 40_000
        exact = halfspace_occupation(c1, c2, tau)
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


class TestRadialOracle:
    """The test-side finite-volume solver for |X| (``radial``): the exact
    continuous-time survival of a centred ball and occupation of
    concentric balls, which the scans are checked against."""

    HALF = radial.measure_radius(0.5)
    PINNED = [(0.1, 0.2868930952), (0.5, 0.0766263892),
              (1.0, 0.0151106316)]
    OCCUPATION = 0.1006885517  # balls of measures 0.6 and 0.3, tau = 0.5

    def test_pinned(self):
        assert self.HALF == pytest.approx(HALF_BALL.radius, rel=1e-15)
        for tau, value in self.PINNED:
            assert abs(radial.ball_survival(self.HALF, tau) - value) <= 1e-9
        assert abs(radial.ball_occupation(BALL_06.radius, BALL_03.radius, 0.5)
                   - self.OCCUPATION) <= 1e-9

    def test_node_count_moves_little(self):
        for nodes in (1000, 8000):
            for tau, value in self.PINNED:
                got = radial.ball_survival(self.HALF, tau, nodes=nodes)
                assert abs(got - value) <= 2e-7
            got = radial.ball_occupation(BALL_06.radius, BALL_03.radius, 0.5,
                                         nodes=nodes)
            assert abs(got - self.OCCUPATION) <= 2e-7

    def test_occupation_of_the_ball_itself_integrates_survival(self):
        # the occupation gained over [0.01, 0.5], Gauss-Legendre in
        # s = sqrt(t), in which the survival is smooth
        outer, inner = BALL_06.radius, BALL_06.radius * (1.0 - 1e-12)
        s, w = np.polynomial.legendre.leggauss(20)
        lo, hi = 0.1, math.sqrt(0.5)
        s = lo + 0.5 * (hi - lo) * (s + 1.0)
        integral = 0.5 * (hi - lo) * sum(
            wi * 2.0 * si * radial.ball_survival(outer, si * si)
            for si, wi in zip(s, w))
        gained = (radial.ball_occupation(outer, inner, 0.5)
                  - radial.ball_occupation(outer, inner, 0.01))
        assert abs(gained - integral) <= 1e-7


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

    @pytest.mark.parametrize("steps", [128, 512])
    def test_concentric_balls_match_radial_oracle(self, steps):
        # the bridge weight removes the raw grid's overshoot between grid
        # times (+15.8 and +7.9 SE here), so the value holds on both grids
        est = occupation(BALL_06, BALL_03, 0.5, steps, 100_000, 7)
        exact = radial.ball_occupation(BALL_06.radius, BALL_03.radius, 0.5)
        assert abs(est.value - exact) <= 3 * est.std_error

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
        # the raw grid monitor nests pathwise, so its fine value is at most
        # its coarse one in every unit; the corrected changes are signed
        # and carry their own standard errors
        m = ousim._survival_scan([HALF_BALL, HS0], 0.4, 64, 20_000, 2,
                                 refine=2)
        for arm in (0, 1):
            raw, fine = (m.column(block, arm)
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


class _Draws(list):
    """The shapes of the normal draws of the scans' path streams, in
    order; ``end`` holds those of their end-point streams."""

    def __init__(self):
        super().__init__()
        self.end = []


@pytest.fixture
def draws(monkeypatch):
    shapes = _Draws()
    real = ousim.derive_rng
    monkeypatch.setattr(ousim, "derive_rng", lambda seed, *key: _CountingRng(
        real(seed, *key), shapes.end if key[0] == "end" else shapes))
    return shapes


@pytest.fixture
def step_units(monkeypatch):
    """(rows, units) of every step a scan takes, in order: a unit is a
    pair, which steps with one normal vector for its two rows, or a
    single row."""
    steps = []
    real = ousim._advance

    def advance(states, z, pairs, decay, scale):
        assert z.shape[1] == len(states) - pairs and 2 * pairs <= len(states)
        steps.extend([(len(states), z.shape[1])] * len(z))
        return real(states, z, pairs, decay, scale)

    monkeypatch.setattr(ousim, "_advance", advance)
    return steps


def _normals(shapes, dim, step_units):
    """(drawn, consumed) normals of a one-shard scan: the path-stream
    draws recorded by ``draws``, and the start plus one vector per unit
    of every step."""
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

    def test_dead_at_start_exit(self, draws, step_units):
        # 3,000 paths are 1,500 pairs, each drawing one start; a path that
        # starts outside needs no end point
        est = exit_survival(self.POINT, 0.5, 64, 3000, 1)
        assert est.value == 0.0 and est.std_error == 0.0
        assert draws == [(1500, 2)] and step_units == []
        assert draws.end == []

    def test_dead_at_start_refined(self, draws, step_units):
        r = exit_dominance_refined(self.POINT, self.POINT, 0.5, 64, 3000, 1)
        assert r.est_a.value == r.est_b.value == 0.0
        assert r.change_a == r.margin_change == 0.0
        assert draws == [(1500, 2)] and step_units == []
        assert draws.end == []

    def test_dead_at_start_occupation(self, draws, step_units):
        est = occupation(self.POINT, FULL, 0.5, 64, 3001, 1)
        assert est.value == 0.0 and est.std_error == 0.0
        assert draws == [(1501, 2)] and step_units == []
        assert draws.end == []

    def test_no_exit_draws_every_path(self, draws, step_units):
        # nothing leaves A_1, so nothing is dropped: every step draws one
        # normal vector per pair, every normal drawn is used, and every
        # end point is a last state
        est = occupation(FULL, HALF_BALL, 0.5, 64, 3000, 11)
        assert draws[0] == (1500, 2) and step_units == [(3000, 1500)] * 64
        drawn, consumed = _normals(draws, 2, step_units)
        assert drawn == consumed and draws.end == []
        assert est.value == 0.24627864583333334
        assert est.std_error == 0.003619203001569907

    def test_dropped_paths_keep_their_counts(self):
        # the occupation of {x_1 <= 0} before leaving it is the integral
        # of the survival asin(e^{-t})/pi; losing the values of dropped
        # paths would undershoot it by 0.08
        est = occupation(HS0, HS0, 1.0, 256, 20_000, 13)
        exact = integrate.quad(lambda t: math.asin(math.exp(-t)) / math.pi,
                               0.0, 1.0)[0]
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_draws_shrink_with_survivors(self, draws, step_units):
        # a pair that loses one row goes on as a single, which draws its
        # own normals: units never outnumber rows or fall below half
        m = ousim._survival_scan([HALF_BALL], 1.0, 128, 3000, 2)
        assert draws[0] == (1500, 2) and len(step_units) <= 128
        rows = [3000] + [r for r, _ in step_units]
        units = [1500] + [u for _, u in step_units]
        assert all(b <= a for a, b in zip(rows, rows[1:]))
        assert all(b <= a for a, b in zip(units, units[1:]))
        assert rows[-1] < 3000 * ousim._LIVE_SHARE
        assert any(2 * u > r for r, u in step_units)
        # every round draws the normals of its whole block, and uses them
        drawn, consumed = _normals(draws, 2, step_units)
        assert drawn == consumed
        # the paths that start outside drop first, so every row of the
        # last round starts inside and ends at its last state; every
        # other row that starts inside draws one end point when it drops
        ended = sum(math.prod(shape) for shape in draws.end)
        assert ended == 2 * (np.count_nonzero(m.shell) - rows[-1]) > 0

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


def _stepped_scan(sets, tau, steps, paths, seed, start, update, columns,
                  shells):
    """The shard loop stepped one step at a time, in antithetic pairs:
    the normals of each step drawn when it is taken, one vector per pair
    (+z for its first row, -z for its second) and per single. Rows are
    laid out as the first rows of the pairs, the second rows, then the
    singles. At the first step and at the end of each block of the
    blocked scan's schedule, max(1, ``_BLOCK_STATES`` // (rows * dim))
    steps, the rows are checked: when fewer than 7/8 of them are live,
    the dead rows go, and the live row of a pair whose partner died
    joins the singles. ``update(i, first, last, states, *arrays)`` gets
    the states after step i and whether step i is the first or the last
    of its block.

    ``shells`` holds each set's (cuts, ended). A row's start shell in a
    set is 0 outside it and else 1 plus the number of the cuts at or
    below its boundary distance. Where ``ended``, a row that starts in
    the set takes the shell of its end point as its end cell: of its last
    state if it runs to the end, else of e^{-r} x + sqrt(1 - e^{-2r}) z,
    x its state and r the time left when it goes, z drawn then from the
    shard's stream keyed ("end", shard), one vector per such row in the
    order they go. Every other end cell is 0. Returns, per shard, each
    row's unit, start shell and end cell in each set and values, in row
    order, and the number of pairs that lost one row and went on as a
    single."""
    _, steps, decay, scale = ousim._grid_params(tau, steps)
    dim = sets[0].dim
    ended = np.array([e for _, e in shells])

    def shell_of(s, cut, pts):
        d = boundary_distance(s, pts)
        return np.where(d >= 0.0, 1 + (d >= cut[:, None]).sum(0), 0)

    def shard(part):
        index, c = part
        pairs, lone = divmod(c, 2)
        rng = seeding.derive_rng(seed, "exit", index)
        end_rng = seeding.derive_rng(seed, "end", index)
        starts = rng.standard_normal((pairs + lone, dim))
        arrays = start(np.array([boundary_distance(s, starts) for s in sets]))
        unit = np.r_[np.arange(pairs), np.arange(pairs + lone)]
        shell = np.array([shell_of(s, cut, starts)
                          for s, (cut, _) in zip(sets, shells)])[:, unit]
        reads = (shell > 0) & ended[:, None]
        row = np.arange(c)
        states = starts[unit]
        arrays = [x[:, unit] for x in arrays]
        values = np.zeros((len(columns(*arrays)), c))
        end = np.zeros((len(sets), c), dtype=int)
        demoted = 0

        def settle(rows, left):
            place = row[rows]
            values[:, place] = columns(*(x[:, rows] for x in arrays))
            pts = states[rows]
            need = reads[:, place].any(axis=0)
            if left > 0.0 and need.any():
                z = end_rng.standard_normal((np.count_nonzero(need), dim))
                pts[need] = (pts[need] * math.exp(-left)
                             + z * math.sqrt(-math.expm1(-2.0 * left)))
            for k, (s, (cut, _)) in enumerate(zip(sets, shells)):
                end[k, place] = np.where(reads[k, place],
                                         shell_of(s, cut, pts), 0)

        check = 1  # the first step of the next block
        for i in range(1, steps + 1):
            first = i == check
            if first:
                live = arrays[0].any(axis=0)
                if np.count_nonzero(live) < ousim._LIVE_SHARE * live.size:
                    settle(~live, tau / steps * (steps - i + 1))
                    plus, minus = live[:pairs], live[pairs:2 * pairs]
                    both = [j for j in range(pairs) if plus[j] and minus[j]]
                    one = [j if plus[j] else pairs + j for j in range(pairs)
                           if plus[j] != minus[j]]
                    singles = [j for j in range(2 * pairs, len(live))
                               if live[j]]
                    order = np.array(both + [pairs + j for j in both]
                                     + singles + one, dtype=int)
                    demoted += len(one)
                    pairs = len(both)
                    states, row = states[order], row[order]
                    arrays = [x[:, order] for x in arrays]
                    if not len(states):
                        break
                check += max(1, ousim._BLOCK_STATES // states.size)
            z = rng.standard_normal((len(states) - pairs, dim))
            inc = np.concatenate([z[:pairs], -z[:pairs], z[pairs:]])
            states *= decay
            inc *= scale
            states += inc
            update(i, first, i in (check - 1, steps), states, *arrays)
        settle(np.arange(len(states)), 0.0)
        return unit, shell, end, values, demoted

    return [shard(part) for part in ousim._shards(paths)]


def _row_table(shards):
    """(unit, shell, end, values) of a stepped reference's rows, its
    shards joined in shard order and each shard's units numbered after
    those of the shards before it, as ``ousim._scan`` joins them."""
    first = np.cumsum([0] + [sh[0].max() + 1 for sh in shards])
    unit = np.concatenate([sh[0] + f for sh, f in zip(shards, first)])
    return (unit, *(np.concatenate([sh[i] for sh in shards], axis=-1)
                    for i in (1, 2, 3)))


def _stepped_survival(regions, tau, steps, paths, seed, *, shells, refine=1,
                      targets=()):
    """``ousim._survival_scan`` stepped one step at a time, its start
    shells and end cells cut at each region's own ``shells``. With
    ``targets`` each region's occupation of its target takes, per block,
    the weight before the block times the sum over its steps of the
    factors' product so far times the hit."""
    tau, steps, _, _ = ousim._grid_params(tau, steps)
    inv_fine = ousim._inv_sinh(tau / (steps * refine))
    inv_coarse = ousim._inv_sinh(tau / steps)
    r = len(regions)
    block = {}  # the weight before, the factors' product and the sum

    def start(dist):
        last = np.vstack([dist] * min(refine, 2))
        arrays = [last >= 0.0, np.ones_like(last), last]
        return arrays + [np.zeros_like(dist)] if targets else arrays

    def monitor(alive, weight, a0, a1, inv, ratio=None):
        alive &= a1 >= 0.0
        if inv is not None:
            x = a0 * a1
            x *= -inv
            near = np.flatnonzero(alive & (x > -40.0))
            factor = -np.expm1(x[near])
            weight[near] *= factor
            if ratio is not None:
                ratio[near] *= factor

    def update(i, first, closes, states, alive, weight, last, occupied=None):
        if targets and first:
            block.update(before=weight[:r].copy(),
                         ratio=np.ones((r, len(states))),
                         sum=np.zeros((r, len(states))))
        on_coarse = refine > 1 and i % refine == 0
        for idx, reg in enumerate(regions):
            a1 = boundary_distance(reg, states)
            rows = (idx, r + idx) if on_coarse else (idx,)
            for row, inv in zip(rows, (inv_fine, inv_coarse)):
                ratio = block["ratio"][idx] if targets and row == idx else None
                monitor(alive[row], weight[row], last[row], a1, inv, ratio)
                last[row] = a1
        for idx, target in enumerate(targets):
            hit = alive[idx] & contains(target, states)
            block["sum"][idx] += block["ratio"][idx] * hit
        if targets and closes:
            occupied += block["before"] * block["sum"]

    def columns(alive, weight, last, occupied=None):
        # coarse weight, coarse raw, then fine weight and raw, occupation
        w = np.where(alive, weight, 0.0)
        rows = [w[-r:], alive[-r:]]
        if refine > 1:
            rows += [w[:r], alive[:r]]
        if targets:
            rows.append(occupied)
        return np.vstack(rows).astype(float)

    return _stepped_scan(regions, tau, steps * refine, paths, seed, start,
                         update, columns, shells)


def _same_rows(m, shards):
    """Whether the row table ``m`` of a scan equals the stepped
    reference's bit for bit: each row's unit, start shells, end cells and
    values."""
    unit, shell, end, values = _row_table(shards)
    return (np.array_equal(m.unit, unit) and np.array_equal(m.shell, shell)
            and np.array_equal(m.end, end)
            and np.array_equal(m.values.reshape(values.shape), values))


def _shells(sets, tau):
    """Each set's (cuts, ended): its ``ousim._shells`` cuts, and whether
    its shells have cell measures."""
    return [(cuts, cells is not None)
            for cuts, _, cells in (ousim._shells(s, tau) for s in sets)]


# a half-space that every path leaves by tau = 3, the last one alone, and
# a ball whose few starting paths all leave in the first step of a block
LEAVING = HalfSpace(np.array([0.6, 0.8]), -1.2)
TINY = Ball(np.zeros(2), 0.05)
SLANTED = HalfSpace(np.array([0.6, 0.8]), 0.8)


class TestBlocksMatchSteps:
    """The blocked scans return exactly the row table of the scan that
    stepped one step at a time and recorded every path's values and end
    cell: the same rows, normals and float operations at every step, and
    the same end draws. Each start set is cut into its shells, so the
    rows fall into several start shells and end cells."""

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
        assert _same_rows(
            ousim._survival_scan(*args, refine=refine),
            _stepped_survival(*args, shells=_shells(regions, tau),
                              refine=refine))

    @pytest.mark.parametrize("paths", [3000, 40_000])
    @pytest.mark.parametrize("case", sorted(OCCUPATION))
    def test_occupation(self, case, paths):
        pairs, tau, steps = self.OCCUPATION[case]
        regions, targets = ([a1 for a1, _ in pairs],
                            [a2 for _, a2 in pairs])
        args = (regions, tau, steps, paths, 3)
        assert _same_rows(
            ousim._survival_scan(*args, targets=targets),
            _stepped_survival(*args, shells=_shells(regions, tau),
                              targets=targets))

    @pytest.mark.parametrize("paths", [3001, 40_001])
    def test_lone_path(self, paths):
        # an odd shard holds a lone path, which may drop with an end draw
        args = ([HALF_BALL, HS0], 0.5, 37, paths, 3)
        assert _same_rows(ousim._survival_scan(*args),
                          _stepped_survival(*args,
                                            shells=_shells(args[0], 0.5)))
        args = ([BALL_06], 0.5, 37, paths, 3)
        assert _same_rows(ousim._survival_scan(*args, targets=[BALL_03]),
                          _stepped_survival(*args,
                                            shells=_shells([BALL_06], 0.5),
                                            targets=[BALL_03]))

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_single_path(self, seed):
        # numpy takes a one-row product with the normal through a dot,
        # whose last bits differ from a batched product's in about a
        # third of the points here; the projection sums the columns in
        # a fixed order instead, so a lone live row may take a block
        args = ([SLANTED], 2.0, 4, 1, seed)
        assert _same_rows(ousim._survival_scan(*args),
                          _stepped_survival(*args,
                                            shells=_shells([SLANTED], 2.0)))

    def test_one_row_per_path(self):
        # the table holds each path once, in shard and row order, with its
        # unit: 1,500 pairs at 3,000 paths, and 10,000 pairs plus a lone
        # path, then 10,000 pairs, in the two shards of 40,001 paths
        pairs = np.r_[0:1500, 0:1500]
        for m in (ousim._survival_scan([HALF_BALL], 0.5, 37, 3000, 3),
                  ousim._survival_scan([BALL_06], 0.5, 37, 3000, 3,
                                       targets=[BALL_03])):
            assert np.array_equal(m.unit, pairs)
            assert m.shell.shape == m.end.shape == (1, 3000)
            assert m.values.shape == (len(m.values), 1, 3000)
        m = ousim._survival_scan([BALL_06], 0.5, 37, 40_001, 3,
                                 targets=[BALL_03])
        assert np.array_equal(m.unit, np.r_[0:10_000, 0:10_001,
                                            10_001 + np.r_[0:10_000,
                                                           0:10_000]])

    def test_dropped_rows_draw_their_end(self, draws):
        # these cases drop rows that start inside before the end, and
        # each draws one end point, inside A or out
        for case in ("two regions", "last row alone"):
            regions, tau, steps, refine = self.EXIT[case]
            draws.end.clear()
            m = ousim._survival_scan(regions, tau, steps, 3000, 3, refine)
            assert draws.end and all(dim == 2 for _, dim in draws.end)
            assert {0, 1, 2} <= set(m.end[0][m.shell[0] > 0])

    def test_cases_reach_their_edges(self, step_units, monkeypatch):
        # rows drop only between blocks: the leaving half-space's last
        # block keeps one live row alone for some steps and then none,
        # and the tiny ball's one starting pair loses both rows in the
        # first step of a seven-step block, which they step to its end
        live = []  # the live paths after each step, per block
        real = ousim._commit

        def commit(inside, alive):
            real(inside, alive)
            live.append(np.logical_or.reduce(inside).sum(axis=1).tolist())

        monkeypatch.setattr(ousim, "_commit", commit)
        ousim._survival_scan([LEAVING], 3.0, 151, 3000, 3)
        assert len(step_units) == 151 and len(live) > 1
        assert 1 in live[-1] and live[-1][-1] == 0
        step_units.clear()
        live.clear()
        ousim._survival_scan([TINY], 3.0, 7, 3000, 3, targets=[TINY])
        assert step_units == [(2, 1)] * 7 and live == [[0] * 7]


# the Gaussian measure of an n = 3 composite is Monte Carlo
SLAB_BALL = Intersection((Ball(np.zeros(3), 1.5),
                          HalfSpace(np.array([1.0, 0.0, 0.0]), 0.3)))


OFF_CENTRE = Ball(np.array([0.5, 0.0]), 1.1774100225154747)
BOX = AxisBox(np.array([-1.0, -0.5]), np.array([0.8, np.inf]))


def _one_stratum(m):
    """The rows ``m`` of a one-arm scan with every start shell clamped to
    shell 1 and every end cell to 0, its levels cut to [mu(A), 0] and no
    cells: the start set as one stratum."""
    return dataclasses.replace(m, shell=np.minimum(m.shell, 1),
                               end=np.zeros_like(m.end),
                               levels=[m.levels[0][[0, -1]]], cells=[None])


def _start_shells(m):
    """The rows ``m`` with every end cell clamped to 0 and no cells: the
    read-off on the start shells alone."""
    return dataclasses.replace(m, end=np.zeros_like(m.end),
                               cells=[None] * len(m.cells))


def _stratified_by_hand(unit, shell, end, v, levels, cells, paths):
    """(value, unit residuals) of the post-stratified mean of the row
    values ``v`` of the units ``unit``: on the runs of their start
    ``shell``s and, in each, the runs of their ``end`` cells, outside
    first, whose measures are sums of ``cells``. Without cells each start
    shell is one cell, of measure the difference of its ``levels``."""
    if cells is None:
        cells, end = (levels[:-1] - levels[1:])[:, None], np.zeros_like(end)
    value, residual = 0.0, np.zeros(len(v))
    edges = ousim._runs(np.bincount(shell, minlength=len(levels))[1:])
    for lo, hi in zip(edges, edges[1:]):
        run = (shell > lo) & (shell <= hi)
        if not run.any():
            continue
        cuts = ousim._runs(np.bincount(end[run], minlength=cells.shape[1]))
        for a, b in zip(cuts, cuts[1:]):
            cell = run & (end >= a) & (end < b)
            n = np.count_nonzero(cell)
            q = v[cell].sum() / n
            mu = cells[lo:hi, a:b].sum()
            residual[cell] = mu * paths / n * (v[cell] - q)
            value += mu * q
    return value, np.bincount(unit, residual)


def _plain_by_hand(unit, v, paths):
    """(value, unit residuals) of the plain mean of the row values ``v``
    of the units ``unit``."""
    q = v.sum() / paths
    return q, np.bincount(unit, v) - np.bincount(unit) * q


class TestPostStratification:
    """The scanned estimates sum, over cells of the start shell and the
    end cell, each cell's exact measure times the mean value of the paths
    in it, where the start set is a half-space or a centred ball; over
    start shells alone where only mu(A) is exact, and give the plain
    mean where it is Monte Carlo."""

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
        cuts, levels, cells = ousim._shells(HALF_BALL, 0.5)
        assert np.array_equal(cuts, [0.5 * sigma, sigma])
        assert levels[0] == gaussian_measure(HALF_BALL).value
        assert levels[-1] == 0.0 and np.all(np.diff(levels) < 0.0)
        assert levels[1] == pytest.approx(
            1.0 - math.exp(-0.5 * (HALF_BALL.radius - 0.5 * sigma) ** 2))
        # start shell a by end cell b, end cell 0 outside A: each start
        # shell's cells sum to its measure, and the cells inside A to
        # the pair measure of A with itself
        assert cells.shape == (3, 4) and np.all(cells >= 0.0)
        assert np.allclose(cells.sum(axis=1), levels[:-1] - levels[1:],
                           rtol=0.0, atol=1e-15)
        assert cells[:, 1:].sum() == pytest.approx(
            pair_measure(HALF_BALL, HALF_BALL, 0.5), abs=1e-15)
        cuts, levels, cells = ousim._shells(HS0, 0.5)
        assert len(cuts) == 7 and levels[-2] == pytest.approx(
            special.ndtr(-3.5 * sigma))
        assert cells.shape == (8, 9)
        cuts, levels, cells = ousim._shells(HALF_BALL, 0.0)
        assert len(cuts) == 0 and list(levels) == [levels[0], 0.0]
        assert cells is None
        # an off-centre ball and a box have exact shells but no cells
        for s in (OFF_CENTRE, BOX):
            cuts, levels, cells = ousim._shells(s, 0.5)
            assert len(cuts) and levels is not None and cells is None
        cuts, levels, cells = ousim._shells(SLAB_BALL, 0.5)
        assert len(cuts) == 0 and levels is None and cells is None

    def test_no_path_starts_inside(self):
        # the tiny ball holds 0.1% of the mass: none of 20 paths starts in
        # it, and no path starts in the point
        m = ousim._survival_scan([TINY], 0.5, 8, 20, 1)
        assert len(m.unit) == 20 and not m.shell.any() and not m.end.any()
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
        # so they merge into the start set alone, and so do its end
        # cells: the one-stratum scan, read off the scan's shells clamped
        # to one and its end cells to 0
        assert len(ousim._shells(HALF_BALL, 0.5)[0]) == 2
        for seed in range(1, 6):
            m = _one_stratum(ousim._survival_scan([HALF_BALL], 0.5, 8, 20,
                                                  seed))
            want = m.estimate(m.mean("coarse", 0))
            m = _one_stratum(ousim._survival_scan([HALF_BALL], 0.5, 8, 20,
                                                  seed, targets=[FULL]))
            want_occ = m.estimate(m.mean("occupation", 0, 0.5 / 8))
            for got, ref in ((exit_survival(HALF_BALL, 0.5, 8, 20, seed),
                              want),
                             (occupation(HALF_BALL, FULL, 0.5, 8, 20, seed),
                              want_occ)):
                assert got.value == pytest.approx(ref.value, rel=1e-12)
                assert got.std_error == pytest.approx(ref.std_error,
                                                      rel=1e-12)
                assert got.std_error > 0.0

    def test_sparse_end_cells_join_inwards(self):
        # one start run of 60 rows, 30 pairs, whose end cells hold 5
        # (outside A), 30, 5 and 20 rows: the outside joins end shell 1,
        # and end shell 2 joins end shell 3, its inner neighbour
        levels = np.array([0.6, 0.4, 0.2, 0.0])
        cells = np.array([[0.02, 0.1, 0.05, 0.03],
                          [0.01, 0.04, 0.1, 0.05],
                          [0.0, 0.01, 0.04, 0.15]])
        end = np.repeat([0, 1, 2, 3], [5, 30, 5, 20])
        v = np.random.default_rng(0).random(60)
        unit = np.r_[0:30, 0:30]
        m = ousim._Units(60, unit, np.ones((1, 60), dtype=int), end[None],
                         v[None, None], {"v": 0}, [levels], [cells], 1)
        outer, inner = end < 2, end >= 2
        mu_outer, mu_inner = cells[:, :2].sum(), cells[:, 2:].sum()
        want = mu_outer * v[outer].mean() + mu_inner * v[inner].mean()
        residual = np.where(outer, mu_outer * 60 / 35 * (v - v[outer].mean()),
                            mu_inner * 60 / 25 * (v - v[inner].mean()))
        est = m.mean("v", 0)
        assert est.value == pytest.approx(want, rel=1e-12)
        assert m.std_error(est) == pytest.approx(
            math.sqrt(np.sum(np.bincount(unit, residual) ** 2)) / 60,
            rel=1e-9)
        value, _ = _stratified_by_hand(unit, m.shell[0], end, v, levels,
                                       cells, 60)
        assert value == pytest.approx(want, rel=1e-12)

    def test_identical_arms_pair_exactly(self):
        m = ousim._survival_scan([HALF_BALL, HALF_BALL], 0.5, 32, 20_000, 3)
        assert m.cells[0] is not None
        assert np.array_equal(m.end[0], m.end[1]) and m.end[0].any()
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

    @pytest.mark.parametrize("region,tau", [(OFF_CENTRE, 0.5), (BOX, 0.5),
                                            (SLAB_BALL, 0.5),
                                            (HALF_BALL, 0.0)])
    def test_without_cell_measures_reads_start_shells(self, region, tau):
        # no pair measure: an off-centre ball, a box, a Monte Carlo measure
        # and a zero horizon read the start shells alone (the plain mean
        # for the Monte Carlo measure), and no end cell is read
        m = ousim._survival_scan([region], tau, 32, 20_000, 8)
        assert m.cells == [None] and not m.end.any()
        v = m.column("coarse", 0)
        if m.levels[0] is None:
            value, residual = _plain_by_hand(m.unit, v, 20_000)
        else:
            value, residual = _stratified_by_hand(
                m.unit, m.shell[0], m.end[0], v, m.levels[0], None, 20_000)
        est = exit_survival(region, tau, 32, 20_000, 8)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(
            math.sqrt(np.sum(residual ** 2)) / 20_000, rel=1e-9)
        assert value > 0.0

    def test_refined_oracle_keeps_the_plain_mean(self):
        m = ousim._survival_scan([HALF_BALL], 0.1, 64, 20_000, 9, refine=2)
        assert m.cells[0] is not None
        coarse, fine, change, change_se = exit_survival_refined(
            HALF_BALL, 0.1, 64, 20_000, 9)
        for est, block in ((coarse, "raw"), (fine, "raw_fine")):
            value, residual = _plain_by_hand(m.unit, m.column(block, 0),
                                             20_000)
            assert est.value == value
            assert est.std_error == pytest.approx(
                math.sqrt(np.sum(residual ** 2)) / 20_000, rel=1e-9)
        assert change == coarse.value - fine.value and change_se > 0.0

    def test_monte_carlo_measure_keeps_the_plain_mean(self):
        assert ousim.exact_measure(SLAB_BALL) is None
        m = ousim._survival_scan([SLAB_BALL], 0.5, 32, 20_000, 6)
        assert m.levels == [None]
        est = exit_survival(SLAB_BALL, 0.5, 32, 20_000, 6)
        m2 = ousim._survival_scan([SLAB_BALL], 0.5, 32, 20_000, 7,
                                  targets=[Ball(np.zeros(3), 1.0)])
        occ = occupation(SLAB_BALL, Ball(np.zeros(3), 1.0), 0.5, 32, 20_000,
                         7)
        for units, block, scale, got in ((m, "coarse", 1.0, est),
                                         (m2, "occupation", 0.5 / 32, occ)):
            # the residual of a unit of n paths with summed value V is
            # V - n mean, and the units are independent
            v = np.bincount(units.unit, units.column(block, 0))
            mean = v.sum() / 20_000
            var = np.sum((v - np.bincount(units.unit) * mean) ** 2) / 20_000
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
        # deep inside almost always survives, and more so if it also
        # ends deep inside
        ball = Ball(np.zeros(2), math.sqrt(2.0 * math.log(2.0)))
        m = ousim._survival_scan([ball], 0.1, 512, 25_000, 1)
        cells = m.std_error(m.mean("coarse", 0))
        starts = _start_shells(m)
        shells = starts.std_error(starts.mean("coarse", 0))
        one = _one_stratum(m)
        start = one.std_error(one.mean("coarse", 0))
        plain = m.std_error(m.plain("coarse", 0))
        assert len(m.levels[0]) == 7  # six shells
        assert start <= 0.8 * plain
        assert shells <= 0.88 * start
        assert cells <= 0.85 * shells


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

    @pytest.mark.parametrize("scan", ["exit", "occupation", "exit pair"])
    def test_clustered_se_by_hand(self, scan):
        # the SE of the unit sums of the stepped reference: residuals of
        # the paths of a unit are summed before squaring, and each arm is
        # stratified on its own start shells and end cells
        paths = 3001
        targets = [BALL_03] if scan == "occupation" else []
        sets = ([BALL_06] if targets else [HALF_BALL] if scan == "exit"
                else [HALF_BALL, BALL_06])
        args = (sets, 0.5, 37, paths, 3)
        m = ousim._survival_scan(*args, targets=targets)
        shards = _stepped_survival(*args, shells=_shells(sets, 0.5),
                                   targets=targets)
        block = "occupation" if targets else "coarse"
        assert sum(demoted for *_, demoted in shards) > 100
        unit, shell, end, values = _row_table(shards)
        values = values[m.blocks[block] * len(sets):]
        n = np.bincount(unit)
        assert n.sum() == paths and np.count_nonzero(n == 1) == 1
        hand = [_stratified_by_hand(unit, shell[arm], end[arm], values[arm],
                                    *ousim._shells(s, 0.5)[1:], paths)
                for arm, s in enumerate(sets)]
        for arm, (value, residual) in enumerate(hand):
            assert m.cells[arm] is not None
            est = m.mean(block, arm)
            assert est.value == pytest.approx(value, rel=1e-12)
            assert m.std_error(est) == pytest.approx(
                math.sqrt(np.sum(residual ** 2)) / paths, rel=1e-9)
        if scan == "exit pair":
            # the paired SE is that of each unit's residual difference
            a, b, paired = exit_survival_pair(*sets, 0.5, 37, paths, 3)
            (value_a, res_a), (value_b, res_b) = hand
            assert a.value == pytest.approx(value_a, rel=1e-9)
            assert b.value == pytest.approx(value_b, rel=1e-9)
            assert paired == pytest.approx(
                math.sqrt(np.sum((res_b - res_a) ** 2)) / paths, rel=1e-9)
            return
        q, residual = _plain_by_hand(unit, values[0], paths)
        assert m.std_error(m.plain(block, 0)) == pytest.approx(
            math.sqrt(np.sum(residual ** 2)) / paths, rel=1e-9)
        if scan == "exit":
            # the raw oracle is the plain mean of the raw column; its count
            # total is exact
            q, residual = _plain_by_hand(unit, values[1], paths)
            est = m.plain("raw", 0)
            assert m.std_error(est) == pytest.approx(
                math.sqrt(np.sum(residual ** 2)) / paths, rel=1e-9)
            coarse, *_ = exit_survival_refined(sets[0], 0.5, 37, paths, 3,
                                               refine=1)
            assert coarse.value == est.value == q
            assert coarse.std_error == m.std_error(est)

    @pytest.mark.parametrize("paths,lone", [(8000, 0), (8001, 1),
                                            (40_000, 0), (40_001, 1)])
    def test_odd_shard_holds_one_lone_unit(self, paths, lone):
        # every unit is a pair of two paths but the lone path of an odd
        # shard; 40,001 paths are shards of 20,001 and 20,000
        count = np.bincount(ousim._survival_scan([HALF_BALL], 0.5, 8, paths,
                                                 3).unit)
        assert set(count) <= {1, 2} and count.sum() == paths
        assert np.count_nonzero(count == 1) == lone

    def test_partners_share_their_start(self, monkeypatch):
        # nothing leaves the full space, so the first round steps every
        # row from its start: partners from one start point, with +z and
        # -z, and the lone path from its own
        rounds = []
        real = ousim._advance

        def advance(states, z, pairs, decay, scale):
            raw = z.copy()  # the advance scales z in place
            out = real(states, z, pairs, decay, scale)
            rounds.append((states, raw, pairs, decay, scale, out))
            return out

        monkeypatch.setattr(ousim, "_advance", advance)
        ousim._survival_scan([FULL], 0.5, 4, 3001, 5, targets=[HALF_BALL])
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
            0.09933345436706174, 0.00035527770084278456, 0.02577709171200453,
            0.00021524430956336812, 0.0003867792291570709),
        ("occupation_pair", 7000): (
            0.0991501531913196, 0.0003563573239986908, 0.02563570974054893,
            0.0002143701599549828, 0.0003853226496811282),
        ("exit_dominance_refined", seeding.BATCH): (
            0.07614790427447932, 0.2074747916824887, 0.0010609770584645674,
            -0.00025536547099472284, 0.0001198136032649344,
            0.00037517907425965724, 0.000267133245163917),
        ("exit_dominance_refined", 7000): (
            0.07616156243724735, 0.20790201420722879, 0.001048233200893972,
            -5.5759742825123304e-05, -6.197436988100713e-05,
            -6.214627055883826e-06, 0.0002645475812773701),
        ("exit_survival", seeding.BATCH): (
            0.07683815925131413, 0.0007748435643621377),
        ("exit_survival", 7000): (
            0.0772985671309612, 0.0007799664446890361),
        ("occupation", seeding.BATCH): (
            0.09938575075472766, 0.0003595711555732957),
        ("occupation", 7000): (
            0.09883495919875052, 0.000360180766526543),
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
