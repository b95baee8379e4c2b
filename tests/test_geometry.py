import math

import numpy as np
import pytest
from scipy import special

from noisestab import (
    AxisBox,
    Ball,
    Complement,
    HalfSpace,
    Intersection,
    SetSystem,
    Union,
    UnsupportedRegion,
    boundary_distance,
    contains,
    enlarge,
    gaussian_measure,
    heat_flow,
    parallel_halfspaces,
    semigroup_apply,
    semigroup_halfspace_closed,
    std_normal_cdf,
)

HALF_BALL_RADIUS = math.sqrt(2.0 * math.log(2.0))  # measure 1/2 in R^2


class TestContains:
    def test_halfspace_boundary_inside(self):
        hs = HalfSpace(np.array([1.0, 0.0]), 0.0)
        assert contains(hs, np.array([0.0, 5.0]))
        assert contains(hs, np.array([-0.1, 0.0]))
        assert not contains(hs, np.array([0.1, 0.0]))

    def test_halfspace_canonical_form(self):
        hs = HalfSpace(np.array([2.0, 0.0]), 3.0)
        assert np.allclose(hs.normal, [1.0, 0.0])
        assert hs.offset == 1.5

    @pytest.mark.parametrize("offset", [np.inf, -np.inf])
    def test_halfspace_infinite_offset_under_norm_overflow(self, offset):
        # the norm of this normal overflows; inf / inf must not become nan
        hs = HalfSpace(np.full(2, np.finfo(float).max), offset)
        assert hs.offset == offset
        assert np.allclose(hs.normal, [2 ** -0.5] * 2)

    def test_ball(self):
        b = Ball(np.zeros(2), 1.0)
        assert not contains(b, np.array([2.0, 0.0]))
        assert contains(b, np.array([1.0, 0.0]))  # boundary

    def test_complement_flips(self):
        hs = HalfSpace(np.array([1.0, 0.0]), 0.0)
        x = np.array([1.0, 0.0])
        assert contains(Complement(hs), x) != contains(hs, x)

    def test_box(self):
        box = AxisBox(np.array([-1.0, 0.0]), np.array([1.0, np.inf]))
        assert contains(box, np.array([0.0, 100.0]))
        assert not contains(box, np.array([0.0, -0.1]))

    def test_boolean_nodes(self):
        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([3.0, 0.0]), 1.0)
        p_in_b1 = np.array([0.5, 0.0])
        assert contains(Union((b1, b2)), p_in_b1)
        assert not contains(Intersection((b1, b2)), p_in_b1)

    def test_batch(self):
        hs = HalfSpace(np.array([1.0, 0.0]), 0.0)
        pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(contains(hs, pts), [True, False, True])

    def test_dimension_mismatch(self):
        hs = HalfSpace(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            contains(hs, np.array([0.0, 0.0, 0.0]))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Union((Ball(np.zeros(2), 1.0), Ball(np.zeros(3), 1.0)))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace(np.zeros(2), 0.0)


# integer points at distance exactly 3 from the origin
SPHERE_3 = {1: [[3.0], [-3.0]],
            2: [[3.0, 0.0], [0.0, -3.0], [-3.0, 0.0]],
            3: [[1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [-2.0, 2.0, -1.0],
                [0.0, 0.0, 3.0]]}


class TestBallMembership:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("centre", ["zero", "integer", "random"])
    def test_matches_einsum(self, n, centre):
        # column-wise membership against the einsum form it replaced
        rng = np.random.default_rng(70 + n)
        center = {"zero": np.zeros(n),
                  "integer": np.arange(1.0, n + 1.0) * (-1.0) ** np.arange(n),
                  "random": rng.standard_normal(n)}[centre]
        radius = 3.0
        directions = rng.standard_normal((4000, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        pts = np.concatenate([
            center + 3.0 * rng.standard_normal((4000, n)),
            center + radius * directions,  # on the sphere up to rounding
            center + np.array(SPHERE_3[n]),
        ])
        d = pts - center
        old = np.einsum("ij,ij->i", d, d) <= radius * radius
        new = contains(Ball(center, radius), pts)
        assert np.array_equal(new, old)
        if n > 1:  # rounding puts near-sphere points on both sides
            assert 0 < np.count_nonzero(new[4000:8000]) < 4000
        if centre != "random":  # exactly on the sphere: inside
            assert new[8000:].all()



class TestBoxMembership:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_all_reduction(self, n):
        # column-wise membership against the np.all form it replaced
        rng = np.random.default_rng(80 + n)
        lower = rng.uniform(-1.5, 0.0, n)
        upper = rng.uniform(0.0, 1.5, n)
        lower[0] = -np.inf
        if n > 1:
            upper[-1] = np.inf
        box = AxisBox(lower, upper)
        faces = np.repeat(rng.uniform(-1.0, 1.0, (1, n)), 2 * n, axis=0)
        for j in range(n):  # one point on each finite face
            faces[2 * j, j] = lower[j] if np.isfinite(lower[j]) else 0.0
            faces[2 * j + 1, j] = upper[j] if np.isfinite(upper[j]) \
                else 0.0
        pts = np.concatenate([
            2.0 * rng.standard_normal((4000, n)),
            faces,
            faces + 1e-300 * rng.choice([-1.0, 1.0], faces.shape),
            np.array([[np.inf] * n, [-np.inf] * n, [np.nan] * n]),
        ])
        old = np.all((pts >= box.lower) & (pts <= box.upper), axis=1)
        new = contains(box, pts)
        assert np.array_equal(new, old)
        assert 0 < np.count_nonzero(new[:4000]) < 4000

    def test_faces_inside_and_infinite_bounds(self):
        box = AxisBox(np.array([-1.0, -np.inf]), np.array([1.0, 0.0]))
        pts = np.array([[-1.0, 0.0], [1.0, -1e308], [0.5, -np.inf],
                        [1.0 + 1e-15, -1.0], [0.0, 1e-300]])
        assert contains(box, pts).tolist() == [True, True, True, False,
                                               False]


class TestBoundaryDistance:
    def test_leaves(self):
        hs = HalfSpace(np.array([2.0, 0.0]), 3.0)  # x_1 <= 1.5
        assert boundary_distance(hs, np.array([0.5, 7.0])) == 1.0
        b = Ball(np.array([1.0, 0.0]), 2.0)
        assert boundary_distance(b, np.array([1.0, 0.5])) == 1.5
        assert boundary_distance(b, np.array([5.0, 0.0])) == -2.0
        box = AxisBox(np.array([-1.0, 0.0]), np.array([1.0, np.inf]))
        assert boundary_distance(box, np.array([0.5, 100.0])) == 0.5
        assert boundary_distance(box, np.array([0.0, -0.25])) == -0.25

    def test_boolean_nodes(self):
        b1 = Ball(np.zeros(2), 1.0)
        b2 = Ball(np.array([1.0, 0.0]), 1.0)
        x = np.array([0.25, 0.0])
        assert boundary_distance(Intersection((b1, b2)), x) == 0.25
        assert boundary_distance(Union((b1, b2)), x) == 0.75
        assert boundary_distance(Complement(b1), x) == -0.75

    def test_infinite_offset(self):
        full = HalfSpace(np.array([1.0, 0.0]), np.inf)
        assert boundary_distance(full, np.zeros(2)) == np.inf

    def test_sign_matches_contains(self):
        sets = [HalfSpace(np.array([0.6, 0.8]), 0.3),
                Ball(np.array([0.5, -0.2]), 1.1),
                AxisBox(np.array([-1.0, -np.inf]), np.array([0.7, 0.4])),
                Complement(Ball(np.zeros(2), 0.8)),
                Union((Ball(np.zeros(2), 1.0),
                       AxisBox(np.array([-1.0, -np.inf]),
                               np.array([1.0, 0.0])))),
                Intersection((Ball(np.zeros(2), 1.5),
                              HalfSpace(np.array([1.0, 1.0]), 0.2)))]
        pts = np.random.default_rng(3).standard_normal((5000, 2))
        for s in sets:
            assert np.array_equal(boundary_distance(s, pts) >= 0.0,
                                  contains(s, pts))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            boundary_distance(Ball(np.zeros(2), 1.0), np.zeros(3))

class TestGaussianMeasure:
    def test_halfspace_exact(self):
        est = gaussian_measure(HalfSpace(np.array([1.0, 0.0]), 0.0))
        assert est.value == 0.5 and est.std_error == 0.0 and est.samples == 0

    def test_halfspace_general_offset(self):
        est = gaussian_measure(HalfSpace(np.array([0.0, 2.0]), 3.0))
        assert est.value == float(std_normal_cdf(1.5))

    def test_centered_ball_half(self):
        est = gaussian_measure(Ball(np.zeros(2), HALF_BALL_RADIUS))
        assert abs(est.value - 0.5) <= 1e-15 and est.std_error == 0.0

    def test_centered_ball_radial_oracle(self):
        # 1 - exp(-r^2/2) in the plane
        for r in (0.5, 1.0, 2.0):
            est = gaussian_measure(Ball(np.zeros(2), r))
            assert abs(est.value - (1.0 - math.exp(-0.5 * r * r))) <= 1e-14

    def test_disjoint_intersection_empty(self):
        s = Intersection((Ball(np.array([5.0, 5.0]), 1.0),
                          Ball(np.array([-5.0, -5.0]), 1.0)))
        est = gaussian_measure(s, samples=100_000, seed=3)
        assert est.value == 0.0

    def test_mc_branch_used_for_offcenter_ball(self):
        # the off-centre ball is exact; a one-part union keeps the Monte
        # Carlo route, which must agree with it
        ball = Ball(np.array([1.0, 0.0]), 1.0)
        exact = gaussian_measure(ball, samples=50_000, seed=1)
        assert exact.samples == 0 and exact.std_error == 0.0
        est = gaussian_measure(Union((ball,)), samples=50_000, seed=1)
        assert est.samples == 50_000 and est.std_error > 0.0
        assert abs(est.value - exact.value) <= 3 * est.std_error

    def test_analytic_vs_mc_agreement(self):
        rng = np.random.default_rng(14)
        for trial in range(50):
            n = int(rng.integers(2, 4))
            if trial % 2 == 0:
                direction = rng.standard_normal(n)
                s = HalfSpace(direction, float(rng.uniform(-1.5, 1.5)))
            else:
                s = Ball(np.zeros(n), float(rng.uniform(0.5, 2.5)))
            exact = gaussian_measure(s).value
            # wrapping in a one-part union forces the MC branch
            mc = gaussian_measure(Union((s,)), samples=100_000,
                                  seed=500 + trial)
            assert abs(mc.value - exact) <= 3 * max(mc.std_error, 1e-5)

    def test_measure_sandwich(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            parts = (Ball(rng.standard_normal(2) * 0.5,
                          float(rng.uniform(0.8, 1.6))),
                     HalfSpace(rng.standard_normal(2),
                               float(rng.uniform(-0.5, 1.0))))
            mus = [gaussian_measure(Union((p,)), samples=100_000,
                                    seed=700 + trial).value for p in parts]
            se = 3 * 2 * math.sqrt(0.25 / 100_000)
            inter = gaussian_measure(Intersection(parts), samples=100_000,
                                     seed=800 + trial).value
            union = gaussian_measure(Union(parts), samples=100_000,
                                     seed=900 + trial).value
            assert inter <= min(mus) + se
            assert union >= max(mus) - se

    def test_reproducible(self):
        s = Union((Ball(np.array([0.5, 0.5]), 1.0),))
        a = gaussian_measure(s, samples=40_000, seed=5)
        b = gaussian_measure(s, samples=40_000, seed=5)
        assert a == b


def _poisson_mixture(r2, n, lam, terms=120):
    """Noncentral chi-square CDF at r2 as a Poisson(lam/2) mixture of
    central chi-square CDFs, sum_k w_k P(n/2 + k, r2/2)."""
    k = np.arange(terms)
    logw = -0.5 * lam + k * math.log(0.5 * lam) - special.gammaln(k + 1)
    return float(np.sum(np.exp(logw) * special.gammainc(0.5 * n + k,
                                                        0.5 * r2)))


def _random_leaf(rng, n):
    kind = rng.integers(3)
    if kind == 0:
        return HalfSpace(rng.standard_normal(n), float(rng.uniform(-1, 1)))
    if kind == 1:
        return Ball(rng.standard_normal(n) * 0.7, float(rng.uniform(0.5, 2)))
    lo = rng.uniform(-2.0, 0.5, n)
    hi = lo + rng.uniform(0.5, 3.0, n)
    lo[rng.integers(n)] = -np.inf
    return AxisBox(lo, hi)


def _old_leaf_measure(s):
    """The leaf measures as written apart from ``heat_flow``, kept as the
    oracle of the measure taken from the flow at t = inf."""
    if isinstance(s, HalfSpace):
        return float(special.ndtr(s.offset))
    if isinstance(s, Ball):
        r2 = s.radius * s.radius
        if np.all(s.center == 0.0):
            return float(special.gammainc(s.dim / 2.0, 0.5 * r2))
        return float(special.chndtr(r2, s.dim, float(s.center @ s.center)))
    tail = s.lower > 0.0
    mass = np.where(tail, special.ndtr(-s.lower) - special.ndtr(-s.upper),
                    special.ndtr(s.upper) - special.ndtr(s.lower))
    return float(np.prod(mass))


def _old_halfspace_closed(c, t, u):
    """The half-space flow as written apart from ``heat_flow``."""
    scale = math.sqrt(-math.expm1(-2.0 * t))
    return float(special.ndtr((float(c) - math.exp(-t) * float(u)) / scale))


class TestMeasureIsFlowAtInfinity:
    def test_halfspace_and_box_bit_equal_old_formulas(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            offset = rng.choice([float(rng.normal(0.0, 3.0)), np.inf,
                                 -np.inf, 0.0, -0.0])
            hs = HalfSpace(rng.standard_normal(n), offset)
            assert gaussian_measure(hs).value == _old_leaf_measure(hs)
            lo = rng.normal(0.0, 2.0, n)
            hi = lo + rng.exponential(1.5, n)
            lo[rng.random(n) < 0.2] = -np.inf
            hi[rng.random(n) < 0.2] = np.inf
            box = AxisBox(lo, hi)
            assert gaussian_measure(box).value == _old_leaf_measure(box)

    def test_centred_ball_bit_equal_old_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            r = float(rng.choice([0.0, rng.uniform(0.0, 6.0)]))
            ball = Ball(np.zeros(n), r)
            assert gaussian_measure(ball).value == _old_leaf_measure(ball)

    def test_offcentre_ball_moves_only_in_last_bits(self):
        # the noncentrality |c|^2 is now summed by einsum, not by a dot
        # product; its rounding (at most n eps |c|^2) reaches the measure
        # through dF/dlambda = (F(k + 2) - F(k)) / 2
        rng = np.random.default_rng(42)
        eps = np.finfo(float).eps
        for _ in range(300):
            n = int(rng.integers(1, 9))
            c = rng.standard_normal(n) * rng.uniform(0.1, 2.0)
            r = float(rng.uniform(0.1, 4.0))
            old = _old_leaf_measure(Ball(c, r))
            lam = float(c @ c)
            slope = 0.5 * abs(special.chndtr(r * r, n + 2, lam) - old)
            bound = slope * n * eps * lam + 4.0 * eps * old
            assert abs(gaussian_measure(Ball(c, r)).value - old) <= bound

    def test_halfspace_closed_bit_equal_old_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            c = float(rng.choice([rng.normal(0.0, 2.0), np.inf, -np.inf]))
            t = float(rng.choice([rng.uniform(1e-4, 3.0), 40.0]))
            u = float(rng.normal(0.0, 3.0))
            assert semigroup_halfspace_closed(c, t, u) \
                == _old_halfspace_closed(c, t, u)

    def test_centred_ball_flow_at_zero_noncentrality(self):
        for n, r, t in ((1, 0.7, 0.3), (2, HALF_BALL_RADIUS, 0.5),
                        (5, 2.1, 1.7)):
            scale = math.sqrt(-math.expm1(-2.0 * t))
            want = float(special.gammainc(n / 2.0, 0.5 * (r / scale) ** 2))
            assert heat_flow(Ball(np.zeros(n), r), t, np.zeros(n)) == want


class TestClosedForms:
    def test_offcenter_ball_poisson_mixture(self):
        for center, r, n in (([0.5, 0.0], 1.2, 2), ([1.0, -2.0, 0.5], 2.5, 3),
                             ([3.0, 0.0], 0.4, 2), ([0.1, 0.2, 0.3, 0.4], 1.0,
                                                    4)):
            c = np.array(center)
            est = gaussian_measure(Ball(c, r))
            assert est.samples == 0 and est.std_error == 0.0
            want = _poisson_mixture(r * r, n, float(c @ c))
            assert abs(est.value - want) <= 1e-14

    def test_far_tail_box(self):
        box = AxisBox(np.array([6.0, -np.inf]), np.array([7.0, np.inf]))
        want = 0.5 * (math.erfc(6.0 / math.sqrt(2.0))
                      - math.erfc(7.0 / math.sqrt(2.0)))
        est = gaussian_measure(box)
        assert est.samples == 0
        assert abs(est.value - want) <= 1e-12 * want
        # Monte Carlo sees nothing this far out
        assert gaussian_measure(Union((box,)), samples=100_000,
                                seed=2).value == 0.0

    def test_box_product(self):
        box = AxisBox(np.array([-1.0, 0.5, -np.inf]),
                      np.array([2.0, 1.5, 0.3]))
        want = ((std_normal_cdf(2.0) - std_normal_cdf(-1.0))
                * (std_normal_cdf(1.5) - std_normal_cdf(0.5))
                * std_normal_cdf(0.3))
        assert abs(gaussian_measure(box).value - want) <= 1e-15

    def test_centered_ball_bit_equal_gammainc(self):
        for n, r in ((2, HALF_BALL_RADIUS), (3, 1.7), (5, 0.9)):
            est = gaussian_measure(Ball(np.zeros(n), r))
            assert est.value == float(special.gammainc(n / 2.0, 0.5 * r * r))

    def test_heat_flow_vs_semigroup_apply(self):
        rng = np.random.default_rng(16)
        for trial in range(36):
            n = int(rng.integers(2, 4))
            s = _random_leaf(rng, n)
            t = float(rng.uniform(0.1, 1.5))
            x = rng.standard_normal(n)
            mc = semigroup_apply(s, t, x, 100_000, 1600 + trial)
            exact = heat_flow(s, t, x)
            assert abs(mc.value - exact) <= 3 * max(mc.std_error, 1e-5)

    def test_halfspace_flow_matches_closed_form(self):
        rng = np.random.default_rng(17)
        hs = HalfSpace(np.array([0.6, -0.8]), 0.3)
        pts = rng.standard_normal((50, 2))
        flow = heat_flow(hs, 0.7, pts)
        want = [semigroup_halfspace_closed(hs.offset, 0.7, u)
                for u in pts @ hs.normal]
        assert np.max(np.abs(flow - want)) <= 1e-15

    def test_batch_matches_single_points(self):
        rng = np.random.default_rng(18)
        pts = rng.standard_normal((20, 3))
        for s in (Ball(np.array([0.2, 0.0, -0.4]), 1.3),
                  AxisBox(np.array([-1.0, 0.0, -np.inf]),
                          np.array([1.0, 2.0, 0.5]))):
            batch = heat_flow(s, 0.4, pts)
            assert batch.shape == (20,)
            single = [heat_flow(s, 0.4, p) for p in pts]
            assert all(isinstance(v, float) for v in single)
            assert np.array_equal(batch, single)

    def test_long_time_flow_is_measure(self):
        x = np.array([2.0, -1.0])
        for s in (Ball(np.array([0.5, 0.0]), 1.2),
                  AxisBox(np.array([-0.5, 0.0]), np.array([1.0, np.inf]))):
            assert abs(heat_flow(s, 40.0, x)
                       - gaussian_measure(s).value) <= 1e-15

    def test_composites_unsupported(self):
        for s in (Union((Ball(np.zeros(2), 1.0),)),
                  Intersection((HalfSpace(np.array([1.0, 0.0]), 0.0),)),
                  Complement(Ball(np.zeros(2), 1.0))):
            with pytest.raises(UnsupportedRegion):
                heat_flow(s, 0.5, np.zeros(2))

    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_nonpositive_time_rejected(self, t):
        with pytest.raises(ValueError):
            heat_flow(Ball(np.zeros(2), 1.0), t, np.zeros(2))


class TestParallelHalfspaces:
    def test_median(self):
        (hs,) = parallel_halfspaces([0.5], np.array([1.0, 0.0]))
        assert hs.offset == 0.0

    def test_quantile_offsets(self):
        b1, b2 = parallel_halfspaces([0.3, 0.7], np.array([1.0, 0.0]))
        assert abs(b1.offset - (-0.5244005127080407)) <= 1e-6
        assert abs(b2.offset - 0.5244005127080407) <= 1e-6

    def test_round_trip_exact(self):
        ps = [0.01, 0.3, 0.5, 0.77, 0.999]
        for hs, p in zip(parallel_halfspaces(ps, np.array([0.0, 1.0])), ps):
            assert abs(gaussian_measure(hs).value - p) <= 1e-15

    def test_full_space_boundary(self):
        (hs,) = parallel_halfspaces([1.0], np.array([1.0, 0.0]))
        assert hs.offset == np.inf
        assert gaussian_measure(hs).value == 1.0
        assert contains(hs, np.array([100.0, 0.0]))

    def test_empty_boundary(self):
        (hs,) = parallel_halfspaces([0.0], np.array([1.0, 0.0]))
        assert gaussian_measure(hs).value == 0.0

    def test_direction_normalized(self):
        (hs,) = parallel_halfspaces([0.7], np.array([3.0, 4.0]))
        assert abs(np.linalg.norm(hs.normal) - 1.0) <= 1e-15
        assert abs(gaussian_measure(hs).value - 0.7) <= 1e-15

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            parallel_halfspaces([0.5], np.zeros(2))

    def test_rejects_bad_measures(self):
        with pytest.raises(ValueError):
            parallel_halfspaces([1.5], np.array([1.0, 0.0]))


class TestEnlarge:
    def test_halfspace(self):
        hs = enlarge(HalfSpace(np.array([1.0, 0.0]), 0.0), 0.1)
        assert hs.offset == 0.1

    def test_halfspace_scaled_normal(self):
        # eps acts in euclidean distance, so after canonicalization
        hs = enlarge(HalfSpace(np.array([2.0, 0.0]), 0.0), 0.1)
        assert hs.offset == 0.1

    def test_ball(self):
        b = enlarge(Ball(np.zeros(2), 1.0), 0.5)
        assert b.radius == 1.5

    def test_zero_identity(self):
        b0 = Ball(np.array([1.0, 2.0]), 1.0)
        b = enlarge(b0, 0.0)
        assert b.radius == b0.radius and np.array_equal(b.center, b0.center)

    def test_union_distributes(self):
        u = enlarge(Union((Ball(np.zeros(2), 1.0),
                           HalfSpace(np.array([1.0, 0.0]), 0.0))), 0.2)
        assert u.parts[0].radius == 1.2
        assert u.parts[1].offset == 0.2

    def test_unsupported_nodes(self):
        hs = HalfSpace(np.array([1.0, 0.0]), 0.0)
        for bad in (Complement(hs), Intersection((hs, hs)),
                    AxisBox(np.zeros(2), np.ones(2))):
            with pytest.raises(UnsupportedRegion):
                enlarge(bad, 0.1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enlarge(Ball(np.zeros(2), 1.0), -0.1)

    def test_measure_monotone_in_eps(self):
        prev = -1.0
        for eps in (0.0, 0.05, 0.1, 0.2, 0.4):
            v = gaussian_measure(enlarge(Ball(np.zeros(2), 1.0), eps)).value
            assert v >= prev
            prev = v

    def test_contains_grows(self):
        rng = np.random.default_rng(16)
        s = Union((Ball(np.array([0.3, -0.2]), 0.9),
                   HalfSpace(np.array([1.0, 1.0]), -0.5)))
        big = enlarge(s, 0.3)
        pts = rng.standard_normal((2000, 2))
        inside = contains(s, pts)
        assert np.all(contains(big, pts)[inside])


class TestSetSystem:
    def test_basic(self):
        sys = SetSystem((Ball(np.zeros(2), 1.0),
                         HalfSpace(np.array([1.0, 0.0]), 0.0)))
        assert sys.k == 2 and sys.dim == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SetSystem(())
