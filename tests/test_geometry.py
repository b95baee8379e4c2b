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
    gaussian_measure,
    heat_flow,
    orthant_qmc,
    OrthantQuery,
    parallel_halfspaces,
    semigroup_apply,
    std_normal_cdf,
)
from noisestab.geometry import CHNDTR_MAX, PLANE_NODES, _ball_flow_far, \
    _flow_table, _plane_measure, exact_measure, level_set, pair_measure, pair_measures
from noisestab.orthant import _bivariate_orthant

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

class TestHalfspaceBatchInvariance:
    """A point gets the same bits alone as in a batch, for an oblique
    normal and points on the boundary up to rounding, so no point
    changes side with the size of its batch."""

    def test_single_point_matches_batch_row(self):
        hs = HalfSpace(np.array([0.6, 0.8]), 0.8)
        pts = np.random.default_rng(11).standard_normal((3000, 2))
        pts[::2] += np.outer(hs.offset - pts[::2] @ hs.normal, hs.normal)
        for f in (boundary_distance, contains,
                  lambda s, x: heat_flow(s, 0.5, x)):
            batch = f(hs, pts)
            single = np.array([f(hs, p) for p in pts])
            assert single.tobytes() == batch.tobytes()


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
        # the off-centre ball is exact; a one-part union in n = 3 keeps the
        # Monte Carlo route (2-d composites are exact), which must agree
        # with it
        ball = Ball(np.array([1.0, 0.0, 0.0]), 1.0)
        exact = gaussian_measure(ball, samples=50_000, seed=1)
        assert exact.samples == 0 and exact.std_error == 0.0
        est = gaussian_measure(Union((ball,)), samples=50_000, seed=1)
        assert est.samples == 50_000 and est.std_error > 0.0
        assert abs(est.value - exact.value) <= 3 * est.std_error

    def test_exact_measure_is_the_exact_branch(self):
        # exact_measure gives the measure exactly where gaussian_measure
        # reports no samples, and None where it falls back to Monte Carlo
        ball = Ball(np.array([1.0, 0.0]), 1.0)
        for s in (HalfSpace(np.array([0.6, 0.8]), 0.3), ball,
                  AxisBox(np.array([-1.0, 0.0]), np.array([0.5, np.inf])),
                  Union((ball,)), Complement(ball),
                  Ball(np.zeros(3), 1.5), Union((Ball(np.zeros(3), 1.5),))):
            est = gaussian_measure(s, samples=10_000, seed=2)
            if est.samples:
                assert exact_measure(s) is None and s.dim != 2
            else:
                assert exact_measure(s) == est.value

    def test_analytic_vs_mc_agreement(self):
        rng = np.random.default_rng(14)
        for trial in range(50):
            n = int(rng.integers(3, 5))
            if trial % 2 == 0:
                direction = rng.standard_normal(n)
                s = HalfSpace(direction, float(rng.uniform(-1.5, 1.5)))
            else:
                s = Ball(np.zeros(n), float(rng.uniform(0.5, 2.5)))
            exact = gaussian_measure(s).value
            # wrapping in a one-part union forces the MC branch in n >= 3
            mc = gaussian_measure(Union((s,)), samples=100_000,
                                  seed=500 + trial)
            assert abs(mc.value - exact) <= 3 * max(mc.std_error, 1e-5)

    def test_measure_sandwich(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            # in n = 3, where composites are Monte Carlo
            parts = (Ball(rng.standard_normal(3) * 0.5,
                          float(rng.uniform(0.8, 1.6))),
                     HalfSpace(rng.standard_normal(3),
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
        # a composite in n = 3, so the Monte Carlo route
        s = Union((Ball(np.array([0.5, 0.5, 0.0]), 1.0),))
        a = gaussian_measure(s, samples=40_000, seed=5)
        b = gaussian_measure(s, samples=40_000, seed=5)
        assert a == b and a.samples == 40_000


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
            assert heat_flow(HalfSpace(np.ones(1), c), t, np.array([u])) \
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
        box = AxisBox(np.array([6.0, -np.inf, -np.inf]),
                      np.array([7.0, np.inf, np.inf]))
        want = 0.5 * (math.erfc(6.0 / math.sqrt(2.0))
                      - math.erfc(7.0 / math.sqrt(2.0)))
        est = gaussian_measure(box)
        assert est.samples == 0
        assert abs(est.value - want) <= 1e-12 * want
        # Monte Carlo (a one-part union in n = 3) sees nothing this far out
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
        want = [_old_halfspace_closed(hs.offset, 0.7, u)
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


def _plane_leaf(rng):
    """A random 2-d leaf: an off-centre ball, a box with up to two
    infinite sides, an oblique or an axis half-space."""
    kind = rng.integers(4)
    if kind == 0:
        return Ball(rng.standard_normal(2) * 0.8, float(rng.uniform(0.3, 2.0)))
    if kind == 1:
        lo = rng.uniform(-2.0, 0.5, 2)
        hi = lo + rng.uniform(0.5, 3.0, 2)
        for side in rng.choice(4, size=int(rng.integers(3)), replace=False):
            (lo if side < 2 else hi)[side % 2] = -np.inf if side < 2 \
                else np.inf
        return AxisBox(lo, hi)
    if kind == 2:
        return HalfSpace(rng.standard_normal(2), float(rng.uniform(-1.5, 1.5)))
    normal = np.zeros(2)
    normal[rng.integers(2)] = rng.choice([-1.0, 1.0])
    return HalfSpace(normal, float(rng.uniform(-1.5, 1.5)))


def _plane_set(rng, depth):
    """A random 2-d composite of nested complements, intersections and
    unions of ``_plane_leaf`` leaves."""
    kind = rng.integers(3)
    if depth == 0:
        return _plane_leaf(rng)
    if kind == 0:
        return Complement(_plane_set(rng, depth - 1))
    parts = tuple(_plane_set(rng, int(rng.integers(depth)))
                  for _ in range(int(rng.integers(2, 4))))
    return Intersection(parts) if kind == 1 else Union(parts)


class TestPlaneMeasure:
    LEAVES = (
        Ball(np.array([0.5, -0.3]), 1.2),
        Ball(np.array([3.0, 1.0]), 0.4),
        Ball(np.array([-2.0, 0.5]), 3.0),
        Ball(np.array([0.0, 8.5]), 1.0),
        AxisBox(np.array([-1.0, -np.inf]), np.array([2.0, 0.5])),
        AxisBox(np.array([-np.inf, 0.3]), np.array([np.inf, 1.0])),
        AxisBox(np.array([6.0, -np.inf]), np.array([7.0, np.inf])),
        AxisBox(np.array([-0.5, -2.0]), np.array([0.25, 3.0])),
        HalfSpace(np.array([0.6, -0.8]), 0.3),
        HalfSpace(np.array([-0.28, 0.96]), -1.1),
        HalfSpace(np.array([1.0, 0.0]), 0.2),
        HalfSpace(np.array([0.0, -1.0]), 0.4),
        HalfSpace(np.array([1.0, 1e-9]), 0.1),
        HalfSpace(np.array([-1.0, 1e-9]), -0.7),
    )

    @pytest.mark.parametrize("leaf", LEAVES, ids=repr)
    def test_leaves_match_heat_flow(self, leaf):
        want = heat_flow(leaf, math.inf, np.zeros(2))
        assert abs(_plane_measure(leaf) - want) <= 1e-13

    def test_halfspace_pair_is_bivariate_orthant(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = (HalfSpace(rng.standard_normal(2),
                              float(rng.uniform(-1.5, 1.5))) for _ in range(2))
            rho = float(a.normal @ b.normal)
            est = orthant_qmc(OrthantQuery(np.array([a.offset, b.offset]),
                                           np.array([[1.0, rho],
                                                     [rho, 1.0]])),
                              1e-6, 1)
            assert est.std_error == 0.0
            got = gaussian_measure(Intersection((a, b)))
            assert abs(got.value - est.value) <= 1e-13

    def test_inclusion_exclusion_and_complement(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            a, b = _plane_set(rng, 1), _plane_set(rng, 1)
            mu_a, mu_b = _plane_measure(a), _plane_measure(b)
            both = _plane_measure(Union((a, b))) \
                + _plane_measure(Intersection((a, b)))
            assert abs(both - (mu_a + mu_b)) <= 1e-13
            assert abs(_plane_measure(Complement(a)) - (1.0 - mu_a)) <= 1e-13

    def test_doubling_the_nodes_changes_nothing(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            s = _plane_set(rng, 3)
            assert abs(_plane_measure(s, 2 * PLANE_NODES)
                       - _plane_measure(s)) <= 1e-13

    def test_random_composites_against_monte_carlo(self):
        # the Monte Carlo runs through ``contains``, not the measure code
        rng = np.random.default_rng(34)
        draws, far = 400_000, []
        for trial in range(100):
            s = _plane_set(rng, 3)
            est = gaussian_measure(s, samples=10, seed=trial + 1)
            assert (est.std_error, est.samples) == (0.0, 0)
            pts = np.random.default_rng(3400 + trial).standard_normal(
                (draws, 2))
            freq = np.count_nonzero(contains(s, pts)) / draws
            se = math.sqrt(est.value * (1.0 - est.value) / draws)
            gap = abs(freq - est.value)
            assert gap <= 4.0 * se
            far.append(gap > 3.0 * se)
        assert sum(far) <= 1  # at most 1%

    def test_disjoint_balls_exactly_zero(self):
        s = Intersection((Ball(np.array([-1.0, 0.0]), 0.9),
                          Ball(np.array([1.0, 0.0]), 0.9)))
        assert gaussian_measure(s).value == 0.0

    def test_mc_sets_union(self):
        s = Union((Ball(np.zeros(2), 1.0),
                   AxisBox(np.array([-1.0, -np.inf]), np.array([1.0, 0.0]))))
        est = gaussian_measure(s)
        assert (est.std_error, est.samples) == (0.0, 0)
        assert abs(est.value - 0.53807942) <= 1e-8


class TestFlowTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("centred", [True, False])
    def test_ball_table_reads_heat_flow(self, n, centred):
        rng = np.random.default_rng(90 + 2 * n + centred)
        worst = 0.0
        for radius in (0.3, 1.0, 3.0):
            for rho in (0.1, 0.5, 0.9):
                center = np.zeros(n) if centred else rng.uniform(-1.0, 1.0, n)
                ball = Ball(center, radius)
                t = -0.5 * math.log(rho)
                x = 1.5 * rng.standard_normal((100_000, n))
                worst = max(worst, np.max(np.abs(
                    _flow_table(ball, t)(x) - heat_flow(ball, t, x))))
        assert worst <= 1e-9

    def test_ball_table_ends_at_zero(self):
        ball = Ball(np.array([0.5, 0.0]), 1.2)
        far = np.array([[40.0, 0.0], [0.0, -1e6]])
        assert np.all(_flow_table(ball, 0.3)(far) == 0.0)

    def test_other_leaves_take_heat_flow(self):
        rng = np.random.default_rng(93)
        x = rng.standard_normal((50, 2))
        for s in (HalfSpace(np.array([1.0, 2.0]), 0.3),
                  AxisBox(np.array([-1.0, -np.inf]), np.array([0.5, 1.0])),
                  # sigma 1e-4 against radius 2 would take 1.3e6 nodes
                  Ball(np.zeros(2), 2.0)):
            t = 5e-9 if isinstance(s, Ball) else 0.4
            assert np.array_equal(_flow_table(s, t)(x), heat_flow(s, t, x))

    def test_composite_has_none(self):
        assert _flow_table(Union((Ball(np.zeros(2), 1.0),)), 0.4) is None
        assert _flow_table(Complement(HalfSpace(np.ones(2), 0.0)), 0.4) \
            is None


class TestBallSmallTime:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("t", [1e-12, 1e-20, 1e-50, 1e-100, 1e-200])
    def test_inside_outside_boundary(self, n, t):
        e = np.zeros(n)
        e[0] = 1.0
        ball = Ball(np.zeros(n), 1.0)
        assert heat_flow(ball, t, 0.5 * e) == 1.0
        assert heat_flow(ball, t, 1.5 * e) == 0.0
        rim = heat_flow(ball, t, e)
        if n == 1:
            # the interval's flow is a Phi difference, a little above 1/2
            # while e^{-t} < 1 moves the mean inside; an ulp of the unit
            # inputs moves it by about 1e-16 / scale
            decay = math.exp(-t)
            scale = math.sqrt(-math.expm1(-2.0 * t))
            want = special.ndtr((1.0 - decay) / scale) \
                - special.ndtr(-(1.0 + decay) / scale)
            assert abs(rim - want) <= 1e-15 / scale
        else:
            assert 0.49 < rim <= 0.5

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_forms_agree_at_threshold(self, n):
        radius = math.sqrt(CHNDTR_MAX)
        dist = np.concatenate([radius + np.linspace(-8.0, 8.0, 33),
                               np.linspace(0.5, radius - 8.0, 50)])
        far = _ball_flow_far(radius, dist, n)
        near = special.chndtr(CHNDTR_MAX, n, dist * dist)
        assert np.max(np.abs(far - near)) <= 1e-10

    def test_small_time_flow_is_finite(self):
        rng = np.random.default_rng(35)
        ball = Ball(np.array([0.3, -0.2]), 1.1)
        pts = ball.center + rng.uniform(-2.0, 2.0, (200, 2))
        for t in (1e-8, 1e-12, 1e-30):
            flow = heat_flow(ball, t, pts)
            assert np.all((flow >= 0.0) & (flow <= 1.0))


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


class TestJoins:
    @pytest.mark.parametrize("cls", [Intersection, Union])
    def test_rejects_no_parts(self, cls):
        with pytest.raises(ValueError,
                           match=f"^{cls.__name__.lower()} needs at least"):
            cls(())

    @pytest.mark.parametrize("cls", [Intersection, Union])
    def test_rejects_mixed_dimensions(self, cls):
        with pytest.raises(ValueError, match=r"mixed ambient dimensions \[1, 2\]"):
            cls((Ball(np.zeros(2), 1.0), Ball(np.zeros(1), 1.0)))


class TestLevelSet:
    """level_set(s, delta) holds the points at boundary distance >= delta
    from the boundary of s, for delta of either sign."""

    BOX = AxisBox(np.array([-1.0, -0.5]), np.array([0.8, np.inf]))
    NAMED = (
        Complement(BOX),
        Union((Ball(np.array([0.5, 0.0]), 1.0), BOX)),
        Intersection((Ball(np.zeros(2), 1.5),
                      HalfSpace(np.array([1.0, 1.0]), 0.2), BOX)),
    )

    def _sets(self):
        rng = np.random.default_rng(17)
        sets = list(self.NAMED)
        sets += [_random_leaf(rng, n) for n in (1, 2, 3) for _ in range(8)]
        sets += [_plane_set(rng, 2) for _ in range(12)]
        return rng, sets

    @pytest.mark.parametrize("delta", [-0.7, -0.1, 0.0, 0.1, 0.7])
    def test_matches_boundary_distance(self, delta):
        rng, sets = self._sets()
        for s in sets:
            pts = 1.5 * rng.standard_normal((4000, s.dim))
            dist = boundary_distance(s, pts)
            clear = np.abs(dist - delta) > 1e-12
            inside = contains(level_set(s, delta), pts)
            assert np.array_equal(inside[clear], (dist >= delta)[clear])
            assert clear.mean() > 0.99

    def test_leaf_level_sets(self):
        level = level_set(Ball(np.array([1.0, 0.0]), 2.0), 0.5)
        assert isinstance(level, Ball) and level.radius == 1.5
        level = level_set(HalfSpace(np.array([0.6, 0.8]), 0.3), -0.2)
        assert isinstance(level, HalfSpace) and level.offset == 0.5
        level = level_set(self.BOX, -0.25)
        assert np.array_equal(level.lower, [-1.25, -0.75])
        assert np.array_equal(level.upper, [1.05, np.inf])

    def test_empty_level_set_has_measure_zero(self):
        ball = Ball(np.array([0.3, -0.2]), 0.6)
        thin = AxisBox(np.array([-1.0, -5.0]), np.array([1.0, 5.0]))
        empties = [level_set(ball, 0.61), level_set(thin, 1.01),
                   level_set(Ball(np.zeros(3), 1.0), 2.0),
                   level_set(Intersection((ball, thin)), 0.7),
                   level_set(Union((ball, Ball(np.ones(2), 0.2))), 0.65),
                   level_set(Complement(Complement(ball)), 0.61)]
        for s in empties[:3]:
            assert isinstance(s, HalfSpace) and s.offset == -np.inf
        for s in empties:
            assert exact_measure(s) == 0.0
            assert not contains(s, np.zeros((100, s.dim))).any()
        # a level set below the empty one's is not empty
        assert exact_measure(level_set(ball, 0.59)) > 0.0
        assert exact_measure(level_set(Intersection((ball, thin)),
                                       0.59)) > 0.0


class TestSetSystem:
    def test_basic(self):
        sys = SetSystem((Ball(np.zeros(2), 1.0),
                         HalfSpace(np.array([1.0, 0.0]), 0.0)))
        assert sys.k == 2 and sys.dim == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SetSystem(())


def _levels(s, tau, count):
    """s and its nonempty level sets at j sigma / 2, j < count, sigma the
    OU displacement scale over tau, as the OU scans cut their shells."""
    width = 0.5 * math.sqrt(-math.expm1(-2.0 * tau))
    levels = [level_set(s, j * width) for j in range(count)]
    return [level for level in levels if isinstance(level, type(s))]


NU = np.array([0.6, 0.8])


class TestPairMeasure:
    """Pr(X in a, X_t in b) for the OU pair (X, e^{-t} X + sqrt(1 -
    e^{-2t}) Y) of two half-spaces with one normal or two centred balls:
    one quadrature of the end's heat flow over the start's coordinate."""

    PAIRS = [
        (HalfSpace(NU, 0.3), HalfSpace(NU, -0.5), 0.1),
        (HalfSpace(NU, 1.7), HalfSpace(NU, 0.2), 1e-3),
        (HalfSpace(NU, -2.0), HalfSpace(NU, 2.5), 3.0),
        (Ball(np.zeros(1), 0.4), Ball(np.zeros(1), 1.3), 0.5),
        (Ball(np.zeros(2), HALF_BALL_RADIUS), Ball(np.zeros(2), 0.6), 0.1),
        (Ball(np.zeros(2), 2.5), Ball(np.zeros(2), 2.4), 1e-3),
        (Ball(np.zeros(3), 1.5), Ball(np.zeros(3), 2.0), 2.0),
    ]

    @pytest.mark.parametrize("a,b,t", PAIRS)
    def test_reversible(self, a, b, t):
        # the stationary OU process is reversible
        assert abs(pair_measure(a, b, t) - pair_measure(b, a, t)) <= 1e-12

    @pytest.mark.parametrize("a,b,t", PAIRS)
    def test_stable_under_node_doubling(self, a, b, t):
        # the cells are differences of these values, so they must hold
        # far more digits than any scan resolves
        one, two = (pair_measures(_levels(a, t, 4), _levels(b, t, 4), t,
                                  nodes) for nodes in (PLANE_NODES,
                                                       2 * PLANE_NODES))
        assert np.max(np.abs(one - two)) <= 1e-12

    def test_halfspaces_match_the_bivariate_orthant(self):
        # (nu.X, nu.X_t) is a standard pair with correlation e^{-t}
        rng = np.random.default_rng(5)
        for _ in range(40):
            c1, c2 = rng.uniform(-3.0, 3.0, 2)
            t = 10.0 ** rng.uniform(-3.0, 1.0)
            want = _bivariate_orthant(c1, c2, math.exp(-t))
            got = pair_measure(HalfSpace(NU, c1), HalfSpace(NU, c2), t)
            assert abs(got - want) <= 1e-10

    @pytest.mark.parametrize("n,ra,rb,t", [(1, 0.8, 1.2, 0.3),
                                           (2, HALF_BALL_RADIUS, 0.9, 0.1),
                                           (3, 1.6, 1.9, 0.7)])
    def test_balls_match_monte_carlo(self, n, ra, rb, t):
        rng = np.random.default_rng(n)
        draws, chunk, hits = 4_000_000, 500_000, 0
        for _ in range(draws // chunk):
            x = rng.standard_normal((chunk, n))
            y = math.exp(-t) * x + math.sqrt(-math.expm1(-2.0 * t)) \
                * rng.standard_normal((chunk, n))
            hits += np.count_nonzero((np.sum(x * x, axis=1) <= ra * ra)
                                     & (np.sum(y * y, axis=1) <= rb * rb))
        p = hits / draws
        got = pair_measure(Ball(np.zeros(n), ra), Ball(np.zeros(n), rb), t)
        assert abs(got - p) <= 3.0 * math.sqrt(p * (1.0 - p) / draws)

    @pytest.mark.parametrize("s,whole", [
        (HalfSpace(NU, 0.4), HalfSpace(NU, math.inf)),
        (Ball(np.zeros(2), HALF_BALL_RADIUS), Ball(np.zeros(2), 40.0)),
        (Ball(np.zeros(3), 1.5), Ball(np.zeros(3), 40.0))])
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_cells_of_a_start_level_sum_to_its_measure(self, s, whole, t):
        # the end cells of each start level L: the end outside s, and in
        # each shell of s; they sum to mu(L)
        levels = _levels(s, t, 6)
        table = pair_measures(levels, levels + [whole], t)
        cells = np.column_stack([table[:, -1] - table[:, 0],
                                 table[:, :-2] - table[:, 1:-1],
                                 table[:, -2]])
        assert np.all(cells >= -1e-15)
        for level, row in zip(levels, cells):
            assert abs(row.sum() - exact_measure(level)) <= 1e-12

    def test_other_pairs_have_none(self):
        ball = Ball(np.zeros(2), 1.0)
        for a, b in [(ball, Ball(np.array([0.5, 0.0]), 1.0)),
                     (ball, HalfSpace(NU, 0.3)),
                     (HalfSpace(NU, 0.3),
                      HalfSpace(np.array([1.0, 0.0]), 0.3)),
                     (AxisBox(np.full(2, -1.0), np.ones(2)),
                      AxisBox(np.full(2, -1.0), np.ones(2))),
                     (ball, Ball(np.zeros(3), 1.0)),
                     (Union((ball,)), ball)]:
            assert pair_measure(a, b, 0.5) is None
            assert pair_measure(b, a, 0.5) is None
        with pytest.raises(ValueError, match="time must be positive"):
            pair_measure(ball, ball, 0.0)

    def test_long_time_is_independent(self):
        a, b = Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 0.5)
        want = exact_measure(a) * exact_measure(b)
        assert abs(pair_measure(a, b, math.inf) - want) <= 1e-14
        assert abs(pair_measure(a, b, 40.0) - want) <= 1e-14
