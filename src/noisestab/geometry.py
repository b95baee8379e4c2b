"""Measurable subsets of R^n as an expression algebra.

Leaves are closed half-spaces, balls, and axis-aligned boxes; nodes are
complement, intersection, and union. Indicator evaluation is exact and
vectorized, as is a signed distance to the boundary, whose level sets
are set expressions again (``level_set``). Heat flow has a
closed form for every leaf, in any dimension, in ``heat_flow``, the only
place with leaf formulas: the heat flow at a point is the measure of an
affine image of the set, and a leaf's image is a leaf of the same kind.
A ball's flow at one time over many points reads a table built from
``heat_flow`` (``_flow_table``).
A leaf's Gaussian measure is its heat flow at t = inf. A composite's
is exact in the plane, integrated along vertical chords
(``_plane_measure``), and Monte Carlo in other dimensions.
``exact_measure`` is the one place that says which measures are exact.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .orthant import Estimate
from .gaussian import std_normal_pdf, std_normal_quantile
from .seeding import check_seed, indicator_hits

DEFAULT_MEASURE_SAMPLES = 10**6

# The exact measure of 2-d composites integrates over [-L, L]^2 with
# L = PLANE_HALF_WIDTH, whose complement has Gaussian mass below 5e-19,
# on pieces of x_1 at most PLANE_PIECE wide with PLANE_NODES
# Gauss-Legendre nodes each; pieces graded towards a ball's extreme stop
# PLANE_GRADE_MIN from it.
PLANE_HALF_WIDTH = 9.0
PLANE_PIECE = 1.0
PLANE_NODES = 24
PLANE_GRADE_MIN = 1e-12

# ``special.chndtr`` returns nan once its arguments pass about 1e11, as a
# ball's do at small times; above this bound on either argument the
# ball's heat flow takes ``_ball_flow_far`` on CHNDTR_FAR_NODES nodes.
# At the bound the two forms agree to 7e-13, about what an ulp of the
# arguments moves either by.
CHNDTR_MAX = 1e8
CHNDTR_FAR_NODES = 32


class UnsupportedRegion(ValueError):
    """Operation has no closed form on this expression shape."""


class SetExpr:
    """Base class for set expressions; all concrete sets are frozen."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


def _unit(v) -> tuple[np.ndarray, float]:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("normal must be a nonempty vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("normal must be finite")
    big = float(np.max(np.abs(a)))
    if big == 0.0:
        raise ValueError("normal must be nonzero")
    # scale by the largest entry so the norm cannot underflow or overflow;
    # keep a normal that is unit up to rounding (as a copy, so the caller's
    # array stays writable): normalising twice then changes nothing, and
    # the DSL round trip is exact
    scaled = a / big
    s = float(np.linalg.norm(scaled))
    if abs(big * s - 1.0) <= 4 * a.size * np.finfo(float).eps:
        return a.copy(), 1.0
    return scaled / s, big * s


@dataclass(frozen=True, eq=False)
class HalfSpace(SetExpr):
    """Closed half-space {x : x . normal <= offset}, stored canonically
    with a unit normal and correspondingly scaled offset."""
    normal: np.ndarray
    offset: float

    def __post_init__(self):
        offset = float(self.offset)
        if math.isnan(offset):
            raise ValueError("offset must not be nan")
        unit, nrm = _unit(self.normal)
        unit.setflags(write=False)
        object.__setattr__(self, "normal", unit)
        # an infinite offset stays as it is (the set is empty or the whole
        # space), also where the norm overflows and inf / inf would be nan
        object.__setattr__(self, "offset",
                           offset if math.isinf(offset) else offset / nrm)

    @property
    def dim(self) -> int:
        return self.normal.size


@dataclass(frozen=True, eq=False)
class Ball(SetExpr):
    """Closed ball {x : |x - center| <= radius}."""
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.size < 1 or not np.all(np.isfinite(c)):
            raise ValueError("center must be a finite nonempty vector")
        if not float(self.radius) >= 0.0:
            raise ValueError("radius must be nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True, eq=False)
class AxisBox(SetExpr):
    """Closed box {x : lower_i <= x_i <= upper_i}; infinite bounds allowed."""
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 1:
            raise ValueError("box bounds must be matching nonempty vectors")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be nan")
        if np.any(lo > hi):
            raise ValueError("box lower bounds must not exceed upper bounds")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size


def _common_dim(parts: tuple[SetExpr, ...]) -> int:
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise ValueError(f"mixed ambient dimensions {sorted(dims)}")
    return dims.pop()


@dataclass(frozen=True, eq=False)
class Complement(SetExpr):
    inner: SetExpr

    @property
    def dim(self) -> int:
        return self.inner.dim


@dataclass(frozen=True, eq=False)
class _Join(SetExpr):
    """One or more parts in a common ambient dimension."""
    parts: tuple[SetExpr, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError(f"{type(self).__name__.lower()} needs at least "
                             "one part")
        _common_dim(parts)
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim


@dataclass(frozen=True, eq=False)
class Intersection(_Join):
    """The points in every part."""


@dataclass(frozen=True, eq=False)
class Union(_Join):
    """The points in some part."""


@dataclass(frozen=True, eq=False)
class SetSystem:
    """Ordered collection (A_1, ..., A_k) in a common ambient dimension."""
    sets: tuple[SetExpr, ...]

    def __post_init__(self):
        parts = tuple(self.sets)
        if not parts:
            raise ValueError("a set system needs at least one set")
        _common_dim(parts)
        object.__setattr__(self, "sets", parts)

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def dim(self) -> int:
        return self.sets[0].dim


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _square_distance(s: Ball, pts: np.ndarray) -> np.ndarray:
    """|x - center|^2 column by column; even and odd columns are summed
    apart, the order of ``einsum("ij,ij->i")`` up to n = 7. A zero
    centre coordinate is not subtracted, since x - 0 is x exactly."""
    sq = [np.square(pts[:, j] - c if c else pts[:, j])
          for j, c in enumerate(s.center)]
    for j in range(2, s.dim):
        sq[j % 2] += sq[j]
    return sum(sq[1:2], sq[0])


def _project(s: HalfSpace, pts: np.ndarray) -> np.ndarray:
    """x . normal column by column, left to right, so a point gets the
    same bits alone as in a batch (numpy's matrix product takes one row
    through a dot and a batch through gemv, whose last bits differ)."""
    out = pts[:, 0] * s.normal[0]
    term = np.empty_like(out)
    for j in range(1, s.dim):
        out += np.multiply(pts[:, j], s.normal[j], out=term)
    return out


def _box_contains(s: AxisBox, pts: np.ndarray) -> np.ndarray:
    """lower <= x <= upper column by column, with no (N, n) temporary."""
    out = np.ones(len(pts), dtype=bool)
    for j, (lo, hi) in enumerate(zip(s.lower, s.upper)):
        col = pts[:, j]
        out &= col >= lo
        out &= col <= hi
    return out


def _contains(s: SetExpr, pts: np.ndarray) -> np.ndarray:
    if isinstance(s, HalfSpace):
        return _project(s, pts) <= s.offset
    if isinstance(s, Ball):
        return _square_distance(s, pts) <= s.radius * s.radius
    if isinstance(s, AxisBox):
        return _box_contains(s, pts)
    if isinstance(s, Complement):
        return ~_contains(s.inner, pts)
    if isinstance(s, _Join):
        join = np.logical_and if isinstance(s, Intersection) else np.logical_or
        out = _contains(s.parts[0], pts)
        for p in s.parts[1:]:
            join(out, _contains(p, pts), out=out)
        return out
    raise TypeError(f"not a set expression: {type(s).__name__}")


def _distance(s: SetExpr, pts: np.ndarray) -> np.ndarray:
    if isinstance(s, HalfSpace):
        return s.offset - _project(s, pts)
    if isinstance(s, Ball):
        sq = _square_distance(s, pts)
        return s.radius - np.sqrt(sq, out=sq)
    if isinstance(s, AxisBox):
        return np.minimum(pts - s.lower, s.upper - pts).min(axis=1)
    if isinstance(s, Complement):
        return -_distance(s.inner, pts)
    if isinstance(s, _Join):
        combine = np.minimum if isinstance(s, Intersection) else np.maximum
        out = _distance(s.parts[0], pts)
        for p in s.parts[1:]:
            combine(out, _distance(p, pts), out=out)
        return out
    raise TypeError(f"not a set expression: {type(s).__name__}")


def _points(s: SetExpr, x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        if pts.size != s.dim:
            raise ValueError(f"point dimension {pts.size} != set dimension {s.dim}")
        return pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != s.dim:
        raise ValueError(f"points must have shape (N, {s.dim})")
    return pts


def contains(s: SetExpr, x) -> bool | np.ndarray:
    """Exact membership; boundary points count as inside for the closed
    leaves. Accepts one point (n,) or a batch (N, n)."""
    out = _contains(s, _points(s, x))
    return bool(out[0]) if np.ndim(x) == 1 else out


def boundary_distance(s: SetExpr, x) -> float | np.ndarray:
    """Signed distance to the boundary of ``s``: positive inside, negative
    outside, so it is >= 0 exactly where ``contains`` holds (up to
    rounding on the boundary itself). Accepts one point (n,) or a batch
    (N, n).

    Leaves give the Euclidean distance (``offset - normal.x`` for a
    half-space, ``radius - |x - center|`` for a ball, the nearest face
    for a box inside it); an intersection takes the minimum over its
    parts, a union the maximum, a complement the negation. Inside a set
    the result is exact except for unions, where it is a lower bound;
    outside a box or an intersection (which is where a complement looks)
    it is a lower bound on the magnitude too.
    """
    out = _distance(s, _points(s, x))
    return float(out[0]) if np.ndim(x) == 1 else out


def _empty(dim: int) -> HalfSpace:
    """The empty set in R^dim: {x : x_1 <= -inf}, of measure exactly 0."""
    return HalfSpace(np.eye(dim)[0], -math.inf)


def level_set(s: SetExpr, delta: float) -> SetExpr:
    """The set {x : boundary_distance(s, x) >= delta}, for any real delta.

    A ball's radius becomes radius - delta and a half-space's offset
    offset - delta. A box moves each face inwards by delta (outwards for
    a negative delta), which is exact on both sides of its boundary:
    outside it the distance is minus the largest face violation. An
    intersection or a union takes the level sets of its parts, and a
    complement the complement of its inner set's level set at -delta,
    which differs from the level set only on {distance = delta}. A level
    set with no point is ``_empty``.
    """
    delta = float(delta)
    if isinstance(s, HalfSpace):
        return HalfSpace(s.normal, s.offset - delta)
    if isinstance(s, Ball):
        radius = s.radius - delta
        return Ball(s.center, radius) if radius >= 0.0 else _empty(s.dim)
    if isinstance(s, AxisBox):
        lower, upper = s.lower + delta, s.upper - delta
        return AxisBox(lower, upper) if np.all(lower <= upper) \
            else _empty(s.dim)
    if isinstance(s, Complement):
        return Complement(level_set(s.inner, -delta))
    if isinstance(s, _Join):
        return type(s)(tuple(level_set(p, delta) for p in s.parts))
    raise TypeError(f"not a set expression: {type(s).__name__}")


def _ball_flow_far(radius: float, dist: np.ndarray, n: int) -> np.ndarray:
    """Pr(|d + Y| <= radius) for Y standard in R^n and |d| = ``dist``
    (one value per entry), where ``special.chndtr`` would take arguments
    above CHNDTR_MAX. Split Y along d and across it: with W = |Y_perp|^2
    chi-square of n - 1 degrees of freedom, the value is the mean over W
    of Phi(sqrt(radius^2 - W) - dist) - Phi(-sqrt(radius^2 - W) - dist),
    taken on a generalized Gauss-Laguerre rule in W/2. The integrand moves
    on the scale of radius in W, so the rule is exact to rounding however
    small the time; the upper argument is written as radius - dist minus
    a term of size W/radius, so it keeps its digits near the sphere."""
    if n == 1:
        y, w = np.zeros(1), np.ones(1)
    else:
        y, w = special.roots_genlaguerre(CHNDTR_FAR_NODES, 0.5 * (n - 1) - 1.0)
        w = w / special.gamma(0.5 * (n - 1))
    rho = np.sqrt(np.maximum(radius * radius - 2.0 * y, 0.0))
    inner = np.minimum(2.0 * y / (rho + radius), radius)
    hi = (radius - dist)[:, None] - inner
    lo = -rho - dist[:, None]
    mass = np.where(lo > 0.0, special.ndtr(-lo) - special.ndtr(-hi),
                    special.ndtr(hi) - special.ndtr(lo)) @ w
    # above a half, one minus the mass outside keeps the last digits
    return np.where(mass > 0.5,
                    1.0 - (special.ndtr(lo) + special.ndtr(-hi)) @ w, mass)


def heat_flow(s: SetExpr, t: float, x) -> float | np.ndarray:
    """Exact heat flow P_t 1_s(x) = Pr(e^{-t} x + sqrt(1-e^{-2t}) Y in s),
    Y standard, for a leaf in any dimension. Accepts one point (n,) or a
    batch (N, n). This is the one place that writes the leaf formulas.

    With sigma = sqrt(1 - e^{-2t}): a half-space gives
    Phi((offset - e^{-t} normal.x) / sigma); a ball gives the noncentral
    chi-square CDF at (radius/sigma)^2 with n degrees of freedom and
    noncentrality |center - e^{-t} x|^2 / sigma^2, which is the
    regularized incomplete gamma function where the noncentrality is 0
    and ``_ball_flow_far`` where an argument passes CHNDTR_MAX (small t);
    a box gives the product of Phi differences of its bounds shifted by
    e^{-t} x and scaled by 1/sigma. t = inf gives e^{-t} = 0 and
    sigma = 1, so the flow there is the Gaussian measure. Composites
    raise UnsupportedRegion (``ousim.semigroup_apply`` estimates them;
    their measure is ``gaussian_measure``);
    t <= 0 raises ValueError.
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError("time must be positive")
    pts = _points(s, x)
    decay = math.exp(-t)
    scale = math.sqrt(-math.expm1(-2.0 * t))
    if isinstance(s, HalfSpace):
        out = special.ndtr((s.offset - decay * _project(s, pts)) / scale)
    elif isinstance(s, Ball):
        d = (s.center - decay * pts) / scale
        nc = np.einsum("ij,ij->i", d, d)
        r2 = (s.radius / scale) ** 2
        out = np.where(nc == 0.0, special.gammainc(s.dim / 2.0, 0.5 * r2),
                       special.chndtr(r2, s.dim, nc))
        far = (nc != 0.0) & (np.maximum(nc, r2) > CHNDTR_MAX)
        if far.any():
            out[far] = _ball_flow_far(math.sqrt(r2), np.sqrt(nc[far]), s.dim)
    elif isinstance(s, AxisBox):
        base = decay * pts
        lo, hi = (s.lower - base) / scale, (s.upper - base) / scale
        # a coordinate with a positive lower bound takes the upper-tail
        # form, which keeps its relative precision far out in the tail
        out = np.prod(np.where(lo > 0.0, special.ndtr(-lo) - special.ndtr(-hi),
                               special.ndtr(hi) - special.ndtr(lo)), axis=-1)
    else:
        raise UnsupportedRegion(
            f"heat flow has no closed form for {type(s).__name__}")
    return float(out[0]) if np.ndim(x) == 1 else out


def _flow_table(s: SetExpr, t: float):
    """A function x -> heat_flow(s, t, x) on batches (N, n), or None for a
    composite. A half-space or a box takes ``heat_flow`` itself. A ball's
    flow depends on x only through d = |center - e^{-t} x|, and
    ``special.chndtr`` costs about 250 ns a point, so a ball reads a cubic
    Hermite table in d instead: nodes sigma/64 apart up to radius +
    12 sigma, beyond which the flow is below Phi(-12) and the table reads
    0. The values are ``heat_flow`` at the nodes, and the slopes
    dF/dd = -(d/sigma^2)(F_n - F_{n+2}), F_m the flow of the ball of the
    same radius in R^m, are ``heat_flow`` too; the table reads within
    about 2e-10 of ``heat_flow``. A table of more than 2^16 nodes (sigma
    small against the radius) is not built, and the ball takes
    ``heat_flow`` itself."""
    if isinstance(s, (HalfSpace, AxisBox)):
        return functools.partial(heat_flow, s, t)
    if not isinstance(s, Ball):
        return None
    decay = math.exp(-float(t))
    sigma = math.sqrt(-math.expm1(-2.0 * float(t)))
    step = sigma / 64.0
    count = math.ceil((s.radius + 12.0 * sigma) / step)
    if count > 1 << 16:
        return functools.partial(heat_flow, s, t)
    d = np.arange(count + 1) * step
    flows = [heat_flow(Ball(np.zeros(m), s.radius), t,
                       np.outer(d / decay, np.eye(m)[0]))
             for m in (s.dim, s.dim + 2)]
    f0, f1 = flows[0][:-1], flows[0][1:]
    # slopes times the step, the Hermite form on u = d/step - node in [0, 1]
    slope = -(d / (64.0 * sigma)) * (flows[0] - flows[1])
    m0, m1 = slope[:-1], slope[1:]
    # rows of p(u) = a0 + a1 u + a2 u^2 + a3 u^3, and a zero row past the end
    coef = np.zeros((count + 1, 4))
    coef[:-1] = np.column_stack([f0, m0, 3.0 * (f1 - f0) - 2.0 * m0 - m1,
                                 2.0 * (f0 - f1) + m0 + m1])

    def flow(x):
        pts = _points(s, x)
        pos = np.zeros(len(pts))
        term = np.empty_like(pos)
        for j, c in enumerate(s.center):
            np.multiply(pts[:, j], -decay, out=term)
            term += c
            pos += np.square(term, out=term)
        np.sqrt(pos, out=pos)
        pos *= 1.0 / step
        node = pos.astype(np.intp)
        np.minimum(node, count, out=node)
        pos -= node
        a = coef.take(node, axis=0)
        out = a[:, 3] * pos
        out += a[:, 2]
        out *= pos
        out += a[:, 1]
        out *= pos
        out += a[:, 0]
        return out

    return flow


def _cosine_rule(breaks, nodes: int,
                 span=(-PLANE_HALF_WIDTH, PLANE_HALF_WIDTH)):
    """Nodes, in ascending order, and weights of a rule for integrals
    over ``span``, [-L, L] with L = PLANE_HALF_WIDTH by default. The
    breakpoints (clipped to it) split the interval, each part is cut into
    equal pieces at most PLANE_PIECE wide, and each piece [m - h, m + h]
    takes ``nodes`` Gauss-Legendre points in theta under u = m - h
    cos(theta), which turns square-root behaviour at either end of the
    piece into a smooth integrand."""
    edges = np.unique(np.clip(np.append(breaks, span), *span))
    spans = np.diff(edges)
    counts = np.ceil(spans / PLANE_PIECE).astype(int)
    width = np.repeat(spans / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
    half = 0.5 * width
    mid = np.repeat(edges[:-1], counts) + index * width + half
    cos, sin_weight = _cosine_legendre(nodes)
    u = mid[:, None] - half[:, None] * cos
    return u.ravel(), (half[:, None] * sin_weight).ravel()


@functools.cache
def _cosine_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(theta) and the weights times sin(theta) of the Gauss-Legendre
    rule on [0, pi] with ``nodes`` nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    return np.cos(theta), 0.5 * math.pi * w * np.sin(theta)


def _leaves(s: SetExpr) -> list[SetExpr]:
    if isinstance(s, Complement):
        return _leaves(s.inner)
    if isinstance(s, _Join):
        return [leaf for p in s.parts for leaf in _leaves(p)]
    return [s]


def _plane_breaks(leaves) -> np.ndarray:
    """The x_1 at which the chords of 2-d leaves stop being smooth in x_1:
    vertical boundary lines, the ends of each ball, and every crossing of
    two boundary curves. A curve is a circle, or a line a x_1 + b x_2 = c
    with unit (a, b): an oblique half-space boundary, a horizontal box
    edge, or a level x_2 = j for the integers |j| <= L. The levels put
    a breakpoint where a chord end is clipped at +-L, and keep a steep
    chord end from crossing more than one unit of Phi's scale within a
    piece. A breakpoint that the true boundary does not have (a box edge
    met outside the box) only splits a smooth piece."""
    half_width = PLANE_HALF_WIDTH
    xs, circles = [], []
    lines = [(0.0, 1.0, float(j)) for j in range(-int(half_width),
                                                 int(half_width) + 1)]
    for s in leaves:
        if isinstance(s, HalfSpace):
            a, b = (float(v) for v in s.normal)
            if math.isinf(s.offset):
                continue
            if b == 0.0:
                xs.append(s.offset / a)
            else:
                lines.append((a, b, s.offset))
        elif isinstance(s, Ball):
            circles.append((*(float(v) for v in s.center), s.radius))
        else:
            xs += [float(v) for v in (s.lower[0], s.upper[0])
                   if math.isfinite(v)]
            lines += [(0.0, 1.0, float(v)) for v in (s.lower[1], s.upper[1])
                      if math.isfinite(v)]
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det != 0.0:
                xs.append((c1 * b2 - c2 * b1) / det)
    for i, (x0, y0, r) in enumerate(circles):
        xs += [x0 - r, x0 + r]
        for a, b, c in lines:
            gap = c - a * x0 - b * y0
            if abs(gap) <= r:
                h = math.sqrt(r * r - gap * gap)
                xs += [x0 + gap * a - h * b, x0 + gap * a + h * b]
        for x1, y1, q in circles[i + 1:]:
            dx, dy = x1 - x0, y1 - y0
            dist = math.hypot(dx, dy)
            if 0.0 < dist <= r + q and dist >= abs(r - q):
                along = (r * r - q * q + dist * dist) / (2.0 * dist)
                h = math.sqrt(max(r * r - along * along, 0.0))
                xs += [x0 + (along * dx - h * dy) / dist,
                       x0 + (along * dx + h * dy) / dist]
    # a chord end has a square root at a ball's extreme; where another
    # breakpoint lies a gap g < PLANE_PIECE from it, the piece beyond
    # would end next to that root, so points at PLANE_PIECE 4^-j from the
    # extreme, on the side of g and down to |g|, grade the pieces there
    xs = np.asarray(xs, dtype=float)
    graded = [xs]
    for x0, _, r in circles:
        for extreme in (x0 - r, x0 + r):
            gaps = xs[np.abs(xs - extreme) < PLANE_PIECE] - extreme
            for gap in gaps[gaps != 0.0]:
                depth = math.ceil(math.log(
                    PLANE_PIECE / max(abs(gap), PLANE_GRADE_MIN), 4.0))
                graded.append(extreme + math.copysign(PLANE_PIECE, gap)
                              * 4.0 ** -np.arange(1.0, depth))
    return np.concatenate(graded)


def _chord_ends(leaves, u: np.ndarray) -> np.ndarray:
    """(len(u), m) x_2 at which the vertical line x_1 = u may cross the
    boundary of a leaf, clipped to [-L, L]. A ball that the line misses
    gives its centre twice, which only splits a segment."""
    cols = []
    with np.errstate(over="ignore"):
        for s in leaves:
            if isinstance(s, HalfSpace):
                a, b = s.normal
                if b != 0.0 and not math.isinf(s.offset):
                    cols.append((s.offset - a * u) / b)
            elif isinstance(s, Ball):
                x0, y0 = s.center
                h = np.sqrt(np.maximum(s.radius ** 2 - (u - x0) ** 2, 0.0))
                cols += [y0 - h, y0 + h]
            else:
                cols += [np.full_like(u, v) for v in (s.lower[1], s.upper[1])
                         if math.isfinite(v)]
    ends = np.column_stack(cols) if cols else np.empty((len(u), 0))
    return np.clip(ends, -PLANE_HALF_WIDTH, PLANE_HALF_WIDTH)


def _plane_measure(s: SetExpr, nodes: int = PLANE_NODES) -> float:
    """Standard Gaussian measure of a 2-d set expression by chords.

    The vertical line x_1 = u meets each leaf in an interval, so it meets
    the set in a union of segments between the sorted chord ends; each
    segment is in or out as a whole, which ``_contains`` decides at its
    midpoint. The measure is the integral over u of phi(u) times the
    Phi differences of the inside segments, on ``_cosine_rule`` with the
    breakpoints of ``_plane_breaks``. Mass beyond |x_i| = L is dropped.
    """
    leaves = _leaves(s)
    u, weight = _cosine_rule(_plane_breaks(leaves), nodes)
    ends = np.sort(_chord_ends(leaves, u), axis=1)
    rim = np.full((len(u), 1), PLANE_HALF_WIDTH)
    edges = np.hstack([-rim, ends, rim])
    lo, hi = edges[:, :-1], edges[:, 1:]
    mid = 0.5 * (lo + hi)
    inside = _contains(s, np.column_stack(
        [np.repeat(u, mid.shape[1]), mid.ravel()])).reshape(mid.shape)
    # the upper-tail form above 0, as for boxes in ``heat_flow``
    below, above = special.ndtr(edges), special.ndtr(-edges)
    mass = np.where(lo > 0.0, above[:, :-1] - above[:, 1:],
                    below[:, 1:] - below[:, :-1])
    chords = np.sum(mass, axis=1, where=inside)
    return float(np.clip(weight @ (std_normal_pdf(u) * chords), 0.0, 1.0))


def exact_measure(s: SetExpr) -> float | None:
    """Standard Gaussian measure of ``s`` where it is exact, else None.

    A leaf's measure in any dimension is its heat flow at t = inf, taken
    from ``heat_flow`` at the origin; a composite in the plane is
    integrated along vertical chords (``_plane_measure``). Composites in
    other dimensions have no exact measure here.
    """
    try:
        return float(heat_flow(s, math.inf, np.zeros(s.dim)))
    except UnsupportedRegion:
        return _plane_measure(s) if s.dim == 2 else None


def _chi_pdf(r: np.ndarray, n: int) -> np.ndarray:
    """Density of |X| for X standard in R^n, at r > 0."""
    return np.exp((n - 1) * np.log(r) - 0.5 * r * r
                  - (0.5 * n - 1.0) * math.log(2.0) - special.gammaln(0.5 * n))


def pair_measures(starts, ends, t: float,
                  nodes: int = PLANE_NODES) -> np.ndarray | None:
    """The table P[j, k] = Pr(X in starts[j], e^{-t} X + sqrt(1 - e^{-2t}) Y
    in ends[k]), X and Y independent standard, where every set is a
    half-space with one normal or every set is a ball centred at the
    origin; None for any other sets. t must be positive.

    The pair (X, e^{-t} X + sqrt(1 - e^{-2t}) Y) is the OU process at
    times 0 and t, which is reversible, so P is symmetric in the sets.
    Each start set is {u <= level} in one coordinate u of X: the
    projection on the normal, of density phi, or the radius |X|, of the
    chi density with n degrees of freedom. Given u, the end lies in
    ends[k] with probability ``heat_flow(ends[k], t, u e)``, e the normal
    or the first axis. So P[j, k] is the integral of the density times
    that flow up to starts[j]'s level (its offset or radius), one
    cumulative sum over the nodes of ``_cosine_rule``, which breaks at
    every start level and around e^t times every end level, where the
    flow turns, up to the largest start level. Mass beyond |u| = L, or
    beyond u = sqrt(n) + L for a radius, is dropped (L =
    PLANE_HALF_WIDTH).
    """
    sets = [*starts, *ends]
    first = sets[0]
    if all(isinstance(s, HalfSpace) and np.array_equal(s.normal, first.normal)
           for s in sets):
        axis, density = first.normal, std_normal_pdf
        span = (-PLANE_HALF_WIDTH, PLANE_HALF_WIDTH)
        levels = np.array([s.offset for s in sets])
    elif all(isinstance(s, Ball) and s.dim == first.dim and not s.center.any()
             for s in sets):
        n = first.dim
        axis, density = np.eye(n)[0], functools.partial(_chi_pdf, n=n)
        span = (0.0, math.sqrt(n) + PLANE_HALF_WIDTH)
        levels = np.array([s.radius for s in sets])
    else:
        return None
    t = float(t)
    if not t > 0.0:
        raise ValueError("time must be positive")
    start, end = levels[:len(starts)], levels[len(starts):]
    decay = math.exp(-t)
    # the flow turns at e^t times an end level, over a width sigma e^t:
    # pieces at most two widths wide there, out to 8 widths, where Phi
    # is within 7e-16 of 0 or 1
    grades = np.array([-8.0, -2.0, 0.0, 2.0, 8.0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        turns = (end[:, None] + math.sqrt(-math.expm1(-2.0 * t))
                 * grades) / decay
    breaks = np.append(start, turns)
    # no start level reaches past the largest
    span = (span[0], float(np.clip(start.max(), *span)))
    u, weight = _cosine_rule(breaks[np.isfinite(breaks)], nodes, span)
    mass = weight * density(u)
    flows = np.array([heat_flow(s, t, u[:, None] * axis) for s in ends])
    below = np.zeros((len(ends), len(u) + 1))
    np.cumsum(flows * mass, axis=1, out=below[:, 1:])
    return below[:, np.searchsorted(u, start, side="right")].T


def pair_measure(a: SetExpr, b: SetExpr, t: float) -> float | None:
    """Pr(X in a, e^{-t} X + sqrt(1 - e^{-2t}) Y in b), X and Y independent
    standard, for two half-spaces with one normal or two balls centred at
    the origin (``pair_measures``); None for any other pair."""
    table = pair_measures([a], [b], t)
    return None if table is None else float(table[0, 0])


def gaussian_measure(s: SetExpr, samples: int = DEFAULT_MEASURE_SAMPLES,
                     seed: int = 0) -> Estimate:
    """Standard Gaussian measure of a set expression: exact (std_error 0,
    samples 0) where ``exact_measure`` is, else a Monte Carlo indicator
    average of ``samples`` draws.
    """
    seed = check_seed(seed)
    value = exact_measure(s)
    if value is None:
        hits = indicator_hits(seed, "gaussian_measure", samples, s.dim,
                              lambda z: _contains(s, z))
        return Estimate.binomial(hits, samples, seed)
    return Estimate.exact(value, seed)


def parallel_halfspaces(measures, direction) -> list[HalfSpace]:
    """Half-spaces sharing ``direction`` with the prescribed Gaussian
    measures: offsets are the normal quantiles of the measures."""
    p = np.asarray(measures, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("measures must be a nonempty vector")
    if np.any((p < 0.0) | (p > 1.0)) or np.any(np.isnan(p)):
        raise ValueError("measures must lie in [0, 1]")
    unit, _ = _unit(direction)
    return [HalfSpace(unit, std_normal_quantile(pi)) for pi in p]
