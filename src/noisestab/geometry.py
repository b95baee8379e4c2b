"""Measurable subsets of R^n as an expression algebra.

Leaves are closed half-spaces, balls, and axis-aligned boxes; nodes are
complement, intersection, and union. Indicator evaluation is exact and
vectorized, as is a signed distance to the boundary. Heat flow has a
closed form for every leaf, in any dimension, in ``heat_flow``, the only
place with leaf formulas: the heat flow at a point is the measure of an
affine image of the set, and a leaf's image is a leaf of the same kind.
A leaf's Gaussian measure is its heat flow at t = inf; composites are
Monte Carlo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .orthant import Estimate
from .gaussian import std_normal_quantile
from .seeding import batches, check_seed, derive_rng

DEFAULT_MEASURE_SAMPLES = 10**6


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
class Intersection(SetExpr):
    parts: tuple[SetExpr, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("intersection needs at least one part")
        _common_dim(parts)
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim


@dataclass(frozen=True, eq=False)
class Union(SetExpr):
    parts: tuple[SetExpr, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("union needs at least one part")
        _common_dim(parts)
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim


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
    apart, the order of ``einsum("ij,ij->i")`` up to n = 7."""
    sq = [np.square(pts[:, j] - c) for j, c in enumerate(s.center)]
    for j in range(2, s.dim):
        sq[j % 2] += sq[j]
    return sum(sq[1:2], sq[0])


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
        return pts @ s.normal <= s.offset
    if isinstance(s, Ball):
        return _square_distance(s, pts) <= s.radius * s.radius
    if isinstance(s, AxisBox):
        return _box_contains(s, pts)
    if isinstance(s, Complement):
        return ~_contains(s.inner, pts)
    if isinstance(s, Intersection):
        out = _contains(s.parts[0], pts)
        for p in s.parts[1:]:
            out &= _contains(p, pts)
        return out
    if isinstance(s, Union):
        out = _contains(s.parts[0], pts)
        for p in s.parts[1:]:
            out |= _contains(p, pts)
        return out
    raise TypeError(f"not a set expression: {type(s).__name__}")


def _distance(s: SetExpr, pts: np.ndarray) -> np.ndarray:
    if isinstance(s, HalfSpace):
        return s.offset - pts @ s.normal
    if isinstance(s, Ball):
        sq = _square_distance(s, pts)
        return s.radius - np.sqrt(sq, out=sq)
    if isinstance(s, AxisBox):
        return np.minimum(pts - s.lower, s.upper - pts).min(axis=1)
    if isinstance(s, Complement):
        return -_distance(s.inner, pts)
    if isinstance(s, (Intersection, Union)):
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


def heat_flow(s: SetExpr, t: float, x) -> float | np.ndarray:
    """Exact heat flow P_t 1_s(x) = Pr(e^{-t} x + sqrt(1-e^{-2t}) Y in s),
    Y standard, for a leaf in any dimension. Accepts one point (n,) or a
    batch (N, n). This is the one place that writes the leaf formulas.

    With sigma = sqrt(1 - e^{-2t}): a half-space gives
    Phi((offset - e^{-t} normal.x) / sigma); a ball gives the noncentral
    chi-square CDF at (radius/sigma)^2 with n degrees of freedom and
    noncentrality |center - e^{-t} x|^2 / sigma^2, which is the
    regularized incomplete gamma function where the noncentrality is 0;
    a box gives the product of Phi differences of its bounds shifted by
    e^{-t} x and scaled by 1/sigma. t = inf gives e^{-t} = 0 and
    sigma = 1, so the flow there is the Gaussian measure. Composites
    raise UnsupportedRegion (``ousim.semigroup_apply`` estimates them);
    t <= 0 raises ValueError.
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError("time must be positive")
    pts = _points(s, x)
    decay = math.exp(-t)
    scale = math.sqrt(-math.expm1(-2.0 * t))
    if isinstance(s, HalfSpace):
        out = special.ndtr((s.offset - decay * (pts @ s.normal)) / scale)
    elif isinstance(s, Ball):
        d = (s.center - decay * pts) / scale
        nc = np.einsum("ij,ij->i", d, d)
        r2 = (s.radius / scale) ** 2
        out = np.where(nc == 0.0, special.gammainc(s.dim / 2.0, 0.5 * r2),
                       special.chndtr(r2, s.dim, nc))
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


def gaussian_measure(s: SetExpr, samples: int = DEFAULT_MEASURE_SAMPLES,
                     seed: int = 0) -> Estimate:
    """Standard Gaussian measure of a set expression.

    Leaves are exact (std_error 0, samples 0): the measure is the heat
    flow at t = inf, taken from ``heat_flow`` at the origin. Composites
    are a Monte Carlo indicator average.
    """
    seed = check_seed(seed)
    try:
        value = heat_flow(s, math.inf, np.zeros(s.dim))
    except UnsupportedRegion:
        rng = derive_rng(seed, "gaussian_measure", 0)
        hits = 0
        for _, n in batches(samples):
            hits += int(_contains(s, rng.standard_normal((n, s.dim))).sum())
        return Estimate.binomial(hits, samples, seed)
    return Estimate(value=value, std_error=0.0, samples=0, seed=seed)


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
