"""Ornstein-Uhlenbeck path simulation and semigroup estimators.

Stepping uses the exact Gaussian transition
X_{t+d} = e^{-d} X_t + sqrt(1 - e^{-2d}) xi, started from the stationary
standard Gaussian, so the only discretization effect left in the exit
and occupation estimators is excursions between grid points. The raw
grid monitor misses them and over-estimates survival by a bias of order
sqrt(d); it is kept as the oracle (``exit_survival_refined``). The exit
estimators that feed verdicts weight each step by the probability that
the bridge between the two grid states stays inside (Broadie, Glasserman
& Kou 1997; Gobet 2000), which is exact for half-spaces through the
origin and leaves an O(d) bias elsewhere. The occupation scan is still
the raw grid functional.

Survival in a half-space {nu.x <= c} depends on the 1-d OU process
nu.X alone, and ``halfspace_survival`` computes it exactly from one
parabolic equation. ``exit_survival_pair`` takes that value for every
half-space arm and scans only the other arm. Two arms that are both not
half-spaces reuse identical trajectories per path index (common random
numbers), and so do the arms of ``exit_dominance_refined`` and
``occupation_pair``; their margins carry a paired standard error.

Once fewer than 7/8 of a batch's paths are live, the scans drop the ones
whose result is fixed and draw normals for the rest only. Batch i still
draws from the stream keyed ("exit", i); when rows drop depends only on
the seed, the sizes and the sets. The batches run side by side on the
shared thread pool (``seeding.fan_out``) and their sums are merged in
batch order, so results do not depend on the number of workers.

``semigroup_apply`` is the Monte Carlo heat flow of composites and the
oracle of ``geometry.heat_flow``; the gradient check is in ``verify``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .gaussian import CorrelationMatrix, cholesky, _readonly
from .geometry import HalfSpace, SetExpr, boundary_distance, contains, \
    heat_flow
from .orthant import Estimate
from .seeding import batches, check_seed, derive_rng, fan_out


@dataclass(frozen=True, eq=False)
class OUPath:
    """One trajectory on a time grid; states are (len(times), n)."""
    times: np.ndarray
    states: np.ndarray
    seed: int


# Rows that KroneckerSampler.sample draws and mixes at once; at k = 3 and
# n = 2 its noise buffer takes 0.4 MB, so a block stays in cache.
_BLOCK_ROWS = 1 << 13


@dataclass(frozen=True, eq=False)
class KroneckerSampler:
    """Joint sampler for k correlated standard Gaussian n-vectors.

    Mixes k iid standard n-vectors through the k x k lower-triangular
    Cholesky factor q of the correlation matrix; the kn x kn covariance
    is never formed. ``sample`` draws the noise in blocks of
    ``_BLOCK_ROWS`` rows from the one stream keyed "kronecker", and
    chunked draws equal one draw of the whole count bit for bit. Row i
    of a draw is q[i, 0] z_0 + ... + q[i, i] z_i, summed in that order,
    so for n >= 2 the draws equal ``einsum("ij,cjn->cin", q, z)`` bit
    for bit. For n = 1 and k >= 3 the einsum sums in another, unrolled
    order, so a draw may differ from it in the last bits (at most
    (k - 1) eps sum_j |q[i, j] z_j|).
    """
    m: CorrelationMatrix
    n: int
    q: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValueError("ambient dimension must be >= 1")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "q", cholesky(self.m.entries))

    def sample(self, count: int, seed: int) -> np.ndarray:
        """(count, k, n) array of joint draws. It is a view of a (k, count,
        n) buffer, so each column ``[:, i, :]`` is C-contiguous."""
        count = int(count)
        if count < 0:
            raise ValueError(f"draw count must be >= 0, got {count}")
        rng = derive_rng(check_seed(seed), "kronecker")
        k, q = self.m.k, self.q
        rows = min(count, _BLOCK_ROWS)
        z = np.empty((rows, k, self.n))
        term = np.empty((rows, self.n))
        mixed = np.empty((k, count, self.n))
        for start in range(0, count, _BLOCK_ROWS):
            r = min(rows, count - start)
            zb = rng.standard_normal(out=z[:r])
            for i in range(k):
                out = mixed[i, start:start + r]
                np.multiply(zb[:, 0], q[i, 0], out=out)
                for j in range(1, i + 1):
                    out += np.multiply(zb[:, j], q[i, j], out=term[:r])
        return mixed.transpose(1, 0, 2)


@dataclass(frozen=True)
class ExitTimeEstimate:
    """Survival probability Pr(X_t in A for all t in [0, horizon]),
    estimated on a grid of ``steps`` steps."""
    horizon: float
    steps: int
    survival: Estimate


@dataclass(frozen=True)
class OccupationEstimate:
    """Expected time in A_2 before leaving A_1, truncated at the horizon."""
    horizon: float
    sets: tuple[SetExpr, SetExpr]
    value: Estimate


def sample_joint(m: CorrelationMatrix, n: int, seed: int) -> np.ndarray:
    """One draw of (X_1, ..., X_k), returned as a (k, n) array."""
    return KroneckerSampler(m, n).sample(1, seed)[0]


def simulate_path(n: int, grid, seed: int) -> OUPath:
    """Exact-transition trajectory on a nondecreasing grid starting at 0.

    The initial state is stationary; repeated grid times reproduce the
    state exactly.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if t[0] != 0.0:
        raise ValueError("grid must start at 0")
    if np.any(np.diff(t) < 0.0):
        raise ValueError("grid must be nondecreasing")
    seed = check_seed(seed)
    rng = derive_rng(seed, "path")
    states = np.empty((t.size, int(n)))
    states[0] = rng.standard_normal(int(n))
    for j in range(1, t.size):
        d = t[j] - t[j - 1]
        decay = math.exp(-d)
        scale = math.sqrt(max(0.0, -math.expm1(-2.0 * d)))
        states[j] = decay * states[j - 1] + scale * rng.standard_normal(int(n))
    return OUPath(times=_readonly(t), states=_readonly(states), seed=seed)


# ---------------------------------------------------------------------------
# streaming grid scans
# ---------------------------------------------------------------------------

# A scan gathers a batch's live rows (with ``compress``, which keeps them
# C-contiguous) once fewer than this share of its rows is live.
_LIVE_SHARE = 7 / 8


def _grid_params(tau: float, steps: int):
    tau = float(tau)
    steps = int(steps)
    if tau < 0.0:
        raise ValueError("horizon must be nonnegative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    d = tau / steps
    return tau, steps, math.exp(-d), math.sqrt(max(0.0, -math.expm1(-2.0 * d)))


def _bridge_monitor(alive, weight, a0, a1, inv_sinh):
    """One grid step of the bridge-corrected exit monitor.

    ``alive`` (the raw grid indicator) loses the paths whose new boundary
    distance ``a1`` is negative; each surviving path's weight is
    multiplied by the probability that the OU bridge between the two
    grid states does not cross the boundary, 1 - exp(-a0 a1 / sinh(d)).
    Through the Lamperti change X_t = e^{-t} W(e^{2t}) this is exact for
    a half-space through the origin and the tangent-half-space
    approximation, accurate to O(d), for every other boundary. Both
    arrays are updated in place; ``weight`` is meaningful only where
    ``alive`` holds.
    """
    alive &= a1 >= 0.0
    if inv_sinh is None:  # zero step: no time for an excursion
        return
    x = a0 * a1
    x *= -inv_sinh
    # deeper inside, 1 - exp(x) rounds to 1 in double precision
    near = np.flatnonzero(alive & (x > -40.0))
    weight[near] *= -np.expm1(x[near])


def _inv_sinh(d: float):
    return 1.0 / math.sinh(d) if d > 0.0 else None


def _step(rng, states, noise, decay, scale):
    """One exact-transition step of ``states``, in place."""
    z = rng.standard_normal(out=noise[:len(states)])
    states *= decay
    z *= scale
    states += z


def _add(acc, key, x):
    """Add the sum and the sum of squares of per-path values ``x``."""
    s, s2 = acc.get(key, (0.0, 0.0))
    acc[key] = (s + float(x.sum()), s2 + float(x @ x))


def _merge(parts):
    """Sum per-batch moment dicts in batch order, so each total has the
    float association of one sequential pass over the batches."""
    acc: dict = {}
    for part in parts:
        for key, (s, s2) in part.items():
            t, t2 = acc.get(key, (0.0, 0.0))
            acc[key] = (t + s, t2 + s2)
    return acc


def _survival_scan(regions, tau, steps, paths, seed, refine: int = 1):
    """Shared-trajectory exit scan for one or two regions at once.

    Simulates at ``steps * refine`` resolution and monitors each region
    on the full fine grid and on the coarse subgrid (every
    ``refine``-th point, including t=0), two ways: the raw grid
    indicator and the bridge-corrected per-path survival weight
    (``_bridge_monitor``). Returns a dict of per-path sums and sums of
    squares, keyed by quantity and region index i:

    - ``("w", i)``: coarse corrected weight of region i;
    - ``("change", i)``: coarse minus fine corrected weight;
    - ``"pair"``: coarse weight of region 1 minus region 0;
    - ``"margin"``: ``pair`` on the coarse grid minus the same on the
      fine grid;
    - ``("raw", i)`` and ``("raw_fine", i)``: the raw grid indicators
      on the coarse and the fine grid.

    Differences are taken per path because the corrected fine event no
    longer nests inside the coarse one; identical regions give exactly
    zero. A path whose raw indicators have all died (each region, fine
    and coarse grid) adds 0 to every sum, so it may be dropped.
    """
    tau, steps, _, _ = _grid_params(tau, steps)
    refine = int(refine)
    fine_steps = steps * refine
    _, _, decay, scale = _grid_params(tau, fine_steps)
    inv_fine = _inv_sinh(tau / fine_steps)
    inv_coarse = _inv_sinh(tau / steps)
    seed = check_seed(seed)
    r = len(regions)

    def batch(part):
        chunk_index, c = part
        rng = derive_rng(seed, "exit", chunk_index)
        states = rng.standard_normal((c, regions[0].dim))
        noise = np.empty_like(states)
        # rows: each region on the fine grid, then on the coarse grid
        last = np.array([boundary_distance(reg, states)
                         for reg in regions] * min(refine, 2))
        alive = last >= 0.0
        weight = np.ones_like(last)
        for i in range(1, fine_steps + 1):
            live = alive.any(axis=0)
            if np.count_nonzero(live) < _LIVE_SHARE * live.size:
                states = states[live]
                last, alive, weight = (x.compress(live, 1)
                                       for x in (last, alive, weight))
                if not len(states):
                    break
            _step(rng, states, noise, decay, scale)
            on_coarse = refine > 1 and i % refine == 0
            for idx, reg in enumerate(regions):
                a1 = boundary_distance(reg, states)
                rows = (idx, r + idx) if on_coarse else (idx,)
                for row, inv in zip(rows, (inv_fine, inv_coarse)):
                    _bridge_monitor(alive[row], weight[row], last[row], a1,
                                    inv)
                    last[row] = a1
        acc: dict = {}
        w = np.where(alive, weight, 0.0)
        wf, wc = w[:r], w[-r:]
        for idx in range(r):
            _add(acc, ("w", idx), wc[idx])
            _add(acc, ("change", idx), wc[idx] - wf[idx])
            _add(acc, ("raw", idx), alive[-r + idx].astype(float))
            _add(acc, ("raw_fine", idx), alive[idx].astype(float))
        if r >= 2:
            pair_c = wc[1] - wc[0]
            _add(acc, "pair", pair_c)
            _add(acc, "margin", pair_c - (wf[1] - wf[0]))
        return acc

    return _merge(fan_out(batch, batches(paths)))


def _mean_se(moments, paths: int) -> tuple[float, float]:
    """Mean and standard error of a per-path quantity from its
    (sum, sum of squares) over ``paths`` paths."""
    total, total2 = moments
    mean = total / paths
    var = max(total2 / paths - mean * mean, 0.0)
    return float(mean), math.sqrt(var / paths)


def _survival_estimate(acc, idx, tau, steps, paths, seed) -> ExitTimeEstimate:
    value, se = _mean_se(acc[("w", idx)], paths)
    return ExitTimeEstimate(horizon=float(tau), steps=int(steps),
                            survival=Estimate(value=value, std_error=se,
                                              samples=paths, seed=seed))


def exit_survival(s: SetExpr, tau: float, steps: int, paths: int,
                  seed: int) -> ExitTimeEstimate:
    """Bridge-corrected estimate of Pr(X_t in ``s`` for all t in [0, tau]).

    Each path's weight is the product over grid steps of the probability
    that the bridge between consecutive grid states stays inside (see
    ``_bridge_monitor``); the estimate is the mean weight. Exact up to
    Monte Carlo error for a half-space through the origin, with an O(d)
    bias at step d = tau/steps for other sets. The state at t=0 is
    checked too, so an initial draw outside the set counts as an
    immediate exit.
    """
    paths = int(paths)
    seed = check_seed(seed)
    acc = _survival_scan([s], tau, steps, paths, seed)
    return _survival_estimate(acc, 0, tau, steps, paths, seed)


# The half-space oracle solves on (c - width, c], width = min(9, 12
# sqrt(tau)): a path started further below c reaches c within tau with
# probability below 1e-16, and the shorter interval keeps the grid fine
# against the sqrt(tau)-wide boundary layer at small horizons. Richardson
# extrapolation over _HALFSPACE_NODES and twice as many nodes stays within
# 2e-7 of an 800/1600-node solve for c = Phi^-1(p), p in [1e-6, 1 - 1e-6],
# and tau in [1e-4, 50], and within 4e-8 of asin(e^{-tau}) / pi at c = 0.
_HALFSPACE_WIDTH = 9.0
_HALFSPACE_LAYER = 12.0
_HALFSPACE_NODES = 100


def _halfspace_grid_exit(c: float, tau: float, width: float,
                         nodes: int) -> float:
    """Exit probability by time tau of the finite-difference OU chain on
    ``nodes`` nodes spaced h = width / nodes below c: the trapezoid rule
    for the integral of phi (1 - u(tau)) over (c - width, c].

    The generator f'' - x f' = (phi f')' / phi is taken in flux form,
    (L f)_i = [phi_{i+1/2} (f_{i+1} - f_i) - phi_{i-1/2} (f_i - f_{i-1})]
    / (h w_i phi_i), with trapezoid weights w_i. The node c is absorbing
    (u = 0 there, so its term is (h/2) phi(c)) and the left end is
    reflecting (phi_{-1/2} = 0). D = diag(sqrt(w phi)) makes
    D L D^-1 = V diag(lam) V^T symmetric, so
    sum_i w_i phi_i (1 - e^{tau L} 1)_i
    = sum_k (1 - e^{tau lam_k}) (V^T D 1)_k^2, exact in time. On a
    uniform grid phi_{i+1/2} / sqrt(phi_i phi_{i+1}) is e^{h^2/8}, so no
    ratio of phi values under- or overflows.
    """
    h = width / nodes
    x = c - h * np.arange(nodes, 0, -1)
    w = np.full(nodes, h)
    w[0] = 0.5 * h
    up = np.exp(-0.5 * h * x - h * h / 8.0)  # phi_{i+1/2} / phi_i
    down = np.exp(0.5 * h * x - h * h / 8.0)  # phi_{i-1/2} / phi_i
    down[0] = 0.0
    off = math.exp(h * h / 8.0) / (h * np.sqrt(w[:-1] * w[1:]))
    gen = np.diag(-(up + down) / (h * w))
    idx = np.arange(nodes - 1)
    gen[idx, idx + 1] = gen[idx + 1, idx] = off
    lam, vec = np.linalg.eigh(gen)
    # D 1 = sqrt(w phi), scaled by sqrt(phi) at the node nearest 0
    x0 = float(np.min(x * x))
    proj = vec.T @ (np.sqrt(w) * np.exp(-0.25 * (x * x - x0)))
    inner = float(-np.expm1(tau * lam) @ (proj * proj))
    return (0.5 * h * math.exp(-0.5 * c * c)
            + inner * math.exp(-0.5 * x0)) / math.sqrt(2.0 * math.pi)


def halfspace_survival(offset: float, tau: float) -> float:
    """Probability that a stationary 1-d OU process stays <= ``offset``
    on [0, tau]: the survival of any standard OU process in a half-space
    {nu.x <= offset} with |nu| = 1.

    Phi(offset) minus the exit probability, which solves the backward
    equation u_t = u_xx - x u_x, killed at the offset, on a
    finite-difference grid diagonalised once (``_halfspace_grid_exit``).
    Two grids of ``_HALFSPACE_NODES`` and twice as many nodes are
    extrapolated (Richardson; the grid error is O(h^2)). tau = 0 returns
    Phi(offset); an offset of +inf or -inf returns 1 or 0. At offset 0
    the exact value is asin(e^{-tau}) / pi.
    """
    c = float(offset)
    tau = float(tau)
    if not tau >= 0.0:
        raise ValueError("horizon must be nonnegative")
    if math.isnan(c):
        raise ValueError("offset must not be NaN")
    if tau == 0.0:
        return float(special.ndtr(c))
    if math.isinf(c):
        return float(c > 0.0)
    width = min(_HALFSPACE_WIDTH, _HALFSPACE_LAYER * math.sqrt(tau))
    coarse, fine = (_halfspace_grid_exit(c, tau, width, nodes)
                    for nodes in (_HALFSPACE_NODES, 2 * _HALFSPACE_NODES))
    # far below the origin nearly all of Phi(c) exits; keep rounding >= 0
    return max(float(special.ndtr(c)) - (4.0 * fine - coarse) / 3.0, 0.0)


def exit_survival_refined(s: SetExpr, tau, steps, paths, seed,
                          refine: int = 2):
    """The raw grid monitor, kept as the oracle: the frequency of paths
    inside ``s`` at every grid time, at ``steps`` and at ``steps *
    refine`` on shared trajectories.

    Raw grid survival over-estimates continuous-time survival by a bias
    of order sqrt(tau/steps). The fine event is a subset of the coarse
    one path by path, so the returned (coarse, fine, change, change_se)
    has change >= 0 exactly; change measures that bias at ``steps``.
    """
    acc = _survival_scan([s], tau, steps, paths, seed, refine=refine)
    paths = int(paths)
    coarse, fine = acc[("raw", 0)][0], acc[("raw_fine", 0)][0]
    ce, fe, drop = (Estimate.binomial(count, paths, seed)
                    for count in (coarse, fine, coarse - fine))
    return (ExitTimeEstimate(float(tau), int(steps), ce),
            ExitTimeEstimate(float(tau), int(steps) * refine, fe),
            drop.value, drop.std_error)


def exit_survival_pair(a: SetExpr, b: SetExpr, tau, steps, paths, seed):
    """Survival over [0, tau] of two sets: exact for a half-space arm
    (``halfspace_survival``, with std_error 0 and samples 0), and the
    bridge-corrected estimate of ``exit_survival`` for any other arm.

    Returns (estimate_a, estimate_b, paired_se). When neither arm is a
    half-space, both are scanned on identical trajectories and paired_se
    is the standard error of the mean per-path weight difference (b
    minus a) under common random numbers; it is exactly zero for
    identical sets. Otherwise the scan carries the other arm alone, so
    its rows drop as soon as that arm's paths die, and paired_se is that
    arm's standard error (0 when both arms are half-spaces).
    """
    tau, steps, _, _ = _grid_params(tau, steps)
    paths = int(paths)
    seed = check_seed(seed)
    scanned = [s for s in (a, b) if not isinstance(s, HalfSpace)]
    if len(scanned) == 2:
        acc = _survival_scan([a, b], tau, steps, paths, seed)
        return (_survival_estimate(acc, 0, tau, steps, paths, seed),
                _survival_estimate(acc, 1, tau, steps, paths, seed),
                _mean_se(acc["pair"], paths)[1])
    acc = _survival_scan(scanned, tau, steps, paths, seed) if scanned else None

    def arm(s):
        if not isinstance(s, HalfSpace):
            return _survival_estimate(acc, 0, tau, steps, paths, seed)
        exact = Estimate(value=halfspace_survival(s.offset, tau),
                         std_error=0.0, samples=0, seed=seed)
        return ExitTimeEstimate(tau, steps, exact)

    est_a, est_b = arm(a), arm(b)
    # an exact arm adds nothing: hypot(se, 0) is se
    return (est_a, est_b,
            math.hypot(est_a.survival.std_error, est_b.survival.std_error))


@dataclass(frozen=True)
class DominanceRefinement:
    """Dominance comparison plus its stability under grid doubling, all
    on shared trajectories and bridge-corrected.

    ``change_a/b`` are the per-arm changes of the corrected survival when
    the grid is refined (coarse minus fine, signed, with standard errors
    from per-path differences); ``margin_change`` is how much the
    dominance margin moves, with its own paired standard error.
    ``raw_drop_a/b`` are the drops of the raw grid monitor, which are
    nonnegative pathwise.
    """
    est_a: ExitTimeEstimate
    est_b: ExitTimeEstimate
    paired_se: float
    change_a: float
    change_a_se: float
    change_b: float
    change_b_se: float
    margin_change: float
    margin_change_se: float
    raw_drop_a: float
    raw_drop_b: float


def exit_dominance_refined(a: SetExpr, b: SetExpr, tau, steps, paths, seed,
                           refine: int = 2) -> DominanceRefinement:
    """One coupled pass evaluating both arms at ``steps`` and at
    ``steps * refine`` on the same trajectories."""
    paths = int(paths)
    seed = check_seed(seed)
    acc = _survival_scan([a, b], tau, steps, paths, seed, refine=refine)
    ch_a, ch_a_se = _mean_se(acc[("change", 0)], paths)
    ch_b, ch_b_se = _mean_se(acc[("change", 1)], paths)
    margin, margin_se = _mean_se(acc["margin"], paths)

    def raw_drop(idx):
        return (acc[("raw", idx)][0] - acc[("raw_fine", idx)][0]) / paths

    return DominanceRefinement(
        est_a=_survival_estimate(acc, 0, tau, steps, paths, seed),
        est_b=_survival_estimate(acc, 1, tau, steps, paths, seed),
        paired_se=_mean_se(acc["pair"], paths)[1],
        change_a=ch_a, change_a_se=ch_a_se,
        change_b=ch_b, change_b_se=ch_b_se,
        margin_change=margin, margin_change_se=margin_se,
        raw_drop_a=raw_drop(0), raw_drop_b=raw_drop(1))


def _add_counts(acc, counts):
    """Add occupation step counts (a row per pair) and their difference."""
    for idx, row in enumerate(counts):
        _add(acc, ("count", idx), row)
    if len(counts) >= 2:
        _add(acc, "pair", counts[1] - counts[0])


def _occupation_scan(pairs, tau, steps, paths, seed):
    """Per-path occupation step counts for one or two (A_1, A_2) pairs
    on shared trajectories. Returns per-path sums and sums of squares
    keyed ``("count", i)`` for pair i and, with two pairs, ``"pair"``
    for the count difference (pair 1 minus pair 0). A path that has left
    every A_1 may be dropped; its integer counts are added when it is.
    """
    tau, steps, decay, scale = _grid_params(tau, steps)
    seed = check_seed(seed)

    def batch(part):
        chunk_index, c = part
        rng = derive_rng(seed, "exit", chunk_index)
        states = rng.standard_normal((c, pairs[0][0].dim))
        noise = np.empty_like(states)
        alive = np.array([contains(a1, states) for a1, _ in pairs])
        counts = np.zeros((len(pairs), c), dtype=np.int64)
        acc: dict = {}
        for _ in range(steps):
            live = alive.any(axis=0)
            if np.count_nonzero(live) < _LIVE_SHARE * live.size:
                _add_counts(acc, counts.compress(~live, axis=1))
                states = states[live]
                alive, counts = (x.compress(live, 1) for x in (alive, counts))
                if not len(states):
                    break
            _step(rng, states, noise, decay, scale)
            for idx, (a1, a2) in enumerate(pairs):
                counts[idx] += alive[idx] & contains(a2, states)
                alive[idx] &= contains(a1, states)
        _add_counts(acc, counts)
        return acc

    return _merge(fan_out(batch, batches(paths)))


def _occupation_estimate(acc, key, tau, steps, paths, seed) -> Estimate:
    dt = float(tau) / int(steps)
    mean_c, se_c = _mean_se(acc[key], int(paths))
    return Estimate(value=float(dt * mean_c), std_error=float(dt * se_c),
                    samples=int(paths), seed=check_seed(seed))


def occupation(a1: SetExpr, a2: SetExpr, tau: float, steps: int, paths: int,
               seed: int) -> OccupationEstimate:
    """Time-discretized occupation: (tau/steps) * sum over grid times of
    the frequency of {inside A_1 strictly before, inside A_2 now}.

    Faithful to the raw functional: A_2 is not forced inside A_1.
    """
    acc = _occupation_scan([(a1, a2)], tau, steps, paths, seed)
    est = _occupation_estimate(acc, ("count", 0), tau, steps, paths, seed)
    return OccupationEstimate(horizon=float(tau), sets=(a1, a2), value=est)


def occupation_pair(pair_a, pair_b, tau, steps, paths, seed):
    """Occupation of two set pairs on identical trajectories, with the
    paired standard error of the difference (B minus A)."""
    acc = _occupation_scan([pair_a, pair_b], tau, steps, paths, seed)
    est_a, est_b, diff = (_occupation_estimate(acc, key, tau, steps, paths,
                                               seed)
                          for key in (("count", 0), ("count", 1), "pair"))
    return (OccupationEstimate(float(tau), tuple(pair_a), est_a),
            OccupationEstimate(float(tau), tuple(pair_b), est_b),
            diff.std_error)


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def semigroup_apply(s: SetExpr, t: float, x, samples: int,
                    seed: int) -> Estimate:
    """Heat-flow average Pr(e^{-t} x + sqrt(1-e^{-2t}) Y in s), Y standard.

    t = 0 returns exact membership; negative t is rejected. This Monte
    Carlo route serves composites and is the oracle for the closed form
    ``geometry.heat_flow`` on leaves.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    pt = np.asarray(x, dtype=float)
    if pt.shape != (s.dim,):
        raise ValueError(f"point must have shape ({s.dim},)")
    seed = check_seed(seed)
    if t == 0.0:
        return Estimate(value=float(contains(s, pt)), std_error=0.0,
                        samples=0, seed=seed)
    base = math.exp(-t) * pt
    scale = math.sqrt(-math.expm1(-2.0 * t))
    rng = derive_rng(seed, "semigroup", 0)
    hits = 0
    for _, c in batches(samples):
        pts = base + scale * rng.standard_normal((c, s.dim))
        hits += int(contains(s, pts).sum())
    return Estimate.binomial(hits, samples, seed)


def semigroup_halfspace_closed(c: float, t: float, u: float) -> float:
    """Exact heat flow Phi((c - e^{-t} u) / sqrt(1 - e^{-2t})) on a
    half-space {x : nu.x <= c} at a point with projection u = nu.x: the
    ``heat_flow`` of the 1-d half-space {y <= c} at y = u."""
    return heat_flow(HalfSpace(np.ones(1), c), t, np.array([float(u)]))
