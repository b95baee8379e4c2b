"""Ornstein-Uhlenbeck path simulation and semigroup estimators.

Stepping uses the exact Gaussian transition
X_{t+d} = e^{-d} X_t + sqrt(1 - e^{-2d}) xi, started from the stationary
standard Gaussian, so the only discretization effect left is excursions
between grid points. The raw grid monitor misses them and over-estimates
survival by a bias of order sqrt(d); it is kept as the oracle
(``exit_survival_refined``). One scan (``_survival_scan``) serves exit
and occupation: it weights each step by the probability that the bridge
between the two grid states stays inside (Broadie, Glasserman & Kou
1997; Gobet 2000), exact for half-spaces through the origin and O(d)
elsewhere, and the occupation of A_2 before the exit from A_1 is
d sum_i w_i 1{X_i in A_2}, with w_i that weight in A_1 after step i.

Survival in a half-space {nu.x <= c}, and the occupation of parallel
half-spaces {nu.x <= c1}, {nu.x <= c2}, depend on the 1-d OU process
nu.X alone. ``halfspace_survival`` and ``halfspace_occupation`` compute
them exactly by one spectral sum, sum_k p_k q_k g(lam_k), of one
diagonalised parabolic equation (``_halfspace_solve``); they differ only
in g and the absorbing node's share. ``exit_survival_pair`` takes the
survival for every half-space arm and scans only the other arm;
``occupation_pair`` takes the occupation for every pair of half-spaces
with one normal and scans only the other pair. Two arms or pairs that
are both scanned reuse identical trajectories per path index (common
random numbers), and so do the arms of ``exit_dominance_refined``; their
margins carry a paired standard error. Every estimator returns
``Estimate``s.

The scans run their paths in antithetic pairs (Glasserman, *Monte
Carlo Methods in Financial Engineering*, 2004, 4.2): both rows of a
pair start at one point and step with the normals +z and -z, so a pair
takes one normal vector per step. The start is not negated, since a
centred ball's reflected path survives exactly when the original does.
A shard of c paths holds floor(c / 2) pairs and, for odd c, one lone
path. A pair, a single or the lone path is a unit; units are
independent, the two rows of a pair are not.

The scanned estimates are post-stratified on the start and the end
point (Glasserman 2004, 4.3). An exit weight or occupation is exactly 0
for a path that starts outside the scanned set A (or A_1),
and a path that starts deep inside A rarely leaves it within a short
horizon. So ``_shells`` cuts A at boundary distances delta_j =
j sigma / 2, where sigma = sqrt(1 - e^{-2 tau}) is the OU displacement
scale over the horizon, into at most 8 shells S_j, up to the first empty
level set. The measure of each shell is exact wherever mu(A) is, for
every leaf and every 2-d composite (``geometry.level_set``,
``geometry.exact_measure``). A path that also ends deep inside A almost
always survives, and (X_0, X_tau) is exactly a Gaussian pair with
correlation e^{-tau} per coordinate on any grid. So where A is a
half-space or a ball centred at the origin, whose level sets are of the
same kind, the cells {X_0 in S_a, X_tau in T_b} have exact measures
(``geometry.pair_measures``): the end cells T_b are the complement of A
(b = 0) and its shells (b >= 1). Elsewhere, and at tau = 0, each start
shell is one cell. The estimate is sum_c mu_c q_c over the cells c, with
q_c the mean value of the n_c paths in c. Given the cell counts the
paths in a cell are draws from it, so the estimate is unbiased where no
cells merge; its standard error is no larger than the plain mean's, and it
needs no extra step draws. Sparse cells merge on their counts alone
(``_runs``), and the standard error comes from each unit's residual
(``_Units.mean``). A set whose measure is Monte Carlo keeps the plain
mean, and so does the raw-grid oracle (``exit_survival_refined``). A
scan in which no path starts in A gives 0 +- 0.

The scan owns the stratification (``_scan``): it takes each start set's
shells and cells (``_shells``) and returns a row table (``_Units``), one
row per path in shard and row order: each row's unit, its start shell
and end cell in each arm (0 outside the arm's start set) and its values
in each arm. Every estimate, paired SE, refinement change and margin
change is read off that table as one residual per row (``_Linear``):
``_Units.mean`` stratifies on the arm's cells and ``_Units.plain`` is
the plain mean. The SE is the root of the units' summed squared
residuals, divided by the paths. ``_pair`` routes the two arms of both
pair calls, each to its exact value or to one scan of the other arms.
Two identical arms give every row equal cells and equal residuals, so
their residual difference is 0 row by row: its standard error is
exactly 0.

The scan runs on one shard loop (``_scan``): near-equal shards
(``_shards``), shard i drawing from the stream keyed ("exit", i), each
advancing a block of steps per round of numpy calls (about
``_BLOCK_STATES`` state values) and dropping its finished rows between
blocks once fewer than 7/8 of them are live. A dropped row that needs
an end cell draws its end point in one shot from the exact transition
over the time left, from the stream keyed ("end", i); the live row of a
pair whose partner has finished goes on as a single, the partner's
values fixed (exit weight 0, the occupation so far). When rows drop
depends only on the seed, the sizes and the sets, and the shards, run
side by side on the shared thread pool (``seeding.fan_out``), are joined
in shard order, so results do not depend on the number of workers.

The exact half-space arms keep off OpenBLAS's thread pool: a pooled
BLAS call leaves its threads spinning for about 0.1 s of CPU after it
returns, time the scans' shards would otherwise have.

``semigroup_apply`` is the Monte Carlo heat flow of composites and the
oracle of ``geometry.heat_flow``; the gradient check is in ``verify``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import seeding
from .gaussian import CorrelationMatrix, cholesky
from .geometry import (HalfSpace, SetExpr, boundary_distance, contains,
                       exact_measure, level_set, pair_measures)
from .orthant import Estimate
from .seeding import batches, check_seed, derive_rng, fan_out


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


# ---------------------------------------------------------------------------
# streaming grid scans
# ---------------------------------------------------------------------------

# A scan gathers a shard's live rows (with ``compress``, which keeps them
# C-contiguous) when, between two rounds, fewer than this share of its
# rows is live.
_LIVE_SHARE = 7 / 8

# State values a shard advances per round of numpy calls: a round takes
# min(steps left, _BLOCK_STATES // (rows * dim)) steps, at least one, and
# draws one normal vector per unit and step, at most as many normals. At
# 2^15 a round's states take 256 kB.
_BLOCK_STATES = 1 << 15


def _horizon(tau: float) -> float:
    tau = float(tau)
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {tau}")
    return tau


def _grid_params(tau: float, steps: int):
    tau = _horizon(tau)
    # a fractional count would scan one grid and scale by another
    if not (steps >= 1 and float(steps).is_integer()):
        raise ValueError(f"steps must be an integer >= 1, got {steps}")
    steps = int(steps)
    d = tau / steps
    return tau, steps, math.exp(-d), math.sqrt(max(0.0, -math.expm1(-2.0 * d)))


def _bridge_monitor(weight, last, a1, alive, inv_sinh):
    """The bridge-corrected exit monitor of g rows over m grid steps of a
    block.

    ``a1`` (g, m, paths) holds each row's boundary distance after each
    step, ``last`` (g, paths) the distance before the first, and
    ``alive`` (g, m, paths) the raw grid indicator after each step. Each
    step multiplies the weight of a path still alive by the probability
    that the OU bridge between its two grid states does not cross the
    boundary, 1 - exp(x) with x = -a0 a1 / sinh(d), in step order
    (``np.multiply.at`` applies a repeated index in turn). Through the
    Lamperti change X_t = e^{-t} W(e^{2t}) this is exact for a
    half-space through the origin and the tangent-half-space
    approximation, accurate to O(d), for every other boundary.
    ``weight`` (g, paths, C-contiguous) and ``last`` are updated in
    place; ``weight`` is meaningful only where the path is alive.
    Returns (near, factor): the flat (row, step, path) indices of the
    factors applied, in that order, and the factors.
    """
    _, m, cols = a1.shape
    near, factor = np.empty(0, dtype=np.intp), np.empty(0)
    if m and inv_sinh is not None:  # a zero step leaves no time to cross
        x = np.empty_like(a1)
        np.multiply(last, a1[:, 0], out=x[:, 0])
        np.multiply(a1[:, :-1], a1[:, 1:], out=x[:, 1:])
        # 1 - exp(-a0 a1 / sinh(d)) rounds to 1 where a0 a1 >= 40 sinh(d)
        near = (alive & (x < 40.0 / inv_sinh)).ravel().nonzero()[0]
        factor = -np.expm1(x.ravel()[near] * -inv_sinh)
        if m == 1:
            # one step repeats no path, and plain indexing holds up the
            # other shards' threads less than ufunc.at does
            weight.ravel()[near] *= factor
        else:  # the index of (row, step, path) in weight is (row, path)
            np.multiply.at(weight.ravel(), _row_path(near, m, cols), factor)
    if m:
        last[...] = a1[:, -1]
    return near, factor


def _row_path(index, m, cols):
    """The (row, path) index of each sorted (row, step, path) index."""
    out = index % cols
    if len(index) and index[-1] >= m * cols:  # a row after the first
        out += index // (m * cols) * cols
    return out


def _block_hits(before, hit, near, factor):
    """Each row's and path's bridge-weighted hits in a block of b steps,
    ``before`` * sum_j R_j ``hit``[:, j]: ``before`` (g, paths) is the
    weight before the block, ``hit`` (g, b, paths) the hits, and R_j the
    product in step order of the bridge factors (``near`` and ``factor``
    of ``_bridge_monitor``) over steps 0 to j. Without a factor the sum
    is the hit count; it is formed step by step only on paths with both."""
    _, b, cols = hit.shape
    # a bool sum would widen to int64 first; a count is at most b < 2^16
    count = hit.view(np.uint8).sum(axis=1, dtype=np.uint16)
    out = before * count
    key = _row_path(near, b, cols)
    hot = count.ravel()[key] > 0
    if hot.any():
        fix, place = np.unique(key[hot], return_inverse=True)
        ratio = np.ones((len(fix), b))
        ratio[place, near[hot] // cols % b] = factor[hot]
        np.cumprod(ratio, axis=1, out=ratio)
        ratio *= hit[fix // cols, :, fix % cols]
        # cumsum adds in step order, where a sum over one row need not
        out.ravel()[fix] = before.ravel()[fix] * ratio.cumsum(axis=1)[:, -1]
    return out


def _inv_sinh(d: float):
    return 1.0 / math.sinh(d) if d > 0.0 else None


def _advance(states, z, pairs, decay, scale):
    """Exact-transition steps from ``states`` (rows, dim) driven by the
    normals ``z`` (b, units, dim), one vector per unit and step: rows 0
    to ``pairs`` - 1 take +z and the next ``pairs`` rows -z of the first
    ``pairs`` vectors (antithetic partners), and each remaining row one
    vector of its own. Returns the (b, rows, dim) states after each step,
    each ``s * decay + z * scale`` rounded as written; -(z * scale) is
    (-z) * scale exactly. ``z`` is scaled in place."""
    z *= scale
    out = np.empty((len(z), *states.shape))
    out[:, :pairs] = z[:, :pairs]
    np.negative(z[:, :pairs], out=out[:, pairs:2 * pairs])
    out[:, 2 * pairs:] = z[:, pairs:]
    prev = states
    for row in out:
        row += prev * decay
        prev = row
    return out


def _dropping(live):
    """``live``, each path's liveness, when fewer than ``_LIVE_SHARE`` of
    the paths are live, so that a scan drops the rest; else None."""
    return live if np.count_nonzero(live) < _LIVE_SHARE * live.size else None


def _commit(inside, alive):
    """Turn ``inside`` (rows, b, paths), each liveness row's membership
    after each step of a block, into liveness in place: a row is live
    after step j if it is in ``alive`` and inside after steps 0..j."""
    inside[:, 0] &= alive
    for j in range(1, inside.shape[1]):
        inside[:, j] &= inside[:, j - 1]


def _shards(paths: int) -> list[tuple[int, int]]:
    """(index, count) of each shard of a ``paths``-path scan, in order:
    one shard below ``seeding.BATCH / 4`` paths, else twice as many as
    ``seeding.batches`` has batches. Counts differ by at most one and
    sum to ``paths``; ``batches`` rejects ``paths < 1``."""
    halves = 2 * sum(1 for _ in batches(paths))
    paths = int(paths)
    count = halves if 4 * paths >= seeding.BATCH else 1
    size, extra = divmod(paths, count)
    return [(i, size + (i < extra)) for i in range(count)]


# A scanned arm is post-stratified on at most _SHELLS shells of its start
# set; a shell with fewer than _MIN_STARTS starts joins its inner
# neighbour (``_runs``).
_SHELLS = 8
_MIN_STARTS = 20


def _shells(s: SetExpr, tau: float):
    """(cuts, levels, cells) of the shells of the start set A = ``s`` at
    horizon ``tau``: A's points at boundary distance d from delta_j up to
    delta_{j+1}, with delta_0 = 0 and delta_j = j sigma / 2 for the
    ``cuts`` delta_1 < delta_2 < ..., where sigma = sqrt(1 - e^{-2 tau})
    is the OU displacement scale over the horizon. ``levels`` holds the
    exact measures mu(A), mu(``level_set(A, delta_1)``), ..., and a final
    0, so shell j has measure levels[j] - levels[j + 1]. There are at
    most ``_SHELLS`` shells, and they stop before the first level set of
    measure 0. tau = 0 gives one shell; a Monte Carlo measure of A gives
    no cuts and ``levels`` None.

    ``cells`` (shells, shells + 1) holds the exact measure of each start
    shell a and end cell b, Pr(X_0 in shell a, X_tau in cell b), where
    end cell 0 is the complement of A and end cell b >= 1 is shell b:
    differences of the ``geometry.pair_measures`` of the level sets.
    It is None at tau = 0 and wherever those do not exist."""
    mu = exact_measure(s)
    if mu is None:
        return np.empty(0), None, None
    width = 0.5 * math.sqrt(-math.expm1(-2.0 * _horizon(tau)))
    sets, cuts, levels = [s], [], [mu]
    for j in range(1, _SHELLS if width > 0.0 else 1):
        inner = level_set(s, j * width)
        level = exact_measure(inner)
        if level == 0.0:
            break
        sets.append(inner)
        cuts.append(j * width)
        levels.append(level)
    levels = np.array(levels + [0.0])
    pairs = pair_measures(sets, sets, tau) if tau > 0.0 else None
    if pairs is None:
        return np.array(cuts), levels, None
    # the level sets' pair measures, with the empty set's row and column
    q = np.pad(pairs, ((0, 1), (0, 1)))
    inside = q[:-1, :-1] - q[1:, :-1] - q[:-1, 1:] + q[1:, 1:]
    outside = levels[:-1] - levels[1:] - (q[:-1, 0] - q[1:, 0])
    return (np.array(cuts), levels,
            np.maximum(np.column_stack([outside, inside]), 0.0))


def _cell(dist: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The shell of each boundary distance ``dist``: 0 below 0, else 1
    plus the number of ``cuts`` at or below it."""
    return np.where(dist < 0.0, 0,
                    1 + np.searchsorted(cuts, dist, side="right"))


def _scan(sets, tau, steps, paths, seed, start, update, columns, blocks):
    """The shard loop of the OU grid scans: ``paths`` stationary paths,
    ``steps`` exact-transition steps over [0, tau], in antithetic pairs,
    post-stratified on the shells of each of the start ``sets`` and on
    the end point.

    Shard i of ``_shards(paths)`` draws from the stream keyed
    ("exit", i). Its c paths are floor(c / 2) pairs and, for odd c, one
    lone path: the units. Each unit draws one start point, which both
    rows of a pair share. The scan takes each start set's boundary
    distance of the starts: a row's start shell in the set is its
    ``_cell``, given the set's ``_shells`` cuts. ``start(dist)`` gets
    those distances (sets, units) and returns the scan's per-row arrays,
    one column per row, with the liveness rows ``alive`` first. The rows
    are the + partner of each pair, the - partner, then the singles. The
    loop advances a block of b steps per round (about ``_BLOCK_STATES``
    state values), drawing one normal vector per pair and per single and
    step in one call (``_advance``); ``update(i, block, *arrays)`` gets
    the (b, rows, dim) states after steps i + 1 to i + b and updates the
    arrays in place for all of them (``_commit`` turns memberships into
    liveness). Between rounds, once fewer than ``_LIVE_SHARE`` of the
    rows are live, the dead rows are dropped: the live row of a pair
    whose partner died goes on as a single (in pair order, after the
    singles), and a shard stops when no row is left. A row that dies
    mid-block steps on to the block's end with its values fixed.

    A row's end cell in a set whose shells have ``cells`` is the
    ``_cell`` of its end point X_tau if it starts in the set, else 0,
    and it is 0 in every other set. A row that runs to the end ends at
    its last state. A row dropped at time t that starts in such a set
    draws its end point from the exact transition over the time left,
    X_tau = e^{-(tau - t)} X_t + sqrt(1 - e^{-2 (tau - t)}) Z, with Z
    from shard i's stream keyed ("end", i), in the order the rows drop;
    so the step normals are those of a scan with no end cells.

    ``columns(*arrays)`` gives the value columns (columns, rows) of the
    rows it is passed, block by block and one column per set in each:
    of the dead rows when they drop and of the rest at the end. Returns
    the ``_Units`` of the value ``blocks``: every row of every shard, in
    shard and row order.
    """
    tau, steps, decay, scale = _grid_params(tau, steps)
    parts = _shards(paths)
    seed = check_seed(seed)
    cuts, levels, cells = zip(*(_shells(s, tau) for s in sets))
    ended = np.array([c is not None for c in cells])
    dim = sets[0].dim
    # the row table, which each shard fills from its first row and unit
    unit = np.empty(int(paths), dtype=np.intp)
    shell, end = (np.zeros((len(sets), len(unit)), dtype=np.int8)
                  for _ in range(2))
    values = np.empty(((max(blocks.values()) + 1) * len(sets), len(unit)))
    firsts = np.cumsum([(0, 0)] + [(c, (c + 1) // 2) for _, c in parts],
                       axis=0)

    def shard(part):
        index, c = part
        first, first_unit = firsts[index]
        pairs, lone = divmod(c, 2)
        rng = derive_rng(seed, "exit", index)
        end_rng = derive_rng(seed, "end", index)
        starts = rng.standard_normal((pairs + lone, dim))
        dist = np.array([boundary_distance(s, starts) for s in sets])
        arrays = start(dist)
        # each row's unit: rows i and pairs + i are the partners of pair i
        local = np.r_[0:pairs, 0:pairs + lone]
        unit[first:first + c] = first_unit + local
        for k, (d, cut) in enumerate(zip(dist, cuts)):
            shell[k, first:first + c] = _cell(d, cut)[local]
        row = first + np.arange(c)  # each live row's place in the table
        states = starts[local]
        arrays = [x[:, local] for x in arrays]

        def settle(rows, left):
            place = row[rows]
            values[:, place] = columns(*(x.take(rows, 1) for x in arrays))
            read = (shell[:, place] > 0) & ended[:, None]
            need = read.any(axis=0)
            if not need.any():
                return
            pts = states[rows[need]]
            if left > 0.0:  # the rows were dropped before the end
                z = end_rng.standard_normal(pts.shape)
                pts = pts * math.exp(-left) + z * math.sqrt(
                    -math.expm1(-2.0 * left))
            for k in np.flatnonzero(ended):
                end[k, place[need]] = np.where(read[k, need], _cell(
                    boundary_distance(sets[k], pts), cuts[k]), 0)

        i = 0
        while i < steps:
            drop = _dropping(arrays[0].any(axis=0))
            if drop is not None:
                settle(np.flatnonzero(~drop), tau / steps * (steps - i))
                plus, minus = drop[:pairs], drop[pairs:2 * pairs]
                kept, alone = (np.flatnonzero(plus & minus),
                               np.flatnonzero(plus ^ minus))
                order = np.concatenate([
                    kept, pairs + kept, 2 * pairs + np.flatnonzero(
                        drop[2 * pairs:]),
                    np.where(plus[alone], alone, pairs + alone)])
                pairs = len(kept)
                states, row = states[order], row[order]
                arrays = [x.take(order, 1) for x in arrays]
                if not len(states):
                    break
            b = min(steps - i, max(1, _BLOCK_STATES // states.size))
            z = rng.standard_normal((b, len(states) - pairs, dim))
            block = _advance(states, z, pairs, decay, scale)
            del states  # frees the last round's block during the update
            update(i, block, *arrays)
            states = block[-1]
            i += b
        settle(np.arange(len(states)), 0.0)

    fan_out(shard, parts)
    return _Units(len(unit), unit, shell, end,
                  values.reshape(-1, len(sets), len(unit)), blocks,
                  list(levels), list(cells), seed)


def _runs(counts) -> list[int]:
    """Edges e_0 = 0 < e_1 < ... < e_G = len(counts) of the runs of
    consecutive cells, outermost first, that the estimate stratifies on,
    given each cell's count. A run grows inwards until it holds
    ``_MIN_STARTS`` paths, so a sparse cell joins its inner neighbour; a
    sparse last run joins the one before it. The rule reads the counts
    only."""
    edges, held = [0], 0.0
    for j, n in enumerate(counts, 1):
        held += n
        if held >= _MIN_STARTS:
            edges.append(j)
            held = 0.0
    if len(edges) == 1:
        edges.append(len(counts))
    edges[-1] = len(counts)
    return edges


@dataclass(frozen=True, eq=False)
class _Linear:
    """An estimate read off a scan's rows: its value, and its
    ``residual`` on each row, whose sum over the rows, divided by the
    paths, is the estimate's error to first order. An exact value has
    residual None. Differences of estimates of one scan are ``_Linear``
    too."""
    value: float
    residual: np.ndarray | None = None

    def __sub__(self, other: "_Linear") -> "_Linear":
        a, b = self.residual, other.residual
        return _Linear(self.value - other.value,
                       a if b is None else -b if a is None else a - b)


@dataclass(frozen=True, eq=False)
class _Units:
    """The row table of a scan over ``paths`` paths, one row per path, in
    shard and row order (in a shard, the + partner of each pair, the -
    partner, then the lone path): ``unit`` holds each row's unit, its
    index in shard and unit order, so the two rows of a pair share it;
    ``shell`` (arms, rows) its start shell in each scanned arm's start
    set (A or A_1), 0 outside it; ``end`` (arms, rows) its end cell
    there (``_scan``); and ``values`` (blocks, arms, rows) its values. A
    block holds one value column per scanned arm (a region or an (A_1,
    A_2) pair); ``blocks`` maps a block's name to its index, and two
    names may share one. Every value is 0 for a row that starts outside
    the arm's start set. ``levels[arm]`` and ``cells[arm]`` hold the
    ``_shells`` levels and cells of that set. ``seed`` is the scan's
    checked seed."""
    paths: int
    unit: np.ndarray
    shell: np.ndarray
    end: np.ndarray
    values: np.ndarray
    blocks: dict
    levels: list
    cells: list
    seed: int

    def column(self, block: str, arm: int) -> np.ndarray:
        return self.values[self.blocks[block], arm]

    def plain(self, block: str, arm: int, scale: float = 1.0) -> _Linear:
        """``scale`` times the plain mean q = sum(v) / N of column
        (``block``, ``arm``), with residual v - q on each row."""
        v = self.column(block, arm)
        q = v.sum() / self.paths
        return _Linear(float(scale * q), scale * (v - q))

    def mean(self, block: str, arm: int, scale: float = 1.0) -> _Linear:
        """``scale`` times the mean of column (``block``, ``arm``),
        post-stratified on the cells of the arm's start shell and end
        cell, whose exact measures are the arm's ``cells``; without
        cells each start shell is one cell, of measure the difference of
        its levels. ``_runs`` merges, on row counts, the start shells
        into runs and then, in each start run, its end cells, outside
        first. Each cell c of a start run and an end run gives mu_c q_c,
        with q_c = sum(v) / n_c over its n_c rows, and the residual
        (mu_c / m_c)(v - q_c) on each of them, m_c = n_c / N; 0 with
        residuals 0 when no path starts in A. A Monte Carlo measure
        (levels None) gives the ``plain`` mean."""
        levels, cells = self.levels[arm], self.cells[arm]
        if levels is None:
            return self.plain(block, arm, scale)
        if cells is None:
            cells = (levels[:-1] - levels[1:])[:, None]
        v, shell, end = self.column(block, arm), self.shell[arm], self.end[arm]
        # the merged cell of each (start shell, end cell), from 1; 0
        # outside A
        table, measure = np.zeros((len(cells) + 1, cells.shape[1]), int), [0.0]
        edges = _runs(np.bincount(shell, minlength=len(table))[1:])
        for lo, hi in zip(edges, edges[1:]):
            ends = np.bincount(end[(shell > lo) & (shell <= hi)],
                               minlength=cells.shape[1])
            cuts = _runs(ends)
            for a, b in zip(cuts, cuts[1:]):
                table[lo + 1:hi + 1, a:b] = len(measure)
                measure.append(cells[lo:hi, a:b].sum())
        cell = table[shell, end]
        n = np.bincount(cell, minlength=len(measure))
        q = np.divide(np.bincount(cell, v, len(measure)), n,
                      out=np.zeros(len(measure)), where=n > 0)
        mu = scale * np.array(measure)
        weight = np.divide(mu * self.paths, n, out=np.zeros(len(mu)),
                           where=n > 0)
        return _Linear(float(np.sum(mu * q)), weight[cell] * (v - q[cell]))

    def std_error(self, est: _Linear) -> float:
        """Standard error of ``est``: sqrt((sum r^2 / N - (sum r / N)^2)
        / N) over the units' residuals r, each the sum of its rows'
        residuals, so the residuals' mean (0 up to rounding, since each
        cell's residuals sum to 0) is taken out. The units are
        independent, so this is the SE clustered by unit. ``einsum``
        sums, not a BLAS product, which would leave OpenBLAS's threads
        spinning."""
        if est.residual is None:
            return 0.0
        r = np.bincount(self.unit, est.residual)
        mean = np.einsum("u->", r) / self.paths
        square = np.einsum("u,u->", r, r) / self.paths
        return math.sqrt(max(square - mean * mean, 0.0) / self.paths)

    def estimate(self, est: _Linear) -> Estimate:
        if est.residual is None:
            return Estimate.exact(est.value, self.seed)
        return Estimate(value=est.value,
                        std_error=self.std_error(est), samples=self.paths,
                        seed=self.seed)


def _survival_scan(regions, tau, steps, paths, seed, refine: int = 1,
                   targets=()) -> _Units:
    """Shared-trajectory exit and occupation scan of one or two regions.

    Simulates at ``steps * refine`` resolution and monitors each region
    on the full fine grid and on the coarse subgrid (every
    ``refine``-th point, including t=0), two ways: the raw grid
    indicator and the bridge-corrected per-path survival weight
    (``_bridge_monitor``). ``refine`` must be an integer >= 1. Returns
    the ``_Units`` of these blocks of per-path columns, one column per
    region:

    - "coarse" and "fine": the corrected weight on each grid;
    - "raw" and "raw_fine": the raw grid indicator on each grid;
    - "occupation", given ``targets``, a set A_2 per region A_1: sum_i
      w_i 1{X_i in A_2} over the fine steps i >= 1, w_i the fine weight
      in A_1 after step i (``_block_hits``).

    With ``refine`` 1 the fine grid is the coarse one, and so are its
    blocks. The corrected fine event no longer nests inside the coarse
    one, so a change is read per path, as a difference of blocks.
    """
    tau, steps, _, _ = _grid_params(tau, steps)
    if not (refine >= 1 and float(refine).is_integer()):
        raise ValueError(f"refine must be an integer >= 1, got {refine}")
    refine = int(refine)
    inv_fine = _inv_sinh(tau / (steps * refine))
    inv_coarse = _inv_sinh(tau / steps)
    r = len(regions)
    blocks = ({"coarse": 0, "raw": 1, "fine": 2, "raw_fine": 3}
              if refine > 1 else
              {"coarse": 0, "raw": 1, "fine": 0, "raw_fine": 1})
    if targets:
        blocks["occupation"] = max(blocks.values()) + 1

    def per_set(test, sets, pts, b, cols):
        out = [test(s, pts) for s in sets]
        return (out[0] if r == 1 else np.stack(out)).reshape(r, b, cols)

    def start(dist):
        # rows: each region on the fine grid, then on the coarse grid
        last = np.concatenate([dist] * min(refine, 2))
        arrays = [last >= 0.0, np.ones_like(last), last]
        return arrays + [np.zeros_like(dist)] if targets else arrays

    def update(i, block, alive, weight, last, occupied=None):
        b, cols, dim = block.shape
        pts = block.reshape(-1, dim)
        dist = per_set(boundary_distance, regions, pts, b, cols)
        # block step j is grid step i + 1 + j; coarse where refine divides it
        coarse = (-1 - i) % refine
        inside = np.empty((len(alive), b, cols), dtype=bool)
        np.greater_equal(dist, 0.0, out=inside[:r])
        if refine > 1:  # coarse rows hold between coarse steps
            inside[r:] = True
            inside[r:, coarse::refine] = inside[:r, coarse::refine]
        _commit(inside, alive)
        before = weight[:r].copy() if targets and b > 1 else None
        # fine rows at every step, coarse rows at the coarse steps
        grids = [(slice(0, r), slice(None), inv_fine)]
        if refine > 1:
            grids.append((slice(r, None), slice(coarse, None, refine),
                          inv_coarse))
        fine, *_ = [_bridge_monitor(weight[rows], last[rows], dist[:, sel],
                                    inside[rows, sel], inv)
                    for rows, sel, inv in grids]
        if targets:
            hit = inside[:r] & per_set(contains, targets, pts, b, cols)
            occupied += (weight[:r] * hit[:, 0] if b == 1
                         else _block_hits(before, hit, *fine))
        alive[...] = inside[:, -1]

    def columns(alive, weight, last, occupied=None):
        w = np.where(alive, weight, 0.0)
        parts = [w[-r:], alive[-r:]]
        if refine > 1:
            parts += [w[:r], alive[:r]]
        if targets:
            parts.append(occupied)
        return np.concatenate(parts, dtype=float)

    return _scan(regions, tau, steps * refine, paths, seed, start, update,
                 columns, blocks)


def exit_survival(s: SetExpr, tau: float, steps: int, paths: int,
                  seed: int) -> Estimate:
    """Bridge-corrected estimate of Pr(X_t in ``s`` for all t in [0, tau]).

    Each path's weight is the product over grid steps of the probability
    that the bridge between consecutive grid states stays inside (see
    ``_bridge_monitor``). Exact up to Monte Carlo error for a half-space
    through the origin, with an O(d) bias at step d = tau/steps for other
    sets. The state at t=0 is checked too, so a path that starts outside
    the set weighs 0, and the scan post-stratifies the weights on the
    shells of s that the path starts and ends in where s is a half-space
    or a ball centred at the origin, and on its start shells elsewhere
    (``_scan``; see the module docstring). The paths run in antithetic
    pairs, and ``samples`` counts paths.
    """
    m = _survival_scan([s], tau, steps, paths, seed)
    return m.estimate(m.mean("coarse", 0))


# The half-space oracle solves on (c - width, c], width = min(9, 12
# sqrt(tau)): a path started further below c reaches c within tau with
# probability below 1e-16, and the shorter interval keeps the grid fine
# against the sqrt(tau)-wide boundary layer at small horizons. Richardson
# extrapolation over _HALFSPACE_NODES and twice as many nodes stays within
# 2e-7 of an 800/1600-node solve for c = Phi^-1(p), p in [1e-6, 1 - 1e-6],
# and tau in [1e-4, 50], and within 4e-8 of asin(e^{-tau}) / pi at c = 0.
# The occupation stays within 3e-6 of a 400/800-node solve for c1 in
# [0.3, 2], c1 - c2 in [1e-3, 2] and tau = 0.5, and within 3e-8 of its
# closed form at c1 = c2 = 0.
_HALFSPACE_WIDTH = 9.0
_HALFSPACE_LAYER = 12.0
_HALFSPACE_NODES = 100


def _halfspace_generator(c: float, width: float, nodes: int):
    """The finite-difference OU chain on ``nodes`` nodes x spaced
    h = width / nodes below c, killed at c, diagonalised once.

    The generator f'' - x f' = (phi f')' / phi is taken in flux form,
    (L f)_i = [phi_{i+1/2} (f_{i+1} - f_i) - phi_{i-1/2} (f_i - f_{i-1})]
    / (h w_i phi_i), with trapezoid weights w_i. The node c is absorbing
    (u = 0 there) and the left end is reflecting (phi_{-1/2} = 0).
    D = diag(sqrt(w phi)) makes D L D^-1 = V diag(lam) V^T symmetric, so
    the survival u(t) = e^{tL} 1 from the nodes is D^-1 V e^{t lam} V^T D 1,
    exact in time. On a uniform grid phi_{i+1/2} / sqrt(phi_i phi_{i+1})
    is e^{h^2/8}, so no ratio of phi values under- or overflows.

    Returns (x, lam, V, d1, x0): d1 is D 1 scaled by sqrt(phi) at the
    node nearest 0, where x^2 = x0, so sums of d1 products times
    e^{-x0/2} / sqrt(2 pi) are Gaussian masses.
    """
    h = width / nodes
    x = c - h * np.arange(nodes, 0, -1)
    w = np.full(nodes, h)
    w[0] = 0.5 * h
    up = np.exp(-0.5 * h * x - h * h / 8.0)  # phi_{i+1/2} / phi_i
    down = np.exp(0.5 * h * x - h * h / 8.0)  # phi_{i-1/2} / phi_i
    down[0] = 0.0
    off = math.exp(h * h / 8.0) / (h * np.sqrt(w[:-1] * w[1:]))
    # imported here, so that importing the package loads no scipy.linalg;
    # unlike numpy's eigh and the default driver, stemr leaves no OpenBLAS
    # thread spinning after it returns
    from scipy.linalg import eigh_tridiagonal
    lam, vec = eigh_tridiagonal(-(up + down) / (h * w), off,
                                lapack_driver="stemr")
    x0 = float(np.min(x * x))
    return x, lam, vec, np.sqrt(w) * np.exp(-0.25 * (x * x - x0)), x0


def _target_weights(x: np.ndarray, h: float, c2: float) -> np.ndarray:
    """Weights f, relative to the trapezoid weights w phi of the nodes
    ``x`` below the absorbing node x[-1] + h, such that
    sum_i w_i phi_i f_i u_i integrates phi u over {y <= c2}.

    Nodes whose intervals lie below c2 weigh 1. On the interval
    [x_j, x_j + h] that c2 cuts, phi is integrated against the linear
    interpolant of u (Simpson's rule on the cut part, exact to O(h^5)),
    so c2 need not lie on a node. The cut adds an error of O(h^3) that
    depends on where c2 falls and so survives the Richardson step; a
    node-mass share would add O(h^2). u is 0 at the absorbing node, so
    its share is dropped.
    """
    f = np.zeros(x.size)
    j = int(np.searchsorted(x, c2, side="right")) - 1  # x_j <= c2
    if j < 0:
        return f
    f[:j] = 1.0
    s = np.array([0.0, 0.5, 1.0]) * (c2 - x[j])  # y - x_j, Simpson's nodes
    r = np.exp(-0.5 * s * (2.0 * x[j] + s))  # phi(y) / phi(x_j)
    simpson = s[2] / 6.0 * np.array([1.0, 4.0, 1.0])
    # int phi and int (y - x_j) phi over [x_j, c2], in units of phi(x_j)
    m0, m1 = float(simpson @ r), float(simpson @ (s * r))
    left = 0.5 * h if j else 0.0  # the trapezoid half of [x_j - h, x_j]
    f[j] = (left + m0 - m1 / h) / (left + 0.5 * h)
    if j + 1 < x.size:
        f[j + 1] = m1 / (h * h) * math.exp(0.5 * h * (x[j] + x[j + 1]))
    return f


def _exited(tau: float, lam: np.ndarray) -> np.ndarray:
    """g of the exit probability by tau: 1 - e^{tau lam}."""
    return -np.expm1(tau * lam)


def _occupied(tau: float, lam: np.ndarray) -> np.ndarray:
    """g of the occupation: expm1(tau lam) / lam, and tau where the top
    eigenvalue, rounding noise of either sign for c1 >= 8, is exactly 0."""
    return np.divide(np.expm1(tau * lam), lam, out=np.full(lam.size, tau),
                     where=lam != 0.0)


def _halfspace_grid(c1: float, c2: float, tau: float, width: float,
                    nodes: int, g, edge: float = 0.0) -> float:
    """Both exact half-space arms on one grid of ``_halfspace_generator``
    below c1: sum_k p_k q_k g(tau, lam_k) e^{-x0/2} / sqrt(2 pi) with
    p = V^T D 1, q = V^T D f (f = 1 where c2 >= c1, else
    ``_target_weights``), plus the absorbing node's share (h/2) edge /
    sqrt(2 pi). ``_exited`` with edge e^{-c1^2/2} gives the exit
    probability by tau; ``_occupied`` the occupation of {y <= c2}."""
    h = width / nodes
    x, lam, vec, d1, x0 = _halfspace_generator(c1, width, nodes)
    p = vec.T @ d1
    q = p if c2 >= c1 else vec.T @ (d1 * _target_weights(x, h, c2))
    inner = float((p * q) @ g(tau, lam))
    return (0.5 * h * edge
            + inner * math.exp(-0.5 * x0)) / math.sqrt(2.0 * math.pi)


def _halfspace_solve(c1: float, c2: float, tau: float, g,
                     edge: float = 0.0) -> tuple[float, float]:
    """(width, value) of ``_halfspace_grid`` on the width of
    ``_HALFSPACE_WIDTH``, Richardson-extrapolated (the grid error is
    O(h^2)) from ``_HALFSPACE_NODES`` and twice as many nodes."""
    width = min(_HALFSPACE_WIDTH, _HALFSPACE_LAYER * math.sqrt(tau))
    coarse, fine = (_halfspace_grid(c1, c2, tau, width, nodes, g, edge)
                    for nodes in (_HALFSPACE_NODES, 2 * _HALFSPACE_NODES))
    return width, (4.0 * fine - coarse) / 3.0


def halfspace_survival(offset: float, tau: float) -> float:
    """Probability that a stationary 1-d OU process stays <= ``offset``
    on [0, tau]: the survival of any standard OU process in a half-space
    {nu.x <= offset} with |nu| = 1.

    Phi(offset) minus the exit probability, which solves the backward
    equation u_t = u_xx - x u_x, killed at the offset, on a
    finite-difference grid diagonalised once (``_halfspace_solve`` with
    ``_exited``). tau = 0 returns Phi(offset); an offset of +inf or -inf
    returns 1 or 0. At offset 0 the exact value is asin(e^{-tau}) / pi.
    """
    c = float(offset)
    tau = _horizon(tau)
    if math.isnan(c):
        raise ValueError("offset must not be NaN")
    if tau == 0.0:
        return float(special.ndtr(c))
    if math.isinf(c):
        return float(c > 0.0)
    _, exited = _halfspace_solve(c, c, tau, _exited, math.exp(-0.5 * c * c))
    # far below the origin nearly all of Phi(c) exits, far above nearly
    # none does: keep the Richardson residual inside [0, Phi(c)]
    start = float(special.ndtr(c))
    return min(max(start - exited, 0.0), start)


def halfspace_occupation(c1: float, c2: float, tau: float) -> float:
    """Expected time E int_0^{min(tau, T)} 1{Y_t <= c2} dt that a
    stationary 1-d OU process Y spends in {y <= c2} before T, its first
    exit from {y <= c1}: the occupation of parallel half-spaces
    {nu.x <= c1}, {nu.x <= c2} with |nu| = 1.

    The stationary process is reversible, so this is the integral of
    phi(y) int_0^tau u(y, t) dt over {y <= c2}, with u the survival from y
    of ``halfspace_survival``; the grid and the Richardson extrapolation
    are the same (``_halfspace_solve`` with ``_occupied``). A path
    started below the grid survives to tau (see ``_HALFSPACE_WIDTH``) and
    adds tau Phi(min(c2, c1 - width)). c2 >= c1 gives the integral of the
    survival over [0, tau]; c1 = +inf gives tau Phi(c2), and c1 = -inf,
    c2 = -inf or tau = 0 give 0. At c1 = c2 = 0 the exact value is the
    integral of asin(e^{-t}) / pi over [0, tau].
    """
    c1, c2 = float(c1), float(c2)
    if math.isnan(c1) or math.isnan(c2):
        raise ValueError("offsets must not be NaN")
    tau = _horizon(tau)
    c2 = min(c2, c1)
    if tau == 0.0 or c2 == -math.inf:
        return 0.0
    if c1 == math.inf:
        return tau * float(special.ndtr(c2))
    width, occupied = _halfspace_solve(c1, c2, tau, _occupied)
    below = tau * float(special.ndtr(min(c2, c1 - width)))
    # no path spends more than tau in {y <= c2}, which holds Phi(c2) of
    # them at each time; keep the Richardson residual inside that range
    return min(max(below + occupied, 0.0), tau * float(special.ndtr(c2)))


def exit_survival_refined(s: SetExpr, tau, steps, paths, seed,
                          refine: int = 2):
    """The raw grid monitor, kept as the oracle: the frequency of paths
    inside ``s`` at every grid time, at ``steps`` and at ``steps *
    refine`` on shared trajectories. Each is a plain mean, with the
    standard error of its unit residuals (``_Units.plain``), since the
    two rows of an antithetic pair are not independent.

    Raw grid survival over-estimates continuous-time survival by a bias
    of order sqrt(tau/steps). The fine event is a subset of the coarse
    one path by path, so the returned (coarse, fine, change, change_se)
    has change >= 0 exactly; change measures that bias at ``steps``.
    """
    m = _survival_scan([s], tau, steps, paths, seed, refine=refine)
    coarse, fine = m.plain("raw", 0), m.plain("raw_fine", 0)
    change = coarse - fine
    return (m.estimate(coarse), m.estimate(fine), change.value,
            m.std_error(change))


def _pair(arms, exact, scan, read, tau, steps, paths, seed):
    """(estimate_a, estimate_b, paired_se) of the two ``arms``, paired_se
    the standard error of b minus a. An arm whose ``exact(arm)`` is not
    None takes that value (std_error 0, samples 0); the other arms run
    in one ``scan`` on shared trajectories, and ``read(m, i)`` reads the
    i-th of them off its row table m. So two scanned arms are paired by
    their per-unit residual difference under common random numbers (0
    for identical arms), and an exact arm adds no error. The grid, the
    path count and the seed are checked as a scan checks them, also when
    no arm is scanned."""
    _grid_params(tau, steps)
    batches(paths)  # rejects paths < 1
    seed = check_seed(seed)
    values = [exact(arm) for arm in arms]
    scanned = [arm for arm, v in zip(arms, values) if v is None]
    if not scanned:
        return (*(Estimate.exact(v, seed) for v in values), 0.0)
    m = scan(scanned, tau, steps, paths, seed)
    # an arm's place in the scan is the number of scanned arms before it
    a, b = (read(m, values[:k].count(None)) if v is None else _Linear(v)
            for k, v in enumerate(values))
    return m.estimate(a), m.estimate(b), m.std_error(b - a)


def exit_survival_pair(a: SetExpr, b: SetExpr, tau, steps, paths, seed):
    """Survival over [0, tau] of two sets: exact for a half-space arm
    (``halfspace_survival``), and the post-stratified bridge-corrected
    estimate of ``exit_survival`` for any other arm. Returns
    (estimate_a, estimate_b, paired_se) of ``_pair``.
    """
    def exact(s):
        return (halfspace_survival(s.offset, tau) if isinstance(s, HalfSpace)
                else None)

    return _pair((a, b), exact, _survival_scan,
                 lambda m, arm: m.mean("coarse", arm), tau, steps, paths, seed)


@dataclass(frozen=True)
class DominanceRefinement:
    """Dominance comparison plus its stability under grid doubling, all
    on shared trajectories and bridge-corrected.

    ``change_a/b`` are the per-arm changes of the corrected survival when
    the grid is refined (coarse minus fine, signed, with standard errors
    from per-path differences); ``margin_change`` is how much the
    dominance margin moves, with its own paired standard error. The raw
    grid monitor's drop is ``exit_survival_refined``'s.
    """
    est_a: Estimate
    est_b: Estimate
    paired_se: float
    change_a: float
    change_a_se: float
    change_b: float
    change_b_se: float
    margin_change: float
    margin_change_se: float


def exit_dominance_refined(a: SetExpr, b: SetExpr, tau, steps, paths, seed,
                           refine: int = 2) -> DominanceRefinement:
    """One coupled pass evaluating both arms at ``steps`` and at
    ``steps * refine`` on the same trajectories, each arm
    post-stratified on the shells of its start set as in
    ``exit_survival``."""
    m = _survival_scan([a, b], tau, steps, paths, seed, refine=refine)
    coarse_a, fine_a, coarse_b, fine_b = (
        m.mean(grid, arm) for arm in (0, 1) for grid in ("coarse", "fine"))
    change_a, change_b = coarse_a - fine_a, coarse_b - fine_b
    margin = change_b - change_a
    return DominanceRefinement(
        est_a=m.estimate(coarse_a), est_b=m.estimate(coarse_b),
        paired_se=m.std_error(coarse_b - coarse_a),
        change_a=change_a.value, change_a_se=m.std_error(change_a),
        change_b=change_b.value, change_b_se=m.std_error(change_b),
        margin_change=margin.value, margin_change_se=m.std_error(margin))


def occupation(a1: SetExpr, a2: SetExpr, tau: float, steps: int, paths: int,
               seed: int) -> Estimate:
    """Bridge-weighted estimate of E int_0^{min(tau, T)} 1{X_t in A_2} dt,
    the time spent in A_2 before T, the first exit from A_1: tau/steps
    times the sum over grid times t_i, i >= 1, of w_i 1{X_{t_i} in A_2},
    w_i the bridge weight of ``exit_survival`` in A_1 after step i.

    A_2 is not forced inside A_1. A path that starts outside A_1 counts
    0, and the values are post-stratified on the shells of A_1 that the
    path starts and ends in, as in ``exit_survival``.
    """
    m = _survival_scan([a1], tau, steps, paths, seed, targets=[a2])
    return m.estimate(m.mean("occupation", 0, tau / steps))


def occupation_pair(pair_a, pair_b, tau, steps, paths, seed):
    """Occupation of two set pairs: exact for two half-spaces with one
    normal (``halfspace_occupation``), and the scan of ``occupation`` for
    any other pair. Returns (estimate_a, estimate_b, paired_se) of
    ``_pair``, paired_se the SE of B minus A.
    """
    def exact(pair):
        a1, a2 = pair
        if (isinstance(a1, HalfSpace) and isinstance(a2, HalfSpace)
                and np.array_equal(a1.normal, a2.normal)):
            return halfspace_occupation(a1.offset, a2.offset, tau)
        return None

    def scan(pairs, *grid):
        return _survival_scan([a1 for a1, _ in pairs], *grid,
                              targets=[a2 for _, a2 in pairs])

    return _pair((pair_a, pair_b), exact, scan,
                 lambda m, arm: m.mean("occupation", arm, tau / steps),
                 tau, steps, paths, seed)


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def semigroup_apply(s: SetExpr, t: float, x, samples: int,
                    seed: int) -> Estimate:
    """Heat-flow average Pr(e^{-t} x + sqrt(1-e^{-2t}) Y in s), Y standard.

    t = 0 returns exact membership; a negative or NaN t is rejected. This
    Monte Carlo route serves composites and is the oracle for the closed
    form ``geometry.heat_flow`` on leaves.
    """
    t = float(t)
    if not t >= 0.0:
        raise ValueError("time must be nonnegative")
    pt = np.asarray(x, dtype=float)
    if pt.shape != (s.dim,):
        raise ValueError(f"point must have shape ({s.dim},)")
    seed = check_seed(seed)
    if t == 0.0:
        return Estimate.exact(contains(s, pt), seed)
    base = math.exp(-t) * pt
    scale = math.sqrt(-math.expm1(-2.0 * t))
    hits = seeding.indicator_hits(seed, "semigroup", samples, s.dim,
                                  lambda z: contains(s, base + scale * z))
    return Estimate.binomial(hits, samples, seed)

