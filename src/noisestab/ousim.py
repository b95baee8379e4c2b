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
origin and leaves an O(d) bias elsewhere. The occupation scan is the
raw grid functional.

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
margins carry a paired standard error. ``occupation`` runs the
post-stratified scan of a scanned ``occupation_pair`` arm; only its grid
functional is raw, with no bridge correction. The raw oracle is the exit
scan's ``exit_survival_refined``. Every estimator returns ``Estimate``s.

The scans run their paths in antithetic pairs (Glasserman, *Monte
Carlo Methods in Financial Engineering*, 2004, 4.2): both rows of a
pair start at one point and step with the normals +z and -z, so a pair
takes one normal vector per step. The start is not negated, since a
centred ball's reflected path survives exactly when the original does.
A shard of c paths holds floor(c / 2) pairs and, for odd c, one lone
path. A pair, a single or the lone path is a unit; units are
independent, the two rows of a pair are not.

The scanned estimates are post-stratified on shells of the start set
(Glasserman 2004, 4.3). An exit weight or occupation count is exactly 0
for a path that starts outside the scanned set A (or A_1), and a path
that starts deep inside A rarely leaves it within a short horizon. So
``_shells`` cuts A at boundary distances delta_j = j sigma / 2, where
sigma = sqrt(1 - e^{-2 tau}) is the OU displacement scale over the
horizon, into at most 8 shells S_j, up to the first empty level set.
The measure mu_j of each shell is exact wherever mu(A) is, for every
leaf and every 2-d composite (``geometry.level_set``,
``geometry.exact_measure``). The estimate is sum_j mu_j q_j, with q_j
the mean value of the n_j paths that start in S_j. Given the shell
counts the units that start there are iid draws from the shell, so the
estimate is unbiased; to first order its standard error is no larger
than the plain mean's, and it needs no extra draws. A count-only rule
(``_runs``) merges a shell with fewer than 20 starting paths into its
inner neighbour; a merged run weighs its shells by their counts. The
standard error comes from the unit residual, the sum over the unit's
paths of sum_j (mu_j / m_j)(v - q_j) 1_{S_j}, with m_j = n_j / N: the
residuals of a pair are summed before squaring, and each stratum's
residuals sum to 0. At tau = 0, with one shell left, the estimate is
mu(A) sum(v) / n_in over the n_in paths that start in A. A set whose
measure is Monte Carlo keeps the plain mean sum(v) / N, with unit
residual V - n sum(v) / N for a unit of n paths and summed value V; so
does the raw-grid oracle (``exit_survival_refined``). A scan in which
no path starts in A gives 0 +- 0.

The scan owns the stratification (``_scan``): it takes each start set's
shells (``_shells``), gives each unit a start cell, one shell index per
arm (``_cell``), and tallies the unit's columns (its path count and each
arm's summed values) as sums and cross-products per cell (``_tally``).
It returns them with each arm's shell levels as ``_Moments``. Every
estimate, paired SE, refinement change and margin change is a linear
combination of unit residuals read off those moments (``_Linear``):
``_Moments.mean`` stratifies on the arm's levels and ``_Moments.plain``
is the plain mean. ``_pair`` routes the two arms of both pair calls,
each to its exact value or to one scan of the other arms. Two identical
arms put every unit in a cell with equal shells and get equal weights
there, so their residual difference is 0 term by term: its standard
error is exactly 0.

Both scans run on one shard loop (``_scan``). A scan splits its paths
into near-equal shards (``_shards``): one below ``seeding.BATCH / 4``
paths, else two per ``BATCH`` paths or part of it, so a scan of any
useful size keeps every CPU busy. Shard i draws its paths from the
stream keyed ("exit", i). Once fewer than 7/8 of a shard's rows are
live, the loop adds the values of the finished rows to their units and
drops them. The live row of a pair whose partner has finished goes on
as a single that draws its own normals; its law is unchanged, and the
partner's values stay fixed in the unit (0 for an exit row, its count
for an occupation row). Each shard tallies its units once, at the end.
When rows drop depends only on the seed, the sizes and the sets. A
shard advances a block of steps per round of numpy calls (about
``_BLOCK_STATES`` state values, their normals drawn ahead) and keeps
the steps up to the first after which rows would drop; the block's
unused normals serve the next round. So every number is the one a loop
of single steps gives, bit for bit. The shards run side by side on the
shared thread pool (``seeding.fan_out``) and their sums are merged in
shard order, so results do not depend on the number of workers.

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
                       exact_measure, level_set)
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
# C-contiguous) once fewer than this share of its rows is live.
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
    boundary, 1 - exp(-a0 a1 / sinh(d)), in step order
    (``np.multiply.at`` applies a repeated index in turn). Through the
    Lamperti change X_t = e^{-t} W(e^{2t}) this is exact for a
    half-space through the origin and the tangent-half-space
    approximation, accurate to O(d), for every other boundary.
    ``weight`` (g, paths, C-contiguous) and ``last`` are updated in
    place; ``weight`` is meaningful only where the path is alive.
    """
    _, m, cols = a1.shape
    if not m:
        return
    if inv_sinh is not None:  # a zero step leaves no time for an excursion
        x = np.empty_like(a1)
        np.multiply(last, a1[:, 0], out=x[:, 0])
        np.multiply(a1[:, :-1], a1[:, 1:], out=x[:, 1:])
        x *= -inv_sinh
        # deeper inside, 1 - exp(x) rounds to 1 in double precision
        near = (alive & (x > -40.0)).ravel().nonzero()[0]
        factor = -np.expm1(x.ravel()[near])
        if m == 1:
            # one step repeats no path, and plain indexing holds up the
            # other shards' threads less than ufunc.at does
            weight.ravel()[near] *= factor
        else:  # the index of (row, step, path) in weight is (row, path)
            row, rest = np.divmod(near, m * cols)
            np.multiply.at(weight.ravel(), row * cols + rest % cols, factor)
    last[...] = a1[:, -1]


def _inv_sinh(d: float):
    return 1.0 / math.sinh(d) if d > 0.0 else None


def _advance(states, z, pairs, decay, scale):
    """Exact-transition steps from ``states`` (rows, dim) driven by the
    raw normals ``z`` (b, units, dim), one vector per unit and step: rows
    0 to ``pairs`` - 1 take +z and the next ``pairs`` rows -z of the first
    ``pairs`` vectors (antithetic partners), and each remaining row one
    vector of its own. Returns the (b, rows, dim) states after each step,
    each ``s * decay + z * scale`` rounded as written. ``z`` stays raw."""
    out = np.empty((len(z), *states.shape))
    np.multiply(z[:, :pairs], scale, out=out[:, :pairs])
    np.multiply(z[:, :pairs], -scale, out=out[:, pairs:2 * pairs])
    np.multiply(z[:, pairs:], scale, out=out[:, 2 * pairs:])
    prev = states
    for row in out:
        row += prev * decay
        prev = row
    return out


class _Lookahead:
    """The standard normals of a stream, drawn ahead into one flat buffer
    and handed out in stream order. PCG64 makes each normal from whole
    64-bit words, so draws of any sizes concatenate to one draw of their
    total."""

    def __init__(self, rng, size: int):
        self.rng, self.buf, self.pos, self.end = rng, np.empty(size), 0, 0

    def peek(self, n: int) -> np.ndarray:
        """The next ``n`` normals, drawing only the ones not drawn yet."""
        left = self.end - self.pos
        if left < n:
            self.buf[:left] = self.buf[self.pos:self.end]
            self.rng.standard_normal(out=self.buf[left:n])
            self.pos, self.end = 0, n
        return self.buf[self.pos:self.pos + n]

    def take(self, n: int):
        """Mark the first ``n`` normals of the last ``peek`` used."""
        self.pos += n


def _dropping(live):
    """``live``, each path's liveness, when fewer than ``_LIVE_SHARE`` of
    the paths are live, so that a scan drops the rest; else None."""
    return live if np.count_nonzero(live) < _LIVE_SHARE * live.size else None


def _commit(inside, alive):
    """Turn ``inside`` (rows, b, paths), each liveness row's membership
    after each step of a block, into liveness in place: a row is live
    after step j if it is in ``alive`` and inside after steps 0..j.

    Returns (k, drop): k steps to keep, up to the first step after which
    fewer than ``_LIVE_SHARE`` of the paths have a live row, else all b;
    and ``_dropping`` of the paths' liveness after step k.
    """
    inside[:, 0] &= alive
    for j in range(1, inside.shape[1]):
        inside[:, j] &= inside[:, j - 1]
    # paths only ever leave, so the live count falls step by step
    drop = _dropping(np.logical_or.reduce(inside[:, -1]))
    if drop is None:
        return inside.shape[1], None
    live = np.logical_or.reduce(inside).sum(axis=1)
    k = int(np.argmax(live < _LIVE_SHARE * inside.shape[2])) + 1
    return k, np.logical_or.reduce(inside[:, k - 1])


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
# neighbour (``_runs``). A start cell holds one shell index per arm, 0
# outside the arm's start set, so one arm has _CELL cells and two _CELL^2.
_SHELLS = 8
_CELL = _SHELLS + 1
_MIN_STARTS = 20


def _shells(s: SetExpr, tau: float):
    """(cuts, levels) of the shells of the start set A = ``s`` at horizon
    ``tau``: A's points at boundary distance d from delta_j up to
    delta_{j+1}, with delta_0 = 0 and delta_j = j sigma / 2 for the
    ``cuts`` delta_1 < delta_2 < ..., where sigma = sqrt(1 - e^{-2 tau})
    is the OU displacement scale over the horizon. ``levels`` holds the
    exact measures mu(A), mu(``level_set(A, delta_1)``), ..., and a final
    0, so shell j has measure levels[j] - levels[j + 1]. There are at
    most ``_SHELLS`` shells, and they stop before the first level set of
    measure 0. tau = 0 gives one shell; a Monte Carlo measure of A gives
    no cuts and ``levels`` None."""
    mu = exact_measure(s)
    if mu is None:
        return np.empty(0), None
    width = 0.5 * math.sqrt(-math.expm1(-2.0 * _horizon(tau)))
    cuts, levels = [], [mu]
    for j in range(1, _SHELLS if width > 0.0 else 1):
        level = exact_measure(level_set(s, j * width))
        if level == 0.0:
            break
        cuts.append(j * width)
        levels.append(level)
    return np.array(cuts), np.array(levels + [0.0])


def _cell(inside, dist, cuts) -> np.ndarray:
    """Each path's start cell, sum_a shell_a _CELL^a over the arms a:
    shell_a is 0 for a path outside arm a's start set (``inside[a]``
    false) and else 1 plus the number of the arm's ``cuts`` at or below
    its boundary distance ``dist[a]``. The cells are uint8 (two arms
    make 81), so that a stable argsort of them is a radix sort."""
    cell = np.zeros(inside.shape[1], dtype=np.intp)
    for a, (ins, d, c) in enumerate(zip(inside, dist, cuts)):
        shell = 1 + np.searchsorted(c, d, side="right")
        cell += np.where(ins, shell, 0) * _CELL ** a
    return cell.astype(np.uint8)


def _tally(cell, count, values, cells: int):
    """(sums, cross) of the per-unit columns [``count``, ``values``...]
    (values: columns, units) per start cell: sums[c] holds each column's
    sum over the units in cell c, cross[c] each product of two columns.
    The units are grouped by cell and each group summed by ``einsum``,
    not a BLAS product, which would leave OpenBLAS's threads spinning."""
    order = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=cells)
    x = np.empty((1 + len(values), len(cell)))
    x[0] = count[order]
    x[1:] = np.take(values, order, axis=1)
    sums = np.zeros((cells, len(x)))
    cross = np.zeros((cells, len(x), len(x)))
    end = np.cumsum(counts)
    for c in np.flatnonzero(counts):
        group = x[:, end[c] - counts[c]:end[c]]
        sums[c] = np.einsum("ip->i", group)
        cross[c] = np.einsum("ip,jp->ij", group, group)
    return sums, cross


def _scan(sets, tau, steps, paths, seed, start, update, columns, blocks):
    """The shard loop of the OU grid scans: ``paths`` stationary paths,
    ``steps`` exact-transition steps over [0, tau], in antithetic pairs,
    post-stratified on the shells of each of the start ``sets``.

    Shard i of ``_shards(paths)`` draws from the stream keyed
    ("exit", i). Its c paths are floor(c / 2) pairs and, for odd c, one
    lone path: the units. Each unit draws one start point, which both
    rows of a pair share. ``start(starts)`` returns (inside, dist,
    arrays): each start set's membership and boundary distance of the
    starts, which give each unit's start cell (``_cell`` on the sets'
    ``_shells``), and the scan's per-row arrays, one column per row,
    with the liveness rows ``alive`` first. The rows are the +
    partner of each pair, the - partner, then the singles. The loop
    advances a block of steps per round (``_BLOCK_STATES`` state values)
    with one normal vector per pair and per single and step
    (``_advance``), drawn ahead by ``_Lookahead``;
    ``update(i, block, *arrays)``
    gets the (b, rows, dim) states after steps i + 1 to i + b, finds with
    ``_commit`` how many steps k to keep, updates the arrays in place for
    those and returns ``_commit``'s (k, drop). The rest of the block's
    normals stay drawn for the next round. So every step sees the rows,
    the normals and the float operations of a loop that stepped one at a
    time. Once fewer than ``_LIVE_SHARE`` of the rows are live, the dead
    rows are dropped: the live row of a pair whose partner died goes on
    as a single (in pair order, after the singles), and a shard stops
    when no row is left.

    ``columns(*arrays)`` gives the value columns (columns, rows) of the
    rows it is passed: of the dead rows when they drop and of the rest
    at the end, each added to its unit's values. A unit's columns are its
    path count (2 for a pair, also after it lost a row, and 1 for the
    lone path) and its summed values. Returns the ``_Moments`` of the
    value-column ``blocks``: their ``_tally`` over the units in unit
    order, summed over the shards in shard order.
    """
    _, steps, decay, scale = _grid_params(tau, steps)
    parts = _shards(paths)
    seed = check_seed(seed)
    cuts, levels = zip(*(_shells(s, tau) for s in sets))
    dim = sets[0].dim

    def shard(part):
        index, c = part
        pairs, lone = divmod(c, 2)
        rng = derive_rng(seed, "exit", index)
        starts = rng.standard_normal((pairs + lone, dim))
        normals = _Lookahead(rng, max(_BLOCK_STATES, starts.size))
        inside, dist, arrays = start(starts)
        cell = _cell(inside, dist, cuts)
        # each row's unit: rows i and pairs + i are the partners of pair i
        unit = np.r_[0:pairs, 0:pairs + lone]
        states = starts[unit]
        arrays = [x[:, unit] for x in arrays]
        done = []  # (unit, values) of the rows that have finished

        def settle(rows):
            done.append((unit[rows],
                         columns(*(x.take(rows, 1) for x in arrays))))

        drop = _dropping(arrays[0].any(axis=0))
        i = 0
        while i < steps:
            if drop is not None:
                settle(np.flatnonzero(~drop))
                plus, minus = drop[:pairs], drop[pairs:2 * pairs]
                kept, alone = (np.flatnonzero(plus & minus),
                               np.flatnonzero(plus ^ minus))
                order = np.concatenate([
                    kept, pairs + kept, 2 * pairs + np.flatnonzero(
                        drop[2 * pairs:]),
                    np.where(plus[alone], alone, pairs + alone)])
                pairs = len(kept)
                states, unit = states[order], unit[order]
                arrays = [x.take(order, 1) for x in arrays]
                if not len(states):
                    break
            b = min(steps - i, max(1, _BLOCK_STATES // states.size))
            per_step = (len(states) - pairs) * dim  # a vector per unit
            z = normals.peek(b * per_step).reshape(b, -1, dim)
            block = _advance(states, z, pairs, decay, scale)
            del states  # frees the last round's block during the update
            k, drop = update(i, block, *arrays)
            normals.take(k * per_step)
            states = block[k - 1]
            i += k
        settle(np.arange(len(states)))
        # every row settles once, so a unit's rows count its paths
        units, values = (np.concatenate(x, axis=-1) for x in zip(*done))
        return _tally(cell, np.bincount(units),
                      np.stack([np.bincount(units, v) for v in values]),
                      _CELL ** len(sets))

    sums = cross = 0.0
    for s, q in fan_out(shard, parts):
        sums, cross = sums + s, cross + q
    return _Moments(int(paths), sums, cross, blocks, list(levels), seed)


def _runs(counts) -> list[int]:
    """Edges e_0 = 0 < e_1 < ... < e_G = len(counts) of the runs of
    consecutive shells, boundary first, that the estimate stratifies
    on, given each shell's start count. A run grows inwards until it
    holds ``_MIN_STARTS`` starts, so a sparse shell joins its inner
    neighbour; a sparse last run joins the one before it. The rule reads
    the counts only."""
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
    """An estimate read off a scan's cell moments: its value, and the
    weights (cells, columns) of its unit residual, which in cell c is
    weights[c] . [n, values] for a unit of n paths and summed values,
    and whose sum over the units, divided by the paths, is the
    estimate's error to first order. An exact value has weights None.
    Differences of estimates of one scan are ``_Linear`` too."""
    value: float
    weights: np.ndarray | None = None

    def __sub__(self, other: "_Linear") -> "_Linear":
        a, b = self.weights, other.weights
        return _Linear(self.value - other.value,
                       a if b is None else -b if a is None else a - b)


@dataclass(frozen=True, eq=False)
class _Moments:
    """The cell moments of a scan over ``paths`` paths: ``sums`` and
    ``cross`` of ``_tally`` over the scan's units, one row per start
    cell (``_cell``). Column 0 is each unit's path count, so sums[c, 0]
    counts the paths that start in cell c. The value columns, each
    unit's summed values, come in blocks of one column per scanned arm
    (a region or an (A_1, A_2) pair); ``blocks`` maps a block's name to
    its place, and two names may share one. Every value column is 0 for
    a unit that starts outside the arm's start set (A or A_1), and
    ``levels[arm]`` holds the ``_shells`` levels of that set. ``seed``
    is the scan's checked seed."""
    paths: int
    sums: np.ndarray
    cross: np.ndarray
    blocks: dict
    levels: list
    seed: int

    def column(self, block: str, arm: int) -> int:
        return 1 + self.blocks[block] * len(self.levels) + arm

    def plain(self, block: str, arm: int, scale: float = 1.0) -> _Linear:
        """``scale`` times the plain mean sum(v) / N of column (``block``,
        ``arm``), with residual V - n sum(v) / N on a unit of n paths and
        summed value V."""
        v = self.column(block, arm)
        w = np.zeros(self.sums.shape)
        q = self.sums[:, v].sum() / self.paths
        w[:, v], w[:, 0] = scale, -scale * q
        return _Linear(float(scale * q), w)

    def mean(self, block: str, arm: int, scale: float = 1.0) -> _Linear:
        """``scale`` times the mean of column (``block``, ``arm``),
        post-stratified on the shells of the arm's start set A, whose
        exact measures are the differences of its levels. Each run G of
        shells that ``_runs`` keeps (on path counts) gives mu_G q_G, with
        q_G = sum(v) / n_G over its n_G starting paths, and the residual
        (mu_G / m_G)(V - n q_G) on its units of n paths and summed value
        V, m_G = n_G / N; 0 with weights 0 when no path starts in A. A
        Monte Carlo measure (levels None) gives the ``plain`` mean."""
        levels = self.levels[arm]
        if levels is None:
            return self.plain(block, arm, scale)
        v = self.column(block, arm)
        w = np.zeros(self.sums.shape)
        # the arm's shell index in each cell, 0 outside its start set
        shell = np.arange(len(self.sums)) // _CELL ** arm % _CELL
        shells = len(levels) - 1
        count, total = (np.bincount(shell, self.sums[:, col], _CELL)[1:]
                        for col in (0, v))
        edges = _runs(count[:shells])
        value = 0.0
        for lo, hi in zip(edges, edges[1:]):
            inside = count[lo:hi].sum()
            if not inside:
                continue
            q = float(total[lo:hi].sum() / inside)
            mu = levels[lo] - levels[hi]
            f = scale * mu * self.paths / inside
            run = (shell > lo) & (shell <= hi)
            w[run, v], w[run, 0] = f, -f * q
            value += scale * mu * q
        return _Linear(float(value), w)

    def std_error(self, est: _Linear) -> float:
        """Standard error of ``est``: the root of the sum over the units
        of their squared residuals, divided by the paths, once the
        residuals' mean is taken out (it is 0 up to rounding, since each
        stratum's residuals sum to 0). The units are independent, so this
        is the SE clustered by unit."""
        w = est.weights
        if w is None:
            return 0.0
        mean = np.einsum("ci,ci->", w, self.sums) / self.paths
        square = np.einsum("ci,cij,cj->", w, self.cross, w) / self.paths
        return math.sqrt(max(square - mean * mean, 0.0) / self.paths)

    def estimate(self, est: _Linear) -> Estimate:
        if est.weights is None:
            return Estimate.exact(est.value, self.seed)
        return Estimate(value=est.value,
                        std_error=self.std_error(est), samples=self.paths,
                        seed=self.seed)


def _survival_scan(regions, tau, steps, paths, seed,
                   refine: int = 1) -> _Moments:
    """Shared-trajectory exit scan for one or two regions at once.

    Simulates at ``steps * refine`` resolution and monitors each region
    on the full fine grid and on the coarse subgrid (every
    ``refine``-th point, including t=0), two ways: the raw grid
    indicator and the bridge-corrected per-path survival weight
    (``_bridge_monitor``). ``refine`` must be an integer >= 1. Returns
    the ``_Moments`` of these blocks of per-path columns, one column per
    region:

    - "coarse" and "fine": the corrected weight on each grid;
    - "raw" and "raw_fine": the raw grid indicator on each grid.

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

    def start(states):
        # rows: each region on the fine grid, then on the coarse grid
        last = np.array([boundary_distance(reg, states)
                         for reg in regions] * min(refine, 2))
        alive = last >= 0.0
        return alive[:r], last[:r], [alive, np.ones_like(last), last]

    def update(i, block, alive, weight, last):
        b, cols, dim = block.shape
        pts = block.reshape(-1, dim)
        dist = [boundary_distance(reg, pts) for reg in regions]
        dist = (dist[0] if r == 1 else np.stack(dist)).reshape(r, b, cols)
        # block step j is grid step i + 1 + j; coarse where refine divides it
        coarse = (-1 - i) % refine
        inside = np.empty((len(alive), b, cols), dtype=bool)
        np.greater_equal(dist, 0.0, out=inside[:r])
        if refine > 1:  # coarse rows hold between coarse steps
            inside[r:] = True
            inside[r:, coarse::refine] = inside[:r, coarse::refine]
        k, drop = _commit(inside, alive)
        # fine rows at every step, coarse rows at the coarse steps
        grids = [(slice(0, r), slice(0, k), inv_fine)]
        if refine > 1 and coarse < k:
            grids.append((slice(r, None), slice(coarse, k, refine),
                          inv_coarse))
        for rows, sel, inv in grids:
            _bridge_monitor(weight[rows], last[rows], dist[:, sel],
                            inside[rows, sel], inv)
        alive[...] = inside[:, k - 1]
        return k, drop

    def columns(alive, weight, last):
        w = np.where(alive, weight, 0.0)
        parts = [w[-r:], alive[-r:]]
        if refine > 1:
            parts += [w[:r], alive[:r]]
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
    shells of s (``_scan``; see the module docstring).

    The paths run in antithetic pairs that share their start, so a pair
    takes one normal vector per step for two paths, and ``samples``
    counts paths. A pair whose one path has left goes on as one path
    with its partner's weight fixed at 0.
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
    standard error of its unit residuals (``_Moments.plain``), since the
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
    i-th of them off its moments m. So two scanned arms are paired by
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


def _occupation_scan(pairs, tau, steps, paths, seed) -> _Moments:
    """Per-path occupation step counts for one or two (A_1, A_2) pairs
    on shared trajectories: the ``_Moments`` of the block "count" (each
    path's step count), one column per pair, on the shells of each A_1.
    A path that has left every A_1 is dropped with its counts tallied.
    """
    def start(states):
        alive = np.array([contains(a1, states) for a1, _ in pairs])
        dist = [boundary_distance(a1, states) for a1, _ in pairs]
        return alive, dist, [alive, np.zeros(alive.shape, dtype=np.int64)]

    def update(i, block, alive, counts):
        b, cols, dim = block.shape
        pts = block.reshape(-1, dim)
        inside = np.empty((len(pairs), b, cols), dtype=bool)
        for idx, (a1, _) in enumerate(pairs):
            inside[idx] = contains(a1, pts).reshape(b, cols)
        k, drop = _commit(inside, alive)
        # a step counts if the path was inside A_1 before it and is in A_2
        for idx, (_, a2) in enumerate(pairs):
            hit = contains(a2, pts[:k * cols]).reshape(k, cols)
            hit[0] &= alive[idx]
            hit[1:] &= inside[idx, :k - 1]
            counts[idx] += hit.sum(axis=0)
        alive[...] = inside[:, k - 1]
        return k, drop

    def columns(alive, counts):
        return counts.astype(float)

    return _scan([a1 for a1, _ in pairs], tau, steps, paths, seed, start,
                 update, columns, {"count": 0})


def occupation(a1: SetExpr, a2: SetExpr, tau: float, steps: int, paths: int,
               seed: int) -> Estimate:
    """Time-discretized occupation: (tau/steps) * sum over grid times of
    the frequency of {inside A_1 strictly before, inside A_2 now}.

    Faithful to the raw functional: A_2 is not forced inside A_1, and
    there is no bridge correction. A path that starts outside A_1 counts
    0, and the scan post-stratifies the counts on the shells of A_1 as
    in ``exit_survival``; a path that has left A_1 keeps its count in
    its pair's sum.
    """
    m = _occupation_scan([(a1, a2)], tau, steps, paths, seed)
    return m.estimate(m.mean("count", 0, tau / steps))


def occupation_pair(pair_a, pair_b, tau, steps, paths, seed):
    """Occupation of two set pairs: exact for two half-spaces with one
    normal (``halfspace_occupation``), and the post-stratified grid scan
    of ``occupation`` for any other pair. Returns (estimate_a,
    estimate_b, paired_se) of ``_pair``, paired_se the SE of B minus A.
    """
    def exact(pair):
        a1, a2 = pair
        if (isinstance(a1, HalfSpace) and isinstance(a2, HalfSpace)
                and np.array_equal(a1.normal, a2.normal)):
            return halfspace_occupation(a1.offset, a2.offset, tau)
        return None

    return _pair((pair_a, pair_b), exact, _occupation_scan,
                 lambda m, arm: m.mean("count", arm, tau / steps),
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

