"""Experiment implementations behind the verifier CLI.

Each verification compares a Monte-Carlo estimate of a set-system
functional against its parallel-half-space bound and classifies the
margin in units of the combined standard error: ``holds`` (clearly
below the bound), ``equality_band`` (within three combined standard
errors, the expected outcome for parallel half-spaces), or ``violated``
(margin below minus three, which at valid configurations can only be a
statistical or discretization artifact). The equality diagnostic and the
gradient-bound check read the heat flow through ``_quantile_flows``.

The lhs of ``verify-main`` and ``noise-stability`` is
``joint_containment``, a mean over ``samples`` draws. Where the matrix
is one-factor, X_i = lambda_i W + sigma_i Z_i, a draw is one W (with a
Z_i for each composite set), and its value is the product of the exact
leaf flows given W and the composites' indicators: conditional Monte
Carlo on the common factor, whose SE is the SD of the values over
sqrt(samples). Every other matrix (the identity, ``ou-times`` at
k >= 3, any other ``explicit`` one) takes Kronecker draws and the
binomial SE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, ExperimentConfig, SamplingSpec
from .gaussian import CorrelationMatrix, inverse_offdiag_nonpositive, \
    ou_covariance, semigroup_slope, std_normal_pdf, std_normal_quantile
from .geometry import HalfSpace, SetExpr, SetSystem, UnsupportedRegion, \
    _flow_table, _project, contains, gaussian_measure, heat_flow, \
    parallel_halfspaces
from .jfunc import DERIV_HI, DERIV_LO, JQuery, hadamard_hessian, \
    hessian_top_eigenvalue, j_grad, j_value, kernel_diagnostic
from .orthant import Estimate
from .ousim import KroneckerSampler, exit_survival_pair, \
    halfspace_occupation, halfspace_survival, occupation_pair, \
    semigroup_apply
from .seeding import batches, check_seed, derive_rng, fan_out, subseed

# Verdict band: three combined standard errors with an absolute floor.
VERDICT_BAND_SES = 3.0
SE_FLOOR = 1e-6 / VERDICT_BAND_SES

HOLDS = "holds"
EQUALITY_BAND = "equality_band"
VIOLATED = "violated"

# How a violated verdict must be read at valid configurations.
VIOLATION_NOTE = ("statistical or discretization artifact -- "
                  "increase samples/steps")


@dataclass(frozen=True)
class ComparisonResult:
    """One verified inequality: lhs <= rhs up to statistical error."""
    name: str
    lhs: Estimate
    rhs: Estimate
    margin_se: float
    verdict: str


def classify_margin(margin_se: float) -> str:
    """Pure verdict rule: violated iff margin < -3 SEs, equality band iff
    |margin| <= 3 SEs, holds otherwise. A NaN margin has no verdict and
    raises ValueError."""
    if math.isnan(margin_se):
        raise ValueError("margin is NaN: no verdict")
    if margin_se < -VERDICT_BAND_SES:
        return VIOLATED
    if abs(margin_se) <= VERDICT_BAND_SES:
        return EQUALITY_BAND
    return HOLDS


def compare(name: str, lhs: Estimate, rhs: Estimate,
            paired_se: float | None = None) -> ComparisonResult:
    """Build a comparison; ``paired_se`` replaces the independent-error
    combination when the two sides share randomness."""
    if paired_se is not None:
        combined = paired_se
    else:
        combined = math.hypot(lhs.std_error, rhs.std_error)
    combined = max(combined, SE_FLOOR)
    margin = (rhs.value - lhs.value) / combined
    return ComparisonResult(name=name, lhs=lhs, rhs=rhs,
                            margin_se=float(margin),
                            verdict=classify_margin(margin))


def comparison_dict(c: ComparisonResult) -> dict:
    from .report import estimate_dict
    d = {"name": c.name, "lhs": estimate_dict(c.lhs),
         "rhs": estimate_dict(c.rhs), "margin_se": c.margin_se,
         "verdict": c.verdict}
    if c.verdict == VIOLATED:
        d["note"] = VIOLATION_NOTE
    return d


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

# Draws that joint_containment tests for containment at once, so that the
# temporaries of each pool thread stay the size of a block, not a batch.
_TEST_ROWS = 1 << 13


def joint_containment(sets: SetSystem, m: CorrelationMatrix, samples: int,
                      seed: int) -> Estimate:
    """Monte Carlo estimate of Pr(X_i in A_i for every i) on ``samples``
    draws, the X_i standard Gaussian n-vectors whose coordinates j have
    the correlation matrix M, independently across j.

    Where M is one-factor (``CorrelationMatrix.one_factor``), X_i =
    lambda_i W + sigma_i Z_i, and given W the X_i are independent. A draw
    then takes W and, for each composite set in set order, its own Z_i;
    its value is the product over leaves of the exact
    ``heat_flow(A_i, -ln|lambda_i|, sgn(lambda_i) W)`` times the product
    over composites of 1{lambda_i W + sigma_i Z_i in A_i}
    (``_conditional_containment``). Otherwise a draw is a Kronecker draw
    (``KroneckerSampler``) and its value the indicator of the event. The
    estimate is the mean value over the ``samples`` draws, its SE the SD
    of the values over sqrt(samples), which for indicators is the
    binomial SE. Conditioning keeps the draw count and cuts the SE
    (about 0.35-0.65x on the shipped systems). The batches
    run on the shared pool, each on its own stream keyed ("joint", b),
    and their sums are joined in batch order, so the estimate does not
    depend on the workers."""
    seed = check_seed(seed)
    loadings = m.one_factor()
    if loadings is not None:
        return _conditional_containment(sets, loadings, samples, seed)
    sampler = KroneckerSampler(m, sets.dim)

    def batch(part):
        b, c = part
        draws = sampler.sample(c, subseed(seed, "joint", b))
        hits = 0
        for start in range(0, c, _TEST_ROWS):
            block = draws[start:start + _TEST_ROWS]
            inside = np.ones(len(block), dtype=bool)
            for i, s in enumerate(sets.sets):
                inside &= contains(s, block[:, i, :])
            hits += int(inside.sum())
        return hits

    hits = sum(fan_out(batch, batches(samples)))
    return Estimate.binomial(hits, samples, seed)


def _conditional_containment(sets: SetSystem, loadings: np.ndarray,
                             samples: int, seed: int) -> Estimate:
    """``joint_containment`` given the common factor W, for one-factor
    loadings. Each batch draws its normals from the stream ("joint", b),
    one call per block of _TEST_ROWS draws: row by row, W then the Z_i of
    the composites in set order, so the numbers do not depend on the
    block size. Leaf flows come from ``geometry._flow_table`` (a table
    for balls) and are taken only where every composite holds."""
    leaves, composites = [], []
    for s, lam in zip(sets.sets, loadings):
        flow = _flow_table(s, -math.log(abs(lam)))
        if flow is None:
            composites.append((s, lam, math.sqrt(1.0 - lam * lam)))
        else:
            leaves.append((flow, lam < 0.0))
    n = sets.dim

    def batch(part):
        b, c = part
        rng = derive_rng(seed, "joint", b)
        rows = min(c, _TEST_ROWS)
        normals = np.empty((rows, 1 + len(composites), n))
        point = np.empty((rows, n))
        total = square = 0.0
        for start in range(0, c, _TEST_ROWS):
            r = min(rows, c - start)
            z = rng.standard_normal(out=normals[:r])
            w = z[:, 0]
            if composites:
                inside = np.ones(r, dtype=bool)
                for j, (s, lam, sigma) in enumerate(composites, 1):
                    x = np.multiply(w, lam, out=point[:r])
                    x += np.multiply(z[:, j], sigma, out=z[:, j])
                    inside &= contains(s, x)
                # a draw outside a composite has value 0 and adds nothing
                w = w[inside]
            value = np.ones(len(w))
            for flow, flip in leaves:
                value *= flow(np.negative(w) if flip else w)
            total += float(value.sum())
            square += float(value @ value)
        return total, square

    sums = fan_out(batch, batches(samples))
    mean = sum(t for t, _ in sums) / samples
    var = max(sum(q for _, q in sums) / samples - mean * mean, 0.0)
    return Estimate(value=mean, std_error=math.sqrt(var / samples),
                    samples=int(samples), seed=seed)


def _measures(sets, samples: int, seed: int) -> list[Estimate]:
    """The Gaussian measure of set i, on the sub-seed ("measure", i)."""
    return [gaussian_measure(s, samples, subseed(seed, "measure", i))
            for i, s in enumerate(sets)]


def stability_bound(sets: SetSystem, m: CorrelationMatrix, samples: int,
                    target_se: float, seed: int) -> Estimate:
    """The half-space bound J(measures; M), with measure noise propagated
    through the gradient to first order."""
    measures = _measures(sets.sets, samples, seed)
    x = np.array([mu.value for mu in measures])
    jq = JQuery(np.clip(x, 0.0, 1.0), m)
    est = j_value(jq, target_se, subseed(seed, "bound"))
    var = est.std_error ** 2
    cap_hit = est.cap_hit
    if any(mu.std_error > 0.0 for mu in measures):
        interior = JQuery(np.clip(x, DERIV_LO, DERIV_HI), m)
        for i, mu in enumerate(measures):
            if mu.std_error > 0.0:
                g = j_grad(interior, i, target_se, subseed(seed, "propag", i))
                var += (g.value * mu.std_error) ** 2
                cap_hit |= g.cap_hit
    return Estimate(value=est.value, std_error=math.sqrt(var),
                    samples=est.samples, seed=seed, cap_hit=cap_hit)


def _require_hypothesis(m: CorrelationMatrix):
    if not m.nonnegative:
        raise ConfigError(
            "correlation matrix has a negative entry; the half-space bound "
            "is only claimed for entrywise-nonnegative matrices")


def _joint_comparison(name: str, sets: SetSystem, m: CorrelationMatrix,
                      s: SamplingSpec) -> list[ComparisonResult]:
    """Joint containment of ``sets`` under M against the J bound."""
    return [compare(name, joint_containment(sets, m, s.samples, s.seed),
                    stability_bound(sets, m, s.samples, s.target_se, s.seed))]


def _matched_halfspaces(sets, measures) -> list[HalfSpace]:
    """Parallel half-spaces {x_1 <= c_i} with the given measures of the
    ``sets``. Half-spaces that share one normal are their own match and
    come back as they are, not as a copy rounded through
    Phi^{-1}(Phi(c))."""
    if all(isinstance(s, HalfSpace)
           and np.array_equal(s.normal, sets[0].normal) for s in sets):
        return list(sets)
    return parallel_halfspaces([mu.value for mu in measures],
                               np.eye(sets[0].dim)[0])


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def verify_main_inequality(cfg: ExperimentConfig) -> list[ComparisonResult]:
    """Joint containment under M against the J bound at the measures."""
    m = cfg.matrix.build()
    _require_hypothesis(m)
    if not cfg.sets:
        raise ConfigError("[sets]: verify-main needs one set per coordinate")
    sets = SetSystem(tuple(cfg.sets))
    if sets.k != m.k:
        raise ConfigError(f"[sets]: {sets.k} sets for a {m.k}-dimensional "
                          "matrix")
    return _joint_comparison("main-inequality", sets, m, cfg.sampling)


def verify_noise_stability(a1: SetExpr, a2: SetExpr, t: float,
                           cfg: ExperimentConfig) -> list[ComparisonResult]:
    """Two-set specialization at correlation e^{-t}."""
    if not float(t) > 0.0:
        raise ConfigError("[experiment] t: noise stability needs t > 0")
    rho = math.exp(-float(t))
    m = CorrelationMatrix.equicorrelated(2, rho)
    return _joint_comparison(f"noise-stability[t={t:g}]", SetSystem((a1, a2)),
                             m, cfg.sampling)


# Step of the central difference that takes dV/dc from an exact
# half-space value V; its O(step^2) error is far below any standard error.
OFFSET_STEP = 1e-3


def _offset_se(value_at, c: float, measure_se: float) -> float:
    """Standard error that a Monte Carlo measure mu passes to the exact
    value ``value_at(c)`` of a matched half-space at c = Phi^{-1}(mu), to
    first order: |dV/dc| se(mu) / phi(c). Exact measures pass none."""
    if measure_se == 0.0:
        return 0.0
    slope = (value_at(c + OFFSET_STEP)
             - value_at(c - OFFSET_STEP)) / (2.0 * OFFSET_STEP)
    return abs(slope) * measure_se / std_normal_pdf(c)


def verify_exit_dominance(a: SetExpr, taus, cfg: ExperimentConfig
                          ) -> list[ComparisonResult]:
    """Bridge-corrected survival of A against the exact survival of the
    matched half-space, per horizon. A Monte Carlo measure of A makes
    the matched offset noisy; that noise reaches the rhs standard error
    (``_offset_se``), and the margin combines both sides in quadrature.
    The horizons run one after another, each scan on every CPU. Every
    horizon's scan draws from the same shard streams ("exit", i) at the
    same seed, so the lhs errors of the horizons are correlated: each
    verdict stands alone, but they are not independent trials."""
    s = cfg.sampling
    (mu,) = _measures((a,), s.samples, s.seed)
    (b,) = _matched_halfspaces([a], [mu])

    def horizon(tau):
        lhs, rhs, _ = exit_survival_pair(a, b, tau, cfg.grid.steps, s.paths,
                                         s.seed)
        se = _offset_se(lambda c: halfspace_survival(c, tau), b.offset,
                        mu.std_error)
        return compare(f"exit-dominance[tau={tau:g}]", lhs,
                       replace(rhs, std_error=se))

    return [horizon(tau) for tau in taus]


def verify_occupation(a1: SetExpr, a2: SetExpr, taus,
                      cfg: ExperimentConfig) -> list[ComparisonResult]:
    """Scanned occupation of (A_1, A_2) against the exact occupation of
    the matched parallel half-spaces, per horizon, the horizons run one
    after another, each scan on every CPU. As in
    ``verify_exit_dominance``, every horizon's scan draws from the same
    shard streams ("exit", i) at the same seed, so the lhs errors of
    the horizons are correlated: each verdict stands alone, but they are
    not independent trials. Monte Carlo measures make the matched
    offsets noisy; that noise reaches the rhs standard error through
    each offset (``_offset_se``; the measures are independent), and the
    margin combines both sides in quadrature."""
    s = cfg.sampling
    mus = _measures((a1, a2), s.samples, s.seed)
    b1, b2 = _matched_halfspaces([a1, a2], mus)

    def horizon(tau):
        lhs, rhs, _ = occupation_pair((a1, a2), (b1, b2), tau,
                                      cfg.grid.steps, s.paths, s.seed)
        se = math.hypot(
            _offset_se(lambda c: halfspace_occupation(c, b2.offset, tau),
                       b1.offset, mus[0].std_error),
            _offset_se(lambda c: halfspace_occupation(b1.offset, c, tau),
                       b2.offset, mus[1].std_error))
        return compare(f"occupation[tau={tau:g}]", lhs,
                       replace(rhs, std_error=se))

    return [horizon(tau) for tau in taus]


EXACT_FLOW = "exact"
MONTE_CARLO_FLOW = "monte_carlo"
# The quantile transform maps flows 0 and 1 to -inf and inf.
FLOW_CLIP = 1e-9


def _quantile_flows(s: SetExpr, t: float, pts: np.ndarray, samples: int,
                    seed_of) -> tuple[np.ndarray, np.ndarray | None, str]:
    """w = Phi^{-1}(P_t 1_s) at each row of ``pts``, the flows, and
    ``exact`` or ``monte_carlo``. A half-space gives the exact linear
    w = (c - e^{-t} nu.x) / sigma and no flows (None); another leaf takes
    ``heat_flow``; a composite takes one ``semigroup_apply`` per point j
    on the stream ``seed_of(j)``, on the pool. Flows are clipped to
    [FLOW_CLIP, 1 - FLOW_CLIP] before the quantile."""
    if isinstance(s, HalfSpace):
        scale = math.sqrt(-math.expm1(-2.0 * t))
        w = (s.offset - math.exp(-t) * _project(s, pts)) / scale
        return w, None, EXACT_FLOW
    try:
        flows, kind = heat_flow(s, t, pts), EXACT_FLOW
    except UnsupportedRegion:
        flows = np.array(fan_out(
            lambda j: semigroup_apply(s, t, pts[j], samples,
                                      seed_of(j)).value, range(len(pts))))
        kind = MONTE_CARLO_FLOW
    w = std_normal_quantile(np.clip(flows, FLOW_CLIP, 1.0 - FLOW_CLIP))
    return w, flows, kind


def _in_band(flows: np.ndarray | None, count: int, lo: float, hi: float,
             least: int) -> np.ndarray:
    """The points whose flow lies in [lo, hi]; all ``count`` points where
    fewer than ``least`` do, or where the flow is a half-space's."""
    if flows is not None:
        keep = (flows >= lo) & (flows <= hi)
        if np.count_nonzero(keep) >= least:
            return keep
    return np.ones(count, dtype=bool)


def equality_diagnostic_run(sets: SetSystem, t: float,
                            cfg: ExperimentConfig) -> list[dict]:
    """Linearity diagnostic of the quantile-transformed heat flow.

    One row per set: fitted direction, offset, RMS nonlinearity residual,
    fitted slope magnitude and its ratio to the semigroup slope, the
    probes fitted and how many of them had a clipped flow, and how its
    heat flow was made (``flow``: ``exact`` for leaves, ``monte_carlo``
    for composites); then one row of pairwise cosines between directions.
    Parallel half-spaces give residuals near zero, aligned directions, and
    slope equal to the semigroup slope.
    """
    t = float(t)
    if not t > 0.0:
        raise ConfigError("[experiment] t: equality diagnostic needs t > 0")
    s = cfg.sampling
    n = sets.dim
    if s.probes < n + 2:
        raise ConfigError(f"[sampling] probes: {s.probes}, but the linear fit "
                          f"has {n + 1} coefficients in n = {n}, so its "
                          f"residual needs at least {n + 2} probes")
    for i, mu in enumerate(_measures(sets.sets, s.samples, s.seed)):
        if not 0.0 < mu.value < 1.0:
            raise ConfigError(f"[sets] a{i + 1}: measure must be interior "
                              "to (0, 1) for the diagnostic")
    probes = derive_rng(s.seed, "diagnostic").standard_normal((s.probes, n))
    kt = semigroup_slope(t)

    rows = []
    directions = []
    for i, a in enumerate(sets.sets):
        w, vals, flow = _quantile_flows(
            a, t, probes, s.samples, lambda j: subseed(s.seed, "flow", j))
        # the fit has n + 1 coefficients, so on fewer than n + 2 probes
        # its residual is 0 by construction
        keep = _in_band(vals, len(probes), 0.01, 0.99, n + 2)
        clipped = 0 if vals is None else int(np.count_nonzero(
            keep & ((vals < FLOW_CLIP) | (vals > 1.0 - FLOW_CLIP))))
        w, pts = w[keep], probes[keep]
        design = np.hstack([pts, np.ones((pts.shape[0], 1))])
        coef, *_ = np.linalg.lstsq(design, w, rcond=None)
        fit = design @ coef
        slope = float(np.linalg.norm(coef[:n]))
        directions.append(coef[:n])
        rows.append({
            "name": f"equality-diagnostic[a{i + 1}]",
            "direction": [float(v) for v in coef[:n]],
            "offset": float(coef[n]),
            "residual": math.sqrt(float(np.mean((w - fit) ** 2))),
            "slope": slope,
            "slope_over_kt": slope / kt,
            "probes_used": int(keep.sum()),
            "clipped": clipped,
            "flow": flow,
        })

    cosines = np.eye(sets.k)
    for i in range(sets.k):
        for j in range(i + 1, sets.k):
            ni, nj = np.linalg.norm(directions[i]), np.linalg.norm(directions[j])
            c = float(directions[i] @ directions[j] / (ni * nj)) \
                if ni > 0 and nj > 0 else 0.0
            cosines[i, j] = cosines[j, i] = c
    rows.append({
        "name": "equality-diagnostic[cosines]",
        "cosines": [[float(v) for v in row] for row in cosines],
    })
    return rows


@dataclass(frozen=True)
class GradientBoundResult:
    """Max over probes of |grad quantile-transformed heat flow| divided
    by the semigroup slope; the bound predicts <= 1, with equality on
    half-spaces."""
    max_ratio: float
    ratios: tuple[float, ...]
    probes_used: int


def gradient_bound_check(s: SetExpr, t: float, probe_points: int, seed: int,
                         samples: int = 400_000) -> GradientBoundResult:
    """Central-difference check of the gradient bound at Gaussian probes.

    Flows come from ``_quantile_flows``, with the whole stencil of a
    probe on that probe's stream; exact flows take step 1e-3, Monte
    Carlo ones 0.05. Probes whose flow lies outside [0.02, 0.98], where
    the quantile transform amplifies noise, are skipped unless all are;
    half-spaces keep every probe.
    """
    kt = semigroup_slope(t)  # raises ValueError unless t > 0
    t, seed, n = float(t), check_seed(seed), s.dim
    probes = derive_rng(seed, "probes").standard_normal((int(probe_points), n))
    _, vals, kind = _quantile_flows(
        s, t, probes, samples, lambda i: subseed(seed, "probe", i))
    idx = np.flatnonzero(_in_band(vals, len(probes), 0.02, 0.98, 1))
    h = 1e-3 if kind == EXACT_FLOW else 0.05
    # rows (i, 0, d) and (i, 1, d) of the stencil: probe i +- h e_d
    step = h * np.eye(n)
    stencil = probes[idx, None, None, :] + np.stack([step, -step])
    w, _, _ = _quantile_flows(
        s, t, stencil.reshape(-1, n), samples,
        lambda j: subseed(seed, "probe", idx[j // (2 * n)]))
    ratios = [float(np.linalg.norm((wp - wm) / (2 * h)) / kt)
              for wp, wm in w.reshape(len(idx), 2, n)]
    return GradientBoundResult(max_ratio=max(ratios, default=float("nan")),
                               ratios=tuple(ratios), probes_used=len(idx))


def hessian_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Rows of (x, matrix, top eigenvalue of the weighted Hessian, SE,
    whether any QMC run behind the row stopped on its cap)."""
    s = cfg.sampling
    if cfg.sweep.random_x < 0:
        raise ConfigError(f"[sweep] random_x: {cfg.sweep.random_x} is negative")
    if cfg.sweep.rhos and cfg.matrix.kind != "equicorrelated":
        raise ConfigError(f"[sweep] rhos: needs [matrix] type = "
                          f"equicorrelated, not {cfg.matrix.kind}")
    matrices = []
    if cfg.sweep.rhos:
        for rho in cfg.sweep.rhos:
            matrices.append((f"equicorrelated(k={cfg.matrix.k}, rho={rho:g})",
                             replace(cfg.matrix, rho=rho).build()))
    else:
        m = cfg.matrix.build()
        matrices.append((cfg.matrix.kind, m))
    for _, m in matrices:
        _require_hypothesis(m)
        if not m.is_strictly_pd():
            raise ConfigError("[matrix]: sweep needs strictly PD matrices")

    rows = []
    for label, m in matrices:
        if cfg.sweep.random_x > 0:
            rng = derive_rng(s.seed, "sweep-x", m.k)
            xs = rng.uniform(0.05, 0.95, size=(cfg.sweep.random_x, m.k))
        else:
            axes = np.meshgrid(*([np.asarray(cfg.sweep.x_axis)] * m.k),
                               indexing="ij")
            xs = np.stack([a.ravel() for a in axes], axis=1)
        for idx, x in enumerate(xs):
            ev = hadamard_hessian(JQuery(x, m), s.target_se,
                                  subseed(s.seed, "sweep", idx))
            lam, lam_se = hessian_top_eigenvalue(ev)
            diag = kernel_diagnostic(ev)
            rows.append({
                "name": f"hessian[{label}][{idx}]",
                "x": [float(v) for v in x],
                "matrix": label,
                "max_eigenvalue": lam,
                "se": lam_se,
                "kernel_alignment": diag.kernel_alignment
                if diag.applicable else None,
                "cap_hit": ev.cap_hit,
            })
    return rows


_WITNESS_ENTRYWISE_ONLY = [[1.0, 0.7, 0.7], [0.7, 1.0, 0.0], [0.7, 0.0, 1.0]]


def condition_check(cfg: ExperimentConfig) -> list[dict]:
    """Compare the two positivity hypotheses on random time-grid
    covariances, plus the explicit witness separating them.

    Exponential-decay grids satisfy both. The witness satisfies the
    entrywise condition but not the inverse condition. Its row's note
    says that no reverse witness is attempted, because none exists: a
    strictly PD matrix whose inverse has nonpositive off-diagonals is
    the inverse of a nonsingular M-matrix (a Stieltjes matrix), and
    such an inverse is entrywise nonnegative (Berman & Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, 1994, ch. 6).
    The rows only report.
    """
    w = cfg.sweep
    if w.k_max < 2:
        raise ConfigError(f"[sweep] k_max: {w.k_max}, but a time grid needs "
                          "at least 2 times")
    if w.grids < 0:
        raise ConfigError(f"[sweep] grids: {w.grids} is negative")
    rng = derive_rng(cfg.sampling.seed, "condition")
    rows = []
    for g in range(w.grids):
        k = int(rng.integers(2, w.k_max + 1))
        times = np.cumsum(rng.uniform(0.05, 1.0, size=k))
        times[0] = 0.0
        m = ou_covariance(times)
        rows.append({
            "name": f"condition[grid-{g}]",
            "times": [float(t) for t in times],
            "entrywise_nonnegative": bool(m.nonnegative),
            "inverse_offdiag_nonpositive": bool(inverse_offdiag_nonpositive(m)),
        })
    witness = CorrelationMatrix(np.array(_WITNESS_ENTRYWISE_ONLY))
    rows.append({
        "name": "condition[witness]",
        "rows": _WITNESS_ENTRYWISE_ONLY,
        "entrywise_nonnegative": bool(witness.nonnegative),
        "inverse_offdiag_nonpositive": bool(inverse_offdiag_nonpositive(witness)),
        # none can exist (see the docstring); the report keeps this text
        "note": "entrywise condition holds, inverse condition fails; "
                "no reverse witness is attempted",
    })
    return rows


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentOutput:
    results: list[dict]
    csv_columns: list[str]
    csv_rows: list[list]
    comparisons: list[ComparisonResult]


def _comparisons_output(comparisons: list[ComparisonResult]) -> ExperimentOutput:
    results = [comparison_dict(c) for c in comparisons]
    columns = ["name", "lhs", "lhs_se", "rhs", "rhs_se", "margin_se",
               "verdict"]
    rows = [[c.name, c.lhs.value, c.lhs.std_error, c.rhs.value,
             c.rhs.std_error, c.margin_se, c.verdict] for c in comparisons]
    return ExperimentOutput(results, columns, rows, comparisons)


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    kind = cfg.kind
    if kind == "verify-main":
        return _comparisons_output(verify_main_inequality(cfg))
    if kind == "noise-stability":
        if len(cfg.sets) != 2:
            raise ConfigError("[sets]: noise-stability needs exactly a1, a2")
        return _comparisons_output(
            verify_noise_stability(cfg.sets[0], cfg.sets[1], cfg.t, cfg))
    if kind == "exit-time":
        if len(cfg.sets) != 1:
            raise ConfigError("[sets]: exit-time needs exactly a1")
        comps = verify_exit_dominance(cfg.sets[0], cfg.grid.taus, cfg)
        out = _comparisons_output(comps)
        columns = ["tau", "survival_lhs", "survival_rhs", "lhs_se", "rhs_se",
                   "margin_se", "verdict"]
        rows = [[tau, c.lhs.value, c.rhs.value, c.lhs.std_error,
                 c.rhs.std_error, c.margin_se, c.verdict]
                for tau, c in zip(cfg.grid.taus, comps)]
        return ExperimentOutput(out.results, columns, rows, comps)
    if kind == "occupation":
        if len(cfg.sets) != 2:
            raise ConfigError("[sets]: occupation needs exactly a1, a2")
        comps = verify_occupation(cfg.sets[0], cfg.sets[1], cfg.grid.taus,
                                  cfg)
        return _comparisons_output(comps)
    if kind == "hessian-sweep":
        rows = hessian_sweep(cfg)
        columns = ["name", "x", "max_eigenvalue", "se", "cap_hit"]
        csv_rows = [[r["name"], ";".join(f"{v:.17g}" for v in r["x"])]
                    + [r[c] for c in columns[2:]] for r in rows]
        return ExperimentOutput(rows, columns, csv_rows, [])
    if kind == "equality-diagnostic":
        if not cfg.sets:
            raise ConfigError("[sets]: equality-diagnostic needs at least a1")
        results = equality_diagnostic_run(SetSystem(tuple(cfg.sets)), cfg.t,
                                          cfg)
        columns = ["name", "residual", "slope", "slope_over_kt"]
        csv_rows = [[r["name"], r["residual"], r["slope"], r["slope_over_kt"]]
                    for r in results if "residual" in r]
        return ExperimentOutput(results, columns, csv_rows, [])
    if kind == "condition-check":
        rows = condition_check(cfg)
        columns = ["name", "entrywise_nonnegative",
                   "inverse_offdiag_nonpositive"]
        csv_rows = [[r["name"], r["entrywise_nonnegative"],
                     r["inverse_offdiag_nonpositive"]] for r in rows]
        return ExperimentOutput(rows, columns, csv_rows, [])
    raise ConfigError(f"[experiment] kind: unknown experiment {kind!r}")


def exit_code_for(comparisons: list[ComparisonResult]) -> int:
    """0 when every verdict holds or sits in the equality band, 2 when
    any comparison is violated."""
    return 2 if any(c.verdict == VIOLATED for c in comparisons) else 0
