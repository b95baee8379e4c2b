"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
pinned here; nothing is deferred to later calibration.
"""
import json
import math
import time

import numpy as np
import pytest

import fdcheck
import noisestab.cli as cli
from conftest import random_interior_x, random_nonneg_correlation
from noisestab import (
    Ball,
    CorrelationMatrix,
    AxisBox,
    HalfSpace,
    JQuery,
    SetSystem,
    Union,
    compare,
    gradient_bound_check,
    hadamard_hessian,
    heat_flow,
    hessian_top_eigenvalue,
    inverse_offdiag_nonpositive,
    j_grad,
    j_value,
    joint_containment,
    kernel_diagnostic,
    laplacian_quadratic_form,
    occupation_pair,
    ou_covariance,
    parallel_halfspaces,
    semigroup_apply,
    stability_bound,
)
from noisestab.ousim import exit_dominance_refined
from noisestab.report import report_fingerprint
from noisestab.verify import EQUALITY_BAND, VIOLATED

HALF_BALL = Ball(np.zeros(2), math.sqrt(2.0 * math.log(2.0)))
HS0 = HalfSpace(np.array([1.0, 0.0]), 0.0)


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)


def test_criterion_1_bivariate_exactness():
    start = time.perf_counter()
    est = j_value(JQuery([0.5, 0.5], CorrelationMatrix.equicorrelated(2, 0.5)),
                  1e-5, 101)
    elapsed = time.perf_counter() - start
    err = abs(est.value - 1.0 / 3.0)
    tol = max(3 * est.std_error, 1e-4)
    ok = err <= tol and elapsed < 1.0
    _criterion(1, "bivariate exactness against the arcsine value", ok,
               f"err={err:.2e} tol={tol:.2e} runtime={elapsed:.3f}s")
    assert ok


def test_criterion_2_derivative_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    failures = []
    for trial in range(20):
        k = 2 + trial % 3
        m = random_nonneg_correlation(rng, k)
        x = random_interior_x(rng, k)
        q = JQuery(x, m)
        for i in range(k):
            cf = j_grad(q, i, 1e-5, 1000 + 10 * trial + i)
            fd, fd_se = fdcheck.fd_grad(x, m, i, 5000 + 10 * trial + i)
            if not fdcheck.agrees(cf.value, cf.std_error, fd, fd_se):
                failures.append(("grad", trial, i, cf.value, fd))
        # every second derivative is read off the one evaluation that
        # the Hessian sweep reports
        ev = hadamard_hessian(q, 1e-5, 2000 + trial)
        for i in range(k):
            for j in range(i + 1, k):
                cf, cf_se = fdcheck.second_derivative(ev, i, j)
                fd, fd_se = fdcheck.fd_mixed(x, m, i, j,
                                             6000 + 100 * trial + 10 * i + j)
                if not fdcheck.agrees(cf, cf_se, fd, fd_se):
                    failures.append(("mixed", trial, (i, j), cf, fd))
        for i in range(k):
            cf, cf_se = fdcheck.second_derivative(ev, i, i)
            fd, fd_se = fdcheck.fd_diag(x, m, i, 7000 + 10 * trial + i)
            if not fdcheck.agrees(cf, cf_se, fd, fd_se):
                failures.append(("diag", trial, i, cf, fd))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _criterion(2, "derivative fidelity vs central finite differences "
                  "(20 instances, k <= 4, rel 1e-3 + 3 SE)", ok,
               f"failures={len(failures)} runtime={elapsed:.1f}s")
    assert ok, failures


@pytest.fixture(scope="module")
def hessian_corpus():
    """Evaluations shared by criteria 3 and 4: 100 random (x, M) with
    nonnegative entries and k <= 4, plus the full k=2 grid over
    x, rho in {0.1, ..., 0.9}."""
    rng = np.random.default_rng(303)
    evals = []
    for trial in range(100):
        k = 2 + trial % 3
        m = random_nonneg_correlation(rng, k)
        x = random_interior_x(rng, k, lo=0.1, hi=0.9, min_gap=0.0)
        evals.append(hadamard_hessian(JQuery(x, m), 1e-4, 40_000 + trial))
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    for gi, rho in enumerate(grid):
        m = CorrelationMatrix.equicorrelated(2, rho)
        for xi, x1 in enumerate(grid):
            for xj, x2 in enumerate(grid):
                evals.append(hadamard_hessian(
                    JQuery([x1, x2], m), 1e-4,
                    50_000 + 100 * gi + 10 * xi + xj))
    return evals


def test_criterion_3_hessian_negativity_sweep(hessian_corpus):
    start = time.perf_counter()
    worst = -np.inf
    ok = True
    for ev in hessian_corpus:
        lam, lam_se = hessian_top_eigenvalue(ev)
        worst = max(worst, lam - 3 * lam_se)
        if lam > 1e-6 + 3 * lam_se:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _criterion(3, "weighted-Hessian negativity over 100 random (x, M) "
                  "plus the 729-point k=2 grid", ok,
               f"instances={len(hessian_corpus)} "
               f"worst(lam-3se)={worst:.2e} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_4_coupling_matrix_structure(hessian_corpus):
    rng = np.random.default_rng(404)
    ok = True
    detail = ""
    for ev in hessian_corpus:
        k = ev.a_matrix.shape[0]
        v = rng.standard_normal(k)
        dense = float(v @ ev.a_matrix @ v)
        if abs(laplacian_quadratic_form(ev.a_matrix, v) - dense) > 1e-8:
            ok, detail = False, "pair-form mismatch"
            break
        for i in range(k):
            off = np.sum(np.delete(ev.a_matrix[i], i))
            if ev.a_matrix[i, i] + off != 0.0:
                ok, detail = False, "row sum not exactly zero"
                break
        offdiag = ev.a_matrix[~np.eye(k, dtype=bool)]
        if np.all(offdiag > 0.0):
            diag = kernel_diagnostic(ev)
            if not diag.applicable or diag.kernel_alignment < 1.0 - 1e-6:
                ok, detail = False, "kernel misaligned"
                break
        if not ok:
            break
    _criterion(4, "coupling-matrix structure: pair quadratic form, exact "
                  "zero row sums, all-ones kernel alignment", ok, detail)
    assert ok, detail


def _random_set(rng, n):
    kind = rng.integers(3)
    if kind == 0:
        return Ball(rng.uniform(-0.5, 0.5, n), float(rng.uniform(0.9, 1.8)))
    if kind == 1:
        lo = rng.uniform(-2.5, -0.5, n)
        return AxisBox(lo, lo + rng.uniform(1.5, 4.0, n))
    return Union((Ball(rng.uniform(-1.5, -0.3, n), float(rng.uniform(0.7, 1.2))),
                  Ball(rng.uniform(0.3, 1.5, n), float(rng.uniform(0.7, 1.2)))))


def test_criterion_5_joint_containment_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    samples = 1_000_000
    verdicts = []
    for trial in range(10):
        k = 2 + trial % 2
        n = 2 + (trial // 2) % 2
        if trial % 2:
            times = np.concatenate([[0.0],
                                    np.cumsum(rng.uniform(0.2, 0.8, k - 1))])
            m = ou_covariance(times)
        else:
            m = CorrelationMatrix.equicorrelated(k, float(rng.uniform(0.1, 0.8)))
        system = SetSystem(tuple(_random_set(rng, n) for _ in range(k)))
        lhs = joint_containment(system, m, samples, 60_000 + trial)
        rhs = stability_bound(system, m, samples, 1e-4, 61_000 + trial)
        verdicts.append(compare(f"system-{trial}", lhs, rhs).verdict)
    # parallel half-spaces must land in the equality band
    m = CorrelationMatrix.equicorrelated(2, 0.5)
    system = SetSystem(tuple(parallel_halfspaces([0.4, 0.65],
                                                 np.array([1.0, 0.0]))))
    lhs = joint_containment(system, m, samples, 62_000)
    rhs = stability_bound(system, m, samples, 1e-4, 62_001)
    parallel_verdict = compare("parallel", lhs, rhs).verdict
    elapsed = time.perf_counter() - start
    ok = (VIOLATED not in verdicts
          and parallel_verdict == EQUALITY_BAND
          and elapsed < 600.0)
    _criterion(5, "joint containment below the half-space bound on 10 "
                  "random systems; equality band for parallel half-spaces",
               ok, f"verdicts={verdicts} parallel={parallel_verdict} "
                   f"runtime={elapsed:.1f}s")
    assert ok


def test_criterion_6_exit_time_dominance():
    start = time.perf_counter()
    taus = [round(0.1 * i, 1) for i in range(1, 11)]
    steps, paths = 512, 100_000
    dominance_ok = True
    refinement_ok = True
    margins = []
    changes = []
    for tau in taus:
        r = exit_dominance_refined(HALF_BALL, HS0, tau, steps, paths, 606)
        margin_se = (r.est_b.value - r.est_a.value) / \
            max(r.paired_se, 1e-12)
        margins.append(round(margin_se, 1))
        if margin_se < -3.0:
            dominance_ok = False
        ca = r.change_a / max(r.est_a.std_error, 1e-12)
        cb = r.change_b / max(r.est_b.std_error, 1e-12)
        changes.append((round(ca, 2), round(cb, 2)))
        if ca >= 1.0 or cb >= 1.0:
            refinement_ok = False
    elapsed = time.perf_counter() - start
    ok = dominance_ok and refinement_ok and elapsed < 300.0
    _criterion(6, "exit-time dominance (ball vs half-space, 10 horizons, "
                  "CRN) and grid-doubling stability under 1 SE", ok,
               f"dominance={'ok' if dominance_ok else 'VIOLATED'} "
               f"margin_ses={margins} refinement_changes_in_se={changes} "
               f"runtime={elapsed:.1f}s")
    assert dominance_ok, f"dominance margins (in paired SEs): {margins}"
    # The raw grid monitor's bias falls like sqrt(step size) and moves
    # by 1-4 SEs under doubling at 512 steps; the bridge-corrected
    # survival is exact for the half-space arm and O(step) for the
    # ball, so doubling moves each arm by a fraction of an SE.
    assert refinement_ok, (
        f"per-arm refinement changes in estimate SEs: {changes}")


def test_criterion_7_occupation_bound():
    start = time.perf_counter()
    steps, paths, tau = 512, 100_000, 0.5
    a1 = Ball(np.zeros(2), math.sqrt(-2.0 * math.log(0.4)))  # measure 0.6
    a2 = Ball(np.zeros(2), math.sqrt(-2.0 * math.log(0.7)))  # measure 0.3
    b1, b2 = parallel_halfspaces([0.6, 0.3], np.array([1.0, 0.0]))
    occ_a, occ_b, paired = occupation_pair((a1, a2), (b1, b2), tau, steps,
                                           paths, 707)
    ball_comp = compare("balls", occ_a, occ_b,
                        paired_se=max(paired, 0.0))
    occ_pa, occ_pb, paired_p = occupation_pair((b1, b2), (b1, b2), tau,
                                               steps, paths, 708)
    par_comp = compare("parallel", occ_pa, occ_pb,
                       paired_se=max(paired_p, 0.0))
    elapsed = time.perf_counter() - start
    ok = (ball_comp.verdict == "holds"
          and par_comp.verdict == EQUALITY_BAND
          and elapsed < 300.0)
    _criterion(7, "occupation-time bound for concentric balls; equality "
                  "band for parallel half-spaces", ok,
               f"balls={ball_comp.verdict} (margin {ball_comp.margin_se:.1f} "
               f"SE) parallel={par_comp.verdict} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_8_semigroup_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    hs = HalfSpace(np.array([0.6, 0.8]), 0.3)
    closed_ok = True
    for trial in range(10):
        x = rng.standard_normal(2)
        t = float(rng.uniform(0.1, 2.0))
        mc = semigroup_apply(hs, t, x, 200_000, 80_000 + trial)
        exact = heat_flow(hs, t, x)
        if abs(mc.value - exact) > 3 * max(mc.std_error, 1e-6):
            closed_ok = False
    ghs = gradient_bound_check(HS0, 0.5, 8, 909)
    gball = gradient_bound_check(HALF_BALL, 0.5, 8, 910, samples=400_000)
    elapsed = time.perf_counter() - start
    ok = (closed_ok and abs(ghs.max_ratio - 1.0) <= 0.02
          and gball.max_ratio <= 1.02 and elapsed < 300.0)
    _criterion(8, "semigroup closed form on half-spaces and the gradient "
                  "bound (ratio 1 +- 0.02 half-space, <= 1.02 ball)", ok,
               f"halfspace_ratio={ghs.max_ratio:.4f} "
               f"ball_ratio={gball.max_ratio:.4f} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_9_hypothesis_comparison():
    rng = np.random.default_rng(909)
    grids_ok = True
    for _ in range(20):
        k = int(rng.integers(2, 6))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0,
                                                             k - 1))])
        m = ou_covariance(times)
        if not (m.nonnegative and inverse_offdiag_nonpositive(m)):
            grids_ok = False
    witness = CorrelationMatrix([[1.0, 0.7, 0.7],
                                 [0.7, 1.0, 0.0],
                                 [0.7, 0.0, 1.0]])
    witness_ok = witness.nonnegative and \
        not inverse_offdiag_nonpositive(witness)
    ok = grids_ok and witness_ok
    _criterion(9, "time-grid covariances satisfy both positivity "
                  "hypotheses; the explicit witness separates them", ok)
    assert ok


SUITE_DOCS = {
    "verify-main": """
[experiment]
kind = verify-main
[matrix]
type = equicorrelated
k = 2
rho = 0.5
[sets]
a1 = halfspace([1, 0], 0.0)
a2 = ball([0, 0], 1.1774100225154747)
[sampling]
samples = 50000
seed = 31
target_se = 0.0005
""",
    "noise-stability": """
[experiment]
kind = noise-stability
t = 0.5
[sets]
a1 = halfspace([1, 0], 0.0)
a2 = halfspace([1, 0], 0.2)
[sampling]
samples = 50000
seed = 32
target_se = 0.0005
""",
    "exit-time": """
[experiment]
kind = exit-time
[sets]
a1 = ball([0, 0], 1.1774100225154747)
[sampling]
samples = 20000
paths = 5000
seed = 33
[grid]
taus = 0.2, 0.5
steps = 64
""",
    "occupation": """
[experiment]
kind = occupation
[sets]
a1 = ball([0, 0], 1.353728726055671)
a2 = ball([0, 0], 0.8446004309005916)
[sampling]
samples = 20000
paths = 5000
seed = 34
[grid]
taus = 0.5
steps = 64
""",
    "hessian-sweep": """
[experiment]
kind = hessian-sweep
[matrix]
type = equicorrelated
k = 2
rho = 0.5
[sweep]
x = 0.25, 0.5, 0.75
[sampling]
seed = 35
target_se = 0.0005
""",
    "equality-diagnostic": """
[experiment]
kind = equality-diagnostic
t = 0.5
[sets]
a1 = halfspace([1, 0], 0.0)
a2 = halfspace([1, 0], 0.4)
[sampling]
probes = 32
samples = 20000
seed = 36
""",
    "condition-check": """
[experiment]
kind = condition-check
[sampling]
seed = 37
[sweep]
grids = 5
""",
}


def test_criterion_10_reproducibility(tmp_path):
    start = time.perf_counter()
    ok = True
    detail = []
    for kind, doc in SUITE_DOCS.items():
        cfg_path = tmp_path / f"{kind}.cfg"
        cfg_path.write_text(doc)
        out = tmp_path / f"{kind}.json"
        prints = []
        for _ in range(2):
            code = cli.cli_main([kind, "--config", str(cfg_path), "--quiet",
                                 "--out", str(out)])
            if code != 0:
                ok = False
                detail.append(f"{kind}: exit {code}")
                break
            prints.append(report_fingerprint(json.loads(out.read_text())))
        if len(prints) == 2 and prints[0] != prints[1]:
            ok = False
            detail.append(f"{kind}: fingerprints differ")
    elapsed = time.perf_counter() - start
    _criterion(10, "byte-identical reports across repeated runs of the "
                   "full experiment suite (volatile timing fields "
                   "excluded)", ok,
               f"{'; '.join(detail) if detail else 'all 7 experiments'} "
               f"runtime={elapsed:.1f}s")
    assert ok, detail
