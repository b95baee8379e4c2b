"""The benchmark's workloads: the INI configs each one generates from its
seed, and the checks that every CLI report must pass.

Only sampling seeds come from the workload seed. The sets, matrices,
horizons and sizes stay fixed, so every seed asks for the same amount of
work and runs of different seeds can be compared.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from noisestab.gaussian import CorrelationMatrix
from noisestab.jfunc import JQuery, j_value
from noisestab.report import report_fingerprint


def _ball_radius(mu: float) -> float:
    """Radius of the centred 2-d ball of standard Gaussian measure mu."""
    return math.sqrt(-2.0 * math.log1p(-mu))


EXIT_TAUS = (0.1, 1.0)
OCC_TAU = 0.5
STEPS = 512
EXIT_PATHS = 25_000
OCC_PATHS = 25_000
SWEEP_RHOS = (0.2, 0.5, 0.8)
SWEEP_RANDOM_X = 4
SWEEP_K = 3
TARGET_SE = 1e-4
MC_SAMPLES = 1_000_000
DIAG_PROBES = 200
DIAG_SAMPLES = 100_000

# A Hessian eigenvalue above 3 SEs plus this floor fails; the headline
# eigenvalue is zero up to rounding (about 1e-16).
EIGEN_FLOOR = 1e-8
# J((1/2,1/2,1/2); equicorrelated rho) = 1/8 + 3 asin(rho)/(4 pi).
# The adaptive QMC under-states its SE a little when it stops, so its
# errors have heavy tails: over 1200 seeds the largest was 6.8 SEs.
J_CHECK_SES = 8.0
# equality-diagnostic: half-space rows are exactly linear.
LINEAR_TOL = 1e-9


def sub_seed(seed: int, *key) -> int:
    """A sampling seed in [1, 2**63) for one call of a workload seed.

    Never 0, which the program would replace by $NOISESTAB_SEED."""
    text = ":".join(str(k) for k in (seed,) + key)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63 - 1) + 1


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``noisestab <kind> --config <name>.cfg``."""
    name: str
    kind: str
    config: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable[[int], list[Call]]
    check: Callable[[Call, dict], list[str]]
    # Reference SE for time_to_se_s.
    se_ref: float
    extra_ops: Callable[[int], list[tuple[str, Callable[[], list[str]]]]] = \
        lambda seed: []


# ---------------------------------------------------------------------------
# ou-scan
# ---------------------------------------------------------------------------

def _ou_calls(seed: int) -> list[Call]:
    exit_cfg = f"""[experiment]
kind = exit-time
n = 2

[sets]
a1 = ball([0, 0], {_ball_radius(0.5)!r})

[sampling]
paths = {EXIT_PATHS}
seed = {sub_seed(seed, "ou-scan", "exit-time")}

[grid]
taus = {", ".join(repr(t) for t in EXIT_TAUS)}
steps = {STEPS}
"""
    occ_cfg = f"""[experiment]
kind = occupation
n = 2

[sets]
a1 = ball([0, 0], {_ball_radius(0.6)!r})
a2 = ball([0, 0], {_ball_radius(0.3)!r})

[sampling]
paths = {OCC_PATHS}
seed = {sub_seed(seed, "ou-scan", "occupation")}

[grid]
taus = {OCC_TAU!r}
steps = {STEPS}
"""
    return [Call("exit-time", "exit-time", exit_cfg),
            Call("occupation", "occupation", occ_cfg)]


def _check_ou(call: Call, report: dict) -> list[str]:
    problems = []
    results = report["results"]
    if call.kind == "exit-time":
        if len(results) != len(EXIT_TAUS):
            return [f"{len(results)} results for {len(EXIT_TAUS)} horizons"]
        for arm in ("lhs", "rhs"):
            surv = [r[arm]["value"] for r in results]
            if not all(0.0 <= s <= 1.0 for s in surv):
                problems.append(f"{arm} survival outside [0, 1]: {surv}")
            if not surv[-1] < surv[0]:
                problems.append(f"{arm} survival does not fall with the "
                                f"horizon: {surv}")
    else:
        for r in results:
            for arm in ("lhs", "rhs"):
                if not 0.0 <= r[arm]["value"] <= OCC_TAU:
                    problems.append(f"{arm} occupation outside "
                                    f"[0, {OCC_TAU}]: {r[arm]['value']}")
    return problems


# ---------------------------------------------------------------------------
# mc-sets
# ---------------------------------------------------------------------------

def _sweep_call(seed: int) -> Call:
    cfg = f"""[experiment]
kind = hessian-sweep

[matrix]
type = equicorrelated
k = {SWEEP_K}
rho = {SWEEP_RHOS[0]!r}

[sweep]
random_x = {SWEEP_RANDOM_X}
rhos = {", ".join(repr(r) for r in SWEEP_RHOS)}

[sampling]
seed = {sub_seed(seed, "mc-sets", "hessian-sweep")}
target_se = {TARGET_SE!r}
"""
    return Call("hessian-sweep", "hessian-sweep", cfg)


def _check_sweep(report: dict) -> list[str]:
    rows = report["results"]
    want = len(SWEEP_RHOS) * SWEEP_RANDOM_X
    if len(rows) != want:
        return [f"{len(rows)} sweep rows, expected {want}"]
    return [f"{r['name']}: max_eigenvalue {r['max_eigenvalue']:.3g} above "
            f"3*se {r['se']:.3g} + {EIGEN_FLOOR:g}"
            for r in rows
            if not r["max_eigenvalue"] <= 3.0 * r["se"] + EIGEN_FLOOR]


def j_value_check(rho: float, seed: int) -> list[str]:
    """J at x = (1/2, 1/2, 1/2) against its closed form."""
    est = j_value(JQuery(np.full(3, 0.5),
                         CorrelationMatrix.equicorrelated(3, rho)),
                  TARGET_SE, seed)
    exact = 0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi)
    if abs(est.value - exact) <= J_CHECK_SES * est.std_error:
        return []
    return [f"J(1/2; rho={rho}) = {est.value!r} +- {est.std_error:.3g}, "
            f"closed form {exact!r}"]


def _j_value_checks(seed: int):
    return [(f"j-value-rho{rho}",
             lambda rho=rho: j_value_check(rho, sub_seed(seed, "j-value", rho)))
            for rho in SWEEP_RHOS]


def _mc_calls(seed: int) -> list[Call]:
    main_cfg = f"""[experiment]
kind = verify-main
n = 2

[matrix]
type = equicorrelated
k = 3
rho = 0.5

[sets]
a1 = union(ball([0, 0], 1.0), box([-1, -inf], [1, 0]))
a2 = ball([0.5, 0], 1.2)
a3 = halfspace([1, 1], 0.3)

[sampling]
samples = {MC_SAMPLES}
seed = {sub_seed(seed, "mc-sets", "verify-main")}
target_se = {TARGET_SE!r}
"""
    diag_cfg = f"""[experiment]
kind = equality-diagnostic
n = 2
t = 0.5

[sets]
a1 = halfspace([1, 0], 0.0)
a2 = halfspace([1, 0], 0.5)
a3 = ball([0, 0], {_ball_radius(0.5)!r})

[sampling]
probes = {DIAG_PROBES}
samples = {DIAG_SAMPLES}
seed = {sub_seed(seed, "mc-sets", "equality-diagnostic")}
"""
    return [Call("verify-main", "verify-main", main_cfg),
            Call("equality-diagnostic", "equality-diagnostic", diag_cfg),
            _sweep_call(seed)]


def _check_mc(call: Call, report: dict) -> list[str]:
    results = report["results"]
    if call.kind == "verify-main":
        return [f"{r['name']}: {r['verdict']}, expected holds"
                for r in results if r["verdict"] != "holds"]
    if call.kind == "hessian-sweep":
        return _check_sweep(report)
    problems = []
    for r in results[:2]:  # a1, a2 are half-spaces
        if not (r["residual"] <= LINEAR_TOL
                and abs(r["slope_over_kt"] - 1.0) <= LINEAR_TOL
                and r["probes_used"] == DIAG_PROBES):
            problems.append(f"{r['name']}: half-space flow not linear: "
                            f"residual {r['residual']!r}, slope/kt "
                            f"{r['slope_over_kt']!r}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("ou-scan",
             "OU exit and occupation scans, the hot path; ball survival "
             "spans 0.29 to 0.018 over the two horizons; no QMC",
             _ou_calls, _check_ou, se_ref=4.5e-3),
    Workload("mc-sets",
             "indicator Monte Carlo as few large batches of composite sets "
             "and as hundreds of small semigroup_apply calls, plus the k=3 "
             "QMC Hessian sweep; no OU scan",
             _mc_calls, _check_mc, se_ref=4.5e-4, extra_ops=_j_value_checks),
)}


# ---------------------------------------------------------------------------
# checks shared by every call
# ---------------------------------------------------------------------------

def common_problems(exit_code: int, report: dict | None,
                    reference: bytes | None) -> list[str]:
    """Exit code 0, no violated verdict, and the report fingerprint equal
    to the first pass's at the same seed (``reference``)."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report is None:
        return problems + ["no report written"]
    problems += [f"{r['name']}: violated" for r in report["results"]
                 if r.get("verdict") == "violated"]
    if reference is not None and report_fingerprint(report) != reference:
        problems.append("report fingerprint differs from the first pass")
    return problems


def largest_comparison_se(reports) -> float | None:
    """The combined SE behind the widest verdict margin of a pass: the
    SE that the margin (rhs - lhs) / se was divided by."""
    ses = []
    for report in reports:
        for r in report["results"]:
            if "margin_se" not in r:
                continue
            if r["margin_se"] != 0.0:
                ses.append(abs(r["rhs"]["value"] - r["lhs"]["value"])
                           / abs(r["margin_se"]))
            else:
                ses.append(math.hypot(r["lhs"]["se"], r["rhs"]["se"]))
    return max(ses) if ses else None
