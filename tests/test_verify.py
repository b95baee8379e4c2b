import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab import (
    AxisBox,
    Ball,
    Complement,
    CorrelationMatrix,
    ComparisonResult,
    Estimate,
    HalfSpace,
    SetSystem,
    Union,
    classify_margin,
    compare,
    equality_diagnostic_run,
    exit_code_for,
    gaussian_measure,
    gradient_bound_check,
    halfspace_occupation,
    halfspace_survival,
    heat_flow,
    joint_containment,
    ou_covariance,
    run_experiment,
    semigroup_apply,
    semigroup_slope,
    std_normal_pdf,
    std_normal_quantile,
    verify_exit_dominance,
    verify_main_inequality,
    verify_noise_stability,
    verify_occupation,
)
import noisestab.cli as cli
import noisestab.jfunc as jfunc
import noisestab.verify as verify
from noisestab import seeding
from noisestab.seeding import derive_rng, subseed
from noisestab.config import ConfigError, ExperimentConfig, load_config, \
    parse_config
from noisestab.orthant import _bivariate_orthant
from noisestab.report import build_report, render_csv, report_fingerprint
from noisestab.verify import EQUALITY_BAND, HOLDS, OFFSET_STEP, SE_FLOOR, \
    VIOLATED, condition_check, hessian_sweep

HS0 = HalfSpace(np.array([1.0, 0.0]), 0.0)
HALF_BALL = Ball(np.zeros(2), math.sqrt(2.0 * math.log(2.0)))


def _est(value, se=0.0):
    return Estimate(value=value, std_error=se, samples=100, seed=0)


def _cfg(**kwargs):
    text = kwargs.pop("text", "")
    cfg = parse_config(text)
    return cfg


class TestVerdictRule:
    @given(st.floats(allow_nan=False, allow_infinity=True))
    def test_partition(self, margin):
        verdict = classify_margin(margin)
        if margin < -3.0:
            assert verdict == VIOLATED
        elif margin <= 3.0:
            assert verdict == EQUALITY_BAND
        else:
            assert verdict == HOLDS

    def test_nan_has_no_verdict(self):
        with pytest.raises(ValueError):
            classify_margin(math.nan)

    def test_compare_floor(self):
        # two exact values: the band floor keeps the margin finite
        c = compare("x", _est(0.2), _est(0.2 + 1e-7))
        assert c.verdict == EQUALITY_BAND
        c2 = compare("x", _est(0.2), _est(0.3))
        assert c2.verdict == HOLDS
        assert c2.margin_se == pytest.approx(0.1 / SE_FLOOR)

    def test_compare_paired_se_wins(self):
        lhs = _est(0.2, 0.01)
        rhs = _est(0.21, 0.01)
        independent = compare("x", lhs, rhs)
        paired = compare("x", lhs, rhs, paired_se=1e-4)
        assert abs(paired.margin_se) > abs(independent.margin_se)

    @given(st.lists(st.sampled_from([HOLDS, EQUALITY_BAND, VIOLATED]),
                    max_size=12))
    @settings(max_examples=200)
    def test_exit_code_contract(self, verdicts):
        comps = [ComparisonResult("v", _est(0.0), _est(0.0), 0.0, v)
                 for v in verdicts]
        code = exit_code_for(comps)
        assert code == (2 if VIOLATED in verdicts else 0)


class TestJointContainment:
    def test_independent_product(self):
        sets = SetSystem((HS0, HALF_BALL))
        est = joint_containment(sets, CorrelationMatrix.identity(2),
                                200_000, 1)
        assert abs(est.value - 0.25) <= 3 * est.std_error

    def test_reproducible(self):
        sets = SetSystem((HS0, HALF_BALL))
        m = CorrelationMatrix.equicorrelated(2, 0.5)
        assert joint_containment(sets, m, 50_000, 2) == \
            joint_containment(sets, m, 50_000, 2)

    @staticmethod
    def _case_2d():
        sets = SetSystem((
            Union((Ball(np.zeros(2), 1.0),
                   AxisBox(np.array([-1.0, -np.inf]), np.array([1.0, 0.0])))),
            Ball(np.array([0.5, 0.0]), 1.2),
            HalfSpace(np.array([1.0, 1.0]), 0.3)))
        return joint_containment(
            sets, CorrelationMatrix.equicorrelated(3, 0.5), 100_000, 41)

    @staticmethod
    def _case_1d():
        sets = SetSystem((HalfSpace(np.array([1.0]), 0.2),
                          AxisBox(np.array([-1.0]), np.array([1.5])),
                          Ball(np.array([0.3]), 1.1),
                          HalfSpace(np.array([-1.0]), 0.4)))
        return joint_containment(
            sets, ou_covariance([0.0, 0.3, 0.5, 1.2]), 100_000, 43)

    # _case_2d is one-factor and conditions on W; _case_2d_kron runs the
    # same system on the Kronecker path, as if M were not one-factor (the
    # einsum draws at n = 2, several containment blocks per batch), and
    # _case_1d takes the sequential einsum sampler; 100,000 samples are
    # two batches at the default batch size and five of three blocks at
    # 20,000
    PINNED = {
        ("_case_2d", seeding.BATCH): (0.16371076501497017,
                                      0.0005569133479452611),
        ("_case_2d", 20_000): (0.1624905082442363, 0.000556120507036697),
        ("_case_2d_kron", seeding.BATCH): (0.16341, 0.0011692184222804566),
        ("_case_2d_kron", 20_000): (0.16356, 0.0011696500604881786),
        ("_case_1d", seeding.BATCH): (0.23104, 0.0013328935381342352),
        ("_case_1d", 20_000): (0.23066, 0.0013321259865343067),
    }

    @pytest.mark.parametrize("case,batch", sorted(PINNED))
    def test_pinned_for_one_and_two_workers(self, case, batch, monkeypatch):
        monkeypatch.setattr(seeding, "BATCH", batch)
        run = case
        if case == "_case_2d_kron":
            monkeypatch.setattr(CorrelationMatrix, "one_factor",
                                lambda self: None)
            run = "_case_2d"
        for workers in (1, 2):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            est = getattr(self, run)()
            assert (est.value, est.std_error) == self.PINNED[case, batch]


class TestConditionalContainment:
    """``joint_containment`` on one-factor matrices, which conditions on
    the common factor W."""

    PARALLEL = SetSystem((HS0, HalfSpace(np.array([1.0, 0.0]),
                                         0.5244005127080407)))

    def test_reflection_quarter(self):
        # x_1 -> -x_1 maps the half-space onto its complement and keeps
        # the ball of measure 1/2 and the law, so the value is 1/4
        sets = SetSystem((Ball(np.zeros(2), 1.1774100225154747), HS0))
        est = joint_containment(sets, CorrelationMatrix.equicorrelated(2, 0.5),
                                200_000, 7)
        assert abs(est.value - 0.25) <= 3 * est.std_error

    def test_parallel_halfspaces_owen(self):
        est = joint_containment(self.PARALLEL,
                                CorrelationMatrix.equicorrelated(2, 0.5),
                                200_000, 7)
        exact = _bivariate_orthant(0.0, 0.5244005127080407, 0.5)
        assert abs(est.value - exact) <= 3 * est.std_error

    def test_two_balls_gauss_hermite(self):
        # given W the balls hold independently, each with the flow at
        # time 1/4 of W, so the value is E_W[flow^2] over W in R^2
        ball = Ball(np.zeros(2), 1.1774100225154747)
        y, wt = np.polynomial.hermite_e.hermegauss(60)
        pts = np.column_stack([np.repeat(y, len(y)), np.tile(y, len(y))])
        weight = np.outer(wt, wt).ravel() / (2.0 * math.pi)
        exact = float(weight @ heat_flow(ball, 0.25, pts) ** 2)
        est = joint_containment(SetSystem((ball, ball)),
                                CorrelationMatrix.equicorrelated(
                                    2, math.exp(-0.5)), 200_000, 7)
        assert abs(est.value - exact) <= 3 * est.std_error

    @staticmethod
    def _random_system(rng, k, n):
        def one():
            kind = rng.integers(4)
            if kind == 0:
                return Ball(rng.uniform(-0.5, 0.5, n),
                            float(rng.uniform(0.6, 1.8)))
            if kind == 1:
                return HalfSpace(rng.standard_normal(n),
                                 float(rng.uniform(-0.5, 1.0)))
            if kind == 2:
                lo = rng.uniform(-2.0, -0.3, n)
                return AxisBox(lo, lo + rng.uniform(1.0, 3.0, n))
            return Union((Ball(rng.uniform(-1.5, -0.3, n), 1.0),
                          Complement(HalfSpace(rng.standard_normal(n), 0.8))))
        return SetSystem(tuple(one() for _ in range(k)))

    @pytest.mark.parametrize("trial,k,n", [(0, 2, 1), (1, 3, 2), (2, 4, 3),
                                           (3, 2, 3), (4, 3, 2), (5, 4, 1)])
    def test_random_systems_match_kronecker(self, trial, k, n, monkeypatch):
        rng = np.random.default_rng(700 + trial)
        sets = self._random_system(rng, k, n)
        lam = rng.uniform(0.3, 0.9, k)
        if k == 2:
            lam[1] = -lam[1]
        r = np.outer(lam, lam)
        np.fill_diagonal(r, 1.0)
        m = CorrelationMatrix(r)
        assert m.one_factor() is not None
        given_w = joint_containment(sets, m, 200_000, 1000 + trial)
        monkeypatch.setattr(CorrelationMatrix, "one_factor", lambda self: None)
        kron = joint_containment(sets, m, 200_000, 1000 + trial)
        assert abs(given_w.value - kron.value) \
            <= 3 * math.hypot(given_w.std_error, kron.std_error)
        assert given_w.std_error <= kron.std_error

    def test_calibrated(self):
        exact = _bivariate_orthant(0.0, 0.5244005127080407, 0.5)
        m = CorrelationMatrix.equicorrelated(2, 0.5)
        z = np.array([(est.value - exact) / est.std_error for est in (
            joint_containment(self.PARALLEL, m, 20_000, seed)
            for seed in range(200))])
        assert abs(z.mean()) <= 0.25
        assert np.count_nonzero(np.abs(z) > 3.0) <= 2

    def test_reproducible_for_one_and_two_workers(self, monkeypatch):
        sets = SetSystem((Union((Ball(np.zeros(2), 1.0),)), HALF_BALL, HS0))
        lam = np.array([0.8, -0.6, 0.5])
        r = np.outer(lam, lam)
        np.fill_diagonal(r, 1.0)
        m = CorrelationMatrix(r)
        runs = []
        for workers in (1, 2, 2):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            runs.append(joint_containment(sets, m, 150_000, 5))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].samples == 150_000


MAIN_DOC = """
[experiment]
kind = verify-main
n = 2

[matrix]
type = equicorrelated
k = 2
rho = 0.5

[sets]
a1 = halfspace([1, 0], 0.0)
a2 = halfspace([1, 0], 0.5244005127080407)

[sampling]
samples = 200000
seed = 3
target_se = 0.0001
"""


class TestMainInequality:
    def test_parallel_halfspaces_equality(self):
        cfg = parse_config(MAIN_DOC)
        (comp,) = verify_main_inequality(cfg)
        assert comp.verdict == EQUALITY_BAND

    def test_identity_matrix_independence(self):
        doc = MAIN_DOC.replace("rho = 0.5", "rho = 0.0").replace(
            "a1 = halfspace([1, 0], 0.0)", "a1 = ball([0, 0], 1.1774100225154747)")
        cfg = parse_config(doc)
        (comp,) = verify_main_inequality(cfg)
        product = 0.5 * 0.7
        assert abs(comp.lhs.value - product) <= 3 * comp.lhs.std_error
        assert comp.verdict in (HOLDS, EQUALITY_BAND)

    def test_ball_strictly_below_bound(self):
        doc = MAIN_DOC.replace("a1 = halfspace([1, 0], 0.0)",
                               "a1 = ball([0, 0], 1.1774100225154747)")
        cfg = parse_config(doc)
        (comp,) = verify_main_inequality(cfg)
        assert comp.verdict == HOLDS
        assert comp.margin_se > 3.0

    @pytest.mark.parametrize("capped_dims", [(1, 2), (1,)])
    def test_capped_qmc_reaches_report(self, monkeypatch, tmp_path,
                                       capped_dims):
        # dimension 2 is the bound J itself, dimension 1 the gradients
        # that propagate the Monte Carlo measure noise of the one-part
        # union in n = 3 (a bare ball, or a composite in n = 2, would be
        # measured exactly)
        real = jfunc.orthant_qmc

        def capped(q, *args, **kwargs):
            est = real(q, *args, **kwargs)
            return dataclasses.replace(est, cap_hit=q.k in capped_dims)

        monkeypatch.setattr(jfunc, "orthant_qmc", capped)
        cfg = tmp_path / "main.cfg"
        cfg.write_text(MAIN_DOC.replace("n = 2", "n = 3").replace(
            "a1 = halfspace([1, 0], 0.0)",
            "a1 = union(ball([0.3, 0, 0], 1.2))").replace(
            "a2 = halfspace([1, 0], ", "a2 = halfspace([1, 0, 0], "))
        out = tmp_path / "report.json"
        assert cli.cli_main(["verify-main", "--config", str(cfg), "--quiet",
                             "--out", str(out)]) == 0
        (row,) = json.loads(out.read_text())["results"]
        assert row["rhs"]["cap_hit"] is True
        assert row["lhs"]["cap_hit"] is False

    def test_plane_composite_bound_is_exact(self, monkeypatch):
        # a 2-d composite's measure is exact, so no measure noise goes
        # through j_grad, and at k = 2 the J value is exact too
        monkeypatch.setattr(verify, "j_grad", None)
        sets = SetSystem((Union((Ball(np.zeros(2), 1.0),
                                 AxisBox(np.array([-1.0, -np.inf]),
                                         np.array([1.0, 0.0])))), HS0))
        rhs = verify.stability_bound(
            sets, CorrelationMatrix.equicorrelated(2, 0.5), 1000, 1e-4, 5)
        assert (rhs.std_error, rhs.samples) == (0.0, 0)

    def test_negative_entry_refused(self):
        cfg = parse_config(MAIN_DOC.replace("rho = 0.5", "rho = -0.2"))
        with pytest.raises(ConfigError, match="nonnegative"):
            verify_main_inequality(cfg)

    def test_set_count_mismatch(self):
        cfg = parse_config(MAIN_DOC.replace("k = 2", "k = 3"))
        with pytest.raises(ConfigError):
            verify_main_inequality(cfg)


class TestNoiseStability:
    def test_same_halfspace_arcsine(self):
        cfg = parse_config("[sampling]\nsamples = 200000\nseed = 5\n")
        t = 0.8
        (comp,) = verify_noise_stability(HS0, HS0, t, cfg)
        target = 0.25 + math.asin(math.exp(-t)) / (2.0 * math.pi)
        assert abs(comp.lhs.value - target) <= 3 * comp.lhs.std_error
        assert comp.verdict == EQUALITY_BAND

    def test_full_space(self):
        cfg = parse_config("[sampling]\nsamples = 50000\nseed = 6\n")
        full = HalfSpace(np.array([1.0, 0.0]), np.inf)
        (comp,) = verify_noise_stability(full, full, 0.5, cfg)
        assert comp.lhs.value == 1.0 and comp.rhs.value == 1.0
        assert comp.verdict == EQUALITY_BAND

    def test_ball_holds(self):
        cfg = parse_config("[sampling]\nsamples = 400000\nseed = 7\n")
        (comp,) = verify_noise_stability(HALF_BALL, HALF_BALL, 0.5, cfg)
        assert comp.verdict == HOLDS

    def test_rejects_zero_time(self):
        cfg = parse_config("")
        with pytest.raises(ConfigError):
            verify_noise_stability(HS0, HS0, 0.0, cfg)


class TestExitDominance:
    def test_halfspace_equality_band(self):
        cfg = parse_config(
            "[sampling]\npaths = 20000\nseed = 8\n[grid]\nsteps = 64\n")
        # a half-space is its own match, also off the origin, where a copy
        # rounded through Phi^-1(Phi(c)) would leave noise in the margin
        for hs in (HS0, HalfSpace(np.array([1.0, 0.0]), 0.3)):
            comps = verify_exit_dominance(hs, [0.0, 0.25, 0.5], cfg)
            assert [c.verdict for c in comps] == [EQUALITY_BAND] * 3
            # identical sets: margins are exactly zero
            assert all(c.lhs.value == c.rhs.value for c in comps)
            assert [c.margin_se for c in comps] == [0.0] * 3

    def test_zero_horizon_measure(self):
        cfg = parse_config(
            "[sampling]\npaths = 50000\nseed = 9\n[grid]\nsteps = 16\n")
        (comp,) = verify_exit_dominance(HALF_BALL, [0.0], cfg)
        # every path that starts in the ball survives a zero horizon, so
        # the post-stratified lhs is the exact measure, with no error
        assert comp.lhs.value == gaussian_measure(HALF_BALL).value
        assert comp.lhs.std_error == 0.0 and comp.lhs.samples == 50_000
        assert abs(comp.lhs.value - 0.5) <= 1e-15
        # the matched half-space arm is exact: Phi of its offset
        assert comp.rhs.std_error == 0.0 and comp.rhs.samples == 0
        assert abs(comp.rhs.value - 0.5) <= 1e-15

    def test_measure_noise_reaches_rhs(self):
        # a one-part union in n = 3 has a Monte Carlo measure, so the
        # matched offset c is noisy: rhs se = |dS/dc| se(mu) / phi(c)
        cfg = parse_config("[sampling]\nsamples = 100000\npaths = 5000\n"
                           "seed = 12\n[grid]\nsteps = 32\n")
        half_ball = Ball(np.zeros(3), 1.5381722544550522)
        noisy = Union((half_ball,))
        taus = [0.0, 0.3, 1.0]
        comps = verify_exit_dominance(noisy, taus, cfg)
        mu = gaussian_measure(noisy, 100_000, subseed(12, "measure", 0))
        c = std_normal_quantile(mu.value)
        h = OFFSET_STEP
        for tau, comp in zip(taus, comps):
            slope = (halfspace_survival(c + h, tau)
                     - halfspace_survival(c - h, tau)) / (2 * h)
            want = abs(slope) * mu.std_error / std_normal_pdf(c)
            assert comp.rhs.std_error > 0.0
            assert comp.rhs.std_error == pytest.approx(want, rel=1e-12)
            combined = math.hypot(comp.lhs.std_error, comp.rhs.std_error)
            assert comp.margin_se == pytest.approx(
                (comp.rhs.value - comp.lhs.value) / combined, rel=1e-12)
        # at tau = 0 the rhs is Phi(c) = mu, so it carries se(mu)
        assert comps[0].rhs.std_error == pytest.approx(mu.std_error,
                                                       rel=1e-5)
        # a leaf's measure is exact, and so is its rhs; so is a 2-d
        # composite's
        for exact in (half_ball, Union((HALF_BALL,))):
            comps = verify_exit_dominance(exact, taus, cfg)
            assert [comp.rhs.std_error for comp in comps] == [0.0] * 3

    def test_ball_dominated(self):
        cfg = parse_config(
            "[sampling]\npaths = 30000\nseed = 10\n[grid]\nsteps = 128\n")
        comps = verify_exit_dominance(HALF_BALL, [0.3, 0.6], cfg)
        assert all(c.verdict in (HOLDS, EQUALITY_BAND) for c in comps)
        assert comps[-1].verdict == HOLDS


class TestOccupation:
    def test_parallel_halfspaces_equality(self):
        cfg = parse_config(
            "[sampling]\npaths = 20000\nseed = 11\n[grid]\nsteps = 64\n")
        ball_06 = HalfSpace(np.array([1.0, 0.0]), 0.2533471031357997)
        ball_03 = HalfSpace(np.array([1.0, 0.0]), -0.5244005127080407)
        # parallel half-spaces are their own match, also with offsets and
        # a normal that copies rounded through Phi^-1(Phi(c)) would change
        tilted = np.array([0.6, 0.8])
        for a1, a2 in ((ball_06, ball_03),
                       (HalfSpace(tilted, 0.3), HalfSpace(tilted, -0.2))):
            comps = verify_occupation(a1, a2, [0.1, 0.5], cfg)
            assert [c.verdict for c in comps] == [EQUALITY_BAND] * 2
            # identical sets: margins are exactly zero
            assert all(c.lhs.value == c.rhs.value for c in comps)
            assert [c.margin_se for c in comps] == [0.0] * 2

    def test_empty_target_degenerate(self):
        cfg = parse_config(
            "[sampling]\npaths = 5000\nseed = 12\n[grid]\nsteps = 32\n")
        empty = Ball(np.array([50.0, 50.0]), 0.1)
        (comp,) = verify_occupation(HS0, empty, [0.5], cfg)
        assert comp.lhs.value == 0.0
        assert comp.verdict in (HOLDS, EQUALITY_BAND)

    def test_measure_noise_reaches_rhs(self):
        # a one-part union in n = 3 has a Monte Carlo measure, so its
        # matched offset is noisy: rhs se^2 sums
        # (|dV/dc_i| se(mu_i) / phi(c_i))^2
        cfg = parse_config("[sampling]\nsamples = 100000\npaths = 5000\n"
                           "seed = 13\n[grid]\nsteps = 32\n")
        ball_06 = Ball(np.zeros(3), 1.716439941594797)
        ball_03 = Ball(np.zeros(3), 1.1931689918177055)
        h, tau = OFFSET_STEP, 0.5

        def propagated(a1, a2):
            mu1, mu2 = (gaussian_measure(a, 100_000, subseed(13, "measure", i))
                        for i, a in enumerate((a1, a2)))
            c1, c2 = (std_normal_quantile(mu.value) for mu in (mu1, mu2))
            d1 = (halfspace_occupation(c1 + h, c2, tau)
                  - halfspace_occupation(c1 - h, c2, tau)) / (2 * h)
            d2 = (halfspace_occupation(c1, c2 + h, tau)
                  - halfspace_occupation(c1, c2 - h, tau)) / (2 * h)
            return math.hypot(abs(d1) * mu1.std_error / std_normal_pdf(c1),
                              abs(d2) * mu2.std_error / std_normal_pdf(c2))

        for a1, a2 in ((Union((ball_06,)), ball_03),
                       (ball_06, Union((ball_03,))),
                       (Union((ball_06,)), Union((ball_03,)))):
            (comp,) = verify_occupation(a1, a2, [tau], cfg)
            assert comp.rhs.std_error > 0.0
            assert comp.rhs.std_error == pytest.approx(propagated(a1, a2),
                                                       rel=1e-12)
            combined = math.hypot(comp.lhs.std_error, comp.rhs.std_error)
            assert comp.margin_se == pytest.approx(
                (comp.rhs.value - comp.lhs.value) / combined, rel=1e-12)
        # leaf measures are exact, and so is the rhs
        (comp,) = verify_occupation(ball_06, ball_03, [tau], cfg)
        assert (comp.rhs.std_error, comp.rhs.samples) == (0.0, 0)

    def test_each_horizon_reported(self):
        doc = ("[experiment]\nkind = occupation\nn = 2\n[sets]\n"
               "a1 = ball([0, 0], 1.353728726055671)\n"
               "a2 = ball([0, 0], 0.8446004309005916)\n"
               "[sampling]\npaths = 5000\nseed = 14\n"
               "[grid]\ntaus = 0.25, 0.5\nsteps = 32\n")
        both = run_experiment(parse_config(doc)).results
        assert [r["name"] for r in both] == ["occupation[tau=0.25]",
                                             "occupation[tau=0.5]"]
        for tau, result in zip(("0.25", "0.5"), both):
            alone = run_experiment(
                parse_config(doc.replace("0.25, 0.5", tau))).results
            assert alone == [result]


class TestEqualityDiagnostic:
    def test_parallel_halfspaces(self):
        cfg = parse_config("[sampling]\nprobes = 64\nseed = 13\n")
        sets = SetSystem((HalfSpace(np.array([0.6, 0.8]), 0.0),
                          HalfSpace(np.array([0.6, 0.8]), 0.7)))
        *rows, cosines = equality_diagnostic_run(sets, 0.5, cfg)
        assert all(r["residual"] <= 0.02 for r in rows)
        assert cosines["cosines"][0][1] >= 0.999
        kt = semigroup_slope(0.5)
        assert all(abs(r["slope"] - kt) <= 0.02 for r in rows)

    def test_ball_breaks_linearity(self):
        cfg = parse_config(
            "[sampling]\nprobes = 48\nsamples = 40000\nseed = 14\n")
        sets = SetSystem((HS0, HALF_BALL))
        rows = equality_diagnostic_run(sets, 0.5, cfg)
        assert rows[0]["residual"] <= 0.02
        assert rows[1]["residual"] > 0.02

    def test_rotation_invariance_of_cosines(self):
        cfg = parse_config("[sampling]\nprobes = 64\nseed = 15\n")
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        base = SetSystem((HalfSpace(a, 0.1), HalfSpace(b, -0.2)))
        turned = SetSystem((HalfSpace(rot @ a, 0.1), HalfSpace(rot @ b, -0.2)))
        c1 = equality_diagnostic_run(base, 0.5, cfg)[-1]["cosines"]
        c2 = equality_diagnostic_run(turned, 0.5, cfg)[-1]["cosines"]
        assert abs(c1[0][1] - c2[0][1]) <= 1e-9

    def test_rejects_degenerate_measure(self):
        cfg = parse_config("[sampling]\nprobes = 16\nseed = 16\n")
        empty = HalfSpace(np.array([1.0, 0.0]), -np.inf)
        with pytest.raises(ConfigError):
            equality_diagnostic_run(SetSystem((empty,)), 0.5, cfg)

    @pytest.mark.parametrize("probes", [0, 1, 3])
    def test_rejects_too_few_probes(self, probes):
        # n = 2: the fit has 3 coefficients, so fewer than 4 probes leave
        # a residual that is 0 or undefined by construction
        cfg = parse_config(f"[sampling]\nprobes = {probes}\nseed = 16\n")
        with pytest.raises(ConfigError, match=r"\[sampling\] probes: "
                           rf"{probes}, .* at least 4 probes"):
            equality_diagnostic_run(SetSystem((HS0,)), 0.5, cfg)

    def test_fewest_probes_give_a_residual(self):
        cfg = parse_config("[sampling]\nprobes = 4\nseed = 16\n")
        rows = equality_diagnostic_run(SetSystem((HS0, HALF_BALL)), 0.5,
                                       cfg)[:2]
        assert all(math.isfinite(r["residual"]) for r in rows)
        assert [r["probes_used"] for r in rows] == [4, 4]
        assert rows[1]["residual"] > 0.0

    def test_too_few_kept_probes_fit_on_all(self):
        # only 2 of the 200 flows lie in [0.01, 0.99]: a fit on them alone
        # would read residual 0; fewer than n + 2 kept means all probes
        cfg = parse_config("[sampling]\nprobes = 200\nseed = 3\n")
        far = SetSystem((Ball(np.array([2.5, 0.0]), 0.15),))
        row = equality_diagnostic_run(far, 0.05, cfg)[0]
        assert row["probes_used"] == 200
        # 4 kept probes are enough for a residual and stay the fit
        wider = SetSystem((Ball(np.array([2.5, 0.0]), 0.2),))
        row = equality_diagnostic_run(wider, 0.05, cfg)[0]
        assert row["probes_used"] == 4
        assert row["residual"] > 0.1

    def test_fallback_reports_clipped_flows(self):
        # the all-probe fit of the far ball sees 153 flows below 1e-9,
        # which the quantile transform floors at about -6.0
        doc = ("[experiment]\nkind = equality-diagnostic\nn = 2\n"
               "t = 0.05\n[sets]\na1 = ball([2.5, 0], 0.15)\n"
               "a2 = ball([2.5, 0], 0.2)\na3 = halfspace([1, 0], 0.0)\n"
               "[sampling]\nprobes = 200\nseed = 3\n")
        out = run_experiment(parse_config(doc))
        rows = out.results[:3]
        assert [r["probes_used"] for r in rows] == [200, 4, 200]
        assert [r["clipped"] for r in rows] == [153, 0, 0]
        assert out.csv_columns == ["name", "residual", "slope",
                                   "slope_over_kt"]

    def test_shipped_config_clips_nothing(self):
        path = Path(__file__).resolve().parents[1] / "configs" \
            / "equality_diag.cfg"
        out = run_experiment(load_config(str(path)))
        rows = [r for r in out.results if "residual" in r]
        assert len(rows) == 3
        assert all(r["clipped"] == 0 for r in rows)

    def test_composite_counts_clipped_fitted_probes(self):
        # a Monte Carlo flow of 0 or 1 is clipped; the far ball leaves
        # fewer than 4 flows in the band, so every probe is fitted
        cfg = parse_config(
            "[sampling]\nprobes = 40\nsamples = 2000\nseed = 5\n")
        far = Union((Ball(np.array([2.5, 0.0]), 0.15),))
        row = equality_diagnostic_run(SetSystem((far,)), 0.1, cfg)[0]
        probes = derive_rng(5, "diagnostic").standard_normal((40, 2))
        flows = np.array([semigroup_apply(far, 0.1, p, 2000,
                                          subseed(5, "flow", j)).value
                          for j, p in enumerate(probes)])
        assert np.count_nonzero((flows >= 0.01) & (flows <= 0.99)) < 4
        assert row["probes_used"] == 40
        assert row["clipped"] == np.count_nonzero(flows == 0.0) == 36

    def test_flow_reported_per_row(self):
        doc = ("[experiment]\nkind = equality-diagnostic\nn = 2\nt = 0.5\n"
               "[sets]\na1 = halfspace([1, 0], 0.0)\n"
               "a2 = ball([0.3, 0], 1.2)\n"
               "a3 = box([-1, -inf], [1, 0.5])\n"
               "a4 = union(ball([0, 0], 1.0))\n"
               "[sampling]\nprobes = 24\nsamples = 4000\nseed = 17\n")
        out = run_experiment(parse_config(doc))
        rows = out.results[:4]
        assert [r["flow"] for r in rows] == ["exact", "exact", "exact",
                                             "monte_carlo"]
        assert "flow" not in out.results[4]  # the cosines row
        assert out.csv_columns == ["name", "residual", "slope",
                                   "slope_over_kt"]
        assert [len(r) for r in out.csv_rows] == [4] * 4

    def test_exact_ball_flow_matches_monte_carlo_row(self):
        # the exact row and the Monte Carlo row of the same ball fit the
        # same quantile-transformed flow up to sampling noise
        cfg = parse_config(
            "[sampling]\nprobes = 32\nsamples = 100000\nseed = 18\n")
        ball = Ball(np.array([0.3, 0.0]), 1.2)
        exact, mc, cosines = equality_diagnostic_run(
            SetSystem((ball, Union((ball,)))), 0.5, cfg)
        assert (exact["flow"], mc["flow"]) == ("exact", "monte_carlo")
        assert cosines["cosines"][0][1] >= 0.999
        assert abs(exact["slope"] - mc["slope"]) <= 0.05

    def test_composite_probes_independent_of_workers(self, monkeypatch):
        cfg = parse_config(
            "[sampling]\nprobes = 24\nsamples = 3000\nseed = 19\n")
        sets = SetSystem((HS0, Union((Ball(np.array([0.2, 0.1]), 1.1),
                                      HalfSpace(np.array([0.0, 1.0]),
                                                -1.0)))))
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            runs.append(equality_diagnostic_run(sets, 0.5, cfg))
        one, two = runs
        assert [r["flow"] for r in one[:2]] == ["exact", "monte_carlo"]
        assert one == two


class TestGradientBound:
    @staticmethod
    def _oracle(s, t, probe_points, seed, h=1e-3):
        """Ratios from a central difference of ``heat_flow`` at the
        probes whose flow lies in [0.02, 0.98] (all if none does)."""
        probes = derive_rng(seed, "probes").standard_normal(
            (probe_points, s.dim))
        flows = heat_flow(s, t, probes)
        band = (flows >= 0.02) & (flows <= 0.98)
        if band.any():
            probes = probes[band]

        def w(x):
            return std_normal_quantile(
                np.clip(heat_flow(s, t, x), 1e-9, 1 - 1e-9))

        ratios = []
        for p in probes:
            g = [(w(p + h * e) - w(p - h * e)) / (2 * h)
                 for e in np.eye(s.dim)]
            ratios.append(float(np.linalg.norm(g)) / semigroup_slope(t))
        return ratios

    @pytest.mark.parametrize("s", [
        Ball(np.array([0.3, -0.2]), 1.1),
        AxisBox(np.array([-1.0, -np.inf]), np.array([0.5, 1.0])),
        Ball(np.array([2.0, 0.0]), 0.3)], ids=["ball", "box", "far-ball"])
    def test_leaf_is_exact(self, s):
        few = gradient_bound_check(s, 0.5, 8, 21, samples=10)
        many = gradient_bound_check(s, 0.5, 8, 21, samples=400_000)
        assert few == many
        want = self._oracle(s, 0.5, 8, 21)
        assert few.probes_used == len(want)
        np.testing.assert_allclose(few.ratios, want, rtol=1e-12, atol=0.0)
        assert few.max_ratio == max(few.ratios) <= 1.0

    # values of the parent implementation (step 0.05, band [0.02, 0.98]);
    # 4 of the 10 probes lie in the band
    UNION = Union((Ball(np.array([1.8, 0.0]), 0.5),
                   Ball(np.array([-1.8, 0.0]), 0.5)))
    UNION_RATIOS = (0.8435308913572095, 0.6921847898411809,
                    0.8108082364453801, 0.7026353367329398)

    def test_union_pinned_for_one_and_two_workers(self, monkeypatch):
        for workers in (1, 2):
            monkeypatch.setattr(seeding, "WORKERS", workers)
            res = gradient_bound_check(self.UNION, 0.2, 10, 44,
                                       samples=20_000)
            assert res.ratios == self.UNION_RATIOS
            assert res.probes_used == 4
            assert res.max_ratio == max(self.UNION_RATIOS)

    def test_halfspace_uses_every_probe(self):
        far = HalfSpace(np.array([1.0, 0.0]), 4.0)
        res = gradient_bound_check(far, 0.5, 6, 1)
        assert res.probes_used == 6
        assert max(abs(r - 1.0) for r in res.ratios) <= 1e-9


class TestHessianSweep:
    def test_grid_rows_and_negativity(self):
        cfg = parse_config("""
[experiment]
kind = hessian-sweep
[matrix]
type = equicorrelated
k = 2
rho = 0.5
[sweep]
x = 0.25, 0.5, 0.75
[sampling]
target_se = 0.0001
seed = 17
""")
        rows = hessian_sweep(cfg)
        assert len(rows) == 9
        for r in rows:
            assert r["max_eigenvalue"] <= 1e-6 + 3 * r["se"]

    def test_rho_sweep(self):
        cfg = parse_config("""
[matrix]
type = equicorrelated
k = 2
[sweep]
x = 0.3, 0.7
rhos = 0.2, 0.8
""")
        rows = hessian_sweep(cfg)
        assert len(rows) == 8

    SWEEP_K3 = ("[experiment]\nkind = hessian-sweep\n"
                "[matrix]\ntype = equicorrelated\nk = 3\n"
                "rho = 0.5\n[sweep]\nx = 0.4, 0.6\n"
                "[sampling]\nseed = 4\ntarget_se = 0.001\n")

    @pytest.mark.parametrize("capped_dims", [(), (3,), (2,), (1,)])
    def test_capped_qmc_reaches_rows(self, monkeypatch, tmp_path,
                                     capped_dims):
        # at k = 3 the only orthant queries are the 1-d inner orthants
        # of the pair interactions; a cap on dimension 3 (the value J)
        # or 2 (its gradient) must not flag a row, as neither is computed
        expected = 1 in capped_dims
        real = jfunc.orthant_qmc

        def capped(q, *args, **kwargs):
            est = real(q, *args, **kwargs)
            return dataclasses.replace(est, cap_hit=q.k in capped_dims)

        monkeypatch.setattr(jfunc, "orthant_qmc", capped)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.SWEEP_K3)
        report, table = tmp_path / "rows.json", tmp_path / "rows.csv"
        for out, fmt in ((report, "json"), (table, "csv")):
            assert cli.cli_main(["hessian-sweep", "--config", str(cfg),
                                 "--quiet", "--format", fmt,
                                 "--out", str(out)]) == 0
        rows = json.loads(report.read_text())["results"]
        assert len(rows) == 8
        assert {r["cap_hit"] for r in rows} == {expected}
        lines = table.read_text().strip().splitlines()
        assert lines[0].split(",")[-1] == "cap_hit"
        flag = "true" if expected else "false"
        assert {line.split(",")[-1] for line in lines[1:]} == {flag}

    def test_k3_sweep_queries_only_pair_interactions(self, monkeypatch):
        # a row reads only the pair interactions, whose inner orthants
        # are 1-d at k = 3: no J value (3-d) or gradient (2-d) is computed
        real = jfunc.orthant_qmc
        dims = []

        def counted(q, *args, **kwargs):
            dims.append(q.k)
            return real(q, *args, **kwargs)

        monkeypatch.setattr(jfunc, "orthant_qmc", counted)
        rows = hessian_sweep(parse_config(self.SWEEP_K3))
        assert len(rows) == 8
        # three pairs per row
        assert dims == [1] * 24

    def test_refuses_hypothesis_violation(self):
        cfg = parse_config("[matrix]\ntype = equicorrelated\nk = 2\n"
                           "rho = -0.5\n")
        with pytest.raises(ConfigError, match="nonnegative"):
            hessian_sweep(cfg)

    def test_rejects_negative_random_x(self):
        cfg = parse_config("[matrix]\ntype = equicorrelated\nk = 2\n"
                           "rho = 0.5\n[sweep]\nrandom_x = -3\n")
        with pytest.raises(ConfigError, match=r"\[sweep\] random_x: -3 "):
            hessian_sweep(cfg)


class TestConditionCheck:
    def test_rows(self):
        cfg = parse_config("[sampling]\nseed = 18\n[sweep]\ngrids = 10\n")
        rows = condition_check(cfg)
        grid_rows = [r for r in rows if r["name"].startswith("condition[grid")]
        assert len(grid_rows) == 10
        for r in grid_rows:
            assert r["entrywise_nonnegative"]
            assert r["inverse_offdiag_nonpositive"]
        witness = rows[-1]
        assert witness["entrywise_nonnegative"]
        assert not witness["inverse_offdiag_nonpositive"]


    def test_rejects_k_max_below_two(self):
        cfg = parse_config("[sweep]\nk_max = 1\n")
        with pytest.raises(ConfigError, match=r"\[sweep\] k_max: 1"):
            condition_check(cfg)

    def test_rejects_negative_grids(self):
        cfg = parse_config("[sweep]\ngrids = -3\n")
        with pytest.raises(ConfigError, match=r"\[sweep\] grids: -3"):
            condition_check(cfg)

    def test_smallest_sweep(self):
        rows = condition_check(parse_config("[sweep]\ngrids = 0\nk_max = 2\n"))
        assert [r["name"] for r in rows] == ["condition[witness]"]
        rows = condition_check(parse_config("[sweep]\ngrids = 3\nk_max = 2\n"))
        assert [len(r["times"]) for r in rows[:3]] == [2, 2, 2]


class TestRunExperiment:
    def test_dispatch_validates_sets(self):
        cfg = parse_config("[experiment]\nkind = occupation\n")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_exit_time_csv_rows(self):
        cfg = parse_config("""
[experiment]
kind = exit-time
[sets]
a1 = halfspace([1, 0], 0.0)
[sampling]
paths = 5000
samples = 10000
seed = 19
[grid]
taus = 0.2, 0.4
steps = 32
""")
        out = run_experiment(cfg)
        assert len(out.csv_rows) == 2
        assert out.csv_columns[0] == "tau"

    def test_unknown_kind(self):
        cfg = ExperimentConfig(kind="verify-main")
        object.__setattr__(cfg, "kind", "bogus")
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestReport:
    def test_fingerprint_ignores_volatile(self):
        r1 = build_report({"a": 1}, [{"name": "x"}], 1.23, "0.1.0")
        r2 = build_report({"a": 1}, [{"name": "x"}], 9.87, "0.1.0")
        assert report_fingerprint(r1) == report_fingerprint(r2)

    def test_fingerprint_sensitive_to_results(self):
        r1 = build_report({"a": 1}, [{"name": "x"}], 1.0, "0.1.0")
        r2 = build_report({"a": 1}, [{"name": "y"}], 1.0, "0.1.0")
        assert report_fingerprint(r1) != report_fingerprint(r2)

    def test_numpy_values_serializable(self):
        r = build_report({"v": np.float64(0.5), "a": np.arange(3)},
                         [{"z": np.int64(2)}], 0.0, "0.1.0")
        parsed = json.loads(report_fingerprint(r))
        assert parsed["config"]["v"] == 0.5
        assert parsed["config"]["a"] == [0, 1, 2]

    def test_csv_17_digits(self):
        text = render_csv(["x"], [[1.0 / 3.0]])
        assert "0.33333333333333331" in text

    def test_csv_booleans(self):
        text = render_csv(["x", "ok"], [[1, True]])
        assert text.splitlines()[1] == "1,true"
