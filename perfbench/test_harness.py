"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run

run.use_program()

import numpy as np  # noqa: E402

import noisestab.ousim  # noqa: E402
import noisestab.verify  # noqa: E402
from noisestab.report import report_fingerprint  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Target, Tracer, patched  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(0, "root", 0, 100, None, 0),
        Span(1, "a", 10, 30, 0, 0),
        Span(2, "a", 20, 50, 0, 0),    # overlaps span 1
        Span(3, "b", 90, 120, 0, 0),   # runs past the parent's end
        Span(4, "c", 12, 18, 1, 0),    # grandchild: counts against 1 only
    ]
    selfs = tracing.self_times_ns(spans)
    assert selfs == {0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}
    totals = tracing.totals_by_name(spans)
    assert (totals["a"].calls, totals["a"].total_ns, totals["a"].self_ns) \
        == (2, 50, 44)
    assert totals["root"].self_ns == 50


def test_self_time_without_children_is_duration():
    spans = [Span(7, "x", 5, 9, None, None)]
    assert tracing.self_times_ns(spans) == {7: 4}


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

def test_wrappers_record_and_restore_every_binding():
    orig_contains = noisestab.geometry.contains
    orig_sample = noisestab.ousim.KroneckerSampler.__dict__["sample"]
    tracer = Tracer()
    with patched(tracer, layers.TARGETS):
        assert noisestab.ousim.contains is not orig_contains
        assert noisestab.verify.contains is noisestab.ousim.contains
        m = noisestab.gaussian.CorrelationMatrix.equicorrelated(3, 0.5)
        sets = noisestab.geometry.SetSystem(
            (noisestab.geometry.Ball(np.zeros(2), 1.0),) * 3)
        noisestab.verify.joint_containment(sets, m, 1000, 7)
    assert noisestab.ousim.contains is orig_contains
    assert noisestab.verify.contains is orig_contains
    assert noisestab.geometry.contains is orig_contains
    assert noisestab.ousim.KroneckerSampler.__dict__["sample"] is orig_sample
    names = {s.name for s in tracer.spans}
    assert {"geometry.contains.ball", "ousim.kron_sample",
            "seeding.derive_rng"} <= names
    assert tracer.counters["geometry.contains.ball_points"] == 3000
    assert tracer.counters["ousim.kron_points"] == 3000
    kron = next(s for s in tracer.spans if s.name == "ousim.kron_sample")
    rng = [s for s in tracer.spans if s.name == "seeding.derive_rng"]
    assert any(s.parent == kron.sid for s in rng)


def test_wrappers_restored_after_exception():
    original = noisestab.verify.exit_survival_pair
    with pytest.raises(ZeroDivisionError):
        with patched(Tracer(), layers.TARGETS):
            assert noisestab.verify.exit_survival_pair is not original
            1 / 0
    assert noisestab.verify.exit_survival_pair is original


def test_missing_target_restores_what_was_already_wrapped():
    original = noisestab.verify.gaussian_measure
    targets = [Target("noisestab.verify", "gaussian_measure", "m"),
               Target("noisestab.verify", "no_such_function", "x")]
    with pytest.raises(AttributeError):
        with patched(Tracer(), targets):
            pass
    assert noisestab.verify.gaussian_measure is original


# ---------------------------------------------------------------------------
# checks and counting
# ---------------------------------------------------------------------------

def _report():
    return {"config": {"sampling": {"seed": 3}},
            "results": [{"name": "c", "verdict": "holds",
                         "lhs": {"value": 0.25, "se": 0.01},
                         "rhs": {"value": 0.5, "se": 0.01},
                         "margin_se": 17.7}],
            "runtime_seconds": 1.5, "timestamp": "2020-01-01T00:00:00"}


def test_perturbed_report_trips_fingerprint_check():
    reference = report_fingerprint(_report())
    volatile = _report()
    volatile["runtime_seconds"] = 9.0
    volatile["timestamp"] = "2030-01-01T00:00:00"
    assert workloads.common_problems(0, volatile, reference) == []
    perturbed = _report()
    perturbed["results"][0]["lhs"]["value"] = 0.2500000000000001
    assert workloads.common_problems(0, perturbed, reference) == [
        "report fingerprint differs from the first pass"]


def test_violated_verdict_and_exit_code_fail():
    report = _report()
    report["results"][0]["verdict"] = "violated"
    problems = workloads.common_problems(2, report, None)
    assert problems == ["exit code 2", "c: violated"]
    assert workloads.common_problems(1, None, None) == [
        "exit code 1", "no report written"]


_CONDITION = """[experiment]
kind = condition-check

[sampling]
seed = 5

[sweep]
grids = 2
k_max = 3
"""


def test_failed_ratio_counts_operations(tmp_path: Path):
    wl = workloads.Workload(
        "fake", "test",
        calls=lambda seed: [workloads.Call("a", "condition-check", _CONDITION),
                            workloads.Call("b", "condition-check", _CONDITION)],
        check=lambda call, report: ["bad b"] if call.name == "b" else [],
        se_ref=1.0,
        extra_ops=lambda seed: [("ok", lambda: []),
                                ("bad", lambda: ["one", "two"]),
                                ("raises", lambda: 1 / 0)])
    runner = run.Runner(wl, 1, tmp_path)
    first = runner.run_pass()
    assert run.failure_counts(first.ops) == (5, 3)
    assert "ZeroDivisionError" in first.ops[-1].problems[0]
    runner.references["a"] = b"another report"
    second = runner.run_pass()
    assert run.failure_counts(first.ops + second.ops) == (10, 7)
    traced = runner.run_pass(Tracer())
    assert run.failure_counts(traced.ops) == (2, 2)  # no library checks
    assert run.failure_counts([]) == (0, 0)


def test_ou_scan_checks():
    call = workloads.Call("exit-time", "exit-time", "")
    good = {"results": [{"lhs": {"value": 0.29}, "rhs": {"value": 0.36}},
                        {"lhs": {"value": 0.02}, "rhs": {"value": 0.13}}]}
    assert workloads.WORKLOADS["ou-scan"].check(call, good) == []
    flat = {"results": [{"lhs": {"value": 0.29}, "rhs": {"value": 0.36}},
                        {"lhs": {"value": 0.29}, "rhs": {"value": 1.5}}]}
    assert len(workloads.WORKLOADS["ou-scan"].check(call, flat)) == 3


def test_j_value_check_rejects_an_offset(monkeypatch):
    assert workloads.j_value_check(0.5, 11) == []
    real = workloads.j_value

    def shifted(q, target_se, seed):
        est = real(q, target_se, seed)
        return dataclasses.replace(
            est, value=est.value + 2 * workloads.J_CHECK_SES * est.std_error)

    monkeypatch.setattr(workloads, "j_value", shifted)
    assert len(workloads.j_value_check(0.5, 11)) == 1


def test_largest_comparison_se_reads_the_margin_denominator():
    assert workloads.largest_comparison_se([_report()]) == pytest.approx(
        0.25 / 17.7)
    assert workloads.largest_comparison_se([{"results": [{"name": "row"}]}]) \
        is None


# ---------------------------------------------------------------------------
# inputs and the benchmark definition
# ---------------------------------------------------------------------------

def test_configs_come_from_the_seed_only():
    from noisestab.config import parse_config
    for wl in workloads.WORKLOADS.values():
        a, b, c = wl.calls(4), wl.calls(4), wl.calls(5)
        assert a == b
        assert [x.config for x in a] != [x.config for x in c]
        for call in a:
            cfg = parse_config(call.config)
            assert cfg.kind == call.kind
            assert cfg.sampling.seed > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert len({n for n, _ in layers.PER_LAYER}) == len(layers.PER_LAYER)


def test_layer_metrics_cover_per_layer_list():
    values = layers.layer_metrics({}, {}, 1, overhead_s=0.0, cpu_s=0.0)
    assert list(values) == [n for n, _ in layers.PER_LAYER]


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile_report([1.0] * 10).startswith("no percentile")
    assert run.percentile_report([float(i) for i in range(20)]) \
        .startswith("p50 ")


def test_thread_caps(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "64")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    caps = run.cap_threads(2)
    assert caps["OMP_NUM_THREADS"] == 2
    assert caps["OPENBLAS_NUM_THREADS"] == 1
    assert caps["MKL_NUM_THREADS"] == 2
