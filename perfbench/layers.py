"""Which of noisestab's functions a traced pass wraps, and how spans and
counts become the per-layer metrics.

Every wrapped name is public and imported by the module that calls it.
``gaussian_measure`` runs its Monte Carlo through the private
``geometry._contains``, so that time counts under ``geometry.measure_s``,
not under ``geometry.contains_s``.
"""
from __future__ import annotations

import os

import numpy as np

from tracing import NameTotals, Target

# Leaf kinds reported separately by geometry.contains; every other set
# expression is "composite".
_LEAF_KINDS = {"Ball": "ball", "HalfSpace": "halfspace"}
CONTAINS_KINDS = ("ball", "halfspace", "composite")
QMC_DIMS = (1, 2, 3)
HESSIAN_KS = (3,)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _contains_kind(args, kwargs) -> str:
    return _LEAF_KINDS.get(type(_arg(args, kwargs, 0, "s")).__name__,
                           "composite")


def _count_contains(c, args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    c[f"geometry.contains.{_contains_kind(args, kwargs)}_points"] += (
        x.shape[0] if getattr(x, "ndim", 1) == 2 else 1)


def _count_path_steps(c, args, kwargs, result):
    # exit_survival_pair and occupation_pair share (.., steps, paths, seed).
    c["ousim.path_steps"] += (int(_arg(args, kwargs, 3, "steps"))
                              * int(_arg(args, kwargs, 4, "paths")))


def _count_kron(c, args, kwargs, result):
    sampler = args[0]
    c["ousim.kron_points"] += int(_arg(args, kwargs, 1, "count")) * sampler.m.k


def _count_measure(c, args, kwargs, result):
    c["geometry.measure_exact"] += int(result.samples == 0)


def _count_qmc(c, args, kwargs, result):
    c["orthant.cap_hits"] += int(bool(result.cap_hit))


def _count_shift_means(c, args, kwargs, result):
    means, n_used = result
    c["orthant.qmc_points"] += int(n_used) * len(means)


def _count_quantile(c, args, kwargs, result):
    c["gaussian.quantile_points"] += int(np.size(_arg(args, kwargs, 0, "p")))


def _count_bytes(index):
    def count(c, args, kwargs, result):
        c["report.bytes"] += os.path.getsize(_arg(args, kwargs, index, "path"))
    return count


TARGETS = (
    Target("noisestab.cli", "load_config", "config.load"),
    Target("noisestab.cli", "run_experiment", "verify.run_experiment"),
    Target("noisestab.cli", "write_json", "report.write", _count_bytes(1)),
    Target("noisestab.cli", "write_csv", "report.write", _count_bytes(2)),
    Target("noisestab.verify", "exit_survival_pair", "ousim.exit_pair",
           _count_path_steps),
    Target("noisestab.verify", "occupation_pair", "ousim.occupation_pair",
           _count_path_steps),
    Target("noisestab.verify", "semigroup_apply", "ousim.semigroup"),
    Target("noisestab.verify", "gaussian_measure", "geometry.measure",
           _count_measure),
    Target("noisestab.ousim", "KroneckerSampler.sample", "ousim.kron_sample",
           _count_kron),
    Target("noisestab.geometry", "contains",
           lambda a, k: "geometry.contains." + _contains_kind(a, k),
           _count_contains),
    Target("noisestab.jfunc", "hadamard_hessian",
           lambda a, k: f"jfunc.hessian.k{_arg(a, k, 0, 'q').k}"),
    Target("noisestab.jfunc", "j_value", "jfunc.j_value"),
    Target("noisestab.jfunc", "j_grad", "jfunc.j_grad"),
    Target("noisestab.orthant", "orthant_qmc", "orthant.qmc", _count_qmc),
    Target("noisestab.orthant", "orthant_qmc_shift_means",
           lambda a, k: f"orthant.shift_means.d{_arg(a, k, 0, 'q').k}",
           _count_shift_means),
    Target("noisestab.gaussian", "std_normal_quantile", "gaussian.quantile",
           _count_quantile),
    Target("noisestab.seeding", "derive_rng", "seeding.derive_rng"),
)

# (metric, unit), in the order printed; BENCHMARK.json lists the same.
PER_LAYER = (
    [("ousim.exit_pair_s", "s"), ("ousim.exit_pair_calls", "count"),
     ("ousim.occupation_pair_s", "s"), ("ousim.scan_self_s", "s"),
     ("ousim.path_steps", "count"), ("ousim.ns_per_path_step", "ns"),
     ("geometry.contains_s", "s"), ("geometry.contains_calls", "count"),
     ("geometry.contains_points", "count")]
    + [(f"geometry.contains.{k}_ns_per_point", "ns") for k in CONTAINS_KINDS]
    + [("geometry.measure_s", "s"), ("geometry.measure_calls", "count"),
       ("geometry.measure_exact_ratio", "ratio"),
       ("ousim.kron_sample_s", "s"), ("ousim.kron_points", "count"),
       ("ousim.semigroup_s", "s"), ("ousim.semigroup_calls", "count"),
       ("orthant.qmc_s", "s"), ("orthant.qmc_calls", "count"),
       ("orthant.qmc_rounds", "count"), ("orthant.qmc_points", "count"),
       ("orthant.qmc_ns_per_point", "ns"), ("orthant.cap_hits", "count")]
    + [(f"orthant.shift_means_s.d{m}", "s") for m in QMC_DIMS]
    + [("gaussian.quantile_s", "s"), ("gaussian.quantile_points", "count"),
       ("gaussian.quantile_ns_per_point", "ns")]
    + [(f"jfunc.hessian_s.k{k}", "s") for k in HESSIAN_KS]
    + [("jfunc.hessian_calls", "count"), ("jfunc.j_value_s", "s"),
       ("jfunc.j_grad_s", "s"), ("jfunc.self_s", "s"),
       ("seeding.derive_rng_calls", "count"), ("seeding.derive_rng_s", "s"),
       ("config.load_s", "s"), ("report.write_s", "s"),
       ("report.bytes", "B"), ("verify.self_s", "s"), ("cli.cpu_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def layer_metrics(totals: dict[str, NameTotals], counters, passes: int,
                  overhead_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, from span totals and counts
    summed over ``passes`` traced passes."""
    def tot(*names):
        return sum(totals[n].total_ns for n in names if n in totals) / 1e9 / passes

    def selfs(*names):
        return sum(totals[n].self_ns for n in names if n in totals) / 1e9 / passes

    def calls(*names):
        return sum(totals[n].calls for n in names if n in totals) / passes

    def count(name):
        return counters.get(name, 0) / passes

    def ns_per(seconds, points):
        return seconds * 1e9 / points if points else 0.0

    contains = [f"geometry.contains.{k}" for k in CONTAINS_KINDS]
    scans = ("ousim.exit_pair", "ousim.occupation_pair")
    shift_means = [f"orthant.shift_means.d{m}" for m in QMC_DIMS]
    jfunc = [n for n in totals if n.startswith("jfunc.")]
    m = {
        "ousim.exit_pair_s": tot("ousim.exit_pair"),
        "ousim.exit_pair_calls": calls("ousim.exit_pair"),
        "ousim.occupation_pair_s": tot("ousim.occupation_pair"),
        "ousim.scan_self_s": selfs(*scans),
        "ousim.path_steps": count("ousim.path_steps"),
        "ousim.ns_per_path_step": ns_per(tot(*scans),
                                         count("ousim.path_steps")),
        "geometry.contains_s": tot(*contains),
        "geometry.contains_calls": calls(*contains),
        "geometry.contains_points": sum(count(f"{n}_points")
                                        for n in contains),
    }
    for name in contains:
        m[f"{name}_ns_per_point"] = ns_per(tot(name), count(f"{name}_points"))
    measure_calls = calls("geometry.measure")
    m.update({
        "geometry.measure_s": tot("geometry.measure"),
        "geometry.measure_calls": measure_calls,
        "geometry.measure_exact_ratio":
            count("geometry.measure_exact") / measure_calls
            if measure_calls else 0.0,
        "ousim.kron_sample_s": tot("ousim.kron_sample"),
        "ousim.kron_points": count("ousim.kron_points"),
        "ousim.semigroup_s": tot("ousim.semigroup"),
        "ousim.semigroup_calls": calls("ousim.semigroup"),
        "orthant.qmc_s": tot("orthant.qmc"),
        "orthant.qmc_calls": calls("orthant.qmc"),
        "orthant.qmc_rounds": calls(*shift_means),
        "orthant.qmc_points": count("orthant.qmc_points"),
        "orthant.qmc_ns_per_point": ns_per(tot(*shift_means),
                                           count("orthant.qmc_points")),
        "orthant.cap_hits": count("orthant.cap_hits"),
    })
    for dim, name in zip(QMC_DIMS, shift_means):
        m[f"orthant.shift_means_s.d{dim}"] = tot(name)
    m.update({
        "gaussian.quantile_s": tot("gaussian.quantile"),
        "gaussian.quantile_points": count("gaussian.quantile_points"),
        "gaussian.quantile_ns_per_point": ns_per(
            tot("gaussian.quantile"), count("gaussian.quantile_points")),
    })
    for k in HESSIAN_KS:
        m[f"jfunc.hessian_s.k{k}"] = tot(f"jfunc.hessian.k{k}")
    m.update({
        "jfunc.hessian_calls": calls(*(n for n in jfunc
                                       if n.startswith("jfunc.hessian."))),
        "jfunc.j_value_s": tot("jfunc.j_value"),
        "jfunc.j_grad_s": tot("jfunc.j_grad"),
        "jfunc.self_s": selfs(*jfunc),
        "seeding.derive_rng_calls": calls("seeding.derive_rng"),
        "seeding.derive_rng_s": tot("seeding.derive_rng"),
        "config.load_s": tot("config.load"),
        "report.write_s": tot("report.write"),
        "report.bytes": count("report.bytes"),
        "verify.self_s": selfs("verify.run_experiment"),
        "cli.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(t.calls for t in totals.values()) / passes,
    })
    return m
