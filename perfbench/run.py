"""noisestab benchmark: drives the ``noisestab`` CLI in-process on configs
generated from a workload seed, checks every report, and prints metrics.

    python3 perfbench/run.py --workload ou-scan --seed 1 --seconds 50 --trace 0

Run it from the repository root. ``--trace 0`` times untraced passes and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Spans of a traced run are written to .perfbench_work/<workload>/spans.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("time_to_se_s", "s"),
              ("peak_rss_mb", "MB"))

# Fresh process: import the CLI module and parse every generated config.
_SETUP_CHILD = """\
import sys
src = sys.argv[1]
sys.path.insert(0, src)
import noisestab.cli
from noisestab.config import load_config
for path in sys.argv[2:]:
    load_config(path)
sys.exit(0 if noisestab.cli.__file__.startswith(src) else 3)
"""


class ProgramMissing(RuntimeError):
    pass


def use_program():
    """Import noisestab from this checkout's src/, and nowhere else."""
    if not (SRC / "noisestab" / "__init__.py").is_file():
        raise ProgramMissing(f"no noisestab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import noisestab.cli  # also compiles every module the CLI needs
    if not Path(noisestab.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"noisestab imported from {noisestab.__file__}")


def cap_threads(nproc: int) -> dict[str, int]:
    """Set each BLAS/OpenMP thread count to min(its value, nproc); an unset
    one becomes nproc. Must run before numpy is imported."""
    out = {}
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        out[var] = max(1, min(want, nproc))
        os.environ[var] = str(out[var])
    return out


def environment(nproc: int, threads: dict[str, int]) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": nproc, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "threads": threads}


def percentile_report(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    if p < 1:
        return f"no percentile has 10 samples beyond it (n={n})"
    v = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"p{p} {v:.4f} s (n={n})"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def clear_program_caches():
    """Empty the program's memo caches: each CLI call is a fresh process
    for a user, so it starts with them empty."""
    for name, mod in list(sys.modules.items()):
        if name == "noisestab" or name.startswith("noisestab."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _problems_of(check, *args) -> list[str]:
    """Run a check; an exception in it (say, a report of the wrong shape)
    is a problem too."""
    try:
        return check(*args)
    except Exception:
        return [traceback.format_exc().strip()]


@dataclass
class Op:
    name: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    seconds: float
    cpu_s: float
    ops: list[Op]
    reports: list[dict]


class Runner:
    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.calls = workload.calls(seed)
        self.references: dict[str, bytes] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for call in self.calls:
            path = workdir / f"{call.name}.cfg"
            path.write_text(call.config, encoding="utf-8")
            self.config_paths.append(path)

    def measure_setup(self) -> list[float]:
        """Wall time of fresh processes that import the CLI and load every
        generated config."""
        argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC),
                *map(str, self.config_paths)]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        return times

    def _check(self, call, code: int, out: Path, reports: list) -> list[str]:
        from noisestab.report import report_fingerprint
        from workloads import common_problems

        if not out.is_file():
            return common_problems(code, None, None)
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        reports.append(report)
        reference = self.references.setdefault(call.name,
                                               report_fingerprint(report))
        return (common_problems(code, report, reference)
                + self.workload.check(call, report))

    def run_pass(self, tracer=None) -> Pass:
        from noisestab.cli import cli_main

        seconds = cpu = 0.0
        ops, reports = [], []
        for call, cfg in zip(self.calls, self.config_paths):
            out = self.workdir / f"{call.name}.json"
            argv = [call.kind, "--config", str(cfg), "--out", str(out),
                    "--quiet"]
            out.unlink(missing_ok=True)
            clear_program_caches()
            op = Op(call.name)
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                if tracer is None:
                    code = cli_main(argv)
                else:
                    code = tracer.call("cli.main", cli_main, argv)
            except Exception:
                code = None
                op.problems.append(traceback.format_exc().strip())
            seconds += time.perf_counter() - t0
            cpu += _cpu_s() - cpu0
            if code is not None:
                op.problems += _problems_of(self._check, call, code, out,
                                            reports)
            ops.append(op)
        if tracer is None:  # library checks stay out of the trace
            for name, check in self.workload.extra_ops(self.seed):
                ops.append(Op(name, _problems_of(check)))
        return Pass(seconds, cpu, ops, reports)


def _loop(runner, seconds: float, tracer=None):
    """Untraced passes, or with a tracer alternating untraced and traced
    passes, until the next one would end after ``seconds``."""
    from tracing import RestoreError, patched
    from layers import TARGETS

    deadline = time.perf_counter() + seconds
    plain, traced_passes, extra_ops = [], [], []
    while True:
        plain.append(runner.run_pass())
        if tracer is not None:
            tracer.pass_id = len(traced_passes)
            try:
                with patched(tracer, TARGETS):
                    traced_passes.append(runner.run_pass(tracer))
            except RestoreError as exc:
                extra_ops.append(Op("trace-restore", [str(exc)]))
            tracer.pass_id = None
        step = statistics.median(p.seconds for p in plain)
        if tracer is not None:
            step += statistics.median(p.seconds for p in traced_passes)
            enough = len(traced_passes) >= MIN_TRACED_PASSES
        else:
            enough = len(plain) >= MIN_PASSES
        if enough and time.perf_counter() + step > deadline:
            return plain, traced_passes, extra_ops


def failure_counts(ops) -> tuple[int, int]:
    """(attempted, failed): an operation fails on any problem."""
    return len(ops), sum(1 for op in ops if op.problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    try:
        use_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, largest_comparison_se
    from tracing import Tracer, totals_by_name
    from layers import PER_LAYER, layer_metrics

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(nproc, threads)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(workload, args.seed, WORK / workload.name)
    setup = runner.measure_setup() if args.trace == 0 else []
    tracer = Tracer() if args.trace else None
    plain, traced, extra_ops = _loop(runner, args.seconds, tracer)

    ops = [op for p in plain + traced for op in p.ops] + extra_ops
    attempted, failed = failure_counts(ops)
    for op in ops:
        for problem in op.problems:
            print(f"FAILED {op.name}: {problem}")
    run_s = statistics.median(p.seconds for p in plain)

    if args.trace == 0:
        # No comparison at all means a failed call, already counted.
        se = largest_comparison_se(plain[0].reports) or workload.se_ref
        time_to_se = run_s * (se / workload.se_ref) ** 2
        values = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "time_to_se_s": time_to_se,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes",
            "run_s": f"median of {len(plain)} passes; "
                     + percentile_report([p.seconds for p in plain]),
            "time_to_se_s": f"run_s * ({se:.3g} / {workload.se_ref:g})^2",
            "peak_rss_mb": "ru_maxrss of this process",
        }
    else:
        tracer.write(str(runner.workdir / "spans.jsonl"))
        traced_s = statistics.median(p.seconds for p in traced)
        values = layer_metrics(
            totals_by_name(tracer.spans), tracer.counters, len(traced),
            overhead_s=traced_s - run_s,
            cpu_s=statistics.median(p.cpu_s for p in plain))
        units = dict(PER_LAYER)
        notes = {"trace.overhead_s": f"traced run_s {traced_s:.4f} - "
                                     f"untraced run_s {run_s:.4f}"}
    for name, value in values.items():
        note = notes.get(name, "")
        print(f"  {name:<38} {value:>16.6g} {units[name]:<6} {note}")
    print(f"  {'failed_ratio':<38} {failed / attempted:>16.6g} {'ratio':<6} "
          f"{failed} of {attempted} operations")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
