"""Command-line verifier.

Exit codes: 0 when every verdict holds or lands in the equality band,
2 when any comparison is violated (report still written first), 1 on
usage or configuration errors.
"""
from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .config import ConfigError, EXPERIMENT_KINDS, _floats, \
    apply_overrides, load_config, parse_config
from .report import build_report, write_csv, write_json
from .verify import exit_code_for, run_experiment


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="noisestab",
                     description="Numerical verification of Gaussian "
                                 "noise-stability inequalities.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for kind in EXPERIMENT_KINDS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        sp.add_argument("--config", metavar="PATH",
                        help="experiment configuration file")
        sp.add_argument("--seed", type=int, metavar="U64")
        sp.add_argument("--samples", type=int, metavar="N")
        sp.add_argument("--paths", type=int, metavar="N")
        sp.add_argument("--steps", type=int, metavar="N")
        sp.add_argument("--tau", metavar="LIST",
                        help="comma-separated horizons")
        sp.add_argument("--out", metavar="PATH",
                        help="report destination (overrides config)")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="what --out receives (default json)")
        sp.add_argument("--quiet", action="store_true")
    return parser


def _print_results(out, quiet: bool):
    if quiet:
        return
    for row in out.results:
        if "verdict" in row:
            print(f"{row['name']}: {row['verdict']} "
                  f"(lhs={row['lhs']['value']:.6g} rhs={row['rhs']['value']:.6g} "
                  f"margin_se={row['margin_se']:.2f})")
        else:
            print(f"{row['name']}: "
                  + " ".join(f"{k}={v}" for k, v in row.items()
                             if k != "name"))


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_help()
        return 1

    try:
        cfg = load_config(args.config) if args.config else parse_config("")
        taus = None if args.tau is None else _floats(args.tau, "--tau")
        if taus == ():
            raise ConfigError("--tau: expected at least one horizon")
        cfg = apply_overrides(cfg, seed=args.seed, samples=args.samples,
                              paths=args.paths, steps=args.steps, taus=taus,
                              kind=args.command,
                              out=args.out if args.format == "json" else None)
        if cfg.kind != "condition-check" and not args.config:
            raise ConfigError(f"{cfg.kind} requires --config")

        start = time.perf_counter()
        out = run_experiment(cfg)
        runtime = time.perf_counter() - start

        report = build_report(cfg.resolved_dict(), out.results, runtime,
                              __version__)
        if cfg.output.report:
            write_json(report, cfg.output.report)
        if args.out and args.format == "csv":
            write_csv(out.csv_columns, out.csv_rows, args.out)
        elif cfg.output.csv:
            write_csv(out.csv_columns, out.csv_rows, cfg.output.csv)

        _print_results(out, args.quiet)
        code = exit_code_for(out.comparisons)
        if code != 0 and not args.quiet:
            print("violated verdict present: " +
                  "statistical or discretization artifact -- "
                  "increase samples/steps", file=sys.stderr)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
