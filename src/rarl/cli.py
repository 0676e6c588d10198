"""Command-line entry point.

Usage: rarl {eval|control|plan|sweep|support-check} --config FILE --out DIR [--seed U64]

Exit codes: 0 success, 1 configuration error, 2 run failure, 3 support-check
acceptance failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    run_control_experiment,
    run_eval_experiment,
    run_planner,
    run_robustness_sweep,
    run_support_check,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rarl", description="robust average-reward RL toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "control", "plan", "sweep", "support-check"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override base_seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if args.seed is not None:
            cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "base_seed": args.seed})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "eval":
            summary = run_eval_experiment(cfg, args.out)
            print(f"baseline={summary['baseline_gain']:.6g} final={summary['final_mean']:.6g}")
        elif args.command == "control":
            summary = run_control_experiment(cfg, args.out)
            print(f"baseline={summary['baseline_gain']:.6g} final={summary['final_mean']:.6g}")
        elif args.command == "plan":
            doc = run_planner(cfg, args.out)
            print(f"gain={doc['gain']:.6g}")
        elif args.command == "sweep":
            run_robustness_sweep(cfg, args.out)
            print("sweep written")
        else:
            report, ok = run_support_check(cfg, args.out)
            for row in report["rows"]:
                print(f"{'PASS' if row['passed'] else 'FAIL'}  {row['check']}: {row['metric']}")
            if not ok:
                return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runner boundary: any failure maps to exit 2
        print(f"run failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
