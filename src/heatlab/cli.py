"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import os
import sys

from .harness import SUBCOMMANDS, ExperimentConfig, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Run verification experiments and write plot-ready reports.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="key=value or JSON config file")
    parser.add_argument("--out", default="reports", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--threads", type=int, default=None, metavar="N",
                        help="use at most N CPUs (caps the CPU affinity for the run); "
                             "reports do not depend on N")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")

    config = (ExperimentConfig.from_file(args.config) if args.config
              else ExperimentConfig.default())
    if args.seed is not None:
        config = config.override(**{"mc.seed": args.seed})
    cpus = os.sched_getaffinity(0)
    if args.threads is not None:
        os.sched_setaffinity(0, sorted(cpus)[:args.threads])
    try:
        status, paths = run(args.subcommand, config, args.out)
    finally:
        os.sched_setaffinity(0, cpus)
    for p in paths:
        print(p)
    return status


if __name__ == "__main__":
    sys.exit(main())
