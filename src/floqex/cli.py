"""Command-line entry point: ``floqex run <scenario> [options]``.

Exit codes: 0 on success, 2 on configuration errors, 3 on solver failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .exceptions import ConfigError, FloqexError
from .scenarios import SCENARIOS, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqex",
        description="Screened Floquet observables of a driven cavity-coupled "
                    "two-band Hubbard model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario and write CSV/JSON tables")
    run.add_argument("scenario", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    run.add_argument("--config", help="flat key=value configuration file")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a single configuration key (repeatable)")
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.add_argument("--grid", type=int, help="momentum grid size l (l x l mesh)")
    run.add_argument("--seed", type=int, help="seed for randomized scenarios")
    run.add_argument("--workers", type=int,
                     help="accepted and validated (>= 1) but has no effect: scans run in one thread")
    return parser


def _load(args) -> tuple:
    text = ""
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text()
    flags = [(f"--{key}", f"{key} = {value}") for key in ("grid", "seed", "workers")
             if (value := getattr(args, key)) is not None]
    return parse_config(text, overrides=args.set, flags=flags)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, opts = _load(args)
        paths = run_scenario(args.scenario, params, opts, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FloqexError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
