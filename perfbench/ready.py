"""Time-to-ready probe: import the CLI, parse each job's configuration, exit.

    python3 perfbench/ready.py '[["run", "fig2", "--grid", "256", "--set", "u11 = 1.6"]]'

The benchmark times this process from launch to exit as ``setup_s``.
"""

import json
import sys

from floqex.cli import build_parser
from floqex.config import parse_config


def main(argvs):
    for argv in argvs:
        args = build_parser().parse_args(argv)
        parse_config("", overrides=[*args.set, f"grid = {args.grid}",
                                    f"workers = {args.workers}"])


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
