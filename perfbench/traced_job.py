"""Run one ``floqex`` CLI job with spans recorded around the library's public functions.

    python3 perfbench/traced_job.py --spans SPANS.json --pass-id N -- run fig2 --grid 256
    python3 perfbench/traced_job.py --check

The job's exit code is the CLI's. Spans are written to ``--spans`` when the
job ends, whatever its outcome. ``--check`` only installs the wrappers and
exits; any target missing from the library exits with ``EXIT_MISSING``.
"""

from __future__ import annotations

import argparse
import sys

from spans import ERROR_NAMES, MissingTarget, Recorder, install

EXIT_MISSING = 70


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="where to write the recorded spans (JSON)")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--check", action="store_true",
                        help="install the wrappers, report, and exit")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for floqex.cli.main, after --")
    args = parser.parse_args(argv)

    import floqex.exceptions

    try:
        errors = tuple(getattr(floqex.exceptions, name) for name in ERROR_NAMES)
    except AttributeError as err:
        print(f"traced job: missing exception class: {err}", file=sys.stderr)
        return EXIT_MISSING
    recorder = Recorder(args.pass_id, errors)
    try:
        install(recorder)
    except MissingTarget as err:
        print(f"traced job: {err}", file=sys.stderr)
        return EXIT_MISSING
    if args.check:
        return 0

    import floqex.cli

    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    try:
        return floqex.cli.main(cli_args)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
