"""Write the reference tables every default-seed run is compared against.

    python3 perfbench/make_reference.py

Runs each workload's jobs once at the default seed and copies their CSV
tables to ``reference/l<grid>/<job name>/``. Rerun only when a change is
meant to move the numbers, and say so where the change is recorded.
"""

import sys
import tempfile
from pathlib import Path

import checks
from run import REFERENCE, WORK, launch, load_spec, plan


def main() -> int:
    spec = load_spec()
    WORK.mkdir(exist_ok=True)
    written = {}
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in spec["workloads"]:
            jobs, grid, _ = plan(spec, workload, spec["default_seed"])
            for j, job in enumerate(jobs):
                out = Path(tmp) / f"{workload}-{j}"
                run = launch([sys.executable, "-m", "floqex.cli", *job.argv, "--out", str(out)],
                             Path(tmp) / f"{workload}-{j}.log")
                if run.code != 0:
                    print(f"{workload}/{job.name}: exit code {run.code}", file=sys.stderr)
                    return 1
                dest = REFERENCE / f"l{grid}" / job.name
                dest.mkdir(parents=True, exist_ok=True)
                for table in checks.expected_tables(job.scenario, grid):
                    csv = (out / f"{table}.csv").read_bytes()
                    target = dest / f"{table}.csv"
                    if target.exists() and written.get(target, csv) != csv:
                        print(f"{workload}/{job.name}: {table} differs from the table "
                              "another workload wrote for the same job", file=sys.stderr)
                        return 1
                    target.write_bytes(csv)
                    written[target] = csv
                print(f"{workload}/{job.name}: {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
