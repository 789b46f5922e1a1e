"""Print every benchmark metric by name, with its unit, for each workload.

    python3 perfbench/report.py [--seed N] [--trace]

Runs ``run.py`` once per workload (``BENCHMARK.json`` order) and prints
``workload metric value unit`` lines: the end-to-end metrics plus
``failed_frac`` (failed jobs / attempted jobs). ``--trace`` adds a traced run
per workload and prints its per-layer metrics. Every run measures for
``BENCHMARK.json``'s ``run_seconds``.
"""

import argparse
import json
import subprocess
import sys

from run import BENCH, ROOT, load_benchmark, load_spec


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=load_spec()["default_seed"])
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args()
    correct = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ((0, 1) if args.trace else (0,)):
            result = run_one(workload, args.seed, bench["run_seconds"], trace)
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload:16s} {name:48s} {metric['value']:.6g} {metric['unit']}")
            if not trace:
                frac = result["failed"] / result["attempted"]
                print(f"{workload:16s} {'failed_frac':48s} {frac:.6g} ratio "
                      f"({result['failed']}/{result['attempted']} jobs)")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
