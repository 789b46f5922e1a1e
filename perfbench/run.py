"""floqex benchmark: run a workload's jobs as fresh CLI processes and report metrics.

    python3 perfbench/run.py --workload figures-l256 --seed 1 --seconds 16 --trace 0

A pass runs every job of the workload one after another, each a fresh
``python -m floqex.cli run <scenario> --grid L`` process, so every pass pays
for import and grid construction as a user does. Passes repeat until their
summed wall time reaches ``--seconds``. The seed draws the physical
parameters every job receives (ranges in ``workloads.json``); axes and grid
sizes are fixed, so the work per pass does not depend on the seed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced passes with passes whose jobs run under
``traced_job.py`` and reports the per-layer metrics. Outputs are checked
(``checks.py``) and a job whose output fails counts as failed. Human-readable
lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".perfbench_out"

# Time-to-ready samples taken after each untraced pass, per second of that pass,
# so every workload gets about 30 samples spread over its run.
SETUP_PROBES_PER_S = 1.5
# A job still running after this long is killed and counts as failed.
JOB_TIMEOUT_S = 150.0
EXIT_USAGE = 2


def load_spec() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Job:
    name: str
    scenario: str
    argv: list
    sets: dict


def _draw(rng: random.Random, ranges: dict) -> dict:
    return {key: round(rng.uniform(lo, hi), 6) for key, (lo, hi) in sorted(ranges.items())}


def plan(spec: dict, workload: str, seed: int, grid: int | None = None):
    """Jobs of ``workload`` with their seed-drawn ``--set`` values, the grid, and the rng.

    Raises ``RuntimeError`` when fewer CPUs are usable than the workload's
    ``workers``, rather than quietly measuring a smaller pool. ``grid``
    overrides the workload's grid size (the benchmark's own tests use a tiny one). The returned rng continues the seed's stream for the checks.
    """
    wl = spec["workloads"][workload]
    grid = wl["grid"] if grid is None else grid
    workers = wl["workers"]
    usable = len(os.sched_getaffinity(0))
    if usable < workers:
        raise RuntimeError(f"{workload} needs {workers} usable CPUs, this process has {usable}")
    rng = random.Random(seed)
    common = _draw(rng, spec["draws"])
    jobs = []
    for entry in wl["jobs"]:
        sets = {**common, **entry.get("set", {}), **_draw(rng, entry.get("draws", {}))}
        argv = ["run", entry["scenario"], "--grid", str(grid), "--workers", str(workers)]
        for key, value in sets.items():
            argv += ["--set", f"{key} = {value!r}"]
        jobs.append(Job(entry.get("name", entry["scenario"]), entry["scenario"], argv, sets))
    return jobs, grid, rng


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Scan-level parallelism comes only from --workers; keep BLAS pools single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Launch:
    start: float
    end: float
    code: int
    max_rss_kb: int
    cpu_s: float


def launch(cmd: list, log_path: Path) -> Launch:
    """Run ``cmd`` to completion, logging its output; rusage comes from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(start, end, proc.returncode, usage.ru_maxrss,
                  usage.ru_utime + usage.ru_stime)


@dataclass
class PassRecord:
    traced: bool
    wall_s: float = 0.0
    max_rss_kb: int = 0
    cpu_s: float = 0.0
    scenario_wall_s: dict = field(default_factory=dict)
    failed: int = 0
    layers: dict = field(default_factory=dict)


class Runner:
    """Runs passes of one workload and checks every job's output."""

    def __init__(self, jobs: list, grid: int, rng: random.Random, ref_root: Path | None,
                 work_dir: Path):
        self.jobs = jobs
        self.grid = grid
        self.rng = rng
        self.ref_root = ref_root
        self.work_dir = work_dir
        self.verdicts = {}
        self.problems = []

    def setup_times(self, count: int) -> list:
        """Launch-to-exit times of fresh processes that import the CLI and parse configs."""
        cmd = [sys.executable, str(BENCH / "ready.py"), json.dumps([j.argv for j in self.jobs])]
        times = []
        for _ in range(count):
            run = launch(cmd, self.work_dir / "ready.log")
            if run.code != 0:
                raise RuntimeError("setup probe failed:\n"
                                   + (self.work_dir / "ready.log").read_text())
            times.append(run.end - run.start)
        return times

    def run_pass(self, pass_id: int, traced: bool) -> PassRecord:
        pass_dir = self.work_dir / f"pass{pass_id}"
        pass_dir.mkdir(parents=True)
        record = PassRecord(traced=traced)
        runs = []
        for j, job in enumerate(self.jobs):
            out = pass_dir / f"job{j}"
            cli = [*job.argv, "--out", str(out)]
            if traced:
                cmd = [sys.executable, str(BENCH / "traced_job.py"), "--spans",
                       str(pass_dir / f"job{j}.spans.json"), "--pass-id", str(pass_id),
                       "--", *cli]
            else:
                cmd = [sys.executable, "-m", "floqex.cli", *cli]
            runs.append(launch(cmd, pass_dir / f"job{j}.log"))
        record.wall_s = runs[-1].end - runs[0].start
        record.max_rss_kb = max(r.max_rss_kb for r in runs)
        record.cpu_s = sum(r.cpu_s for r in runs)
        for j, (job, run) in enumerate(zip(self.jobs, runs)):
            wall = record.scenario_wall_s.get(job.scenario, 0.0)
            record.scenario_wall_s[job.scenario] = wall + (run.end - run.start)
            if not self._job_ok(j, job, run, pass_dir):
                record.failed += 1
            if traced:
                self._add_spans(record, pass_dir / f"job{j}.spans.json")
        shutil.rmtree(pass_dir)
        return record

    def _job_ok(self, j: int, job: Job, run: Launch, pass_dir: Path) -> bool:
        out = pass_dir / f"job{j}"
        if run.code != 0:
            log = (pass_dir / f"job{j}.log").read_text(errors="replace")
            self.problems.append(f"{job.name}: exit code {run.code}: {log.strip()[-400:]}")
            return False
        key = (j, _digest(out))
        if key not in self.verdicts:
            ref_dir = None if self.ref_root is None else self.ref_root / job.name
            found = checks.check_job(job.scenario, out, job.sets, self.grid, self.rng, ref_dir)
            self.verdicts[key] = found
            self.problems += [f"{job.name}: {p}" for p in found]
        return not self.verdicts[key]

    @staticmethod
    def _add_spans(record: PassRecord, path: Path):
        if not path.exists():
            return
        for name, totals in spans.summarize(json.loads(path.read_text())).items():
            acc = record.layers.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0,
                                                  "count": 0})
            for key, value in totals.items():
                acc[key] += value


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(runner: Runner, seconds: float, trace: bool):
    """Passes until their summed wall time reaches ``seconds``; returns (passes, setup times).

    At least one pass runs. Untraced runs take set-up samples after each pass
    (``SETUP_PROBES_PER_S`` per second of the pass), so set-up time is sampled
    across the whole run rather than in one burst. With ``trace`` passes alternate untraced/traced,
    starting untraced, at least one of each runs, and set-up is not sampled.
    """
    passes = []
    setup = []
    used = 0.0
    if not trace:
        runner.setup_times(1)  # warm-up: bytecode compilation and file cache
    while used < seconds or len(passes) < (2 if trace else 1):
        record = runner.run_pass(len(passes), traced=trace and len(passes) % 2 == 1)
        passes.append(record)
        used += record.wall_s
        if not trace:
            setup += runner.setup_times(max(1, round(SETUP_PROBES_PER_S * record.wall_s)))
    return passes, setup


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(passes: list, setup: list) -> dict:
    return {
        "wall_s": _median([p.wall_s for p in passes]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([p.max_rss_kb / 1024.0 for p in passes]),
    }


def scenario_names(spec: dict) -> list:
    return sorted({job["scenario"] for wl in spec["workloads"].values() for job in wl["jobs"]})


def per_layer_metrics(passes: list, spec: dict) -> dict:
    """Per-pass means over traced passes; process/scenario times from untraced ones."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {}
    for name in spans.span_names():
        acc = [p.layers.get(name, {}) for p in traced]
        metrics[f"{name}.calls"] = statistics.fmean(a.get("calls", 0) for a in acc)
        metrics[f"{name}.self_s"] = statistics.fmean(a.get("self_s", 0.0) for a in acc)
        metrics[f"{name}.errors"] = statistics.fmean(a.get("errors", 0) for a in acc)
        if name in spans.COUNTERS:
            count_name = spans.COUNTERS[name][0]
            metrics[f"{name}.{count_name}"] = statistics.fmean(a.get("count", 0) for a in acc)
    for scenario in scenario_names(spec):
        metrics[f"scenarios.{scenario}.wall_s"] = _median(
            [p.scenario_wall_s.get(scenario, 0.0) for p in plain])
    untraced_wall = _median([p.wall_s for p in plain])
    metrics["process.cpu_s"] = _median([p.cpu_s for p in plain])
    metrics["process.wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = _median([p.wall_s for p in traced]) / untraced_wall - 1.0
    return metrics


def _tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _describe(name: str, samples: list, unit: str) -> str:
    tail = _tail_percentile(samples)
    extra = f", p{tail[0]} {tail[1]:.6g} {unit}" if tail else ", no tail percentile below 11"
    return f"# {name}: median {_median(samples):.6g} {unit} over {len(samples)} samples{extra}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 grid: int | None = None) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    spec = load_spec()
    jobs, grid_l, rng = plan(spec, workload, seed, grid)
    ref_root = REFERENCE / f"l{grid_l}" if grid is None and seed == spec["default_seed"] \
        else None
    work_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(jobs, grid_l, rng, ref_root, work_dir)
        if trace:
            check = launch([sys.executable, str(BENCH / "traced_job.py"), "--check"],
                           work_dir / "check.log")
            if check.code != 0:
                raise RuntimeError("trace wrappers cannot be installed:\n"
                                   + (work_dir / "check.log").read_text())
        passes, setup = measure(runner, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(jobs) * len(passes)
    failed = sum(p.failed for p in passes)
    for problem in runner.problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(f"# workload {workload}, seed {seed}, {len(passes)} passes of {len(jobs)} jobs, "
          f"failed_frac {failed / attempted:.6g}")
    if trace:
        metrics = per_layer_metrics(passes, spec)
    else:
        metrics = end_to_end_metrics(passes, setup)
        print(_describe("wall_s", [p.wall_s for p in passes], "s"))
        print(_describe("setup_s", setup, "s"))
    return {"correct": failed == 0 and not runner.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def declared(result: dict, trace: bool) -> dict:
    """Restrict metrics to BENCHMARK.json's list for the mode and attach units."""
    bench = load_benchmark()
    out = {}
    for entry in bench["per_layer" if trace else "end_to_end"]:
        if entry["name"] not in result["metrics"]:
            raise RuntimeError(f"BENCHMARK.json declares {entry['name']!r}, which the run "
                               "does not produce")
        out[entry["name"]] = {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
    return {**result, "metrics": out}


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so a running job is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description="floqex benchmark (see module docstring)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="parameter seed (default: workloads.json default_seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "floqex" / "cli.py").is_file():
        print(f"perfbench: no floqex sources under {SRC}", file=sys.stderr)
        return EXIT_USAGE
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return EXIT_USAGE
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = load_benchmark()["run_seconds"] if args.seconds is None else args.seconds
    try:
        result = declared(run_workload(args.workload, seed, seconds, bool(args.trace)),
                          bool(args.trace))
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
