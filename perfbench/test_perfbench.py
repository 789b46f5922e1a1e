"""Fast tests of the benchmark itself, at tiny grids.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import checks
import run
import spans

TINY_L = 16


def _bench():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.load_spec()["workloads"]))
def test_smoke_pass(workload):
    result = run.run_workload(workload, seed=5, seconds=0, trace=False, grid=TINY_L)
    jobs = run.load_spec()["workloads"][workload]["jobs"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(jobs)
    assert set(result["metrics"]) == {m["name"] for m in _bench()["end_to_end"]}
    assert all(value > 0 for value in result["metrics"].values())


def test_traced_pass_reports_every_declared_layer_metric():
    result = run.run_workload("spectrum-l512", seed=5, seconds=0, trace=True, grid=TINY_L)
    metrics = result["metrics"]
    assert result["correct"]
    assert {m["name"] for m in _bench()["per_layer"]} == set(metrics)
    assert metrics["spectra.absorbance.calls"] == 1
    assert metrics["spectra.absorbance.freqs"] == 1301
    assert metrics["lattice.occupations.points"] == TINY_L * TINY_L
    assert metrics["screening.solve_bound_state.calls"] == 0
    assert metrics["scenarios.absorbance.wall_s"] > 0
    assert metrics["scenarios.fig2.wall_s"] == 0


def test_plan_is_a_function_of_the_seed():
    spec = run.load_spec()
    first, _, _ = run.plan(spec, "resonance-l4096", 5)
    again, _, _ = run.plan(spec, "resonance-l4096", 5)
    other, _, _ = run.plan(spec, "resonance-l4096", 6)
    assert [j.argv for j in first] == [j.argv for j in again]
    assert [j.argv for j in first] != [j.argv for j in other]
    undoped, doped = first
    assert undoped.sets["doping"] == 0.0
    assert 0.02 <= doped.sets["doping"] <= 0.08
    for key, (lo, hi) in spec["draws"].items():
        assert lo <= doped.sets[key] <= hi and undoped.sets[key] == doped.sets[key]


def _job_output(tmp_path, scenario, seed=5):
    spec = run.load_spec()
    workload = {"resonance": "resonance-l4096", "absorbance": "spectrum-l512"}[scenario]
    jobs, grid, _ = run.plan(spec, workload, seed, grid=TINY_L)
    job = jobs[-1]
    out = tmp_path / scenario
    launched = run.launch([sys.executable, "-m", "floqex.cli", *job.argv, "--out", str(out)],
                          tmp_path / f"{scenario}.log")
    assert launched.code == 0
    return job, out


def _rewrite_column(path, name, fn):
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(name)
    for r in range(1, len(lines)):
        cells = lines[r].split(",")
        cells[i] = repr(fn(float(cells[i])))
        lines[r] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checks_accept_then_reject_a_corrupted_resonance(tmp_path):
    job, out = _job_output(tmp_path, "resonance")
    assert checks.check_job("resonance", out, job.sets, TINY_L, random.Random(0), None) == []
    _rewrite_column(out / "resonance.csv", "omega_ex", lambda w: w - 1e-3)
    found = checks.check_job("resonance", out, job.sets, TINY_L, random.Random(0), None)
    assert any("F(omega_ex)" in p for p in found)


def test_checks_reject_a_corrupted_absorbance(tmp_path):
    job, out = _job_output(tmp_path, "absorbance")
    assert checks.check_job("absorbance", out, job.sets, TINY_L, random.Random(0), None) == []
    _rewrite_column(out / "absorbance.csv", "alpha_raw", lambda a: a * (1 + 1e-6))
    found = checks.check_job("absorbance", out, job.sets, TINY_L, random.Random(0), None)
    assert any("alpha_raw" in p for p in found)


def test_checks_reject_a_missing_row(tmp_path):
    job, out = _job_output(tmp_path, "absorbance")
    path = out / "absorbance.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    found = checks.check_job("absorbance", out, job.sets, TINY_L, random.Random(0), None)
    assert found and "rows" in found[0]


def test_checks_reject_a_reference_mismatch(tmp_path):
    job, out = _job_output(tmp_path, "resonance")
    ref = tmp_path / "ref"
    ref.mkdir()
    shutil.copyfile(out / "resonance.csv", ref / "resonance.csv")
    assert checks.compare_reference(out, ref, ["resonance"]) == []
    _rewrite_column(ref / "resonance.csv", "binding", lambda b: b * (1 + 1e-5))
    assert checks.compare_reference(out, ref, ["resonance"])
    _rewrite_column(ref / "resonance.csv", "binding", lambda b: float("nan"))
    assert checks.compare_reference(out, ref, ["resonance"])


def test_wrappers_replace_every_imported_copy():
    # Installing rebinds library globals, so it runs in a fresh interpreter.
    code = (
        "import sys, spans\n"
        "rec = spans.Recorder(0, ())\n"
        "assert spans.install(rec) > 0\n"
        "names = {n.split('.')[-1] for n in spans.span_names()}\n"
        "for mod in [m for k, m in sys.modules.items() if k.startswith('floqex')]:\n"
        "    for key, value in vars(mod).items():\n"
        "        if key in names and callable(value) and not isinstance(value, type):\n"
        "            assert hasattr(value, '__wrapped__'), (mod.__name__, key)\n"
        "from floqex.lattice import BZGrid\n"
        "from floqex.scan import ScanResult\n"
        "assert hasattr(BZGrid.square, '__wrapped__')\n"
        "assert hasattr(ScanResult.write, '__wrapped__')\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=run._env(), cwd=run.BENCH,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(spans, "TARGETS", {"lattice": ["no_such_function"]})
    with pytest.raises(spans.MissingTarget, match="no_such_function"):
        spans.install(spans.Recorder(0, ()))


def test_self_time_subtracts_the_union_of_children():
    span = {"pass": 0, "error": False, "count": None}
    records = [
        {**span, "id": 1, "name": "outer", "start": 0.0, "end": 10.0, "parent": None},
        {**span, "id": 2, "name": "inner", "start": 1.0, "end": 4.0, "parent": 1},
        {**span, "id": 3, "name": "inner", "start": 3.0, "end": 6.0, "parent": 1},
    ]
    totals = spans.summarize(records)
    assert totals["outer"]["self_s"] == pytest.approx(5.0)
    assert totals["inner"] == {"calls": 2, "self_s": pytest.approx(6.0), "errors": 0,
                               "count": 0}


def test_spans_on_worker_threads_take_the_open_run_as_parent():
    rec = spans.Recorder(3, (ValueError,))
    leaf = rec.wrap("lattice.band_gap", lambda: threading.get_ident())

    def failing():
        raise ValueError

    bad = rec.wrap("screening.ladder_sum", failing)

    def scenario():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(4)))
        with pytest.raises(ValueError):
            bad()

    rec.wrap(spans.ANCHOR, scenario)()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s["name"], []).append(s)
    (anchor,) = by_name[spans.ANCHOR]
    assert all(s["parent"] == anchor["id"] for s in by_name["lattice.band_gap"])
    assert by_name["screening.ladder_sum"][0]["error"]
    assert {s["pass"] for s in rec.spans} == {3}


def test_run_refuses_without_sources(tmp_path):
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum-l512",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
