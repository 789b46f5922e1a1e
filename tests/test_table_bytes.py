"""Every table keeps its bytes: the SHA-256 of each file that a fixed set of runs
writes is pinned in ``tests/data/tables-l64.sha256``.

The runs are the nine grid scenarios at l = 64, undoped and at doping 0.05,
``oracle`` at its defaults, and two fig4 runs whose drive axis reaches the band
continuum (rows marked ``converged = 0``). Regenerate the manifest with

    PYTHONPATH=src python tests/test_table_bytes.py > tests/data/tables-l64.sha256

only in a change that lists the moved tables and their largest relative change
in CHANGES.md, never to make this test pass.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import floqex
import floqex.screening as screening
from floqex import BZGrid, ModelParams, pair_band
from floqex.config import parse_config
from floqex.scenarios import run_scenario
from floqex.spectra import absorbance

MANIFEST = Path(__file__).parent / "data" / "tables-l64.sha256"

GRID_SCENARIOS = ("resonance", "fig1a", "fig1b", "fig2", "fig3a", "fig3b", "fig3c", "fig4",
                  "absorbance")
BAND_AXIS = ["grid = 64", "omega_max = 3.4", "omega_step = 0.01"]

# (directory, scenario, --set assignments)
RUNS = (
    *(("doping-0", name, ["grid = 64"]) for name in GRID_SCENARIOS),
    *(("doping-0.05", name, ["grid = 64", "doping = 0.05"]) for name in GRID_SCENARIOS),
    ("doping-0", "oracle", []),
    ("fig4-band", "fig4", BAND_AXIS),
    ("fig4-band-doped", "fig4", [*BAND_AXIS, "doping = 0.05", "t21_values = -0.2, 0.3, -0.05"]),
)


def table_digests(out: Path, skip=()) -> dict:
    """Run every run of RUNS but the scenarios named in ``skip`` under ``out``; the
    SHA-256 of each written file by its path relative to ``out``."""
    digests = {}
    for directory, name, sets in RUNS:
        if name in skip:
            continue
        params, opts = parse_config("", sets)
        for path in run_scenario(name, params, opts, out / directory):
            digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def read_manifest(text: str) -> dict:
    """``sha256sum`` lines, "<digest>  <path>", as {path: digest}."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in text.splitlines())}


def test_every_table_keeps_its_bytes(tmp_path):
    pinned = read_manifest(MANIFEST.read_text())
    digests = table_digests(tmp_path)
    assert len(pinned) == 75
    assert sorted(digests) == sorted(pinned)
    moved = [path for path, digest in pinned.items() if digests[path] != digest]
    assert not moved, f"{len(moved)} files differ from the manifest: {moved}"


def test_no_run_takes_a_mesh_sum(monkeypatch, tmp_path):
    """No full-mesh pass is left: with the literal mesh sum refused, every run of
    the manifest but oracle (whose small systems sum their states literally) writes
    its pinned bytes, and a doped absorbance below a mesh step completes."""
    def refused(*args, **kwargs):
        raise AssertionError("a k'-sum took the literal mesh sum")

    monkeypatch.setattr(screening, "ladder_sum", refused)
    digests = table_digests(tmp_path, skip=("oracle",))
    pinned = read_manifest(MANIFEST.read_text())
    assert [path for path, digest in digests.items() if pinned[path] != digest] == []
    p = ModelParams(doping=0.05)
    band = pair_band(p, BZGrid.square(512))
    for gamma in (1e-3, 1e-4):
        absorbance(p, band, np.linspace(2.4, 5.0, 1301), gamma)


def blas_name() -> str:
    """The name of the BLAS that numpy was built with, or "" where numpy does not say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy before 1.25 takes no mode
        return ""


@pytest.mark.skipif("openblas" not in blas_name(),
                    reason="OPENBLAS_CORETYPE selects a kernel of OpenBLAS only, and "
                           "numpy's BLAS is not OpenBLAS")
def test_tables_keep_their_bytes_under_another_blas_kernel(tmp_path):
    """The pinned bytes do not depend on the BLAS kernel that OpenBLAS picks for the
    host: a process forced onto the Haswell kernel writes them too. Oracle is left out,
    since its deviation columns are LAPACK rounding noise."""
    paths = [str(Path(floqex.__file__).parents[1]), str(Path(__file__).parent)]
    script = ("import json, sys, pathlib, test_table_bytes as t; "
              "print(json.dumps(t.table_digests(pathlib.Path(sys.argv[1]), skip=('oracle',))))")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    digests = json.loads(run.stdout)
    pinned = read_manifest(MANIFEST.read_text())
    assert sorted(digests) == sorted(path for path in pinned if "/oracle." not in path)
    moved = [path for path, digest in digests.items() if pinned[path] != digest]
    assert not moved, f"{len(moved)} files differ from the manifest under Haswell: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        digests = table_digests(Path(out))
    sys.stdout.write("".join(f"{digests[path]}  {path}\n" for path in sorted(digests)))
