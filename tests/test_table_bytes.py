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


def has_avx512_dispatch() -> bool:
    """Whether numpy dispatches AVX-512 kernels (its X86_V4 group) on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return "X86_V4" in __cpu_dispatch__ and __cpu_features__.get("X86_V4", False)


OPENBLAS_ONLY = pytest.mark.skipif(
    "openblas" not in blas_name(),
    reason="OPENBLAS_CORETYPE selects a kernel of OpenBLAS only, and numpy's BLAS is not OpenBLAS")
AVX512_ONLY = pytest.mark.skipif(
    not has_avx512_dispatch(),
    reason="numpy dispatches no AVX-512 kernel on this CPU, so there is none to disable")
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def run_elsewhere(settings: dict, script: str, *args) -> object:
    """The JSON that ``script`` prints, run with these tests importable in a fresh
    process under the environment ``settings``."""
    paths = [str(Path(floqex.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, **settings, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def assert_tables_keep_their_bytes_under(settings: dict, out: Path):
    """Every run of the manifest but oracle, whose deviation columns are LAPACK
    rounding noise, writes its pinned bytes in a process under ``settings``."""
    script = ("import json, sys, pathlib, test_table_bytes as t; "
              "print(json.dumps(t.table_digests(pathlib.Path(sys.argv[1]), skip=('oracle',))))")
    digests = run_elsewhere(settings, script, str(out))
    pinned = read_manifest(MANIFEST.read_text())
    assert sorted(digests) == sorted(path for path in pinned if "/oracle." not in path)
    moved = [path for path, digest in digests.items() if pinned[path] != digest]
    assert not moved, f"{len(moved)} files differ from the manifest under {settings}: {moved}"


@OPENBLAS_ONLY
def test_tables_keep_their_bytes_under_another_blas_kernel(tmp_path):
    """The pinned bytes do not depend on the BLAS kernel that OpenBLAS picks for the
    host: a process forced onto the Haswell kernel writes them too."""
    assert_tables_keep_their_bytes_under({"OPENBLAS_CORETYPE": "Haswell"}, tmp_path)


@AVX512_ONLY
def test_tables_keep_their_bytes_without_avx512(tmp_path):
    """Nor on numpy's SIMD kernels: a process whose numpy may not use AVX-512 (so
    runs its AVX2 kernels, as a host without AVX-512 does) writes them too."""
    assert_tables_keep_their_bytes_under(NO_AVX512, tmp_path)


def edge_resolvents() -> list:
    """R of the default model at l = 64, undoped, at 200 real z from edge - 1e-6 to
    edge - 3, as bit strings: first each z as a scalar, then all of them as one
    array. The z are spaced geometrically by Python's own float power, since numpy's
    (``np.geomspace``) depends on the host's kernels."""
    band = pair_band(ModelParams(), BZGrid.square(64))
    zs = [band.edge - 1e-6 * 3e6 ** (i / 199) for i in range(200)]
    values = [band.resolvent(z) for z in zs] + band.resolvent(np.array(zs)).tolist()
    return [value.hex() for value in values]


@AVX512_ONLY
def test_real_resolvent_keeps_its_bits_without_avx512():
    """Real-z R near the band edge, where rho^l is closest to 1, has the same bits in a
    process without numpy's AVX-512 kernels as in this one."""
    script = "import json, test_table_bytes as t; print(json.dumps(t.edge_resolvents()))"
    elsewhere, here = run_elsewhere(NO_AVX512, script), edge_resolvents()
    assert len(here) == 400
    moved = [i for i, (a, b) in enumerate(zip(here, elsewhere)) if a != b]
    assert not moved, f"{len(moved)} of 400 values differ without AVX-512: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        digests = table_digests(Path(out))
    sys.stdout.write("".join(f"{digests[path]}  {path}\n" for path in sorted(digests)))
