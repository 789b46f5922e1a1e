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
import sys
import tempfile
from pathlib import Path

from floqex.config import parse_config
from floqex.scenarios import run_scenario

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


def table_digests(out: Path) -> dict:
    """Run every run of RUNS under ``out``; the SHA-256 of each written file by its
    path relative to ``out``."""
    digests = {}
    for directory, name, sets in RUNS:
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        digests = table_digests(Path(out))
    sys.stdout.write("".join(f"{digests[path]}  {path}\n" for path in sorted(digests)))
