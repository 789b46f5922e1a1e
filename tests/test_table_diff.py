"""``tests/table_diff.py`` names each moved column with its largest relative change."""

import subprocess
import sys
from pathlib import Path

import numpy as np

import table_diff

SCRIPT = Path(__file__).parent / "table_diff.py"


def write_tree(root: Path, alpha, missing=False):
    (root / "fig").mkdir(parents=True)
    rows = [f"{w!r},{a!r},{c!r}" for w, a, c in zip((2.4, 2.5, 2.6), alpha, (1.0, float("nan"), 0.0))]
    (root / "fig" / "fig.csv").write_text("\n".join(["omega,alpha,converged", *rows]) + "\n")
    (root / "fig" / "fig.json").write_text("{}\n")
    if not missing:
        (root / "fig" / "fig.meta.json").write_text("{}\n")


def test_one_ulp_and_a_missing_file(tmp_path):
    alpha = [0.1, 0.2, float("nan")]
    nudged = [alpha[0], float(np.nextafter(alpha[1], 1.0)), alpha[2]]
    write_tree(tmp_path / "old", alpha)
    write_tree(tmp_path / "new", nudged, missing=True)
    lines = table_diff.diff_trees(tmp_path / "old", tmp_path / "new")
    ulp = (nudged[1] - alpha[1]) / alpha[1]
    assert lines == [f"only in {tmp_path / 'old'}: fig/fig.meta.json",
                     "fig/fig.csv: differs",
                     f"  alpha: max relative change {ulp:.3g}"]
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "old"), str(tmp_path / "new")],
                         capture_output=True, text=True)
    assert run.returncode == 1 and run.stdout.splitlines() == lines


def test_identical_trees(tmp_path):
    for side in ("old", "new"):
        write_tree(tmp_path / side, [0.1, 0.2, float("nan")])
    assert table_diff.diff_trees(tmp_path / "old", tmp_path / "new") == []
    assert table_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0


def test_relative_change():
    nan, inf = float("nan"), float("inf")
    assert table_diff.relative_change(nan, nan) == 0.0
    assert table_diff.relative_change(2.0, 2.5) == 0.25
    assert table_diff.relative_change(0.0, 1e-300) == inf
    assert table_diff.relative_change(1.0, nan) == inf
