"""Output checks for benchmark jobs; each returns a list of problems (empty means pass).

Every job at every seed must write its expected tables with the expected
columns and row counts. ``resonance`` and ``absorbance`` are recomputed here
with plain numpy and this file's own sort-based filling, independent of the
library. At the default seed every table must also match the reference tables
stored under ``reference/`` (made by ``make_reference.py``).
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

# |F(omega_ex) - 1| allowed for the reported exciton root.
F_TOL = 1e-9
# |continuum_edge - own edge| allowed, eV.
EDGE_TOL = 1e-9
# Relative deviation of a recomputed alpha_raw row from the written one.
ALPHA_RAW_RTOL = 1e-9
# |max(alpha) - 1| allowed: the curve is normalised to unit peak.
ALPHA_MAX_TOL = 1e-12
# Reference comparison at the default seed: |a - r| <= REF_ATOL + REF_RTOL * |r|.
REF_RTOL = 1e-6
REF_ATOL = 1e-9
# Rows of alpha_raw recomputed from the literal formula, picked by the seed.
ALPHA_ROWS = 4

_RATIOS = ["ratio_gamma", "ratio_y", "ratio_m"]


def expected_tables(scenario: str, l: int) -> dict:
    """Table name -> (columns, row count) that ``scenario`` writes at grid ``l``.

    Axes are the scenario defaults; the Y -> Gamma -> M path has l + 1 points.
    """
    path = l + 1
    tables = {
        "fig1a": {"fig1a": (["path_index", "kx", "ky", "change_screened",
                             "change_unscreened"], path)},
        "fig1b": {"fig1b": (["g_l", "t_eff", "t_eff_unscreened"], 61)},
        "fig2": {
            "fig2": (["delta_ex", *_RATIOS, "ratio_tla"], 100),
            "fig2_u11": (["u11", *_RATIOS, "ratio_tla", "omega_ex", "converged"], 33),
            "fig2_u12": (["u12", *_RATIOS, "ratio_tla", "omega_ex", "converged"], 23),
        },
        "fig3a": {"fig3a": (["path_index", "kx", "ky", "inv_dsq_screened",
                             "inv_dsq_unscreened"], path)},
        "fig3b": {"fig3b": (["detuning", *_RATIOS], 19)},
        "fig3c": {"fig3c": (["u12", "v_forward", "enhancement", "omega_ex", "converged"], 24)},
        "fig4": {"fig4": (["omega_l", "t21", "delta_gamma", "delta_y", "delta_m",
                           "delta_tla", "converged"], 873)},
        "absorbance": {"absorbance": (["omega", "alpha", "alpha_raw"], 1301)},
        "resonance": {"resonance": (["index", "omega_ex", "continuum_edge", "binding",
                                     "delta_ex", "converged", "residual"], 1)},
    }
    return tables[scenario]


def read_table(path: Path):
    """Header and float rows of a CSV table written by the CLI."""
    lines = [line for line in path.read_text().splitlines() if line]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def column(header, rows, name):
    i = header.index(name)
    return [row[i] for row in rows]


def check_structure(out_dir: Path, scenario: str, l: int) -> list:
    """Every expected table exists as CSV, JSON and meta JSON with the right shape."""
    problems = []
    for table, (columns, n_rows) in expected_tables(scenario, l).items():
        csv_path = out_dir / f"{table}.csv"
        try:
            header, rows = read_table(csv_path)
            payload = json.loads((out_dir / f"{table}.json").read_text())
            meta = json.loads((out_dir / f"{table}.meta.json").read_text())
        except (OSError, ValueError, IndexError) as err:
            problems.append(f"{table}: unreadable output: {err}")
            continue
        if header != columns:
            problems.append(f"{table}: columns {header}, expected {columns}")
            continue
        if len(rows) != n_rows or any(len(row) != len(columns) for row in rows):
            problems.append(f"{table}: {len(rows)} rows, expected {n_rows}")
            continue
        if sorted(payload.get("columns", {})) != sorted(columns[1:]) or \
                len(payload.get("axis", [])) != n_rows:
            problems.append(f"{table}: JSON table does not match the CSV shape")
        if meta.get("table") != table or meta.get("grid_l") != l:
            problems.append(f"{table}: meta.json names table {meta.get('table')!r} "
                            f"at l={meta.get('grid_l')}")
        if "converged" in columns and not set(column(header, rows, "converged")) <= {0.0, 1.0}:
            problems.append(f"{table}: converged column holds values other than 0/1")
    return problems


def filled_gaps(p: dict, l: int):
    """Gaps of the filled lower-band states, the filling nu, N and the smallest gap.

    Zero-temperature filling: the round((1 - doping) N) states of lowest
    eps_1 = 2 t1 (cos kx + cos ky) are occupied.
    """
    cos = np.cos(2.0 * np.pi * np.arange(l) / l)
    c = (cos[:, None] + cos[None, :]).ravel()
    n = l * l
    t21 = p["t2"] - p["t1"]
    min_gap = p["eps21"] + 2.0 * t21 * (c.max() if t21 < 0 else c.min())
    n_filled = int(round((1.0 - p["doping"]) * n))
    if n_filled < n:
        c = c[np.argsort(2.0 * p["t1"] * c, kind="stable")[:n_filled]]
    gaps = p["eps21"] + 2.0 * t21 * c
    return gaps, n_filled / n, n, min_gap


def _shift(p: dict, nu: float) -> float:
    return (-p["u11"] + 2.0 * p["u12"]) * nu


def check_resonance(out_dir: Path, p: dict, l: int) -> list:
    """The written root satisfies F(omega_ex) = 1 and lies below the continuum edge."""
    header, rows = read_table(out_dir / "resonance.csv")
    omega_ex = column(header, rows, "omega_ex")[0]
    edge = column(header, rows, "continuum_edge")[0]
    if column(header, rows, "converged")[0] != 1.0:
        return ["resonance: solve did not converge"]
    gaps, nu, n, min_gap = filled_gaps(p, l)
    shift = _shift(p, nu)
    denom = gaps + (shift - omega_ex)
    del gaps
    f = p["u12"] / n * float(np.sum(np.reciprocal(denom, out=denom)))
    own_edge = min_gap + shift
    problems = []
    if not abs(f - 1.0) <= F_TOL:
        problems.append(f"resonance: F(omega_ex) = {f!r}, expected 1 within {F_TOL}")
    if not omega_ex < own_edge:
        problems.append(f"resonance: omega_ex {omega_ex!r} is not below the edge {own_edge!r}")
    if not abs(edge - own_edge) <= EDGE_TOL:
        problems.append(f"resonance: continuum_edge {edge!r}, recomputed {own_edge!r}")
    return problems


def check_absorbance(out_dir: Path, p: dict, gamma: float, l: int, rng) -> list:
    """Unit peak, and seed-picked alpha_raw rows equal the literal formula.

    alpha_raw(omega) = (1/(pi N)) sum_k n_k Im[1 / (d_k (1 - (u12/N) sum_k' n_k'/d_k'))]
    with d_k = gap_k - (omega + i gamma) + shift.
    """
    header, rows = read_table(out_dir / "absorbance.csv")
    omegas = column(header, rows, "omega")
    raw = column(header, rows, "alpha_raw")
    problems = []
    peak = max(column(header, rows, "alpha"))
    if not abs(peak - 1.0) <= ALPHA_MAX_TOL:
        problems.append(f"absorbance: max(alpha) = {peak!r}, expected 1")
    gaps, nu, n, _ = filled_gaps(p, l)
    shift = _shift(p, nu)
    for i in sorted(rng.sample(range(len(rows)), min(ALPHA_ROWS, len(rows)))):
        d = gaps - complex(omegas[i], gamma) + shift
        factor = 1.0 - p["u12"] / n * np.sum(1.0 / d)
        want = float(np.sum((1.0 / (d * factor)).imag)) / (math.pi * n)
        if not abs(raw[i] - want) <= ALPHA_RAW_RTOL * abs(want):
            problems.append(f"absorbance: alpha_raw row {i} = {raw[i]!r}, recomputed {want!r}")
    return problems


def _same(name: str, a: float, r: float) -> bool:
    if math.isnan(a) or math.isnan(r):
        return math.isnan(a) and math.isnan(r)
    if name == "converged":
        return a == r
    return abs(a - r) <= REF_ATOL + REF_RTOL * abs(r)


def compare_reference(out_dir: Path, ref_dir: Path, tables) -> list:
    """Tables match the stored references: same shape, NaN and converged patterns."""
    problems = []
    for table in tables:
        ref_path = ref_dir / f"{table}.csv"
        if not ref_path.exists():
            problems.append(f"{table}: no reference table at {ref_path}")
            continue
        header, rows = read_table(out_dir / f"{table}.csv")
        ref_header, ref_rows = read_table(ref_path)
        if header != ref_header or len(rows) != len(ref_rows):
            problems.append(f"{table}: shape differs from the reference")
            continue
        mismatches = (f"{table}: row {i} {name} = {a!r}, reference {r!r}"
                      for i, (row, ref) in enumerate(zip(rows, ref_rows))
                      for name, a, r in zip(header, row, ref) if not _same(name, a, r))
        problems.extend(itertools.islice(mismatches, 1))
    return problems


def check_job(scenario: str, out_dir: Path, sets: dict, grid: int, rng,
              ref_dir: Path | None) -> list:
    """All checks for one job's output directory; ``ref_dir`` only at the default seed."""
    problems = check_structure(out_dir, scenario, grid)
    if problems:
        return problems
    table = next(iter(expected_tables(scenario, grid)))
    meta = json.loads((out_dir / f"{table}.meta.json").read_text())
    params = meta["params"]
    for key, value in sets.items():
        if params.get(key) != value:
            problems.append(f"{table}: meta echoes {key} = {params.get(key)!r}, "
                            f"job set {value!r}")
    if problems:
        return problems
    if scenario == "resonance":
        problems += check_resonance(out_dir, params, grid)
    elif scenario == "absorbance":
        problems += check_absorbance(out_dir, params, meta["gamma"], grid, rng)
    if ref_dir is not None:
        problems += compare_reference(out_dir, ref_dir, expected_tables(scenario, grid))
    return problems
