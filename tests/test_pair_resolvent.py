"""The O(l) pair resolvent against the literal mesh sum it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqex.screening as screening
from floqex import (
    BZGrid,
    ModelParams,
    ResonantDenominator,
    band_gap,
    band_resonance_edge,
    exciton_lhs,
    occupations,
)
from floqex.screening import (
    RESONANCE_GUARD_EV,
    ROW_SUM_GUARD,
    hartree_shift,
    pair_resolvent,
)

T21 = (-0.2, -0.05, 0.3, 0.0)
SIZES = (1, 2, 3, 16, 17, 64, 256, 257)
DOPINGS = (0.0, 0.05, 0.6)
TOL = 1e-12


def model(t21, doping=0.0):
    """Reference model with gap dispersion 2 t21; t21 = 0 is the flat gap (B = 0)."""
    return ModelParams(t1=-0.15 - t21, t2=-0.15, doping=doping)


def mesh_sum(params, grid, occ, z):
    """Literal (1/N) sum_k n_k / (gap_k + shift - z) over the flat (kx, ky) mesh."""
    d = band_gap(params, (grid.kx, grid.ky)) + hartree_shift(params, occ) - z
    return np.sum(occ.n_k / d) / grid.n_sites


def shifted_band(params, grid, occ):
    gaps = band_gap(params, grid)
    shift = hartree_shift(params, occ)
    return float(np.min(gaps)) + shift, float(np.max(gaps)) + shift


def row_minimum(params, grid, occ, z):
    """min over mesh rows of |1 - rho^l|, from this file's own root choice."""
    a = params.eps21 + hartree_shift(params, occ) - z + 2.0 * params.t21 * np.cos(grid.k)
    b = 2.0 * params.t21
    roots = np.stack([(-a + np.sqrt(a * a - b * b + 0j)) / b,
                      (-a - np.sqrt(a * a - b * b + 0j)) / b])
    rho = roots[np.argmin(np.abs(roots), axis=0), np.arange(grid.l)]
    return float(np.min(np.abs(1.0 - rho ** grid.l)))


@pytest.mark.parametrize("doping", DOPINGS)
@pytest.mark.parametrize("l", SIZES)
@pytest.mark.parametrize("t21", T21)
def test_matches_mesh_sum(t21, l, doping):
    p = model(t21, doping)
    grid = BZGrid.square(l)
    occ = occupations(p, grid)
    resolvent = pair_resolvent(p, grid, occ)
    lo, hi = shifted_band(p, grid, occ)
    points = [lo - d for d in (1.0, 0.1, 0.01, 1e-3)]
    for broadening in (0.5, 0.005, 1e-4):
        points += [complex(w, broadening) for w in np.linspace(lo - 0.3, hi + 0.3, 25)]
    for z in points:
        ref = mesh_sum(p, grid, occ, z)
        value = resolvent(z)
        assert isinstance(value, complex) == isinstance(z, complex)
        assert abs(value - ref) <= TOL * abs(ref), (z, value, ref)


def test_flat_gap_row_sum_is_one_over_a():
    p = model(0.0)
    grid = BZGrid.square(64)
    occ = occupations(p, grid)
    z = 2.5
    a = p.eps21 + hartree_shift(p, occ) - z
    assert pair_resolvent(p, grid, occ)(z) == pytest.approx(1.0 / a, rel=1e-15)


def test_real_z_inside_the_guard_raises():
    p = model(-0.2)
    grid = BZGrid.square(64)
    occ = occupations(p, grid)
    lo, hi = shifted_band(p, grid, occ)
    resolvent = pair_resolvent(p, grid, occ)
    for z in (lo - 0.5 * RESONANCE_GUARD_EV, lo, hi + 0.5 * RESONANCE_GUARD_EV):
        with pytest.raises(ResonantDenominator):
            resolvent(z)
    # just outside the guard the closed form answers
    z = lo - 3.0 * RESONANCE_GUARD_EV
    assert np.isfinite(resolvent(z))
    # without a guard the in-band value is the plain mesh sum
    inside = lo + 0.3137 * (hi - lo)
    assert pair_resolvent(p, grid, occ, guard=0.0)(inside) == \
        pytest.approx(mesh_sum(p, grid, occ, inside), rel=TOL)


def test_row_sum_guard_decides_the_mesh_fallback(monkeypatch):
    p = model(-0.2)
    grid = BZGrid.square(16)
    occ = occupations(p, grid)
    lo, hi = shifted_band(p, grid, occ)
    calls = []
    literal = screening.ladder_sum
    monkeypatch.setattr(screening, "ladder_sum",
                        lambda *args: calls.append(1) or literal(*args))
    resolvent = pair_resolvent(p, grid, occ)
    seen = set()
    for w in np.linspace(lo, hi, 401):
        z = complex(w, 0.01)
        margin = row_minimum(p, grid, occ, z) - ROW_SUM_GUARD
        calls.clear()
        value = resolvent(z)
        assert bool(calls) == (margin < 0.0), (z, margin)
        assert abs(value - mesh_sum(p, grid, occ, z)) <= TOL * abs(value)
        seen.add(margin < 0.0)
    assert seen == {True, False}


def test_mesh_fallback_runs_over_row_blocks(monkeypatch):
    p = model(0.3, 0.05)
    grid = BZGrid.square(17)
    occ = occupations(p, grid)
    lo, hi = shifted_band(p, grid, occ)
    inside = lo + 0.3137 * (hi - lo)
    whole = pair_resolvent(p, grid, occ, guard=0.0)(inside)
    sizes = []
    literal = screening.ladder_sum
    monkeypatch.setattr(screening, "ladder_sum",
                        lambda *args: sizes.append(args[0].size) or literal(*args))
    monkeypatch.setattr(screening, "MESH_BLOCK", 3 * 17)
    blocked = pair_resolvent(p, grid, occ, guard=0.0)(inside)
    assert sizes == [3 * 17] * 5 + [2 * 17]
    assert abs(blocked - whole) <= TOL * abs(whole)
    assert abs(blocked - mesh_sum(p, grid, occ, inside)) <= TOL * abs(whole)
    # the band minimum of t21 > 0 lies in a middle block, whose guard refuses
    # before that block is divided
    sizes.clear()
    with pytest.raises(ResonantDenominator):
        pair_resolvent(p, grid, occ)(lo)
    assert 1 < len(sizes) < 6


def test_continuum_edge_is_the_mesh_minimum_bitwise():
    for t21 in T21:
        for l in SIZES:
            p = model(t21, 0.05)
            grid = BZGrid.square(l)
            occ = occupations(p, grid)
            expected = float(np.min(band_gap(p, grid))) + hartree_shift(p, occ)
            assert band_resonance_edge(p, grid, occ) == expected


@settings(max_examples=40, deadline=None)
@given(t21=st.sampled_from(T21), l=st.sampled_from((2, 3, 16, 17, 64)),
       doping=st.sampled_from(DOPINGS), far=st.floats(1e-3, 2.0),
       ratio=st.floats(1.01, 100.0))
def test_ladder_closure_strictly_increasing_below_edge(t21, l, doping, far, ratio):
    p = model(t21, doping)
    grid = BZGrid.square(l)
    occ = occupations(p, grid)
    edge = band_resonance_edge(p, grid, occ)
    near = far / ratio
    assert exciton_lhs(p, grid, occ, edge - far) < exciton_lhs(p, grid, occ, edge - near)


@settings(max_examples=60, deadline=None)
@given(l=st.integers(1, 40), doping=st.floats(0.0, 1.0, exclude_max=True),
       t1=st.floats(-0.5, 0.5))
def test_occupations_fill_round_of_filling(l, doping, t1):
    p = ModelParams(t1=t1, doping=doping)
    grid = BZGrid.square(l)
    occ = occupations(p, grid)
    expected = int(round((1.0 - doping) * grid.n_sites))
    assert set(np.unique(occ.n_k)) <= {0.0, 1.0}
    assert int(occ.n_k.sum()) == occ.n_filled == expected
    idx, filled = occ.minority
    assert len(idx) == min(expected, grid.n_sites - expected)
    assert np.all(occ.n_k[idx] == (1.0 if filled else 0.0))
