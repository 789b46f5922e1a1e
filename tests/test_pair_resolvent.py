"""The O(l) pair resolvent against the literal mesh sum it replaces."""

import warnings

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
    pair_band,
    solve_exciton_resonance,
)
from floqex.screening import (
    RESONANCE_GUARD_EV,
    ROW_SUM_GUARD,
    PairBand,
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
    gaps = band_gap(params, (grid.kx, grid.ky))
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


def counting_ladder_sum(monkeypatch):
    """Route screening's mesh sums through a counter; returns the list of calls."""
    calls = []
    literal = screening.ladder_sum
    monkeypatch.setattr(screening, "ladder_sum",
                        lambda *args: calls.append(1) or literal(*args))
    return calls


@pytest.mark.parametrize("doping", DOPINGS)
@pytest.mark.parametrize("l", SIZES)
@pytest.mark.parametrize("t21", T21)
def test_matches_mesh_sum(t21, l, doping):
    p = model(t21, doping)
    grid = BZGrid.square(l)
    occ = occupations(p, grid)
    band = pair_band(p, grid, occ)
    # every minority state sits in exactly one group of equal gaps
    assert band.counts.sum() == occ.minority[0].size
    assert np.all(np.diff(band.gaps) > 0.0) and np.all(band.counts >= 1.0)
    resolvent = band.resolvent
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
    calls = counting_ladder_sum(monkeypatch)
    p = model(-0.2)
    for l in (16, 17):  # the folded rows of a complex z at even and at odd l
        grid = BZGrid.square(l)
        occ = occupations(p, grid)
        lo, hi = shifted_band(p, grid, occ)
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
            expected = float(np.min(band_gap(p, (grid.kx, grid.ky)))) + hartree_shift(p, occ)
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
    band = pair_band(p, grid, occ)
    assert exciton_lhs(p, band, edge - far) < exciton_lhs(p, band, edge - near)


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


def test_doped_solve_takes_no_mesh_sum(monkeypatch):
    p = ModelParams(doping=0.05)
    grid = BZGrid.square(1024)
    band = pair_band(p, grid)
    calls = counting_ladder_sum(monkeypatch)
    rep = solve_exciton_resonance(p, band)
    assert rep.converged and rep.residual < 1e-9
    assert calls == []


def test_bracket_top_within_its_rounding_estimate_takes_the_mesh(monkeypatch):
    # u11 = 2 u12 keeps the Hartree shift at exactly 0, so R at the bracket top
    # does not move when u12 is tuned to put u12 R(top) on 1
    base = ModelParams(doping=0.05)
    grid = BZGrid.square(256)
    band = pair_band(base, grid)
    top = band.edge - 1e-9
    value, error = band._closed_form(top, True)
    u12 = 1.0 / value
    tuned = pair_band(base.replace(u11=2.0 * u12, u12=u12), grid)
    assert tuned.shift == band.shift == 0.0
    value, error = tuned._closed_form(top, True)
    assert abs(u12 * value - 1.0) <= u12 * error
    calls = counting_ladder_sum(monkeypatch)
    below = tuned.closure_below_one(u12, top)
    assert calls
    assert below == (u12 * tuned.mesh(top, 0.0) < 1.0)
    # the default coupling sits further from 1 than its estimate (0.24 against
    # 0.02): the closed form decides, although R is too uncertain to return
    calls.clear()
    assert not band.closure_below_one(base.u12, top)
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(t21=st.sampled_from(T21), l=st.sampled_from((1, 2, 3, 16, 17)),
       doping=st.sampled_from(DOPINGS), point=st.integers(0, 17 * 17 - 1),
       offset=st.floats(-3.0 * RESONANCE_GUARD_EV, 3.0 * RESONANCE_GUARD_EV),
       near_point=st.booleans(), spot=st.floats(-0.2, 1.2))
def test_resonance_guard_fires_exactly_near_a_mesh_point(t21, l, doping, point, offset,
                                                         near_point, spot):
    p = model(t21, doping)
    grid = BZGrid.square(l)
    occ = occupations(p, grid)
    band = pair_band(p, grid, occ)
    gaps = band_gap(p, (grid.kx, grid.ky))
    shift = hartree_shift(p, occ)
    lo, hi = shifted_band(p, grid, occ)
    z = gaps[point % grid.n_sites] + shift + offset if near_point else lo + spot * (hi - lo)
    near = np.min(np.abs(gaps - z + shift)) < RESONANCE_GUARD_EV
    try:
        band.resolvent(z)
    except ResonantDenominator:
        assert near, z
    else:
        assert not near, z


@pytest.mark.parametrize("doping", DOPINGS)
@pytest.mark.parametrize("l", (1, 2, 3, 64, 100, 255))
@pytest.mark.parametrize("t21", T21)
def test_array_matches_scalar_calls_and_mesh_sum(t21, l, doping):
    p = model(t21, doping)
    grid = BZGrid.square(l)
    occ = occupations(p, grid)
    band = pair_band(p, grid, occ)
    lo, hi = shifted_band(p, grid, occ)
    z = np.concatenate([np.linspace(lo - 0.3, hi + 0.3, 61) + 1j * broadening
                        for broadening in (0.5, 0.005, 1e-4)])
    values = band.resolvent(z)
    assert values.shape == z.shape and values.dtype == complex
    for w, value in zip(z, values):
        one = band.resolvent(w)
        ref = mesh_sum(p, grid, occ, w)
        assert abs(value - one) <= 1e-13 * abs(one), (w, value, one)
        assert abs(value - ref) <= 1e-13 * abs(ref), (w, value, ref)


def test_array_covers_both_minority_branches():
    grid = BZGrid.square(64)
    branches = {occupations(model(-0.2, doping), grid).minority[1] for doping in DOPINGS[1:]}
    assert branches == {False, True}


def test_real_array_matches_scalar_calls():
    p = model(-0.05, 0.05)
    grid = BZGrid.square(17)
    band = pair_band(p, grid)
    lo, hi = shifted_band(p, grid, band.occ)
    z = np.array([lo - 1.0, lo - 1e-3, lo + 0.3 * (hi - lo), hi + 0.01])
    values = band.resolvent(z, guard=0.0)
    assert values.dtype == float
    assert np.array_equal(values, [band.resolvent(w, guard=0.0) for w in z])
    # a complex array holding real values gives each its own kind of evaluation
    mixed = band.resolvent(np.append(z, lo + 0.01j), guard=0.0)
    assert np.array_equal(mixed[:-1], values)
    assert mixed[-1] == band.resolvent(lo + 0.01j, guard=0.0)


def test_block_mixes_closed_form_and_mesh_fallback(monkeypatch):
    # a broadening far below one mesh step: inside the band every z takes the mesh,
    # outside it the closed form answers, and the blocks across the edge hold both
    passes, meshed = [], []
    closed_form, mesh = PairBand._closed_form, PairBand.mesh
    monkeypatch.setattr(PairBand, "_closed_form",
                        lambda self, w, real: passes.append(np.size(w)) or closed_form(self, w, real))
    monkeypatch.setattr(PairBand, "mesh",
                        lambda self, w, guard: meshed.append(w) or mesh(self, w, guard))
    p = model(-0.2)
    for l in (64, 65):  # the folded rows of a complex z at even and at odd l
        grid = BZGrid.square(l)
        occ = occupations(p, grid)
        band = pair_band(p, grid, occ)
        lo, hi = shifted_band(p, grid, occ)
        z = np.linspace(lo - 0.1, lo + 0.1, 101) + 1e-5j
        guarded = np.array([row_minimum(p, grid, occ, w) < ROW_SUM_GUARD for w in z])
        passes.clear()
        meshed.clear()
        values = band.resolvent(z)
        # every z passes through the closed form once, in equal blocks but the last
        step = passes[0]
        assert 1 < step < z.size and sum(passes) == z.size
        assert passes == [step] * (len(passes) - 1) + [z.size - step * (len(passes) - 1)]
        took_mesh = np.isin(z, meshed)
        assert np.all(took_mesh[guarded]) and not np.all(took_mesh)
        starts = range(0, z.size, step)
        assert any(0 < took_mesh[i:i + step].sum() < took_mesh[i:i + step].size
                   for i in starts)
        # and each z takes the same evaluation as when it is asked for alone
        meshed.clear()
        for w, value in zip(z, values):
            assert band.resolvent(w) == pytest.approx(value, rel=1e-13)
        assert np.array_equal(np.isin(z, meshed), took_mesh)
        for w, value in zip(z, values):
            assert abs(value - mesh_sum(p, grid, occ, w)) <= TOL * abs(value)


def long_double_mesh_sum(t1, l, z):
    """(1/N) sum_k 1 / (gap_k - z) of the undoped reference model (eps21 = 3.7,
    t2 = -0.15, Hartree shift -u11 + 2 u12 = 0) in long double, from its literals."""
    c = np.cos(2 * np.longdouble(np.pi) * np.arange(l, dtype=np.longdouble) / l)
    d = np.longdouble(3.7) + 2 * (np.longdouble(-0.15) - np.longdouble(t1)) * (c[:, None] + c)
    d -= np.longdouble(z.real)
    den = d * d + np.longdouble(z.imag) ** 2
    n = np.longdouble(l * l)
    return complex(float(np.sum(d / den) / n), float(np.sum(z.imag / den) / n))


@pytest.mark.parametrize("l", (64, 255, 256))
@pytest.mark.parametrize("t1", (0.05, -0.05))
def test_complex_z_matches_a_long_double_mesh_sum(t1, l):
    # the absorbance's broadening across the band: the rows i <= l/2 stand for all l
    # (the parent of the folded rows measured at most 2.9e-15 here)
    band = pair_band(ModelParams(t1=t1), BZGrid.square(l))
    width = 4.0 * abs(band.params.t21)
    z = np.linspace(3.7 - width - 0.3, 3.7 + width + 0.3, 201) + 0.005j
    values = band.resolvent(z, guard=0.0)
    ref = np.array([long_double_mesh_sum(t1, l, w) for w in z])
    assert np.max(np.abs(values - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("l", (1, 2, 16, 17, 512))
def test_complex_z_evaluates_half_the_rows(monkeypatch, l):
    band = pair_band(model(-0.2), BZGrid.square(l))
    held = []
    row_means = PairBand._row_means
    monkeypatch.setattr(PairBand, "_row_means", lambda self, col, real: held.append(
        (real, np.shape(row_means(self, col, real)[0])[-1])) or row_means(self, col, real))
    lo = band.edge
    band.resolvent(np.array([lo - 0.5, lo - 0.1]) + 0.01j)
    band.resolvent(lo - 0.5 + 0.01j)
    band.resolvent(lo - 0.5)
    band.resolvent(np.array([lo - 0.5, lo - 0.1]))
    assert set(held) == {(False, l // 2 + 1), (True, l)}
    weights = screening._fold_weights(l)
    assert weights.size == l // 2 + 1 and weights.sum() == l


@pytest.mark.parametrize("n", [*range(1, 131), 255, 256, 1000, 4096])
def test_power_by_squaring_matches_pow(n):
    radius = np.array([0.1, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-6])
    phase = np.linspace(0.0, 2.0 * np.pi, 17)
    rho = (radius[:, None] * np.exp(1j * phase)).ravel()
    ref = rho ** n
    got = screening._power(rho.copy(), n)
    normal = np.abs(ref) > 1e-290
    bound = 4 * n * np.finfo(float).eps
    assert np.all(np.abs(got - ref)[normal] <= bound * np.abs(ref)[normal])
    assert np.all(np.abs(got[~normal]) < 1e-280)


def test_power_by_squaring_underflows_quietly():
    rho = 0.1 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = screening._power(rho, 4096)
    assert np.all(np.abs(got) < np.finfo(float).tiny)
