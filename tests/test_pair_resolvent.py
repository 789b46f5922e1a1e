"""The O(l) pair resolvent against the literal mesh sum it replaces."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mesh_points
import floqex.screening as screening
from floqex import (
    BZGrid,
    ModelParams,
    NoResonance,
    ResonantDenominator,
    band_gap,
    occupations,
    pair_band,
    solve_exciton_resonance,
)
from floqex.screening import (
    RESONANCE_GUARD_EV,
    ROUNDING_TOL,
    PairBand,
    hartree_shift,
)
from floqex.spectra import absorbance

T21 = (-0.2, -0.05, 0.3, 0.0)
SIZES = (1, 2, 3, 16, 17, 64, 256, 257)
DOPINGS = (0.0, 0.05, 0.6)
TOL = 1e-12
# A broadening far below one mesh step, where the float mesh sum is itself off
# the long-double one by up to 3.9e-12 relative, so values are pinned to the latter.
NARROW = 1e-4
NARROW_TOL = 5e-12


def model(t21, doping=0.0):
    """Reference model with gap dispersion 2 t21; t21 = 0 is the flat gap (B = 0)."""
    return ModelParams(t1=-0.15 - t21, t2=-0.15, doping=doping)


def mesh_sum(params, grid, occ, z):
    """Literal (1/N) sum_k n_k / (gap_k + shift - z) over the flat (kx, ky) mesh."""
    d = band_gap(params, mesh_points(grid)) + hartree_shift(params, occ) - z
    return np.sum(occ.n_k / d) / grid.n_sites


def shifted_band(params, grid, occ):
    gaps = band_gap(params, mesh_points(grid))
    shift = hartree_shift(params, occ)
    return float(np.min(gaps)) + shift, float(np.max(gaps)) + shift


def counting_ladder_sum(monkeypatch):
    """Route screening's mesh sums through a counter; returns the list of calls."""
    calls = []
    literal = screening.ladder_sum
    monkeypatch.setattr(screening, "ladder_sum",
                        lambda *args: calls.append(1) or literal(*args))
    return calls


def counting_direct_rows(monkeypatch):
    """Record each z at which the resolvent sums rows directly; returns the list."""
    taken = []
    direct_rows = PairBand._direct_rows
    monkeypatch.setattr(PairBand, "_direct_rows",
                        lambda self, z, *args: taken.append(z) or direct_rows(self, z, *args))
    return taken


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
    for broadening in (0.5, 0.005, NARROW):
        points += [complex(w, broadening) for w in np.linspace(lo - 0.3, hi + 0.3, 25)]
    for z in points:
        if isinstance(z, complex) and z.imag == NARROW:
            ref, tol = long_double_mesh_sum(p.t1, l, z, occ.n_k), NARROW_TOL
        else:
            ref, tol = mesh_sum(p, grid, occ, z), TOL
        value = resolvent(z)
        assert isinstance(value, complex) == isinstance(z, complex)
        assert abs(value - ref) <= tol * abs(ref), (z, value, ref)


def test_flat_gap_row_sum_is_one_over_a():
    p = model(0.0)
    grid = BZGrid.square(64)
    occ = occupations(p, grid)
    z = 2.5
    a = p.eps21 + hartree_shift(p, occ) - z
    assert pair_band(p, grid, occ).resolvent(z) == pytest.approx(1.0 / a, rel=1e-15)


def test_real_z_inside_the_guard_raises():
    p = model(-0.2)
    grid = BZGrid.square(64)
    occ = occupations(p, grid)
    lo, hi = shifted_band(p, grid, occ)
    resolvent = pair_band(p, grid, occ).resolvent
    for z in (lo - 0.5 * RESONANCE_GUARD_EV, lo, hi + 0.5 * RESONANCE_GUARD_EV):
        with pytest.raises(ResonantDenominator):
            resolvent(z)
    # just outside the guard the closed form answers
    z = lo - 3.0 * RESONANCE_GUARD_EV
    assert np.isfinite(resolvent(z))
    # without a guard the in-band value is the plain mesh sum
    inside = lo + 0.3137 * (hi - lo)
    assert pair_band(p, grid, occ).resolvent(inside, guard=0.0) == \
        pytest.approx(mesh_sum(p, grid, occ, inside), rel=TOL)


def test_undoped_complex_z_never_takes_the_mesh(monkeypatch):
    # a broadening below one mesh step: no empty state is subtracted, so nothing
    # cancels and the closed form alone answers at every z across the band
    calls, direct = counting_ladder_sum(monkeypatch), counting_direct_rows(monkeypatch)
    p = model(-0.2)
    for l in (16, 17):  # the folded rows of a complex z at even and at odd l
        grid = BZGrid.square(l)
        occ = occupations(p, grid)
        lo, hi = shifted_band(p, grid, occ)
        resolvent = pair_band(p, grid, occ).resolvent
        for w in np.linspace(lo, hi, 401):
            z = complex(w, 0.01)
            value = resolvent(z)
            assert abs(value - mesh_sum(p, grid, occ, z)) <= TOL * abs(value), z
    assert calls == [] and direct == []


def test_real_z_inside_the_band_takes_the_row_sums(monkeypatch):
    # no mesh sum: the closed form answers inside the band, and the row search
    # refuses the band minimum, which for t21 > 0 lies in a middle mesh row
    p = model(0.3, 0.05)
    grid = BZGrid.square(17)
    occ = occupations(p, grid)
    band = pair_band(p, grid, occ)
    lo, hi = shifted_band(p, grid, occ)
    inside = lo + 0.3137 * (hi - lo)
    calls = counting_ladder_sum(monkeypatch)
    value = band.resolvent(inside, guard=0.0)
    assert abs(value - mesh_sum(p, grid, occ, inside)) <= TOL * abs(value)
    with pytest.raises(ResonantDenominator):
        band.resolvent(lo)
    assert calls == []


@pytest.mark.parametrize("l", (64, 255, 256))
@pytest.mark.parametrize("t1", (0.05, -0.05))
def test_real_z_inside_the_band_matches_a_long_double_mesh_sum(t1, l):
    """Real z across the shifted band, off the grid gaps, undoped and at doping 0.05,
    within C eps (|z| + max |gap + shift|) (1/N) sum_k 1/D_k^2, the problem's own
    conditioning: C = 0.3, against 0.133 measured (a float mesh sum reaches 0.265)."""
    c = np.cos(2.0 * np.pi * np.arange(l) / l)
    for doping in (0.0, 0.05):
        band = pair_band(ModelParams(t1=t1, doping=doping), BZGrid.square(l))
        assert band.shift == 0.0
        lo, hi = band.edge, band.gap_max
        z = lo + (hi - lo) * (np.arange(1, 98) - 0.4137) / 97
        values = np.array([band.resolvent(w, guard=0.0) for w in z])
        ref = long_double_mesh_sum(t1, l, z + 0j, band.occ.n_k).real
        d = (band.params.eps21 + 2.0 * band.params.t21 * (c[:, None] + c)).ravel() - z[:, None]
        scale = np.finfo(float).eps * (np.abs(z) + max(abs(lo), abs(hi)))
        assert np.max(np.abs(values - ref) / (scale * np.mean(d ** -2.0, axis=-1))) <= 0.3, doping


def test_continuum_edge_is_the_mesh_minimum_bitwise():
    for t21 in T21:
        for l in SIZES:
            p = model(t21, 0.05)
            grid = BZGrid.square(l)
            occ = occupations(p, grid)
            expected = float(np.min(band_gap(p, mesh_points(grid)))) + hartree_shift(p, occ)
            assert pair_band(p, grid, occ).edge == expected


@settings(max_examples=40, deadline=None)
@given(t21=st.sampled_from(T21), l=st.sampled_from((2, 3, 16, 17, 64)),
       doping=st.sampled_from(DOPINGS), far=st.floats(1e-3, 2.0),
       ratio=st.floats(1.01, 100.0))
def test_ladder_closure_strictly_increasing_below_edge(t21, l, doping, far, ratio):
    p = model(t21, doping)
    grid = BZGrid.square(l)
    occ = occupations(p, grid)
    band = pair_band(p, grid, occ)
    near = far / ratio
    assert (p.u12 * band.resolvent(band.edge - far, guard=0.0)
            < p.u12 * band.resolvent(band.edge - near, guard=0.0))


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
    calls, direct = counting_ladder_sum(monkeypatch), counting_direct_rows(monkeypatch)
    rep = solve_exciton_resonance(p, band)
    assert rep.converged and rep.residual < 1e-9
    assert calls == [] and direct == []  # the closed form decides every sign here


def test_bracket_top_within_its_rounding_estimate_takes_the_direct_rows(monkeypatch):
    # u11 = 2 u12 keeps the Hartree shift at exactly 0, so R at the bracket top
    # does not move when u12 is tuned to put u12 R(top) on 1
    base = ModelParams(doping=0.05)
    grid = BZGrid.square(256)
    band = pair_band(base, grid)
    top = band.edge - 1e-9
    value, error = band._closed_form(top, True)
    assert error > ROUNDING_TOL * value  # the holes at the edge cancel
    u12 = 1.0 / value
    tuned = base.replace(u11=2.0 * u12, u12=u12)
    tuned_band = pair_band(tuned, grid)
    assert tuned_band.shift == band.shift == 0.0
    value, error = tuned_band._closed_form(top, True)
    assert abs(u12 * value - 1.0) <= u12 * error
    direct = counting_direct_rows(monkeypatch)
    # the closed form cannot tell the sign of u12 R - 1 there: the solve asks the
    # resolvent, whose direct rows put R within rounding of a long-double sum
    with pytest.raises(NoResonance):
        solve_exciton_resonance(tuned, tuned_band)
    assert direct
    ref = long_double_mesh_sum(base.t1, grid.l, top + 0j, band.occ.n_k).real
    assert u12 * ref < 1.0
    assert abs(tuned_band.resolvent(top, guard=0.0) - ref) <= 1e-13 * ref
    # the default coupling sits further from 1 than its estimate (0.24 against
    # 0.02): the closed form decides, although R is too uncertain to return
    direct.clear()
    assert solve_exciton_resonance(base, band).converged
    assert direct == []


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
    gaps = band_gap(p, mesh_points(grid))
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
                        for broadening in (0.5, 0.005, NARROW)])
    values = band.resolvent(z)
    assert values.shape == z.shape and values.dtype == complex
    for w, value in zip(z, values):
        one = band.resolvent(w)
        if w.imag == NARROW:
            ref, tol = long_double_mesh_sum(p.t1, l, w, occ.n_k), NARROW_TOL
        else:
            ref, tol = mesh_sum(p, grid, occ, w), 1e-13
        assert abs(value - one) <= 1e-13 * abs(one), (w, value, one)
        assert abs(value - ref) <= tol * abs(ref), (w, value, ref)


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
    # a complex z with Im z = 0 is refused: a real z is passed as a float
    for complex_z in (np.append(z, lo + 0.01j), complex(lo - 1.0)):
        with pytest.raises(ValueError, match="imaginary part"):
            band.resolvent(complex_z, guard=0.0)


def test_block_mixes_closed_form_and_direct_rows(monkeypatch):
    # a broadening far below one mesh step at a partial filling: a z whose subtracted
    # empty states cancel their full-band twins takes direct rows, the others the
    # closed form alone, and some blocks across the edge hold both
    passes, direct = [], counting_direct_rows(monkeypatch)
    closed_form = PairBand._closed_form

    def block_pass(self, w, real, *args):  # z asked for alone are not counted
        if np.ndim(w):
            passes.append(np.size(w))
        return closed_form(self, w, real, *args)

    monkeypatch.setattr(PairBand, "_closed_form", block_pass)
    p = model(-0.2, 0.05)
    for l in (64, 65):  # the folded rows of a complex z at even and at odd l
        grid = BZGrid.square(l)
        occ = occupations(p, grid)
        band = pair_band(p, grid, occ)
        lo, hi = shifted_band(p, grid, occ)
        z = np.linspace(lo - 0.1, lo + 0.1, 101) + 1e-5j
        passes.clear()
        direct.clear()
        values = band.resolvent(z)
        # every z passes through the closed form once, in equal blocks but the last
        step = passes[0]
        assert 1 < step < z.size and sum(passes) == z.size
        assert passes == [step] * (len(passes) - 1) + [z.size - step * (len(passes) - 1)]
        took_rows = np.isin(z, direct)
        assert 0 < took_rows.sum() < z.size
        starts = range(0, z.size, step)
        assert any(0 < took_rows[i:i + step].sum() < took_rows[i:i + step].size
                   for i in starts)
        # and each z takes the same evaluation as when it is asked for alone
        direct.clear()
        for w, value in zip(z, values):
            assert band.resolvent(w) == pytest.approx(value, rel=1e-13)
        assert np.array_equal(np.isin(z, direct), took_rows)
        for w, value in zip(z, values):
            assert abs(value - mesh_sum(p, grid, occ, w)) <= TOL * abs(value)


def long_double_mesh_sum(t1, l, z, n_k=None):
    """(1/N) sum_k n_k / (gap_k - z) of the reference model (eps21 = 3.7, t2 = -0.15,
    Hartree shift (-u11 + 2 u12) nu = 0) in long double, from its literals, at a
    complex ``z`` or at each of a 1-D array of them; ``n_k`` is the occupancy in
    flat mesh order, a full band when not given.

    The gap of mesh point (i, j) is bitwise that of (j, i), so each pair i < j is
    one term of weight n_ij + n_ji: the same sum in half the work.
    """
    c = np.cos(2 * np.longdouble(np.pi) * np.arange(l, dtype=np.longdouble) / l)
    i, j = np.triu_indices(l)
    d = np.longdouble(3.7) + 2 * (np.longdouble(-0.15) - np.longdouble(t1)) * (c[i] + c[j])
    occupancy = np.ones((l, l)) if n_k is None else n_k.reshape(l, l)
    weight = occupancy[i, j] + occupancy[j, i]
    weight[i == j] /= 2.0
    n = np.longdouble(l * l)
    sums = []
    for w in np.atleast_1d(z):
        e = d - np.longdouble(w.real)
        terms = weight / (e * e + np.longdouble(w.imag) ** 2)
        sums.append(complex(float(np.sum(e * terms) / n),
                            float(np.sum(terms) * np.longdouble(w.imag) / n)))
    return np.array(sums) if np.ndim(z) else sums[0]


@pytest.mark.parametrize("l", (64, 255, 256))
@pytest.mark.parametrize("t1", (0.05, -0.05))
def test_complex_z_matches_a_long_double_mesh_sum(t1, l):
    # the absorbance's broadening across the band, and narrower ones below a mesh
    # step: the rows i <= l/2 stand for all l, and the closed form stays within
    # rounding. Bounds per broadening, undoped and at doping 0.05 (measured 5.1e-15
    # and 2.0e-14 at 0.005; 1.1e-13, 2.3e-13 and 5.9e-13 at 1e-3, 5e-4 and 1e-4)
    bounds = {0.005: (1e-14, 3e-14), 1e-3: (2e-13,) * 2, 5e-4: (5e-13,) * 2, 1e-4: (1e-12,) * 2}
    for doped, doping in enumerate((0.0, 0.05)):
        band = pair_band(ModelParams(t1=t1, doping=doping), BZGrid.square(l))
        width = 4.0 * abs(band.params.t21)
        for gamma, bound in bounds.items():
            z = np.linspace(3.7 - width - 0.3, 3.7 + width + 0.3, 201) + 1j * gamma
            values = band.resolvent(z, guard=0.0)
            ref = long_double_mesh_sum(t1, l, z, band.occ.n_k)
            assert np.max(np.abs(values - ref) / np.abs(ref)) <= bound[doped], (doping, gamma)


@pytest.mark.parametrize("gamma", (1e-3, 5e-4, 1e-4))
@pytest.mark.parametrize("doping, most", [(0.0, 0), (0.05, 61)])
def test_narrow_absorbance_takes_few_mesh_sums(monkeypatch, doping, most, gamma):
    # the absorbance window below a mesh step at l = 512: undoped nothing cancels,
    # so no frequency sums mesh rows directly; doped only those whose subtracted
    # empty states cancel their full-band twins (44, 60 and 61 of 1301 measured),
    # each over at most 6, 36 and 52 of the 131 rows that hold empty states (as
    # many measured), where the literal mesh sum took all 512 rows
    rows = {1e-3: 6, 5e-4: 36, 1e-4: 52}[gamma]
    taken = []
    closed_form = PairBand._closed_form

    def counting(self, w, real, counts=None, skip=None):  # skip: the rows summed directly
        if skip is not None:
            taken.append(skip.size)
        return closed_form(self, w, real, counts, skip)

    monkeypatch.setattr(PairBand, "_closed_form", counting)
    p = ModelParams(doping=doping)
    absorbance(p, pair_band(p, BZGrid.square(512)), np.linspace(2.4, 5.0, 1301), gamma)
    assert len(taken) <= most
    assert max(taken, default=0) <= rows


@pytest.mark.parametrize("l", (1, 2, 16, 17, 512))
def test_every_z_evaluates_half_the_rows(monkeypatch, l):
    band = pair_band(model(-0.2), BZGrid.square(l))
    held = []
    row_means = PairBand._row_means
    monkeypatch.setattr(PairBand, "_row_means", lambda self, col, real: held.append(
        (real, np.shape(row_means(self, col, real))[-1])) or row_means(self, col, real))
    lo = band.edge
    band.resolvent(np.array([lo - 0.5, lo - 0.1]) + 0.01j)
    band.resolvent(lo - 0.5 + 0.01j)
    band.resolvent(lo - 0.5)
    band.resolvent(np.array([lo - 0.5, lo - 0.1]))
    assert set(held) == {(False, l // 2 + 1), (True, l // 2 + 1)}
    weights = screening._fold_weights(l)
    assert weights.size == l // 2 + 1 and weights.sum() == l


@pytest.mark.parametrize("n", [*range(1, 131), 255, 256, 1000, 4096])
def test_power_by_squaring_matches_pow(n):
    radius = np.array([0.1, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-6])
    phase = np.linspace(0.0, 2.0 * np.pi, 17)
    for rho in ((radius[:, None] * np.exp(1j * phase)).ravel(), np.concatenate([radius, -radius])):
        ref = rho ** n
        got = screening._power(rho.copy(), n)
        assert got.dtype == rho.dtype
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
