import dataclasses

import numpy as np
import pytest

from conftest import mesh_points
from floqex import (
    BZGrid,
    ModelParams,
    NoResonance,
    ResonantDenominator,
    band_gap,
    bare_detuning,
    grpa_stark_equivalence,
    grpa_tmatrix,
    occupations,
    pair_band,
    screened_detuning,
    screened_detuning_bs,
    screened_detunings,
    solve_exciton_resonance,
)
from floqex.screening import hartree_shift, screening_factor, shifted_detunings
from floqex.spectra import absorbance

GAMMA = (0.0, 0.0)


def literal_screened(params, grid, occ, k, bs=False):
    """Direct term-by-term evaluation of the screened denominator at one momentum.

    Keeps the momentum-dependent numerator inside the k'-sum instead of
    factoring it out, so it shares no reduction with the library path.
    """
    extra = 2.0 * params.omega_l if bs else 0.0
    shift = hartree_shift(params, occ)
    d_k = bare_detuning(params, k) + extra + shift
    d_grid = bare_detuning(params, mesh_points(grid)) + extra + shift
    acc = 0.0
    for i in range(grid.n_sites):
        acc += occ.n_k[i] * d_k / d_grid[i]
    return d_k - params.u12 / grid.n_sites * acc


# ---------------------------------------------------------------------------
# screened detunings
# ---------------------------------------------------------------------------


def test_unscreened_collapse_is_exact(grid64):
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.68)
    occ = occupations(p, grid64)
    k = mesh_points(grid64)
    dets = screened_detunings(p, pair_band(p, grid64, occ), k)
    d0 = bare_detuning(p, k)
    assert np.array_equal(dets.delta, d0)
    assert np.array_equal(dets.delta_bs, d0 + 2.0 * p.omega_l)


def test_dispersionless_screened_value(grid64):
    # flat bands: Delta = Delta0 - u11 + u12 for every k, binding exactly u12
    p = ModelParams(t1=-0.15, t2=-0.15, omega_l=2.4)
    occ = occupations(p, grid64)
    k = mesh_points(grid64)
    dets = screened_detunings(p, pair_band(p, grid64, occ), k)
    expected = bare_detuning(p, k) - p.u11 + p.u12
    assert np.allclose(dets.delta, expected, rtol=1e-12, atol=1e-12)


def test_screened_matches_literal_sum(grid64):
    p = ModelParams(omega_l=2.68)
    occ = occupations(p, grid64)
    ref = literal_screened(p, grid64, occ, GAMMA)
    val = screened_detuning(p, pair_band(p, grid64, occ), GAMMA)
    assert val == pytest.approx(ref, rel=1e-10)


def test_screened_matches_literal_sum_l512():
    p = ModelParams(omega_l=2.68)
    g = BZGrid.square(512)
    occ = occupations(p, g)
    extra = hartree_shift(p, occ)
    d_k = bare_detuning(p, GAMMA) + extra
    d_grid = bare_detuning(p, mesh_points(g)) + extra
    ref = d_k - p.u12 / g.n_sites * np.sum(occ.n_k * d_k / d_grid)
    assert screened_detuning(p, pair_band(p, g, occ), GAMMA) == pytest.approx(ref, rel=1e-10)


def test_bs_screened_matches_literal_sum(grid64):
    p = ModelParams(omega_l=2.68)
    occ = occupations(p, grid64)
    ref = literal_screened(p, grid64, occ, GAMMA, bs=True)
    val = screened_detuning_bs(p, pair_band(p, grid64, occ), GAMMA)
    assert val == pytest.approx(ref, rel=1e-10)


def test_bs_equals_plain_when_drive_frequency_vanishes(grid64):
    p = ModelParams(omega_l=0.0)
    occ = occupations(p, grid64)
    dets = screened_detunings(p, pair_band(p, grid64, occ), mesh_points(grid64))
    assert np.array_equal(dets.delta, dets.delta_bs)


def test_bs_unscreened_collapse(grid64):
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.68)
    occ = occupations(p, grid64)
    d0 = bare_detuning(p, GAMMA)
    assert screened_detuning_bs(p, pair_band(p, grid64, occ), GAMMA) == d0 + 2.0 * p.omega_l


def test_delta_alone_never_evaluates_the_counter_rotating_channel(grid64):
    # a negative drive frequency puts -omega_l on the band edge: the Bloch-Siegert
    # channel refuses, while Delta, which reads only R(omega_l), is finite
    band = pair_band(ModelParams(), grid64)
    drive = ModelParams().with_laser(-band.edge)
    delta = screened_detuning(drive, band, GAMMA)
    assert np.isfinite(delta)
    assert delta == shifted_detunings(drive, GAMMA, band.occ) * screening_factor(drive, band)
    for both_or_bs in (screened_detunings, screened_detuning_bs):
        with pytest.raises(ResonantDenominator):
            both_or_bs(drive, band, GAMMA)


def test_resonance_guard_fires(grid64):
    # put the drive exactly on the Gamma-point gap of the free model
    p = ModelParams(u11=0.0, u12=0.0, omega_l=float(band_gap(ModelParams(), GAMMA)))
    occ = occupations(p, grid64)
    with pytest.raises(ResonantDenominator):
        screened_detunings(p, pair_band(p, grid64, occ), mesh_points(grid64))


def test_spin_channels_share_values(grid64):
    p = ModelParams(omega_l=2.68)
    occ = occupations(p, grid64)
    dets = screened_detunings(p, pair_band(p, grid64, occ), mesh_points(grid64))
    spin_up = dets.delta
    spin_down = dets.delta
    assert np.array_equal(spin_up, spin_down)


def test_band_of_another_model_gives_that_models_values(grid64):
    # for_params: the same band (itself), other couplings (a shifted copy that
    # shares the grouped gaps) and another band (a new build on the filling)
    base = ModelParams(doping=0.05, omega_l=2.6)
    occ = occupations(base, grid64)
    band = pair_band(base, grid64, occ)
    assert band.for_params(base.with_laser(2.5)) is band
    for other in (base.replace(u11=0.7, u12=1.1), base.replace(t2=-0.1, eps21=3.5)):
        moved = band.for_params(other)
        own = pair_band(other, grid64, occ)
        assert moved.shift == own.shift and moved.edge == own.edge
        assert np.array_equal(moved.gaps, own.gaps) and np.array_equal(moved.counts, own.counts)
        mesh = mesh_points(grid64)
        assert np.array_equal(screened_detunings(other, band, mesh).delta,
                              screened_detunings(other, own, mesh).delta)


@pytest.mark.parametrize("built, other", [
    (ModelParams(), ModelParams(doping=0.2)),
    (ModelParams(doping=0.2), ModelParams(doping=0.2, t1=-0.05, t2=-0.25)),  # t21 kept
])
def test_band_of_another_filling_is_rebuilt(grid64, built, other):
    # the filling depends on t1 and doping: a band built for another one gives
    # bitwise the values of a band built for this one
    stale, fresh = pair_band(built, grid64), pair_band(other, grid64)
    moved = stale.for_params(other).occ
    assert moved.n_filled == fresh.occ.n_filled
    assert np.array_equal(moved.minority[0], fresh.occ.minority[0])
    for k in (GAMMA, mesh_points(grid64)):
        for a, b in zip(dataclasses.astuple(screened_detunings(other, stale, k)),
                        dataclasses.astuple(screened_detunings(other, fresh, k))):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def solve(band):  # the doped default model has no line on this grid
        try:
            return solve_exciton_resonance(other, band)
        except NoResonance as err:
            return str(err)

    assert solve(stale) == solve(fresh)
    omegas = np.linspace(2.4, 3.2, 41)
    assert absorbance(other, stale, omegas, 0.005).raw().tobytes() == \
        absorbance(other, fresh, omegas, 0.005).raw().tobytes()


# ---------------------------------------------------------------------------
# continuum edge and exciton resonance
# ---------------------------------------------------------------------------


def test_band_resonance_edge_values(grid64):
    p = ModelParams()
    occ = occupations(p, grid64)
    assert pair_band(p, grid64, occ).edge == pytest.approx(2.9)
    p2 = ModelParams(u11=0.0, u12=0.8)
    assert pair_band(p2, grid64, occupations(p2, grid64)).edge == pytest.approx(4.5)
    flat = ModelParams(t1=-0.15, t2=-0.15)
    expected = flat.eps21 - flat.u11 + 2.0 * flat.u12
    assert pair_band(flat, grid64, occupations(flat, grid64)).edge == pytest.approx(expected)


def test_exciton_resonance_defaults(grid256, occ256, params):
    rep = solve_exciton_resonance(params, pair_band(params, grid256, occ256))
    assert rep.converged
    assert rep.omega_ex == pytest.approx(2.71, abs=0.02)
    assert rep.omega_ex < rep.continuum_edge
    assert rep.binding == pytest.approx(rep.continuum_edge - rep.omega_ex)
    assert rep.delta_ex == pytest.approx(rep.omega_ex - params.omega_l)
    assert rep.residual <= 1e-10


@pytest.mark.parametrize("u12", [0.2, 0.5, 0.8])
def test_dispersionless_binding_is_u12(grid64, u12):
    p = ModelParams(t1=-0.15, t2=-0.15, u12=u12)
    occ = occupations(p, grid64)
    rep = solve_exciton_resonance(p, pair_band(p, grid64, occ))
    assert abs(rep.binding - u12) <= 1e-10


def test_grid_refinement_converges(params):
    values = []
    for l in (4, 8, 16, 32):
        g = BZGrid.square(l)
        values.append(solve_exciton_resonance(params, pair_band(params, g)).omega_ex)
    diffs = np.abs(np.diff(values))
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]
    # quadrature is spectrally accurate: large grids agree to solver precision
    coarse = []
    for l in (128, 256, 512):
        g = BZGrid.square(l)
        coarse.append(solve_exciton_resonance(params, pair_band(params, g)).omega_ex)
    cdiffs = np.abs(np.diff(coarse))
    assert np.all(cdiffs <= max(diffs[-1], 1e-12))


def test_no_resonance_without_interband_coupling(grid64):
    p = ModelParams(u12=0.0)
    with pytest.raises(NoResonance):
        solve_exciton_resonance(p, pair_band(p, grid64, occupations(p, grid64)))


def test_no_resonance_on_finite_grid_when_u12_tiny(grid128):
    # hole doping empties the Gamma region, removing the near-edge ladder weight
    p = ModelParams(u12=0.05, doping=0.2)
    occ = occupations(p, grid128)
    assert occ.n_k[grid128.gamma_index] == 0.0
    with pytest.raises(NoResonance):
        solve_exciton_resonance(p, pair_band(p, grid128, occ))


def test_ladder_closure_is_increasing(grid64, params):
    band = pair_band(params, grid64, occupations(params, grid64))
    omegas = band.edge - np.array([1.5, 1.0, 0.6, 0.3, 0.1, 0.01])
    values = [params.u12 * band.resolvent(w, guard=0.0) for w in omegas]
    assert np.all(np.diff(values) > 0)


def test_resummation_closed_form(grid64, params):
    # sum of -1/Delta at full filling against the rank-1 update identity
    occ = occupations(params, grid64)
    dets = screened_detunings(params, pair_band(params, grid64, occ), mesh_points(grid64))
    lhs = np.sum(-1.0 / dets.delta)
    shifted = shifted_detunings(params, mesh_points(grid64), occ)
    s_tilde = -np.sum(1.0 / shifted)
    rhs = s_tilde / (1.0 + params.u12 / grid64.n_sites * s_tilde)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# ladder t-matrix and the bubble equivalence
# ---------------------------------------------------------------------------


def test_tmatrix_unity_without_interband_coupling(grid64):
    p = ModelParams(u12=0.0, omega_l=2.68)
    assert grpa_tmatrix(p, pair_band(p, grid64, occupations(p, grid64))) == 1.0


def test_tmatrix_geometric_partial_sums(grid64, params):
    p = params.with_laser(2.68)
    occ = occupations(p, grid64)
    t = grpa_tmatrix(p, pair_band(p, grid64, occ))
    shifted = shifted_detunings(p, mesh_points(grid64), occ)
    s = p.u12 / grid64.n_sites * np.sum(occ.n_k / shifted)
    partial = sum(s ** n for n in range(50))
    # exact geometric tail: T - sum_{n<50} s^n = s^50 / (1 - s)
    assert t == pytest.approx(partial + s ** 50 / (1.0 - s), rel=1e-12)
    assert 0.0 < s < 1.0


def test_tmatrix_diverges_linearly_at_resonance(grid128, params):
    occ = occupations(params, grid128)
    omega_ex = solve_exciton_resonance(params, pair_band(params, grid128, occ)).omega_ex
    inv = [1.0 / grpa_tmatrix(params.with_laser(omega_ex - d), pair_band(params, grid128, occ))
           for d in (0.04, 0.02, 0.01)]
    assert inv[0] / inv[1] == pytest.approx(2.0, abs=0.2)
    assert inv[1] / inv[2] == pytest.approx(2.0, abs=0.1)


def test_tmatrix_pole_guard(grid128, params):
    occ = occupations(params, grid128)
    omega_ex = solve_exciton_resonance(params, pair_band(params, grid128, occ)).omega_ex
    with pytest.raises(ResonantDenominator):
        grpa_tmatrix(params.with_laser(omega_ex), pair_band(params, grid128, occ))


def test_bubble_equals_screened_shift(grid64, params):
    occ = occupations(params, grid64)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = params.with_laser(rng.uniform(2.0, 2.6))
        idx = int(rng.integers(0, grid64.n_sites))
        bubble, screened = grpa_stark_equivalence(p, pair_band(p, grid64, occ), idx)
        assert bubble == pytest.approx(screened, rel=1e-12)


def test_bubble_equivalence_collapses_without_u12(grid64):
    p = ModelParams(u12=0.0, omega_l=2.68)
    occ = occupations(p, grid64)
    bubble, screened = grpa_stark_equivalence(p, pair_band(p, grid64, occ), 0)
    d = shifted_detunings(p, mesh_points(grid64), occ)[0]
    assert bubble == screened
    assert bubble == pytest.approx(-p.g_l ** 2 / d, rel=1e-14)


def test_bubble_vanishes_on_empty_state(grid64):
    p = ModelParams(doping=0.2, omega_l=2.4)
    occ = occupations(p, grid64)
    empty = int(np.argmin(occ.n_k))
    assert occ.n_k[empty] == 0.0
    bubble, screened = grpa_stark_equivalence(p, pair_band(p, grid64, occ), empty)
    assert bubble == 0.0
    assert screened == 0.0
