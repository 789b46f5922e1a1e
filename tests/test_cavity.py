import numpy as np
import pytest

from conftest import mesh_points
from floqex import (
    BZGrid,
    ModelParams,
    ResonantCavity,
    band_gap,
    bare_detuning,
    enhancement_ratio,
    interaction_kernel,
    occupations,
    pair_band,
    u12_sweep,
)
from floqex.cavity import matched_pair
from floqex.cli import main
from floqex.scan import parse_csv
from floqex.screening import shifted_detunings

GAMMA = (0.0, 0.0)


def kernel_for(params, l=64):
    grid = BZGrid.square(l)
    occ = occupations(params, grid)
    return interaction_kernel(params, pair_band(params, grid, occ), mesh_points(grid)), grid, occ


def test_unscreened_forward_diagonal():
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.68)
    kernel, grid, _ = kernel_for(p)
    d0 = bare_detuning(p, mesh_points(grid))
    expected = -(p.g_l * p.g_c) ** 2 / (grid.n_sites * p.delta_c * d0 ** 2)
    assert np.allclose(kernel, expected, rtol=1e-13)


def test_kernel_vanishes_without_cavity_coupling():
    p = ModelParams(g_c=0.0, omega_l=2.68)
    kernel, _, _ = kernel_for(p)
    assert np.all(kernel == 0.0)


def test_forward_channel_is_attractive_for_positive_detuning():
    p = ModelParams(omega_l=2.60)
    kernel, _, _ = kernel_for(p)
    assert p.delta_c > 0
    assert np.all(kernel < 0)
    flipped = p.replace(omega_c=p.omega_l - 0.1)
    kernel2, _, _ = kernel_for(flipped)
    assert np.all(kernel2 > 0)


def test_kernel_scales_with_couplings():
    p = ModelParams(omega_l=2.60)
    one, _, _ = kernel_for(p)
    two, _, _ = kernel_for(p.replace(g_c=2.0 * p.g_c))
    assert np.array_equal(two, 4.0 * one)
    strong, _, _ = kernel_for(p.replace(g_l=2.0 * p.g_l))
    assert np.array_equal(strong, 4.0 * one)
    far, _, _ = kernel_for(p.replace(omega_c=p.omega_l + 2.0 * p.delta_c))
    assert np.allclose(far, 0.5 * one, rtol=1e-14)


def test_cavity_resonance_guard():
    p = ModelParams(omega_l=2.60, omega_c=2.60)
    with pytest.raises(ResonantCavity):
        kernel_for(p)


# ---------------------------------------------------------------------------
# excitonic enhancement
# ---------------------------------------------------------------------------


def test_enhancement_is_unity_for_free_model(grid64):
    free = ModelParams(u11=0.0, u12=0.0)
    with pytest.raises(Exception):
        # the interacting side needs an exciton; u12 = 0 cannot provide one
        enhancement_ratio(free, grid64, grid64.gamma_index, 0.05)


def test_enhancement_requires_positive_detuning(grid64, params):
    with pytest.raises(ValueError):
        enhancement_ratio(params, grid64, grid64.gamma_index, 0.0)


def test_enhancement_above_one_and_decaying(grid128, params):
    ratios = [enhancement_ratio(params, grid128, grid128.gamma_index, d)
              for d in (0.05, 0.1, 0.2, 0.35, 0.5)]
    assert all(r > 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_enhancement_vanishes_for_flat_bands(grid64):
    # dispersionless exciton carries no momentum structure: same kernel as free model
    p = ModelParams(t1=-0.15, t2=-0.15)
    ratio = enhancement_ratio(p, grid64, grid64.gamma_index, 0.05)
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_enhancement_independent_of_cavity_detuning(grid64, params):
    a = enhancement_ratio(params, grid64, grid64.gamma_index, 0.05)
    shifted = params.replace(omega_c=params.omega_l + 0.37)
    b = enhancement_ratio(shifted, grid64, grid64.gamma_index, 0.05)
    assert a == pytest.approx(b, rel=1e-12)


def test_u12_sweep_baseline_and_consistency(grid64, params):
    result = u12_sweep(params, grid64, 0.05, [0.8])
    assert result.axis[0] == 0.0
    assert result.columns["enhancement"][0] == 1.0
    assert np.all(result.columns["converged"] == 1)
    # cross-operation consistency: the single row reproduces the direct call exactly
    direct = enhancement_ratio(params.replace(u12=0.8), grid64, grid64.gamma_index, 0.05)
    assert result.columns["enhancement"][1] == direct


def test_u12_sweep_rows_equal_enhancement_ratio_when_doped(grid64):
    p = ModelParams(doping=0.02)
    values = [0.6, 0.8, 1.0]
    result = u12_sweep(p, grid64, 0.05, values)
    assert np.all(result.columns["converged"] == 1)
    for u12, row in zip(values, result.columns["enhancement"][1:]):
        assert row == enhancement_ratio(p.replace(u12=u12), grid64, grid64.gamma_index, 0.05)


def test_u12_sweep_peak_position(grid128, params):
    values = np.arange(0.1, 1.2001, 0.05)
    result = u12_sweep(params, grid128, 0.05, values)
    enh = result.columns["enhancement"]
    peak = int(np.nanargmax(enh))
    assert 0 < peak < len(result.axis) - 1
    assert abs(result.axis[peak] - 0.5) <= 0.1
    # ratio decays to 1 as the interband coupling is switched off
    assert enh[1] < enh[peak]
    assert enh[1] < 3.0


def test_u12_sweep_marks_failed_rows(grid128):
    # doped band with holes at Gamma: no bound state below the full-grid edge,
    # so the solver rows are kept with a failure marker instead of being dropped
    p = ModelParams(doping=0.2)
    result = u12_sweep(p, grid128, 0.05, [0.05, 0.8])
    conv = result.columns["converged"]
    assert len(result.axis) == 3
    assert conv[0] == 1  # free baseline never needs the solver
    assert np.all(conv[1:] == 0)
    assert np.all(np.isnan(result.columns["enhancement"][1:]))


# ---------------------------------------------------------------------------
# where each drive of a matched pair sits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("l", [63, 64])
@pytest.mark.parametrize("t1, t2", [(0.05, -0.15), (-0.15, -0.15), (-0.15, 0.05)])
def test_free_twin_sits_below_the_band_edge(l, t1, t2):
    # the twin has no Hartree shift, so its resonance is the smallest grid gap,
    # which is gap(Gamma) only where the gap is least at Gamma (t21 <= 0)
    p = ModelParams(t1=t1, t2=t2)
    band = pair_band(p, BZGrid.square(l))
    twin = matched_pair(p, band).drives(0.05)[1]
    assert twin.u11 == twin.u12 == 0.0
    assert twin.omega_l == band.gap_min - 0.05
    if p.t21 <= 0.0:
        assert twin.omega_l == float(band_gap(twin, GAMMA)) - 0.05


def test_free_model_takes_its_hartree_shifted_edge(grid64):
    p = ModelParams(u11=1.6, u12=0.0)
    pair = matched_pair(p, pair_band(p, grid64), exciton_required=False)
    assert pair.omega_ex == pair.band.edge
    driven = pair.drives(0.03)[0]
    path = grid64.point(grid64.path_y_gamma_m())
    assert np.all(shifted_detunings(driven, path, pair.band.occ) > 0.0)


def test_fig3b_with_the_gap_least_at_m_gives_finite_ratios(tmp_path):
    assert main(["run", "fig3b", "--grid", "64", "--set", "t1=-0.15", "--set", "t2=0.05",
                 "--out", str(tmp_path)]) == 0
    _, data = parse_csv((tmp_path / "fig3b.csv").read_text())
    assert np.isfinite(data).all()
    assert np.all(data[:, 1:] > 0.0)
