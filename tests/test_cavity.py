import numpy as np
import pytest

from floqex import (
    BZGrid,
    ModelParams,
    ResonantCavity,
    bare_detuning,
    enhancement_ratio,
    interaction_kernel,
    occupations,
    pair_band,
    u12_sweep,
)

GAMMA = (0.0, 0.0)


def kernel_for(params, l=64):
    grid = BZGrid.square(l)
    occ = occupations(params, grid)
    return interaction_kernel(params, pair_band(params, grid, occ), (grid.kx, grid.ky)), grid, occ


def test_unscreened_forward_diagonal():
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.68)
    kernel, grid, _ = kernel_for(p)
    d0 = bare_detuning(p, (grid.kx, grid.ky))
    expected = -(p.g_l * p.g_c) ** 2 / (grid.n_sites * p.delta_c * d0 ** 2)
    assert np.allclose(kernel.forward(), expected, rtol=1e-13)


def test_kernel_vanishes_without_cavity_coupling():
    p = ModelParams(g_c=0.0, omega_l=2.68)
    kernel, _, _ = kernel_for(p)
    assert np.all(kernel.forward() == 0.0)
    assert kernel.element(3, 11) == 0.0


def test_kernel_is_symmetric_and_separable():
    p = ModelParams(omega_l=2.60)
    kernel, grid, _ = kernel_for(p, l=16)
    dense = kernel.dense()
    assert np.array_equal(dense, dense.T)
    u = kernel.factor_vector()
    assert np.allclose(dense, -np.outer(u, u), rtol=1e-14, atol=1e-300)
    rng = np.random.default_rng(2)
    for _ in range(20):
        i, j, a, b = rng.integers(0, grid.n_sites, size=4)
        lhs = kernel.element(i, j) * kernel.element(a, b)
        rhs = kernel.element(i, b) * kernel.element(a, j)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dense_materialization_is_gated():
    p = ModelParams(omega_l=2.60)
    kernel, _, _ = kernel_for(p, l=128)
    with pytest.raises(ValueError):
        kernel.dense()


def test_dense_gate_counts_momenta():
    # Gamma/Y/M of an l = 128 grid: three momenta densify although the whole mesh does not
    p = ModelParams(omega_l=2.60)
    grid = BZGrid.square(128)
    occ = occupations(p, grid)
    idx = np.array([grid.gamma_index, grid.y_index, grid.m_index])
    kernel = interaction_kernel(p, pair_band(p, grid, occ), grid.point(idx))
    dense = kernel.dense()
    assert dense.shape == (3, 3)
    assert np.array_equal(dense, kernel.scale * np.outer(kernel.v, kernel.v))
    assert np.array_equal(np.diag(dense), kernel.forward())


def test_forward_channel_is_attractive_for_positive_detuning():
    p = ModelParams(omega_l=2.60)
    kernel, _, _ = kernel_for(p)
    assert p.delta_c > 0
    assert np.all(kernel.forward() < 0)
    flipped = p.replace(omega_c=p.omega_l - 0.1)
    kernel2, _, _ = kernel_for(flipped)
    assert np.all(kernel2.forward() > 0)


def test_kernel_scales_with_couplings():
    p = ModelParams(omega_l=2.60)
    one, _, _ = kernel_for(p)
    two, _, _ = kernel_for(p.replace(g_c=2.0 * p.g_c))
    assert np.array_equal(two.forward(), 4.0 * one.forward())
    strong, _, _ = kernel_for(p.replace(g_l=2.0 * p.g_l))
    assert np.array_equal(strong.forward(), 4.0 * one.forward())
    far, _, _ = kernel_for(p.replace(omega_c=p.omega_l + 2.0 * p.delta_c))
    assert np.allclose(far.forward(), 0.5 * one.forward(), rtol=1e-14)


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
        enhancement_ratio(free, free, grid64, grid64.gamma_index, 0.05)


def test_enhancement_requires_positive_detuning(grid64, params):
    with pytest.raises(ValueError):
        enhancement_ratio(params, params.without_interactions(), grid64,
                          grid64.gamma_index, 0.0)


def test_enhancement_above_one_and_decaying(grid128, params):
    free = params.without_interactions()
    ratios = [enhancement_ratio(params, free, grid128, grid128.gamma_index, d)
              for d in (0.05, 0.1, 0.2, 0.35, 0.5)]
    assert all(r > 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_enhancement_vanishes_for_flat_bands(grid64):
    # dispersionless exciton carries no momentum structure: same kernel as free model
    p = ModelParams(t1=-0.15, t2=-0.15)
    ratio = enhancement_ratio(p, p.without_interactions(), grid64,
                              grid64.gamma_index, 0.05)
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_enhancement_independent_of_cavity_detuning(grid64, params):
    free = params.without_interactions()
    a = enhancement_ratio(params, free, grid64, grid64.gamma_index, 0.05)
    shifted = params.replace(omega_c=params.omega_l + 0.37)
    b = enhancement_ratio(shifted, free.replace(omega_c=free.omega_l + 0.37),
                          grid64, grid64.gamma_index, 0.05)
    assert a == pytest.approx(b, rel=1e-12)


def test_u12_sweep_baseline_and_consistency(grid64, params):
    result = u12_sweep(params, grid64, 0.05, [0.8])
    assert result.axis[0] == 0.0
    assert result.columns["enhancement"][0] == 1.0
    assert np.all(result.columns["converged"] == 1)
    # cross-operation consistency: the single row reproduces the direct call exactly
    direct = enhancement_ratio(params.replace(u12=0.8), params.without_interactions(),
                               grid64, grid64.gamma_index, 0.05)
    assert result.columns["enhancement"][1] == direct


def test_u12_sweep_rows_equal_enhancement_ratio_when_doped(grid64):
    p = ModelParams(doping=0.02)
    values = [0.6, 0.8, 1.0]
    result = u12_sweep(p, grid64, 0.05, values)
    assert np.all(result.columns["converged"] == 1)
    for u12, row in zip(values, result.columns["enhancement"][1:]):
        assert row == enhancement_ratio(p.replace(u12=u12), p.without_interactions(),
                                        grid64, grid64.gamma_index, 0.05)


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
