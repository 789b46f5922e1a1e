import numpy as np
import pytest

from floqex import (
    ModelParams,
    NoPeak,
    SpectrumCurve,
    absorbance,
    occupations,
    pair_band,
    peak_location,
    solve_exciton_resonance,
)


def omega_axis(lo, hi, step=0.002):
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def test_rejects_nonpositive_broadening(grid64, params, occ128):
    occ = occupations(params, grid64)
    with pytest.raises(ValueError):
        absorbance(params, pair_band(params, grid64, occ), omega_axis(2.4, 2.6), 0.0)


def test_curve_is_normalized(grid64, params):
    occ = occupations(params, grid64)
    curve = absorbance(params, pair_band(params, grid64, occ), omega_axis(2.4, 5.0), 0.005)
    assert curve.alpha.max() == 1.0
    assert np.all(curve.alpha >= 0.0)
    assert len(curve.omegas) == len(curve.alpha)
    assert np.array_equal(curve.raw(), curve.alpha * curve.scale)


def test_free_model_absorbs_inside_the_band(grid64):
    p = ModelParams(u11=0.0, u12=0.0)
    occ = occupations(p, grid64)
    curve = absorbance(p, pair_band(p, grid64, occ), omega_axis(2.4, 5.0), 0.005)
    peak_omega = curve.omegas[np.argmax(curve.alpha)]
    assert 2.9 <= peak_omega <= 4.5


def test_free_model_has_no_in_gap_peak(grid64):
    p = ModelParams(u11=0.0, u12=0.0)
    occ = occupations(p, grid64)
    curve = absorbance(p, pair_band(p, grid64, occ), omega_axis(2.4, 2.85), 0.005)
    with pytest.raises(NoPeak):
        peak_location(curve)


def test_in_gap_peak_sits_at_the_exciton_line(grid128, occ128, params):
    omegas = omega_axis(2.4, 5.0)
    curve = absorbance(params, pair_band(params, grid128, occ128), omegas, 0.005)
    omega_ex = solve_exciton_resonance(params, pair_band(params, grid128, occ128)).omega_ex
    assert abs(peak_location(curve) - omega_ex) <= 0.002
    assert peak_location(curve) < 2.9


def test_sharper_broadening_grows_the_peak_in_place(grid128, occ128, params):
    omegas = omega_axis(2.4, 5.0)
    wide = absorbance(params, pair_band(params, grid128, occ128), omegas, 0.005)
    narrow = absorbance(params, pair_band(params, grid128, occ128), omegas, 0.0025)
    assert narrow.scale > wide.scale
    assert abs(peak_location(narrow) - peak_location(wide)) <= 0.002


def test_spectral_weight_stable_under_broadening(grid128, occ128, params):
    omegas = omega_axis(2.3, 5.2)
    wide = absorbance(params, pair_band(params, grid128, occ128), omegas, 0.005)
    narrow = absorbance(params, pair_band(params, grid128, occ128), omegas, 0.0025)
    w1 = np.trapezoid(wide.raw(), omegas)
    w2 = np.trapezoid(narrow.raw(), omegas)
    assert abs(w2 - w1) / w1 < 0.01


def test_peak_location_on_synthetic_lorentzian():
    omegas = omega_axis(1.0, 3.0)
    center, gamma = 2.1234, 0.01
    alpha = gamma / ((omegas - center) ** 2 + gamma ** 2)
    curve = SpectrumCurve(omegas=omegas, alpha=alpha / alpha.max(), gamma=gamma,
                          scale=float(alpha.max()))
    assert abs(peak_location(curve) - center) <= 0.002


def test_peak_location_rejects_monotone_curve():
    omegas = omega_axis(1.0, 2.0)
    curve = SpectrumCurve(omegas=omegas, alpha=omegas / omegas.max(), gamma=0.01,
                          scale=1.0)
    with pytest.raises(NoPeak):
        peak_location(curve)
