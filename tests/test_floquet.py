import numpy as np
import pytest

from conftest import mesh_points
from floqex import (
    BZGrid,
    ModelParams,
    ResonantDenominator,
    band_gap,
    bare_detuning,
    dispersion,
    effective_band,
    effective_hopping,
    occupations,
    pair_band,
    screened_detunings,
    solve_exciton_resonance,
    stark_bs_ratio,
    tla_shifts,
)

GAMMA = (0.0, 0.0)
M = (np.pi, np.pi)


def test_band_reduces_to_bare_without_drive(grid64):
    p = ModelParams(g_l=0.0, omega_l=2.68)
    occ = occupations(p, grid64)
    band = effective_band(p, pair_band(p, grid64, occ), mesh_points(grid64))
    bare = dispersion(p, 1, mesh_points(grid64))
    assert np.array_equal(band.energies, bare)


def test_unscreened_stark_at_gamma(grid64):
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.87)
    occ = occupations(p, grid64)
    band = effective_band(p, pair_band(p, grid64, occ), mesh_points(grid64))
    expected = -p.g_l ** 2 / bare_detuning(p, GAMMA)
    assert band.stark[grid64.gamma_index] == pytest.approx(expected, rel=1e-14)


def test_energies_decompose_exactly(grid64, params):
    p = params.with_laser(2.68)
    occ = occupations(p, grid64)
    band = effective_band(p, pair_band(p, grid64, occ), mesh_points(grid64))
    bare = dispersion(p, 1, mesh_points(grid64))
    assert np.array_equal(band.energies, bare + band.stark + band.bs)


def test_shifts_lower_the_band(grid64, params):
    p = params.with_laser(2.68)
    occ = occupations(p, grid64)
    band = effective_band(p, pair_band(p, grid64, occ), mesh_points(grid64))
    assert np.all(band.stark < 0)
    assert np.all(band.bs < 0)


def test_shifts_scale_with_drive_squared(grid64, params):
    p = params.with_laser(2.68)
    occ = occupations(p, grid64)
    one = effective_band(p, pair_band(p, grid64, occ), mesh_points(grid64))
    two = effective_band(p.replace(g_l=2.0 * p.g_l), pair_band(p, grid64, occ),
                         mesh_points(grid64))
    assert np.array_equal(two.stark, 4.0 * one.stark)
    assert np.array_equal(two.bs, 4.0 * one.bs)


def test_band_change_matches_literal_evaluation(grid64, params):
    # independent path: invert the term-by-term screened denominators directly
    from test_screening import literal_screened

    occ = occupations(params, grid64)
    omega_ex = solve_exciton_resonance(params, pair_band(params, grid64, occ)).omega_ex
    p = params.with_laser(omega_ex - 0.03)
    band = effective_band(p, pair_band(p, grid64, occ), mesh_points(grid64))
    path = grid64.path_y_gamma_m()
    sample = path[:: len(path) // 8]
    for idx in sample:
        k = grid64.point(idx)
        ref = -p.g_l ** 2 / literal_screened(p, grid64, occ, k) \
              - p.g_l ** 2 / literal_screened(p, grid64, occ, k, bs=True)
        change = band.stark[idx] + band.bs[idx]
        assert change == pytest.approx(ref, rel=0.05)
        assert change == pytest.approx(ref, rel=1e-9)


def test_screened_change_broader_than_unscreened(grid128, params):
    occ = occupations(params, grid128)
    omega_ex = solve_exciton_resonance(params, pair_band(params, grid128, occ)).omega_ex
    p_s = params.with_laser(omega_ex - 0.03)
    band_s = effective_band(p_s, pair_band(p_s, grid128, occ), mesh_points(grid128))
    free = params.without_interactions()
    occ_f = occupations(free, grid128)
    p_u = free.with_laser(float(band_gap(free, GAMMA)) - 0.03)
    band_u = effective_band(p_u, pair_band(p_u, grid128, occ_f), mesh_points(grid128))
    mi = grid128.m_index
    change_s = band_s.stark[mi] + band_s.bs[mi]
    change_u = band_u.stark[mi] + band_u.bs[mi]
    assert abs(change_s) > abs(change_u)


def sambe_shift_over_g2(gap, omega, g, m_max=8):
    """Exact quasi-energy shift over g^2 of the lower level of two levels ``gap`` apart,
    driven by 2 g cos(omega t) sigma_x.

    The Floquet matrix in Sambe space, H_mn = H_(m-n) + m omega delta_mn with
    H_(+-1) = g sigma_x, is truncated at |m| <= ``m_max`` (Shirley, Phys. Rev. 138,
    B979 (1965); Sambe, Phys. Rev. A 7, 2203 (1973)). The lower level sits at 0, so
    its quasi-energy is the eigenvalue nearest 0. It is read as the Rayleigh
    quotient of its eigenvector: every term of that sum is of order g^2, so its
    rounding is relative to the shift, not to the m omega of the far blocks.
    """
    size = 2 * m_max + 1
    h = np.kron(np.diag(np.arange(-m_max, m_max + 1) * omega), np.eye(2))
    h += np.kron(np.eye(size), np.diag([0.0, gap]))
    h += np.kron(np.eye(size, k=1) + np.eye(size, k=-1), [[0.0, g], [g, 0.0]])
    values, vectors = np.linalg.eigh(h)
    x = vectors[:, np.argmin(abs(values))]
    return (x @ h @ x) / g**2


def test_dressed_band_matches_sambe_quasi_energies():
    # at u = 0 each k is a driven two-level system; its g^2 shift, Richardson-
    # extrapolated to g -> 0 from g = 4e-3, 2e-3, 1e-3 (remainder O(g^6)), is
    # the Stark plus Bloch-Siegert shift of the dressed band over g_l^2
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.6)
    grid = BZGrid.square(16)
    kx, ky = k = grid.point(np.array([grid.index(*n) for n in ((0, 0), (1, 0), (3, 5), (8, 8))]))
    band = effective_band(p, pair_band(p, grid), k)
    gaps = p.eps21 + 2.0 * (p.t2 - p.t1) * (np.cos(kx) + np.cos(ky))
    for change, gap in zip((band.stark + band.bs) / p.g_l**2, gaps):
        f = [sambe_shift_over_g2(gap, p.omega_l, g) for g in (4e-3, 2e-3, 1e-3)]
        f = [(4.0 * b - a) / 3.0 for a, b in zip(f, f[1:])]
        exact = (16.0 * f[1] - f[0]) / 15.0
        assert abs(change / exact - 1.0) <= 1e-11, (gap, change, exact)


# ---------------------------------------------------------------------------
# effective hopping
# ---------------------------------------------------------------------------


def test_hopping_recovers_bare_value(grid256):
    p = ModelParams(g_l=0.0, omega_l=2.68)
    occ = occupations(p, grid256)
    t = effective_hopping(p, pair_band(p, grid256, occ))
    assert t == pytest.approx(p.t1, abs=1e-5)


def test_hopping_second_order_convergence():
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.87, g_l=0.01)
    values = {}
    for l in (64, 128, 256):
        g = BZGrid.square(l)
        occ = occupations(p, g)
        values[l] = effective_hopping(p, pair_band(p, g, occ))
    d1 = abs(values[64] - values[128])
    d2 = abs(values[128] - values[256])
    assert d1 / d2 == pytest.approx(4.0, abs=0.5)


def test_hopping_zero_crossing_unscreened(grid256):
    # the drive strength where the curvature cancels: sqrt(|t1| d^2 / |t21|)
    p = ModelParams(u11=0.0, u12=0.0, omega_l=float(band_gap(ModelParams(), GAMMA)) - 0.03)
    occ = occupations(p, grid256)
    closed_form = np.sqrt(2 * abs(p.t1) * 0.03 ** 2 / (2 * abs(p.t21)))
    assert closed_form == pytest.approx(0.015)
    lo = effective_hopping(p.replace(g_l=0.014), pair_band(p, grid256, occ))
    hi = effective_hopping(p.replace(g_l=0.016), pair_band(p, grid256, occ))
    assert lo > 0 > hi
    crossing = 0.014 + 0.002 * lo / (lo - hi)
    assert abs(crossing - closed_form) <= 1e-3


def test_screening_counteracts_hopping_reduction(grid256, params, occ256):
    omega_ex = solve_exciton_resonance(params, pair_band(params, grid256, occ256)).omega_ex
    p = params.with_laser(omega_ex - 0.03).replace(g_l=0.015)
    t = effective_hopping(p, pair_band(p, grid256, occ256))
    assert t > 0


def test_hopping_requires_reasonable_grid():
    p = ModelParams(g_l=0.0)
    g = BZGrid.square(8)
    occ = occupations(p, g)
    with pytest.raises(ValueError):
        effective_hopping(p, pair_band(p, g, occ))


# ---------------------------------------------------------------------------
# two-level comparator and the Stark/BS ratio
# ---------------------------------------------------------------------------


def test_tla_ratio_forced_value():
    p = ModelParams(omega_l=2.68)
    st, bs = tla_shifts(p, 2.71)
    assert abs(st / bs) == pytest.approx((2.68 + 2.71) / 0.03, rel=1e-12)
    assert abs(st / bs) == pytest.approx(179.67, abs=0.01)


def test_tla_limits():
    p = ModelParams(omega_l=2.68)
    st, bs = tla_shifts(p, 1e9)
    assert abs(st) < 1e-12 and abs(bs) < 1e-12
    st0, bs0 = tla_shifts(p.replace(omega_l=0.0), 2.71)
    assert st0 == -bs0


def test_tla_guard():
    p = ModelParams(omega_l=2.71)
    with pytest.raises(ResonantDenominator):
        tla_shifts(p, 2.71)


def test_ratio_unscreened_formula(grid64):
    p = ModelParams(u11=0.0, u12=0.0, omega_l=2.87)
    occ = occupations(p, grid64)
    d0 = bare_detuning(p, GAMMA)
    assert stark_bs_ratio(p, pair_band(p, grid64, occ), GAMMA) == (d0 + 2.0 * p.omega_l) / d0
    assert stark_bs_ratio(p, pair_band(p, grid64, occ), GAMMA) == pytest.approx(192.3, abs=0.1)


def test_ratio_orderings_against_tla(grid256, params, occ256):
    omega_ex = solve_exciton_resonance(params, pair_band(params, grid256, occ256)).omega_ex
    p = params.with_laser(omega_ex - 0.03)
    st, bs = tla_shifts(p, omega_ex)
    tla = abs(st / bs)
    assert stark_bs_ratio(p, pair_band(p, grid256, occ256), GAMMA) > tla
    assert stark_bs_ratio(p, pair_band(p, grid256, occ256), M) < tla


def test_ratio_signed_option(grid128, params, occ128):
    # between the exciton line and the band edge the screened detuning is negative
    p = params.with_laser(2.8)
    dets = screened_detunings(p, pair_band(p, grid128, occ128), GAMMA)
    signed = dets.delta_bs / dets.delta
    assert signed < 0
    assert stark_bs_ratio(p, pair_band(p, grid128, occ128), GAMMA) == -signed
