import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mesh_points
from floqex import (
    BZGrid,
    ModelParams,
    band_gap,
    bare_detuning,
    dispersion,
    occupations,
    pair_band,
    solve_exciton_resonance,
)
from floqex.lattice import gap_from_structure_factor

GAMMA = (0.0, 0.0)
M = (np.pi, np.pi)


def test_default_parameters():
    p = ModelParams()
    assert (p.u11, p.u12, p.eps21, p.t1, p.t2) == (1.6, 0.8, 3.7, 0.05, -0.15)
    assert p.doping == 0.0
    assert p.t21 == pytest.approx(-0.2)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(doping=1.0)
    with pytest.raises(ValueError):
        ModelParams(doping=-0.1)
    with pytest.raises(ValueError):
        ModelParams(u11=-0.5)
    with pytest.raises(ValueError):
        ModelParams(eps21=float("inf"))


def test_with_laser_keeps_cavity_detuning():
    p = ModelParams()
    q = p.with_laser(2.5)
    assert q.omega_l == 2.5
    assert q.delta_c == pytest.approx(p.delta_c, abs=1e-15)


def test_gap_at_high_symmetry_points():
    p = ModelParams()
    assert band_gap(p, GAMMA) == pytest.approx(2.9)
    assert band_gap(p, M) == pytest.approx(4.5)
    assert dispersion(p, 2, GAMMA) - dispersion(p, 1, GAMMA) == pytest.approx(2.9)


def test_gap_dispersionless_when_hoppings_equal():
    p = ModelParams(t1=-0.15, t2=-0.15)
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = tuple(rng.uniform(0, 2 * np.pi, size=2))
        assert band_gap(p, k) == pytest.approx(p.eps21, abs=1e-12)


def test_dispersion_rejects_bad_band():
    with pytest.raises(ValueError):
        dispersion(ModelParams(), 3, GAMMA)


def test_bare_detuning_examples():
    p = ModelParams(omega_l=2.87)
    assert bare_detuning(p, GAMMA) == pytest.approx(0.03)
    assert bare_detuning(p, M) == pytest.approx(1.63)
    k = (0.7, 1.3)
    on_resonance = ModelParams(omega_l=float(band_gap(p, k)))
    assert bare_detuning(on_resonance, k) == pytest.approx(0.0, abs=1e-15)


def test_bare_detuning_linear_in_drive_frequency():
    k = (1.1, 0.4)
    base = ModelParams(omega_l=2.5)
    d0 = bare_detuning(base, k)
    for dw in (0.1, 0.25, 0.7):
        assert bare_detuning(base.replace(omega_l=2.5 + dw), k) == pytest.approx(d0 - dw)


def test_grid_contains_gamma_and_sums_weights(grid64):
    assert grid64.point(grid64.gamma_index) == (0.0, 0.0)


def test_grid_closed_under_negation(grid64):
    two_pi = 2 * np.pi
    for nx, ny in [(0, 0), (1, 0), (5, 17), (63, 2)]:
        idx = grid64.index(nx, ny)
        partner = grid64.index(-nx, -ny)
        assert grid64.index(-(-nx), -(-ny)) == idx
        for k_partner, k in zip(grid64.point(partner), grid64.point(idx)):
            assert k_partner == pytest.approx((-k) % two_pi, abs=1e-12)


def test_inversion_symmetry_of_bands(grid64):
    p = ModelParams()
    l = grid64.l
    eps1 = dispersion(p, 1, mesh_points(grid64))
    for nx, ny in [(3, 9), (40, 1), (31, 31)]:
        a = eps1[grid64.index(nx, ny)]
        b = eps1[grid64.index(l - nx, l - ny)]
        assert a == pytest.approx(b, abs=1e-13)


def test_high_symmetry_indices(grid64):
    assert grid64.point(grid64.y_index)[0] == 0.0
    assert grid64.point(grid64.y_index)[1] == pytest.approx(np.pi)
    assert grid64.point(grid64.m_index)[0] == pytest.approx(np.pi)
    with pytest.raises(ValueError):
        BZGrid.square(9).y_index


def test_path_endpoints(grid64):
    path = grid64.path_y_gamma_m()
    assert path[0] == grid64.y_index
    assert path[grid64.l // 2] == grid64.gamma_index
    assert path[-1] == grid64.m_index
    assert len(path) == grid64.l + 1


def _literal_mesh(l):
    """Flat (kx, ky) as the mesh was first built: meshgrid of k = 2*pi*n/l."""
    k = 2.0 * np.pi * np.arange(l) / l
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return kx.ravel(), ky.ravel()


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _structure_factor(grid):
    """Flat cos kx + cos ky as the library forms it, c_i + c_j of the grid's cosines."""
    return (grid.cos_k[:, None] + grid.cos_k).ravel()


@pytest.mark.parametrize("l", [1, 2, 3, 17, 64, 256])
def test_structure_factor_is_bitwise_cos_sum(l):
    g = BZGrid.square(l)
    kx, ky = _literal_mesh(l)
    assert np.array_equal(_bits(_structure_factor(g)), _bits(np.cos(kx) + np.cos(ky)))
    assert all(map(np.array_equal, mesh_points(g), (kx, ky)))


@pytest.mark.parametrize("l", [3, 17, 64])
def test_grid_band_functions_match_pair_path_bitwise(l):
    """The whole mesh as one array pair (updated in place) equals each point as scalars."""
    g = BZGrid.square(l)
    mesh = mesh_points(g)
    for p in (ModelParams(), ModelParams(t1=-0.07, t2=0.11, eps21=2.3, omega_l=2.1)):
        fields = [band_gap(p, mesh), bare_detuning(p, mesh),
                  dispersion(p, 1, mesh), dispersion(p, 2, mesh)]
        assert np.array_equal(_bits(fields[0]),
                              _bits(gap_from_structure_factor(p, _structure_factor(g))))
        for i in range(g.n_sites):
            k = g.point(i)
            at_point = [band_gap(p, k), bare_detuning(p, k), dispersion(p, 1, k),
                        dispersion(p, 2, k)]
            assert [_bits(f[i]) for f in fields] == [_bits(v) for v in at_point]


@pytest.mark.parametrize("l", [3, 8, 17])
def test_point_matches_flat_coordinates(l):
    g = BZGrid.square(l)
    kx, ky = mesh_points(g)
    for i in range(g.n_sites):
        assert g.point(i) == (kx[i], ky[i])


@pytest.mark.parametrize("doping, ceiling", [(0.0, 0.1), (0.05, 1.0)])
def test_resonance_path_holds_no_mesh_array(doping, ceiling):
    """Grid, filling and exciton solve at l = 1024 stay below ``ceiling`` l x l float64 arrays."""
    l = 1024
    p = ModelParams(doping=doping)
    tracemalloc.start()
    try:
        g = BZGrid.square(l)
        occ = occupations(p, g)
        solve_exciton_resonance(p, pair_band(p, g, occ))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ceiling * 8 * l * l, peak / (8 * l * l)
    assert not {"kx", "ky"} & set(vars(g))
    assert "n_k" not in vars(occ)


def _lexsort_filling(l, t1, doping):
    """(n_k, minority) from the literal lexsort of (energy, kx, ky) over the flat mesh."""
    kx, ky = _literal_mesh(l)
    eps1 = 2.0 * t1 * (np.cos(kx) + np.cos(ky))
    n_sites = l * l
    n_filled = int(round((1.0 - doping) * n_sites))
    expected = np.zeros(n_sites)
    expected[np.lexsort((ky, kx, eps1))[:n_filled]] = 1.0
    filled = n_filled <= n_sites - n_filled
    return expected, (np.flatnonzero(expected == (1.0 if filled else 0.0)), filled)


def _assert_filling_is_lexsort(l, t1, doping):
    p = ModelParams(t1=t1, doping=doping)
    occ = occupations(p, BZGrid.square(l))
    expected, (idx, filled) = _lexsort_filling(l, t1, doping)
    assert occ.n_filled == int(expected.sum())
    assert occ.filled == filled
    rows, cols = occ.minority_states()
    assert rows.dtype == cols.dtype == np.intp
    assert np.array_equal(np.sort(rows * l + cols), idx)
    for i in range(l):  # the tie row among them
        assert np.array_equal(occ.occupancy(i), expected[i * l:(i + 1) * l] == 1.0)
    assert np.array_equal(_bits(occ.n_k), _bits(expected))
    return occ


# t1 = 0 makes the whole band one tie shell; doping 0.999 lists the filled
# states, and doping 0.5 on an even mesh is the tie that lists them too.
# Small t1 tries the per-row count's bound tau/scale on small energies; at
# t1 = 1e-300 those near gamma = 0 are subnormal, so their rounding is not
# relative.
@pytest.mark.parametrize("l", [1, 2, 3, 9, 16, 17])
@pytest.mark.parametrize("t1", [0.05, -0.05, 0.0, 1e-3, 1e-300])
@pytest.mark.parametrize("doping", [0.0, 0.05, 0.5, 0.999])
def test_filling_matches_lexsort_reference(l, t1, doping):
    occ = _assert_filling_is_lexsort(l, t1, doping)
    if doping == 0.5 and l % 2 == 0:
        assert occ.filled


@pytest.mark.parametrize("l", [1, 2, 3, 9, 16, 17])
@pytest.mark.parametrize("doping", [0.0, 0.05, 0.5, 0.999])
def test_filling_holds_no_array_longer_than_a_row(l, doping):
    # the filling is kept row by row; n_k, the only mesh-sized array, is not built
    occ = occupations(ModelParams(doping=doping), BZGrid.square(l))
    held = [v for value in vars(occ).values()
            for v in (value if isinstance(value, tuple) else (value,))]
    assert max(np.size(v) for v in held) <= l
    assert "n_k" not in vars(occ)


@settings(max_examples=80, deadline=None)
@given(l=st.integers(1, 33),
       t1=st.sampled_from((0.05, -0.05, 0.3, -1e-3, 0.0, 1e-3, 1e-300, -1e-300)),
       doping=st.floats(0.0, 1.0, exclude_max=True))
def test_filling_property_matches_lexsort(l, t1, doping):
    _assert_filling_is_lexsort(l, t1, doping)


def test_full_filling():
    p = ModelParams(doping=0.0)
    g = BZGrid.square(8)
    occ = occupations(p, g)
    assert np.array_equal(occ.n_k, np.ones(64))
    assert occ.nu == 1.0


def test_half_filling_small_grid():
    occ = occupations(ModelParams(doping=0.5), BZGrid.square(2))
    assert occ.n_filled == 2
    assert occ.nu == 0.5
    assert int(np.sum(occ.n_k)) == 2


def test_step_filling_matches_exhaustive_sort():
    # independent oracle: sort every point by (energy, kx, ky) and fill the head
    p = ModelParams(doping=0.25, t1=0.05)
    g = BZGrid.square(16)
    occ = occupations(p, g)
    assert occ.n_filled == 192
    kx, ky = mesh = mesh_points(g)
    eps1 = dispersion(p, 1, mesh)
    ranked = sorted(range(g.n_sites), key=lambda i: (eps1[i], kx[i], ky[i]))
    expected = np.zeros(g.n_sites)
    expected[ranked[:192]] = 1.0
    assert np.array_equal(occ.n_k, expected)


def test_occupation_deterministic(grid64):
    p = ModelParams(doping=0.3)
    a = occupations(p, grid64)
    b = occupations(p, grid64)
    assert np.array_equal(a.n_k, b.n_k)
    assert a.nu == b.nu


@pytest.mark.parametrize("doping", [0.0, 0.1, 0.37, 0.81])
def test_filling_tracks_doping(grid64, doping):
    occ = occupations(ModelParams(doping=doping), grid64)
    assert abs(occ.nu - (1.0 - doping)) <= 1.0 / grid64.n_sites
    assert occ.nu == np.sum(occ.n_k) / grid64.n_sites
