"""Per-k values at a few points are the same bits as the whole-mesh fields there."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mesh_points
from floqex import (
    BZGrid,
    ModelParams,
    ResonantDenominator,
    bare_detuning,
    effective_band,
    interaction_kernel,
    occupations,
    pair_band,
    screened_detunings,
)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _values(params, grid, occ, k):
    """Every per-k value of the library at ``k``, in a fixed order."""
    dets = screened_detunings(params, pair_band(params, grid, occ), k)
    band = effective_band(params, pair_band(params, grid, occ), k)
    forward = interaction_kernel(params, pair_band(params, grid, occ), k)
    return [bare_detuning(params, k), dets.delta, dets.delta_bs, band.energies, band.stark,
            band.bs, forward]


@settings(max_examples=60, deadline=None)
@given(half=st.integers(1, 32), doping=st.floats(0.0, 0.6),
       t1=st.sampled_from((0.05, 0.3, 1e-3)), t1_sign=st.sampled_from((1.0, -1.0)),
       t21=st.sampled_from((0.2, 0.05)), t21_sign=st.sampled_from((1.0, -1.0)),
       u12=st.sampled_from((0.0, 0.8)), omega_l=st.floats(1.0, 6.0), data=st.data())
def test_point_values_match_the_mesh_bitwise(half, doping, t1, t1_sign, t21, t21_sign, u12,
                                             omega_l, data):
    l = 2 * half
    g = BZGrid.square(l)
    t1 *= t1_sign
    p = ModelParams(t1=t1, t2=t1 + t21 * t21_sign, u12=u12, doping=doping).with_laser(omega_l)
    occ = occupations(p, g)
    drawn = data.draw(st.lists(st.integers(0, g.n_sites - 1), min_size=1, max_size=12))
    idx = np.array([g.gamma_index, g.y_index, g.m_index, *g.path_y_gamma_m(), *drawn])
    try:
        fields = _values(p, g, occ, mesh_points(g))
    except ResonantDenominator:
        with pytest.raises(ResonantDenominator):
            _values(p, g, occ, g.point(idx))
        return
    for field, at_points in zip(fields, _values(p, g, occ, g.point(idx))):
        assert np.array_equal(_bits(field[idx]), _bits(at_points))
    # one point as a pair of Python floats
    i = drawn[0]
    for field, at_point in zip(fields, _values(p, g, occ, (float(g.k[i // l]), float(g.k[i % l])))):
        assert _bits(field[i]) == _bits(at_point)
