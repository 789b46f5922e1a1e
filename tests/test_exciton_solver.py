"""The exciton solve by secant steps from above against a literal bisection, its cost
in closed-form passes, and the drive axes evaluated in one resolvent call."""

import math
import statistics

import numpy as np
import pytest

from floqex import BZGrid, ModelParams, pair_band, scenarios, solve_exciton_resonance
from floqex.config import RunOptions
from floqex.exactdiag import SmallSystem, bound_state_root, random_system
from floqex.exceptions import NoResonance, ResonantDenominator
from floqex.screening import (
    BRACKET_TOL,
    PairBand,
    ladder_sum,
    screened_detuning,
    solve_bound_state,
)

# fig2's interaction panels at the default options; fig3c sweeps the same u12 axis
U11_AXIS = scenarios._axis(0.0, 3.2, 0.1)
U12_AXIS = scenarios._axis(RunOptions.u12_min, RunOptions.u12_max, RunOptions.u12_step)


def bisection(lhs, edge, u11, u12):
    """The solve as plain bisection of the whole bracket to adjacent floats: the
    reference whose (omega, residual, converged) the secant solve must give."""
    lo, hi = edge - u11 - 5.0 * u12, edge - 1e-9
    if lhs(hi) < 1.0:
        raise NoResonance("no sign change")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if lhs(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    return omega, abs(lhs(omega) - 1.0), (hi - lo) <= BRACKET_TOL


def reference(p, band):
    band = band.for_params(p)
    return bisection(lambda w: band.closure(w, p.u12), band.edge, p.u11, p.u12)


def panel_models(base):
    """fig2's u11 and u12 panels around ``base``."""
    return ([base.replace(u11=float(v)) for v in U11_AXIS]
            + [base.replace(u12=float(v)) for v in U12_AXIS])


def assert_same_roots(models, band):
    """Each model's solve gives the bisection's bits, or both find no root; returns
    the number of roots found."""
    solved = 0
    for p in models:
        try:
            expected = reference(p, band)
        except NoResonance:
            with pytest.raises(NoResonance):
                solve_exciton_resonance(p, band)
            continue
        rep = solve_exciton_resonance(p, band)
        assert (rep.omega_ex, rep.residual, rep.converged) == expected, p
        solved += 1
    return solved


@pytest.mark.parametrize("doping", [0.0, 0.05])
def test_root_is_bisections_on_the_fig2_panels(doping):
    base = ModelParams(doping=doping)
    band = pair_band(base, BZGrid.square(256))
    models = panel_models(base)
    assert assert_same_roots(models, band) >= len(models) // 2


@pytest.mark.parametrize("doping", [0.0, 0.05])
def test_root_is_bisections_on_the_fig3c_axis_at_l1024(doping):
    base = ModelParams(doping=doping)
    band = pair_band(base, BZGrid.square(1024))
    models = [base.replace(u12=float(v)) for v in U12_AXIS]
    assert assert_same_roots(models, band) >= len(models) // 2


@pytest.mark.parametrize("l", [63, 255])
@pytest.mark.parametrize("t21", [0.2, 0.0, -0.2])
@pytest.mark.parametrize("doping", [0.0, 0.05])
def test_root_is_bisections_at_odd_l(l, t21, doping):
    # at odd l and t21 > 0, rows just below the edge take the complex root s
    base = ModelParams(t1=-0.15 - t21, t2=-0.15, doping=doping)
    band = pair_band(base, BZGrid.square(l))
    models = [base.replace(u12=float(v)) for v in U12_AXIS[::2]]
    assert assert_same_roots(models, band) >= len(models) // 2
    if t21 > 0.0:
        top = band.edge - 1e-9
        assert np.iscomplexobj(band._closed_form(top, True)[0])


def test_root_is_bisections_on_small_systems():
    rng = np.random.default_rng(11)
    for _ in range(40):
        base = random_system(rng, int(rng.integers(1, 6)))
        p = base.params.replace(u12=float(rng.uniform(0.1, 1.2)))
        system = SmallSystem(eps1=base.eps1, eps2=base.eps2, params=p)
        shift = -p.u11 + 2.0 * p.u12
        ones = np.ones(system.n_k)

        def lhs(w):
            return ladder_sum(system.gaps - w + shift, ones, p.u12, system.n_k, guard=0.0)

        edge = float(np.min(system.gaps)) + shift
        assert bound_state_root(system) == bisection(lhs, edge, p.u11, p.u12)[0]


@pytest.mark.parametrize("edge", [2.0**24 + 4.0, -2.0**24, 1e16, -1e300, math.inf, math.nan])
def test_collapsed_bracket_is_refused_before_any_closure_call(edge):
    def closure(w):
        raise AssertionError(f"closure called at {w}")

    with pytest.raises(NoResonance, match="rounds onto the continuum edge"):
        solve_bound_state(closure, edge, 1.6, 0.8, 1.0)


def test_median_solve_takes_at_most_16_passes(monkeypatch):
    # plain bisection of the whole bracket takes 55 closed-form passes per solve
    passes = []
    closed_form = PairBand._closed_form

    def counting(self, *args, **kwargs):
        passes[-1] += 1
        return closed_form(self, *args, **kwargs)

    monkeypatch.setattr(PairBand, "_closed_form", counting)
    base = ModelParams()
    band = pair_band(base, BZGrid.square(256))
    for p in panel_models(base):
        passes.append(0)
        solve_exciton_resonance(p, band)
    assert statistics.median(passes) <= 16


def scalar_detunings(p, band, k, omegas):
    """The screened detuning drive by drive, NaN where the scalar call refuses it."""
    rows = []
    for w in omegas:
        try:
            rows.append(screened_detuning(p.with_laser(w), band, k))
        except ResonantDenominator:
            rows.append(np.full(np.size(k[0]), math.nan))
    return np.array(rows)


@pytest.mark.parametrize("doping", [0.0, 0.05])
def test_drive_axis_into_the_band_at_odd_l(doping):
    # a drive axis reaching into the band: the rows of the one array call are the
    # scalar calls', NaN where the scalar call refuses a drive on a band resonance
    grid = BZGrid.square(255)
    k = grid.point(np.array([0, grid.index(1, 0), grid.index(40, 100)]))
    omegas = scenarios._axis(2.3, 3.4, 0.01)
    refused = 0
    for t21 in (-0.2, -0.1, -0.05, 0.3):
        base = ModelParams(doping=doping)
        p = base.replace(t1=base.t2 - t21)
        band = pair_band(p, grid)
        values = screened_detuning(p, band, k, omegas=omegas)
        expected = scalar_detunings(p, band, k, omegas)
        assert np.array_equal(values, expected, equal_nan=True), t21
        refused += np.isnan(values).all(axis=1).sum()
    assert refused >= 2  # Gamma's gap, 2.9 at t21 = -0.2 and 3.3 at -0.1


@pytest.mark.parametrize("doping", [0.0, 0.05])
def test_fig4_rows_are_the_per_drive_rows(doping):
    params = ModelParams(doping=doping)
    opts = RunOptions(grid=256, omega_min=2.3, omega_max=3.4, omega_step=0.01,
                      t21_values=(-0.2, 0.3))
    [(_, table)] = scenarios.SCENARIOS["fig4"](params, opts)
    grid = BZGrid.square(opts.grid)
    points = scenarios._symmetry_points(grid)
    for t21 in opts.t21_values:
        rows = table.columns["t21"] == t21
        p = params.replace(t1=params.t2 - t21)
        expected = scalar_detunings(p, pair_band(p, grid), points, table.axis[rows])
        deltas = np.array([table.columns[c][rows] for c in ("delta_gamma", "delta_y", "delta_m")])
        assert np.array_equal(deltas.T, expected, equal_nan=True)
        on_band = np.isnan(expected).any(axis=1)
        assert on_band.any() and (table.columns["converged"][rows][on_band] == 0).all()


def test_real_block_next_to_an_odd_band_matches_scalar_calls():
    # at odd l and t21 > 0 a real z just below the edge has rows with A^2 < B^2, which
    # take the complex root; the z sharing its block must still get their own bits
    p = ModelParams(t1=-0.45, t2=-0.15)
    band = pair_band(p, BZGrid.square(17))
    z = band.edge - np.array([1.0, 0.5, 0.2, 0.002])
    assert np.iscomplexobj(band._closed_form(z[-1], True)[0])
    assert not np.iscomplexobj(band._closed_form(z[0], True)[0])
    assert np.array_equal(band.resolvent(z, guard=0.0), [band.resolvent(w, guard=0.0) for w in z])
