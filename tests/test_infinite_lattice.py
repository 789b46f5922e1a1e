"""The pair resolvent, exciton line and fig3c enhancement against the l = infinity
closed form of :mod:`infinite_lattice`, which shares no code with floqex.

Undoped, each lattice sum is a periodic trapezoidal rule of a function analytic
on the torus, so it converges geometrically in l: at l >= 256 it agrees with
l = infinity to rounding. A doped band's occupation steps at the Fermi surface,
so its sums converge only as l^-2.
"""

import numpy as np
import pytest

import infinite_lattice
from floqex import BZGrid, ModelParams, pair_band, solve_exciton_resonance
from floqex.config import parse_config
from floqex.scan import parse_csv
from floqex.scenarios import run_scenario


def hartree_shift(p):
    """(2 u12 - u11) nu at full filling, nu = 1."""
    return 2.0 * p.u12 - p.u11


@pytest.mark.parametrize("l", [256, 1024, 4096])
def test_real_resolvent_equals_the_infinite_lattice(l):
    p = ModelParams(u12=0.6)
    band = pair_band(p, BZGrid.square(l))
    edge = p.eps21 + hartree_shift(p) - 4.0 * abs(p.t21)
    z = np.linspace(edge - 2.0, edge - 0.01, 50)
    exact = infinite_lattice.resolvent(z, p.eps21, hartree_shift(p), p.t21)
    assert np.max(np.abs(band.resolvent(z) / exact - 1.0)) <= 1e-14


def test_complex_resolvent_equals_the_infinite_lattice():
    """Across the absorbance window at the default broadening, the row sums of l = 2048
    are at l = infinity to rounding (at l = 1024 they are 5.9e-7 off, at l = 256 1.8e-2)."""
    p = ModelParams()
    z = np.linspace(2.4, 5.0, 1301) + 0.005j
    exact = infinite_lattice.resolvent(z, p.eps21, hartree_shift(p), p.t21)
    values = pair_band(p, BZGrid.square(2048)).resolvent(z)
    assert np.max(np.abs(values / exact - 1.0)) <= 5e-12


@pytest.mark.parametrize("p", [ModelParams(), ModelParams(t1=-0.15, t2=-0.15, u12=0.5)],
                         ids=["defaults", "flat-gap"])
def test_exciton_line_equals_the_infinite_lattice(p):
    omega_ex = solve_exciton_resonance(p, pair_band(p, BZGrid.square(256))).omega_ex
    exact = infinite_lattice.exciton_line(p.eps21, hartree_shift(p), p.t21, p.u12)
    assert abs(omega_ex - exact) <= 1e-12
    if p.t21 == 0.0:
        assert abs(exact - (p.eps21 + hartree_shift(p) - p.u12)) <= 1e-12
    else:
        assert abs(exact - 2.6908243666328486) <= 1e-12


def test_fig3c_enhancement_equals_the_infinite_lattice(tmp_path):
    """At the matched pair the enhancement is (Delta_free / Delta_int)^2 at Gamma, with
    Delta_free = delta and Delta_int = (binding + delta)(1 - u12 R(omega_ex - delta)).

    The mesh row through Gamma converges as rho^l, rho ~ 1 - sqrt(2 binding / |B|)
    at omega_ex, so a line bound by less than the grid resolves is not at its
    l = infinity place: at l = 256 the rows u12 <= 0.3 (binding <= 1.5e-3 eV) are
    off by up to 3.6e-4 relative. The rows with l sqrt(2 binding / |B|) > 36
    (error ~ e^-36) are pinned; they are u12 >= 0.35 and hold the peak.
    """
    l, delta = 256, 0.05
    params, opts = parse_config(f"grid = {l}\n")
    run_scenario("fig3c", params, opts, tmp_path)
    header, data = parse_csv((tmp_path / "fig3c.csv").read_text())
    pinned = []
    for u12, enhancement in data[1:, [0, header.index("enhancement")]]:
        p = params.replace(u12=u12)
        args = (p.eps21, hartree_shift(p), p.t21)
        omega_ex = infinite_lattice.exciton_line(*args, u12)
        binding = p.eps21 + hartree_shift(p) - 4.0 * abs(p.t21) - omega_ex
        if l * np.sqrt(binding / abs(p.t21)) <= 36.0:  # 2 binding / |B| = binding / |t21|
            continue
        screening = 1.0 - u12 * infinite_lattice.resolvent(omega_ex - delta, *args)
        exact = (delta / ((binding + delta) * screening)) ** 2
        assert abs(enhancement / exact - 1.0) <= 1e-12, u12
        pinned.append(round(u12, 9))
    assert pinned == [round(0.35 + 0.05 * i, 9) for i in range(18)]


def test_density_of_states_integrates_to_one():
    # the density is even in gamma, so the states above gamma = 0 are half of them;
    # from gamma = -2 the integral is split at the van Hove point
    assert abs(2.0 * infinite_lattice.states_above(0.0)[1].sum() - 1.0) <= 1e-13
    assert abs(infinite_lattice.states_above(-2.0)[1].sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("t1", [0.05, -0.05])
@pytest.mark.parametrize("doping", [0.05, 0.2])
def test_doped_resolvent_and_exciton_line_converge_as_l_squared(doping, t1):
    """Real-z R at edge - 0.5 and edge - 0.05, and omega_ex, within l^-2 of l = infinity
    at l = 1024 (relative for R, in eV for omega_ex). C = 1 rounds up the largest
    error l^2 of R at doping 0.05 and 0.2 over l = 256, 1024 and 4096 (0.92, at
    t1 = 0.05); at l = 1024 the measured C is 0.08-0.76 for R and 0.17-0.46 for
    omega_ex.

    The error falls about 4-fold from l = 512 to 1024, checked at edge - 0.5 and on
    omega_ex (3.3-4.4 measured). The coefficient of l^-2 oscillates with l: at
    edge - 0.05 (doping 0.05, t1 = 0.05) it is 0.99, 0.76 and 0.90 at l = 512,
    1024 and 2048, a ratio of 5.2 there.
    """
    # u11 = 2 u12 keeps the Hartree shift at 0 for any filling; u12 = 1.2 binds a
    # line also where the holes empty the gap minimum (t1 > 0)
    p = ModelParams(t1=t1, doping=doping, u11=2.4, u12=1.2)
    band_args = (p.eps21, 0.0, p.t21)
    z = p.eps21 - 4.0 * abs(p.t21) - np.array([0.5, 0.05])
    exact = infinite_lattice.resolvent(z, *band_args, doping, t1)
    omega_exact = infinite_lattice.exciton_line(*band_args, p.u12, doping, t1)
    errors = {}
    for l in (512, 1024):
        band = pair_band(p, BZGrid.square(l))
        assert band.shift == 0.0
        omega_ex = solve_exciton_resonance(p, band).omega_ex
        errors[l] = np.append(np.abs(band.resolvent(z) / exact - 1.0), abs(omega_ex - omega_exact))
    assert np.all(errors[1024] <= 1.0 / 1024**2), errors[1024] * 1024**2
    ratio = errors[512] / errors[1024]
    assert 3.0 <= ratio[0] <= 5.0 and 3.0 <= ratio[2] <= 5.0, ratio


@pytest.mark.parametrize("t1", [0.05, -0.05])
@pytest.mark.parametrize("doping", [0.5, 0.6])
def test_doped_past_the_van_hove_point_converges_as_l_squared(doping, t1):
    """From doping 1/2 on, the holes reach the van Hove point gamma = 0 and floqex
    sums the filled states, now the fewer, directly. Real-z R at edge - 0.5 and
    edge - 0.05, and omega_ex, within C l^-2 of l = infinity at l = 1024 (relative
    for R, in eV for omega_ex), with C = 2: measured 0.24-1.26 for R and
    0.22-1.68 for omega_ex, the largest at doping 0.6 and t1 = 0.05. The error
    falls about 4-fold from l = 512 to 1024 (3.9-4.0 measured).
    """
    # u11 = 2 u12 keeps the Hartree shift at 0; u12 = 3.5 binds a line at every
    # filling here, also where the filled states lie far from the gap minimum
    p = ModelParams(t1=t1, doping=doping, u11=7.0, u12=3.5)
    band_args = (p.eps21, 0.0, p.t21)
    z = p.eps21 - 4.0 * abs(p.t21) - np.array([0.5, 0.05])
    exact = infinite_lattice.resolvent(z, *band_args, doping, t1)
    omega_exact = infinite_lattice.exciton_line(*band_args, p.u12, doping, t1)
    errors = {}
    for l in (512, 1024):
        band = pair_band(p, BZGrid.square(l))
        assert band.shift == 0.0 and band.occ.filled  # the filled states are listed
        omega_ex = solve_exciton_resonance(p, band).omega_ex
        errors[l] = np.append(np.abs(band.resolvent(z) / exact - 1.0), abs(omega_ex - omega_exact))
    assert np.all(errors[1024] <= 2.0 / 1024**2), errors[1024] * 1024**2
    ratio = errors[512] / errors[1024]
    assert 3.0 <= ratio[0] <= 5.0 and 3.0 <= ratio[2] <= 5.0, ratio
