"""Acceptance suite: one test per shipping criterion, each printed as PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and match the contract; nothing is deferred
to later calibration.
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import mesh_points
from floqex import (
    BZGrid,
    ModelParams,
    bare_detuning,
    grpa_stark_equivalence,
    occupations,
    pair_band,
    screened_detunings,
    solve_exciton_resonance,
    stark_bs_ratio,
    tla_shifts,
)
from floqex.cli import main
from floqex.exactdiag import (
    SmallSystem,
    analytic_stark,
    bound_state_root,
    check_commutator_identities,
    oracle_stark,
    random_system,
)
from floqex.scan import parse_csv
from floqex.scenarios import run_scenario
from floqex.config import parse_config


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {num:2d}: {description}")
        raise
    print(f"PASS  criterion {num:2d}: {description}")


def interpolated_zero(x, y):
    flips = np.where(np.diff(np.sign(y)) != 0)[0]
    assert len(flips) >= 1
    i = flips[0]
    return x[i] - y[i] * (x[i + 1] - x[i]) / (y[i + 1] - y[i])


def test_criterion_01_exciton_resonance(tmp_path):
    with criterion(1, "exciton resonance at 2.71 +/- 0.02 eV, l=1024, under 10 s"):
        params, opts = parse_config("grid = 1024\nworkers = 1\n")
        start = time.perf_counter()
        run_scenario("resonance", params, opts, tmp_path)
        elapsed = time.perf_counter() - start
        header, data = parse_csv((tmp_path / "resonance.csv").read_text())
        omega_ex = data[0, header.index("omega_ex")]
        assert abs(omega_ex - 2.71) <= 0.02
        assert data[0, header.index("converged")] == 1
        assert elapsed < 10.0


def test_criterion_02_hopping_zero_crossing(tmp_path):
    with criterion(2, "free-model hopping zero at g_l = 0.015 +/- 0.001 eV"):
        params, opts = parse_config("u11 = 0\nu12 = 0\n")
        run_scenario("fig1b", params, opts, tmp_path)
        header, data = parse_csv((tmp_path / "fig1b.csv").read_text())
        crossing = interpolated_zero(data[:, header.index("g_l")],
                                     data[:, header.index("t_eff")])
        assert abs(crossing - 0.015) <= 0.001
        closed_form = np.sqrt(2 * abs(params.t1) * 0.03 ** 2 / (2 * abs(params.t21)))
        assert abs(crossing - closed_form) <= 0.001


def test_criterion_03_dispersionless_binding():
    with criterion(3, "flat-band exciton binding equals u12 to 1e-10 eV"):
        grid = BZGrid.square(256)
        for u12 in (0.2, 0.5, 0.8):
            p = ModelParams(t1=-0.15, t2=-0.15, u12=u12)
            occ = occupations(p, grid)
            rep = solve_exciton_resonance(p, pair_band(p, grid, occ))
            assert abs(rep.binding - u12) <= 1e-10


def test_criterion_04_enhancement_peak(tmp_path):
    """Known failure: the model's own peak is 9.7627, below the required 10.

    At the matched pair (laser delta below omega_ex, free twin delta below its
    band edge) the free detuning at Gamma is delta and the screened one is
    (binding + delta)(1 - u12 R(omega_ex - delta)), so the enhancement is

        (delta / ((binding + delta)(1 - u12 R(omega_ex - delta))))^2.

    Undoped, R has the l = infinity closed form of ``tests/infinite_lattice.py``,
    R(z) = 1 / (A AGM(1, sqrt(1 - (2B/A)^2))) with A = eps21 + shift - z and
    B = 2 t21, which shares no code with floqex; ``test_infinite_lattice.py``
    pins fig3c's column to it at 1e-12. With it, at fig3c's delta = 0.05 the peak
    over u12 (step 0.001) is 9.7627235 at u12 = 0.501, and fig3c's 9.762719567908546
    at u12 = 0.5 is the model's own value, not a grid or step artefact. The peak
    reaches 10 only for delta <= 0.04771 (12.573 at delta = 0.03). The bound stays 10.
    """
    with criterion(4, "enhancement peak at u12 = 0.5 +/- 0.1 with ratio >= 10; "
                      "monotone decay over detuning"):
        params, opts = parse_config("")
        run_scenario("fig3c", params, opts, tmp_path)
        header, data = parse_csv((tmp_path / "fig3c.csv").read_text())
        u12 = data[:, header.index("u12")]
        enh = data[:, header.index("enhancement")]
        peak = int(np.nanargmax(enh))
        assert abs(u12[peak] - 0.5) <= 0.1

        run_scenario("fig3b", params, opts, tmp_path)
        h2, d2 = parse_csv((tmp_path / "fig3b.csv").read_text())
        ratios = d2[:, h2.index("ratio_gamma")]
        assert np.all(ratios > 1.0)
        assert np.all(np.diff(ratios) < 0.0)

        # known shortfall: the converged peak is 9.7627, the contract demands 10
        assert enh[peak] >= 10.0


def test_criterion_05_grpa_equivalence():
    with criterion(5, "ladder bubble equals screened shift to 1e-12 "
                      "on 100 random samples"):
        params = ModelParams()
        grid = BZGrid.square(64)
        occ = occupations(params, grid)
        omega_ex = solve_exciton_resonance(params, pair_band(params, grid, occ)).omega_ex
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            omega_l = rng.uniform(2.0, 2.88)
            if abs(omega_l - omega_ex) < 0.01:
                continue
            idx = int(rng.integers(0, grid.n_sites))
            bubble, screened = grpa_stark_equivalence(
                params.with_laser(omega_l), pair_band(params, grid, occ), idx)
            assert abs(bubble - screened) <= 1e-12 * abs(screened)
            checked += 1


def test_criterion_06_oracle_equivalence():
    with criterion(6, "dense pair-sector resolvent matches resummation to 1e-10; "
                      "shift identities pass at 1e-12 with failing control"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_k = int(rng.integers(1, 5))
            base = random_system(rng, n_k)
            omega_ex = bound_state_root(base)
            system = SmallSystem(
                eps1=base.eps1, eps2=base.eps2,
                params=base.params.with_laser(omega_ex - rng.uniform(0.1, 0.6)),
            )
            dense = oracle_stark(system)
            resummed = analytic_stark(system)
            assert abs(dense - resummed) <= 1e-10 * abs(resummed)

        report = check_commutator_identities(random_system(rng, 2), trials=20, seed=7)
        assert report.max_dev_fermion <= 1e-12
        assert report.max_dev_photon <= 1e-12
        assert report.negative_control_dev > 1e-12
        assert report.passed


def test_criterion_07_unscreened_collapse():
    with criterion(7, "u11 = u12 = 0 collapses to bare detunings bit-exactly"):
        p = ModelParams(u11=0.0, u12=0.0, omega_l=2.87)
        grid = BZGrid.square(128)
        occ = occupations(p, grid)
        mesh = mesh_points(grid)
        dets = screened_detunings(p, pair_band(p, grid, occ), mesh)
        delta0 = bare_detuning(p, mesh)
        assert np.array_equal(dets.delta, delta0)
        assert np.array_equal(dets.delta_bs, delta0 + 2.0 * p.omega_l)
        for nx, ny in ((0, 0), (3, 7), (64, 64), (100, 13)):
            k = grid.point(grid.index(nx, ny))
            d0 = bare_detuning(p, k)
            assert stark_bs_ratio(p, pair_band(p, grid, occ), k) == (d0 + 2.0 * p.omega_l) / d0


def test_criterion_08_absorbance_consistency(tmp_path):
    with criterion(8, "in-gap absorbance peak coincides with the exciton line "
                      "within one 2 meV step"):
        params, opts = parse_config("")
        run_scenario("absorbance", params, opts, tmp_path)
        header, data = parse_csv((tmp_path / "absorbance.csv").read_text())
        omegas = data[:, 0]
        alpha = data[:, header.index("alpha")]
        peak_omega = omegas[np.argmax(alpha)]
        grid = BZGrid.square(256)
        occ = occupations(params, grid)
        omega_ex = solve_exciton_resonance(params, pair_band(params, grid, occ)).omega_ex
        assert abs(peak_omega - omega_ex) <= 0.002


def test_criterion_09_ratio_orderings():
    with criterion(9, "Stark/BS ratio above the two-level value at Gamma, below at M, "
                      "with an interior maximum over u12"):
        params = ModelParams()
        grid = BZGrid.square(256)
        occ = occupations(params, grid)
        omega_ex = solve_exciton_resonance(params, pair_band(params, grid, occ)).omega_ex
        p = params.with_laser(omega_ex - 0.03)
        st, bs = tla_shifts(p, omega_ex)
        tla = abs(st / bs)
        gamma_pt = (0.0, 0.0)
        m_pt = grid.point(grid.m_index)
        assert stark_bs_ratio(p, pair_band(p, grid, occ), gamma_pt) > tla
        assert stark_bs_ratio(p, pair_band(p, grid, occ), m_pt) < tla

        ratios = []
        for u12 in np.arange(0.1, 1.2001, 0.05):
            pu = params.replace(u12=float(u12))
            w = solve_exciton_resonance(pu, pair_band(pu, grid, occ)).omega_ex
            ratios.append(stark_bs_ratio(pu.with_laser(w - 0.03), pair_band(pu, grid, occ),
                                         gamma_pt))
        peak = int(np.argmax(ratios))
        assert 0 < peak < len(ratios) - 1
        assert ratios[peak] > ratios[0] and ratios[peak] > ratios[-1]


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical config produces byte-identical CSV for 1 and 8 workers"):
        for workers, sub in ((1, "w1"), (8, "w8")):
            rc = main(["run", "fig3b", "--out", str(tmp_path / sub), "--grid", "64",
                       "--workers", str(workers)])
            assert rc == 0
        a = (tmp_path / "w1" / "fig3b.csv").read_bytes()
        b = (tmp_path / "w8" / "fig3b.csv").read_bytes()
        assert a == b
        for workers, sub in ((1, "x1"), (8, "x8")):
            rc = main(["run", "fig2", "--out", str(tmp_path / sub), "--grid", "64",
                       "--workers", str(workers)])
            assert rc == 0
        for name in ("fig2.csv", "fig2_u11.csv", "fig2_u12.csv"):
            assert (tmp_path / "x1" / name).read_bytes() == \
                (tmp_path / "x8" / name).read_bytes()
