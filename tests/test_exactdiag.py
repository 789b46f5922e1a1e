"""Dense-reference checks: the pair-sector resolvent must reproduce the analytic
ladder resummation, the Wannier-type eigenvalue must match the bisection root,
and the free-resolvent shift identities must hold as matrix statements."""

import numpy as np
import pytest

from floqex import ModelParams
from floqex.exactdiag import (
    FockSpace,
    SmallSystem,
    analytic_stark,
    bound_state_root,
    check_commutator_identities,
    full_fock_stark,
    full_hamiltonian,
    oracle_exciton_eigen,
    oracle_stark,
    pair_hamiltonian,
    random_system,
    restriction_leakage,
)


def make_system(gaps, u11=1.6, u12=0.8, omega_l=2.4, **extra):
    gaps = np.asarray(gaps, dtype=float)
    extra.setdefault("doping", 0.0)
    params = ModelParams(u11=u11, u12=u12, omega_l=omega_l, **extra)
    return SmallSystem(eps1=np.zeros(len(gaps)), eps2=gaps, params=params)


def test_basis_dimension():
    system = make_system([3.0, 3.2, 3.4])
    assert system.basis_dim == 7
    with pytest.raises(ValueError):
        make_system(np.linspace(3.0, 4.0, 7))
    with pytest.raises(ValueError):
        make_system([3.0], doping=0.1)


def test_single_point_closed_form():
    # one momentum: resolvent and ladder both give -1/(gap - omega - u11 + u12)
    system = make_system([3.1], omega_l=2.2)
    expected = -1.0 / (3.1 - 2.2 - 1.6 + 0.8)
    assert oracle_stark(system) == pytest.approx(2.0 * expected, rel=1e-12)
    assert analytic_stark(system) == pytest.approx(2.0 * expected, rel=1e-12)


def test_decoupled_points_without_interband_term():
    system = make_system([3.0, 3.5, 4.2], u12=0.0, omega_l=2.3)
    expected = 2.0 * np.sum(-1.0 / (np.array([3.0, 3.5, 4.2]) - 2.3 - 1.6))
    assert oracle_stark(system) == pytest.approx(expected, rel=1e-12)
    assert analytic_stark(system) == pytest.approx(expected, rel=1e-12)


def test_reference_instance_four_points():
    rng = np.random.default_rng(42)
    base = random_system(rng, 4)
    system = SmallSystem(eps1=base.eps1, eps2=base.eps2,
                         params=base.params.with_laser(2.4))
    dense = oracle_stark(system)
    resummed = analytic_stark(system)
    assert abs(dense - resummed) / abs(resummed) <= 1e-10


def test_random_instances_match_resummation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_k = int(rng.integers(2, 5))
        base = random_system(rng, n_k)
        omega_ex = bound_state_root(base)
        system = SmallSystem(
            eps1=base.eps1, eps2=base.eps2,
            params=base.params.with_laser(omega_ex - rng.uniform(0.1, 0.6)),
        )
        dense = oracle_stark(system)
        resummed = analytic_stark(system)
        assert abs(dense - resummed) / abs(resummed) <= 1e-10


def test_two_point_eigenvalue_closed_form():
    g1, g2, u11, u12 = 3.0, 3.6, 1.6, 0.8
    system = make_system([g1, g2], u11=u11, u12=u12)
    d1 = g1 - u11 + 2 * u12
    d2 = g2 - u11 + 2 * u12
    c = u12 / 2.0
    lowest = 0.5 * (d1 + d2) - c - np.sqrt(0.25 * (d1 - d2) ** 2 + c ** 2)
    assert oracle_exciton_eigen(system) == pytest.approx(lowest, rel=1e-12)


def test_flat_gap_eigenvalue_binding():
    system = make_system([3.7] * 4)
    expected = 3.7 - 1.6 + 2 * 0.8 - 0.8
    assert oracle_exciton_eigen(system) == pytest.approx(expected, abs=1e-12)


def test_eigenvalue_without_interband_coupling():
    system = make_system([3.0, 3.4, 4.0], u12=0.0)
    assert oracle_exciton_eigen(system) == pytest.approx(3.0 - 1.6, abs=1e-12)


def test_eigenvalue_matches_bisection_root():
    rng = np.random.default_rng(12)
    for _ in range(10):
        system = random_system(rng, int(rng.integers(2, 6)))
        assert abs(oracle_exciton_eigen(system) - bound_state_root(system)) <= 1e-10


def test_pair_hamiltonian_is_symmetric():
    system = make_system([3.0, 3.3, 3.9, 4.4])
    h = pair_hamiltonian(system)
    assert np.array_equal(h, h.T)


# ---------------------------------------------------------------------------
# resolvent shift identities on the truncated Fock space
# ---------------------------------------------------------------------------


def test_commutator_identities_pass():
    system = random_system(np.random.default_rng(3), 2)
    report = check_commutator_identities(system, trials=20, seed=7)
    assert report.max_dev <= 1e-12
    assert report.negative_control_dev > 1e-6
    assert report.passed
    assert report.seed == 7 and report.trials == 20


def test_commutator_identities_three_momenta():
    system = random_system(np.random.default_rng(9), 3)
    report = check_commutator_identities(system, trials=3, seed=1)
    assert report.max_dev <= 1e-12
    assert report.passed


def test_commutator_pattern_equals_dense_products():
    # the resolvent is diagonal, so the sparse-pattern deviation must equal the
    # literal matrix-product deviation entry for entry
    system = random_system(np.random.default_rng(4), 1)
    space = FockSpace(system)
    energy = 5.1234567
    g_e = np.diag(space.resolvent(energy))
    mode = 2
    shift = space.mode_energy[mode] - space.mu
    g_shifted = np.diag(space.resolvent(energy - shift))
    c_dag = space.dense_operator(*space.mode_entries([(mode, True)]))
    dense_dev = np.max(np.abs(g_e @ c_dag - c_dag @ g_shifted))
    rows, cols, vals = space.mode_entries([(mode, True)])
    pattern_dev = np.max(np.abs(vals * (space.resolvent(energy)[rows]
                                        - space.resolvent(energy - shift)[cols])))
    assert dense_dev == pytest.approx(pattern_dev, abs=1e-300)
    assert dense_dev <= 1e-12


def test_wrong_shift_breaks_identity():
    system = random_system(np.random.default_rng(4), 1)
    space = FockSpace(system)
    energy = 5.1234567
    mode = 2
    rows, cols, vals = space.mode_entries([(mode, True)])
    shift = space.mode_energy[mode] - space.mu
    dev = np.max(np.abs(vals * (space.resolvent(energy)[rows]
                                - space.resolvent(energy - shift / 2.0)[cols])))
    assert dev > 1e-6


def test_photon_identity_respects_truncation():
    system = random_system(np.random.default_rng(8), 1)
    space = FockSpace(system)
    rows, cols, vals = space.photon_creation_entries()
    energy = 7.77
    dev = np.max(np.abs(vals * (space.resolvent(energy)[rows]
                                - space.resolvent(energy - space.omega_c)[cols])))
    assert dev <= 1e-12


# ---------------------------------------------------------------------------
# full-space diagnostic
# ---------------------------------------------------------------------------


def test_full_space_value_close_to_pair_sector():
    rng = np.random.default_rng(5)
    base = random_system(rng, 2)
    omega_ex = bound_state_root(base)
    system = SmallSystem(eps1=base.eps1, eps2=base.eps2,
                         params=base.params.with_laser(omega_ex - 0.4))
    leak = restriction_leakage(system)
    assert np.isfinite(leak)
    assert 0.0 <= leak < 0.5  # sanity bound only; the value is reported, not pinned


def test_full_space_first_order_couplings():
    """At g_c = 0 and u = 0 the one-sided u11 and u12 derivatives of the full-space
    value equal the pair sector's: 2 1'G (dH/du) G 1 with G = 1/(omega_l - gap),
    dH/du11 = -1 from the Hartree shift and dH/du12 = 2 - 1/N from the shift and
    the -u12/N attraction."""
    base = random_system(np.random.default_rng(5), 2)
    params = base.params.replace(u11=0.0, u12=0.0, g_c=0.0, omega_l=2.0)

    def derivative(stark, key):
        # Richardson extrapolation of the forward difference at h = 1e-5 and 2e-5
        def value(h):
            return stark(SmallSystem(eps1=base.eps1, eps2=base.eps2,
                                     params=params.replace(**{key: h})))
        d1, d2 = ((value(h) - value(0.0)) / h for h in (1e-5, 2e-5))
        return 2.0 * d1 - d2

    g = 1.0 / (2.0 - base.gaps)
    closed_form = {"u11": -2.0 * np.sum(g**2), "u12": 4.0 * np.sum(g**2) - np.sum(g) ** 2}
    for key, expected in (("u11", -2.5953014), ("u12", 2.6736257)):
        full = derivative(full_fock_stark, key)
        assert full == pytest.approx(derivative(oracle_stark, key), rel=1e-6)
        assert full == pytest.approx(closed_form[key], rel=1e-6)
        assert full == pytest.approx(expected, rel=1e-7)


def test_full_space_value_with_cavity_and_u22_is_pinned():
    # u22 acts only on two band-2 electrons, which one excitation never reaches,
    # so the value pins the u11, u12 and g_c terms; the u22 term is checked on
    # the doubly occupied band-2 state at q = 0, which it shifts by u22/N
    base = random_system(np.random.default_rng(11), 2)
    params = base.params.replace(u22=0.9, g_c=0.05, mu=0.1)
    system = SmallSystem(eps1=base.eps1, eps2=base.eps2,
                         params=params.with_laser(bound_state_root(base) - 0.3))
    assert full_fock_stark(system) == pytest.approx(-12.736499045768921, rel=1e-12)
    space = FockSpace(system)
    up, down = space.mode(0, 2, 0), space.mode(0, 2, 1)
    pair = (1 << up) | (1 << down)
    free = space.mode_energy[up] + space.mode_energy[down] - 2.0 * space.mu
    assert full_hamiltonian(system)[pair, pair] == pytest.approx(free + 0.9 / 2, abs=1e-12)


def test_full_space_requires_two_momenta():
    system = make_system([3.0, 3.3, 3.9])
    with pytest.raises(ValueError):
        full_fock_stark(system)
