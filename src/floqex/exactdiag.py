"""Brute-force references: dense pair-sector resolvents and operator identities.

Small systems carry a handful of momentum points with arbitrary band energies
(every analytic formula in this library is band-structure agnostic). At full
filling the Hilbert space restricted to {sea} + {single vertical pair} closes,
and the dense resolvent there must reproduce the analytic ladder resummation
of :mod:`floqex.screening` to near machine precision. A truncated Fock space
with photons provides exact shift identities for the free resolvent and a
diagnostic estimate of what the pair-sector restriction discards.

On the Fock space every product of fermion operators is a signed partial map
on basis indices, :meth:`FockSpace.mode_entries`; it holds the one
Jordan-Wigner sign rule that the commutator check, the full Hamiltonian and
the drive share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ResonantDenominator
from .lattice import ModelParams
from .screening import ladder_sum, solve_bound_state

_MAX_POINTS = 6
_MAX_COMMUTATOR_POINTS = 3
_PHOTON_CUTOFF = 2


@dataclass(frozen=True)
class SmallSystem:
    """A few momentum points with explicit band energies, lower band fully filled.

    The pair-sector basis is {|sea>} plus one vertical electron-hole pair per
    momentum and spin, dimension 1 + 2*n_k.
    """

    eps1: np.ndarray
    eps2: np.ndarray
    params: ModelParams

    def __post_init__(self):
        eps1 = np.atleast_1d(np.asarray(self.eps1, dtype=float))
        eps2 = np.atleast_1d(np.asarray(self.eps2, dtype=float))
        if eps1.shape != eps2.shape:
            raise ValueError("eps1 and eps2 must have matching shapes")
        if len(eps1) > _MAX_POINTS:
            raise ValueError(f"small systems are limited to {_MAX_POINTS} momentum points")
        if self.params.doping != 0.0:
            raise ValueError("the pair-sector reference is exact only at full filling")
        eps1.setflags(write=False)
        eps2.setflags(write=False)
        object.__setattr__(self, "eps1", eps1)
        object.__setattr__(self, "eps2", eps2)

    @property
    def n_k(self) -> int:
        return len(self.eps1)

    @property
    def gaps(self) -> np.ndarray:
        return self.eps2 - self.eps1


def random_system(rng: np.random.Generator, n_k: int, u11: float = 1.6,
                  u12: float = 0.8, gap_range=(2.5, 4.5)) -> SmallSystem:
    """Random band energies with gaps drawn uniformly from ``gap_range``."""
    eps1 = rng.uniform(-0.2, 0.2, size=n_k)
    gaps = rng.uniform(*gap_range, size=n_k)
    params = ModelParams(u11=u11, u12=u12, doping=0.0)
    return SmallSystem(eps1=eps1, eps2=eps1 + gaps, params=params)


def pair_hamiltonian(system: SmallSystem) -> np.ndarray:
    """Single-pair block (one spin) relative to the sea energy.

    Diagonal gap_q - u11 + 2*u12 from the Hartree-shifted vertical excitation,
    constant -u12/N everywhere from the interband electron-hole attraction.
    """
    p = system.params
    n = system.n_k
    h = np.diag(system.gaps - p.u11 + 2.0 * p.u12)
    h -= p.u12 / n * np.ones((n, n))
    return h


def oracle_stark(system: SmallSystem) -> float:
    """Dense-solve value of <sea| D (omega_l - H_pair)^(-1) D |sea> / |g_l|^2.

    Both spin blocks contribute identically, hence the factor 2. Matches
    ``analytic_stark`` to 1e-10 relative for every full-filling instance.
    """
    p = system.params
    h = pair_hamiltonian(system)
    ones = np.ones(system.n_k)
    lhs = p.omega_l * np.eye(system.n_k) - h
    try:
        x = np.linalg.solve(lhs, ones)
    except np.linalg.LinAlgError as err:
        raise ResonantDenominator(f"pair resolvent is singular: {err}") from err
    return 2.0 * float(ones @ x)


def analytic_stark(system: SmallSystem) -> float:
    """Ladder-resummation value 2 * sum_q (-1/Delta_q) on the same momenta."""
    p = system.params
    shifted = system.gaps - p.omega_l + (-p.u11 + 2.0 * p.u12)
    factor = 1.0 - ladder_sum(shifted, np.ones(system.n_k), p.u12, system.n_k)
    return 2.0 * float(np.sum(-1.0 / (shifted * factor)))


def oracle_exciton_eigen(system: SmallSystem) -> float:
    """Lowest pair eigenvalue; equals the bound-state root of the ladder closure."""
    return float(np.linalg.eigvalsh(pair_hamiltonian(system))[0])


def bound_state_root(system: SmallSystem) -> float:
    """Root of the ladder closure on the system's momenta (cross-check), from the
    solver of the lattice given the literal sum S."""
    p = system.params
    shift = -p.u11 + 2.0 * p.u12
    ones = np.ones(system.n_k)
    omega, _, _ = solve_bound_state(
        lambda w: ladder_sum(system.gaps - w + shift, ones, p.u12, system.n_k, guard=0.0),
        float(np.min(system.gaps)) + shift, p.u11, p.u12, nu=1.0,
    )
    return omega


# ---------------------------------------------------------------------------
# Truncated Fock space: shift identities for the free resolvent, full-space
# diagnostic for the pair-sector restriction.
# ---------------------------------------------------------------------------


# Mode energies and frequencies inside the truncated Fock model live on this
# dyadic lattice: subset sums of lattice values are exact in float64, so the
# resolvent shift identities hold bit-for-bit instead of drowning in rounding
# noise near small denominators. The snap perturbs energies by < 5e-10 eV.
ENERGY_LATTICE = 2.0 ** -30


def snap_energy(x):
    return np.round(np.asarray(x, dtype=float) / ENERGY_LATTICE) * ENERGY_LATTICE


class FockSpace:
    """Occupation-number basis for n_k momenta x 2 bands x 2 spins, plus photons.

    Basis index = photon * 2**n_modes + fermion_bitmask. The free Hamiltonian
    is diagonal here, so its resolvent is a vector over the basis.
    """

    def __init__(self, system: SmallSystem, photon_cutoff: int = _PHOTON_CUTOFF):
        self.system = system
        self.photon_cutoff = photon_cutoff
        self.n_k = system.n_k
        self.mu = float(snap_energy(system.params.mu))
        self.omega_c = float(snap_energy(system.params.omega_c))
        # mode ordering: (momentum, band, spin), spin fastest
        self.mode_energy = np.empty(4 * self.n_k)
        for q in range(self.n_k):
            for band in (1, 2):
                eps = system.eps1[q] if band == 1 else system.eps2[q]
                for spin in (0, 1):
                    self.mode_energy[self.mode(q, band, spin)] = snap_energy(eps)
        self.n_modes = 4 * self.n_k
        self.n_fermion = 1 << self.n_modes
        self.dim = self.n_fermion * (photon_cutoff + 1)

    def mode(self, q: int, band: int, spin: int) -> int:
        return (q * 2 + (band - 1)) * 2 + spin

    def free_energies(self) -> np.ndarray:
        """Diagonal of the free Hamiltonian (chemical potential included)."""
        fermion = np.zeros(self.n_fermion)
        for m in range(self.n_modes):
            occupied = (np.arange(self.n_fermion) >> m) & 1
            fermion += occupied * (self.mode_energy[m] - self.mu)
        photons = np.arange(self.photon_cutoff + 1) * self.omega_c
        return (photons[:, None] + fermion[None, :]).ravel()

    def resolvent(self, energy: float) -> np.ndarray:
        """Diagonal of (energy - h0)^(-1)."""
        return 1.0 / (energy - self.free_energies())

    def mode_entries(self, ops):
        """(rows, cols, signs) of a product of fermion operators as a signed basis map.

        ``ops`` lists (mode, dagger) pairs, applied rightmost first to every
        basis state. Each pair drops the states it annihilates, multiplies in
        the Jordan-Wigner sign (-1)^(occupied modes below it) and flips its
        bit; the photon number is left alone.
        """
        cols = np.arange(self.dim)
        rows = cols
        signs = np.ones(self.dim)
        for m, dagger in reversed(ops):
            kept = ((rows >> m) & 1) != dagger
            rows, cols, signs = rows[kept], cols[kept], signs[kept]
            signs = np.where(np.bitwise_count(rows & ((1 << m) - 1)) % 2 == 0, signs, -signs)
            rows = rows ^ (1 << m)
        return rows, cols, signs

    def photon_creation_entries(self):
        """(rows, cols, amplitudes) of the truncated photon creation matrix."""
        f = np.arange(self.n_fermion)
        rows, cols, vals = [], [], []
        for p in range(self.photon_cutoff):
            rows.append((p + 1) * self.n_fermion + f)
            cols.append(p * self.n_fermion + f)
            vals.append(np.full(self.n_fermion, np.sqrt(p + 1.0)))
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def dense_operator(self, rows, cols, vals) -> np.ndarray:
        op = np.zeros((self.dim, self.dim))
        op[rows, cols] = vals
        return op


@dataclass(frozen=True)
class CommutatorReport:
    """Largest deviations of the resolvent shift identities over random energies."""

    max_dev_fermion: float
    max_dev_photon: float
    negative_control_dev: float
    trials: int
    seed: int
    tolerance: float

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_fermion, self.max_dev_photon)

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tolerance and self.negative_control_dev > self.tolerance


def _identity_deviation(space: FockSpace, rows, cols, vals, energy: float,
                        shift: float) -> float:
    """max |g(E) A - A g(E - shift)| over all matrix entries.

    The free resolvent is diagonal, so both products live on A's sparsity
    pattern and the deviation reduces to |amp| * |g_E[row] - g_shifted[col]|.
    """
    g_e = space.resolvent(energy)
    g_shifted = space.resolvent(energy - shift)
    return float(np.max(np.abs(vals * (g_e[rows] - g_shifted[cols]))))


def check_commutator_identities(system: SmallSystem, trials: int = 20,
                                seed: int = 7, tolerance: float = 1e-12) -> CommutatorReport:
    """Verify g0(E) c+ = c+ g0(E - eps + mu) and g0(E) a+ = a+ g0(E - omega_c).

    Checks every fermionic mode and the photon raising operator at ``trials``
    random energies, resampling any E that collides with the free spectrum.
    The negative control re-runs one fermionic identity with the shift halved
    and must fail by a wide margin.
    """
    if system.n_k > _MAX_COMMUTATOR_POINTS:
        raise ValueError(f"commutator check is limited to {_MAX_COMMUTATOR_POINTS} momenta")
    space = FockSpace(system)
    spectrum = space.free_energies()
    lo, hi = float(np.min(spectrum)) - 2.0, float(np.max(spectrum)) + 2.0
    shifts = [space.mode_energy[m] - space.mu for m in range(space.n_modes)]
    shifts.append(space.omega_c)
    rng = np.random.default_rng(seed)

    def admissible(energy: float) -> bool:
        for shift in [0.0, *shifts]:
            if np.min(np.abs((energy - shift) - spectrum)) < 1e-6:
                return False
        return True

    fermion_ops = [space.mode_entries([(m, True)]) for m in range(space.n_modes)]
    photon_op = space.photon_creation_entries()

    max_fermion = 0.0
    max_photon = 0.0
    negative = 0.0
    for _ in range(trials):
        energy = float(snap_energy(rng.uniform(lo, hi)))
        for _ in range(100):
            if admissible(energy):
                break
            energy = float(snap_energy(rng.uniform(lo, hi)))
        for m, (rows, cols, vals) in enumerate(fermion_ops):
            dev = _identity_deviation(space, rows, cols, vals, energy, shifts[m])
            max_fermion = max(max_fermion, dev)
        rows, cols, vals = photon_op
        dev = _identity_deviation(space, rows, cols, vals, energy, space.omega_c)
        max_photon = max(max_photon, dev)
        # negative control: wrong shift must break the identity
        rows, cols, vals = fermion_ops[0]
        dev = _identity_deviation(space, rows, cols, vals, energy, shifts[0] / 2.0)
        negative = max(negative, dev)
    return CommutatorReport(
        max_dev_fermion=max_fermion,
        max_dev_photon=max_photon,
        negative_control_dev=negative,
        trials=trials,
        seed=seed,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Full Fock-space diagnostic (n_k = 2 only): the same resolvent with the
# complete interacting Hamiltonian, leakage out of the pair sector included.
# ---------------------------------------------------------------------------


def _polarization(space: FockSpace) -> np.ndarray:
    """Dense pair operator P = sum over momenta and spins of c+_(q,2,s) c_(q,1,s)."""
    polar = np.zeros((space.dim, space.dim))
    for q in range(space.n_k):
        for s in (0, 1):
            rows, cols, signs = space.mode_entries([(space.mode(q, 2, s), True),
                                                    (space.mode(q, 1, s), False)])
            polar[rows, cols] += signs
    return polar


def _momentum_conserving_terms(n_k: int):
    """(k1, k2, k3, k4) with k1 + k3 = k2 + k4 mod n_k (regular 1D momentum ring)."""
    terms = []
    for k1 in range(n_k):
        for k2 in range(n_k):
            for k3 in range(n_k):
                k4 = (k1 + k3 - k2) % n_k
                terms.append((k1, k2, k3, k4))
    return terms


def full_hamiltonian(system: SmallSystem, photon_cutoff: int = _PHOTON_CUTOFF) -> np.ndarray:
    """Dense interacting Hamiltonian on the truncated Fock space (n_k = 2 only).

    The momenta are treated as the regular ring {0, pi}, which is closed under
    addition, so the local repulsions take their momentum-conserving quartic
    form. Includes the cavity coupling i*g_c*(C - C+).
    """
    if system.n_k != 2:
        raise ValueError("the full-space diagnostic is implemented for n_k = 2")
    space = FockSpace(system, photon_cutoff)
    p = system.params
    h = np.diag(space.free_energies()).astype(complex)
    terms = _momentum_conserving_terms(space.n_k)

    def repulsion(u, pairs):
        # (u/N) sum_k c+_(k1,a) c_(k2,a) c+_(k3,b) c_(k4,b) for each (band, spin) pair (a, b)
        if u == 0.0:
            return
        for a, b in pairs:
            for k1, k2, k3, k4 in terms:
                rows, cols, signs = space.mode_entries([
                    (space.mode(k1, *a), True), (space.mode(k2, *a), False),
                    (space.mode(k3, *b), True), (space.mode(k4, *b), False),
                ])
                h[rows, cols] += u / space.n_k * signs

    repulsion(p.u11, [((1, 0), (1, 1))])
    repulsion(p.u22, [((2, 0), (2, 1))])
    repulsion(p.u12, [((2, s), (1, s2)) for s in (0, 1) for s2 in (0, 1)])
    # cavity coupling i g_c (C - C+), C = a (1/sqrt(N)) P
    if p.g_c != 0.0:
        lower = space.dense_operator(*space.photon_creation_entries()).T
        c_op = p.g_c / np.sqrt(space.n_k) * (lower @ _polarization(space))
        h += 1j * (c_op - c_op.conj().T)
    return h


def full_fock_stark(system: SmallSystem, photon_cutoff: int = _PHOTON_CUTOFF) -> float:
    """Resolvent value with the complete Hamiltonian instead of the pair sector.

    The filled sea with zero photons is an exact eigenstate (verified here);
    the returned value differs from :func:`oracle_stark` by the weight the
    restriction discards, O(U^2 / gap^2) relative at weak coupling.
    """
    space = FockSpace(system, photon_cutoff)
    h = full_hamiltonian(system, photon_cutoff)
    sea_mask = 0
    for q in range(space.n_k):
        for s in (0, 1):
            sea_mask |= 1 << space.mode(q, 1, s)
    h_sea = h[:, sea_mask]  # the filled sea with zero photons is basis state sea_mask
    e_sea = float(h_sea[sea_mask].real)
    if np.linalg.norm(h_sea - e_sea * (np.arange(space.dim) == sea_mask)) > 1e-9:
        raise RuntimeError("filled sea is not an eigenstate of the assembled Hamiltonian")

    drive = _polarization(space)[:, sea_mask]
    z = e_sea + system.params.omega_l
    x = np.linalg.solve(z * np.eye(space.dim) - h, drive)
    value = complex(drive.conj() @ x)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise RuntimeError("resolvent expectation acquired a spurious imaginary part")
    return float(value.real)


def restriction_leakage(system: SmallSystem, photon_cutoff: int = _PHOTON_CUTOFF) -> float:
    """Relative difference between the full-space and pair-sector resolvent values."""
    restricted = oracle_stark(system)
    full = full_fock_stark(system, photon_cutoff)
    return abs(full - restricted) / abs(restricted)
