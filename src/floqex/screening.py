"""Screened detunings, exciton resonance solver, and ladder-resummation cross-checks.

The central objects are the Hartree-shifted laser detunings

    D_k = gap(k) - omega_l - u11*nu + 2*u12*nu

and their excitonically screened counterparts Delta_k = D_k * (1 - S), where
S = (u12/N) * sum_k' n_k' / D_k' resums the interband electron-hole ladder.
The same S appears in the particle-hole t-matrix T = 1/(1 - S), so the
screened Stark shift and the ladder-bubble evaluation are algebraically
identical; both code paths below share the elementwise denominators bit-for-bit
so the identity holds to a few ulp even close to the exciton pole.

All k'-reductions use ``np.sum`` over arrays in the grid's canonical
row-major order; numpy's pairwise summation makes every reduction
deterministic and independent of worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoResonance, ResonantDenominator
from .lattice import BZGrid, ModelParams, Occupation, band_gap, bare_detuning

# Grid points closer than this to a Hartree-shifted band resonance poison the
# ladder sum; evaluation refuses rather than returning huge screened values.
RESONANCE_GUARD_EV = 1e-9


@dataclass(frozen=True)
class ScreenedDetunings:
    """Bare, screened, and counter-rotating screened detunings over a grid.

    Arrays are spin-symmetric: both spin projections share the same values.
    """

    delta0: np.ndarray
    delta: np.ndarray
    delta_bs: np.ndarray

    def __post_init__(self):
        for arr in (self.delta0, self.delta, self.delta_bs):
            arr.setflags(write=False)


@dataclass(frozen=True)
class ResonanceReport:
    """Solved exciton resonance and its position relative to the band continuum."""

    omega_ex: float
    continuum_edge: float
    binding: float
    delta_ex: float
    converged: bool
    residual: float


def hartree_shift(params: ModelParams, occ: Occupation) -> float:
    """Mean-field shift of the interband transition: -u11*nu + 2*u12*nu."""
    return (-params.u11 + 2.0 * params.u12) * occ.nu


def shifted_detunings(params, grid, occ, bs: bool = False) -> np.ndarray:
    """Hartree-shifted detuning D_k over the grid; ``bs`` adds the 2*omega_l shift."""
    d0 = bare_detuning(params, grid)
    extra = 2.0 * params.omega_l if bs else 0.0
    return d0 + extra + hartree_shift(params, occ)


def ladder_sum(shifted: np.ndarray, occupancy: np.ndarray, u12: float, n_sites: int,
               guard: float = RESONANCE_GUARD_EV) -> float:
    """S = (u12/N) * sum_k n_k / D_k with the band-resonance guard applied."""
    if np.min(np.abs(shifted)) < guard:
        raise ResonantDenominator(
            f"a grid point sits within {guard} eV of the Hartree-shifted band resonance"
        )
    return (u12 / n_sites) * np.sum(occupancy / shifted)


def screened_detunings(params: ModelParams, grid: BZGrid, occ: Occupation) -> ScreenedDetunings:
    """Evaluate bare, screened, and counter-rotating detunings on the full grid."""
    d0 = bare_detuning(params, grid)
    d = shifted_detunings(params, grid, occ)
    d_bs = shifted_detunings(params, grid, occ, bs=True)
    factor = 1.0 - ladder_sum(d, occ.n_k, params.u12, grid.n_sites)
    factor_bs = 1.0 - ladder_sum(d_bs, occ.n_k, params.u12, grid.n_sites)
    return ScreenedDetunings(delta0=d0, delta=d * factor, delta_bs=d_bs * factor_bs)


def _screened_at(params, grid, occ, k, bs: bool):
    shifted_grid = shifted_detunings(params, grid, occ, bs=bs)
    factor = 1.0 - ladder_sum(shifted_grid, occ.n_k, params.u12, grid.n_sites)
    extra = 2.0 * params.omega_l if bs else 0.0
    d_k = bare_detuning(params, k) + extra + hartree_shift(params, occ)
    return d_k * factor


def screened_detuning(params: ModelParams, grid: BZGrid, occ: Occupation, k) -> float:
    """Screened detuning Delta_k at momentum ``k``; the k'-sum runs over ``grid``."""
    return _screened_at(params, grid, occ, k, bs=False)


def screened_detuning_bs(params: ModelParams, grid: BZGrid, occ: Occupation, k) -> float:
    """Counter-rotating (Bloch-Siegert) screened detuning at momentum ``k``."""
    return _screened_at(params, grid, occ, k, bs=True)


def band_resonance_edge(params: ModelParams, grid: BZGrid, occ: Occupation) -> float:
    """Continuum edge: minimum Hartree-shifted gap over the grid (omega_l-independent)."""
    gaps = band_gap(params, grid)
    return float(np.min(gaps)) + hartree_shift(params, occ)


def bound_state_lhs(gaps, occupancy, u11: float, u12: float, nu: float,
                    n_sites: int, omega: float) -> float:
    """Ladder closure function F(omega) = (u12/N) sum_k n_k / (gap_k - omega + shift).

    Strictly increasing in omega below the continuum edge; F = 1 marks the
    bound electron-hole pair.
    """
    shift = (-u11 + 2.0 * u12) * nu
    return (u12 / n_sites) * np.sum(occupancy / (gaps - omega + shift))


def exciton_lhs(params: ModelParams, grid: BZGrid, occ: Occupation, omega: float) -> float:
    """F(omega) evaluated on the grid's band structure and occupations."""
    gaps = band_gap(params, grid)
    return bound_state_lhs(gaps, occ.n_k, params.u11, params.u12, occ.nu,
                           grid.n_sites, omega)


def solve_bound_state(gaps, occupancy, u11: float, u12: float, nu: float,
                      n_sites: int, tol: float = 1e-10):
    """Bisect F(omega) = 1 below the continuum edge.

    Returns (omega, edge, residual, converged). Bisection is iterated to
    floating-point resolution (the bracket endpoints have poles just above,
    so robustness beats speed); ``converged`` reports whether the final
    bracket is narrower than ``tol``.
    """
    if u12 <= 0.0 or nu <= 0.0:
        raise NoResonance("a bound state requires u12 > 0 and a partially filled band")
    gaps = np.asarray(gaps, dtype=float)
    shift = (-u11 + 2.0 * u12) * nu
    edge = float(np.min(gaps)) + shift

    def f(omega):
        return (u12 / n_sites) * np.sum(occupancy / (gaps - omega + shift))

    lo = edge - u11 - 5.0 * u12
    hi = edge - 1e-9
    if f(hi) < 1.0:
        raise NoResonance(
            "no sign change inside the bracket (u12 too small for a bound state "
            "on this grid)"
        )
    # f(lo) < 1 always: every denominator is at least u11 + 5*u12 there.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    residual = abs(f(omega) - 1.0)
    return omega, edge, residual, (hi - lo) <= tol


def solve_exciton_resonance(params: ModelParams, grid: BZGrid, occ: Occupation,
                            tol: float = 1e-10) -> ResonanceReport:
    """Locate the exciton resonance: the unique F(omega) = 1 root below the edge."""
    gaps = band_gap(params, grid)
    omega, edge, residual, converged = solve_bound_state(
        gaps, occ.n_k, params.u11, params.u12, occ.nu, grid.n_sites, tol=tol
    )
    return ResonanceReport(
        omega_ex=omega,
        continuum_edge=edge,
        binding=edge - omega,
        delta_ex=omega - params.omega_l,
        converged=converged,
        residual=residual,
    )


def grpa_tmatrix(params: ModelParams, grid: BZGrid, occ: Occupation) -> float:
    """Electron-hole t-matrix T = (1 + (u12/N) sum_k n_k / (-D_k))^(-1).

    The beta -> infinity limit of the Matsubara ladder: unity at u12 = 0 and
    divergent at the exciton pole.
    """
    minus_d = -shifted_detunings(params, grid, occ)
    if np.min(np.abs(minus_d)) < RESONANCE_GUARD_EV:
        raise ResonantDenominator("t-matrix evaluated on the Hartree-shifted band resonance")
    inverse_t = 1.0 + (params.u12 / grid.n_sites) * np.sum(occ.n_k / minus_d)
    if abs(inverse_t) < 1e-12:
        raise ResonantDenominator("t-matrix pole: laser sits on the exciton resonance")
    return 1.0 / inverse_t


def grpa_stark_equivalence(params: ModelParams, grid: BZGrid, occ: Occupation,
                           k_index: int):
    """Ladder-bubble Stark shift vs the screened-denominator Stark shift.

    Returns the pair (bubble, screened) for the grid point ``k_index``; the
    two are an algebraic rearrangement of each other and agree to relative
    1e-12 on identical grids.
    """
    g2 = params.g_l * params.g_l
    n_k = occ.n_k[k_index]
    d = shifted_detunings(params, grid, occ)
    t = grpa_tmatrix(params, grid, occ)
    bubble = g2 * (-n_k / d[k_index]) * t
    factor = 1.0 - ladder_sum(d, occ.n_k, params.u12, grid.n_sites)
    screened = -g2 * n_k / (d[k_index] * factor)
    return bubble, screened
