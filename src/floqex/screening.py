"""Screened detunings, exciton resonance solver, and ladder-resummation cross-checks.

The central objects are the Hartree-shifted laser detunings

    D_k = gap(k) - omega_l - u11*nu + 2*u12*nu

and their excitonically screened counterparts Delta_k = D_k * (1 - S), where
S = (u12/N) * sum_k' n_k' / D_k' resums the interband electron-hole ladder.
The same S appears in the particle-hole t-matrix T = 1/(1 - S), so the
screened Stark shift and the ladder-bubble evaluation are algebraically
identical; both code paths below take S from the same evaluation, so the
identity holds to a few ulp even close to the exciton pole.

Every k'-reduction is one pair resolvent R(z) = (1/N) sum_k n_k / (gap_k +
shift - z) (:func:`pair_resolvent`): S = u12 R(omega_l), the ladder closure is
F(omega) = u12 R(omega), and the absorbance continues R to complex z. R is an
exact O(l) sum over mesh rows; the literal O(l^2) mesh sum (:func:`ladder_sum`)
remains where that closed form does not hold. Per-k values are taken at ``k``,
a (kx, ky) pair of scalars or arrays (the whole mesh is ``(grid.kx, grid.ky)``);
``grid`` is the domain of the k'-sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoResonance, ResonantDenominator
from .lattice import (
    MESH_BLOCK,
    BZGrid,
    ModelParams,
    Occupation,
    bare_detuning,
    gap_from_structure_factor,
    gap_range,
)

# Grid points closer than this to a Hartree-shifted band resonance poison the
# ladder sum; evaluation refuses rather than returning huge screened values.
RESONANCE_GUARD_EV = 1e-9

# A complex z with |1 - rho^l| below this in some mesh row takes the literal mesh
# sum. |rho|^l ~ exp(-l Im z / sqrt(B^2 - A^2)), so this happens when the
# broadening is narrower than about one mesh step of the band: the sum is then
# dominated by a few resonant mesh points, each as sensitive to the rounding of
# its own gap (relative u*gap/Im z) as the closed form is to its rounding, and
# the mesh sum is the definition the rest of the library agrees with.
ROW_SUM_GUARD = 0.5

# Largest relative rounding error of R, as estimated below, that the closed form
# may carry; above it the mesh sum is taken.
ROUNDING_TOL = 1e-12
_EPS = np.finfo(float).eps

# A bisection whose final bracket is wider than this (eV) reports converged = False.
BRACKET_TOL = 1e-10


@dataclass(frozen=True)
class ScreenedDetunings:
    """Bare, screened, and counter-rotating screened detunings at a set of momenta.

    Values are spin-symmetric: both spin projections share them.
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


def shifted_detunings(params, k, occ, bs: bool = False) -> np.ndarray | float:
    """Hartree-shifted detuning D_k at ``k``; ``bs`` adds the 2*omega_l shift."""
    d = bare_detuning(params, k)
    d += 2.0 * params.omega_l if bs else 0.0
    d += hartree_shift(params, occ)
    return d


def ladder_sum(shifted: np.ndarray, occupancy: np.ndarray, u12: float, n_sites: int,
               guard: float = RESONANCE_GUARD_EV) -> float:
    """Literal S = (u12/N) * sum_k n_k / D_k with the band-resonance guard applied.

    ``guard = 0`` never refuses. This is the reference sum for small systems
    without lattice structure and the fallback of :func:`pair_resolvent`.
    """
    if np.min(np.abs(shifted)) < guard:
        raise ResonantDenominator(
            f"a grid point sits within {guard} eV of the Hartree-shifted band resonance"
        )
    return (u12 / n_sites) * np.sum(occupancy / shifted)


def pair_resolvent(params: ModelParams, grid: BZGrid, occ: Occupation,
                   guard: float = RESONANCE_GUARD_EV):
    """The function z -> R(z) = (1/N) sum_k n_k / (gap_k + shift - z) over ``grid``.

    On mesh row i, gap_k + shift - z = A_i + B c_j with B = 2 t21, c = cos(k)
    and A_i = eps21 + shift - z + B c_i. Each row is a periodic trapezoidal rule
    with the closed form

        (1/l) sum_j 1 / (A + B cos(2 pi j / l)) = (1 + rho^l) / ((1 - rho^l) s),

    s = sqrt(A^2 - B^2), rho = -B / (A + s) with the root |rho| <= 1, and 1/A
    when B = 0, so a full band costs O(l) per z. A partial filling starts from
    the full band and subtracts the empty states, or sums the filled states
    directly when they are no more, taken from ``occ.minority``.

    The literal mesh sum (:func:`ladder_sum`) is taken instead

    - at a real z within ``guard`` (doubled, to cover the rounding of D_k) of
      the shifted band [gap_min, gap_max] + shift, where the row sums have
      poles. The mesh sum refuses when a grid point sits within ``guard`` of z;
      with ``guard = 0`` only z inside the band takes it, and it never refuses;
    - at a complex z with |1 - rho^l| < :data:`ROW_SUM_GUARD` in some row;
    - where the closed form's rounding error, estimated as
      eps * scale * sum |1/D_k|^2 / N over the terms it rounds otherwise than
      the mesh sum, exceeds :data:`ROUNDING_TOL` relative: the subtracted empty
      states at real z (near-resonant ones cancel their full-band twins), every
      state at complex z (there the sum is Im R_full / Im z).

    The mesh sum runs over blocks of :data:`~floqex.lattice.MESH_BLOCK` mesh
    points (one block for l <= 256), so it holds no full-mesh array, and each
    block passes the guard of :func:`ladder_sum` before it is divided.
    """
    shift = hartree_shift(params, occ)
    b = 2.0 * params.t21
    bc = b * grid.cos_k
    lo, hi = gap_range(params, grid)
    lo, hi = lo + shift - 2.0 * guard, hi + shift + 2.0 * guard
    idx, filled = occ.minority
    l, n = grid.l, grid.n_sites
    nx, ny = np.divmod(idx, l)
    minority = gap_from_structure_factor(params, grid.cos_k[nx] + grid.cos_k[ny])
    step = max(1, MESH_BLOCK // l)

    def mesh(z):
        total = 0.0
        for a in range(0, l, step):
            d = gap_from_structure_factor(params, grid.gamma_rows(a, a + step)) - z + shift
            total += ladder_sum(d, occ.n_range(a * l, min(a + step, l) * l), 1.0, n, guard)
        return total

    def rows(z, real):
        """Row means (1/l) sum_j 1/(A_i + B c_j), or None where |1 - rho^l| is too small."""
        a = (params.eps21 + shift - z) + bc
        if b == 0.0:
            return 1.0 / a
        disc = (a - b) * (a + b)
        if real and disc.min() > 0.0:
            s = np.copysign(np.sqrt(disc), a)
        else:
            s = np.sqrt(disc + 0j)
            s = np.where((s * np.conj(a)).real < 0.0, -s, s)
        q = (-b / (a + s)) ** l
        if not real and np.min(np.abs(1.0 - q)) < ROW_SUM_GUARD:
            return None
        return (1.0 + q) / ((1.0 - q) * s)

    def resolvent(z):
        real = np.imag(z) == 0.0
        if real:
            z = float(np.real(z))
            if lo <= z <= hi:
                return mesh(z)
        part = spread = 0.0
        if filled or minority.size:
            inv = minority - z
            inv += shift
            np.divide(1.0, inv, out=inv)  # in place: same bits as 1.0 / (minority - z + shift)
            part = np.sum(inv) / n
            if filled:
                return float(part) if real else complex(part)
            if real:
                spread = np.vdot(inv, inv).real / n
        means = rows(z, real)
        if means is None:
            return mesh(z)
        full = np.sum(means) / l
        value = full - part
        if not real:
            spread = full.imag / z.imag
        if _EPS * (abs(z) + max(abs(lo), abs(hi))) * spread > ROUNDING_TOL * abs(value):
            return mesh(z)
        return float(value.real) if real else complex(value)

    return resolvent


def screening_factor(params: ModelParams, grid: BZGrid, occ: Occupation) -> float:
    """1 - S with S = u12 R(omega_l)."""
    return 1.0 - params.u12 * pair_resolvent(params, grid, occ)(params.omega_l)


def screened_detunings(params: ModelParams, grid: BZGrid, occ: Occupation, k) -> ScreenedDetunings:
    """Bare, screened and counter-rotating detunings at the (kx, ky) pair ``k``."""
    d0 = bare_detuning(params, k)
    d = shifted_detunings(params, k, occ)
    d_bs = shifted_detunings(params, k, occ, bs=True)
    resolvent = pair_resolvent(params, grid, occ)
    d *= 1.0 - params.u12 * resolvent(params.omega_l)
    d_bs *= 1.0 - params.u12 * resolvent(-params.omega_l)
    return ScreenedDetunings(delta0=d0, delta=d, delta_bs=d_bs)


def screened_detuning(params: ModelParams, grid: BZGrid, occ: Occupation, k):
    """Screened detuning Delta_k at ``k``: the ``delta`` of :func:`screened_detunings`."""
    return screened_detunings(params, grid, occ, k).delta


def screened_detuning_bs(params: ModelParams, grid: BZGrid, occ: Occupation, k):
    """Counter-rotating (Bloch-Siegert) screened detuning at ``k``."""
    return screened_detunings(params, grid, occ, k).delta_bs


def band_resonance_edge(params: ModelParams, grid: BZGrid, occ: Occupation) -> float:
    """Continuum edge: minimum Hartree-shifted gap over the grid (omega_l-independent)."""
    return gap_range(params, grid)[0] + hartree_shift(params, occ)


def exciton_lhs(params: ModelParams, grid: BZGrid, occ: Occupation, omega: float) -> float:
    """Ladder closure F(omega) = (u12/N) sum_k n_k / (gap_k - omega + shift).

    Strictly increasing in omega below the continuum edge; F = 1 marks the
    bound electron-hole pair.
    """
    return params.u12 * pair_resolvent(params, grid, occ, guard=0.0)(omega)


def solve_bound_state(lhs, edge: float, u11: float, u12: float, nu: float):
    """Bisect the ladder closure ``lhs(omega) = 1`` below the continuum ``edge``.

    Returns (omega, residual, converged). Bisection is iterated to
    floating-point resolution (the bracket endpoints have poles just above,
    so robustness beats speed); ``converged`` reports whether the final
    bracket is narrower than :data:`BRACKET_TOL`.
    """
    if u12 <= 0.0 or nu <= 0.0:
        raise NoResonance("a bound state requires u12 > 0 and a partially filled band")
    lo = edge - u11 - 5.0 * u12
    hi = edge - 1e-9
    if lhs(hi) < 1.0:
        raise NoResonance(
            "no sign change inside the bracket (u12 too small for a bound state "
            "on this grid)"
        )
    # lhs(lo) < 1 always: every denominator is at least u11 + 5*u12 there.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if lhs(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    residual = abs(lhs(omega) - 1.0)
    return omega, residual, (hi - lo) <= BRACKET_TOL


def solve_exciton_resonance(params: ModelParams, grid: BZGrid, occ: Occupation) -> ResonanceReport:
    """Locate the exciton resonance: the unique F(omega) = 1 root below the edge."""
    edge = band_resonance_edge(params, grid, occ)
    resolvent = pair_resolvent(params, grid, occ, guard=0.0)
    omega, residual, converged = solve_bound_state(
        lambda w: params.u12 * resolvent(w), edge, params.u11, params.u12, occ.nu
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
    """Electron-hole t-matrix T = (1 + (u12/N) sum_k n_k / (-D_k))^(-1) = 1 / (1 - S).

    The beta -> infinity limit of the Matsubara ladder: unity at u12 = 0 and
    divergent at the exciton pole.
    """
    inverse_t = screening_factor(params, grid, occ)
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
    n_k = occ.n_range(k_index, k_index + 1)[0]
    d = shifted_detunings(params, grid.point(k_index), occ)
    t = grpa_tmatrix(params, grid, occ)
    bubble = g2 * (-n_k / d) * t
    screened = -g2 * n_k / (d * screening_factor(params, grid, occ))
    return bubble, screened
