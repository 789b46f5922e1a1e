"""Photon-mediated electron-electron interaction kernel and enhancement scans.

The kernel V(k, k') = -|g_l g_c|^2 / (N * delta_c * Delta_k * Delta_k') is
separable in momentum, so it is stored as a scalar prefactor times a rank-1
outer product and only materialized densely for small grids. Enhancement
scans compare the interacting model against the u11 = u12 = 0 twin at
matched detuning from the respective resonance (exciton vs band edge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoResonance, ResonantCavity
from .lattice import BZGrid, ModelParams, band_gap, occupations
from .scan import ScanResult
from .screening import screened_detunings, solve_exciton_resonance

CAVITY_GUARD_EV = 1e-9
_DENSE_MAX_L = 64


@dataclass(frozen=True)
class InteractionKernel:
    """Rank-1 factorization of the photon-mediated density-density kernel.

    V(k, k') = scale * v_k * v_k' with v_k = g_l*g_c / Delta_k and
    scale = -1 / (N * delta_c).
    """

    v: np.ndarray
    scale: float
    delta_c: float
    grid_l: int

    def __post_init__(self):
        self.v.setflags(write=False)

    def forward(self) -> np.ndarray:
        """Forward-scattering diagonal V(k, k) over the grid."""
        return self.scale * self.v * self.v

    def element(self, i: int, j: int) -> float:
        return self.scale * self.v[i] * self.v[j]

    def factor_vector(self) -> np.ndarray:
        """Vector u with V = -outer(u, u); defined for positive laser-cavity detuning."""
        if self.delta_c <= 0:
            raise ValueError("rank-1 factor with real entries requires delta_c > 0")
        return self.v / np.sqrt(-1.0 / self.scale)

    def dense(self) -> np.ndarray:
        """Materialize the full V(k, k') matrix; gated to keep memory O(N) for scans."""
        if self.grid_l > _DENSE_MAX_L:
            raise ValueError(
                f"dense kernel is limited to l <= {_DENSE_MAX_L}, got l={self.grid_l}"
            )
        return self.scale * np.outer(self.v, self.v)


def interaction_kernel(params: ModelParams, grid: BZGrid, occ) -> InteractionKernel:
    """Build the kernel from the screened detunings of the given model."""
    delta_c = params.delta_c
    if abs(delta_c) < CAVITY_GUARD_EV:
        raise ResonantCavity(
            f"laser-cavity detuning {delta_c:.3e} eV is below the {CAVITY_GUARD_EV} eV guard"
        )
    dets = screened_detunings(params, grid, occ)
    v = (params.g_l * params.g_c) / dets.delta
    return InteractionKernel(v=v, scale=-1.0 / (grid.n_sites * delta_c),
                             delta_c=delta_c, grid_l=grid.l)


def enhancement_ratio(params_screened: ModelParams, params_unscreened: ModelParams,
                      grid: BZGrid, k_index: int, detuning: float) -> float:
    """Forward-kernel ratio V_int(k,k) / V_free(k,k) at matched detuning.

    The interacting drive sits at omega_ex - detuning (omega_ex re-solved for
    ``params_screened``); the non-interacting drive at gap(Gamma) - detuning.
    Both kernels keep their laser-cavity detuning, so a shared delta_c cancels
    exactly.
    """
    if detuning <= 0.0:
        raise ValueError(f"detuning must be positive, got {detuning!r}")
    occ_s = occupations(params_screened, grid)
    omega_ex = solve_exciton_resonance(params_screened, grid, occ_s).omega_ex
    p_s = params_screened.with_laser(omega_ex - detuning)

    gamma_gap = band_gap(params_unscreened, (0.0, 0.0))
    p_u = params_unscreened.with_laser(gamma_gap - detuning)
    occ_u = occupations(p_u, grid)

    v_s = interaction_kernel(p_s, grid, occ_s).forward()[k_index]
    v_u = interaction_kernel(p_u, grid, occ_u).forward()[k_index]
    return v_s / v_u


def u12_sweep(params: ModelParams, grid: BZGrid, detuning: float,
              u12_values) -> ScanResult:
    """Forward kernel and excitonic enhancement at Gamma versus the interband repulsion.

    The first row is the u12 = 0 baseline: the non-interacting kernel at the
    same detuning, enhancement exactly 1. Each enhancement is v / v_base, the
    value :func:`enhancement_ratio` returns, from one solve per point (the
    free twin's filling does not depend on its drive). Rows whose exciton solve
    fails are kept with ``converged = 0`` and NaN observables rather than
    dropped.
    """
    gamma = grid.gamma_index
    free = params.without_interactions()
    occ_free = occupations(free, grid)
    p_base = free.with_laser(band_gap(free, (0.0, 0.0)) - detuning)
    v_base = interaction_kernel(p_base, grid, occ_free).forward()[gamma]

    axis = [0.0]
    v_forward = [v_base]
    enhancement = [1.0]
    omega_ex = [float("nan")]
    converged = [1]
    for u12 in u12_values:
        p = params.replace(u12=float(u12))
        axis.append(float(u12))
        try:
            occ = occupations(p, grid)
            report = solve_exciton_resonance(p, grid, occ)
            p_run = p.with_laser(report.omega_ex - detuning)
            v = interaction_kernel(p_run, grid, occ).forward()[gamma]
            v_forward.append(v)
            enhancement.append(v / v_base)
            omega_ex.append(report.omega_ex)
            converged.append(1)
        except NoResonance:
            v_forward.append(float("nan"))
            enhancement.append(float("nan"))
            omega_ex.append(float("nan"))
            converged.append(0)
    return ScanResult(
        axis_name="u12",
        axis=np.array(axis),
        columns={
            "v_forward": np.array(v_forward),
            "enhancement": np.array(enhancement),
            "omega_ex": np.array(omega_ex),
            "converged": np.array(converged),
        },
        metadata={"detuning": detuning, "u11": params.u11},
    )
