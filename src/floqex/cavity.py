"""Photon-mediated electron-electron interaction kernel and enhancement scans.

The kernel V(k, k') = -|g_l g_c|^2 / (N * delta_c * Delta_k * Delta_k') is
separable in momentum, so it is stored as a scalar prefactor times a rank-1
outer product and only materialized densely for few momenta. Enhancement
scans compare the interacting model against the u11 = u12 = 0 twin at
matched detuning from the respective resonance (exciton vs band edge), both
built by :func:`matched_pair`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoResonance, ResonantCavity
from .lattice import BZGrid, ModelParams, band_gap
from .scan import ScanResult
from .screening import PairBand, pair_band, screened_detunings, solve_exciton_resonance

CAVITY_GUARD_EV = 1e-9
# Most momenta a kernel may hold to be materialized as a dense matrix (a whole l = 64 mesh).
_DENSE_MAX_POINTS = 64 * 64
GAMMA = (0.0, 0.0)


@dataclass(frozen=True)
class InteractionKernel:
    """Rank-1 factorization of the photon-mediated density-density kernel.

    V(k, k') = scale * v_k * v_k' with v_k = g_l*g_c / Delta_k and
    scale = -1 / (N * delta_c). ``v`` and the indices of :meth:`element` run
    over the momenta the kernel was built at.
    """

    v: np.ndarray
    scale: float

    def __post_init__(self):
        self.v.setflags(write=False)

    def forward(self) -> np.ndarray:
        """Forward-scattering diagonal V(k, k) at the kernel's momenta."""
        return self.scale * self.v * self.v

    def element(self, i: int, j: int) -> float:
        return self.scale * self.v[i] * self.v[j]

    def factor_vector(self) -> np.ndarray:
        """Vector u with V = -outer(u, u); defined for positive laser-cavity detuning.

        delta_c > 0 exactly when ``scale`` = -1 / (N * delta_c) is negative.
        """
        if not np.signbit(self.scale):
            raise ValueError("rank-1 factor with real entries requires delta_c > 0")
        return self.v / np.sqrt(-1.0 / self.scale)

    def dense(self) -> np.ndarray:
        """Materialize the V(k, k') matrix over the kernel's momenta, at most 64^2 of them."""
        if self.v.size > _DENSE_MAX_POINTS:
            raise ValueError(f"dense kernel is limited to {_DENSE_MAX_POINTS} momenta, "
                             f"got {self.v.size}")
        return self.scale * np.outer(self.v, self.v)


def _require_detuned_cavity(params: ModelParams):
    if abs(params.delta_c) < CAVITY_GUARD_EV:
        raise ResonantCavity(f"laser-cavity detuning {params.delta_c:.3e} eV is below the "
                             f"{CAVITY_GUARD_EV} eV guard")


def interaction_kernel(params: ModelParams, band: PairBand, k) -> InteractionKernel:
    """The kernel at the (kx, ky) pair ``k``; N and the k'-sum are ``band``'s."""
    _require_detuned_cavity(params)
    v = (params.g_l * params.g_c) / screened_detunings(params, band, k).delta
    return InteractionKernel(v=v, scale=-1.0 / (band.grid.n_sites * params.delta_c))


def forward_enhancement(screened: ModelParams, free: ModelParams, band: PairBand, k):
    """V_int(k,k) / V_free(k,k) at ``k`` for a drive and its free twin on ``band``.

    The two share g_l, g_c and delta_c, which cancel, so the ratio is
    (Delta_free/Delta_int)^2 from the screened detunings; the kernels' own
    product scale * v * v underflows for couplings near the smallest accepted
    ones. Each side takes its own Hartree shift (:meth:`PairBand.for_params`).
    """
    for p in (screened, free):
        _require_detuned_cavity(p)
    d_free = screened_detunings(free, band, k).delta
    return (d_free / screened_detunings(screened, band, k).delta) ** 2


def free_drive(params: ModelParams, detuning: float) -> ModelParams:
    """The u11 = u12 = 0 twin of ``params``, driven ``detuning`` below its band edge gap(Gamma)."""
    free = params.without_interactions()
    return free.with_laser(float(band_gap(free, GAMMA)) - detuning)


@dataclass(frozen=True)
class MatchedPair:
    """A model, its exciton line and its band, which its free twin shares (the
    twin differs only by its Hartree shift); :meth:`drives` detunes both."""

    params: ModelParams
    band: PairBand
    omega_ex: float

    def drives(self, detuning: float):
        """(the model at omega_ex - detuning, its :func:`free_drive` at the same detuning)."""
        return self.params.with_laser(self.omega_ex - detuning), free_drive(self.params, detuning)

    def enhancement(self, detuning: float, k):
        """:func:`forward_enhancement` of the two :meth:`drives` at ``k``."""
        return forward_enhancement(*self.drives(detuning), self.band, k)


def matched_pair(params: ModelParams, band: PairBand,
                 exciton_required: bool = True) -> MatchedPair:
    """Solve the exciton line of ``params`` on ``band``; with ``exciton_required=False``
    a u12 = 0 model takes gap(Gamma) instead of raising."""
    band = band.for_params(params)
    if params.u12 > 0.0 or exciton_required:
        omega_ex = solve_exciton_resonance(params, band).omega_ex
    else:
        omega_ex = float(band_gap(params, GAMMA))
    return MatchedPair(params=params, band=band, omega_ex=omega_ex)


def enhancement_ratio(params_screened: ModelParams, params_unscreened: ModelParams,
                      grid: BZGrid, k_index: int, detuning: float) -> float:
    """Forward-kernel ratio V_int(k,k) / V_free(k,k) at matched detuning.

    ``params_screened`` is driven at omega_ex - detuning, the
    :func:`free_drive` of ``params_unscreened`` at gap(Gamma) - detuning. Both
    kernels keep their laser-cavity detuning, so a shared delta_c cancels, as
    do shared couplings (:func:`forward_enhancement`). The free twin takes the
    filling of ``params_screened``.
    """
    if detuning <= 0.0:
        raise ValueError(f"detuning must be positive, got {detuning!r}")
    pair = matched_pair(params_screened, pair_band(params_screened, grid))
    return forward_enhancement(pair.drives(detuning)[0], free_drive(params_unscreened, detuning),
                               pair.band, grid.point(k_index))


def u12_sweep(params: ModelParams, grid: BZGrid, detuning: float, u12_values) -> ScanResult:
    """Forward kernel and excitonic enhancement at Gamma versus the interband repulsion.

    The first row is the u12 = 0 baseline, the free kernel at the same
    detuning; each enhancement is bitwise :func:`enhancement_ratio`, from one
    solve per point on one band. Rows whose exciton solve fails are kept with
    ``converged = 0`` and NaN observables.
    """
    band = pair_band(params, grid)
    v_base = interaction_kernel(free_drive(params, detuning), band, GAMMA).forward()
    nan = float("nan")
    rows = [(0.0, v_base, 1.0, nan, 1)]
    for u12 in map(float, u12_values):
        try:
            pair = matched_pair(params.replace(u12=u12), band)
        except NoResonance:
            rows.append((u12, nan, nan, nan, 0))
            continue
        v = interaction_kernel(pair.drives(detuning)[0], pair.band, GAMMA).forward()
        rows.append((u12, v, pair.enhancement(detuning, GAMMA), pair.omega_ex, 1))
    return ScanResult.from_rows("u12", ("v_forward", "enhancement", "omega_ex", "converged"),
                                rows, metadata={"detuning": detuning, "u11": params.u11})
