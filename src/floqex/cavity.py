"""Photon-mediated electron-electron interaction kernel and enhancement scans.

The kernel V(k, k') = -|g_l g_c|^2 / (N * delta_c * Delta_k * Delta_k') is
separable in momentum, and only its forward diagonal V(k, k) is evaluated.
Enhancement scans compare the interacting model against the u11 = u12 = 0 twin
at matched detuning from the respective resonance (the exciton line vs the
band's continuum edge), both read off one band by :func:`matched_pair`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import ResonantCavity
from .lattice import BZGrid, ModelParams
from .scan import ScanResult, solved
from .screening import PairBand, pair_band, screened_detuning, solve_exciton_resonance

CAVITY_GUARD_EV = 1e-9
GAMMA = (0.0, 0.0)


def _require_detuned_cavity(params: ModelParams):
    if abs(params.delta_c) < CAVITY_GUARD_EV:
        raise ResonantCavity(f"laser-cavity detuning {params.delta_c:.3e} eV is below the "
                             f"{CAVITY_GUARD_EV} eV guard")


def interaction_kernel(params: ModelParams, band: PairBand, k):
    """Forward diagonal V(k, k) = scale * v_k * v_k at the (kx, ky) pair ``k``, with
    v_k = g_l*g_c / Delta_k and scale = -1 / (N * delta_c); N and the k'-sum are ``band``'s."""
    _require_detuned_cavity(params)
    v = (params.g_l * params.g_c) / screened_detuning(params, band, k)
    scale = -1.0 / (band.grid.n_sites * params.delta_c)
    return scale * v * v


def free_drive(params: ModelParams, band: PairBand, detuning: float) -> ModelParams:
    """The u11 = u12 = 0 twin of ``params``, driven ``detuning`` below the continuum edge
    of ``band`` without a Hartree shift, ``band.gap_min``."""
    return params.without_interactions().with_laser(band.gap_min - detuning)


@dataclass(frozen=True)
class MatchedPair:
    """A model, its resonance and its band, which its free twin shares (the twin
    differs only by its Hartree shift); :meth:`drives` detunes both."""

    params: ModelParams
    band: PairBand
    omega_ex: float

    def drives(self, detuning: float):
        """(the model at omega_ex - detuning, its :func:`free_drive` at the same detuning)."""
        return (self.params.with_laser(self.omega_ex - detuning),
                free_drive(self.params, self.band, detuning))

    def enhancement(self, detuning: float, k):
        """V_int(k,k) / V_free(k,k) at ``k`` for the two :meth:`drives`.

        The two share g_l, g_c and delta_c, which cancel, so the ratio is
        (Delta_free/Delta_int)^2 from the screened detunings; the kernels' own
        product scale * v * v underflows for couplings near the smallest accepted
        ones. Only Delta enters, so the Bloch-Siegert channel is not evaluated.
        Each side takes its own Hartree shift (:meth:`PairBand.for_params`).
        """
        screened, free = self.drives(detuning)
        for p in (screened, free):
            _require_detuned_cavity(p)
        d_free = screened_detuning(free, self.band, k)
        return (d_free / screened_detuning(screened, self.band, k)) ** 2


def matched_pair(params: ModelParams, band: PairBand,
                 exciton_required: bool = True) -> MatchedPair:
    """Solve the exciton line of ``params`` on ``band``; with ``exciton_required=False``
    a u12 = 0 model takes its Hartree-shifted continuum edge ``band.edge`` instead of
    raising."""
    band = band.for_params(params)
    if params.u12 > 0.0 or exciton_required:
        omega_ex = solve_exciton_resonance(params, band).omega_ex
    else:
        omega_ex = band.edge
    return MatchedPair(params=params, band=band, omega_ex=omega_ex)


def enhancement_ratio(params: ModelParams, grid: BZGrid, k_index: int, detuning: float) -> float:
    """Forward-kernel ratio V_int(k,k) / V_free(k,k) at matched detuning at the grid
    point ``k_index``: :meth:`MatchedPair.enhancement` of ``params`` on its own band,
    the model at omega_ex - detuning and its :func:`free_drive` at gap_min - detuning."""
    if detuning <= 0.0:
        raise ValueError(f"detuning must be positive, got {detuning!r}")
    pair = matched_pair(params, pair_band(params, grid))
    return pair.enhancement(detuning, grid.point(k_index))


def u12_sweep(params: ModelParams, grid: BZGrid, detuning: float, u12_values) -> ScanResult:
    """Forward kernel and excitonic enhancement at Gamma versus the interband repulsion.

    The first row is the u12 = 0 baseline, the free kernel of :func:`free_drive` at
    the same detuning below the band edge; each enhancement is bitwise
    :func:`enhancement_ratio`, from one solve per point on one band. A point that
    fails is a NaN row marked ``converged = 0`` (:func:`~floqex.scan.solved`).

    Shallow lines are not grid-exact: the mesh row through Gamma converges as
    exp(-l sqrt(binding / |t21|)), so rows whose binding is below about
    |t21| (36/l)^2 are off l = infinity although they say ``converged = 1``. At
    l = 256 these are u12 <= 0.3, off by up to 3.6e-4 relative in ``enhancement``
    and 7.9e-6 eV in ``omega_ex``.
    """
    def point(u12):
        pair = matched_pair(params.replace(u12=u12), band)
        v = interaction_kernel(pair.drives(detuning)[0], pair.band, GAMMA)
        return v, pair.enhancement(detuning, GAMMA), pair.omega_ex

    band = pair_band(params, grid)
    names = ("v_forward", "enhancement", "omega_ex", "converged")
    v_base = interaction_kernel(free_drive(params, band, detuning), band, GAMMA)
    rows = [(0.0, v_base, 1.0, float("nan"), 1)]
    rows += [(u12, *solved(point, u12, width=len(names) - 1)) for u12 in map(float, u12_values)]
    return ScanResult.from_rows("u12", names, rows,
                                metadata={"detuning": detuning, "u11": params.u11})
