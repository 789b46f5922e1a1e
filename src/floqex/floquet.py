"""Drive-renormalized lower band: Stark and Bloch-Siegert shifts, effective hopping.

The drive is 2 g_l cos(omega_l t) sum_k (c2_k^dag c1_k + h.c.): its two Fourier
components g_l e^(-+i omega_l t) give the rotating (Stark) and the counter-rotating
(Bloch-Siegert) channel. The dressed band is eps_1(k) - |g_l|^2/Delta_k -
|g_l|^2/Delta_bs_k with the screened detunings of :mod:`floqex.screening`: the
second-order Floquet (Sambe-space) quasi-energy shift of the lower level. Both
shifts scale exactly as |g_l|^2 and are negative whenever the detunings are
positive, so driving lowers the occupied band. Comparators treating the exciton
line as a two-level emitter are provided for reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ResonantDenominator
from .lattice import ModelParams, dispersion
from .screening import PairBand, screened_detunings

# Square-lattice sanity bound: kx- and ky-curvatures of the dressed band must agree.
_CURVATURE_SYMMETRY_TOL = 1e-10

# Smallest grid on which the curvature at Gamma is extracted.
HOPPING_MIN_L = 16

# tla_shifts refuses a drive closer than this (eV) to the line, where the Stark shift diverges.
TLA_GUARD_EV = 1e-12


@dataclass(frozen=True)
class EffectiveBand:
    """Dressed lower-band energies and their two drive-induced components."""

    energies: np.ndarray
    stark: np.ndarray
    bs: np.ndarray

    def __post_init__(self):
        for arr in (self.energies, self.stark, self.bs):
            arr.setflags(write=False)


def effective_band(params: ModelParams, band: PairBand, k, g_l=None) -> EffectiveBand:
    """Dressed band at the (kx, ky) pair ``k``; the k'-sum is ``band``'s.

    ``g_l``, a 1-D array of drive strengths, replaces params.g_l: one row per
    strength, from one evaluation of the screened detunings, which do not depend
    on it. The chemical potential (a constant) is omitted.
    """
    g_l = params.g_l if g_l is None else np.asarray(g_l, dtype=float)[:, None]
    g2 = g_l * g_l
    dets = screened_detunings(params, band, k)
    eps1 = dispersion(params, 1, k)
    stark = -g2 / dets.delta
    bs = -g2 / dets.delta_bs
    return EffectiveBand(energies=eps1 + stark + bs, stark=stark, bs=bs)


def effective_hopping(params: ModelParams, band: PairBand, g_l=None):
    """Hopping rate extracted from the dressed-band curvature at Gamma.

    Identifies eps(k) = 2*t*(cos kx + cos ky) + const and returns
    t = -(1/2) d^2 eps / dkx^2 at Gamma via a second-order central difference
    with the mesh spacing h = 2*pi/l, from the dressed band at the five
    stencil points only. With ``g_l``, a 1-D array of drive strengths, the
    hopping at each of them (:func:`effective_band`).
    """
    grid = band.grid
    if grid.l < HOPPING_MIN_L:
        raise ValueError(f"hopping extraction needs l >= {HOPPING_MIN_L}, got l={grid.l}")
    h = 2.0 * np.pi / grid.l
    stencil = [grid.index(*n) for n in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))]
    center, x_up, x_down, y_up, y_down = effective_band(
        params, band, grid.point(np.array(stencil)), g_l).energies.T
    curv_x = (x_up - 2.0 * center + x_down) / (h * h)
    curv_y = (y_up - 2.0 * center + y_down) / (h * h)
    mismatch = np.max(np.abs(curv_x - curv_y))
    if mismatch > _CURVATURE_SYMMETRY_TOL:
        raise ValueError(
            f"kx/ky curvature mismatch {mismatch:.3e} exceeds "
            f"{_CURVATURE_SYMMETRY_TOL}; band is not square-symmetric"
        )
    return -0.5 * curv_x


def tla_shifts(params: ModelParams, omega_ex: float):
    """Stark and Bloch-Siegert shifts of a two-level emitter at omega_ex.

    Returns (|g_l|^2/(omega_l - omega_ex), |g_l|^2/(omega_l + omega_ex)).
    """
    g2 = params.g_l * params.g_l
    if abs(params.omega_l - omega_ex) < TLA_GUARD_EV:
        raise ResonantDenominator("two-level Stark shift diverges at omega_l = omega_ex")
    return g2 / (params.omega_l - omega_ex), g2 / (params.omega_l + omega_ex)


def stark_bs_ratio(params: ModelParams, band: PairBand, k, omegas=None):
    """Stark-to-Bloch-Siegert shift ratio |Delta_bs_k / Delta_k| at the (kx, ky) pair ``k``;
    ``omegas`` as in :func:`~floqex.screening.screened_detunings`."""
    dets = screened_detunings(params, band, k, omegas)
    return abs(dets.delta_bs / dets.delta)
