"""Mean-field absorbance spectrum from the complex-continued screened detuning.

alpha(omega) is proportional to (1/pi) sum_k n_k Im[1 / Delta_k(omega + i*gamma)],
where the complex frequency enters only through the bare detuning; the Hartree
shifts stay real. Curves are normalized to unit peak (the overall scale is a
convention), with the raw peak value kept on the curve for sum-rule checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoPeak
from .lattice import BZGrid, ModelParams, Occupation, band_gap
from .screening import hartree_shift


@dataclass(frozen=True)
class SpectrumCurve:
    """Normalized absorbance samples; ``scale`` restores the raw magnitude."""

    omegas: np.ndarray
    alpha: np.ndarray
    gamma: float
    scale: float

    def __post_init__(self):
        self.omegas.setflags(write=False)
        self.alpha.setflags(write=False)

    def raw(self) -> np.ndarray:
        return self.alpha * self.scale


def absorbance(params: ModelParams, grid: BZGrid, occ: Occupation,
               omegas, gamma: float) -> SpectrumCurve:
    """Absorbance sampled at ``omegas`` with Lorentzian broadening ``gamma`` > 0.

    gamma regularizes every pole, so no resonance guard applies; the in-gap
    peak sits at the exciton resonance, band absorption covers the shifted
    continuum.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    omegas = np.asarray(omegas, dtype=float)
    gaps = band_gap(params, grid)
    shift = hartree_shift(params, occ)
    u12_per_site = params.u12 / grid.n_sites
    raw = np.empty(len(omegas))
    for i, omega in enumerate(omegas):
        d = gaps - complex(omega, gamma) + shift
        factor = 1.0 - u12_per_site * np.sum(occ.n_k / d)
        raw[i] = np.sum(occ.n_k * (1.0 / (d * factor)).imag) / (np.pi * grid.n_sites)
    peak = float(np.max(raw))
    if peak <= 0.0:
        raise ValueError("spectrum has no positive weight on this frequency window")
    out = raw / peak
    return SpectrumCurve(omegas=omegas.copy(), alpha=out, gamma=gamma, scale=peak)


def peak_location(curve: SpectrumCurve) -> float:
    """Smallest-omega interior local maximum exceeding 10% of the global peak."""
    a = curve.alpha
    threshold = 0.1 * np.max(a)
    for i in range(1, len(a) - 1):
        if a[i] > a[i - 1] and a[i] > a[i + 1] and a[i] > threshold:
            return float(curve.omegas[i])
    raise NoPeak("spectrum is monotone on the sampled window")
