"""Mean-field absorbance spectrum from the complex-continued screened detuning.

alpha(omega) is proportional to (1/pi) sum_k n_k Im[1 / Delta_k(omega + i*gamma)],
where the complex frequency enters only through the bare detuning; the Hartree
shifts stay real. The whole frequency axis is one call of the pair resolvent,
which sums its closed form, O(l) per frequency, over blocks of frequencies.
Curves are normalized to unit peak (the overall scale is a convention), with the
raw peak value kept on the curve for sum-rule checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoPeak
from .lattice import ModelParams
from .screening import PairBand


@dataclass(frozen=True)
class SpectrumCurve:
    """Normalized absorbance samples; ``scale`` restores the raw magnitude."""

    omegas: np.ndarray
    alpha: np.ndarray
    scale: float

    def __post_init__(self):
        self.omegas.setflags(write=False)
        self.alpha.setflags(write=False)

    def raw(self) -> np.ndarray:
        return self.alpha * self.scale


def absorbance(params: ModelParams, band: PairBand, omegas, gamma: float) -> SpectrumCurve:
    """Absorbance sampled at ``omegas`` with Lorentzian broadening ``gamma`` > 0.

    Per frequency, raw = Im[R / (1 - u12 R)] / pi with the pair resolvent R at
    z = omega + i*gamma, taken for all of ``omegas`` in one call of
    :meth:`floqex.screening.PairBand.resolvent` (a frequency whose subtracted
    empty states cancel their full-band twins sums a few mesh rows directly),
    which is (1/(pi N)) sum_k n_k Im[1 / (d_k (1 - (u12/N) sum_k' n_k'/d_k'))] for
    d_k = gap_k - z + shift. gamma regularizes every pole, so no resonance
    guard applies; the in-gap peak sits at the exciton resonance, band
    absorption covers the shifted continuum. A curve with a non-finite value
    or without positive weight raises :class:`NoPeak`.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    omegas = np.asarray(omegas, dtype=float)
    band = band.for_params(params)
    # an extreme gamma overflows the resolvent; the whole curve is checked below
    with np.errstate(all="ignore"):
        r = band.resolvent(omegas + complex(0.0, gamma), guard=0.0)
        raw = (r / (1.0 - params.u12 * r)).imag / np.pi
    if not np.all(np.isfinite(raw)):
        raise NoPeak(f"spectrum is not finite at broadening gamma = {gamma!r} on this grid")
    peak = float(np.max(raw))
    if peak <= 0.0:
        raise NoPeak("spectrum has no positive weight on this frequency window")
    out = raw / peak
    return SpectrumCurve(omegas=omegas.copy(), alpha=out, scale=peak)


def peak_location(curve: SpectrumCurve) -> float:
    """Smallest-omega interior local maximum exceeding 10% of the global peak."""
    a = curve.alpha
    threshold = 0.1 * np.max(a)
    for i in range(1, len(a) - 1):
        if a[i] > a[i - 1] and a[i] > a[i + 1] and a[i] > threshold:
            return float(curve.omegas[i])
    raise NoPeak("spectrum is monotone on the sampled window")
