"""Screened Floquet theory of a laser-driven, cavity-coupled two-band Hubbard model.

Numerical library and CLI for drive-renormalized band structures, Frenkel
exciton resonances, photon-mediated interactions, absorbance spectra, and
dense exact-diagonalization cross-checks.
"""

__version__ = "0.1.0"

from .exceptions import (
    ConfigError,
    FloqexError,
    NoPeak,
    NoResonance,
    ResonantCavity,
    ResonantDenominator,
)
from .lattice import (
    BZGrid,
    ModelParams,
    Occupation,
    band_gap,
    bare_detuning,
    dispersion,
    occupations,
)
from .screening import (
    PairBand,
    ResonanceReport,
    ScreenedDetunings,
    band_resonance_edge,
    exciton_lhs,
    grpa_stark_equivalence,
    grpa_tmatrix,
    pair_band,
    pair_resolvent,
    screened_detuning,
    screened_detuning_bs,
    screened_detunings,
    solve_exciton_resonance,
)
from .floquet import (
    EffectiveBand,
    effective_band,
    effective_hopping,
    stark_bs_ratio,
    tla_shifts,
)
from .cavity import (
    InteractionKernel,
    enhancement_ratio,
    interaction_kernel,
    u12_sweep,
)
from .spectra import SpectrumCurve, absorbance, peak_location
from .scan import ScanResult

__all__ = [
    "BZGrid",
    "ConfigError",
    "EffectiveBand",
    "FloqexError",
    "InteractionKernel",
    "ModelParams",
    "NoPeak",
    "NoResonance",
    "Occupation",
    "PairBand",
    "ResonanceReport",
    "ResonantCavity",
    "ResonantDenominator",
    "ScanResult",
    "ScreenedDetunings",
    "SpectrumCurve",
    "absorbance",
    "band_gap",
    "band_resonance_edge",
    "bare_detuning",
    "dispersion",
    "effective_band",
    "effective_hopping",
    "enhancement_ratio",
    "exciton_lhs",
    "grpa_stark_equivalence",
    "grpa_tmatrix",
    "interaction_kernel",
    "occupations",
    "pair_band",
    "pair_resolvent",
    "peak_location",
    "screened_detuning",
    "screened_detuning_bs",
    "screened_detunings",
    "solve_exciton_resonance",
    "stark_bs_ratio",
    "tla_shifts",
    "u12_sweep",
]
