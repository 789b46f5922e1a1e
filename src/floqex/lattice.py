"""Model parameters, momentum grids, tight-binding bands, zero-temperature occupations.

Conventions: hbar = 1, all energies in eV, quasimomenta dimensionless in
[0, 2*pi). Band centers are fixed by eps_1 = 0 and eps_2 = eps21; only the
difference is physical. Everything here is immutable after construction and
all operations are pure, so values can be shared freely between workers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

_ENERGY_FIELDS = (
    "u11", "u12", "u22", "eps21", "t1", "t2",
    "g_l", "g_c", "omega_l", "omega_c", "mu",
)


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings of the driven two-band model.

    u11/u12 are the intra- and inter-band on-site repulsions, u22 is stored
    for completeness but enters no formula in the weak-driving limit. g_l and
    g_c are the laser and cavity vacuum Rabi frequencies, omega_l/omega_c the
    drive and cavity frequencies. ``doping`` is the hole fraction per spin in
    the lower band; ``mu`` is informational only (it cancels in every
    implemented detuning).
    """

    u11: float = 1.6
    u12: float = 0.8
    u22: float = 0.0
    eps21: float = 3.7
    t1: float = 0.05
    t2: float = -0.15
    g_l: float = 0.01
    g_c: float = 0.01
    omega_l: float = 2.68
    omega_c: float = 2.78
    mu: float = 0.0
    doping: float = 0.0

    def __post_init__(self):
        for name in _ENERGY_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.u11 < 0 or self.u12 < 0:
            raise ValueError("u11 and u12 must be non-negative")
        if not 0.0 <= self.doping < 1.0:
            raise ValueError(f"doping must lie in [0, 1), got {self.doping!r}")

    @property
    def t21(self) -> float:
        """Hopping difference t2 - t1 controlling the gap dispersion."""
        return self.t2 - self.t1

    @property
    def delta_c(self) -> float:
        """Laser-cavity detuning omega_c - omega_l."""
        return self.omega_c - self.omega_l

    def replace(self, **kwargs) -> "ModelParams":
        return dataclasses.replace(self, **kwargs)

    def with_laser(self, omega_l: float) -> "ModelParams":
        """Re-pin the drive frequency while keeping the laser-cavity detuning fixed."""
        return self.replace(omega_l=omega_l, omega_c=omega_l + self.delta_c)

    def without_interactions(self) -> "ModelParams":
        """Same bands and drive with u11 = u12 = 0 (unscreened comparator)."""
        return self.replace(u11=0.0, u12=0.0)

    def asdict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class BZGrid:
    """Uniform l x l momentum mesh, k = 2*pi*n/l, Gamma always on-mesh.

    Points are stored flat in row-major (nx, ny) order; this order is the
    canonical reduction order for every k-sum in the library. The mesh is
    closed under k -> -k (mod 2*pi) by construction.

    The grid keeps the 1-D table ``k`` of the l coordinates and the read-only
    structure factor ``gamma_k = cos kx + cos ky`` over the flat mesh, the only
    k-dependence of every band. It is built as the outer sum of l cosines, so
    no full-grid cosine is ever evaluated; each entry is bit-identical to
    ``np.cos(kx) + np.cos(ky)`` because the same two cosines are added. The
    flat coordinate arrays ``kx`` and ``ky`` are built only when first read,
    so full-grid computations, which need just the band, never hold them.
    """

    l: int
    k: np.ndarray
    gamma_k: np.ndarray

    @classmethod
    def square(cls, l: int) -> "BZGrid":
        if l < 1:
            raise ValueError(f"grid size must be positive, got {l}")
        k = 2.0 * np.pi * np.arange(l) / l
        c = np.cos(k)
        gamma_k = (c[:, None] + c[None, :]).ravel()
        k.setflags(write=False)
        gamma_k.setflags(write=False)
        return cls(l=l, k=k, gamma_k=gamma_k)

    @functools.cached_property
    def cos_k(self) -> np.ndarray:
        """The l cosines cos(k) that ``gamma_k`` is summed from (built on first access)."""
        c = np.cos(self.k)
        c.setflags(write=False)
        return c

    @functools.cached_property
    def kx(self) -> np.ndarray:
        """Flat kx of every mesh point (built on first access)."""
        kx = np.repeat(self.k, self.l)
        kx.setflags(write=False)
        return kx

    @functools.cached_property
    def ky(self) -> np.ndarray:
        """Flat ky of every mesh point (built on first access)."""
        ky = np.tile(self.k, self.l)
        ky.setflags(write=False)
        return ky

    def point(self, i: int) -> tuple:
        """Momentum (kx, ky) of the flat mesh index ``i``."""
        return self.k[i // self.l], self.k[i % self.l]

    @property
    def n_sites(self) -> int:
        return self.l * self.l

    @property
    def weight(self) -> float:
        """Uniform quadrature weight 1/l^2."""
        return 1.0 / self.n_sites

    def index(self, nx: int, ny: int) -> int:
        """Flat index of the mesh point (2*pi*nx/l, 2*pi*ny/l)."""
        return (nx % self.l) * self.l + (ny % self.l)

    @property
    def gamma_index(self) -> int:
        return 0

    @property
    def y_index(self) -> int:
        """Index of Y = (0, pi); requires even l."""
        self._require_even("Y")
        return self.index(0, self.l // 2)

    @property
    def m_index(self) -> int:
        """Index of M = (pi, pi); requires even l."""
        self._require_even("M")
        return self.index(self.l // 2, self.l // 2)

    def _require_even(self, point: str):
        if self.l % 2 != 0:
            raise ValueError(f"{point}-point is on-mesh only for even l, got l={self.l}")

    def path_y_gamma_m(self) -> np.ndarray:
        """Flat indices of the grid-commensurate path Y -> Gamma -> M."""
        self._require_even("Y/M path")
        half = self.l // 2
        down = [self.index(0, ny) for ny in range(half, 0, -1)]
        diag = [self.index(n, n) for n in range(0, half + 1)]
        return np.array(down + diag, dtype=np.intp)


@dataclass(frozen=True)
class Occupation:
    """Zero-temperature lower-band occupancies and the per-spin filling."""

    n_k: np.ndarray
    nu: float
    n_filled: int

    def __post_init__(self):
        self.n_k.setflags(write=False)

    @functools.cached_property
    def minority(self) -> tuple:
        """(indices, filled): the smaller of the filled and the empty state sets.

        ``filled`` tells which of the two the flat indices list; a tie lists the
        filled states. The sets are read from ``n_k``, so they keep the (kx, ky)
        tie-break that :func:`occupations` applied.
        """
        n_sites = self.n_k.size
        filled = self.n_filled <= n_sites - self.n_filled
        if self.n_filled in (0, n_sites):
            idx = np.empty(0, dtype=np.intp)
        else:
            idx = np.flatnonzero(self.n_k if filled else self.n_k == 0.0)
        idx.setflags(write=False)
        return idx, filled


def _structure_factor(k):
    """cos kx + cos ky: the grid's stored gamma_k, or computed for a (kx, ky) pair."""
    if isinstance(k, BZGrid):
        return k.gamma_k
    kx, ky = k
    return np.cos(kx) + np.cos(ky)


def dispersion(params: ModelParams, band: int, k) -> np.ndarray | float:
    """Tight-binding band energy eps_b + 2 t_b (cos kx + cos ky).

    ``k`` is a :class:`BZGrid` (values over the whole mesh, in flat order) or
    a (kx, ky) pair of scalars or of equal-length arrays.
    """
    if band == 1:
        center, t = 0.0, params.t1
    elif band == 2:
        center, t = params.eps21, params.t2
    else:
        raise ValueError(f"band must be 1 or 2, got {band!r}")
    return center + 2.0 * t * _structure_factor(k)


def band_gap(params: ModelParams, k) -> np.ndarray | float:
    """Momentum-dependent interband gap eps21 + 2 t21 (cos kx + cos ky).

    ``k`` is a :class:`BZGrid` or a (kx, ky) pair, as for :func:`dispersion`.
    """
    return gap_from_structure_factor(params, _structure_factor(k))


def gap_from_structure_factor(params: ModelParams, gamma) -> np.ndarray | float:
    """Interband gap eps21 + 2 t21 gamma at given values of gamma = cos kx + cos ky."""
    gap = 2.0 * params.t21 * gamma
    if isinstance(gap, np.ndarray):
        gap += params.eps21  # in place: one array per call, same bits as eps21 + gap
        return gap
    return params.eps21 + gap


def gap_range(params: ModelParams, grid: BZGrid) -> tuple:
    """Smallest and largest :func:`band_gap` over the grid, from its l cosines in O(l).

    gamma_k = c_i + c_j is extremal where both cosines are, and rounding is
    monotone, so both values equal the min and max of ``band_gap(params, grid)``
    bit for bit.
    """
    lo, hi = float(grid.cos_k.min()), float(grid.cos_k.max())
    ends = gap_from_structure_factor(params, lo + lo), gap_from_structure_factor(params, hi + hi)
    return min(ends), max(ends)


def bare_detuning(params: ModelParams, k) -> np.ndarray | float:
    """Laser-bandgap detuning: gap(k) - omega_l."""
    d = band_gap(params, k)
    if isinstance(d, np.ndarray):
        d -= params.omega_l
        return d
    return d - params.omega_l


def occupations(params: ModelParams, grid: BZGrid) -> Occupation:
    """Step-function filling of the lower band at zero temperature.

    The (1 - doping) fraction of lowest-energy band-1 states is filled, with
    ties broken lexicographically in (kx, ky) so the result is independent of
    enumeration order. Flat row-major order is already (kx, ky) order, because
    k = 2*pi*n/l increases with n, so a stable sort of the energies alone gives
    that tie-break. A full band needs no sort.
    """
    n_sites = grid.n_sites
    n_filled = int(round((1.0 - params.doping) * n_sites))
    if n_filled == n_sites:
        n_k = np.ones(n_sites)
    else:
        order = np.argsort(dispersion(params, 1, grid), kind="stable")
        n_k = np.zeros(n_sites)
        n_k[order[:n_filled]] = 1.0
    return Occupation(n_k=n_k, nu=n_filled / n_sites, n_filled=n_filled)
