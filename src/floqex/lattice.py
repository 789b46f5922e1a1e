"""Model parameters, momentum grids, tight-binding bands, zero-temperature occupations.

Conventions: hbar = 1, all energies in eV, quasimomenta dimensionless in
[0, 2*pi). Band centers are fixed by eps_1 = 0 and eps_2 = eps21; only the
difference is physical. Everything here is immutable after construction and
all operations are pure, so values can be shared freely.
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

    Points are indexed flat in row-major (nx, ny) order, the index order of
    :meth:`point` and the order in which a filling breaks ties between equal
    energies; no k-sum runs over it, since the pair resolvent sums mesh rows. The
    mesh is closed under k -> -k (mod 2*pi) by construction.

    The grid keeps only O(l) data: the 1-D table ``k`` of the l coordinates and
    their cosines ``cos_k``. Every band depends on k only through the structure
    factor gamma = cos kx + cos ky = cos_k[i] + cos_k[j] at the flat index
    i * l + j, bit-identical to ``np.cos(kx) + np.cos(ky)`` because the same two
    cosines are added. :meth:`point` gives the (kx, ky) of one index or an index
    array; the whole mesh is ``grid.point(np.arange(grid.n_sites))``.
    """

    l: int
    k: np.ndarray
    cos_k: np.ndarray

    @classmethod
    def square(cls, l: int) -> "BZGrid":
        if l < 1:
            raise ValueError(f"grid size must be positive, got {l}")
        k = 2.0 * np.pi * np.arange(l) / l
        c = np.cos(k)
        k.setflags(write=False)
        c.setflags(write=False)
        return cls(l=l, k=k, cos_k=c)

    def point(self, i: int) -> tuple:
        """Momentum (kx, ky) of the flat mesh index ``i``, or of each index of an array."""
        return self.k[i // self.l], self.k[i % self.l]

    @property
    def n_sites(self) -> int:
        return self.l * self.l

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
    """Zero-temperature lower-band filling, held row by row in O(l).

    Mesh row i holds its ``count[i]`` lowest band-1 states, at the columns
    ``order[:count[i]]`` (along ``order`` every row's energies ascend), but the tie
    row ``row``, whose filled columns are the mask ``row_filled``.
    :meth:`minority_states` lists the fewer of the filled and the empty states
    (:attr:`filled`); ``n_k`` (1.0 filled, 0.0 empty) is built only when first read,
    and :meth:`row_occupancy` gives one row of it.
    """

    n_sites: int
    n_filled: int
    order: np.ndarray
    count: np.ndarray
    row: int
    row_filled: np.ndarray

    @property
    def nu(self) -> float:
        """Per-spin filling n_filled / n_sites."""
        return self.n_filled / self.n_sites

    @property
    def filled(self) -> bool:
        """Whether the minority states are the filled ones (at a tie, they are)."""
        return self.n_filled <= self.n_sites - self.n_filled

    @functools.cached_property
    def n_k(self) -> np.ndarray:
        """Read-only occupancies over the flat mesh (built on first access)."""
        on = np.argsort(self.order) < self.count[:, None]  # each column's rank in its row
        on[self.row] = self.row_filled
        n_k = on.ravel().astype(float)
        n_k.setflags(write=False)
        return n_k

    def row_occupancy(self, i: int) -> np.ndarray:
        """Occupancies of the l states of mesh row ``i``, a fresh array."""
        if i == self.row:
            return self.row_filled.astype(float)
        n = np.zeros(self.order.size)
        n[self.order[:self.count[i]]] = 1.0
        return n

    def minority_states(self) -> tuple:
        """(rows, columns) of the minority states, row by row: ``order[:count[i]]`` or
        ``order[count[i]:]`` on row i, the tie row's read off its mask."""
        l, filled = self.order.size, self.filled
        size = self.count if filled else l - self.count
        end = np.cumsum(size)
        rows = np.repeat(np.arange(l), size)
        # the k-th state listed lies on row i at rank k - end[i] + count[i], or + l if empty
        cols = self.order[np.arange(end[-1]) - np.repeat(end - (self.count if filled else l), size)]
        tie = slice(end[self.row] - size[self.row], end[self.row])
        cols[tie] = np.flatnonzero(self.row_filled == filled)
        return rows, cols


def _structure_factor(k):
    """cos kx + cos ky at the (kx, ky) pair ``k``."""
    kx, ky = k
    return np.cos(kx) + np.cos(ky)


def dispersion(params: ModelParams, band: int, k) -> np.ndarray | float:
    """Tight-binding band energy eps_b + 2 t_b (cos kx + cos ky).

    ``k`` is a (kx, ky) pair of scalars or of equal-length arrays; the whole
    mesh, in flat order, is ``grid.point(np.arange(grid.n_sites))``.
    """
    if band == 1:
        center, t = 0.0, params.t1
    elif band == 2:
        center, t = params.eps21, params.t2
    else:
        raise ValueError(f"band must be 1 or 2, got {band!r}")
    return center + 2.0 * t * _structure_factor(k)


def band_gap(params: ModelParams, k) -> np.ndarray | float:
    """Momentum-dependent interband gap eps21 + 2 t21 (cos kx + cos ky) at the (kx, ky) pair ``k``."""
    return gap_from_structure_factor(params, _structure_factor(k))


def gap_from_structure_factor(params: ModelParams, gamma) -> np.ndarray | float:
    """Interband gap eps21 + 2 t21 gamma at given values of gamma = cos kx + cos ky."""
    gap = 2.0 * params.t21 * gamma
    gap += params.eps21  # in place on an array: one array per call, same bits as eps21 + gap
    return gap


def gap_range(params: ModelParams, grid: BZGrid) -> tuple:
    """Smallest and largest :func:`band_gap` over the grid, from its l cosines in O(l).

    gamma = c_i + c_j is extremal where both cosines are, and rounding is
    monotone, so both values equal the min and max of ``band_gap`` over the
    mesh bit for bit.
    """
    lo, hi = float(grid.cos_k.min()), float(grid.cos_k.max())
    ends = gap_from_structure_factor(params, lo + lo), gap_from_structure_factor(params, hi + hi)
    return min(ends), max(ends)


def bare_detuning(params: ModelParams, k) -> np.ndarray | float:
    """Laser-bandgap detuning: gap(k) - omega_l."""
    d = band_gap(params, k)
    d -= params.omega_l
    return d


def occupations(params: ModelParams, grid: BZGrid) -> Occupation:
    """Step-function filling of the lower band at zero temperature.

    The round((1 - doping) * N) lowest-energy band-1 states are filled, with
    ties broken lexicographically in (kx, ky), i.e. in flat row-major order, so
    the result is independent of enumeration order. Nothing of size N is sorted
    or built: the energies 0.0 + 2 t1 (c_i + c_j) of mesh row i are monotone
    in c_j, rounding included, so once the l cosines are sorted, one
    ``searchsorted`` counts the states at or below an energy in every row
    (:func:`_count_at_or_below`), and a bisection over energies finds the
    n_filled-th one (:func:`_filled_per_row`), whose row filling the
    :class:`Occupation` keeps. A full or an empty band fills every row alike.
    """
    n_filled = int(round((1.0 - params.doping) * grid.n_sites))
    if n_filled in (0, grid.n_sites):
        full = np.full(grid.l, n_filled > 0)
        filling = np.arange(grid.l), full * grid.l, 0, full
    else:
        filling = _filled_per_row(params.t1, grid.cos_k, n_filled)
    for array in filling[:2] + filling[3:]:  # order, count, row_filled
        array.setflags(write=False)
    return Occupation(grid.n_sites, n_filled, *filling)


def _band1(scale: float, ci, cj):
    """Band-1 energy 0.0 + scale (ci + cj), rounded exactly as :func:`dispersion` rounds it."""
    return 0.0 + scale * (ci + cj)


def _count_at_or_below(scale, c, ranked, tau: float) -> np.ndarray:
    """Per mesh row i, the number of states with energy <= ``tau``.

    ``ranked`` holds the cosines in the order in which the energies of every
    row ascend. In real arithmetic the states of row i at or below ``tau`` are
    those with c_j <= tau/scale - c_i (>= for scale < 0), so one
    ``searchsorted`` over the ranked cosines places every count to within the
    rounding of that bound. The counts are then moved, one state at a time, to
    where :func:`_band1` itself puts ``tau``: its energies are monotone along
    the ranking, rounding included, so that count is exact.
    """
    l = c.size
    if scale == 0.0:
        return np.full(l, l if 0.0 <= tau else 0)
    sign = 1.0 if scale > 0.0 else -1.0
    with np.errstate(over="ignore"):
        bound = tau / scale - c
    count = np.searchsorted(sign * ranked, sign * bound, side="right")
    while True:
        grow = _band1(scale, c, ranked[np.minimum(count, l - 1)]) <= tau
        grow &= count < l
        shrink = _band1(scale, c, ranked[np.maximum(count - 1, 0)]) > tau
        shrink &= count > 0
        if not (grow.any() or shrink.any()):
            return count
        count += grow
        count -= shrink


def _key(x: float) -> int:
    """Integer that orders floats as their values do (-0.0 and 0.0 share key 0)."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _from_key(key: int) -> float:
    """The float whose :func:`_key` is ``key``."""
    bits = key if key >= 0 else -key | 1 << 63
    return float(np.uint64(bits).view(np.float64))


def _filled_per_row(t1: float, c: np.ndarray, n_filled: int):
    """The filling, row by row: (order, count, row, row_filled).

    ``order`` sorts the cosines so that band-1 energies ascend along every
    row; mesh row i holds the ``count[i]`` lowest of them, at the columns
    ``order[:count[i]]``, except row ``row``, whose filled columns are the
    mask ``row_filled``. The n_filled-th lowest energy tau is found by
    bisection over the floats (as ordered integers). Every state below tau is
    filled; the states at tau (the tie shell) are filled in flat order, so the
    rows before ``row`` take their whole shell and the rows after it none.
    """
    scale = 2.0 * t1
    order = np.argsort(-c if scale < 0.0 else c, kind="stable")
    ranked = c[order]
    lo = _key(np.min(_band1(scale, c, ranked[0]))) - 1
    hi = _key(np.max(_band1(scale, c, ranked[-1])))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _count_at_or_below(scale, c, ranked, _from_key(mid)).sum() >= n_filled:
            hi = mid
        else:
            lo = mid
    tau = _from_key(hi)
    upto = _count_at_or_below(scale, c, ranked, tau)
    below = _count_at_or_below(scale, c, ranked, np.nextafter(tau, -np.inf))
    reach = np.cumsum(upto - below)
    take = n_filled - int(below.sum())
    row = int(np.searchsorted(reach, take))
    count = np.where(np.arange(c.size) < row, upto, below)
    from_shell = take - (int(reach[row - 1]) if row else 0)
    shell = np.sort(order[below[row]:upto[row]])[:from_shell]
    row_filled = np.zeros(c.size, dtype=bool)
    row_filled[order[:below[row]]] = True
    row_filled[shell] = True
    count[row] = below[row] + from_shell
    return order, count, row, row_filled
