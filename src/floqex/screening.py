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
shift - z), held by a :class:`PairBand`: S = u12 R(omega_l), the ladder
closure is F(omega) = u12 R(omega), and the absorbance continues R to complex
z. The band is built by :func:`pair_band` once per (band, Hartree shift, grid,
filling), since R depends on neither the drive nor the couplings g_l, g_c. At
every z, R is an exact O(l) sum over mesh rows, corrected by the minority states
of a partial filling grouped by their exact gap value, with a few rows summed
directly where subtracted states cancel; no k'-sum passes over the whole mesh.

Every function here that sums over k' takes the band; the model ``params`` it
also takes set the drive, and a band built for other couplings is moved to
their Hartree shift (:meth:`PairBand.for_params`). Per-k values are taken at
``k``, a (kx, ky) pair of scalars or arrays (the whole mesh is
``grid.point(np.arange(grid.n_sites))``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .exceptions import NoResonance, ResonantDenominator
from .lattice import (
    BZGrid,
    ModelParams,
    Occupation,
    bare_detuning,
    gap_from_structure_factor,
    gap_range,
    occupations,
)

# Grid points closer than this to a Hartree-shifted band resonance poison the
# ladder sum; evaluation refuses rather than returning huge screened values.
RESONANCE_GUARD_EV = 1e-9

# Largest relative rounding error of R, as estimated below, that the closed form
# may carry; above it the rows holding the cancelling states are summed directly.
ROUNDING_TOL = 1e-12
_EPS = np.finfo(float).eps

# Elements of one (z x mesh row) or (z x distinct gap) array of the closed form,
# and never more than an eighth of the mesh, so that the four such arrays a pass
# holds stay within half an l x l array: :meth:`PairBand.resolvent` evaluates
# max(1, min(RESOLVENT_BLOCK, l^2 / 8) // max(l // 2 + 1, distinct gaps)) values
# of z per pass. 2^13 ran fastest on a 2-vCPU Xeon VM: a block's arrays, about
# 0.5 MB, stay in its 2 MB L2 cache, where 2^15 ran 1.8x slower at l = 512.
RESOLVENT_BLOCK = 2**13

# Mesh points per block of the rows that :meth:`PairBand._direct_rows` sums, and never
# more than an eighth of the mesh: a block's temporaries stay far below one l x l array.
MESH_BLOCK = 2**16

# A bisection whose final bracket is wider than this (eV) reports converged = False.
BRACKET_TOL = 1e-10


@dataclass(frozen=True)
class ScreenedDetunings:
    """Screened and counter-rotating screened detunings at a set of momenta.

    Values are spin-symmetric: both spin projections share them.
    """

    delta: np.ndarray
    delta_bs: np.ndarray

    def __post_init__(self):
        for arr in (self.delta, self.delta_bs):
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
    """Literal S = (u12/N) * sum_k n_k / D_k, refused within ``guard`` of a band
    resonance (``guard = 0`` never refuses): the sum of small systems without lattice
    structure."""
    if np.min(np.abs(shifted)) < guard:
        raise ResonantDenominator(
            f"a grid point sits within {guard} eV of the Hartree-shifted band resonance"
        )
    return (u12 / n_sites) * np.sum(occupancy / shifted)


@dataclass(frozen=True)
class PairBand:
    """The k'-sum of one model: R(z) = (1/N) sum_k n_k / (gap_k + shift - z) over ``grid``.

    ``params`` gives the band (eps21, t21) and ``shift`` its Hartree shift for
    the filling ``occ``. ``row_coeffs`` are B c_i (B = 2 t21, c = cos k) of the
    rows i <= l/2 that stand for all l rows in :meth:`resolvent`: rows i and
    l - i share their cosine, whose two roundings differ by about an ulp, and each
    folded row takes their mean. The minority states of ``occ`` are
    grouped by their exact gap value: the distinct, ascending ``gaps`` occur
    ``counts`` times (held as floats), so a partial filling costs one term
    per distinct gap rather than one per state.
    """

    params: ModelParams
    grid: BZGrid
    occ: Occupation
    shift: float
    gap_min: float
    gap_max: float
    row_coeffs: np.ndarray
    gaps: np.ndarray
    counts: np.ndarray

    @property
    def edge(self) -> float:
        """Continuum edge: the smallest Hartree-shifted gap on the grid."""
        return self.gap_min + self.shift

    def for_params(self, params: ModelParams) -> "PairBand":
        """This band with the Hartree shift of ``params``: itself when that shift is
        its own, else a copy that shares the grouped gaps. A model with another band
        or filling (eps21, t1, t2, doping) is built anew on the same grid."""
        if any(getattr(params, k) != getattr(self.params, k) for k in ("eps21", "t1", "t2", "doping")):
            return pair_band(params, self.grid)
        shift = hartree_shift(params, self.occ)
        return self if shift == self.shift else dataclasses.replace(self, params=params,
                                                                    shift=shift)

    def resolvent(self, z, guard: float = RESONANCE_GUARD_EV):
        """R(z) at a real or a complex ``z``, or at each element of an array of them.

        A scalar gives a float or a complex as z is; an array gives an array of
        its shape and kind. A complex z must have Im z != 0 (``ValueError``
        otherwise): a real z is passed as a float.

        On mesh row i, gap_k + shift - z = A_i + B c_j with A_i = eps21 + shift
        - z + B c_i. Each row is a periodic trapezoidal rule with the closed form

            (1/l) sum_j 1 / (A + B cos(2 pi j / l)) = (1 + rho^l) / ((1 - rho^l) s),

        s = sqrt(A^2 - B^2), rho = -B / (A + s) with the root |rho| <= 1, and
        1/A when B = 0, so a full band costs O(l) per z; inside the band,
        |rho| = 1 on the rows that z crosses and the poles are the grid points.
        Row l - i has the cosine of row i, so every z sums the rows i <= l/2
        (:attr:`row_coeffs`), each but row 0 and (at even l) row l/2 twice. A
        partial filling subtracts the empty states from the full band, or sums
        the filled states when they are fewer, one term count/(g + shift - z)
        per distinct gap g. Where subtracted states cancel their full-band twins
        (their rounding estimate, :meth:`_closed_form`, exceeds
        :data:`ROUNDING_TOL` relative), a few rows are summed directly
        (:meth:`_direct_rows`). A real z within twice ``guard`` of the shifted
        band is refused when a grid point sits within ``guard`` of it
        (:meth:`_refuse_resonant`; ``guard = 0`` never refuses). An array of z
        runs through the closed form in blocks, as many z per pass as keep its
        (z x row) and (z x distinct gap) arrays within :data:`RESOLVENT_BLOCK`
        elements and an eighth of the mesh (one z at least); a z inside the
        guarded band, or one whose states cancel, is then evaluated on its own.
        """
        z = np.asarray(z)
        real = not np.iscomplexobj(z)
        if not real and (z.imag == 0.0).any():
            raise ValueError("a complex z must have a non-zero imaginary part; "
                             "pass a real z as a float")
        lo, hi = self.edge - 2.0 * guard, self.gap_max + self.shift + 2.0 * guard
        if not z.ndim:
            # one z: the same decisions on Python scalars; on a one-element array
            # the masks below cost about as much as the closed form at l = 256
            w = z.item()
            if real and guard and lo <= w <= hi:
                self._refuse_resonant(w, guard)
            value, error = self._closed_form(w, real)
            if not error <= ROUNDING_TOL * abs(value):
                value = self._direct_rows(w, real, value)
            return float(value.real) if real else complex(value)
        zs = z.astype(float if real else complex)
        alone = (lo <= zs) & (zs <= hi) if real else np.zeros(zs.size, bool)
        far = (~alone).nonzero()[0]
        out = np.empty_like(zs)
        size = min(RESOLVENT_BLOCK, self.grid.n_sites // 8)
        step = max(1, size // max(self.grid.l // 2 + 1, self.gaps.size))
        for start in range(0, far.size, step):
            block = far[start:start + step]
            value, error = self._closed_form(zs[block], real)
            out[block] = value.real if real else value
            alone[block] = ~(error <= ROUNDING_TOL * abs(value))
        for i in alone.nonzero()[0]:
            out[i] = self.resolvent(zs[i], guard)
        return out

    def _refuse_resonant(self, z: float, guard: float):
        """Raise ``ResonantDenominator`` if a grid point's |D| = |gap + shift - z| is
        below ``guard``. On row i, D is monotone in c_j, rounding included, so |D| is
        least where D changes sign: a ``searchsorted`` of c_j = (z - shift - eps21)
        / B - c_i over the sorted cosines finds it, to within a mirror pair and its
        rounding, and D is formed as every grid gap is around it: O(l log l)."""
        p, c = self.params, self.grid.cos_k
        ranked = np.sort(c)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cross = (z - self.shift - p.eps21) / np.float64(2.0 * p.t21) - c
        near = np.clip(np.searchsorted(ranked, cross)[:, None] + np.arange(-3, 3), 0, c.size - 1)
        d = gap_from_structure_factor(p, c[:, None] + ranked[near]) - z + self.shift
        if (abs(d) < guard).any():
            raise ResonantDenominator(f"a grid point sits within {guard} eV of the "
                                      "Hartree-shifted band resonance")

    def _closed_form(self, z, real: bool, counts=None, skip=None):
        """(R(z) from the row sums and the grouped minority states, its rounding error)
        at a scalar ``z`` or at each element of a 1-D array of them.

        ``counts`` replaces the groups' counts, and the mesh rows ``skip``, whose
        filled states :meth:`_direct_rows` sums, are left out of the row sums. The
        error is estimated as :meth:`_scale` times sum |1/D_k|^2 / N over the
        subtracted empty states, where near-resonant ones cancel their full-band
        twins; a full band and directly summed filled states carry none.
        """
        col = z[:, None] if np.ndim(z) else z  # one row of the (z x row) arrays per z
        n, l = self.grid.n_sites, self.grid.l
        filled = self.occ.filled
        part = spread = 0.0
        if filled or self.gaps.size:
            inv = self.gaps - col
            inv += self.shift
            np.divide(1.0, inv, out=inv)  # in place: same bits as 1.0 / (gaps - z + shift)
            if real and not filled:
                ends = np.maximum(abs(inv[..., 0]), abs(inv[..., -1]))
                mixed = np.signbit(inv[..., 0]) != np.signbit(inv[..., -1])
            # in place, then summed by numpy: no BLAS kernel picks the order of the sum
            inv *= self.counts if counts is None else counts
            part = inv.sum(axis=-1) / n
            if filled:
                return part, np.zeros(np.shape(z))
            # the D of a real z outside the subtracted gaps have one sign, so sum
            # 1/D^2 is at most the largest |1/D|, at an end of the sorted gaps,
            # times |sum 1/D| (among them, unbounded); Im(1/D) = Im z |1/D|^2
            spread = np.where(mixed, np.inf, ends * abs(part)) if real else part.imag / z.imag
        weights = _fold_weights(l)
        if skip is not None:
            np.subtract.at(weights, np.minimum(skip, l - skip), 1.0)
        means = self._row_means(col, real)
        means *= weights
        value = means.sum(axis=-1) / l - part
        return value, self._scale(z) * spread

    def _scale(self, z):
        """eps * (|z| + the largest |gap + shift|): the rounding of one D_k relative to it."""
        return _EPS * (abs(z) + max(abs(self.edge), abs(self.gap_max + self.shift)))

    def _direct_rows(self, z, real: bool, value):
        """R at a scalar ``z`` whose subtracted empty states cancel, ``value`` being the
        closed form's. The rows holding the largest shares of the rounding estimate
        (the largest |1/D| holes) are taken until the others' fall below
        :data:`ROUNDING_TOL` times the least |R| it allows. Their filled states are
        summed directly, O(l) per row, and their empty states leave the groups' counts
        before the grouped sum is formed, so no separately formed sum is subtracted."""
        c, l, n = self.grid.cos_k, self.grid.l, self.grid.n_sites
        rows, gaps = _minority_gaps(self.params, self.grid, self.occ)
        share = gaps - np.real(z) + self.shift  # |1/D|^2, state by state, then row by row
        share = np.power(np.hypot(share, np.imag(z), out=share), -2.0, out=share)
        share = np.bincount(rows, weights=share, minlength=l)
        ranked = np.argsort(share, kind="stable")
        left = np.cumsum(share[ranked]) * (self._scale(z) / n)  # the estimate over rows kept
        goal = ROUNDING_TOL * max(abs(value) - left[-1], 0.0)
        direct = ranked[np.searchsorted(left, goal, side="right"):]
        taken = np.searchsorted(self.gaps, gaps[np.isin(np.arange(l), direct)[rows]])  # holes
        counts = self.counts - np.bincount(taken, minlength=self.gaps.size)
        del rows, gaps  # up to half the mesh each: not held while the rows are summed
        filled, step = 0.0, max(1, min(MESH_BLOCK, n // 8) // l)  # rows per block, <= mesh / 8
        for block in (direct[start:start + step] for start in range(0, direct.size, step)):
            d = gap_from_structure_factor(self.params, c[block, None] + c) - z
            d += self.shift
            on = np.array([self.occ.row_occupancy(i) for i in block])
            filled += np.divide(on, d, out=d).sum()
        return self._closed_form(z, real, counts, direct)[0] + filled / n

    def _row_means(self, col, real: bool):
        """Row means (1/l) sum_j 1/(A_i + B c_j) at each z of ``col`` (a scalar or a column)
        over the rows i <= l/2 (:attr:`row_coeffs`, weighted by the caller with
        :func:`_fold_weights`), with rho^l by :func:`_power`. A real z takes the
        real root s where every A^2 - B^2 > 0. The steps run in place, so a block
        holds four arrays of its size."""
        b = 2.0 * self.params.t21
        a = (self.params.eps21 + self.shift - col) + self.row_coeffs
        if b == 0.0:
            return np.divide(1.0, a, out=a)
        s = a - b
        with np.errstate(over="ignore"):  # |A| above about 1.3e154: s = inf, mean 0
            s *= a + b
        if real and s.min() > 0.0:
            np.sqrt(s, out=s)
            np.copysign(s, a, out=s)
        else:
            a, s = a.astype(complex, copy=False), s.astype(complex, copy=False)
            np.sqrt(s, out=s)
            # the root with Re(s conj(A)) >= 0, so that |rho| <= 1
            np.negative(s, out=s, where=s.real * a.real + s.imag * a.imag < 0.0)
        rho = np.divide(-b, np.add(a, s, out=a), out=a)
        q = _power(rho, self.grid.l)
        den = 1.0 - q
        den *= s
        q += 1.0
        return np.divide(q, den, out=q)


def _fold_weights(l: int) -> np.ndarray:
    """Weights of the rows i <= l/2 that stand for all l rows: row l - i has the
    cosine of row i, so every row counts twice but row 0 and, at even l, row l/2."""
    w = np.full(l // 2 + 1, 2.0)
    w[0] = 1.0
    if l % 2 == 0:
        w[-1] = 1.0
    return w


def _power(base: np.ndarray, n: int) -> np.ndarray:
    """base ** n for an integer n >= 1 by repeated squaring, at most 2 log2(n)
    products; ``base`` is overwritten.

    ``**`` on a complex array takes exp(n log base) per element for n >= 100,
    about a hundred times the cost of a product. On a real array it calls the
    host's vectorised ``pow``, whose last bit differs between SIMD kernels (AVX2
    and AVX-512 disagree near the band edge), while a real product is correctly
    rounded on every host, so a real base gives the same bits everywhere.
    """
    result = None
    while True:
        if n & 1:
            result = base.copy() if result is None else np.multiply(result, base, out=result)
        n >>= 1
        if not n:
            return result
        np.multiply(base, base, out=base)


def _minority_gaps(params: ModelParams, grid: BZGrid, occ: Occupation) -> tuple:
    """(rows, gaps) of the minority states of ``occ``, from c_i + c_j as every grid gap is."""
    rows, cols = occ.minority_states()
    gamma = grid.cos_k[rows]
    gamma += grid.cos_k[cols]
    return rows, gap_from_structure_factor(params, gamma)


def pair_band(params: ModelParams, grid: BZGrid, occ: Occupation | None = None) -> PairBand:
    """The :class:`PairBand` of ``params`` on ``grid`` for the filling ``occ``
    (:func:`~floqex.lattice.occupations` when not given)."""
    occ = occupations(params, grid) if occ is None else occ
    gaps, counts = np.unique(_minority_gaps(params, grid, occ)[1], return_counts=True)
    gap_min, gap_max = gap_range(params, grid)
    b, half = 2.0 * params.t21 * grid.cos_k, np.arange(grid.l // 2 + 1)
    return PairBand(params=params, grid=grid, occ=occ, shift=hartree_shift(params, occ),
                    gap_min=gap_min, gap_max=gap_max, row_coeffs=0.5 * (b[half] + b[-half]),
                    gaps=gaps, counts=counts.astype(float))


def screening_factor(params: ModelParams, band: PairBand) -> float:
    """1 - S with S = u12 R(omega_l)."""
    return 1.0 - params.u12 * band.for_params(params).resolvent(params.omega_l)


def screened_detuning(params: ModelParams, band: PairBand, k, bs: bool = False):
    """Screened detuning Delta_k = D_k (1 - u12 R(omega_l)) at the (kx, ky) pair ``k``;
    with ``bs`` the counter-rotating D^bs_k (1 - u12 R(-omega_l))."""
    band = band.for_params(params)
    d = shifted_detunings(params, k, band.occ, bs)
    d *= 1.0 - params.u12 * band.resolvent(-params.omega_l if bs else params.omega_l)
    return d


def screened_detuning_bs(params: ModelParams, band: PairBand, k):
    """Counter-rotating (Bloch-Siegert) screened detuning at ``k``."""
    return screened_detuning(params, band, k, bs=True)


def screened_detunings(params: ModelParams, band: PairBand, k) -> ScreenedDetunings:
    """Screened and counter-rotating detunings at the (kx, ky) pair ``k``."""
    band = band.for_params(params)
    return ScreenedDetunings(delta=screened_detuning(params, band, k),
                             delta_bs=screened_detuning_bs(params, band, k))


def solve_bound_state(lhs, edge: float, u11: float, u12: float, nu: float):
    """Bisect the ladder closure ``lhs(omega) = 1`` below the continuum ``edge``.

    Returns (omega, residual, converged). The bracket top edge - 1e-9 must lie
    on the far side of the root, lhs(top) >= 1. Bisection is iterated to
    floating-point resolution (the bracket endpoints have poles just above, so
    robustness beats speed); ``converged`` reports whether the final bracket is
    narrower than :data:`BRACKET_TOL`.
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


def solve_exciton_resonance(params: ModelParams, band: PairBand) -> ResonanceReport:
    """Locate the exciton resonance: the unique F(omega) = 1 root below the edge."""
    band = band.for_params(params)
    u12 = params.u12

    def closure(omega):
        # u12 R(omega), unguarded; bisection reads only the sign of u12 R - 1, which the closed
        # form decides where |u12 R - 1| > u12 times its estimate, sparing the bracket top's rows
        value, error = band._closed_form(omega, True)
        if not (error <= ROUNDING_TOL * abs(value) or abs(u12 * value - 1.0) > u12 * error):
            return u12 * band.resolvent(omega, guard=0.0)
        return u12 * float(value)

    omega, residual, converged = solve_bound_state(closure, band.edge, params.u11, u12,
                                                   band.occ.nu)
    return ResonanceReport(
        omega_ex=omega,
        continuum_edge=band.edge,
        binding=band.edge - omega,
        delta_ex=omega - params.omega_l,
        converged=converged,
        residual=residual,
    )


def grpa_tmatrix(params: ModelParams, band: PairBand) -> float:
    """Electron-hole t-matrix T = (1 + (u12/N) sum_k n_k / (-D_k))^(-1) = 1 / (1 - S).

    The beta -> infinity limit of the Matsubara ladder: unity at u12 = 0 and
    divergent at the exciton pole.
    """
    inverse_t = screening_factor(params, band)
    if abs(inverse_t) < 1e-12:
        raise ResonantDenominator("t-matrix pole: laser sits on the exciton resonance")
    return 1.0 / inverse_t


def grpa_stark_equivalence(params: ModelParams, band: PairBand, k_index: int):
    """Ladder-bubble Stark shift vs the screened-denominator Stark shift.

    Returns the pair (bubble, screened) for the grid point ``k_index``; the
    two are an algebraic rearrangement of each other and agree to relative
    1e-12 on identical grids.
    """
    band = band.for_params(params)
    g2 = params.g_l * params.g_l
    n_k = band.occ.row_occupancy(k_index // band.grid.l)[k_index % band.grid.l]
    d = shifted_detunings(params, band.grid.point(k_index), band.occ)
    t = grpa_tmatrix(params, band)
    bubble = g2 * (-n_k / d) * t
    screened = -g2 * n_k / (d * screening_factor(params, band))
    return bubble, screened
