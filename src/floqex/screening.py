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
filling), since R depends on neither the drive nor the couplings g_l, g_c. R is
an exact O(l) sum over mesh rows, corrected by the minority states of a partial
filling grouped by their exact gap value; the literal O(l^2) mesh sum
(:func:`ladder_sum`) remains where that closed form does not hold.

Every function here that sums over k' takes the band; the model ``params`` it
also takes set the drive, and a band built for other couplings is moved to
their Hartree shift (:meth:`PairBand.for_params`). Per-k values are taken at
``k``, a (kx, ky) pair of scalars or arrays (the whole mesh is
``(grid.kx, grid.ky)``).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import NoResonance, ResonantDenominator
from .lattice import (
    MESH_BLOCK,
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

# A complex z with |1 - rho^l| below this in some mesh row takes the literal mesh
# sum. |rho|^l ~ exp(-l Im z / sqrt(B^2 - A^2)), so this happens when the
# broadening is narrower than about one mesh step of the band: the sum is then
# dominated by a few resonant mesh points, each as sensitive to the rounding of
# its own gap (relative u*gap/Im z) as the closed form is to its rounding, and
# the mesh sum is the definition the rest of the library agrees with.
ROW_SUM_GUARD = 0.5

# Largest relative rounding error of R, as estimated below, that the closed form
# may carry; above it the mesh sum is taken.
ROUNDING_TOL = 1e-12
_EPS = np.finfo(float).eps

# Elements of one (z x mesh row) or (z x distinct gap) array of the closed form,
# and never more than an eighth of the mesh, so that the four such arrays a pass
# holds stay below the mesh fallback's: :meth:`PairBand.resolvent` evaluates
# max(1, min(RESOLVENT_BLOCK, l^2 / 8) // max(rows, distinct gaps)) values of z per
# pass, with the l rows of a real z or the l // 2 + 1 of a complex one. 2^13 (16
# real z at l = 512) ran fastest on a 2-vCPU Xeon VM: a block's arrays, about
# 0.5 MB, stay in its 2 MB L2 cache, where 2^15 ran 1.8x slower at l = 512.
RESOLVENT_BLOCK = 2**13

# A bisection whose final bracket is wider than this (eV) reports converged = False.
BRACKET_TOL = 1e-10


@dataclass(frozen=True)
class ScreenedDetunings:
    """Bare, screened, and counter-rotating screened detunings at a set of momenta.

    Values are spin-symmetric: both spin projections share them.
    """

    delta0: np.ndarray
    delta: np.ndarray
    delta_bs: np.ndarray

    def __post_init__(self):
        for arr in (self.delta0, self.delta, self.delta_bs):
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
    """Literal S = (u12/N) * sum_k n_k / D_k with the band-resonance guard applied.

    ``guard = 0`` never refuses. This is the reference sum for small systems
    without lattice structure and the fallback of :meth:`PairBand.resolvent`.
    """
    if np.min(np.abs(shifted)) < guard:
        raise ResonantDenominator(
            f"a grid point sits within {guard} eV of the Hartree-shifted band resonance"
        )
    return (u12 / n_sites) * np.sum(occupancy / shifted)


@dataclass(frozen=True)
class PairBand:
    """The k'-sum of one model: R(z) = (1/N) sum_k n_k / (gap_k + shift - z) over ``grid``.

    ``params`` gives the band (eps21, t21) and ``shift`` its Hartree shift for
    the filling ``occ``. ``row_coeffs`` are B c_i (B = 2 t21, c = cos k), the
    row coefficients of :meth:`resolvent`. The minority states of ``occ`` are
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

    @functools.cached_property
    def folded_coeffs(self) -> np.ndarray:
        """Row coefficients of the rows i <= l/2 that stand for all l rows at a complex z.

        Rows i and l - i share their cosine, whose two roundings differ by about an
        ulp; each folded row takes their mean, which keeps R where the unfolded sum
        of both rows had it (to about 6e-14 relative in a doped absorbance at
        l = 64, against 1e-13 from row i alone).
        """
        half = np.arange(self.grid.l // 2 + 1)
        return 0.5 * (self.row_coeffs[half] + self.row_coeffs[-half])

    def for_params(self, params: ModelParams) -> "PairBand":
        """This band with the Hartree shift of ``params``: itself when that shift is
        its own, else a copy that shares the grouped gaps; a model with another
        band (eps21, t21) is built anew on the same grid and filling."""
        if params.eps21 != self.params.eps21 or params.t21 != self.params.t21:
            return pair_band(params, self.grid, self.occ)
        shift = hartree_shift(params, self.occ)
        return self if shift == self.shift else dataclasses.replace(self, params=params,
                                                                    shift=shift)

    def resolvent(self, z, guard: float = RESONANCE_GUARD_EV):
        """R(z) at a real or a complex ``z``, or at each element of an array of them.

        A scalar gives a float or a complex as z is; an array gives an array of
        its shape, real where every element is real.

        On mesh row i, gap_k + shift - z = A_i + B c_j with A_i = eps21 + shift
        - z + B c_i. Each row is a periodic trapezoidal rule with the closed form

            (1/l) sum_j 1 / (A + B cos(2 pi j / l)) = (1 + rho^l) / ((1 - rho^l) s),

        s = sqrt(A^2 - B^2), rho = -B / (A + s) with the root |rho| <= 1, and
        1/A when B = 0, so a full band costs O(l) per z. Row l - i has the
        cosine of row i, so a complex z sums the rows i <= l/2
        (:attr:`folded_coeffs`), each but row 0 and (at even l) row l/2 twice; a
        real z sums all l rows, which keeps the bits of every real-z value. A
        partial filling starts from the full band and subtracts the empty
        states, or sums the filled states directly when they are no more, one
        term count/(g + shift - z) per distinct gap g of the minority states. An array of z
        runs through the closed form in blocks, as many z per pass as keep its
        (z x row) and (z x distinct gap) arrays within :data:`RESOLVENT_BLOCK`
        elements and an eighth of the mesh (one z at least); a scalar is the
        block of one.

        The literal mesh sum (:func:`ladder_sum`) is taken instead, for each z on
        its own,

        - at a real z within ``guard`` (doubled, to cover the rounding of D_k)
          of the shifted band [gap_min, gap_max] + shift, where the row sums
          have poles. The mesh sum refuses when a grid point sits within
          ``guard`` of z; with ``guard = 0`` only z inside the band takes it,
          and it never refuses;
        - at a complex z with |1 - rho^l| < :data:`ROW_SUM_GUARD` in some row;
        - where the closed form's rounding error (:meth:`_closed_form`)
          exceeds :data:`ROUNDING_TOL` relative.

        The mesh sum runs over blocks of :data:`~floqex.lattice.MESH_BLOCK`
        mesh points (one block for l <= 256), so it holds no full-mesh array,
        and each block passes the guard of :func:`ladder_sum` before it is
        divided.
        """
        z = np.asarray(z)
        if np.iscomplexobj(z):
            real = z.imag == 0.0
            if real.all():
                z = z.real
            elif real.any():
                out = z.astype(complex)
                out[real] = self.resolvent(z[real].real, guard)
                out[~real] = self.resolvent(z[~real], guard)
                return out
        real = not np.iscomplexobj(z)
        lo, hi = self._window(guard)
        if not z.ndim:
            # one z: the same decisions on Python scalars; on a one-element array
            # the masks below cost about as much as the closed form at l = 256
            w = z.item()
            if not (real and lo <= w <= hi):
                value, error = self._closed_form(w, real)
                if not error > ROUNDING_TOL * abs(value):
                    return float(value.real) if real else complex(value)
            return self.mesh(w, guard)
        zs = z.astype(float if real else complex)
        mesh = (lo <= zs) & (zs <= hi) if real else np.zeros(zs.size, bool)
        far = (~mesh).nonzero()[0]
        out = np.empty_like(zs)
        size = min(RESOLVENT_BLOCK, self.grid.n_sites // 8)
        rows = self.grid.l if real else self.grid.l // 2 + 1
        step = max(1, size // max(rows, self.gaps.size))
        for start in range(0, far.size, step):
            block = far[start:start + step]
            value, error = self._closed_form(zs[block], real)
            out[block] = value.real if real else value
            mesh[block] = error > ROUNDING_TOL * abs(value)
        for i in mesh.nonzero()[0]:
            out[i] = self.mesh(zs[i], guard)
        return out

    def closure_below_one(self, u12: float, omega: float) -> bool:
        """Whether the ladder closure u12 R(omega) < 1 at a real ``omega``, unguarded.

        Only the sign of u12 R - 1 is asked for, so the closed form decides it
        wherever |u12 R - 1| exceeds u12 times its rounding estimate, even where
        that estimate is too large for :meth:`resolvent` to return R (just
        below the edge, where near-resonant empty states cancel their
        full-band twins). The mesh sum decides only where it does not.
        """
        lo, hi = self._window(0.0)
        if not lo <= omega <= hi:
            value, error = self._closed_form(omega, True)
            if abs(u12 * value - 1.0) > u12 * error:
                return u12 * value < 1.0
        return u12 * self.mesh(omega, 0.0) < 1.0

    def _window(self, guard: float) -> tuple:
        """The shifted band [gap_min, gap_max] + shift, widened by twice ``guard``."""
        return self.gap_min + self.shift - 2.0 * guard, self.gap_max + self.shift + 2.0 * guard

    def _closed_form(self, z, real: bool):
        """(R(z) from the row sums and the grouped minority states, its rounding error)
        at a scalar ``z`` or at each element of a 1-D array of them.

        The error is estimated as eps * (|z| + the largest |gap + shift|) *
        sum |1/D_k|^2 / N over the terms the closed form rounds otherwise than
        the mesh sum: the subtracted empty states at real z (near-resonant ones
        cancel their full-band twins), where that sum is bounded by
        max |1/D_k| |sum 1/D_k| / N, and every state at complex z (there the
        sum is Im R_full / Im z). Directly summed filled states carry none.
        The error is infinite at a z where some row has |1 - rho^l| <
        :data:`ROW_SUM_GUARD`.
        """
        col = z[:, None] if np.ndim(z) else z  # one row of the (z x row) arrays per z
        n = self.grid.n_sites
        filled = self.occ.minority[1]
        part = spread = 0.0
        if filled or self.gaps.size:
            inv = self.gaps - col
            inv += self.shift
            np.divide(1.0, inv, out=inv)  # in place: same bits as 1.0 / (gaps - z + shift)
            part = inv @ self.counts / n
            if filled:
                return part, np.zeros(np.shape(z))
            if real:
                # every D of a real z outside the band has one sign, so sum 1/D^2
                # is at most the largest |1/D|, at an end of the sorted gaps, times |sum 1/D|
                spread = np.maximum(abs(inv[..., 0]), abs(inv[..., -1])) * abs(part)
        means, rows_ok = self._row_means(col, real)
        if not real:
            means *= _fold_weights(self.grid.l)
        full = means.sum(axis=-1) / self.grid.l
        value = full - part
        if not real:
            spread = full.imag / z.imag
        lo, hi = self._window(0.0)
        error = _EPS * (abs(z) + max(abs(lo), abs(hi))) * spread
        return value, error if real else np.where(rows_ok, error, np.inf)

    def _row_means(self, col, real: bool):
        """Row means (1/l) sum_j 1/(A_i + B c_j) at each z of ``col`` (a scalar or a column),
        over every row i at a real z and the rows i <= l/2 at a complex one
        (:attr:`folded_coeffs`, weighted by the caller with :func:`_fold_weights`),
        and whether every such row has |1 - rho^l| >= :data:`ROW_SUM_GUARD`
        (always at a real z). A real rho is raised to the l-th power with ``**``,
        a complex one by :func:`_power`; the rows of a z that fails the guard
        take rho^l = 0, so they stay finite for the mesh sum to replace. The
        steps run in place, so a block holds four arrays of its size."""
        b = 2.0 * self.params.t21
        coeffs = self.row_coeffs if real else self.folded_coeffs
        a = (self.params.eps21 + self.shift - col) + coeffs
        if b == 0.0:
            return np.divide(1.0, a, out=a), True
        s = a - b
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
        q = _power(rho, self.grid.l) if np.iscomplexobj(rho) else rho ** self.grid.l
        rows_ok = True
        if not real:
            rows_ok = ~(np.abs(1.0 - q).min(axis=-1) < ROW_SUM_GUARD)
            q[~rows_ok] = 0.0
        den = 1.0 - q
        den *= s
        q += 1.0
        return np.divide(q, den, out=q), rows_ok

    def mesh(self, z, guard: float = RESONANCE_GUARD_EV):
        """The literal mesh sum of R(z), over blocks of mesh rows, each guarded."""
        grid, occ = self.grid, self.occ
        l, n = grid.l, grid.n_sites
        step = max(1, MESH_BLOCK // l)
        total = 0.0
        for a in range(0, l, step):
            gaps = gap_from_structure_factor(self.params, grid.gamma_rows(a, a + step))
            d = gaps - z + self.shift
            total += ladder_sum(d, occ.n_range(a * l, min(a + step, l) * l), 1.0, n, guard)
        return total


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
    about a hundred times the cost of a product.
    """
    result = None
    while True:
        if n & 1:
            result = base.copy() if result is None else np.multiply(result, base, out=result)
        n >>= 1
        if not n:
            return result
        np.multiply(base, base, out=base)


def _minority_gaps(params: ModelParams, grid: BZGrid, occ: Occupation) -> np.ndarray:
    """Gaps of the minority states of ``occ``, bitwise those of ``gamma_rows``.

    The flat indices are sorted, so each mesh row's states are one stretch of
    them: the row cosine is repeated over its stretch rather than looked up.
    """
    idx, l, n = occ.minority[0], grid.l, grid.n_sites
    per_row = np.diff(np.searchsorted(idx, np.arange(0, n + 1, l)))
    gamma = np.repeat(grid.cos_k, per_row)
    gamma += grid.cos_k[idx - np.repeat(np.arange(0, n, l), per_row)]
    return gap_from_structure_factor(params, gamma)


def pair_band(params: ModelParams, grid: BZGrid, occ: Occupation | None = None) -> PairBand:
    """The :class:`PairBand` of ``params`` on ``grid`` for the filling ``occ``
    (:func:`~floqex.lattice.occupations` when not given)."""
    occ = occupations(params, grid) if occ is None else occ
    gaps, counts = np.unique(_minority_gaps(params, grid, occ), return_counts=True)
    gap_min, gap_max = gap_range(params, grid)
    return PairBand(params=params, grid=grid, occ=occ, shift=hartree_shift(params, occ),
                    gap_min=gap_min, gap_max=gap_max, row_coeffs=2.0 * params.t21 * grid.cos_k,
                    gaps=gaps, counts=counts.astype(float))


def pair_resolvent(params: ModelParams, grid: BZGrid, occ: Occupation,
                   guard: float = RESONANCE_GUARD_EV):
    """The function z -> R(z) = (1/N) sum_k n_k / (gap_k + shift - z) over ``grid``.

    :meth:`PairBand.resolvent` of a band built for this one call; a caller
    that evaluates R for several models of one band keeps the band instead.
    """
    return functools.partial(pair_band(params, grid, occ).resolvent, guard=guard)


def screening_factor(params: ModelParams, band: PairBand) -> float:
    """1 - S with S = u12 R(omega_l)."""
    return 1.0 - params.u12 * band.for_params(params).resolvent(params.omega_l)


def screened_detunings(params: ModelParams, band: PairBand, k) -> ScreenedDetunings:
    """Bare, screened and counter-rotating detunings at the (kx, ky) pair ``k``."""
    band = band.for_params(params)
    d0 = bare_detuning(params, k)
    d = shifted_detunings(params, k, band.occ)
    d_bs = shifted_detunings(params, k, band.occ, bs=True)
    d *= 1.0 - params.u12 * band.resolvent(params.omega_l)
    d_bs *= 1.0 - params.u12 * band.resolvent(-params.omega_l)
    return ScreenedDetunings(delta0=d0, delta=d, delta_bs=d_bs)


def screened_detuning(params: ModelParams, band: PairBand, k):
    """Screened detuning Delta_k at ``k``: the ``delta`` of :func:`screened_detunings`."""
    return screened_detunings(params, band, k).delta


def screened_detuning_bs(params: ModelParams, band: PairBand, k):
    """Counter-rotating (Bloch-Siegert) screened detuning at ``k``."""
    return screened_detunings(params, band, k).delta_bs


def band_resonance_edge(params: ModelParams, grid: BZGrid, occ: Occupation) -> float:
    """Continuum edge: minimum Hartree-shifted gap over the grid (omega_l-independent)."""
    return gap_range(params, grid)[0] + hartree_shift(params, occ)


def exciton_lhs(params: ModelParams, band: PairBand, omega: float) -> float:
    """Ladder closure F(omega) = (u12/N) sum_k n_k / (gap_k - omega + shift).

    Strictly increasing in omega below the continuum edge; F = 1 marks the
    bound electron-hole pair.
    """
    return params.u12 * band.for_params(params).resolvent(omega, guard=0.0)


def solve_bound_state(lhs, edge: float, u11: float, u12: float, nu: float, below_one=None):
    """Bisect the ladder closure ``lhs(omega) = 1`` below the continuum ``edge``.

    Returns (omega, residual, converged). The bracket top edge - 1e-9 only
    has to lie on the far side of the root, so there only the sign of
    lhs - 1 is asked for: ``below_one(omega)``, when given, answers whether
    lhs(omega) < 1 (:meth:`PairBand.closure_below_one`), else lhs itself is
    evaluated. Bisection is iterated to floating-point resolution (the
    bracket endpoints have poles just above, so robustness beats speed);
    ``converged`` reports whether the final bracket is narrower than
    :data:`BRACKET_TOL`.
    """
    if u12 <= 0.0 or nu <= 0.0:
        raise NoResonance("a bound state requires u12 > 0 and a partially filled band")
    if below_one is None:
        below_one = lambda omega: lhs(omega) < 1.0
    lo = edge - u11 - 5.0 * u12
    hi = edge - 1e-9
    if below_one(hi):
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
    omega, residual, converged = solve_bound_state(
        lambda w: u12 * band.resolvent(w, guard=0.0), band.edge, params.u11, u12,
        band.occ.nu, below_one=functools.partial(band.closure_below_one, u12),
    )
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
    n_k = band.occ.n_range(k_index, k_index + 1)[0]
    d = shifted_detunings(params, band.grid.point(k_index), band.occ)
    t = grpa_tmatrix(params, band)
    bubble = g2 * (-n_k / d) * t
    screened = -g2 * n_k / (d * screening_factor(params, band))
    return bubble, screened
