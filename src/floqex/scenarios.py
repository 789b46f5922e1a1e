"""Named scenarios reproducing the library's headline observables as data files.

Each scenario builds one or more :class:`ScanResult` tables and writes
``<name>.csv`` / ``<name>.json`` / ``<name>.meta.json``. A scenario evaluates
the per-k values only at the momenta it writes (Gamma/Y/M, the Y -> Gamma -> M
path or the hopping stencil), so no scan builds an l x l field, and it runs its
points in axis order in one thread. Every reduction is deterministic, so the
files are byte-identical between runs; the ``workers`` option is accepted and
has no effect.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from . import __version__
from .cavity import matched_pair, u12_sweep
from .config import RunOptions
from .exceptions import ConfigError, FloqexError, NoPeak
from .floquet import (
    HOPPING_MIN_L,
    TLA_GUARD_EV,
    effective_band,
    effective_hopping,
    stark_bs_ratio,
    tla_shifts,
)
from .lattice import BZGrid, ModelParams
from .scan import ScanResult, solved
from .screening import pair_band, screened_detuning, solve_exciton_resonance
from .spectra import absorbance, peak_location

SCENARIOS = {}

# Largest scan axis accepted; refused before the axis is allocated.
MAX_AXIS_POINTS = 1_000_000

_RATIO_COLUMNS = ("ratio_gamma", "ratio_y", "ratio_m", "ratio_tla")

# Peak memory of any grid scenario in l x l float64 arrays, counting only arrays that
# grow as l^2: no k'-sum passes over the mesh, so it is the pair band's build, which
# lists, gaps and sorts the minority states (up to half the mesh); the band keeps only
# their distinct gaps and counts. The largest tracemalloc peak of the nine grid
# scenarios at doping 0, 0.05 and 0.5 and l = 64, 128 and 256 (coarse axes, as in
# tests/test_cli.py) is 2.88, fig4's at doping 0.5 and l = 64, rounded up for other
# numpy versions; absorbance at doping 0.49, gamma = 1e-4 and l = 128 reads 2.98. At
# l = 64 the default axis's own arrays dominate: absorbance at doping 0.49 reads 5.35
# (5.51 at gamma = 1e-4). A grid that cannot fit is refused before anything is allocated.
PEAK_BAND_ARRAYS = 3.5


def _scenario(name, grid=256, min_l=1, divides_by=(), **defaults):
    """Register ``fn(params, opts, grid)``, which returns a :class:`ScanResult` named
    ``name`` or a list of (table name, ScanResult), as ``SCENARIOS[name](params, opts)``.

    ``grid`` is the default l (``None``: no grid is built) and ``min_l`` the least.
    ``divides_by`` names couplings whose square the observable is divided by or
    scales as; a square that is zero, subnormal or infinite would make every value
    0/0, noise, 0 or nan, so it is refused. ``defaults`` fill the options left
    ``None``. A table holding +-inf is refused; each table records its ``grid_l``.
    """
    def register(fn):
        def run(params: ModelParams, opts: RunOptions) -> list:
            for key in divides_by:
                value = getattr(params, key)
                if not np.finfo(float).tiny <= value * value < np.inf:
                    raise ConfigError(f"{name} divides by {key}**2, so |{key}| must lie in "
                                      "[1.5e-154, 1.3e154] (outside, the square under- or "
                                      "overflows)")
            opts = dataclasses.replace(opts, **{key: value for key, value in defaults.items()
                                                if getattr(opts, key) is None})
            bz = None if grid is None else _grid(opts, name, grid, min_l)
            tables = fn(params, opts, bz)
            tables = [(name, tables)] if isinstance(tables, ScanResult) else tables
            for table, result in tables:
                for column, values in result.columns.items():
                    if np.isinf(values).any():
                        raise FloqexError(f"table {table}: column {column} holds an infinite value")
                if bz is not None:
                    result.metadata["grid_l"] = bz.l
            return tables

        run.defaults = defaults
        SCENARIOS[name] = run
        return fn

    return register


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _grid(opts: RunOptions, scenario: str, default_l: int, min_l: int = 1) -> BZGrid:
    l = opts.grid if opts.grid is not None else default_l
    if l < min_l:
        raise ConfigError(f"grid must be at least {min_l} for this scenario, got {l}")
    need, have = PEAK_BAND_ARRAYS * 8 * l * l, _physical_memory_bytes()
    if need > have:
        raise ConfigError(f"grid {l} needs about {need / 2**30:.1f} GiB for {scenario}, "
                          f"more than the {have / 2**30:.1f} GiB of physical memory")
    return BZGrid.square(l)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi: floor((hi - lo) / step) steps, where a span
    within 1e-9 of an integer below it counts as that integer."""
    span = (hi - lo) / step
    if not span <= MAX_AXIS_POINTS - 1:
        raise ConfigError(
            f"axis [{lo}, {hi}] with step {step} has more than {MAX_AXIS_POINTS} points"
        )
    n = math.floor(span + 1e-9)
    if n < 0:
        raise ConfigError(f"empty axis: [{lo}, {hi}] with step {step}")
    return lo + step * np.arange(n + 1)


def _symmetry_points(grid: BZGrid) -> tuple:
    """(kx, ky) of Gamma, Y and M."""
    return grid.point(np.array([grid.gamma_index, grid.y_index, grid.m_index]))


def _path_scan(params, opts, grid, column: str, value) -> ScanResult:
    """``value(p, band, path)`` along Y -> Gamma -> M for the matched drive pair.

    The columns ``<column>_screened`` and ``<column>_unscreened`` hold it for
    the interacting drive and for its free twin.
    """
    pair = matched_pair(params, pair_band(params, grid), exciton_required=False)
    p_s, p_u = pair.drives(opts.detuning)
    kx, ky = path = grid.point(grid.path_y_gamma_m())
    return ScanResult(
        axis_name="path_index",
        axis=np.arange(len(kx)),
        columns={"kx": kx, "ky": ky,
                 f"{column}_screened": value(p_s, pair.band, path),
                 f"{column}_unscreened": value(p_u, pair.band, path)},
        metadata={"detuning": opts.detuning},
    )


@_scenario("resonance", grid=1024)
def _run_resonance(params: ModelParams, opts: RunOptions, grid: BZGrid):
    rep = solve_exciton_resonance(params, pair_band(params, grid))
    return ScanResult.from_rows(
        "index", ("omega_ex", "continuum_edge", "binding", "delta_ex", "converged", "residual"),
        [(0, rep.omega_ex, rep.continuum_edge, rep.binding, rep.delta_ex,
          int(rep.converged), rep.residual)],
    )


@_scenario("fig1a", divides_by=("g_l",), detuning=0.03)
def _run_fig1a(params: ModelParams, opts: RunOptions, grid: BZGrid):
    """Drive-induced band change per |g_l|^2 along Y -> Gamma -> M, screened vs free."""
    def change(p, band, path):
        dressed = effective_band(p, band, path)
        return (dressed.stark + dressed.bs) / (p.g_l * p.g_l)

    return _path_scan(params, opts, grid, "change", change)


@_scenario("fig1b", min_l=HOPPING_MIN_L, detuning=0.03)
def _run_fig1b(params: ModelParams, opts: RunOptions, grid: BZGrid):
    """Effective hopping vs drive strength for the interacting and free models."""
    gl_values = _axis(0.0, opts.gl_max, opts.gl_step)
    pair = matched_pair(params, pair_band(params, grid), exciton_required=False)
    drives = pair.drives(opts.detuning)
    rows = [(g_l, *(effective_hopping(p.replace(g_l=g_l), pair.band) for p in drives))
            for g_l in gl_values]
    return ScanResult.from_rows("g_l", ("t_eff", "t_eff_unscreened"), rows,
                                metadata={"detuning": opts.detuning})


@_scenario("fig2", divides_by=("g_l",), detuning=0.03,
           det_min=0.005, det_max=0.5, det_step=0.005)
def _run_fig2(params: ModelParams, opts: RunOptions, grid: BZGrid):
    """Stark/BS ratio vs laser-exciton detuning, plus interaction-strength panels."""
    if opts.detuning < TLA_GUARD_EV:
        raise ConfigError(f"fig2 drives its two-level comparator detuning = {opts.detuning} eV "
                          f"below the exciton line; detuning must be at least {TLA_GUARD_EV} eV")
    det_axis = _axis(opts.det_min, opts.det_max, opts.det_step)
    u11_axis = _axis(0.0, 3.2, 0.1)
    u12_axis = _axis(opts.u12_min, opts.u12_max, opts.u12_step)
    points = _symmetry_points(grid)
    band = pair_band(params, grid)
    omega_ex = solve_exciton_resonance(params, band).omega_ex

    def ratios(p, omega_ex, delta_ex):
        """Stark/BS magnitude ratios at Gamma/Y/M plus the two-level comparator."""
        p = p.with_laser(omega_ex - delta_ex)
        st, bs = tla_shifts(p, omega_ex)
        return (*stark_bs_ratio(p, band, points), abs(st / bs))

    main = ScanResult.from_rows("delta_ex", _RATIO_COLUMNS,
                                [(d, *ratios(params, omega_ex, d)) for d in det_axis],
                                metadata={"omega_ex": omega_ex})

    def interaction_rows(key, values):
        def point(value):
            p = params.replace(**{key: float(value)})
            w = solve_exciton_resonance(p, band).omega_ex
            return (*ratios(p, w, opts.detuning), w)

        names = (*_RATIO_COLUMNS, "omega_ex", "converged")
        rows = [(value, *solved(point, value, width=len(names) - 1)) for value in values]
        return ScanResult.from_rows(key, names, rows, metadata={"delta_ex": opts.detuning})

    return [("fig2", main), ("fig2_u11", interaction_rows("u11", u11_axis)),
            ("fig2_u12", interaction_rows("u12", u12_axis))]


@_scenario("fig3a", detuning=0.05)
def _run_fig3a(params: ModelParams, opts: RunOptions, grid: BZGrid):
    """Forward-scattering kernel (prefactor removed) along Y -> Gamma -> M."""
    def inv_dsq(p, band, path):
        delta = screened_detuning(p, band, path)
        with np.errstate(over="ignore"):  # |Delta| above about 1.3e154 gives 0
            return 1.0 / delta ** 2

    return _path_scan(params, opts, grid, "inv_dsq", inv_dsq)


@_scenario("fig3b", det_min=0.05, det_max=0.5, det_step=0.025)
def _run_fig3b(params: ModelParams, opts: RunOptions, grid: BZGrid):
    """Excitonic enhancement (Delta_free/Delta_int)^2 of the forward kernel vs detuning
    at Gamma/Y/M; g_l and g_c cancel in it."""
    det_axis = _axis(opts.det_min, opts.det_max, opts.det_step)
    pair = matched_pair(params, pair_band(params, grid))
    points = _symmetry_points(grid)
    return ScanResult.from_rows("detuning", _RATIO_COLUMNS[:3],
                                [(d, *pair.enhancement(d, points)) for d in det_axis],
                                metadata={"omega_ex": pair.omega_ex})


@_scenario("fig3c", divides_by=("g_l", "g_c"), detuning=0.05)
def _run_fig3c(params: ModelParams, opts: RunOptions, grid: BZGrid):
    """Kernel strength and enhancement at Gamma vs the interband repulsion."""
    u12_values = _axis(opts.u12_min, opts.u12_max, opts.u12_step)
    return u12_sweep(params, grid, opts.detuning, u12_values)


@_scenario("fig4", omega_min=2.3, omega_max=2.88)
def _run_fig4(params: ModelParams, opts: RunOptions, grid: BZGrid):
    """Screened detuning vs drive frequency at Gamma/Y/M for several gap dispersions.

    A row is ``converged = 0`` where the screened detuning sits on a band
    resonance (its deltas are NaN) or where the dispersion has no exciton line
    (its ``delta_tla`` is NaN).
    """
    omega_axis = _axis(opts.omega_min, opts.omega_max, opts.omega_step)
    points = _symmetry_points(grid)
    rows = []
    for t21 in opts.t21_values:
        p_t = params.replace(t1=params.t2 - t21)
        band = pair_band(p_t, grid)
        omega_ex, line = solved(lambda: (solve_exciton_resonance(p_t, band).omega_ex,), width=1)
        for omega_l in omega_axis:
            drive = p_t.with_laser(omega_l)
            *delta, ok = solved(lambda: screened_detuning(drive, band, points),
                                width=len(points[0]))
            rows.append((omega_l, t21, *delta, omega_ex - omega_l, ok * line))
    return ScanResult.from_rows(
        "omega_l", ("t21", "delta_gamma", "delta_y", "delta_m", "delta_tla", "converged"), rows,
        metadata={"t21_values": list(opts.t21_values)},
    )


@_scenario("absorbance", omega_min=2.4, omega_max=5.0)
def _run_absorbance(params: ModelParams, opts: RunOptions, grid: BZGrid):
    omegas = _axis(opts.omega_min, opts.omega_max, opts.omega_step)
    curve = absorbance(params, pair_band(params, grid), omegas, opts.gamma)
    try:
        peak = peak_location(curve)
    except NoPeak:
        peak = float("nan")
    return ScanResult(
        axis_name="omega",
        axis=omegas,
        columns={"alpha": curve.alpha, "alpha_raw": curve.raw()},
        metadata={"gamma": opts.gamma, "peak_omega": peak},
    )


@_scenario("oracle", grid=None)
def _run_oracle(params: ModelParams, opts: RunOptions, grid: None):
    """Dense-solve reference suite on random small systems of the configured model."""
    # imported here, so that no other scenario loads the dense solvers
    from .exactdiag import (
        SmallSystem,
        analytic_stark,
        bound_state_root,
        check_commutator_identities,
        oracle_exciton_eigen,
        oracle_stark,
        random_system,
        restriction_leakage,
    )

    if params.doping != 0.0:
        raise ConfigError("oracle's pair-sector reference is exact only at full filling, "
                          "so doping must be 0")
    rng = np.random.default_rng(opts.seed)

    def draw(n_k):
        drawn = random_system(rng, n_k)
        return SmallSystem(eps1=drawn.eps1, eps2=drawn.eps2, params=params)

    rows = []
    for i in range(opts.instances):
        n_k = int(rng.integers(2, 5))
        system = draw(n_k)
        omega_ex = bound_state_root(system)
        margin = rng.uniform(0.1, 0.6)
        system = SmallSystem(
            eps1=system.eps1, eps2=system.eps2,
            params=params.with_laser(omega_ex - margin),
        )
        dense = oracle_stark(system)
        analytic = analytic_stark(system)
        stark_rel = abs(dense - analytic) / abs(analytic)
        eigen_dev = abs(oracle_exciton_eigen(system) - omega_ex)
        rows.append((i, n_k, stark_rel, eigen_dev))

    commutator_system = draw(2)
    report = check_commutator_identities(commutator_system, trials=opts.trials,
                                         seed=opts.seed)
    leakage = restriction_leakage(commutator_system)

    return ScanResult.from_rows(
        "instance", ("n_k", "stark_rel_dev", "eigen_dev"), rows,
        metadata={
            "commutator_max_dev": report.max_dev,
            "commutator_negative_control_dev": report.negative_control_dev,
            "commutator_trials": report.trials,
            "commutator_passed": report.passed,
            "pair_restriction_leakage_rel": leakage,
        },
    )


def run_scenario(name: str, params: ModelParams, opts: RunOptions, out_dir) -> list:
    """Run a named scenario and write its tables; returns the written paths."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r}; expected one of: {known}")
    echo = {
        "scenario": name,
        "version": __version__,
        "params": params.asdict(),
        "options": dataclasses.asdict(opts),
    }
    paths = []
    for table_name, result in SCENARIOS[name](params, opts):
        result.metadata = {**echo, "table": table_name, **result.metadata}
        paths.extend(result.write(out_dir, table_name))
    return paths
