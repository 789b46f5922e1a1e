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
import os

import numpy as np

from . import __version__
from .cavity import matched_pair, u12_sweep
from .config import RunOptions
from .exceptions import ConfigError, NoPeak, NoResonance, ResonantDenominator
from .floquet import (
    HOPPING_MIN_L,
    effective_band,
    effective_hopping,
    stark_bs_ratio,
    tla_shifts,
)
from .lattice import BZGrid, ModelParams
from .scan import ScanResult
from .screening import pair_band, screened_detunings, solve_exciton_resonance
from .spectra import absorbance, peak_location

SCENARIOS = {}

# Largest scan axis accepted; refused before the axis is allocated.
MAX_AXIS_POINTS = 1_000_000

_RATIO_COLUMNS = ("ratio_gamma", "ratio_y", "ratio_m", "ratio_tla")

# Couplings whose square a scenario's observable is divided by (fig1a, fig2) or
# scales as (fig3c's kernel column): where that square is zero or subnormal every
# value would be 0/0, noise or a vanishing kernel, so run_scenario refuses them.
# fig3b writes only kernel ratios, (Delta_free/Delta_int)^2, in which both cancel.
_DIVISOR_COUPLINGS = {"fig1a": ("g_l",), "fig2": ("g_l",), "fig3c": ("g_l", "g_c")}

# Peak memory of any grid scenario in l x l float64 arrays. Scans read only
# their points, so what remains is the k'-sum's mesh fallback, one block of at
# most MESH_BLOCK points (the whole mesh up to l = 256). The largest tracemalloc
# peak over doping 0, 0.05 and 0.5 is fig4's at doping 0.5: 3.9 arrays at
# l = 128 and 4.3 at l = 64. The ratio falls with l beyond 256, so this bound
# over-estimates large grids. A grid whose scenario cannot fit in physical
# memory is refused before anything is allocated.
PEAK_MESH_ARRAYS = 5


def _scenario(name):
    def register(fn):
        SCENARIOS[name] = fn
        return fn

    return register


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _grid(opts: RunOptions, scenario: str, default_l: int, min_l: int = 1) -> BZGrid:
    l = opts.grid if opts.grid is not None else default_l
    if l < min_l:
        raise ConfigError(f"grid must be at least {min_l} for this scenario, got {l}")
    need, have = PEAK_MESH_ARRAYS * 8 * l * l, _physical_memory_bytes()
    if need > have:
        raise ConfigError(f"grid {l} needs about {need / 2**30:.1f} GiB for {scenario}, "
                          f"more than the {have / 2**30:.1f} GiB of physical memory")
    return BZGrid.square(l)


def _default(value, fallback):
    return fallback if value is None else value


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    span = (hi - lo) / step
    if not span <= MAX_AXIS_POINTS - 1:
        raise ConfigError(
            f"axis [{lo}, {hi}] with step {step} has more than {MAX_AXIS_POINTS} points"
        )
    n = int(round(span))
    if n < 0:
        raise ConfigError(f"empty axis: [{lo}, {hi}] with step {step}")
    return lo + step * np.arange(n + 1)


def _symmetry_points(grid: BZGrid) -> tuple:
    """(kx, ky) of Gamma, Y and M."""
    return grid.point(np.array([grid.gamma_index, grid.y_index, grid.m_index]))


def _path_scan(params, opts, name: str, default_detuning: float, column: str,
               value) -> ScanResult:
    """``value(p, band, path)`` along Y -> Gamma -> M for the matched drive pair.

    The columns ``<column>_screened`` and ``<column>_unscreened`` hold it for
    the interacting drive and for its free twin.
    """
    grid = _grid(opts, name, 256)
    detuning = _default(opts.detuning, default_detuning)
    pair = matched_pair(params, pair_band(params, grid), exciton_required=False)
    p_s, p_u = pair.drives(detuning)
    kx, ky = path = grid.point(grid.path_y_gamma_m())
    return ScanResult(
        axis_name="path_index",
        axis=np.arange(len(kx)),
        columns={"kx": kx, "ky": ky,
                 f"{column}_screened": value(p_s, pair.band, path),
                 f"{column}_unscreened": value(p_u, pair.band, path)},
        metadata={"detuning": detuning, "grid_l": grid.l},
    )


@_scenario("resonance")
def _run_resonance(params: ModelParams, opts: RunOptions):
    grid = _grid(opts, "resonance", 1024)
    rep = solve_exciton_resonance(params, pair_band(params, grid))
    result = ScanResult.from_rows(
        "index", ("omega_ex", "continuum_edge", "binding", "delta_ex", "converged", "residual"),
        [(0, rep.omega_ex, rep.continuum_edge, rep.binding, rep.delta_ex,
          int(rep.converged), rep.residual)],
        metadata={"grid_l": grid.l},
    )
    return [("resonance", result)]


@_scenario("fig1a")
def _run_fig1a(params: ModelParams, opts: RunOptions):
    """Drive-induced band change per |g_l|^2 along Y -> Gamma -> M, screened vs free."""
    def change(p, band, path):
        dressed = effective_band(p, band, path)
        return (dressed.stark + dressed.bs) / (p.g_l * p.g_l)

    return [("fig1a", _path_scan(params, opts, "fig1a", 0.03, "change", change))]


@_scenario("fig1b")
def _run_fig1b(params: ModelParams, opts: RunOptions):
    """Effective hopping vs drive strength for the interacting and free models."""
    grid = _grid(opts, "fig1b", 256, min_l=HOPPING_MIN_L)
    detuning = _default(opts.detuning, 0.03)
    gl_values = _axis(0.0, opts.gl_max, opts.gl_step)
    pair = matched_pair(params, pair_band(params, grid), exciton_required=False)
    drives = pair.drives(detuning)
    rows = [(g_l, *(effective_hopping(p.replace(g_l=g_l), pair.band) for p in drives))
            for g_l in gl_values]
    result = ScanResult.from_rows("g_l", ("t_eff", "t_eff_unscreened"), rows,
                                  metadata={"detuning": detuning, "grid_l": grid.l})
    return [("fig1b", result)]


@_scenario("fig2")
def _run_fig2(params: ModelParams, opts: RunOptions):
    """Stark/BS ratio vs laser-exciton detuning, plus interaction-strength panels."""
    grid = _grid(opts, "fig2", 256)
    points = _symmetry_points(grid)
    band = pair_band(params, grid)
    det_axis = _axis(_default(opts.det_min, 0.005), _default(opts.det_max, 0.5),
                     _default(opts.det_step, 0.005))
    omega_ex = solve_exciton_resonance(params, band).omega_ex

    def ratios(p, omega_ex, delta_ex):
        """Stark/BS magnitude ratios at Gamma/Y/M plus the two-level comparator."""
        p = p.with_laser(omega_ex - delta_ex)
        st, bs = tla_shifts(p, omega_ex)
        return (*stark_bs_ratio(p, band, points), abs(st / bs))

    main = ScanResult.from_rows("delta_ex", _RATIO_COLUMNS,
                                [(d, *ratios(params, omega_ex, d)) for d in det_axis],
                                metadata={"omega_ex": omega_ex, "grid_l": grid.l})
    fixed_det = _default(opts.detuning, 0.03)

    def interaction_rows(key, values):
        rows = []
        for value in values:
            p = params.replace(**{key: float(value)})
            try:
                w = solve_exciton_resonance(p, band).omega_ex
            except NoResonance:
                rows.append((value, *[float("nan")] * 5, 0))
            else:
                rows.append((value, *ratios(p, w, fixed_det), w, 1))
        return ScanResult.from_rows(key, (*_RATIO_COLUMNS, "omega_ex", "converged"), rows,
                                    metadata={"delta_ex": fixed_det, "grid_l": grid.l})

    u11_axis = _axis(0.0, 3.2, 0.1)
    u12_axis = _axis(opts.u12_min, opts.u12_max, opts.u12_step)
    return [
        ("fig2", main),
        ("fig2_u11", interaction_rows("u11", u11_axis)),
        ("fig2_u12", interaction_rows("u12", u12_axis)),
    ]


@_scenario("fig3a")
def _run_fig3a(params: ModelParams, opts: RunOptions):
    """Forward-scattering kernel (prefactor removed) along Y -> Gamma -> M."""
    def inv_dsq(p, band, path):
        return 1.0 / screened_detunings(p, band, path).delta ** 2

    return [("fig3a", _path_scan(params, opts, "fig3a", 0.05, "inv_dsq", inv_dsq))]


@_scenario("fig3b")
def _run_fig3b(params: ModelParams, opts: RunOptions):
    """Excitonic enhancement of the forward kernel vs detuning at Gamma/Y/M."""
    grid = _grid(opts, "fig3b", 256)
    det_axis = _axis(_default(opts.det_min, 0.05), _default(opts.det_max, 0.5),
                     _default(opts.det_step, 0.025))
    pair = matched_pair(params, pair_band(params, grid))
    points = _symmetry_points(grid)
    result = ScanResult.from_rows("detuning", _RATIO_COLUMNS[:3],
                                  [(d, *pair.enhancement(d, points)) for d in det_axis],
                                  metadata={"omega_ex": pair.omega_ex, "grid_l": grid.l})
    return [("fig3b", result)]


@_scenario("fig3c")
def _run_fig3c(params: ModelParams, opts: RunOptions):
    """Kernel strength and enhancement at Gamma vs the interband repulsion."""
    grid = _grid(opts, "fig3c", 256)
    detuning = _default(opts.detuning, 0.05)
    u12_values = _axis(opts.u12_min, opts.u12_max, opts.u12_step)
    result = u12_sweep(params, grid, detuning, u12_values)
    result.metadata["grid_l"] = grid.l
    return [("fig3c", result)]


@_scenario("fig4")
def _run_fig4(params: ModelParams, opts: RunOptions):
    """Screened detuning vs drive frequency at Gamma/Y/M for several gap dispersions.

    A row is ``converged = 0`` where the screened detuning sits on a band
    resonance (its deltas are NaN) or where the dispersion has no exciton line
    (its ``delta_tla`` is NaN).
    """
    grid = _grid(opts, "fig4", 256)
    omega_axis = _axis(_default(opts.omega_min, 2.3), _default(opts.omega_max, 2.88),
                       opts.omega_step)
    points = _symmetry_points(grid)
    nan = float("nan")
    rows = []
    for t21 in opts.t21_values:
        p_t = params.replace(t1=params.t2 - t21)
        band = pair_band(p_t, grid)
        try:
            omega_ex, solved = solve_exciton_resonance(p_t, band).omega_ex, 1
        except NoResonance:
            omega_ex, solved = nan, 0
        for omega_l in omega_axis:
            try:
                delta = screened_detunings(p_t.with_laser(omega_l), band, points).delta
            except ResonantDenominator:
                rows.append((omega_l, t21, nan, nan, nan, omega_ex - omega_l, 0))
            else:
                rows.append((omega_l, t21, *delta, omega_ex - omega_l, solved))
    result = ScanResult.from_rows(
        "omega_l", ("t21", "delta_gamma", "delta_y", "delta_m", "delta_tla", "converged"), rows,
        metadata={"t21_values": list(opts.t21_values), "grid_l": grid.l},
    )
    return [("fig4", result)]


@_scenario("absorbance")
def _run_absorbance(params: ModelParams, opts: RunOptions):
    grid = _grid(opts, "absorbance", 256)
    omegas = _axis(_default(opts.omega_min, 2.4), _default(opts.omega_max, 5.0),
                   opts.omega_step)
    curve = absorbance(params, pair_band(params, grid), omegas, opts.gamma)
    try:
        peak = peak_location(curve)
    except NoPeak:
        peak = float("nan")
    result = ScanResult(
        axis_name="omega",
        axis=omegas,
        columns={"alpha": curve.alpha, "alpha_raw": curve.raw()},
        metadata={"gamma": opts.gamma, "peak_omega": peak, "grid_l": grid.l},
    )
    return [("absorbance", result)]


@_scenario("oracle")
def _run_oracle(params: ModelParams, opts: RunOptions):
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

    result = ScanResult.from_rows(
        "instance", ("n_k", "stark_rel_dev", "eigen_dev"), rows,
        metadata={
            "commutator_max_dev": report.max_dev,
            "commutator_negative_control_dev": report.negative_control_dev,
            "commutator_trials": report.trials,
            "commutator_passed": report.passed,
            "pair_restriction_leakage_rel": leakage,
        },
    )
    return [("oracle", result)]


def run_scenario(name: str, params: ModelParams, opts: RunOptions, out_dir) -> list:
    """Run a named scenario and write its tables; returns the written paths."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r}; expected one of: {known}")
    for key in _DIVISOR_COUPLINGS.get(name, ()):
        value = getattr(params, key)
        if value * value < np.finfo(float).tiny:
            raise ConfigError(f"{name} divides by {key}**2, so |{key}| must exceed "
                              f"1.5e-154 (below that the square underflows)")
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
