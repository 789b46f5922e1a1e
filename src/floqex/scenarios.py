"""Named scenarios reproducing the library's headline observables as data files.

Each scenario builds one or more :class:`ScanResult` tables and writes
``<name>.csv`` / ``<name>.json`` / ``<name>.meta.json``. Scenario points are
pure-function evaluations, so scans may be mapped over a thread pool; results
are collected in axis order and every reduction is deterministic, making the
emitted files byte-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .cavity import interaction_kernel, u12_sweep
from .config import RunOptions
from .exceptions import ConfigError, NoPeak, NoResonance, ResonantDenominator
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
from .floquet import (
    HOPPING_MIN_L,
    effective_band,
    effective_hopping,
    stark_bs_ratio,
    tla_shifts,
)
from .lattice import BZGrid, ModelParams, band_gap, occupations
from .scan import ScanResult
from .screening import screened_detunings, solve_exciton_resonance
from .spectra import absorbance, peak_location

SCENARIOS = {}

# Largest scan axis accepted; refused before the axis is allocated.
MAX_AXIS_POINTS = 1_000_000

# Peak memory of each grid scenario in l x l float64 arrays: the tracemalloc
# peak at l = 128 over doping 0, 0.05 and 0.5, rounded up. The ratio falls
# with l (resonance holds no full-mesh array once its mesh fallback takes more
# than one block, l > 256), so these over-estimate large grids. A grid whose
# scenario cannot fit in physical memory is refused before anything is
# allocated.
PEAK_MESH_ARRAYS = {
    "resonance": 4,
    "fig1a": 13,
    "fig1b": 10,
    "fig2": 4,
    "fig3a": 6,
    "fig3b": 7,
    "fig3c": 8,
    "fig4": 9,
    "absorbance": 4,
}


def _scenario(name):
    def register(fn):
        SCENARIOS[name] = fn
        return fn

    return register


def _pmap(fn, items, workers: int):
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _grid(opts: RunOptions, scenario: str, default_l: int, min_l: int = 1) -> BZGrid:
    l = opts.grid if opts.grid is not None else default_l
    if l < min_l:
        raise ConfigError(f"grid must be at least {min_l} for this scenario, got {l}")
    need, have = PEAK_MESH_ARRAYS[scenario] * 8 * l * l, _physical_memory_bytes()
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


def _laser_reference(params: ModelParams, grid, occ) -> float:
    """Resonance the scan detunes from; falls back to the Gamma gap when u12 = 0."""
    if params.u12 > 0.0:
        return solve_exciton_resonance(params, grid, occ).omega_ex
    return float(band_gap(params, (0.0, 0.0)))


@_scenario("resonance")
def _run_resonance(params: ModelParams, opts: RunOptions):
    grid = _grid(opts, "resonance", 1024)
    occ = occupations(params, grid)
    rep = solve_exciton_resonance(params, grid, occ)
    result = ScanResult(
        axis_name="index",
        axis=np.array([0]),
        columns={
            "omega_ex": np.array([rep.omega_ex]),
            "continuum_edge": np.array([rep.continuum_edge]),
            "binding": np.array([rep.binding]),
            "delta_ex": np.array([rep.delta_ex]),
            "converged": np.array([int(rep.converged)]),
            "residual": np.array([rep.residual]),
        },
        metadata={"grid_l": grid.l},
    )
    return [("resonance", result)]


def _path_table(grid: BZGrid):
    path = grid.path_y_gamma_m()
    return path, grid.k[path // grid.l], grid.k[path % grid.l]


@_scenario("fig1a")
def _run_fig1a(params: ModelParams, opts: RunOptions):
    """Drive-induced band change per |g_l|^2 along Y -> Gamma -> M, screened vs free."""
    grid = _grid(opts, "fig1a", 256)
    detuning = opts.detuning if opts.detuning is not None else 0.03
    path, kx, ky = _path_table(grid)

    occ = occupations(params, grid)
    p_s = params.with_laser(_laser_reference(params, grid, occ) - detuning)
    band_s = effective_band(p_s, grid, occ)
    g2_s = p_s.g_l * p_s.g_l

    free = params.without_interactions()
    occ_f = occupations(free, grid)
    p_u = free.with_laser(float(band_gap(free, (0.0, 0.0))) - detuning)
    band_u = effective_band(p_u, grid, occ_f)
    g2_u = p_u.g_l * p_u.g_l

    result = ScanResult(
        axis_name="path_index",
        axis=np.arange(len(path)),
        columns={
            "kx": kx,
            "ky": ky,
            "change_screened": (band_s.stark[path] + band_s.bs[path]) / g2_s,
            "change_unscreened": (band_u.stark[path] + band_u.bs[path]) / g2_u,
        },
        metadata={"detuning": detuning, "grid_l": grid.l},
    )
    return [("fig1a", result)]


@_scenario("fig1b")
def _run_fig1b(params: ModelParams, opts: RunOptions):
    """Effective hopping vs drive strength for the interacting and free models."""
    grid = _grid(opts, "fig1b", 256, min_l=HOPPING_MIN_L)
    detuning = opts.detuning if opts.detuning is not None else 0.03
    gl_values = _axis(0.0, opts.gl_max, opts.gl_step)

    occ = occupations(params, grid)
    p_s = params.with_laser(_laser_reference(params, grid, occ) - detuning)
    free = params.without_interactions()
    occ_f = occupations(free, grid)
    p_u = free.with_laser(float(band_gap(free, (0.0, 0.0))) - detuning)

    def point(g_l: float):
        t_s = effective_hopping(effective_band(p_s.replace(g_l=g_l), grid, occ), grid)
        t_u = effective_hopping(effective_band(p_u.replace(g_l=g_l), grid, occ_f), grid)
        return t_s, t_u

    rows = _pmap(point, gl_values, opts.workers)
    result = ScanResult(
        axis_name="g_l",
        axis=gl_values,
        columns={
            "t_eff": np.array([r[0] for r in rows]),
            "t_eff_unscreened": np.array([r[1] for r in rows]),
        },
        metadata={"detuning": detuning, "grid_l": grid.l},
    )
    return [("fig1b", result)]


def _ratio_row(params, grid, occ, omega_ex, delta_ex):
    """Stark/BS magnitude ratios at Gamma/Y/M plus the two-level comparator."""
    p = params.with_laser(omega_ex - delta_ex)
    points = [grid.point(i) for i in (grid.gamma_index, grid.y_index, grid.m_index)]
    ratios = [stark_bs_ratio(p, grid, occ, k) for k in points]
    st, bs = tla_shifts(p, omega_ex)
    return (*ratios, abs(st / bs))


@_scenario("fig2")
def _run_fig2(params: ModelParams, opts: RunOptions):
    """Stark/BS ratio vs laser-exciton detuning, plus interaction-strength panels."""
    grid = _grid(opts, "fig2", 256)
    occ = occupations(params, grid)
    det_axis = _axis(_default(opts.det_min, 0.005), _default(opts.det_max, 0.5),
                     _default(opts.det_step, 0.005))
    omega_ex = solve_exciton_resonance(params, grid, occ).omega_ex

    rows = _pmap(lambda d: _ratio_row(params, grid, occ, omega_ex, d),
                 det_axis, opts.workers)
    main = ScanResult(
        axis_name="delta_ex",
        axis=det_axis,
        columns={
            "ratio_gamma": np.array([r[0] for r in rows]),
            "ratio_y": np.array([r[1] for r in rows]),
            "ratio_m": np.array([r[2] for r in rows]),
            "ratio_tla": np.array([r[3] for r in rows]),
        },
        metadata={"omega_ex": omega_ex, "grid_l": grid.l},
    )

    fixed_det = opts.detuning if opts.detuning is not None else 0.03

    def interaction_rows(key, values):
        def point(value):
            p = params.replace(**{key: float(value)})
            try:
                w = solve_exciton_resonance(p, grid, occ).omega_ex
                return (*_ratio_row(p, grid, occ, w, fixed_det), w, 1)
            except NoResonance:
                nan = float("nan")
                return (nan, nan, nan, nan, nan, 0)

        rows = _pmap(point, values, opts.workers)
        return ScanResult(
            axis_name=key,
            axis=values,
            columns={
                "ratio_gamma": np.array([r[0] for r in rows]),
                "ratio_y": np.array([r[1] for r in rows]),
                "ratio_m": np.array([r[2] for r in rows]),
                "ratio_tla": np.array([r[3] for r in rows]),
                "omega_ex": np.array([r[4] for r in rows]),
                "converged": np.array([r[5] for r in rows]),
            },
            metadata={"delta_ex": fixed_det, "grid_l": grid.l},
        )

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
    grid = _grid(opts, "fig3a", 256)
    detuning = opts.detuning if opts.detuning is not None else 0.05
    path, kx, ky = _path_table(grid)

    occ = occupations(params, grid)
    p_s = params.with_laser(_laser_reference(params, grid, occ) - detuning)
    delta_s = screened_detunings(p_s, grid, occ).delta

    free = params.without_interactions()
    occ_f = occupations(free, grid)
    p_u = free.with_laser(float(band_gap(free, (0.0, 0.0))) - detuning)
    delta_u = screened_detunings(p_u, grid, occ_f).delta

    result = ScanResult(
        axis_name="path_index",
        axis=np.arange(len(path)),
        columns={
            "kx": kx,
            "ky": ky,
            "inv_dsq_screened": 1.0 / delta_s[path] ** 2,
            "inv_dsq_unscreened": 1.0 / delta_u[path] ** 2,
        },
        metadata={"detuning": detuning, "grid_l": grid.l},
    )
    return [("fig3a", result)]


@_scenario("fig3b")
def _run_fig3b(params: ModelParams, opts: RunOptions):
    """Excitonic enhancement of the forward kernel vs detuning at Gamma/Y/M."""
    grid = _grid(opts, "fig3b", 256)
    det_axis = _axis(_default(opts.det_min, 0.05), _default(opts.det_max, 0.5),
                     _default(opts.det_step, 0.025))
    occ = occupations(params, grid)
    omega_ex = solve_exciton_resonance(params, grid, occ).omega_ex
    free = params.without_interactions()
    occ_f = occupations(free, grid)
    gamma_gap = float(band_gap(free, (0.0, 0.0)))
    indices = [grid.gamma_index, grid.y_index, grid.m_index]

    def point(detuning: float):
        p_s = params.with_laser(omega_ex - detuning)
        p_u = free.with_laser(gamma_gap - detuning)
        v_s = interaction_kernel(p_s, grid, occ).forward()
        v_u = interaction_kernel(p_u, grid, occ_f).forward()
        return [v_s[i] / v_u[i] for i in indices]

    rows = _pmap(point, det_axis, opts.workers)
    result = ScanResult(
        axis_name="detuning",
        axis=det_axis,
        columns={
            "ratio_gamma": np.array([r[0] for r in rows]),
            "ratio_y": np.array([r[1] for r in rows]),
            "ratio_m": np.array([r[2] for r in rows]),
        },
        metadata={"omega_ex": omega_ex, "grid_l": grid.l},
    )
    return [("fig3b", result)]


@_scenario("fig3c")
def _run_fig3c(params: ModelParams, opts: RunOptions):
    """Kernel strength and enhancement at Gamma vs the interband repulsion."""
    grid = _grid(opts, "fig3c", 256)
    detuning = opts.detuning if opts.detuning is not None else 0.05
    u12_values = _axis(opts.u12_min, opts.u12_max, opts.u12_step)
    result = u12_sweep(params, grid, detuning, u12_values)
    result.metadata["grid_l"] = grid.l
    return [("fig3c", result)]


@_scenario("fig4")
def _run_fig4(params: ModelParams, opts: RunOptions):
    """Screened detuning vs drive frequency at Gamma/Y/M for several gap dispersions."""
    grid = _grid(opts, "fig4", 256)
    omega_axis = _axis(_default(opts.omega_min, 2.3), _default(opts.omega_max, 2.88),
                       opts.omega_step)
    indices = [grid.gamma_index, grid.y_index, grid.m_index]

    axis_blocks = []
    columns = {name: [] for name in
               ("t21", "delta_gamma", "delta_y", "delta_m", "delta_tla", "converged")}
    for t21 in opts.t21_values:
        p_t = params.replace(t1=params.t2 - t21)
        occ = occupations(p_t, grid)
        try:
            omega_ex = solve_exciton_resonance(p_t, grid, occ).omega_ex
        except NoResonance:
            omega_ex = float("nan")

        def point(omega_l: float):
            p = p_t.with_laser(omega_l)
            try:
                delta = screened_detunings(p, grid, occ).delta
                return [delta[i] for i in indices] + [omega_ex - omega_l, 1]
            except ResonantDenominator:
                nan = float("nan")
                return [nan, nan, nan, omega_ex - omega_l, 0]

        rows = _pmap(point, omega_axis, opts.workers)
        axis_blocks.append(omega_axis)
        columns["t21"].extend([t21] * len(omega_axis))
        for j, name in enumerate(("delta_gamma", "delta_y", "delta_m", "delta_tla",
                                  "converged")):
            columns[name].extend(row[j] for row in rows)

    result = ScanResult(
        axis_name="omega_l",
        axis=np.concatenate(axis_blocks),
        columns={name: np.array(vals) for name, vals in columns.items()},
        metadata={"t21_values": list(opts.t21_values), "grid_l": grid.l},
    )
    return [("fig4", result)]


@_scenario("absorbance")
def _run_absorbance(params: ModelParams, opts: RunOptions):
    grid = _grid(opts, "absorbance", 256)
    omegas = _axis(_default(opts.omega_min, 2.4), _default(opts.omega_max, 5.0),
                   opts.omega_step)
    occ = occupations(params, grid)
    curve = absorbance(params, grid, occ, omegas, opts.gamma)
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
    """Dense-solve reference suite on random small systems."""
    rng = np.random.default_rng(opts.seed)
    rows = []
    for i in range(opts.instances):
        n_k = int(rng.integers(2, 5))
        system = random_system(rng, n_k, u11=params.u11, u12=params.u12)
        omega_ex = bound_state_root(system)
        margin = rng.uniform(0.1, 0.6)
        system = SmallSystem(
            eps1=system.eps1, eps2=system.eps2,
            params=system.params.with_laser(omega_ex - margin),
        )
        dense = oracle_stark(system)
        analytic = analytic_stark(system)
        stark_rel = abs(dense - analytic) / abs(analytic)
        eigen_dev = abs(oracle_exciton_eigen(system) - omega_ex)
        rows.append((i, n_k, stark_rel, eigen_dev))

    commutator_system = random_system(rng, 2, u11=params.u11, u12=params.u12)
    report = check_commutator_identities(commutator_system, trials=opts.trials,
                                         seed=opts.seed)
    leakage = restriction_leakage(commutator_system)

    result = ScanResult(
        axis_name="instance",
        axis=np.array([r[0] for r in rows]),
        columns={
            "n_k": np.array([r[1] for r in rows]),
            "stark_rel_dev": np.array([r[2] for r in rows]),
            "eigen_dev": np.array([r[3] for r in rows]),
        },
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
