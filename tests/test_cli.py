import dataclasses
import functools
import gc
import importlib
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import floqex
from floqex import (
    BZGrid,
    ModelParams,
    Occupation,
    pair_band,
    scenarios,
    solve_exciton_resonance,
)
from floqex.cli import main
from floqex.config import OPTION_KEYS, PARAM_KEYS, RunOptions, parse_config
from floqex.exceptions import (
    ConfigError,
    FloqexError,
    NoPeak,
    NoResonance,
    ResonantCavity,
    ResonantDenominator,
)
from floqex.scan import ScanResult, parse_csv, solved
from floqex.scenarios import run_scenario

# Every scenario that builds a momentum grid.
GRID_SCENARIOS = sorted(set(scenarios.SCENARIOS) - {"oracle"})


def test_empty_config_gives_reference_parameters():
    params, opts = parse_config("")
    assert params == ModelParams()
    assert opts == RunOptions()


def test_single_override():
    params, _ = parse_config("u12 = 0.5\n")
    assert params.u12 == 0.5
    assert params.u11 == 1.6


def test_comments_and_blank_lines():
    params, opts = parse_config("# a comment\n\nt1 = 0.07  # inline\ngrid = 32\n")
    assert params.t1 == 0.07
    assert opts.grid == 32


def test_unparsable_number_names_key_and_line():
    with pytest.raises(ConfigError, match="line 2.*u12.*banana"):
        parse_config("u11 = 1.0\nu12 = banana\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config("frobnicate = 1\n")


def test_out_of_range_values_rejected():
    with pytest.raises(ConfigError, match="doping"):
        parse_config("doping = 1.5\n")
    with pytest.raises(ConfigError, match="grid"):
        parse_config("grid = 13\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = -1\n")
    with pytest.raises(ConfigError, match=r"\(--set 1\): u12_min must be non-negative"):
        parse_config("", ["u12_min = -1"])


_VALUES = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.integers(-10**40, 10**40).map(str),
    st.lists(st.one_of(st.floats().map(repr), st.text(alphabet=" -.0123456789e"))).map(", ".join),
)
_LINES = st.one_of(
    st.builds("{} = {}".format,
              st.one_of(st.sampled_from(PARAM_KEYS + OPTION_KEYS), st.text(min_size=1)), _VALUES),
    st.text(),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=6), overrides=st.lists(_LINES, max_size=3))
def test_parse_config_raises_only_config_error(lines, overrides):
    try:
        parse_config("\n".join(lines), overrides=overrides)
    except ConfigError:
        pass


@pytest.mark.parametrize("assignment", ["detuning = nan", "gamma = inf", "u12 = -inf",
                                        "t21_values = -0.1, nan"])
def test_non_finite_values_rejected(assignment):
    key = assignment.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"{key}.*finite"):
        parse_config("", overrides=[assignment])


def test_non_finite_override_exits_2_without_output(tmp_path, capsys):
    for assignment in ("detuning=nan", "gamma=inf"):
        out = tmp_path / assignment.split("=")[0]
        assert main(["run", "absorbance", "--grid", "8", "--set", assignment,
                     "--out", str(out)]) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not out.exists()


def test_negative_seed_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["run", "oracle", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--grid", "0", "grid must be an even integer"),
    ("--seed", "-1", "seed must be non-negative"),
    ("--workers", "0", "workers must be >= 1"),
])
def test_flag_errors_name_the_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert main(["run", "fig1a", "--set", "u11=1.5", "--set", "u12=0.8", flag, value,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"({flag})" in err and message in err
    assert "--set" not in err
    assert not out.exists()
    # a --set assignment keeps its position
    assert main(["run", "fig1a", "--set", "u11=1.5", "--set", f"{flag[2:]}={value}",
                 "--out", str(out)]) == 2
    assert "(--set 2)" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["1e160", "1e300", "1e-320"])
def test_non_finite_absorbance_exits_3_without_output(tmp_path, capsys, gamma):
    # the broadening overflows the resolvent: refused with one line, no NaN table
    out = tmp_path / "absorbance"
    assert main(["run", "absorbance", "--grid", "16", "--set", f"gamma={gamma}",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: spectrum is not finite") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("scenario, sets, column", [
    ("fig1a", ["g_l=1.3e154"], "change_screened"),
    ("fig2", ["g_l=1e153"], "ratio_tla"),
    ("fig3c", ["g_l=1e150", "g_c=1e150"], "v_forward"),
    ("fig1b", ["gl_max=1e153", "gl_step=1e153"], "t_eff_unscreened"),
    ("fig1b", ["gl_max=1e154", "gl_step=1e154"], "t_eff"),
])
def test_infinite_table_exits_3_without_output(tmp_path, scenario, sets, column):
    # couplings inside the g**2 bound still overflow a shift: the table is refused
    # before any file is written, after numpy's own overflow warning; fig1b's last
    # drive gives an infinite curvature at 1e153 and inf - inf = NaN at 1e154, which
    # a table without a converged column refuses as well
    out = tmp_path / scenario
    env = {**os.environ, "PYTHONPATH": str(Path(floqex.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "floqex.cli", "run", scenario, "--grid", "16",
                          *(a for s in sets for a in ("--set", s)), "--out", str(out)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 3
    last = run.stderr.splitlines()[-1]
    assert last.startswith("solver error") and column in last
    assert not out.exists()
    # the registered runner refuses it, also when called directly
    params, opts = parse_config("grid = 16\n", sets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(FloqexError, match=f"{scenario}: column {column}"):
            scenarios.SCENARIOS[scenario](params, opts)


@pytest.mark.parametrize("eps21, code", [("1e7", 0), ("1e16", 3), ("1e17", 3), ("1e300", 3)])
def test_resonance_whose_bracket_collapses_exits_3(tmp_path, capsys, eps21, code):
    # from |edge| of about 2^24 eV the bracket top edge - 1e-9 rounds onto the edge:
    # refused before any closure call, so no warning and no line written at the edge
    out = tmp_path / "resonance"
    assert main(["run", "resonance", "--grid", "16", "--set", f"eps21={eps21}",
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("solver error") and "2^24" in err and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and (out / "resonance.csv").exists()


def test_fig2_main_table_on_a_band_resonance_exits_3(tmp_path, capsys):
    # det_min = omega_ex - edge drives the first point onto the continuum edge, where a
    # grid point sits: the NaN row of the one array call is refused
    params = ModelParams()
    band = pair_band(params, BZGrid.square(16))
    det_min = solve_exciton_resonance(params, band).omega_ex - band.edge
    out = tmp_path / "fig2"
    assert main(["run", "fig2", "--grid", "16", "--set", f"det_min={det_min!r}",
                 "--set", "det_max=0.1", "--set", "det_step=0.05", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("scenario, sets", [
    ("fig3a", ["detuning=1e300"]),
    ("fig2", ["det_min=1e299", "det_max=1e300", "det_step=1e299"]),
])
def test_far_detuning_exits_0_without_a_warning(tmp_path, scenario, sets):
    # a drive 1e300 below the band overflows A^2 - B^2 in the row sums (and fig3a's
    # Delta^2): R and 1/Delta^2, below 1e-154 in magnitude, come out 0 quietly
    env = {**os.environ, "PYTHONPATH": str(Path(floqex.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "floqex.cli", "run", scenario, "--grid", "16",
                          *(a for s in sets for a in ("--set", s)), "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == ""


def test_fig1b_grid_below_hopping_stencil_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "small"
    assert main(["run", "fig1b", "--grid", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "16" in err
    assert not out.exists()


@pytest.mark.parametrize("scenario, key", [("fig1a", "g_l"), ("fig2", "g_l"),
                                           ("fig3c", "g_l"), ("fig3c", "g_c")])
@pytest.mark.parametrize("zero", ["0.0", "-0.0", "1e-160", "-1e-170", "1e200"])
def test_zero_coupling_exits_2_without_output(tmp_path, capsys, scenario, key, zero):
    # the scenario's observable divides by the coupling squared: 0/0 in every
    # row at zero, an underflowed square below sqrt(tiny) = 1.49e-154 and an
    # overflowed one above sqrt(max) = 1.34e154
    out = tmp_path / scenario
    assert main(["run", scenario, "--grid", "16", "--set", f"{key}={zero}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["g_l", "g_c"])
@pytest.mark.parametrize("zero", ["0.0", "-0.0", "1e-160", "-1e-170"])
def test_fig3b_zero_coupling_gives_the_default_table(tmp_path, key, zero):
    # fig3b writes only kernel ratios, (Delta_free/Delta_int)^2, in which g_l and g_c cancel
    tables = []
    for sets in ([], ["--set", f"{key}={zero}"]):
        out = tmp_path / str(len(sets))
        assert main(["run", "fig3b", "--grid", "16", *sets, "--out", str(out)]) == 0
        tables.append((out / "fig3b.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("scenario, key", [("fig1a", "g_l"), ("fig2", "g_l"),
                                           ("fig3b", "g_c"), ("fig3c", "g_c")])
def test_tiny_coupling_above_the_bound_gives_finite_tables(tmp_path, scenario, key):
    assert main(["run", scenario, "--grid", "16", "--set", f"{key}=2e-154",
                 "--out", str(tmp_path)]) == 0
    header, data = parse_csv((tmp_path / f"{scenario}.csv").read_text())
    # fig3c's u12 = 0 baseline row has no exciton line by design
    observables = [i for i, name in enumerate(header) if name != "omega_ex"]
    assert np.isfinite(data[:, observables]).all()


@pytest.mark.parametrize("scenario, columns", [("fig3b", ("ratio_gamma", "ratio_y", "ratio_m")),
                                               ("fig3c", ("enhancement",))])
def test_enhancement_does_not_depend_on_the_cavity_coupling(tmp_path, scenario, columns):
    # the kernels' ratio is (Delta_free/Delta_int)^2, in which g_c cancels, also
    # just above the coupling bound, where the kernel's own scale * v * v is subnormal
    tables = []
    for g_c in ("0.01", "2e-154"):
        out = tmp_path / g_c
        assert main(["run", scenario, "--grid", "16", "--set", f"g_c={g_c}",
                     "--out", str(out)]) == 0
        tables.append(parse_csv((out / f"{scenario}.csv").read_text()))
    (header, default), (_, tiny) = tables
    for column in columns:
        i = header.index(column)
        assert np.all(np.abs(tiny[:, i] - default[:, i]) <= 1e-15 * np.abs(default[:, i])), column


def test_fig1b_accepts_zero_drive(tmp_path):
    # fig1b scans g_l from 0 by design; the configured g_l is not used
    assert main(["run", "fig1b", "--grid", "16", "--set", "g_l=0", "--set", "gl_step=0.01",
                 "--out", str(tmp_path)]) == 0


def test_grid_beyond_physical_memory_rejected(monkeypatch, tmp_path, capsys):
    # each scenario's ceiling is checked against a pretend memory size before the
    # grid is built; the accepted grids below allocate only O(l)
    with monkeypatch.context() as m:
        m.setattr(scenarios, "_physical_memory_bytes", lambda: 2**30)
        assert scenarios._grid(RunOptions(grid=4096), "resonance", 1024).l == 4096
        with pytest.raises(ConfigError, match="grid 8192.*resonance.*physical memory"):
            scenarios._grid(RunOptions(grid=8192), "resonance", 1024)
        assert scenarios._grid(RunOptions(grid=4096), "fig1a", 256).l == 4096
        with pytest.raises(ConfigError, match="grid 8192.*fig1a.*physical memory"):
            scenarios._grid(RunOptions(grid=8192), "fig1a", 256)
        m.setattr(scenarios, "_physical_memory_bytes", lambda: 3 * 2**30)
        out = tmp_path / "fig1a"
        assert main(["run", "fig1a", "--grid", "12000", "--out", str(out)]) == 2
        assert "grid 12000" in capsys.readouterr().err and not out.exists()
    assert parse_config("grid = 100000\n")[1].grid == 100000
    for name in GRID_SCENARIOS:
        with pytest.raises(ConfigError, match="grid 100000.*physical memory"):
            run_scenario(name, ModelParams(), RunOptions(grid=100000), tmp_path / name)
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name", GRID_SCENARIOS)
def test_declared_grid_peak_covers_the_scenario(name):
    """The tracemalloc peak of a scenario at small l stays within its declared arrays."""
    l = 64
    coarse = ["gl_step = 0.01", "det_step = 0.1", "u12_step = 0.3", "omega_step = 0.05",
              "t21_values = -0.2, -0.05", f"grid = {l}"]
    for doping in (0.05, 0.5):
        params, opts = parse_config("", coarse + [f"doping = {doping}"])
        tracemalloc.start()
        try:
            scenarios.SCENARIOS[name](params, opts)
        except NoResonance:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= scenarios.PEAK_BAND_ARRAYS * 8 * l * l, (doping, peak)


def test_declared_grid_peak_covers_a_narrow_doped_absorbance():
    """Near half filling and below a mesh step, the rows that absorbance sums directly
    stay within the declared arrays too: at l = 128 one block of MESH_BLOCK points
    would be the whole mesh."""
    l = 128
    params, opts = parse_config("", [f"grid = {l}", "doping = 0.49", "gamma = 0.0001"])
    tracemalloc.start()
    try:
        scenarios.SCENARIOS["absorbance"](params, opts)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= scenarios.PEAK_BAND_ARRAYS * 8 * l * l, peak / (8 * l * l)


@pytest.mark.parametrize("name", GRID_SCENARIOS)
def test_grid_scenario_builds_no_mesh_field(name, monkeypatch):
    """Scenarios read the points they write: no l x l grid or filling array is built.

    The longest request for momenta a scenario makes is the Y -> Gamma -> M path
    of l + 1 points, so asking ``BZGrid.point`` for more fails.
    """
    point = BZGrid.point

    def few_points(self, i):
        if np.size(i) > self.l + 1:
            raise AssertionError(f"{name} asked for {np.size(i)} momenta on an l = {self.l} grid")
        return point(self, i)

    def forbidden(self):
        raise AssertionError(f"{name} built the mesh field n_k")

    monkeypatch.setattr(BZGrid, "point", few_points)
    monkeypatch.setattr(Occupation, "n_k", property(forbidden))
    coarse = ["gl_step = 0.01", "det_step = 0.1", "u12_step = 0.3", "omega_step = 0.05",
              "t21_values = -0.2, -0.05", "grid = 32"]
    for doping in (0.0, 0.05):
        params, opts = parse_config("", coarse + [f"doping = {doping}"])
        assert scenarios.SCENARIOS[name](params, opts)


@pytest.mark.parametrize("doped", [False, True])
@pytest.mark.parametrize("name", ["fig2", "fig3c", "fig4"])
@settings(max_examples=12, deadline=None)
@given(l=st.sampled_from((2, 4, 8, 16, 32)), eps21=st.floats(2.5, 4.5),
       u11=st.floats(0.0, 3.0), u12=st.floats(0.0, 1.5), t1=st.floats(-0.3, 0.3),
       t2=st.floats(-0.3, 0.3), doping=st.floats(0.001, 0.95))
def test_nan_only_where_not_converged(name, doped, l, eps21, u11, u12, t1, t2, doping):
    """Every NaN in a table with a ``converged`` column sits in a row marked 0.

    The one exception is fig3c's u12 = 0 baseline, whose omega_ex is NaN by
    design: the free kernel needs no exciton.
    """
    params = ModelParams(eps21=eps21, u11=u11, u12=u12, t1=t1, t2=t2,
                         doping=doping if doped else 0.0)
    try:
        tables = scenarios.SCENARIOS[name](params, RunOptions(grid=l))
    except FloqexError:
        return
    for table, result in tables:
        if "converged" not in result.columns:
            continue
        solved = result.columns["converged"] == 1
        for column, values in result.columns.items():
            bad = solved & ~np.isfinite(values)
            if table == "fig3c" and column == "omega_ex":
                bad &= result.axis != 0.0
            assert not bad.any(), (table, column, result.axis[bad])


def test_axis_point_ceiling(tmp_path, capsys, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(scenarios, "MAX_AXIS_POINTS", 11)
        assert len(scenarios._axis(0.0, 1.0, 0.1)) == 11
        with pytest.raises(ConfigError, match="more than 11 points"):
            scenarios._axis(0.0, 1.0, 0.09)
    with pytest.raises(ConfigError, match="more than"):
        scenarios._axis(2.4, 5.0, 1e-300)
    with pytest.raises(ConfigError, match="more than"):
        scenarios._axis(-1e308, 1e308, 1.0)
    assert main(["run", "absorbance", "--grid", "8", "--set", "omega_step=1e-300",
                 "--out", str(tmp_path)]) == 2
    assert "more than" in capsys.readouterr().err
    # an axis never runs past its maximum
    assert scenarios._axis(0.05, 0.5, 0.3).tolist() == [0.05, 0.35]
    assert len(scenarios._axis(2.3, 2.88, 0.1)) == 6
    assert scenarios._axis(2.3, 2.88, 0.1)[-1] <= 2.88
    assert main(["run", "fig3b", "--grid", "16", "--set", "det_step=0.3",
                 "--out", str(tmp_path)]) == 0
    assert parse_csv((tmp_path / "fig3b.csv").read_text())[1][:, 0].tolist() == [0.05, 0.35]
    # the default axes keep their points, spans just below an integer included
    def option(name, key):
        return scenarios.SCENARIOS[name].defaults.get(key, getattr(RunOptions(), key))

    axes = [((0.0, 3.2, 0.1), 33),
            ((0.0, option("fig1b", "gl_max"), option("fig1b", "gl_step")), 61)]
    for name, prefix, n in [("fig2", "det", 100), ("fig3b", "det", 19), ("fig3c", "u12", 23),
                            ("fig4", "omega", 291), ("absorbance", "omega", 1301)]:
        axes.append((tuple(option(name, f"{prefix}_{end}") for end in ("min", "max", "step")), n))
    for (lo, hi, step), n in axes:
        axis = scenarios._axis(lo, hi, step)
        assert len(axis) == n and axis[-1] <= hi + 1e-12, (lo, hi, step)


def test_declared_defaults_fill_only_unset_options():
    # a key that is no option, or one whose RunOptions default is not None, would never apply
    unset = {f.name for f in dataclasses.fields(RunOptions) if f.default is None}
    for name, run in scenarios.SCENARIOS.items():
        assert set(run.defaults) <= unset, name


def test_default_option_is_echoed_as_given_and_recorded_as_used(tmp_path):
    assert main(["run", "fig1a", "--grid", "16", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fig1a.meta.json").read_text()
    meta = json.loads(text)
    assert meta["options"]["detuning"] is None and '"detuning": null' in text
    assert meta["detuning"] == 0.03 and '"detuning": 0.03' in text


@pytest.mark.parametrize("name", GRID_SCENARIOS)
def test_every_table_records_its_grid(name):
    coarse = ["gl_step = 0.01", "det_step = 0.1", "u12_step = 0.3", "omega_step = 0.05",
              "t21_values = -0.2, -0.05"]
    for grid, l in (([], 1024 if name == "resonance" else 256), (["grid = 16"], 16)):
        params, opts = parse_config("", coarse + grid)
        for table, result in scenarios.SCENARIOS[name](params, opts):
            assert result.metadata["grid_l"] == l, (table, l)


def test_overrides_win_over_file():
    params, opts = parse_config("u12 = 0.5\nseed = 1\n",
                                overrides=["u12 = 0.9", "seed = 3"])
    assert params.u12 == 0.9
    assert opts.seed == 3


def test_t21_list_option():
    _, opts = parse_config("t21_values = -0.2, -0.05\n")
    assert opts.t21_values == (-0.2, -0.05)


# ---------------------------------------------------------------------------
# tabular output
# ---------------------------------------------------------------------------


def test_float_formatting_round_trips():
    values = np.array([0.1, 1.0 / 3.0, 2.9000000000000004, 1e-300, 6.23e17, -0.0])
    text = ScanResult("x", values, {"n": np.full(values.size, 7)}).to_csv()
    header, data = parse_csv(text)
    assert header == ["x", "n"]
    assert np.array_equal(data[:, 0], values)
    assert np.array_equal(np.signbit(data[:, 0]), np.signbit(values))
    lines = text.splitlines()
    assert lines[1] == "0.1,7" and lines[-1] == "-0.0,7"


def test_csv_round_trip():
    rng = np.random.default_rng(0)
    axis = rng.uniform(-10, 10, size=17)
    col = rng.uniform(-1e6, 1e6, size=17)
    result = ScanResult("x", axis, {"y": col})
    header, data = parse_csv(result.to_csv())
    assert header == ["x", "y"]
    assert np.array_equal(data[:, 0], axis)
    assert np.array_equal(data[:, 1], col)


def reference_csv(result):
    """The CSV as one ``repr`` per value of its Python scalar, row by row."""
    cols = [result.axis, *result.columns.values()]
    lines = [",".join(result.column_names())]
    for i in range(len(result.axis)):
        lines.append(",".join(repr(python_scalar(col[i])) for col in cols))
    return "\n".join(lines) + "\n"


def reference_json(result):
    """``json.dumps`` at indent 1 of the table, every non-finite float as null."""
    def values(col):
        return [None if isinstance(x, float) and not math.isfinite(x) else x
                for x in map(python_scalar, col)]

    payload = {"axis_name": result.axis_name, "axis": values(result.axis),
               "columns": {name: values(col) for name, col in result.columns.items()}}
    return json.dumps(payload, indent=1, allow_nan=False)


def python_scalar(x):
    return int(x) if isinstance(x, (bool, np.bool_, int, np.integer)) else float(x)


_SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                   2.2250738585072014e-308, 1e-310, 1e308, -1e308, 0.1)


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 12))
    floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
    kinds = {
        "float": lambda: np.array(draw(st.lists(floats, min_size=n, max_size=n)), float),
        "int": lambda: np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                              min_size=n, max_size=n)), np.int64),
        "bool": lambda: np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool),
    }
    axis = kinds[draw(st.sampled_from(("float", "int")))]()
    names = draw(st.lists(st.text(max_size=4), max_size=4, unique=True))
    columns = {name: kinds[draw(st.sampled_from(sorted(kinds)))]() for name in names}
    return ScanResult(draw(st.text(max_size=4)), axis, columns)


@settings(max_examples=300, deadline=None)
@given(result=_tables())
@example(result=ScanResult("x", np.array([]), {}))
@example(result=ScanResult("x", np.array([]), {"y": np.array([], bool)}))
@example(result=ScanResult("x", np.arange(2), {}))
def test_writer_matches_the_reference_formulas(result):
    assert result.to_csv() == reference_csv(result)
    assert result.to_json() == reference_json(result)


def test_write_formats_each_value_once(tmp_path, monkeypatch):
    result = ScanResult("x", np.arange(3.0), {"y": np.array([1.0, np.nan, 3.0]),
                                               "ok": np.array([True, False, True])})
    calls = []
    formatted = ScanResult._formatted
    monkeypatch.setattr(ScanResult, "_formatted",
                        lambda self: calls.append(1) or formatted(self))
    result.write(tmp_path, "demo")
    assert calls == [1]
    assert (tmp_path / "demo.csv").read_text() == reference_csv(result)
    assert (tmp_path / "demo.json").read_text() == reference_json(result)


def test_mismatched_columns_rejected():
    with pytest.raises(ValueError):
        ScanResult("x", np.arange(3), {"y": np.arange(4)})


def test_write_emits_three_files(tmp_path):
    result = ScanResult("x", np.arange(3), {"y": np.arange(3.0)},
                        metadata={"note": "test"})
    paths = result.write(tmp_path, "demo")
    names = {p.name for p in paths}
    assert names == {"demo.csv", "demo.json", "demo.meta.json"}
    payload = json.loads((tmp_path / "demo.json").read_text())
    assert payload["columns"]["y"] == [0.0, 1.0, 2.0]


def _refuse_constant(name):
    raise ValueError(f"invalid JSON constant {name}")


def test_json_writes_non_finite_values_as_null(tmp_path):
    result = ScanResult("x", np.arange(3), {"y": np.array([1.0, np.nan, np.inf])},
                        metadata={"peak": float("nan"), "axis": (0.5, float("-inf"))})
    result.write(tmp_path, "demo")
    payload = json.loads((tmp_path / "demo.json").read_text(), parse_constant=_refuse_constant)
    assert payload["columns"]["y"] == [1.0, None, None]
    meta = json.loads((tmp_path / "demo.meta.json").read_text(),
                      parse_constant=_refuse_constant)
    assert meta["peak"] is None and meta["axis"] == [0.5, None]
    # the CSV keeps the values
    assert (tmp_path / "demo.csv").read_text().splitlines()[2:] == ["1,nan", "2,inf"]


def test_fig3c_json_is_valid_where_the_baseline_row_has_no_exciton(tmp_path):
    assert main(["run", "fig3c", "--grid", "32", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fig3c.json").read_text(), parse_constant=_refuse_constant)
    assert payload["columns"]["omega_ex"][0] is None
    header, data = parse_csv((tmp_path / "fig3c.csv").read_text())
    assert np.isnan(data[0, header.index("omega_ex")])


# ---------------------------------------------------------------------------
# scenarios through the public entry points
# ---------------------------------------------------------------------------


def test_resonance_scenario_writes_expected_value(tmp_path):
    params, opts = parse_config("grid = 64\n")
    run_scenario("resonance", params, opts, tmp_path)
    header, data = parse_csv((tmp_path / "resonance.csv").read_text())
    omega_ex = data[0, header.index("omega_ex")]
    assert omega_ex == pytest.approx(2.71, abs=0.02)
    meta = json.loads((tmp_path / "resonance.meta.json").read_text())
    assert meta["params"]["u11"] == 1.6
    assert meta["options"]["grid"] == 64
    assert meta["scenario"] == "resonance"


def test_unknown_scenario_rejected(tmp_path):
    params, opts = parse_config("")
    with pytest.raises(ConfigError):
        run_scenario("nope", params, opts, tmp_path)


def test_fig1b_free_variant_crosses_at_known_drive(tmp_path):
    rc = main(["run", "fig1b", "--out", str(tmp_path), "--grid", "64",
               "--set", "u11 = 0", "--set", "u12 = 0"])
    assert rc == 0
    header, data = parse_csv((tmp_path / "fig1b.csv").read_text())
    g = data[:, header.index("g_l")]
    t = data[:, header.index("t_eff")]
    sign_flips = np.where(np.diff(np.sign(t)) != 0)[0]
    assert len(sign_flips) == 1
    i = sign_flips[0]
    crossing = g[i] - t[i] * (g[i + 1] - g[i]) / (t[i + 1] - t[i])
    assert crossing == pytest.approx(0.015, abs=0.001)


def test_fig1a_band_change_is_broadened(tmp_path):
    rc = main(["run", "fig1a", "--out", str(tmp_path), "--grid", "64"])
    assert rc == 0
    header, data = parse_csv((tmp_path / "fig1a.csv").read_text())
    screened = data[:, header.index("change_screened")]
    free = data[:, header.index("change_unscreened")]
    # endpoint rows are Y and M: far from Gamma the screened change dominates
    assert abs(screened[0]) > abs(free[0])
    assert abs(screened[-1]) > abs(free[-1])
    # largest response at Gamma for the free model
    assert int(np.argmax(np.abs(free))) == 32


def test_fig3a_screened_kernel_dominates_everywhere(tmp_path):
    rc = main(["run", "fig3a", "--out", str(tmp_path), "--grid", "64"])
    assert rc == 0
    header, data = parse_csv((tmp_path / "fig3a.csv").read_text())
    screened = data[:, header.index("inv_dsq_screened")]
    free = data[:, header.index("inv_dsq_unscreened")]
    assert np.all(screened > free)


def test_fig4_marks_rows_and_blocks(tmp_path):
    rc = main(["run", "fig4", "--out", str(tmp_path), "--grid", "32",
               "--set", "omega_min = 2.5", "--set", "omega_max = 2.6",
               "--set", "t21_values = -0.2, -0.1"])
    assert rc == 0
    header, data = parse_csv((tmp_path / "fig4.csv").read_text())
    t21 = data[:, header.index("t21")]
    assert set(np.unique(t21)) == {-0.2, -0.1}
    assert np.all(data[:, header.index("converged")] == 1)

    # a drive axis into the band continuum: a band-resonance row keeps its t21 and
    # delta_tla = omega_ex - omega_l, with NaN deltas; a t21 = 0.3 row (no exciton
    # line) keeps its deltas, with NaN delta_tla
    band_axis = ["--grid", "64", "--set", "omega_max=3.4", "--set", "omega_step=0.01"]
    doped = ["--set", "doping=0.05", "--set", "t21_values=-0.2,0.3,-0.05"]
    for doping, sets, resonant in (
            (0.0, band_axis, {(2.9, -0.2), (3.3, -0.2), (3.3, -0.1)}),
            (0.05, band_axis + doped, {(2.9, -0.2), (3.3, -0.2), (2.5, 0.3), (3.1, 0.3)})):
        out = tmp_path / f"band-{doping}"
        assert main(["run", "fig4", "--out", str(out), *sets]) == 0
        header, data = parse_csv((out / "fig4.csv").read_text())
        omega_l, t21, *deltas, delta_tla, converged = data.T
        deltas = np.array(deltas)
        on_band = np.isnan(deltas).all(axis=0)
        assert np.array_equal(np.isnan(deltas).any(axis=0), on_band)
        assert {(round(w, 9), t) for w, t in zip(omega_l[on_band], t21[on_band])} == resonant
        for t in np.unique(t21):
            rows = t21 == t
            base = ModelParams(doping=doping)
            p_t = base.replace(t1=base.t2 - t)
            band = pair_band(p_t, BZGrid.square(64))
            if t == 0.3:
                with pytest.raises(NoResonance):
                    solve_exciton_resonance(p_t, band)
                assert np.isnan(delta_tla[rows]).all() and np.all(converged[rows] == 0)
                assert np.isfinite(deltas[:, rows & ~on_band]).all()
            else:
                omega_ex = solve_exciton_resonance(p_t, band).omega_ex
                assert np.array_equal(delta_tla[rows], omega_ex - omega_l[rows])
                assert np.array_equal(converged[rows], np.where(on_band[rows], 0, 1))


def test_fig2_refuses_a_detuning_below_the_two_level_guard(tmp_path, capsys):
    # the panels drive the two-level comparator at omega_ex - detuning: below its
    # guard every panel row would be NaN, so the run is refused before any scan
    out = tmp_path / "fig2"
    assert main(["run", "fig2", "--grid", "16", "--set", "detuning=1e-13",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "detuning" in err and err.count("\n") == 1
    assert not out.exists()


def test_failed_point_is_a_nan_row():
    assert solved(lambda a, b: (a, b), 1.0, 2.0, width=2) == (1.0, 2.0, 1)

    def fail(error):
        raise error("no solution")

    for error in (NoResonance, ResonantDenominator):
        *values, converged = solved(fail, error, width=3)
        assert len(values) == 3 and np.isnan(values).all() and converged == 0
    for error in (ResonantCavity, NoPeak, ValueError):
        with pytest.raises(error):
            solved(fail, error, width=3)


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "nope", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    # u12 = 0 cannot host an exciton: solver failure surfaces as exit 3
    assert main(["run", "resonance", "--out", str(tmp_path), "--grid", "64",
                 "--set", "u12 = 0"]) == 3
    assert "solver error" in capsys.readouterr().err


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    # main() is called in-process (here, and by benchmark harnesses), so it leaves
    # the heap alone; the entry of the process freezes it before exit, which still
    # runs exit handlers, prints every written path to a pipe and keeps the exit codes
    assert main(["run", "resonance", "--grid", "16", "--out", str(tmp_path / "in")]) == 0
    assert gc.get_freeze_count() == 0
    env = {**os.environ, "PYTHONPATH": str(Path(floqex.__file__).parents[1])}
    script = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
              "from floqex.cli import entry\n"
              "sys.argv = ['floqex', *sys.argv[1:]]\n"
              "entry()\n")
    for launch in (["-m", "floqex.cli"], ["-c", script]):
        for sets, code in (([], 0), (["doping = 2"], 2), (["u12 = 0"], 3)):
            out = tmp_path / f"{launch[0]}-{code}"
            run = subprocess.run([sys.executable, *launch, "run", "resonance", "--grid", "16",
                                  *(a for s in sets for a in ("--set", s)), "--out", str(out)],
                                 env=env, capture_output=True, text=True)
            assert run.returncode == code, run.stderr
            lines = run.stdout.splitlines()
            if launch[0] == "-c":
                assert lines.pop() == "frozen True"
            if code:
                assert lines == [] and run.stderr.startswith(("config error", "solver error"))
            else:
                expected = [out / f"resonance.{ext}" for ext in ("csv", "json", "meta.json")]
                assert lines == list(map(str, expected))
                assert all(Path(line).stat().st_size for line in lines)


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("u12 = 0.6\ngrid = 64\n")
    rc = main(["run", "resonance", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "resonance.meta.json").read_text())
    assert meta["params"]["u12"] == 0.6


def test_missing_config_file(tmp_path):
    assert main(["run", "resonance", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag, target", [("--out", "afile"), ("--out", "afile/sub"),
                                          ("--config", "."), ("--config", "bad.cfg")])
def test_bad_file_argument_exits_2_without_output(tmp_path, capsys, flag, target):
    # a file in the way of --out; a directory or non-UTF-8 bytes as --config
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "bad.cfg").write_bytes(b"\xff\n")
    path = str(tmp_path / target)
    args = [flag, path] if flag == "--out" else [flag, path, "--out", str(tmp_path / "out")]
    assert main(["run", "resonance", "--grid", "16", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and path in err and err.count("\n") == 1
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "bad.cfg"]


@pytest.mark.parametrize("scenario, sets", [("fig2", ["u12_min=-0.5", "u12_max=0.1"]),
                                            ("fig3c", ["u12_min=-1"])])
def test_negative_u12_axis_exits_2_without_output(tmp_path, capsys, scenario, sets):
    out = tmp_path / scenario
    args = [arg for assignment in sets for arg in ("--set", assignment)]
    assert main(["run", scenario, "--grid", "16", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "u12_min" in err and err.count("\n") == 1
    assert not out.exists()


def test_worker_count_does_not_change_bytes(tmp_path):
    for workers, sub in ((1, "a"), (4, "b")):
        rc = main(["run", "fig3b", "--out", str(tmp_path / sub), "--grid", "32",
                   "--workers", str(workers)])
        assert rc == 0
    a = (tmp_path / "a" / "fig3b.csv").read_bytes()
    b = (tmp_path / "b" / "fig3b.csv").read_bytes()
    assert a == b


def test_oracle_uses_the_configured_model(tmp_path):
    # the cavity coupling reaches the full Fock-space diagnostic; the pair-sector
    # rows do not depend on it
    for sub, g_c in (("weak", "0.01"), ("strong", "0.5")):
        assert main(["run", "oracle", "--out", str(tmp_path / sub), "--seed", "7",
                     "--set", "instances = 2", "--set", f"g_c = {g_c}"]) == 0
    leakage = {sub: json.loads((tmp_path / sub / "oracle.meta.json").read_text())
               ["pair_restriction_leakage_rel"] for sub in ("weak", "strong")}
    assert leakage["weak"] == pytest.approx(0.0055, rel=0.01)
    assert leakage["strong"] == pytest.approx(0.93, rel=0.01)
    assert (tmp_path / "weak" / "oracle.csv").read_bytes() == \
        (tmp_path / "strong" / "oracle.csv").read_bytes()


_IMPORT_SCOPE = """
import sys
from floqex.cli import main
loaded = ["floqex.exactdiag" in sys.modules]
assert main(["run", "absorbance", "--grid", "16", "--out", sys.argv[1]]) == 0
loaded.append("floqex.exactdiag" in sys.modules)
assert main(["run", "oracle", "--set", "instances = 2", "--out", sys.argv[1]]) == 0
loaded.append("floqex.exactdiag" in sys.modules)
print(*loaded)
"""


def test_only_oracle_imports_the_dense_solvers(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(floqex.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", _IMPORT_SCOPE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False False True"
    for name in ("absorbance", "oracle"):
        for ext in ("csv", "json", "meta.json"):
            assert (tmp_path / f"{name}.{ext}").stat().st_size > 0


def test_public_names_resolve():
    namespace = {}
    exec("from floqex import *", namespace)
    assert all(namespace[name] is getattr(floqex, name) for name in floqex.__all__)


def test_trace_targets_exist():
    # perfbench/spans.py rebinds these library functions in the traced benchmark;
    # it is run from source, so nothing is written under perfbench/
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for module, names in runpy.run_path(str(spans))["TARGETS"].items():
        namespace = importlib.import_module(f"floqex.{module}")
        for name in names:
            assert callable(functools.reduce(getattr, name.split("."), namespace)), name


def test_oracle_refuses_doping_without_output(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["run", "oracle", "--set", "doping = 0.3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "doping" in err
    assert not out.exists()


def test_repeated_runs_are_byte_identical(tmp_path):
    for sub in ("r1", "r2"):
        main(["run", "oracle", "--out", str(tmp_path / sub), "--seed", "7",
              "--set", "instances = 5"])
    assert (tmp_path / "r1" / "oracle.csv").read_bytes() == \
        (tmp_path / "r2" / "oracle.csv").read_bytes()


def test_oracle_scenario_report(tmp_path):
    rc = main(["run", "oracle", "--out", str(tmp_path), "--seed", "7",
               "--set", "instances = 10"])
    assert rc == 0
    header, data = parse_csv((tmp_path / "oracle.csv").read_text())
    assert np.max(data[:, header.index("stark_rel_dev")]) <= 1e-10
    assert np.max(data[:, header.index("eigen_dev")]) <= 1e-10
    meta = json.loads((tmp_path / "oracle.meta.json").read_text())
    assert meta["commutator_max_dev"] <= 1e-12
    assert meta["commutator_negative_control_dev"] > 1e-6
    assert meta["commutator_passed"] is True
    assert 0.0 <= meta["pair_restriction_leakage_rel"] < 0.5
