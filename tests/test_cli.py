import json
import tracemalloc

import numpy as np
import pytest

from floqex import ModelParams, scenarios
from floqex.cli import main
from floqex.config import RunOptions, parse_config
from floqex.exceptions import ConfigError, NoResonance
from floqex.scan import ScanResult, format_number, parse_csv
from floqex.scenarios import run_scenario


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


def test_fig1b_grid_below_hopping_stencil_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "small"
    assert main(["run", "fig1b", "--grid", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "16" in err
    assert not out.exists()


def test_grid_beyond_physical_memory_rejected(monkeypatch, tmp_path, capsys):
    # each scenario's ceiling is checked against a pretend memory size before the
    # grid is built; the accepted grids below allocate only O(l)
    with monkeypatch.context() as m:
        m.setattr(scenarios, "_physical_memory_bytes", lambda: 2**30)
        assert scenarios._grid(RunOptions(grid=4096), "resonance", 1024).l == 4096
        with pytest.raises(ConfigError, match="grid 8192.*resonance.*physical memory"):
            scenarios._grid(RunOptions(grid=8192), "resonance", 1024)
        with pytest.raises(ConfigError, match="grid 4096.*fig1a.*physical memory"):
            scenarios._grid(RunOptions(grid=4096), "fig1a", 256)
        m.setattr(scenarios, "_physical_memory_bytes", lambda: 8 * 2**30)
        out = tmp_path / "fig1a"
        assert main(["run", "fig1a", "--grid", "12000", "--out", str(out)]) == 2
        assert "grid 12000" in capsys.readouterr().err and not out.exists()
    assert parse_config("grid = 100000\n")[1].grid == 100000
    for name in scenarios.PEAK_MESH_ARRAYS:
        with pytest.raises(ConfigError, match="grid 100000.*physical memory"):
            run_scenario(name, ModelParams(), RunOptions(grid=100000), tmp_path / name)
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name", sorted(scenarios.PEAK_MESH_ARRAYS))
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
        assert peak <= scenarios.PEAK_MESH_ARRAYS[name] * 8 * l * l, (doping, peak)


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
    for x in (0.1, 1.0 / 3.0, 2.9000000000000004, 1e-300, 6.23e17, -0.0):
        assert float(format_number(x)) == x
    assert format_number(np.float64(0.1)) == "0.1"
    assert format_number(7) == "7"


def test_csv_round_trip():
    rng = np.random.default_rng(0)
    axis = rng.uniform(-10, 10, size=17)
    col = rng.uniform(-1e6, 1e6, size=17)
    result = ScanResult("x", axis, {"y": col})
    header, data = parse_csv(result.to_csv())
    assert header == ["x", "y"]
    assert np.array_equal(data[:, 0], axis)
    assert np.array_equal(data[:, 1], col)


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


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "nope", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    # u12 = 0 cannot host an exciton: solver failure surfaces as exit 3
    assert main(["run", "resonance", "--out", str(tmp_path), "--grid", "64",
                 "--set", "u12 = 0"]) == 3
    assert "solver error" in capsys.readouterr().err


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


def test_worker_count_does_not_change_bytes(tmp_path):
    for workers, sub in ((1, "a"), (4, "b")):
        rc = main(["run", "fig3b", "--out", str(tmp_path / sub), "--grid", "32",
                   "--workers", str(workers)])
        assert rc == 0
    a = (tmp_path / "a" / "fig3b.csv").read_bytes()
    b = (tmp_path / "b" / "fig3b.csv").read_bytes()
    assert a == b


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
