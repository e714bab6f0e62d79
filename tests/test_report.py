import errno
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from zenosim import _g17, cli, engine, report
from zenosim.engine import (
    ZenoSchedule,
    run_tunneling,
    run_unitary,
    run_zeno,
)
from zenosim.models import build_three_level, build_tunneling, build_two_level
from zenosim.report import (
    ConfigError,
    MODES,
    SWEEP_AXES,
    emit_sweep_csv,
    emit_trace_csv,
    find_n_crit,
    load_config,
    run_scenario,
    sweep,
    validate_config,
)

import oracles
from test_engine import FROZEN_W_ZENO

OMEGA, ETA = 0.05, -0.2
PHI_Y = -math.pi / 2


def write_config(tmp_path, name="config.json", **keys):
    path = tmp_path / name
    path.write_text(json.dumps(keys), encoding="utf-8")
    return str(path)


def assert_same_lines(text, expected):
    """Equal texts, or a message naming the first line that differs (pytest's
    own diff of two long texts takes minutes)."""
    if text != expected:
        got, want = text.splitlines(True), expected.splitlines(True)
        row = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                   min(len(got), len(want)))
        pytest.fail(f"line {row}: {got[row:row + 1]} != {want[row:row + 1]}")


def ground_state(dim=3):
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


class TestConfigValidation:
    def test_valid_three_level_zeno(self):
        cfg = validate_config(
            {"mode": "three_level_zeno", "omega": 0.05, "n": 50, "dt": 0.1}
        )
        assert cfg.schedule == ZenoSchedule(50, 0.1)
        assert cfg.t_total == pytest.approx(5.0)
        assert cfg.eta == -0.2

    # `seed` was accepted and never read; it is now an unknown key like any typo
    @pytest.mark.parametrize("key", ["omega_typo", "seed"])
    def test_unknown_key_is_named(self, key, tmp_path, capsys):
        raw = {"mode": "three_level_zeno", "omega": 0.05, "n": 50, "dt": 0.1, key: 3}
        with pytest.raises(ConfigError, match=f"'{key}'"):
            validate_config(raw)
        out = tmp_path / "never.csv"
        path = write_config(tmp_path, **raw, out=str(out))
        assert cli.main(["three-level-zeno", "--config", path]) == 1
        assert not out.exists()
        assert f"unknown config key: '{key}'" in capsys.readouterr().err

    def test_zero_n_with_t_total_is_a_config_error(self, tmp_path, capsys):
        # t_total / n must not be formed before n is checked
        out = tmp_path / "never.csv"
        argv = ["three-level-zeno", "--omega", "0.05", "--n", "0", "--t-total", "5",
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "config error: n must be >= 1, got 0\n"

    def test_key_not_accepted_by_mode(self):
        with pytest.raises(ConfigError, match="gamma.*ghz"):
            validate_config({"mode": "ghz", "g": 0.02, "g_tilde": 0.005, "gamma": 40.0})

    def test_ncrit_has_no_file_output(self):
        with pytest.raises(ConfigError, match="out"):
            validate_config(
                {"mode": "ncrit", "omega": 0.05, "t_total": 5.0, "n_max": 10,
                 "out": "x.csv"}
            )

    def test_missing_keys_name_requirements(self):
        with pytest.raises(ConfigError, match="t_total"):
            validate_config({"mode": "tunneling", "omega": 0.05, "gamma": 40.0})

    def test_unknown_mode_lists_modes(self):
        with pytest.raises(ConfigError, match="three_level_zeno"):
            validate_config({"mode": "nope"})

    # A list or dict is unhashable, so it is rejected before the mode table is read.
    @pytest.mark.parametrize("mode", [["ghz"], {"ghz": 1}])
    def test_non_string_mode_is_a_config_error(self, mode, tmp_path, capsys):
        raw = {"mode": mode, "g": 0.02, "g_tilde": 0.005}
        with pytest.raises(ConfigError, match="key 'mode' must be a string"):
            validate_config(raw)
        assert run_scenario(write_config(tmp_path, **raw)) == 1
        assert capsys.readouterr() == (
            "", f"config error: key 'mode' must be a string, got {mode!r}\n")

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            validate_config({"omega": 0.05})

    def test_exactly_one_of_dt_and_t_total(self):
        base = {"mode": "three_level_zeno", "omega": 0.05, "n": 50}
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config({**base, "dt": 0.1, "t_total": 5.0})
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(base)

    def test_t_total_resolves_dt(self):
        cfg = validate_config(
            {"mode": "three_level_zeno", "omega": 0.05, "n": 50, "t_total": 5.0}
        )
        assert cfg.schedule.dt == pytest.approx(0.1)

    def test_ghz_rejects_equal_couplings(self):
        with pytest.raises(ConfigError, match="g != g_tilde"):
            validate_config({"mode": "ghz", "g": 0.02, "g_tilde": 0.02})

    @pytest.mark.parametrize("couplings", [
        ["--g", "1e-320", "--g-tilde", "0"],
        ["--g", "1e-320", "--g-tilde=-1e-320"],
        {"g": 1e308, "g_tilde": -1e308},
    ], ids=["inf", "inf_of_a_difference", "zero"])
    def test_ghz_entangling_time_is_checked_with_the_config(self, couplings, tmp_path, capsys):
        # pi / (2|g - g_tilde|) is inf for the first two and 0 for the last
        out = tmp_path / "never.csv"
        if isinstance(couplings, dict):
            couplings = ["--config", write_config(tmp_path, mode="ghz", **couplings)]
        assert cli.main(["ghz", *couplings, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: entangling time")
        assert not out.exists()

    def test_rejects_bool_as_number(self):
        with pytest.raises(ConfigError):
            validate_config({"mode": "no_zeno", "omega": True, "t_total": 5.0})

    # Each raw config, or a value that is none, and the start of its error.
    BAD_VALUES = {
        "bool_n": ({"mode": "three_level_zeno", "omega": 0.05, "n": True, "dt": 0.1},
                   "key 'n' must be an integer, got True"),
        "integer_axis": ({"mode": "sweep", "axis": 3, "axis_values": [1, 2], "omega": 0.05,
                          "t_total": 5.0}, "key 'axis' must be a string, got 3"),
        "empty_axis_values": ({"mode": "sweep", "axis": "n", "axis_values": [], "omega": 0.05,
                               "t_total": 5.0}, "key 'axis_values' must be a non-empty list"),
        "negative_dt_grid": ({"mode": "sweep", "axis": "dt", "axis_values": [-0.2, -0.1],
                              "omega": 0.05, "n": 50}, "dt must be positive and finite, got -0.2"),
        "one_sample": ({"mode": "no_zeno", "omega": 0.05, "t_total": 5.0, "samples": 1},
                       "samples must be >= 2"),
        "nan_eta": ({"mode": "no_zeno", "omega": 0.05, "eta": math.nan, "t_total": 5.0},
                    "key 'eta' must be finite, got nan"),
        "list": ([], "config must be a flat JSON object"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_rejects_a_bad_value(self, case):
        raw, message = self.BAD_VALUES[case]
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            validate_config(raw)

    def test_an_integral_float_n_is_an_integer(self):
        cfg = validate_config({"mode": "three_level_zeno", "omega": 0.05, "n": 5.0, "dt": 0.1})
        assert type(cfg.n) is int and cfg.n == 5
        assert cfg.schedule == ZenoSchedule(5, 0.1)

    def test_rejects_non_integer_n(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"mode": "three_level_zeno", "omega": 0.05, "n": 2.5, "dt": 0.1}
            )

    # Each mode that takes omega, with the other keys it requires.
    NEGATIVE_OMEGA = {
        "three_level_zeno": {"n": 50, "dt": 0.1},
        "no_zeno": {"t_total": 5.0},
        "tunneling": {"gamma": 40.0, "t_total": 5.0},
        "sweep": {"axis": "n", "axis_values": [25, 50], "t_total": 5.0},
        "ncrit": {"t_total": 5.0, "n_max": 10},
    }

    @pytest.mark.parametrize("mode", sorted(NEGATIVE_OMEGA))
    def test_negative_omega_is_a_config_error(self, mode, tmp_path, capsys):
        path = write_config(tmp_path, mode=mode, omega=-0.1, **self.NEGATIVE_OMEGA[mode])
        assert run_scenario(path) == 1
        assert capsys.readouterr() == ("", "config error: omega must be >= 0, got -0.1\n")

    @pytest.mark.parametrize("keys", [
        {"mode": "tunneling", "t_total": 5.0},
        {"mode": "sweep", "axis": "n", "axis_values": [25, 50], "t_total": 5.0},
    ], ids=["tunneling", "sweep"])
    def test_negative_gamma_is_a_config_error(self, keys, tmp_path, capsys):
        assert run_scenario(write_config(tmp_path, omega=0.05, gamma=-1.0, **keys)) == 1
        assert capsys.readouterr() == ("", "config error: gamma must be >= 0, got -1.0\n")

    def test_a_missing_key_is_named_before_a_negative_omega(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="tunneling", omega=-0.1, t_total=5.0)
        assert run_scenario(path) == 1
        assert capsys.readouterr().err == (
            "config error: mode 'tunneling' requires keys ['gamma', 'omega', 't_total']; "
            "missing ['gamma']\n")

    # t_total / n would be named as a bad dt
    @pytest.mark.parametrize("keys", [{"mode": "two_level_zeno", "v": 0.05},
                                      {"mode": "three_level_zeno", "omega": 0.05}],
                             ids=["two_level_zeno", "three_level_zeno"])
    def test_zeno_t_total_must_be_positive(self, keys, tmp_path, capsys):
        out = tmp_path / "never.csv"
        for t_total in (-5, 0):
            path = write_config(tmp_path, n=50, t_total=t_total, out=str(out), **keys)
            assert run_scenario(path) == 1
            assert capsys.readouterr().err == "config error: t_total must be positive\n"
        assert run_scenario(write_config(tmp_path, n=50, dt=-0.1, out=str(out), **keys)) == 1
        assert capsys.readouterr().err == (
            "config error: dt must be positive and finite, got -0.1\n")
        assert not out.exists()

    # t_total / n rounds to 0 at the largest n each config runs, as it does in
    # three_level_zeno with n = 2 and t_total = 5e-324.
    @pytest.mark.parametrize("keys", [
        {"mode": "ncrit", "n_max": 5},
        {"mode": "sweep", "axis": "n", "axis_values": [1, 2]},
        {"mode": "sweep", "axis": "omega", "axis_values": [0.01, 0.02], "n": 2},
    ], ids=["ncrit", "sweep_n", "sweep_omega"])
    def test_zeno_step_rounding_to_zero_is_a_config_error(self, keys, tmp_path, capsys):
        assert run_scenario(write_config(tmp_path, omega=0.05, t_total=5e-324, **keys)) == 1
        assert capsys.readouterr() == (
            "", "config error: dt must be positive and finite, got 0.0\n")

    # Each sweep and the single-mode config that its failing grid point is.
    SWEEP_POINT_RUNS = {
        "omega": ({"axis": "omega", "axis_values": [-0.2, -0.1], "t_total": 5.0},
                  {"mode": "no_zeno", "omega": -0.2, "t_total": 5.0}),
        "gamma": ({"axis": "gamma", "axis_values": [-1.0, 2.0], "omega": 0.05, "t_total": 5.0},
                  {"mode": "tunneling", "omega": 0.05, "gamma": -1.0, "t_total": 5.0}),
        "negative_dt": ({"axis": "dt", "axis_values": [-0.2, -0.1], "omega": 0.05, "n": 50},
                        {"mode": "three_level_zeno", "omega": 0.05, "n": 50, "dt": -0.2}),
        "overflowing_dt": ({"axis": "dt", "axis_values": [0.1, 1e308], "omega": 0.05, "n": 3},
                           {"mode": "three_level_zeno", "omega": 0.05, "n": 3, "dt": 1e308}),
        "n": ({"axis": "n", "axis_values": [1, 2], "omega": 0.05, "t_total": 5e-324},
              {"mode": "three_level_zeno", "omega": 0.05, "n": 2, "t_total": 5e-324}),
    }

    @pytest.mark.parametrize("case", sorted(SWEEP_POINT_RUNS))
    def test_a_sweep_point_fails_as_its_single_run_fails(self, case):
        keys, single = self.SWEEP_POINT_RUNS[case]
        with pytest.raises(ConfigError) as point:
            validate_config({"mode": "sweep", **keys})
        with pytest.raises(ConfigError) as run:
            validate_config(single)
        assert str(point.value) == str(run.value)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ConfigError):
            validate_config({"mode": "no_zeno", "omega": -0.05, "t_total": 5.0})
        with pytest.raises(ConfigError):
            validate_config({"mode": "no_zeno", "omega": 0.05, "t_total": -5.0})

    def test_invalid_sweep_axis_lists_axes(self):
        with pytest.raises(ConfigError, match=", ".join(SWEEP_AXES)):
            validate_config(
                {"mode": "sweep", "axis": "phi", "axis_values": [1, 2],
                 "omega": 0.05, "t_total": 5.0}
            )

    def test_sweep_axis_requirements(self):
        with pytest.raises(ConfigError, match="t_total"):
            validate_config(
                {"mode": "sweep", "axis": "n", "axis_values": [25, 50], "omega": 0.05}
            )

    def test_dt_sweep_rejects_t_total(self, tmp_path, capsys):
        # each point of a dt sweep runs to n*dt, so a fixed t_total would be
        # printed as T but not run
        out = tmp_path / "never.csv"
        path = write_config(tmp_path, mode="sweep", axis="dt", axis_values=[0.1],
                            omega=0.05, n=50, t_total=3, out=str(out))
        assert run_scenario(path) == 1
        assert capsys.readouterr().err.startswith("config error: sweep over 'dt'")
        assert not out.exists()
        # an axis's own key is a fixed key that the grid value overrides
        for axis, key in (("omega", "omega"), ("gamma", "gamma"), ("n", "n")):
            validate_config({"mode": "sweep", "axis": axis, "axis_values": [1],
                             "omega": 0.05, "t_total": 5.0, key: 2})

    def test_overflowing_zeno_total_time_is_a_config_error(self, tmp_path, capsys):
        # n*dt is inf for a finite dt; the run would print T=inf
        out = tmp_path / "never.csv"
        argv = ["three-level-zeno", "--omega", "0.05", "--n", "3", "--dt", "1e308",
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: n*dt must be finite")
        path = write_config(tmp_path, mode="sweep", axis="dt", axis_values=[0.1, 1e308],
                            omega=0.05, n=3, out=str(out))
        assert run_scenario(path) == 1
        assert capsys.readouterr().err.startswith("config error: n*dt must be finite")
        assert not out.exists()

    def test_empty_out_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["ghz", "--g", "0.02", "--g-tilde", "0.005", "--out", ""]) == 1
        assert capsys.readouterr() == ("", "config error: key 'out' must be a non-empty path\n")
        path = write_config(tmp_path, mode="ghz", g=0.02, g_tilde=0.005, out="")
        assert run_scenario(path) == 1
        assert capsys.readouterr() == ("", "config error: key 'out' must be a non-empty path\n")
        assert os.listdir(tmp_path) == ["config.json"]

    def test_sweep_grid_must_be_monotone(self):
        with pytest.raises(ConfigError, match="monotone"):
            validate_config(
                {"mode": "sweep", "axis": "n", "axis_values": [25, 100, 50],
                 "omega": 0.05, "t_total": 5.0}
            )

    def test_sweep_grid_value_domains(self):
        with pytest.raises(ConfigError, match="integer"):
            validate_config(
                {"mode": "sweep", "axis": "n", "axis_values": [2.5, 3.5],
                 "omega": 0.05, "t_total": 5.0}
            )
        with pytest.raises(ConfigError):
            validate_config(
                {"mode": "sweep", "axis": "gamma", "axis_values": [-1.0, 2.0],
                 "omega": 0.05, "t_total": 5.0}
            )

    # Each config and the rows its largest engine run builds.
    ROW_BUDGET_CASES = [
        ({"mode": "two_level_zeno", "v": 0.1, "n": 7, "dt": 0.1}, 8),
        ({"mode": "three_level_zeno", "omega": OMEGA, "n": 7, "t_total": 5.0}, 8),
        ({"mode": "no_zeno", "omega": OMEGA, "t_total": 5.0}, 101),
        ({"mode": "no_zeno", "omega": OMEGA, "t_total": 5.0, "samples": 7}, 7),
        ({"mode": "tunneling", "omega": OMEGA, "gamma": 40.0, "t_total": 5.0}, 20001),
        ({"mode": "tunneling", "omega": OMEGA, "gamma": 40.0, "t_total": 5.0, "steps": 7}, 8),
        ({"mode": "sweep", "axis": "n", "axis_values": [2, 5, 7], "omega": OMEGA,
          "t_total": 5.0}, 8),
        ({"mode": "sweep", "axis": "gamma", "axis_values": [0.0, 40.0], "omega": OMEGA,
          "t_total": 5.0, "n": 7}, 8),
        ({"mode": "sweep", "axis": "gamma", "axis_values": [0.0, 40.0], "omega": OMEGA,
          "t_total": 5.0}, 2),
        ({"mode": "sweep", "axis": "dt", "axis_values": [0.1, 0.2], "omega": OMEGA, "n": 7}, 8),
        ({"mode": "sweep", "axis": "omega", "axis_values": [0.01, 0.05], "t_total": 5.0,
          "n": 7}, 8),
        ({"mode": "ncrit", "omega": OMEGA, "t_total": 5.0, "n_max": 7}, 8),
    ]

    @pytest.mark.parametrize("raw,rows", ROW_BUDGET_CASES,
                             ids=[f"{raw['mode']}-{rows}" for raw, rows in ROW_BUDGET_CASES])
    def test_row_budget_counts_the_rows_a_run_builds(self, raw, rows, monkeypatch):
        monkeypatch.setattr(report, "MAX_TRACE_ROWS", rows)
        validate_config(raw)
        monkeypatch.setattr(report, "MAX_TRACE_ROWS", rows - 1)
        with pytest.raises(ConfigError, match=f"{rows} rows.*limit is {rows - 1}"):
            validate_config(raw)

    def test_row_budget_rejects_an_overflowing_default_steps(self):
        # 100 * gamma * t_total is inf, which the default steps cannot round
        raw = {"mode": "tunneling", "omega": OMEGA, "gamma": 1e300, "t_total": 1e300}
        with pytest.raises(ConfigError, match="inf rows"):
            validate_config(raw)

    def test_row_budget_rejects_before_running(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(report, "MAX_TRACE_ROWS", 1000)
        monkeypatch.setattr(report, "run_tunneling", None)  # never reached
        out = tmp_path / "never.csv"
        argv = ["tunneling", "--omega", "0.05", "--gamma", "40", "--t-total", "5",
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "20001" in err and "1000" in err

    @pytest.mark.parametrize("raw,rows", ROW_BUDGET_CASES,
                             ids=[f"{raw['mode']}-{rows}" for raw, rows in ROW_BUDGET_CASES])
    def test_row_budget_is_the_largest_run_built(self, raw, rows, monkeypatch, capsys):
        built = []
        for name in ("run_zeno", "run_unitary", "run_tunneling"):
            def counted(*args, _run=getattr(report, name), **kwargs):
                trace = _run(*args, **kwargs)
                built.append(len(trace.times))
                return trace
            monkeypatch.setattr(report, name, counted)
        if raw["mode"] == "ncrit":
            # no Zeno run reaches a baseline of 2, so the scan runs up to n_max
            monkeypatch.setattr(report, "run_unitary", lambda *args, **kwargs: oracles.trace_of(
                np.zeros(2), np.zeros((2, 3)), np.full(2, 2.0)))
        assert run_scenario(overrides=raw) == 0
        assert max(built) == rows

    @pytest.mark.parametrize("gamma,t_total", [(0.0, 5.0), (40.0, 5.0), (123.4, 1.7)])
    def test_default_steps_are_resolved_into_the_config(self, gamma, t_total):
        cfg = validate_config({"mode": "tunneling", "omega": OMEGA, "gamma": gamma,
                               "t_total": t_total})
        h = build_tunneling(OMEGA, ETA, gamma)
        assert cfg.steps == len(run_tunneling(h, ground_state(), t_total).times) - 1

    def test_row_budget_runs_before_the_mode_check(self, tmp_path, capsys):
        # the Zeno and sweep checks do float arithmetic with n, which an n past
        # the float range would overflow
        out = tmp_path / "never.csv"
        big = 10 ** 400
        for schedule in (["--dt", "0.1"], ["--t-total", "5"]):
            argv = ["three-level-zeno", "--omega", "0.05", "--n", str(big), *schedule,
                    "--out", str(out)]
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: mode 'three_level_zeno' would build {big + 1} rows")
            assert err.count("\n") == 1
        for keys in ({"axis": "dt", "axis_values": [0.1, 0.2], "omega": 0.05, "n": big},
                     {"axis": "n", "axis_values": [2, big], "omega": 0.05, "t_total": 5.0}):
            path = write_config(tmp_path, mode="sweep", out=str(out), **keys)
            assert run_scenario(path) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["config.json"]

    def test_row_count_too_long_to_print_is_a_config_error(self, tmp_path, capsys):
        # n_max + 1 has 4,301 digits, one more than an int may be printed with
        path = write_config(tmp_path, mode="ncrit", omega=0.05, t_total=5.0,
                            n_max=int("9" * 4300))
        assert run_scenario(path) == 1
        assert capsys.readouterr().err == (
            "config error: mode 'ncrit' would build inf rows in one run; the limit is 2000000\n")

    def test_integer_past_the_float_range_is_not_finite(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        for key, keys in (("g", {"mode": "ghz", "g": 10 ** 400, "g_tilde": 0.005}),
                          ("axis_values", {"mode": "sweep", "axis": "gamma",
                                           "axis_values": [1, 10 ** 400], "omega": 0.05,
                                           "t_total": 5.0})):
            path = write_config(tmp_path, out=str(out), **keys)
            assert run_scenario(path) == 1
            assert capsys.readouterr().err == f"config error: key {key!r} must be finite, got inf\n"
        assert not out.exists()

    def test_load_config_round_trip(self, tmp_path):
        path = write_config(tmp_path, mode="ghz", g=0.02, g_tilde=0.005)
        cfg = load_config(path)
        assert cfg.mode == "ghz"
        assert cfg.g_tilde == 0.005

    def test_load_config_rejects_a_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="^cannot read config"):
            load_config(str(tmp_path / "missing.json"))

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))

    def test_load_config_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{mode: nope", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_load_config_rejects_unreadable_json(self, tmp_path, capsys):
        # bytes that are not UTF-8, and an integer past the 4,300-digit parse limit
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"mode": "ghz", "g": 0.02, "g_tilde": 0.005, "out": "\xff"}')
        long_int = tmp_path / "long.json"
        long_int.write_text('{"mode": "ghz", "g": 0.02, "g_tilde": 1' + "0" * 5000 + "}",
                            encoding="utf-8")
        for path in (not_utf8, long_int):
            assert run_scenario(str(path)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: config {path} is not valid JSON: ")
            assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["latin1.json", "long.json"]

    # One config per mode with every key it accepts; a Zeno mode takes dt, so
    # not t_total.  Integral floats and integers stand where the other is due.
    FULL_CONFIGS = {
        "two_level_zeno": {"v": 0.05, "n": 40.0, "dt": 0.125, "out": "w.csv"},
        "three_level_zeno": {"omega": 0.05, "eta": -0.3, "n": 40, "dt": 0.125, "out": "w.csv"},
        "no_zeno": {"omega": 0.05, "eta": -0.3, "t_total": 5, "samples": 11.0, "out": "w.csv"},
        "tunneling": {"omega": 0.05, "eta": -0.3, "gamma": 40, "t_total": 5.0, "steps": 100,
                      "out": "w.csv"},
        "ghz": {"g": 0.02, "g_tilde": 0.005, "out": "w.csv"},
        "sweep": {"axis": "omega", "axis_values": [0.01, 0.02], "omega": 0.05, "eta": -0.3,
                  "gamma": 40.0, "n": 400, "t_total": 5.0, "out": "w.csv"},
        "ncrit": {"omega": 0.05, "eta": -0.3, "t_total": 5.0, "n_max": 20.0},
    }

    @pytest.mark.parametrize("mode", list(MODES))
    def test_every_key_fills_its_namesake(self, mode):
        raw = {"mode": mode, **self.FULL_CONFIGS[mode]}
        zeno = "dt" in raw
        assert raw.keys() - {"mode"} == report._MODES[mode].keys - ({"t_total"} if zeno else set())
        cfg = validate_config(raw)
        for key, value in raw.items():
            if key != "dt":
                coerced = report._COERCE[key](key, value)
                assert getattr(cfg, key) == coerced
                assert type(getattr(cfg, key)) is type(coerced)
        if zeno:
            assert cfg.schedule == ZenoSchedule(40, 0.125)
            assert cfg.t_total == cfg.schedule.t_total

    def test_config_is_immutable_and_replaced_by_copy(self):
        cfg = validate_config({"mode": "ghz", "g": 0.02, "g_tilde": 0.005})
        with pytest.raises(AttributeError):
            cfg.g = 0.03
        assert cfg._replace(g=0.03).g == 0.03 and cfg.g == 0.02


def test_the_drive_phase_is_a_gauge(tmp_path, capsys):
    # diag(1, e^-i phi, e^-2i phi) takes the phase out of H and commutes with
    # every leak check, so a run from the ground state does not see it.  Zeno
    # rows hold the rounding of U = exp(-iH dt) to the k-th power, which moves
    # with phi: 1.0e-14 at phi = 0.5, k = 400 (see test_zeno_populations).
    def runs(phi):
        h = build_three_level(OMEGA, phi, ETA)
        return (run_zeno(h, [1, 0, 0], ZenoSchedule(400, 5.0 / 400)),
                run_unitary(h, [1, 0, 0], 5.0, samples=1_001))

    reference = runs(PHI_Y)
    for phi in (0.0, 0.5, 2.0):
        for trace, ref, atol in zip(runs(phi), reference, (1e-13, 1e-15)):
            assert np.max(np.abs(trace.populations - ref.populations)) <= atol
            assert 1 - trace.final_survival == pytest.approx(1 - ref.final_survival, rel=1e-12)
    # So the phase is not a config key.
    path = write_config(tmp_path, mode="no_zeno", omega=0.05, t_total=5, phi=0.5)
    assert run_scenario(path) == 1
    assert capsys.readouterr().err == "config error: unknown config key: 'phi'\n"


def three_level(omega):
    return build_three_level(omega, PHI_Y, ETA)


def n_of(trace):
    """Measurement count of a Zeno trace: one row per check plus the start."""
    return len(trace.times) - 1


class TestFindNCrit:
    def test_reference_scenario_regression(self):
        # n = 1 is the baseline itself and is not searched; a 60-digit
        # reference gives d_zeno(2) / d_unitary = 0.651 here
        assert n_of(find_n_crit(three_level(OMEGA), ground_state(), 5.0, 400)) == 2

    def test_minimality(self):
        h = three_level(OMEGA)
        found = find_n_crit(h, ground_state(), 5.0, 400)
        n_crit = n_of(found)
        baseline = run_unitary(h, ground_state(), 5.0, samples=2).survival[-1]
        for m in range(2, n_crit):
            rec = run_zeno(h, ground_state(), ZenoSchedule(m, 5.0 / m))
            assert rec.survival[-1] < baseline
        rec = run_zeno(h, ground_state(), ZenoSchedule(n_crit, 5.0 / n_crit))
        assert rec.survival[-1] >= baseline
        np.testing.assert_array_equal(found.survival, rec.survival)

    def test_invariant_under_raising_n_max(self):
        h = three_level(OMEGA)
        low = find_n_crit(h, ground_state(), 5.0, 50)
        high = find_n_crit(h, ground_state(), 5.0, 400)
        for field in ("times", "populations", "survival"):
            np.testing.assert_array_equal(getattr(low, field), getattr(high, field))

    def test_not_found_marker(self):
        # n_max = 1 searches nothing, though n = 2 qualifies here
        h = three_level(0.13)
        assert find_n_crit(h, ground_state(), 2.0, 1) is None
        assert n_of(find_n_crit(h, ground_state(), 2.0, 2)) == 2
        # a 60-digit reference finds no n <= 50 beating the baseline here
        assert find_n_crit(three_level(0.0925), ground_state(), 25.1875, 50) is None

    def test_searches_any_model(self):
        # the two-level toy model, unmeasured W = cos^2(v*T) = cos^2(2.9) = 0.94
        h, psi0, t_total = build_two_level(0.29), ground_state(2), 10.0
        baseline = run_unitary(h, psi0, t_total, samples=2).survival[-1]
        n_crit = next(n for n in range(2, 401)
                      if run_zeno(h, psi0, ZenoSchedule(n, t_total / n)).survival[-1] >= baseline)
        found = find_n_crit(h, psi0, t_total, 400)
        assert found.dim == 2 and n_of(found) == n_crit

    def test_rejects_bad_n_max(self):
        for n_max in (0, 10.5, True):
            with pytest.raises(ValueError, match="n_max must be"):
                find_n_crit(three_level(OMEGA), ground_state(), 5.0, n_max)


class TestSweep:
    def test_rejects_a_config_of_another_mode(self):
        cfg = validate_config({"mode": "no_zeno", "omega": 0.05, "t_total": 5.0})
        with pytest.raises(ConfigError, match="sweep-mode config, got 'no_zeno'"):
            sweep(cfg)

    def test_rejects_an_unknown_axis(self):
        cfg = report.ScenarioConfig(mode="sweep", axis="phi", axis_values=(1.0, 2.0),
                                    omega=0.05, t_total=5.0)
        with pytest.raises(ConfigError, match="got 'sweep' on axis 'phi'"):
            sweep(cfg)

    def test_single_point_matches_direct_call(self):
        cfg = validate_config(
            {"mode": "sweep", "axis": "n", "axis_values": [50],
             "omega": 0.05, "t_total": 5.0}
        )
        result = sweep(cfg)
        assert len(result.records) == 1
        h = build_three_level(OMEGA, PHI_Y, ETA)
        direct = run_zeno(h, ground_state(), ZenoSchedule(50, 0.1))
        assert result.records[0][0] == direct.survival[-1]

    def test_n_sweep_is_increasing(self):
        cfg = validate_config(
            {"mode": "sweep", "axis": "n", "axis_values": [25, 50, 100],
             "omega": 0.05, "t_total": 5.0}
        )
        result = sweep(cfg)
        w = [w_zeno for w_zeno, _, _ in result.records]
        assert w[0] < w[1] < w[2]
        for n, got in zip((25, 50, 100), w):
            assert abs(got - FROZEN_W_ZENO[n]) <= 1e-12

    def test_n_sweep_tail_approaches_one(self):
        cfg = validate_config(
            {"mode": "sweep", "axis": "n", "axis_values": [100, 400],
             "omega": 0.05, "t_total": 5.0}
        )
        records = sweep(cfg).records
        assert records[1][0] > records[0][0]
        for w_zeno, _, _ in records:
            assert 0.0 <= w_zeno <= 1.0

    def test_gamma_sweep_defines_tunnel_only(self):
        cfg = validate_config(
            {"mode": "sweep", "axis": "gamma", "axis_values": [0.0, 40.0, 80.0],
             "omega": 0.05, "t_total": 5.0}
        )
        result = sweep(cfg)
        for w_zeno, w_no_zeno, w_tunnel in result.records:
            assert w_tunnel is not None
            assert w_no_zeno is not None
            assert w_zeno is None

    def test_gamma_sweep_with_n_defines_all_three(self):
        cfg = validate_config(
            {"mode": "sweep", "axis": "gamma", "axis_values": [0.0, 40.0],
             "omega": 0.05, "t_total": 5.0, "n": 50}
        )
        for w_zeno, w_no_zeno, w_tunnel in sweep(cfg).records:
            assert w_zeno is not None
            assert w_no_zeno is not None
            assert w_tunnel is not None

    def test_n_sweep_runs_tunneling_once(self, monkeypatch):
        # w_tunnel does not depend on n, so one end value serves every point
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return run_tunneling(*args, **kwargs)

        monkeypatch.setattr(report, "run_tunneling", counting)
        cfg = validate_config(
            {"mode": "sweep", "axis": "n", "axis_values": [10, 20, 50],
             "omega": 0.05, "t_total": 5.0, "gamma": 40.0}
        )
        records = sweep(cfg).records
        assert len(calls) == 1
        # the tunneling mode's full trace ends at the same value, bit for bit
        direct = run_tunneling(build_tunneling(OMEGA, ETA, 40.0), ground_state(), 5.0)
        assert [w_tunnel for _, _, w_tunnel in records] == [direct.survival[-1]] * 3

    def test_gamma_sweep_runs_zeno_once(self, monkeypatch):
        # w_zeno depends on (omega, n, dt), which no gamma grid point changes
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return run_zeno(*args, **kwargs)

        monkeypatch.setattr(report, "run_zeno", counting)
        cfg = validate_config(
            {"mode": "sweep", "axis": "gamma", "axis_values": [0.0, 4.0, 40.0, 400.0],
             "omega": 0.05, "t_total": 5.0, "n": 1000}
        )
        records = sweep(cfg).records
        assert len(calls) == 1
        direct = run_zeno(build_three_level(OMEGA, PHI_Y, ETA), ground_state(),
                          ZenoSchedule(1000, 0.005))
        assert [w_zeno for w_zeno, _, _ in records] == [direct.survival[-1]] * 4

    def test_tunneling_suppresses_peak_leakage(self):
        # continuous monitoring beats free evolution on peak leak population
        quiet = run_tunneling(build_tunneling(OMEGA, ETA, 40.0), ground_state(), 5.0,
                              steps=2000)
        free = run_tunneling(build_tunneling(OMEGA, ETA, 0.0), ground_state(), 5.0,
                             steps=2000)
        assert np.max(quiet.populations[:, 2]) < np.max(free.populations[:, 2])

    def test_dt_sweep_uses_n_times_dt(self):
        cfg = validate_config(
            {"mode": "sweep", "axis": "dt", "axis_values": [0.05, 0.1],
             "omega": 0.05, "n": 50}
        )
        result = sweep(cfg)
        h = build_three_level(OMEGA, PHI_Y, ETA)
        direct = run_zeno(h, ground_state(), ZenoSchedule(50, 0.05))
        assert result.records[0][0] == direct.survival[-1]

    # Each axis with `gamma` set and, where the axis allows, `n`.
    POINT_KEYS = {
        "n": {"axis_values": [10, 50, 400], "omega": OMEGA, "t_total": 5.0, "gamma": 40.0},
        "gamma": {"axis_values": [0.0, 4.0, 40.0], "omega": OMEGA, "t_total": 5.0, "n": 50},
        "omega": {"axis_values": [0.01, 0.05, 0.13], "t_total": 5.0, "gamma": 40.0, "n": 50},
        "dt": {"axis_values": [0.03, 0.1, 0.3], "omega": OMEGA, "n": 50, "gamma": 40.0},
    }

    @pytest.mark.parametrize("axis", sorted(POINT_KEYS))
    def test_a_point_is_its_three_single_mode_runs(self, axis, capsys):
        keys = self.POINT_KEYS[axis]
        records = sweep(validate_config({"mode": "sweep", "axis": axis, **keys})).records
        for value, record in zip(keys["axis_values"], records):
            point = {**keys, axis: value}
            t_total = point["n"] * point["dt"] if axis == "dt" else point["t_total"]
            zeno_time = {"dt": value} if axis == "dt" else {"t_total": t_total}
            runs = [("three_level_zeno", {"omega": point["omega"], "n": point["n"], **zeno_time}),
                    ("no_zeno", {"omega": point["omega"], "t_total": t_total}),
                    ("tunneling", {"omega": point["omega"], "gamma": point["gamma"],
                                   "t_total": t_total})]
            for (mode, run_keys), w in zip(runs, record):
                assert run_scenario(mode=mode, overrides=run_keys) == 0
                assert w == float(capsys.readouterr().out.split(" W=")[1]), (value, mode)

    def test_omega_sweep(self):
        cfg = validate_config(
            {"mode": "sweep", "axis": "omega", "axis_values": [0.0, 0.05, 0.1],
             "t_total": 5.0}
        )
        records = sweep(cfg).records
        assert records[0][1] == pytest.approx(1.0, abs=1e-12)
        assert records[2][1] < records[1][1]


class TestTraceCsv:
    def test_empty_trace_writes_header_only(self, tmp_path):
        trace = oracles.trace_of(
            times=np.empty(0), populations=np.empty((0, 3)), survival=np.empty(0)
        )
        path = tmp_path / "empty.csv"
        emit_trace_csv(trace, path)
        assert path.read_text(encoding="utf-8") == "t,p1,p2,p3,W\n"

    def test_three_samples_make_four_lines(self, tmp_path):
        trace = oracles.trace_of(
            times=np.array([0.0, 0.1, 0.2]),
            populations=np.array([[1.0, 0, 0], [0.9, 0.1, 0], [0.8, 0.15, 0.05]]),
            survival=np.array([1.0, 0.99, 0.97]),
        )
        path = tmp_path / "t.csv"
        emit_trace_csv(trace, path)
        text = path.read_text(encoding="utf-8")
        assert len(text.splitlines()) == 4
        assert not text.endswith("\n\n")
        assert text.endswith("\n")

    def test_round_trip_is_exact(self, tmp_path):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        trace = run_unitary(h, ground_state(), 5.0, samples=17)
        path = tmp_path / "rt.csv"
        emit_trace_csv(trace, path)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        parsed = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(parsed[:, 0], trace.times)
        assert np.array_equal(parsed[:, 1:4], trace.populations)
        assert np.array_equal(parsed[:, 4], trace.survival)

    def test_lf_newlines_only(self, tmp_path):
        trace = oracles.trace_of(
            times=np.array([0.0, 1.0]),
            populations=np.array([[1.0, 0, 0], [0.5, 0.5, 0]]),
            survival=np.array([1.0, 1.0]),
        )
        path = tmp_path / "lf.csv"
        emit_trace_csv(trace, path)
        blob = path.read_bytes()
        assert b"\r" not in blob

    def test_two_level_trace_pads_p3(self, tmp_path):
        trace = run_zeno(
            np.array([[0, 0.1], [0.1, 0]], dtype=complex), ground_state(2),
            ZenoSchedule(3, 0.5),
        )
        path = tmp_path / "pad.csv"
        emit_trace_csv(trace, path)
        for row in path.read_text(encoding="utf-8").splitlines()[1:]:
            assert row.split(",")[3] == "0"

    def test_rejects_wide_traces(self, tmp_path):
        trace = oracles.trace_of(
            times=np.array([0.0]), populations=np.ones((1, 4)), survival=np.array([1.0])
        )
        with pytest.raises(ValueError):
            emit_trace_csv(trace, tmp_path / "x.csv")

    def test_io_error_carries_path(self, tmp_path):
        trace = oracles.trace_of(
            times=np.empty(0), populations=np.empty((0, 3)), survival=np.empty(0)
        )
        missing = tmp_path / "no_such_dir" / "x.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            emit_trace_csv(trace, missing)


# Streamed traces: the eigenvector path (no-zeno), the eig path with a lone
# last row (12,289 rows = 12 * 1,024 + 1), the binary-powers fallback, and
# Zeno rows formed again from their checks on both kernels (*_powers forces
# the fallback).
STREAMED_RUNS = {
    "zeno": lambda: run_zeno(build_three_level(OMEGA, PHI_Y, ETA), ground_state(),
                             ZenoSchedule(4_100, 5.0 / 4_100)),
    "zeno_powers": lambda: run_zeno(build_three_level(OMEGA, PHI_Y, ETA), ground_state(),
                                    ZenoSchedule(4_100, 5.0 / 4_100)),
    "two_level_zeno": lambda: run_zeno(build_two_level(OMEGA), ground_state(2),
                                       ZenoSchedule(2_049, 5.0 / 2_049)),
    "no_zeno": lambda: run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(), 5.0,
                                   samples=10_001),
    "tunneling": lambda: run_tunneling(build_tunneling(OMEGA, ETA, 400.0), ground_state(), 5.0,
                                       steps=12_288),
    "exceptional_point": lambda: run_tunneling(
        build_tunneling(oracles.EXCEPTIONAL_POINT["omega"], oracles.EXCEPTIONAL_POINT["eta"],
                        oracles.EXCEPTIONAL_POINT["gamma"]),
        ground_state(), oracles.EXCEPTIONAL_POINT["t_total"], steps=5_000),
}


class TestStreamedTraceCsv:
    """Traces are written from their blocks, not held."""

    @pytest.mark.parametrize("run", sorted(STREAMED_RUNS))
    def test_streamed_csv_equals_the_materialized_trace(self, run, tmp_path, monkeypatch):
        if run.endswith("_powers"):
            monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
        trace = STREAMED_RUNS[run]()
        emit_trace_csv(trace, tmp_path / "streamed.csv")
        held = oracles.trace_of(times=trace.times, populations=trace.populations,
                               survival=trace.survival)
        emit_trace_csv(held, tmp_path / "held.csv")
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "held.csv").read_bytes()
        assert streamed.count(b"\n") == len(trace.times) + 1
        assert trace.final_survival == held.final_survival == trace.survival[-1]

    @pytest.mark.parametrize("rows", [0, 1, 2, 1_025])
    def test_a_held_trace_is_cut_as_a_run_is(self, rows, tmp_path):
        table = np.random.default_rng(rows).standard_normal((rows, 5))
        trace = oracles.trace_of(times=table[:, 0], populations=table[:, 1:4],
                                survival=table[:, 4])
        # Each of these is one block; 1,025 rows keep their lone last row.
        assert trace._bounds == engine._partition(rows) == [(0, rows)]
        assert [len(t) for t, _, _ in trace.blocks()] == [rows]
        emit_trace_csv(trace, tmp_path / "held.csv")
        assert (tmp_path / "held.csv").read_text(encoding="utf-8") == (
            "t,p1,p2,p3,W\n" + oracles.csv_17g(table))

    def test_a_held_trace_of_lists_writes_the_bytes_of_arrays(self, tmp_path):
        table = np.random.default_rng(3).standard_normal((1_030, 5))
        trace = oracles.trace_of(times=table[:, 0].tolist(), populations=table[:, 1:4].tolist(),
                                survival=table[:, 4].tolist())
        emit_trace_csv(trace, tmp_path / "lists.csv")
        assert (tmp_path / "lists.csv").read_text(encoding="utf-8") == (
            "t,p1,p2,p3,W\n" + oracles.csv_17g(table))

    @pytest.mark.parametrize("held", [False, True])
    def test_each_kernel_call_formats_one_engine_block(self, held, tmp_path, monkeypatch):
        # 12,289 rows end in a lone last row, which joins the block before it.
        trace = run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(), 5.0,
                            samples=3_000 if held else 12_289)
        if held:
            trace = oracles.trace_of(times=trace.times, populations=trace.populations,
                                    survival=trace.survival)
        rows, format_block = [], _g17.format_block

        def counted(block, work):
            rows.append(len(block))
            return format_block(block, work)

        monkeypatch.setattr(_g17, "format_block", counted)
        emit_trace_csv(trace, tmp_path / "trace.csv")
        assert rows == [stop - start for start, stop in trace._bounds]
        assert rows[-1] == (952 if held else 1_025)

    def test_a_long_tunneling_trace_is_written_holding_no_row(self, tmp_path):
        # 200,001 rows: 1.6 MB of times and 8 MB of populations and survival,
        # none of which the run and its emission hold whole.
        tracemalloc.start()
        try:
            trace = run_tunneling(build_tunneling(OMEGA, ETA, 400.0), ground_state(), 5.0,
                                  steps=200_000)
            emit_trace_csv(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_a_long_tunneling_trace_is_written_in_1_2_mb(self, tmp_path):
        # The kernel's stages drop their temporaries before the next one
        # starts, so the run and its emission peak near one block's working set.
        tracemalloc.start()
        try:
            trace = run_tunneling(build_tunneling(OMEGA, ETA, 400.0), ground_state(), 5.0,
                                  steps=200_000)
            emit_trace_csv(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6


class TestTraceCsvKernel:
    """Trace CSVs hold the bytes `%.17g` writes, cell for cell."""

    @staticmethod
    def assert_as_percent(values, cols=5):
        values = np.asarray(values, dtype=float).ravel()
        table = np.concatenate([values, np.zeros(-len(values) % cols)]).reshape(-1, cols)
        text = _g17.format_block(table, {})
        assert_same_lines(text, oracles.csv_17g(table))
        # The same cells through emit_trace_csv, as one-block traces of five columns.
        rows = np.concatenate([values, np.zeros(-len(values) % 5)]).reshape(-1, 5)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.csv")
            for start in range(0, len(rows), engine._BLOCK + 1):
                part = rows[start:start + engine._BLOCK + 1]
                trace = oracles.trace_of(times=part[:, 0], populations=part[:, 1:4],
                                        survival=part[:, 4])
                assert len(trace._bounds) == 1
                emit_trace_csv(trace, path)
                with open(path, encoding="utf-8") as fh:
                    assert_same_lines(fh.read(), "t,p1,p2,p3,W\n" + oracles.csv_17g(part))
        return text

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, 200_000, dtype=np.uint64)
        self.assert_as_percent(bits.view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        p = 10.0 ** np.arange(-300, 301)
        self.assert_as_percent([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])

    def test_notation_switch_points(self):
        points = np.array([1e-05, 1e16, 1e17])
        text = self.assert_as_percent(
            [points, np.nextafter(points, 0), np.nextafter(points, np.inf)], cols=3)
        # %g keeps fixed notation for exponents -4 to 16.
        assert text.splitlines()[1] == "9.9999999999999991e-06,9999999999999998,99999999999999984"
        assert text.splitlines()[0] == "1.0000000000000001e-05,10000000000000000,1e+17"

    def test_tie_and_subnormal_go_through_the_fallback(self, monkeypatch):
        tie = 1000001 * 2.0 ** -17  # 7.62940216064453125 exactly
        sent = []

        def fallback(x):
            sent.append(x)
            return "%.17g" % x

        monkeypatch.setattr(_g17, "_fallback", fallback)
        text = self.assert_as_percent([0.5, tie, 5e-324, -tie, 1.0])
        assert text == "0.5,7.6294021606445312,4.9406564584124654e-324,-7.6294021606445312,1\n"
        assert sent == [tie, 5e-324, -tie]

    def test_zeros_extremes_and_negatives(self):
        values = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e-280, 1e280, 2.5e-281,
                  math.inf, math.nan, 0.25, 123456789.0, 3e-5, 1.5e200]
        text = self.assert_as_percent(values + [-v for v in values], cols=13)
        assert text.startswith("0,-0,4.9406564584124654e-324,1.7976931348623157e+308,")
        assert text.splitlines()[1].startswith("-0,0,-4.9406564584124654e-324,")

    def test_whole_tunneling_trace(self, tmp_path):
        trace = run_tunneling(build_tunneling(OMEGA, ETA, 40.0), ground_state(), 5.0)
        assert len(trace.times) == 20_001
        path = tmp_path / "g40.csv"
        emit_trace_csv(trace, path)
        table = np.column_stack([trace.times, trace.populations, trace.survival])
        assert_same_lines(path.read_text(encoding="utf-8"),
                          "t,p1,p2,p3,W\n" + oracles.csv_17g(table))

    def test_memory_does_not_grow_with_the_trace(self, tmp_path):
        # The kernel works a block at a time on buffers kept across blocks.
        peaks = []
        for steps in (20_000, 200_000):
            trace = run_tunneling(build_tunneling(OMEGA, ETA, 400.0), ground_state(), 5.0,
                                  steps=steps)
            tracemalloc.start()
            try:
                emit_trace_csv(trace, tmp_path / "trace.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_one_block_peaks_under_a_megabyte(self):
        # A first call on a fresh workspace: its kept buffers count in the peak.
        trace = run_tunneling(build_tunneling(OMEGA, ETA, 400.0), ground_state(), 5.0,
                              steps=200_000)
        times, populations, survival = next(trace.blocks())
        block = np.column_stack([times, populations, survival])
        assert block.shape == (1_024, 5)
        tracemalloc.start()
        try:
            _g17.format_block(block, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6

    @staticmethod
    def layout_of(text):
        """The `%g` notation of a `%.17g` text (k for fixed notation, else the
        exponent's sign and digit count), its significant digits and its sign."""
        mantissa, _, exponent = text.lstrip("-").partition("e")
        digits = mantissa.replace(".", "")
        whole = mantissa.partition(".")[0]
        if exponent:
            notation = (exponent[0], len(exponent) - 1)
        elif whole != "0":
            notation = len(whole) - 1
        else:
            notation = len(digits.lstrip("0")) - len(digits)
        return notation, len(digits.strip("0")), text.startswith("-")

    def test_every_layout_it_can_write(self, monkeypatch):
        # Fixed notation at k = -4..16 and both exponent signs with 2 and 3
        # digits, each with 1 to 17 significant digits and either sign, taken
        # from the `%.17g` text of decimals m * 10**e drawn until they occur;
        # each is laid out by the kernel, not only by its fallback.
        rng = np.random.default_rng(35)
        notations = [*range(-4, 17), ("-", 2), ("-", 3), ("+", 2), ("+", 3)]
        cells = []
        for k in [*range(-4, 17), -5, -99, -100, -279, 17, 99, 100, 279]:
            for n in range(1, 18):
                for _ in range(200):
                    x = float(f"{rng.integers(10 ** (n - 1), 10 ** n)}e{k - n + 1}")
                    cells += [x, -x]
                    notation, digits, _ = self.layout_of("%.17g" % x)
                    tie = Fraction(x) * Fraction(10) ** (16 - k) % 1 == Fraction(1, 2)
                    if digits == n and not tie and notation in (
                            k, ("-" if k < 0 else "+", 2 + (abs(k) > 99))):
                        break
        fallbacks = [1000001 * 2.0 ** -17, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e-300]
        values = np.array(cells + [0.0, -0.0] + fallbacks)
        table = np.concatenate([values, np.zeros(-len(values) % 5)]).reshape(-1, 5)
        sent = []
        monkeypatch.setattr(_g17, "_fallback", lambda x: sent.append(repr(x)) or "%.17g" % x)
        work = {}
        _g17.format_block(np.random.default_rng(3).standard_normal((1_100, 5)), work)
        for work in ({}, work):
            assert_same_lines(_g17.format_block(table, work), oracles.csv_17g(table))
        assert set(map(repr, fallbacks)) <= set(sent)
        laid = {self.layout_of("%.17g" % x) for x in cells if repr(x) not in sent}
        assert laid == {(notation, n, negative) for notation in notations for n in range(1, 18)
                        for negative in (False, True)}

    def test_the_kept_workspace_stays_block_sized(self):
        # Two kept buffers: the block's source rows (48 bytes a cell) and one
        # pass of masks (640 cells).
        work, rng = {}, np.random.default_rng(4)
        for rows in (1_024, 1_025, 3):
            block = rng.standard_normal((rows, 5))
            assert_same_lines(_g17.format_block(block, work), oracles.csv_17g(block))
        assert sum(a.nbytes for a in work.values()) <= 48 * 5_125 + 640 * 48

    def test_import_builds_no_table(self):
        # Only a run that writes a trace imports the kernel, and the import
        # builds no table row.
        src = os.path.dirname(os.path.dirname(report.__file__))
        probe = ("import sys, zenosim.cli; assert 'zenosim._g17' not in sys.modules; "
                 "import zenosim._g17 as g; "
                 "assert not (g._SCALES.built.any() or g._KEEPS.built.any()); "
                 "assert g._digit_words.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=src))

    @pytest.mark.parametrize("samples, blocks", [(1_025, 1), (1_026, 2)])
    def test_only_a_trace_of_more_than_one_block_imports_the_kernel(self, samples, blocks,
                                                                     tmp_path):
        # 1,025 rows are one engine block, a lone last row joining the one
        # before it; 1,026 rows are two.  Both write the kernel's bytes.
        src = os.path.dirname(os.path.dirname(report.__file__))
        out = tmp_path / "trace.csv"
        probe = ("import sys; from zenosim.report import run_scenario; "
                 f"status = run_scenario(mode='no_zeno', overrides={{'omega': {OMEGA!r}, "
                 f"'t_total': 5.0, 'samples': {samples}, 'out': {str(out)!r}}}); "
                 "print(status, 'zenosim._g17' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", probe], check=True, timeout=60,
                                capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src))
        assert result.stdout.splitlines()[-1] == f"0 {blocks > 1}"
        trace = run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(), 5.0,
                            samples=samples)
        assert len(trace._bounds) == blocks
        assert out.read_bytes() == b"t,p1,p2,p3,W\n" + "".join(
            _g17.format_block(np.column_stack(block), {}) for block in trace.blocks()).encode()


class TestCsvWriter:
    """The writer all three CSV emitters share."""

    @staticmethod
    def small_trace():
        return run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(), 5.0, samples=101)

    def expected_bytes(self, tmp_path):
        path = tmp_path / "expected" / "t.csv"
        path.parent.mkdir()
        emit_trace_csv(self.small_trace(), path)
        return path.read_bytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier output\n")
        calls, format_block = [], _g17.format_block

        def one_block_then_fail(block, work):
            calls.append(len(block))
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return format_block(block, work)

        monkeypatch.setattr(_g17, "format_block", one_block_then_fail)
        trace = run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(), 5.0,
                            samples=3_000)
        with pytest.raises(OSError, match=r"failed writing .*out\.csv: .*No space"):
            emit_trace_csv(trace, out)
        assert calls == [1_024, 1_024]
        assert out.read_bytes() == b"earlier output\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_new_file_mode_matches_open(self, tmp_path):
        with open(tmp_path / "by_open", "w"):
            pass
        emit_trace_csv(self.small_trace(), tmp_path / "new.csv")
        mode = stat.S_IMODE(os.stat(tmp_path / "new.csv").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "by_open").st_mode)

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"x")
        out.chmod(0o640)
        emit_trace_csv(self.small_trace(), out)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640

    def test_symlink_target_is_updated(self, tmp_path):
        expected = self.expected_bytes(tmp_path)
        real = tmp_path / "real.csv"
        real.write_bytes(b"earlier output\n")
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        emit_trace_csv(self.small_trace(), link)
        assert link.is_symlink() and os.readlink(link) == "real.csv"
        assert real.read_bytes() == expected
        assert sorted(os.listdir(tmp_path)) == ["expected", "link.csv", "real.csv"]

    def test_fifo_is_written_in_place(self, tmp_path):
        expected = self.expected_bytes(tmp_path)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read_all():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        emit_trace_csv(self.small_trace(), fifo)
        reader.join(timeout=30)
        assert received == [expected]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["expected", "pipe"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_through_dev_fd_is_written_in_place(self, tmp_path, capsys):
        # `--out /dev/stdout | gzip` or `--out >(...)`: the /dev/fd/N link of
        # a pipe names no file on disk, so it can only be written in place.
        expected = self.expected_bytes(tmp_path)
        r, w = os.pipe()
        received = []

        def read_all():
            with open(r, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        try:
            status = run_scenario(mode="no_zeno", overrides={
                "omega": OMEGA, "t_total": 5.0, "out": f"/dev/fd/{w}"})
        finally:
            os.close(w)
        reader.join(timeout=30)
        assert status == 0, capsys.readouterr().err
        assert received == [expected]
        assert os.listdir(tmp_path) == ["expected"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_file_whose_name_is_gone_is_written_in_place(self, tmp_path):
        # /dev/fd/N of an unlinked file resolves to no name that leads to it,
        # so there is nothing beside it to replace it with
        expected = self.expected_bytes(tmp_path)
        gone = tmp_path / "gone.csv"
        fd = os.open(gone, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            os.unlink(gone)
            emit_trace_csv(self.small_trace(), f"/dev/fd/{fd}")
            with open(fd, "rb", closefd=False) as fh:
                fh.seek(0)
                received = fh.read()
        finally:
            os.close(fd)
        assert received == expected
        assert os.listdir(tmp_path) == ["expected"]


class TestSweepCsv:
    def test_undefined_fields_are_empty(self, tmp_path):
        cfg = validate_config(
            {"mode": "sweep", "axis": "gamma", "axis_values": [0.0, 40.0],
             "omega": 0.05, "t_total": 5.0}
        )
        result = sweep(cfg)
        path = tmp_path / "s.csv"
        emit_sweep_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "axis_value,w_zeno,w_no_zeno,w_tunnel"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == ""  # no measurement count configured
            assert cells[2] != "" and cells[3] != ""


class TestRunScenario:
    def test_three_level_zeno_scenario(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        path = write_config(
            tmp_path, mode="three_level_zeno", omega=0.05, eta=-0.2, n=50, dt=0.1,
            out=str(out),
        )
        assert run_scenario(path) == 0
        assert out.exists()
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("mode=three_level_zeno T=5 ")
        w = float(summary.split("W=")[1])
        assert abs(w - FROZEN_W_ZENO[50]) <= 1e-12

    def test_ghz_scenario_reports_fidelity(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="ghz", g=0.02, g_tilde=0.005)
        assert run_scenario(path) == 0
        summary = capsys.readouterr().out.strip()
        assert float(summary.split("W=")[1]) >= 1.0 - 1e-9

    def test_malformed_config_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        path = write_config(
            tmp_path, mode="three_level_zeno", omega=0.05, n=50, dt=0.1,
            out=str(out), omega_typo=1.0,
        )
        assert run_scenario(path) == 1
        assert not out.exists()
        assert "omega_typo" in capsys.readouterr().err

    def test_mode_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="ghz", g=0.02, g_tilde=0.005)
        assert run_scenario(path, mode="tunneling") == 1
        assert "mismatch" in capsys.readouterr().err

    def test_physics_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        path = write_config(
            tmp_path, mode="two_level_zeno", v=1.0, n=1, dt=math.pi / 2, out=str(out)
        )
        assert run_scenario(path) == 2
        assert not out.exists()
        assert "leakage" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path, mode="ghz", g=0.02, g_tilde=0.005,
            out=str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert run_scenario(path) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_overrides_win_over_config(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="three_level_zeno", omega=0.05, n=50, dt=0.1)
        assert run_scenario(path, overrides={"n": 25, "dt": 0.2, "out": None}) == 0
        summary = capsys.readouterr().out.strip()
        assert abs(float(summary.split("W=")[1]) - FROZEN_W_ZENO[25]) <= 1e-12

    def test_ncrit_scenario(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="ncrit", omega=0.05, t_total=5.0, n_max=400)
        assert run_scenario(path) == 0
        assert "n_crit=2" in capsys.readouterr().out

    def test_ncrit_reuses_the_search_record(self, tmp_path, monkeypatch, capsys):
        # the W printed is the one find_n_crit computed, not a second run
        counts = []

        def counting(h, psi0, schedule):
            counts.append(schedule.n)
            return run_zeno(h, psi0, schedule)

        monkeypatch.setattr(report, "run_zeno", counting)
        path = write_config(tmp_path, mode="ncrit", omega=0.13, t_total=2.0, n_max=50)
        assert run_scenario(path) == 0
        assert counts == [2]
        assert capsys.readouterr().out == "mode=ncrit T=2 n_crit=2 W=0.99861669885619075\n"

    def test_sweep_scenario_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        path = write_config(
            tmp_path, mode="sweep", axis="n", axis_values=[25, 50, 100],
            omega=0.05, t_total=5.0, out=str(out),
        )
        assert run_scenario(path) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert "axis=n" in capsys.readouterr().out

    def test_no_zeno_scenario(self, tmp_path, capsys):
        out = tmp_path / "free.csv"
        path = write_config(
            tmp_path, mode="no_zeno", omega=0.05, t_total=5.0, samples=11, out=str(out)
        )
        assert run_scenario(path) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 12

    def test_tunneling_scenario(self, tmp_path, capsys):
        path = write_config(
            tmp_path, mode="tunneling", omega=0.05, gamma=40.0, t_total=5.0, steps=2000
        )
        assert run_scenario(path) == 0
        w = float(capsys.readouterr().out.strip().split("W=")[1])
        assert w > 0.9999

    # Each mode's config (given `out` where the mode writes a file), and the
    # names of `report` its run must call.
    # A tracer wraps these names on the module, so the runners must look them
    # up at call time rather than hold the functions.
    MODE_CALLS = {
        "two_level_zeno": ({"v": 0.1, "n": 5, "dt": 0.1},
                           ["build_two_level", "run_zeno", "emit_trace_csv"]),
        "three_level_zeno": ({"omega": OMEGA, "n": 5, "dt": 0.1},
                             ["build_three_level", "run_zeno", "emit_trace_csv"]),
        "no_zeno": ({"omega": OMEGA, "t_total": 5.0, "samples": 3},
                    ["build_three_level", "run_unitary", "emit_trace_csv"]),
        "tunneling": ({"omega": OMEGA, "gamma": 4.0, "t_total": 1.0, "steps": 10},
                      ["build_tunneling", "run_tunneling", "emit_trace_csv"]),
        "ghz": ({"g": 0.02, "g_tilde": 0.005}, ["run_ghz_protocol", "_emit_ghz_csv"]),
        "sweep": ({"axis": "gamma", "axis_values": [0.0, 4.0], "omega": OMEGA,
                   "t_total": 1.0, "n": 5},
                  ["sweep", "build_three_level", "build_tunneling", "run_unitary",
                   "run_zeno", "run_tunneling", "emit_sweep_csv"]),
        "ncrit": ({"omega": OMEGA, "t_total": 5.0, "n_max": 3},
                  ["find_n_crit", "build_three_level", "run_unitary", "run_zeno"]),
    }

    @pytest.mark.parametrize("mode", sorted(MODE_CALLS))
    def test_runners_resolve_names_at_call_time(self, mode, tmp_path, monkeypatch, capsys):
        keys, names = self.MODE_CALLS[mode]
        if mode != "ncrit":
            keys = {**keys, "out": str(tmp_path / "out.csv")}
        counts = dict.fromkeys(names, 0)
        for name in names:
            def passthrough(*args, _name=name, _fn=getattr(report, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(report, name, passthrough)
        assert run_scenario(write_config(tmp_path, mode=mode, **keys)) == 0
        assert capsys.readouterr().out.startswith(f"mode={mode} ")
        assert all(counts.values()), counts

    def test_modes_tuple_is_complete(self):
        assert set(MODES) == {
            "two_level_zeno", "three_level_zeno", "no_zeno", "tunneling",
            "ghz", "sweep", "ncrit",
        }
