import errno
import json
import math
import os
import stat
import threading

import numpy as np
import pytest

from zenosim import cli, report
from zenosim.engine import (
    SimulationTrace,
    ZenoSchedule,
    run_tunneling,
    run_unitary,
    run_zeno,
)
from zenosim.models import ModelSpec, build_three_level, build_tunneling
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

from test_engine import FROZEN_W_ZENO

OMEGA, ETA = 0.05, -0.2
PHI_Y = -math.pi / 2


def write_config(tmp_path, name="config.json", **keys):
    path = tmp_path / name
    path.write_text(json.dumps(keys), encoding="utf-8")
    return str(path)


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
        assert cfg.model.eta == -0.2

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

    def test_rejects_bool_as_number(self):
        with pytest.raises(ConfigError):
            validate_config({"mode": "no_zeno", "omega": True, "t_total": 5.0})

    def test_rejects_non_integer_n(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"mode": "three_level_zeno", "omega": 0.05, "n": 2.5, "dt": 0.1}
            )

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

    def test_load_config_round_trip(self, tmp_path):
        path = write_config(tmp_path, mode="ghz", g=0.02, g_tilde=0.005)
        cfg = load_config(path)
        assert cfg.mode == "ghz"
        assert cfg.model.g_tilde == 0.005

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


def n_of(trace):
    """Measurement count of a Zeno trace: one row per check plus the start."""
    return len(trace.times) - 1


class TestFindNCrit:
    def test_reference_scenario_regression(self):
        # n = 1 is the baseline itself and is not searched; a 60-digit
        # reference gives d_zeno(2) / d_unitary = 0.651 here
        assert n_of(find_n_crit(ModelSpec(omega=OMEGA), 5.0, 400)) == 2

    def test_minimality(self):
        model = ModelSpec(omega=OMEGA)
        found = find_n_crit(model, 5.0, 400)
        n_crit = n_of(found)
        h = build_three_level(OMEGA, PHI_Y, ETA)
        baseline = run_unitary(h, ground_state(), 5.0, samples=2).survival[-1]
        for m in range(2, n_crit):
            rec = run_zeno(h, ground_state(), ZenoSchedule(m, 5.0 / m))
            assert rec.survival[-1] < baseline
        rec = run_zeno(h, ground_state(), ZenoSchedule(n_crit, 5.0 / n_crit))
        assert rec.survival[-1] >= baseline
        np.testing.assert_array_equal(found.survival, rec.survival)

    def test_invariant_under_raising_n_max(self):
        model = ModelSpec(omega=OMEGA)
        low, high = find_n_crit(model, 5.0, 50), find_n_crit(model, 5.0, 400)
        for field in ("times", "populations", "survival"):
            np.testing.assert_array_equal(getattr(low, field), getattr(high, field))

    def test_not_found_marker(self):
        # n_max = 1 searches nothing, though n = 2 qualifies here
        model = ModelSpec(omega=0.13)
        assert find_n_crit(model, 2.0, 1) is None
        assert n_of(find_n_crit(model, 2.0, 2)) == 2
        # a 60-digit reference finds no n <= 50 beating the baseline here
        assert find_n_crit(ModelSpec(omega=0.0925), 25.1875, 50) is None

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            find_n_crit(ModelSpec(omega=OMEGA), 5.0, 0)


class TestSweep:
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
        trace = SimulationTrace(
            times=np.empty(0), populations=np.empty((0, 3)), survival=np.empty(0)
        )
        path = tmp_path / "empty.csv"
        emit_trace_csv(trace, path)
        assert path.read_text(encoding="utf-8") == "t,p1,p2,p3,W\n"

    def test_three_samples_make_four_lines(self, tmp_path):
        trace = SimulationTrace(
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
        trace = SimulationTrace(
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
        trace = SimulationTrace(
            times=np.array([0.0]), populations=np.ones((1, 4)), survival=np.array([1.0])
        )
        with pytest.raises(ValueError):
            emit_trace_csv(trace, tmp_path / "x.csv")

    def test_io_error_carries_path(self, tmp_path):
        trace = SimulationTrace(
            times=np.empty(0), populations=np.empty((0, 3)), survival=np.empty(0)
        )
        missing = tmp_path / "no_such_dir" / "x.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            emit_trace_csv(trace, missing)


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

        def one_block_then_fail(table):
            yield "0,1,0,0,1\n"
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(report, "_format_blocks", one_block_then_fail)
        with pytest.raises(OSError, match=r"failed writing .*out\.csv: .*No space"):
            emit_trace_csv(self.small_trace(), out)
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
