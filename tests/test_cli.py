import gc
import hashlib
import json
import math
import os
import resource
import subprocess
import sys

import pytest

import zenosim
from zenosim import engine
from zenosim.cli import build_parser, main
from zenosim.report import MODES

from test_engine import FROZEN_W_ZENO


def write_config(tmp_path, **keys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(keys), encoding="utf-8")
    return str(path)


class TestParser:
    def test_all_modes_have_subcommands(self):
        # both spellings of every mode parse to its name
        parser = build_parser()
        for mode in ("two_level_zeno", "three_level_zeno", "no_zeno",
                     "tunneling", "ghz", "sweep", "ncrit"):
            for command in (mode, mode.replace("_", "-")):
                assert parser.parse_args([command]).mode == mode

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_g_tilde_flag(self):
        args = build_parser().parse_args(["ghz", "--g", "0.02", "--g-tilde", "0.005"])
        assert args.g_tilde == 0.005

    def test_underscore_aliases(self):
        args = build_parser().parse_args(["three_level_zeno"])
        assert args.mode == "three_level_zeno"


class TestMain:
    def test_ghz_from_flags_only(self, capsys):
        assert main(["ghz", "--g", "0.02", "--g-tilde", "0.005"]) == 0
        # The sha256 pins below hash the CSV only; this pins the summary's W.
        assert capsys.readouterr().out == "mode=ghz T=104.71975511965978 W=0.99999999999999767\n"

    def test_config_plus_overrides(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="three_level_zeno", omega=0.05, n=50, dt=0.1)
        assert main(["three-level-zeno", "--config", path, "--n", "25", "--dt", "0.2"]) == 0
        w = float(capsys.readouterr().out.strip().split("W=")[1])
        assert abs(w - FROZEN_W_ZENO[25]) <= 1e-12

    def test_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["three-level-zeno", "--omega", "0.05", "--eta", "-0.2",
                "--n", "50", "--dt", "0.1"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_config_exits_one_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "never.csv"
        assert main(["ghz", "--config", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_override_not_accepted_by_mode(self, capsys):
        assert main(["ghz", "--g", "0.02", "--g-tilde", "0.005", "--gamma", "40"]) == 1
        assert "gamma" in capsys.readouterr().err

    def test_physics_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="two_level_zeno", v=1.0, n=1, dt=math.pi / 2)
        assert main(["two-level-zeno", "--config", path]) == 2

    def test_io_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["ghz", "--g", "0.02", "--g-tilde", "0.005", "--out", str(out)]) == 3

    def test_usage_errors_are_config_errors(self, capsys):
        assert main(["three-level-zeno", "--omega", "abc"]) == 1
        assert main([]) == 1
        assert "required: MODE" in capsys.readouterr().err
        # the config validation, not the parser, rejects an unknown mode
        assert main(["bogus-mode"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: unknown mode 'bogus_mode'; valid modes: two_level_zeno, ")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "MODE" in out
        for mode, text in MODES.items():
            assert f"  {mode.replace('_', '-'):<18}{text}\n" in out

    def test_options_may_precede_the_mode(self, capsys):
        assert main(["--g", "0.02", "--g-tilde", "0.005", "ghz"]) == 0
        before = capsys.readouterr().out
        assert main(["ghz", "--g", "0.02", "--g-tilde", "0.005"]) == 0
        assert capsys.readouterr().out == before

    def test_tunneling_run(self, tmp_path, capsys):
        path = write_config(
            tmp_path, mode="tunneling", omega=0.05, gamma=40.0, t_total=5.0, steps=2000
        )
        assert main(["tunneling", "--config", path]) == 0
        assert "mode=tunneling" in capsys.readouterr().out


# sha256 of the bytes each run writes: its CSV, or its stdout if it writes none.
# Any change to these outputs, down to the last of 17 digits, is a change of
# the CLI contract and must show here.  Taken with numpy 2.4 on OpenBLAS.
# Each entry: flags, config keys for what has no flag (or None), digest.
BYTE_CONTRACT = {
    "no_zeno": (["no-zeno", "--omega", "0.05", "--t-total", "5"], None,
                "2070f8c871aa82991921310dfc988fa3b5f65a0090791a7d3e1ffb958aa160ea"),
    "ghz": (["ghz", "--g", "0.02", "--g-tilde", "0.005"], None,
            "24965e27ba14922ef2ec2fbb5beaaf7e0f51489715bd06579b54615c6dea7439"),
    # opposite signs: the ZZ diagonal and the XY swap entries differ in sign
    "ghz_opposite_couplings": (["ghz", "--g", "0.01", "--g-tilde", "-0.01"], None,
                               "bbbcd2e74c263a07a3dbf5f509bbe1327ddda6541cad6528a623b75140e2d8e5"),
    "three_level_zeno": (["three-level-zeno", "--omega", "0.05", "--n", "400",
                          "--t-total", "5"], None,
                         "b6f18d35d63f264fe15c813bc8b5880eba778be290d665f9ab2f824ba115615b"),
    "ncrit": (["ncrit"], {"omega": 0.13, "t_total": 2.0, "n_max": 50},
              "d6ccbf4cf9c820e9bbfc84aa01494afbcb6a65a0f1efbdb864fc0e2d04c3676e"),
    # two-level traces pad p3 with zero
    "two_level_zeno": (["two-level-zeno", "--n", "50", "--t-total", "5"], {"v": 0.1},
                       "dbe85386e9b21e669ca8cbe129b4c17c1b7b9b7ce541b7fd1f21424e6e4ec0b6"),
    # default steps: 20,001 rows
    "tunneling": (["tunneling", "--omega", "0.05", "--gamma", "40", "--t-total", "5"], None,
                  "912a48046acf0dca0e73b9c76644d96984c80fd91ed6014473ec225c006264cd"),
    # no n, so every w_zeno cell is empty
    "sweep": (["sweep"], {"axis": "gamma", "axis_values": [0.0, 40.0, 400.0],
                          "omega": 0.05, "t_total": 5.0},
              "d1e1de8750ddf3af4468cc46c1b0756b4b5eebc43c10e79a1ec01d3e3191abaf"),
    # 1,025 rows are the largest trace of one engine block, 1,026 the smallest of two
    "no_zeno_1025": (["no-zeno", "--omega", "0.05", "--t-total", "5"], {"samples": 1025},
                     "15fc5d3f6149a116ec2be78ac227cb013628368be1ab845e39fa138cb75b8265"),
    "no_zeno_1026": (["no-zeno", "--omega", "0.05", "--t-total", "5"], {"samples": 1026},
                     "1f8d4bb4436bbe2bcb00b92aa3369fba13a23ee1b10c5d05f69d043966291ce7"),
    "three_level_zeno_dt": (["three-level-zeno", "--omega", "0.05", "--n", "50", "--dt", "0.1"],
                            None,
                            "b611b61ce9b6dd6b227b6a9ae72766475e7f0c639abf3d08c443abfa94ebd2ff"),
    # The jobs of bench/run.py's WORKLOADS that no entry above covers, with
    # their arguments.  zeno_n4000 is a Zeno trace the CSV kernel writes.
    "zeno_n4000": (["three-level-zeno", "--omega", "0.05", "--eta", "-0.2", "--t-total", "5.0",
                    "--n", "4000"], None,
                   "9c48b01695ace1b2fae62e4db060842c181b30b4d2314b169ba4c1c6169f7986"),
    "zeno_n40000": (["three-level-zeno", "--omega", "0.05", "--eta", "-0.2", "--t-total", "5.0",
                     "--n", "40000"], None,
                    "ae87e741dc6e0b36e19229209da1dcb5f8f1bed9caf1a3789d20a6da0be43122"),
    "tunneling_g400": (["tunneling", "--omega", "0.05", "--eta", "-0.2", "--gamma", "400.0",
                        "--t-total", "5.0"], None,
                       "37e3a1b076e86719c3a5230a4b9d2d2dca349a9e9e4fd5e041626cf228403f05"),
    "no_zeno_10001": (["no-zeno"], {"omega": 0.05, "eta": -0.2, "t_total": 5.0, "samples": 10001},
                      "5c2781f23fafdee9b37454075be96a58cac44b1cd9b78136bc5727dd0acc9894"),
    "two_level_zeno_n400": (["two-level-zeno"], {"v": 0.05, "t_total": 5.0, "n": 400},
                            "ddde50c6a0d677a0239e3acb10541280bdc7a9c9e3db68c6a844236e75cad64d"),
    "two_level_zeno_n50": (["two-level-zeno"], {"v": 0.05, "t_total": 5.0, "n": 50},
                           "1807e496c937e49cd6f4a1287cacc11644c767e8334564c8247250ca9633119b"),
    "sweep_n_curve": (["sweep"], {"axis": "n",
                                  "axis_values": [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
                                  "omega": 0.05, "eta": -0.2, "t_total": 5.0},
                      "8176047360216549fb8463ee16b1997eaa566f24310e74e03dd52da911c36e58"),
    "sweep_gamma": (["sweep"], {"axis": "gamma", "axis_values": [20.0 * k for k in range(11)],
                                "omega": 0.05, "eta": -0.2, "t_total": 5.0},
                    "9a3d8102376ce133735032ac6b866e5dcc405a658e218760a3d880500d9449c2"),
    "sweep_n": (["sweep"], {"axis": "n",
                            "axis_values": [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000],
                            "omega": 0.05, "eta": -0.2, "t_total": 5.0, "gamma": 40.0},
                "ed79e39f9abbe661a4abf9f51e41b8033d1004b7cd20d8274f6dafd6e9f1f45f"),
    "sweep_omega": (["sweep"], {"axis": "omega", "axis_values": [0.01 * k for k in range(1, 11)],
                                "omega": 0.05, "eta": -0.2, "t_total": 5.0, "n": 400,
                                "gamma": 40.0},
                    "d6077e0e07cf497c48bf69eb69ef1b990d4b85fb4ccf296dd3727b8edef1d295"),
    # The benchmark's jobs that write no CSV.
    "ghz_summary": (["ghz", "--g", "0.02", "--g-tilde", "0.005"], None,
                    "14517bde9eb168df5f64e71d191e9f70a119a3a9d4f1e8bb1ad6d9c932e0f2fc"),
    "zeno_n50_summary": (["three-level-zeno", "--omega", "0.05", "--eta", "-0.2",
                          "--t-total", "5.0", "--n", "50"], None,
                         "29ac8a25c879481c95a18b353b455e2317091e799920fd5754f534a329bc5b5b"),
    "tunneling_g0_summary": (["tunneling", "--omega", "0.05", "--eta", "-0.2", "--gamma", "0.0",
                              "--t-total", "5.0"], None,
                             "e46d09ac694913b996df33559d6f7a9de25b5826c246613e54baa69a7d976b93"),
    "sweep_omega_summary": (["sweep"], {"axis": "omega", "axis_values": [0.02, 0.05],
                                        "omega": 0.05, "eta": -0.2, "t_total": 5.0, "n": 50},
                            "dccc757489ba2254a8c54f80c7ba80539f0f455276e58142010c5bb8c278413f"),
}

# The entries that write no CSV.
WRITES_NO_CSV = {"ncrit", "ghz_summary", "zeno_n50_summary", "tunneling_g0_summary",
                 "sweep_omega_summary"}


# The Zeno modes' bytes when every kept-state column is a product of binary
# powers of the kept block: the form run_zeno takes when its eigendecomposition
# is ill-conditioned.  EIGVEC_COND_MAX = -1 forces that fallback on both engine
# kernels; these modes run only run_zeno.  Their populations differ from the
# eigen modes' by at most 1.6e-15 (one W cell of two_level_zeno by 1.1e-16).
BINARY_POWERS_DIGESTS = {
    "three_level_zeno": "38c31bfd5e7e1fc79f05ebf335b9f505a676fadf2ee628049b3dc3b74aecf179",
    "two_level_zeno": "510078918e54e6dfd026a4a426ee0b8c2018b074781b5361f2c66987ed9dbc2b",
}


def output_digest(mode, tmp_path, capsys):
    argv, config, _ = BYTE_CONTRACT[mode]
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, **config)]
    if mode in WRITES_NO_CSV:
        assert main(argv) == 0
        blob = capsys.readouterr().out.encode()
    else:
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        blob = out.read_bytes()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("mode", sorted(BYTE_CONTRACT))
def test_output_bytes_are_pinned(mode, tmp_path, capsys):
    assert output_digest(mode, tmp_path, capsys) == BYTE_CONTRACT[mode][2]


@pytest.mark.parametrize("mode", sorted(BINARY_POWERS_DIGESTS))
def test_binary_powers_bytes_are_pinned(mode, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
    assert output_digest(mode, tmp_path, capsys) == BINARY_POWERS_DIGESTS[mode]


def run_python(argv, cwd, **kwargs):
    """Run `python ARGV` in a child with this package on its path."""
    src = os.path.dirname(os.path.dirname(zenosim.__file__))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"), **kwargs,
    )


def run_cli(args, cwd, **kwargs):
    """Run `python -m zenosim.cli ARGS` in a child with this package on its path."""
    return run_python(["-m", "zenosim.cli", *args], cwd, **kwargs)


def test_failed_write_leaves_the_earlier_file(tmp_path):
    # The file size limit makes the child's write fail part-way with EFBIG
    # (CPython ignores SIGXFSZ); the 20,001-row CSV is far past 64 KiB.
    limit = 64 * 1024
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    out = run_dir / "existing.csv"
    out.write_bytes(b"t,p1,p2,p3,W\n0,1,0,0,1\n")
    result = run_cli(
        ["tunneling", "--omega", "0.05", "--gamma", "40", "--t-total", "5", "--out", str(out)],
        tmp_path, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith(f"i/o error: failed writing {out}: ")
    assert out.read_bytes() == b"t,p1,p2,p3,W\n0,1,0,0,1\n"
    assert os.listdir(run_dir) == ["existing.csv"]


def test_a_repeated_config_key_is_a_config_error(tmp_path):
    # `json` alone keeps the last value, so this would run at gamma = 400.
    path = tmp_path / "dup.json"
    path.write_text('{"mode": "tunneling", "omega": 0.05, "gamma": 40.0, "gamma": 400.0, '
                    '"t_total": 5.0}', encoding="utf-8")
    out = tmp_path / "never.csv"
    result = run_cli(["tunneling", "--config", str(path), "--out", str(out)], tmp_path,
                     capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"config error: config {path} repeats key 'gamma'\n"
    assert not out.exists()


def test_a_config_nested_past_the_recursion_limit_is_a_config_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    result = run_cli(["tunneling", "--config", str(path)], tmp_path,
                     capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith(f"config error: config {path} is not valid JSON: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


# Runs whose phase |lambda| * t is past the float range: flags, config keys.
OVERFLOWING_PHASE = {
    "no_zeno": (["no-zeno", "--omega", "0.05", "--eta", "1e308", "--t-total", "5"], None),
    "three_level_zeno": (["three-level-zeno", "--omega", "0.05", "--eta", "1e308", "--n", "1",
                          "--t-total", "5"], None),
    "tunneling": (["tunneling", "--omega", "0.05", "--eta=-1e308", "--gamma", "1",
                   "--t-total", "5"], None),
    "sweep": (["sweep"], {"axis": "omega", "axis_values": [0.01, 0.02], "eta": 1e308,
                          "n": 2, "t_total": 5.0}),
    "ncrit": (["ncrit", "--omega", "0.05", "--eta", "1e308", "--t-total", "5"], {"n_max": 5}),
}


@pytest.mark.parametrize("mode", sorted(OVERFLOWING_PHASE))
def test_phase_past_the_float_range_is_one_runtime_error(mode, tmp_path):
    argv, config = OVERFLOWING_PHASE[mode]
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, **config)]
    if mode != "ncrit":  # ncrit writes no file
        argv = argv + ["--out", "out.csv"]
    result = run_cli(argv, tmp_path, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("runtime error: ")
    assert result.stderr.count("\n") == 1, result.stderr
    assert not (tmp_path / "out.csv").exists()


# Runs whose phase |lambda| * t is finite but 2**52 or more: its last place is
# a radian or more, so W would be pure rounding.
PHASE_WITH_NO_DIGIT_LEFT = {
    "no_zeno_1e17": ["no-zeno", "--omega", "0.05", "--t-total", "1e17"],
    "no_zeno_1e300": ["no-zeno", "--omega", "0.05", "--t-total", "1e300"],
    "three_level_zeno_1e17": ["three-level-zeno", "--omega", "0.05", "--n", "1",
                              "--t-total", "1e17"],
    # entangling time pi/(2|g - g_tilde|) = 1.4e16 at |lambda| = 1.5
    "ghz_near_equal_couplings": ["ghz", "--g", "1", "--g-tilde", "0.9999999999999999"],
}


@pytest.mark.parametrize("case", sorted(PHASE_WITH_NO_DIGIT_LEFT))
def test_phase_with_no_digit_left_is_one_runtime_error(case, tmp_path):
    argv = PHASE_WITH_NO_DIGIT_LEFT[case] + ["--out", "out.csv"]
    result = run_cli(argv, tmp_path, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("runtime error: ")
    assert "has no digit left" in result.stderr
    assert result.stderr.count("\n") == 1, result.stderr
    assert not (tmp_path / "out.csv").exists()


def test_phase_below_2_to_the_52_still_runs(capsys):
    # max |lambda| * T is about 2.2e15 here, below 2**52 = 4.5e15
    assert main(["no-zeno", "--omega", "0.05", "--t-total", "1e16"]) == 0
    assert capsys.readouterr().out.startswith("mode=no_zeno T=10000000000000000 W=")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_out_dev_stdout_into_a_file_keeps_the_summary(tmp_path):
    flags = ["no-zeno", "--omega", "0.05", "--t-total", "5"]
    assert main(flags + ["--out", str(tmp_path / "named.csv")]) == 0
    redirected = tmp_path / "redirected"
    with open(redirected, "wb") as fh:
        result = run_cli(flags + ["--out", "/dev/stdout"], tmp_path, stdout=fh)
    assert result.returncode == 0
    csv = (tmp_path / "named.csv").read_bytes()
    assert redirected.read_bytes() == csv + b"mode=no_zeno T=5 W=0.99820994523156426\n"


def test_module_entry_point(tmp_path):
    # end-to-end: separate interpreter, real exit code and stdout
    result = run_cli(["ghz", "--g", "0.02", "--g-tilde", "0.005"], tmp_path,
                     capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("mode=ghz")


def script_entry():
    """The `zenosim` console script's target, as pyproject.toml names it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["zenosim"]


def test_console_script_matches_the_module_entry_point(tmp_path):
    module, attr = script_entry().split(":")
    flags = ["no-zeno", "--omega", "0.05", "--t-total", "5", "--out", "out.csv"]
    by_module = run_cli(flags, tmp_path, capture_output=True)
    csv = (tmp_path / "out.csv").read_bytes()
    (tmp_path / "out.csv").unlink()
    # what an installed console script runs
    by_script = run_python(["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())",
                            *flags], tmp_path, capture_output=True)
    assert (by_module.returncode, by_module.stderr) == (0, b"")
    assert (by_script.returncode, by_script.stdout, by_script.stderr) \
        == (by_module.returncode, by_module.stdout, by_module.stderr)
    assert (tmp_path / "out.csv").read_bytes() == csv


# Runs the CLI as a process does, and notes the GC calls, every collection that
# starts, the first parse_args call (inside main) and the state at exit.
GC_PROBE = """
import argparse, atexit, gc, json, runpy, sys

events, log = [], sys.argv.pop(1)
def note(event):
    events.append(dict(event=event, enabled=gc.isenabled(), frozen=gc.get_freeze_count(),
                       numpy="numpy" in sys.modules))

def noting(name, fn):
    def wrapped(*args, **kwargs):
        note(name)
        return fn(*args, **kwargs)
    return wrapped

for name in ("disable", "freeze", "enable"):
    setattr(gc, name, noting(name, getattr(gc, name)))
argparse.ArgumentParser.parse_args = noting("main", argparse.ArgumentParser.parse_args)
gc.callbacks.append(lambda phase, info: phase == "start" and note("collect"))

@atexit.register
def write_log():
    note("exit")
    with open(log, "w") as fh:
        json.dump(events, fh)

ENTRY
"""


def entry_call(entry):
    """Python that runs the CLI as `python -m zenosim.cli` or as the console script."""
    if entry == "module":
        return "runpy.run_module('zenosim.cli', run_name='__main__', alter_sys=True)"
    module, attr = script_entry().split(":")
    return f"from {module} import {attr}; {attr}()"


@pytest.mark.parametrize("entry", ["module", "script"])
def test_cli_process_freezes_its_import_heap(entry, tmp_path):
    probe = GC_PROBE.replace("ENTRY", entry_call(entry))
    result = run_python(["-c", probe, str(tmp_path / "gc.json"), "ghz", "--g", "0.02",
                         "--g-tilde", "0.005"], tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("mode=ghz")
    events = json.loads((tmp_path / "gc.json").read_text())
    names = [event["event"] for event in events]
    first = {name: names.index(name) for name in ("disable", "freeze", "enable", "main", "exit")}
    assert list(first) == sorted(first, key=first.get)
    at = {name: events[index] for name, index in first.items()}
    assert not at["disable"]["numpy"] and at["freeze"]["numpy"]  # numpy imports in between
    assert "collect" not in names[first["disable"]:first["freeze"]]
    assert at["main"]["enabled"]  # the run's own cycles are collected
    assert at["exit"]["frozen"] > 10_000  # the import heap stays frozen to the end of the run


def test_in_process_main_leaves_the_gc_alone(capsys):
    state = gc.isenabled(), gc.get_freeze_count()
    assert main(["ghz", "--g", "0.02", "--g-tilde", "0.005"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == state


# Runs the CLI as a process does, and logs `atexit` when the exit handlers run
# and `finalize` when the interpreter state is cleared, late in its teardown.
# The audit hook binds what it calls: module globals are gone by then.
EXIT_PROBE = """
import atexit, os, runpy, sys

fd = os.open(sys.argv.pop(1), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
atexit.register(lambda: os.write(fd, b"atexit "))

def finalize(event, args, write=os.write, fd=fd):
    if event == "cpython.PyInterpreterState_Clear":
        write(fd, b"finalize ")

sys.addaudithook(finalize)
ENTRY
"""


@pytest.mark.parametrize("entry", ["module", "script"])
def test_cli_process_runs_exit_handlers_and_skips_teardown(entry, tmp_path):
    log = tmp_path / "exit.log"
    result = run_python(["-c", EXIT_PROBE.replace("ENTRY", entry_call(entry)), str(log), "ghz",
                         "--g", "0.02", "--g-tilde", "0.005"], tmp_path,
                        capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "mode=ghz T=104.71975511965978 W=0.99999999999999767\n"
    assert log.read_text().split() == ["atexit"]


def test_cli_import_builds_no_dataclasses(tmp_path):
    probe = ("import sys, numpy, argparse; before = set(sys.modules); import zenosim.cli; "
             "print(sorted(m for m in set(sys.modules) - before if 'dataclass' in m))")
    result = run_python(["-c", probe], tmp_path, capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "[]\n")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("stdout", ["full", "closed-pipe"])
def test_failed_summary_write_is_an_io_error(stdout, unbuffered, tmp_path, monkeypatch):
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if stdout == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        sink = open("/dev/full", "wb")
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe fails with EPIPE
        sink = os.fdopen(write_end, "wb")
    with sink:
        result = run_cli(["ghz", "--g", "0.02", "--g-tilde", "0.005"], tmp_path, stdout=sink,
                         stderr=subprocess.PIPE, text=True)
    assert result.returncode == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: "), result.stderr
