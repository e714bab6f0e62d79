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
        out = capsys.readouterr().out
        assert float(out.strip().split("W=")[1]) >= 1.0 - 1e-9

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


# sha256 of the bytes each run writes: its CSV, or for ncrit its stdout.
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
}


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
    if mode == "ncrit":
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


def run_cli(args, cwd, **kwargs):
    """Run `python -m zenosim.cli ARGS` in a child with this package on its path."""
    src = os.path.dirname(os.path.dirname(zenosim.__file__))
    return subprocess.run(
        [sys.executable, "-m", "zenosim.cli", *args], cwd=cwd, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"), **kwargs,
    )


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
