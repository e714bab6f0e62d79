"""The benchmark's tracer still finds every function it wraps.

bench/traced_child.py wraps layer functions by the names their callers look
them up by (`report.run_zeno`, `models.kron`, `ghz.build_ghz_hamiltonian`,
...). A change that drops or bypasses one of those names breaks a traced
benchmark run, or silently loses its spans; each mode is run through the
tracer here on a small input and the spans it records are counted.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenosim

TRACED_CHILD = Path(__file__).resolve().parent.parent / "bench" / "traced_child.py"

# Spans every traced run records around the CLI itself.
CLI_SPANS = {"cli.import": 1, "cli.main": 1, "report.run_scenario": 1, "report.validate": 1}

# Each mode: flags, config keys (or None), and the layer spans its run records.
MODES = {
    "two_level_zeno": (
        ["two-level-zeno", "--n", "5", "--t-total", "1", "--out", "out.csv"], {"v": 0.1},
        {"models.build": 1, "engine.zeno": 1, "linalg.mat_exp": 1, "report.emit": 1}),
    "three_level_zeno": (
        ["three-level-zeno", "--omega", "0.05", "--n", "5", "--t-total", "1",
         "--out", "out.csv"], None,
        {"models.build": 1, "engine.zeno": 1, "linalg.mat_exp": 1, "report.emit": 1}),
    "no_zeno": (
        ["no-zeno", "--omega", "0.05", "--t-total", "1", "--out", "out.csv"], None,
        {"models.build": 1, "engine.unitary": 1, "report.emit": 1}),
    "tunneling": (
        ["tunneling", "--omega", "0.05", "--gamma", "1", "--t-total", "1",
         "--out", "out.csv"], None,
        {"models.build": 1, "engine.tunneling": 1, "report.emit": 1}),
    # Two rotations of three single-qubit factors: 4 kron calls; the coupling
    # Hamiltonian is built entry by entry, without any.
    "ghz": (
        ["ghz", "--g", "0.02", "--g-tilde", "0.005", "--out", "out.csv"], None,
        {"ghz.protocol": 1, "models.ghz_build": 1, "linalg.kron": 4, "linalg.mat_exp": 3,
         "linalg.apply": 3, "report.emit": 1}),
    # Per point: a tunneling end value; the Zeno run and w_no_zeno are shared.
    "sweep": (
        ["sweep", "--out", "out.csv"],
        {"axis": "gamma", "axis_values": [0.0, 40.0], "omega": 0.05, "t_total": 5.0, "n": 4},
        {"report.sweep": 1, "models.build": 4, "engine.zeno": 1, "linalg.mat_exp": 1,
         "engine.unitary": 1, "engine.tunneling": 2, "report.emit": 1}),
    "ncrit": (
        ["ncrit", "--omega", "0.05", "--t-total", "5"], {"n_max": 5},
        {"models.build": 1, "engine.unitary": 1, "engine.zeno": 1, "linalg.mat_exp": 1}),
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_traced_run_records_its_layers(mode, tmp_path):
    argv, config, layers = MODES[mode]
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(config_path)]
    src = os.path.dirname(os.path.dirname(zenosim.__file__))
    result = subprocess.run(
        [sys.executable, str(TRACED_CHILD), "spans.json", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(f"mode={mode} ")
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert collections.Counter(span[0] for span in spans) == {**CLI_SPANS, **layers}
