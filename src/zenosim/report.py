"""Scenario configuration, dispatch, CSV emission and parameter sweeps.

Configs are flat JSON objects with an explicit per-mode schema; unknown and
misplaced keys are rejected up front so a typo in a physics parameter can
never run silently.  Each mode is one entry of `_MODES`: the keys it
accepts and requires, a check that may resolve derived values, and the
runner that emits its CSV and returns its summary.  The coerced values fill
`ScenarioConfig` by key name.  All numeric output has 17 significant digits,
which round-trips float64 exactly and keeps regression diffs meaningful.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import sys
from dataclasses import dataclass, fields
from typing import Callable, Iterable

import numpy as np

from .engine import (
    DEFAULT_SAMPLES,
    PhysicsError,
    SimulationTrace,
    ZenoSchedule,
    _check_count,
    default_tunneling_steps,
    run_tunneling,
    run_unitary,
    run_zeno,
)
from .ghz import entangling_time, run_ghz_protocol
from .models import ModelSpec, _register, build_three_level, build_tunneling, build_two_level

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepResult",
    "MODES",
    "SWEEP_AXES",
    "load_config",
    "validate_config",
    "find_n_crit",
    "sweep",
    "emit_trace_csv",
    "emit_sweep_csv",
    "run_scenario",
]

class ConfigError(ValueError):
    """Invalid scenario configuration."""


# The most rows one engine run of a scenario may build; a config above it is
# rejected before any allocation.  A Zeno run holds its survival, 8 bytes per
# row, 16 MB at the limit; a unitary or tunneling run holds nothing per row.
# A run written by the CLI forms one block of rows at a time.
MAX_TRACE_ROWS = 2_000_000


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: the physics in `model`, each other attribute named after its key."""

    mode: str
    model: ModelSpec
    schedule: ZenoSchedule | None = None
    t_total: float | None = None
    n: int | None = None
    samples: int = DEFAULT_SAMPLES
    steps: int | None = None
    out: str | None = None
    gamma: float | None = None
    axis: str | None = None
    axis_values: tuple[float, ...] | None = None
    n_max: int | None = None


@dataclass
class SweepResult:
    """One (w_zeno, w_no_zeno, w_tunnel) survival tuple per grid point, in grid
    order; None where the variant is undefined."""

    axis: str
    grid: tuple
    records: list


def _coerce_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"key {key!r} must be finite, got {out!r}")
    return out


def _coerce_int(key: str, value) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"key {key!r} must be an integer, got {value!r}")


def _coerce_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key {key!r} must be a string, got {value!r}")
    return value


def _coerce_path(key: str, value) -> str:
    if _coerce_str(key, value) == "":
        raise ConfigError(f"key {key!r} must be a non-empty path")
    return value


def _coerce_float_list(key: str, value) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key {key!r} must be a non-empty list of numbers")
    return tuple(_coerce_float(key, x) for x in value)


# Every config key the schema knows, with its coercion; any other key is unknown.
_COERCE = {
    **dict.fromkeys(
        ("omega", "phi", "eta", "gamma", "v", "g", "g_tilde", "dt", "t_total"), _coerce_float
    ),
    **dict.fromkeys(("n", "samples", "steps", "n_max"), _coerce_int),
    **dict.fromkeys(("mode", "axis"), _coerce_str),
    "out": _coerce_path,
    "axis_values": _coerce_float_list,
}

# Keys each sweep axis needs besides `axis` and `axis_values`.
_SWEEP_AXIS_REQUIRED = {
    "n": {"omega", "t_total"},
    "gamma": {"omega", "t_total"},
    "omega": {"t_total"},
    "dt": {"omega", "n"},
}

SWEEP_AXES = tuple(_SWEEP_AXIS_REQUIRED)


def _resolve_schedule(values: dict) -> None:
    """Zeno modes take exactly one of dt and t_total; resolve `schedule` and `t_total` from n."""
    if ("dt" in values) == ("t_total" in values):
        raise ConfigError(f"mode {values['mode']!r} needs exactly one of 'dt' or 't_total'")
    dt = values["dt"] if "dt" in values else values["t_total"] / values["n"]
    try:
        schedule = ZenoSchedule(n=values["n"], dt=dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    values["schedule"], values["t_total"] = schedule, schedule.t_total


def _check_ghz(values: dict) -> None:
    if values["g"] == values["g_tilde"]:
        raise ConfigError("ghz requires g != g_tilde (entangling time diverges)")


def _check_sweep(values: dict) -> None:
    axis = values["axis"]
    if axis not in SWEEP_AXES:
        raise ConfigError(f"invalid sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
    need = _SWEEP_AXIS_REQUIRED[axis] - values.keys()
    if need:
        raise ConfigError(f"sweep over {axis!r} requires keys {sorted(need)}")
    if axis == "dt" and "t_total" in values:
        raise ConfigError("sweep over 'dt' takes no 't_total': each point runs to T = n*dt")
    diffs = np.diff(values["axis_values"])
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("axis_values must be strictly monotone")
    for x in values["axis_values"]:
        if axis == "n" and (x < 1 or not float(x).is_integer()):
            raise ConfigError(f"n grid values must be positive integers, got {x!r}")
        if axis == "dt" and x <= 0:
            raise ConfigError(f"dt grid values must be positive, got {x!r}")
        if axis == "dt" and not math.isfinite(values["n"] * x):
            raise ConfigError(f"n*dt must be finite, got n={values['n']} dt={x!r}")
        if axis in ("omega", "gamma") and x < 0:
            raise ConfigError(f"{axis} grid values must be >= 0, got {x!r}")


def validate_config(raw: dict) -> ScenarioConfig:
    """Validate a flat key-value mapping against the per-mode schema."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    if "mode" not in raw:
        raise ConfigError(f"missing required key 'mode'; one of {', '.join(MODES)}")
    mode = _coerce_str("mode", raw["mode"])
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")

    entry = _MODES[mode]
    for key in raw:
        if key not in _COERCE:
            raise ConfigError(f"unknown config key: {key!r}")
        if key != "mode" and key not in entry.keys:
            raise ConfigError(f"key {key!r} is not accepted by mode {mode!r}")
    values = {k: _COERCE[k](k, v) for k, v in raw.items()}

    missing = entry.required - values.keys()
    if missing:
        raise ConfigError(
            f"mode {mode!r} requires keys {sorted(entry.required)}; "
            f"missing {sorted(missing)}"
        )

    # Every count a run uses is resolved, checked and budgeted before the
    # mode's own check, which does float arithmetic with n.
    if "samples" in entry.keys:
        values.setdefault("samples", DEFAULT_SAMPLES)
    if "steps" in entry.keys and "steps" not in values:
        try:
            values["steps"] = default_tunneling_steps(values["gamma"], values["t_total"])
        except ValueError:  # 100 * gamma * t_total is past the float range
            values["steps"] = math.inf
    if values.get("samples", 2) < 2:
        raise ConfigError("samples must be >= 2")
    for key in ("n", "steps", "n_max"):
        if key in values and values[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {values[key]}")

    # A run builds one row more than its intervals; an n grid stands in for n,
    # and the end-value runs of sweep and ncrit have one interval.
    grid = values["axis_values"] if values.get("axis") == "n" else [values.get("n", 1)]
    rows = 1 + max(*map(int, grid), values.get("steps", 1), values.get("samples", 2) - 1,
                   values.get("n_max", 1))
    if rows > MAX_TRACE_ROWS:
        try:
            count = str(rows)
        except ValueError:  # more digits than an int may be printed with
            count = "inf"
        raise ConfigError(
            f"mode {mode!r} would build {count} rows in one run; the limit is {MAX_TRACE_ROWS}"
        )

    entry.check(values)
    if values.get("t_total", 1) <= 0:
        raise ConfigError("t_total must be positive")

    try:
        # Physical keys are named as ModelSpec fields; absent ones take its defaults.
        physics = {f.name: values[f.name] for f in fields(ModelSpec) if f.name in values}
        model = ModelSpec(**physics)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    kept = {f.name: values[f.name] for f in fields(ScenarioConfig) if f.name in values}
    return ScenarioConfig(model=model, **kept)


def load_config(path) -> ScenarioConfig:
    """Parse and validate a JSON scenario file."""
    return validate_config(_load_raw(path))


def _load_raw(path) -> dict:
    import json  # only a run with --config reads JSON; numpy does not import it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to read
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a flat JSON object")
    return raw


def _ground_state(dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


def find_n_crit(model: ModelSpec, t_total: float, n_max: int) -> SimulationTrace | None:
    """Zeno trace of the smallest measurement count n >= 2 whose survival
    matches or beats the unmeasured single-shot survival at the same total
    time (n is its row count less one); None if no n <= n_max qualifies
    (always when n_max = 1).

    n = 1 is left out: one check at T is the unmeasured run read out at T, so
    its survival equals the baseline exactly and only rounding would decide
    the comparison.  Linear scan from n = 2: the survival is not monotone at
    small n in general, so bisection would be unsound.
    """
    n_max = _check_count("n_max", n_max)
    h = build_three_level(model.omega, model.phi, model.eta)
    psi0 = _ground_state(3)
    baseline = float(run_unitary(h, psi0, t_total, samples=2).final_survival)
    for n in range(2, n_max + 1):
        trace = run_zeno(h, psi0, ZenoSchedule(n=n, dt=t_total / n))
        if trace.final_survival >= baseline:
            return trace
    return None


def sweep(cfg: ScenarioConfig) -> SweepResult:
    """Run the engine along the configured axis, one tuple per grid point.

    Each tuple (w_zeno, w_no_zeno, w_tunnel) carries every survival variant
    the configuration defines: w_no_zeno always, w_zeno when a measurement
    count is available, w_tunnel when a tunneling rate is available.  Points
    run in grid order.
    """
    if cfg.mode != "sweep":
        raise ConfigError(f"sweep needs a sweep-mode config, got {cfg.mode!r}")
    model = cfg.model
    psi0 = _ground_state(3)

    # Each variant is cached on the values it depends on: w_zeno on
    # (omega, n, dt), w_no_zeno on (omega, T) and w_tunnel on (omega, gamma, T),
    # so grid points that share those values share one run.
    @functools.cache
    def w_zeno(omega: float, n: int, dt: float) -> float:
        h = build_three_level(omega, model.phi, model.eta)
        return float(run_zeno(h, psi0, ZenoSchedule(n=n, dt=dt)).final_survival)

    @functools.cache
    def w_no_zeno(omega: float, t_total: float) -> float:
        h = build_three_level(omega, model.phi, model.eta)
        return float(run_unitary(h, psi0, t_total, samples=2).final_survival)

    @functools.cache
    def w_tunnel(omega: float, gamma: float, t_total: float) -> float:
        h = build_tunneling(omega, model.eta, gamma)
        return float(run_tunneling(h, psi0, t_total, steps=1).final_survival)

    records = []
    for value in cfg.axis_values:
        omega = value if cfg.axis == "omega" else model.omega
        gamma = value if cfg.axis == "gamma" else cfg.gamma
        n = int(value) if cfg.axis == "n" else cfg.n
        t_total = n * value if cfg.axis == "dt" else cfg.t_total

        zeno = None if n is None else w_zeno(omega, n, value if cfg.axis == "dt" else t_total / n)
        records.append((zeno, w_no_zeno(omega, t_total),
                        None if gamma is None else w_tunnel(omega, gamma, t_total)))
    return SweepResult(axis=cfg.axis, grid=tuple(cfg.axis_values), records=records)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header: str, chunks: Iterable[str]) -> None:
    """Write `header`, a newline and then each text chunk to `path`.

    A regular or missing target is written to a new file beside it that then
    replaces it, so a write that fails in this process leaves no partial file
    and any earlier file untouched; a symlink is followed first, a new file
    gets the mode `open(path, "w")` would give it, and an old one keeps its
    mode.  Any other target (a FIFO, a device, a pipe reached through
    `/dev/fd/N`) is written in place, as is a file whose resolved name no
    longer leads to it.  A target that is this process's stdout is written
    through `sys.stdout`, so the summary printed after it follows the CSV.
    """
    tmp = None
    try:
        # Stat the path as given: a /dev/fd/N link to a pipe resolves to no name.
        try:
            st = os.stat(path)
        except FileNotFoundError:
            st = None
        target = os.path.realpath(path)
        if st is not None and _is_file(1, st):
            fh = contextlib.nullcontext(sys.stdout)
        elif st is not None and not (stat.S_ISREG(st.st_mode) and _is_file(target, st)):
            fh = open(path, "w", encoding="utf-8", newline="")
        else:
            tmp = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            fh = open(fd, "w", encoding="utf-8", newline="")
        with fh as out:
            if tmp is not None and st is not None:
                os.fchmod(out.fileno(), stat.S_IMODE(st.st_mode))
            out.write(header + "\n")
            out.writelines(chunks)
            out.flush()
        if tmp is not None:
            os.replace(tmp, target)
            tmp = None
    except OSError as exc:
        # Name the target, not the file beside it.
        reason = exc if exc.filename is None else OSError(exc.errno, exc.strerror, os.fspath(path))
        raise OSError(f"failed writing {path}: {reason}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _is_file(target, st: os.stat_result) -> bool:
    """Whether `target`, a path or a file descriptor, is the file `st` describes."""
    try:
        return os.path.samestat(os.stat(target), st)
    except OSError:
        return False


def emit_trace_csv(trace: SimulationTrace, path) -> None:
    """Write a trace as `t,p1,p2,p3,W` rows (LF newlines, 17 significant
    digits, no trailing blank line); two-level traces pad p3 with zero.
    A trace of one block (at most 1,025 rows) is written a row at a time with
    `%.17g`, which costs less than the CSV kernel's import and first call.
    Only a longer trace imports the kernel; each of its blocks is formed and
    then written by one kernel call, on one workspace that the kernel keeps
    from block to block, so the working set (about 0.75 MB) does not grow
    with the trace.  Both write the same bytes."""
    if trace.dim > 3:
        raise ValueError(f"trace CSV holds at most three levels, got dim {trace.dim}")
    pad = 3 - trace.dim
    if len(trace._bounds) == 1:
        times, populations, survival = next(trace.blocks())
        rows = (
            "%.17g,%.17g,%.17g,%.17g,%.17g\n" % (t, *p, *[0.0] * pad, w)
            for t, p, w in zip(times.tolist(), populations.tolist(), survival.tolist()))
    else:
        # Imported here, so that only a run that writes a trace of more than
        # one block compiles it.
        from ._g17 import format_block

        work = {}
        rows = (
            format_block(np.stack([t, *populations.T, *[np.broadcast_to(0.0, len(t))] * pad,
                                   survival], axis=1, dtype=float), work)
            for t, populations, survival in trace.blocks())
    _write_csv(path, "t,p1,p2,p3,W", rows)


def emit_sweep_csv(result: SweepResult, path) -> None:
    """Write sweep tuples as `axis_value,w_zeno,w_no_zeno,w_tunnel` rows;
    undefined variants are left empty."""
    _write_csv(path, "axis_value,w_zeno,w_no_zeno,w_tunnel", (
        ",".join([_fmt(value)] + ["" if w is None else _fmt(w) for w in rec]) + "\n"
        for value, rec in zip(result.grid, result.records)
    ))


def _emit_ghz_csv(psi: np.ndarray, path) -> None:
    _write_csv(path, "basis,re,im,p", (
        f"{''.join(map(str, row))},{_fmt(amp.real)},{_fmt(amp.imag)},{_fmt(abs(amp) ** 2)}\n"
        for row, amp in zip(_register(round(len(psi) ** (1 / 3))).tolist(), psi)
    ))


def _emit_trace(cfg: ScenarioConfig, trace: SimulationTrace) -> str:
    if cfg.out:
        emit_trace_csv(trace, cfg.out)
    return f"T={_fmt(cfg.t_total)} W={_fmt(trace.final_survival)}"


# Runners look the engine, builders and emitters up by module-level name at
# call time, so a caller may wrap those names (as a tracer does).
def _run_two_level_zeno(cfg: ScenarioConfig) -> str:
    h = build_two_level(cfg.model.v)
    return _emit_trace(cfg, run_zeno(h, _ground_state(2), cfg.schedule))


def _run_three_level_zeno(cfg: ScenarioConfig) -> str:
    model = cfg.model
    h = build_three_level(model.omega, model.phi, model.eta)
    return _emit_trace(cfg, run_zeno(h, _ground_state(3), cfg.schedule))


def _run_no_zeno(cfg: ScenarioConfig) -> str:
    model = cfg.model
    h = build_three_level(model.omega, model.phi, model.eta)
    return _emit_trace(cfg, run_unitary(h, _ground_state(3), cfg.t_total, samples=cfg.samples))


def _run_tunneling(cfg: ScenarioConfig) -> str:
    model = cfg.model
    h = build_tunneling(model.omega, model.eta, model.gamma)
    return _emit_trace(cfg, run_tunneling(h, _ground_state(3), cfg.t_total, steps=cfg.steps))


def _run_ghz(cfg: ScenarioConfig) -> str:
    model = cfg.model
    psi, diag = run_ghz_protocol(model.g, model.g_tilde)
    duration = entangling_time(model.g, model.g_tilde)
    if cfg.out:
        _emit_ghz_csv(psi, cfg.out)
    return f"T={_fmt(duration)} W={_fmt(diag.fidelity)}"


def _run_sweep(cfg: ScenarioConfig) -> str:
    result = sweep(cfg)
    if cfg.out:
        emit_sweep_csv(result, cfg.out)
    w_zeno, w_no_zeno, w_tunnel = result.records[-1]
    w = next(x for x in (w_zeno, w_tunnel, w_no_zeno) if x is not None)
    t_part = f" T={_fmt(cfg.t_total)}" if cfg.t_total is not None else ""
    return f"axis={result.axis} points={len(result.grid)}{t_part} W={_fmt(w)}"


def _run_ncrit(cfg: ScenarioConfig) -> str:
    trace = find_n_crit(cfg.model, cfg.t_total, cfg.n_max)
    if trace is None:
        return f"T={_fmt(cfg.t_total)} n_crit=none"
    # A Zeno trace has a row per check and one more.
    return f"T={_fmt(cfg.t_total)} n_crit={trace.rows - 1} W={_fmt(trace.final_survival)}"


@dataclass(frozen=True)
class _Mode:
    """One mode: its one-line help, the keys it accepts besides `mode`, the keys
    it requires, the runner that writes its CSV (when `out` is set) and returns
    the summary after `mode=<name>`, and a check of the coerced values that
    may resolve derived values into them (a Zeno mode's schedule)."""

    help: str
    keys: set[str]
    required: set[str]
    run: Callable[[ScenarioConfig], str]
    check: Callable[[dict], None] = lambda values: None


_MODES = {
    "two_level_zeno": _Mode("two-level toy model under repeated projective checks",
                            {"v", "n", "dt", "t_total", "out"}, {"v", "n"},
                            _run_two_level_zeno, _resolve_schedule),
    "three_level_zeno": _Mode("driven three-level qubit under repeated leak measurements",
                              {"omega", "phi", "eta", "n", "dt", "t_total", "out"},
                              {"omega", "n"}, _run_three_level_zeno, _resolve_schedule),
    "no_zeno": _Mode("exact unmeasured evolution of the driven three-level qubit",
                     {"omega", "phi", "eta", "t_total", "samples", "out"},
                     {"omega", "t_total"}, _run_no_zeno),
    "tunneling": _Mode("continuous measurement via a decaying top level",
                       {"omega", "eta", "gamma", "t_total", "steps", "out"},
                       {"omega", "gamma", "t_total"}, _run_tunneling),
    "ghz": _Mode("single-step three-qubit GHZ preparation",
                 {"g", "g_tilde", "out"}, {"g", "g_tilde"}, _run_ghz, _check_ghz),
    "sweep": _Mode("survival probabilities along a parameter grid",
                   {"axis", "axis_values", "omega", "phi", "eta", "gamma", "n", "t_total",
                    "out"}, {"axis", "axis_values"}, _run_sweep, _check_sweep),
    # ncrit has no file output, so it takes no `out`.
    "ncrit": _Mode("smallest measurement count beating the unmeasured survival",
                   {"omega", "phi", "eta", "t_total", "n_max"},
                   {"omega", "t_total", "n_max"}, _run_ncrit),
}

# Each mode name, in declaration order, with its one-line description.
MODES = {name: mode.help for name, mode in _MODES.items()}


def run_scenario(config_path=None, mode: str | None = None,
                 overrides: dict | None = None) -> int:
    """Run one scenario; returns the process exit status.

    0 success, 1 config error, 2 runtime/physics error, 3 I/O error.
    A config file, CLI-style overrides, or both may be given; overrides win.
    A mode given alongside a config must match the config's own mode.
    """
    try:
        raw = _load_raw(config_path) if config_path is not None else {}
        if mode is not None:
            if "mode" in raw and raw["mode"] != mode:
                raise ConfigError(
                    f"mode mismatch: command says {mode!r}, config says {raw['mode']!r}"
                )
            raw["mode"] = mode
        for key, value in (overrides or {}).items():
            if value is not None:
                raw[key] = value
        cfg = validate_config(raw)
        summary = f"mode={cfg.mode} {_MODES[cfg.mode].run(cfg)}"
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (PhysicsError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(summary)
    return 0
