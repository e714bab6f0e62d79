"""Measurement-driven leakage suppression in driven qubits.

Simulates a resonantly driven three-level qubit whose leak level is either
measured projectively (repeated ideal checks), monitored continuously (a
decaying level), or left alone, plus the single-step three-qubit GHZ
preparation on coupled ideal qubits.  All rates in rad/ns, hbar = 1.

The package imports lazily (PEP 562): `import zenosim` loads no numpy, and
each exported name imports its module on first access.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": ("mat_exp", "is_hermitian"),
    "models": ("build_two_level", "build_three_level", "build_tunneling",
               "build_ghz_hamiltonian"),
    "engine": ("ZenoSchedule", "SimulationTrace", "PhysicsError", "DegenerateProjectionError",
               "two_level_survival_closed_form", "run_unitary", "run_zeno", "run_tunneling",
               "perturbative_step"),
    "ghz": ("GhzDiagnostics", "rotation_pulse", "entangling_time", "run_ghz_protocol",
            "ghz_fidelity"),
    "report": ("ConfigError", "ScenarioConfig", "SweepResult", "load_config", "find_n_crit",
               "sweep", "emit_trace_csv", "emit_sweep_csv", "run_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _script():
    """The `zenosim` console script: runs `zenosim.cli` as `__main__`, as
    `python -m zenosim.cli` does, so both take the CLI's GC policy."""
    import runpy

    runpy.run_module("zenosim.cli", run_name="__main__", alter_sys=True)
