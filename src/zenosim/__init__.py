"""Measurement-driven leakage suppression in driven qubits.

Simulates a resonantly driven three-level qubit whose leak level is either
measured projectively (repeated ideal checks), monitored continuously (a
decaying level), or left alone, plus the single-step three-qubit GHZ
preparation on coupled ideal qubits.  All rates in rad/ns, hbar = 1.
"""

from .engine import (
    DegenerateProjectionError,
    PhysicsError,
    SimulationTrace,
    ZenoSchedule,
    perturbative_step,
    run_tunneling,
    run_unitary,
    run_zeno,
    two_level_survival_closed_form,
)
from .ghz import (
    GhzDiagnostics,
    entangling_time,
    ghz_fidelity,
    rotation_pulse,
    run_ghz_protocol,
)
from .linalg import apply, is_hermitian, kron, mat_exp
from .models import (
    ModelSpec,
    build_ghz_hamiltonian,
    build_three_level,
    build_three_level_ideal,
    build_tunneling,
    build_two_level,
)
from .report import (
    ConfigError,
    ScenarioConfig,
    SweepResult,
    emit_sweep_csv,
    emit_trace_csv,
    find_n_crit,
    load_config,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "mat_exp", "apply", "kron", "is_hermitian",
    "ModelSpec", "build_two_level", "build_three_level", "build_three_level_ideal",
    "build_tunneling", "build_ghz_hamiltonian",
    "ZenoSchedule", "SimulationTrace",
    "PhysicsError", "DegenerateProjectionError",
    "two_level_survival_closed_form",
    "run_unitary", "run_zeno", "run_tunneling",
    "perturbative_step",
    "GhzDiagnostics", "rotation_pulse", "entangling_time",
    "run_ghz_protocol", "ghz_fidelity",
    "ConfigError", "ScenarioConfig", "SweepResult",
    "load_config", "find_n_crit", "sweep",
    "emit_trace_csv", "emit_sweep_csv", "run_scenario",
]
