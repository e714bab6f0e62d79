"""Single-step GHZ preparation on three identical coupled qubits.

The protocol applies a simultaneous Y rotation by pi/2 to all qubits
(producing the uniform superposition of the eight computational states),
lets the XY + ZZ couplings act for t = pi / (2 |g - g_tilde|), and closes
with a simultaneous X rotation by pi/2.  Up to a global phase the result is
(|000> + e^{i phi} |111>)/sqrt(2); the diagnostics quantify how exactly.

Rotations are modeled as instantaneous ideal unitaries with the couplings
off; the couplings act only during the entangling step with the drives off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import apply, kron, mat_exp
from .models import SIGMA_X, SIGMA_Y, build_ghz_hamiltonian

__all__ = [
    "GhzDiagnostics",
    "rotation_pulse",
    "entangling_time",
    "coupling_hamiltonian",
    "run_ghz_protocol",
    "ghz_fidelity",
]


@dataclass(frozen=True)
class GhzDiagnostics:
    """How close a three-qubit state is to a GHZ state.

    fidelity              |<GHZ|psi>|^2 maximized over the relative phase
                          between |000> and |111>, i.e. (|a_000|+|a_111|)^2/2
    uniformity_deviation  max_k | |a_k|^2 - 1/8 |
    global_phase          argument of the largest-magnitude amplitude (rad)
    """

    fidelity: float
    uniformity_deviation: float
    global_phase: float


def rotation_pulse(axis: str, theta: float) -> np.ndarray:
    """Simultaneous single-qubit rotation exp(-i theta/2 sigma_axis) on all
    three qubits, as an 8x8 unitary."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    generators = {"x": SIGMA_X, "y": SIGMA_Y}
    key = str(axis).lower()
    if key not in generators:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    single = mat_exp(generators[key], -0.5j * theta)
    return kron(kron(single, single), single)


def entangling_time(g: float, g_tilde: float) -> float:
    """Entangling duration pi / (2 |g - g_tilde|) in ns."""
    if not (math.isfinite(g) and math.isfinite(g_tilde)):
        raise ValueError("couplings must be finite")
    if g == g_tilde:
        raise ValueError("entangling time diverges for g == g_tilde")
    return math.pi / (2.0 * abs(g - g_tilde))


def coupling_hamiltonian(g: float, g_tilde: float) -> np.ndarray:
    """Coupling-only Hamiltonian (all drives off)."""
    return build_ghz_hamiltonian(np.zeros((3, 3)), g, g_tilde)


def run_ghz_protocol(g: float, g_tilde: float) -> tuple[np.ndarray, GhzDiagnostics]:
    """Run X_{pi/2} U_int Y_{pi/2} on |000> and diagnose the result."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    psi = apply(rotation_pulse("y", math.pi / 2), psi)
    entangle = mat_exp(coupling_hamiltonian(g, g_tilde), -1j * entangling_time(g, g_tilde))
    psi = apply(entangle, psi)
    psi = apply(rotation_pulse("x", math.pi / 2), psi)
    return psi, ghz_fidelity(psi)


def ghz_fidelity(psi) -> GhzDiagnostics:
    """Diagnostics of a normalized 8-dimensional state vector."""
    v = np.asarray(psi, dtype=complex)
    if v.shape != (8,):
        raise ValueError(f"state must have dim 8, got shape {v.shape}")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized, got norm {nrm}")
    probs = np.abs(v) ** 2
    fidelity = 0.5 * (abs(v[0]) + abs(v[7])) ** 2
    uniformity_deviation = float(np.max(np.abs(probs - 0.125)))
    global_phase = float(np.angle(v[int(np.argmax(np.abs(v)))]))
    return GhzDiagnostics(
        fidelity=float(fidelity),
        uniformity_deviation=uniformity_deviation,
        global_phase=global_phase,
    )
