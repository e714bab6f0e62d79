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
from typing import NamedTuple

import numpy as np

# `apply` and `kron` are unused here; bench/traced_child.py wraps them by name.
from .linalg import _as_vector, apply, kron, mat_exp  # noqa: F401
from .models import SIGMA_X, SIGMA_Y, _register, build_ghz_hamiltonian

__all__ = [
    "GhzDiagnostics",
    "rotation_pulse",
    "entangling_time",
    "run_ghz_protocol",
    "ghz_fidelity",
]


class GhzDiagnostics(NamedTuple):
    """How close a three-qubit state is to a GHZ state.

    fidelity              |<GHZ|psi>|^2 maximized over the relative phase
                          between |000> and |111>, i.e. (|a_000|+|a_111|)^2/2
    uniformity_deviation  max_k | |a_k|^2 - 1/8 | over the computational states
    global_phase          argument of the largest computational amplitude (rad)
    """

    fidelity: float
    uniformity_deviation: float
    global_phase: float


def rotation_pulse(axis: str, theta: float) -> np.ndarray:
    """Simultaneous single-qubit rotation exp(-i theta/2 sigma_axis) on all
    three qubits, as an 8x8 unitary."""
    generator = {"x": SIGMA_X, "y": SIGMA_Y}.get(str(axis).lower())
    if generator is None:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    single = mat_exp(generator, -0.5j * theta)
    # Each entry multiplies the qubits' factors in np.kron's order, (q1 q2) q3.
    q1, q2, q3 = _register(len(single)).T
    return single[np.ix_(q1, q1)] * single[np.ix_(q2, q2)] * single[np.ix_(q3, q3)]


def entangling_time(g: float, g_tilde: float) -> float:
    """Entangling duration pi / (2 |g - g_tilde|) in ns."""
    if not (math.isfinite(g) and math.isfinite(g_tilde)):
        raise ValueError("couplings must be finite")
    if g == g_tilde:
        raise ValueError("entangling time diverges for g == g_tilde")
    duration = math.pi / (2.0 * abs(g - g_tilde))
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"entangling time pi / (2|g - g_tilde|) = {duration} is not finite "
                         f"and positive for g = {g!r}, g_tilde = {g_tilde!r}")
    return duration


def run_ghz_protocol(g: float, g_tilde: float) -> tuple[np.ndarray, GhzDiagnostics]:
    """Run X_{pi/2} U_int Y_{pi/2} on |000> and diagnose the result."""
    psi = rotation_pulse("y", math.pi / 2)[:, 0]  # the pulse applied to |000>
    h = build_ghz_hamiltonian(np.zeros((3, 3)), g, g_tilde)  # drives off
    psi = mat_exp(h, -1j * entangling_time(g, g_tilde)) @ psi
    psi = rotation_pulse("x", math.pi / 2) @ psi
    return psi, ghz_fidelity(psi)


def ghz_fidelity(psi) -> GhzDiagnostics:
    """Diagnostics of a normalized state of d**3 amplitudes, d >= 2 levels per qubit."""
    v = _as_vector(psi)
    d = round(len(v) ** (1 / 3))
    if d < 2 or d**3 != len(v):
        raise ValueError(f"state must have dim d**3 with d >= 2, got shape {v.shape}")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized, got norm {nrm}")
    a = v[(_register(d) < 2).all(axis=1)]  # computational states: |000> first, |111> last
    return GhzDiagnostics(
        fidelity=float(0.5 * (abs(a[0]) + abs(a[-1])) ** 2),
        uniformity_deviation=float(np.max(np.abs(np.abs(a) ** 2 - 0.125))),
        global_phase=float(np.angle(a[int(np.argmax(np.abs(a)))])),
    )
