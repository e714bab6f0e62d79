"""Hamiltonian builders.

Covers the driven two-level system, the resonantly driven three-level qubit
in the rotating frame (with and without tunneling out of the top level), and
the fully connected three-qubit network with XY + ZZ couplings.

Conventions, fixed here once for the whole package:
  * units: all rates and frequencies in angular rad/ns, hbar = 1;
  * levels are labeled 1..dim, level i sits at vector index i-1;
  * qubit tensor order is qubit-1 (x) qubit-2 (x) qubit-3 (`_register`), |0> = ground;
  * sigma_z |0> = +|0>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# `kron` is unused here; bench/traced_child.py wraps models.kron by name.
from .linalg import kron  # noqa: F401

__all__ = [
    "DEFAULT_ETA",
    "DEFAULT_PHI",
    "SIGMA_X",
    "SIGMA_Y",
    "ModelSpec",
    "build_two_level",
    "build_three_level",
    "build_tunneling",
    "build_ghz_hamiltonian",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# Typical phase/transmon-like anharmonicity magnitude; scenarios may override.
DEFAULT_ETA = -0.2
# Drive phase realizing rotations about the Y axis.
DEFAULT_PHI = -math.pi / 2


def _register(d: int) -> np.ndarray:
    """Row k: qubits 1-3's levels in basis state k, d levels each, qubit 1 most significant."""
    return np.indices((d,) * 3).reshape(3, -1).T


def _require_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Validated physical parameter record (rad/ns throughout).

    omega    Rabi drive strength (>= 0)
    phi      drive phase
    eta      anharmonicity of the 2->3 transition (negative for real qubits)
    gamma    tunneling rate of the top level (>= 0)
    v        two-level coupling of the toy model
    g        transverse (XY) qubit-qubit coupling
    g_tilde  longitudinal (ZZ) qubit-qubit coupling
    """

    omega: float = 0.0
    phi: float = DEFAULT_PHI
    eta: float = DEFAULT_ETA
    gamma: float = 0.0
    v: float = 0.0
    g: float = 0.0
    g_tilde: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(
            omega=self.omega, phi=self.phi, eta=self.eta, gamma=self.gamma,
            v=self.v, g=self.g, g_tilde=self.g_tilde,
        )
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def build_two_level(v: float) -> np.ndarray:
    """Two-level coupling Hamiltonian [[0, V], [V, 0]] (real off-diagonals)."""
    _require_finite(v=v)
    return np.array([[0, v], [v, 0]], dtype=complex)


def build_three_level(omega: float, phi: float, eta: float) -> np.ndarray:
    """Rotating-frame Hamiltonian of a resonantly driven three-level qubit.

    The drive couples 1<->2 with strength omega*exp(i*phi) and 2<->3 with the
    harmonic-oscillator-enhanced sqrt(2)*omega*exp(i*phi); the third level is
    detuned by the anharmonicity eta.
    """
    _require_finite(omega=omega, phi=phi, eta=eta)
    d = omega * complex(math.cos(phi), math.sin(phi))
    s2 = math.sqrt(2.0)
    return np.array(
        [
            [0, d, 0],
            [d.conjugate(), 0, s2 * d],
            [0, s2 * d.conjugate(), eta],
        ],
        dtype=complex,
    )


def build_tunneling(omega: float, eta: float, gamma: float) -> np.ndarray:
    """Y-drive Hamiltonian with the top level decaying at rate gamma.

    The decay enters as the imaginary energy shift eta -> eta - i*gamma/2,
    making the matrix non-Hermitian for gamma > 0.
    """
    _require_finite(omega=omega, eta=eta, gamma=gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    h = build_three_level(omega, DEFAULT_PHI, eta)
    h[2, 2] = eta - 0.5j * gamma
    return h


def build_ghz_hamiltonian(omega_vecs, g: float, g_tilde: float) -> np.ndarray:
    """Fully connected three-qubit Hamiltonian.

    H = sum_i Omega_i . sigma_i
        + (1/2) sum_{i<j} [ g (X_i X_j + Y_i Y_j) + g_tilde Z_i Z_j ]

    omega_vecs: three 3-vectors of per-qubit drive components (x, y, z).

    Written entry by entry from `_register(2)`: qubit i at level n_i of basis
    state k has z_i = 1 - 2 n_i.  The Omega_z and ZZ terms are diagonal,
    Omega_x + i z_i Omega_y flips qubit i, and g swaps two unequal qubits.
    """
    _require_finite(g=g, g_tilde=g_tilde)
    vecs = np.asarray(omega_vecs, dtype=float)
    if vecs.shape != (3, 3):
        raise ValueError(f"omega_vecs must be three 3-vectors, got shape {vecs.shape}")
    if not np.all(np.isfinite(vecs)):
        raise ValueError("omega_vecs has non-finite entries")

    # g/2 and g_tilde/2 summed as the sum of Pauli products sums them: same bits.
    xy, zz = 0.5 * g, 0.5 * g_tilde
    d = 2
    zs = (1.0 - 2.0 * _register(d)).tolist()

    def flip(k, *qubits):  # basis state k with these qubits' levels n -> 1 - n
        return k + sum(round(zs[k][q]) * d ** (2 - q) for q in qubits)  # z * place value

    h = np.zeros((len(zs),) * 2, dtype=complex)
    for k, z in enumerate(zs):
        for i, (ox, oy, oz) in enumerate(vecs.tolist()):
            h[k, k] += oz * z[i]
            h[flip(k, i), k] += complex(ox, z[i] * oy)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            h[k, k] += zz * z[i] * z[j]
            if z[i] != z[j]:
                h[flip(k, i, j), k] += xy + xy
    return h
