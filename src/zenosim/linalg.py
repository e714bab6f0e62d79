"""Dense complex linear algebra kernels for small (dim <= 8) quantum systems.

Everything here is a pure function over numpy arrays; matrices are dense,
value-semantic and never mutated.  The matrix exponential routes Hermitian
inputs through an eigendecomposition and everything else through
scaling-and-squaring of a truncated series, which at these dimensions is
both robust and cheap.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HERMITIAN_TOL", "is_hermitian", "mat_exp"]

HERMITIAN_TOL = 1e-12


def _as_square(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have dim >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _as_vector(psi, name: str = "state") -> np.ndarray:
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def is_hermitian(a) -> bool:
    """True if A equals its conjugate transpose entrywise within HERMITIAN_TOL."""
    m = np.asarray(a, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL)


def _check_exponent(w: np.ndarray, scale: float) -> None:
    """Raise ValueError if an exponent s*w_k, scale = |Re s| + |Im s|, overflows
    or is so large (>= 2**52) that its last place is a radian or more."""
    # Python floats: an overflowing product is inf, with no numpy warning.
    part = float(np.abs(w.view(float)).max())
    if not np.isfinite(part * scale):
        raise ValueError(f"exponent {part:.6g} * {scale:.6g} is past the float range")
    if part * scale >= 2.0**52:
        raise ValueError(f"exponent {part:.6g} * {scale:.6g} >= 2**52 has no digit left")


def _expm_scaling_squaring(b: np.ndarray) -> np.ndarray:
    # Scale so the series argument has norm <= 0.5, Horner-evaluate the
    # exponential series to 24 terms, then square back up.
    norm = np.linalg.norm(b, np.inf)
    if not np.isfinite(norm):
        raise ValueError("norm of s*A is past the float range")
    k = 0
    if norm > 0.5:
        k = int(np.ceil(np.log2(norm))) + 1
    c = b * 2.0**-k  # 2.0**k overflows for a norm above 2**1022
    eye = np.eye(b.shape[0], dtype=complex)
    out = eye.copy()
    for j in range(24, 0, -1):
        out = eye + (c @ out) / j
    for _ in range(k):
        out = out @ out
    return out


def mat_exp(a, s: complex = 1.0) -> np.ndarray:
    """Matrix exponential exp(s*A).

    Hermitian A is exponentiated through its eigendecomposition (exact up to
    the eigensolver), so anti-Hermitian arguments s*A yield unitaries to
    machine precision.  Non-Hermitian A (decaying levels) falls back to
    scaling-and-squaring.  A result past the float range raises ValueError.
    """
    m = _as_square(a)
    s = complex(s)
    if not (np.isfinite(s.real) and np.isfinite(s.imag)):
        raise ValueError("scalar s must be finite")
    # s*A, its norm, an exponential or a squared-up product may pass the
    # float range; each then holds inf or nan, raised on instead of warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        if is_hermitian(m):
            w, v = np.linalg.eigh(m)
            _check_exponent(w, abs(s.real) + abs(s.imag))
            out = (v * np.exp(s * w)) @ v.conj().T
        else:
            out = _expm_scaling_squaring(s * m)
    if not np.all(np.isfinite(out)):
        raise ValueError("exp(s*A) is past the float range")
    return out


def apply(u, psi) -> np.ndarray:
    """Matrix-vector product U @ psi with dimension checking."""
    m = _as_square(u, "operator")
    v = _as_vector(psi)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: operator {m.shape[0]}, state {v.shape[0]}")
    return m @ v


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_square(a, "left factor"), _as_square(b, "right factor"))
