"""Independent reference implementations used only by the tests.

Nothing here may call into zenosim's propagator paths: the matrix
exponential is a plain truncated Taylor sum (no scaling, no
eigendecomposition), the fine-step integrator is a fourth-order Taylor
stepper driven by matrix powers, and the three-qubit Hamiltonian is built
by basis-index bookkeeping instead of Kronecker algebra.
"""

from __future__ import annotations

import numpy as np


def taylor_expm(a, s: complex = 1.0, terms: int = 40) -> np.ndarray:
    """exp(s*A) by direct truncated Taylor summation."""
    a = np.asarray(a, dtype=complex)
    acc = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ (s * a) / k
        acc = acc + term
    return acc


def fine_step_final_state(h, psi0, t_total: float, delta: float = 1e-5) -> np.ndarray:
    """Final state of exp(-iHt)|psi0> from chained 4th-order Taylor steps.

    For constant H the step matrix is fixed, so the chain is a matrix power;
    binary exponentiation keeps this exact-order and fast.
    """
    h = np.asarray(h, dtype=complex)
    a = -1j * h * delta
    step = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, 5):
        term = term @ a / k
        step = step + term
    steps = round(t_total / delta)
    return np.linalg.matrix_power(step, steps) @ np.asarray(psi0, dtype=complex)


def zeno_survival_taylor(h, projector, psi0, n: int, dt: float) -> float:
    """Survival product of the evolve-project loop with a Taylor propagator."""
    u = taylor_expm(h, -1j * dt)
    proj = np.asarray(projector, dtype=complex)
    psi = np.asarray(psi0, dtype=complex)
    w = 1.0
    for _ in range(n):
        psi = u @ psi
        kept = proj @ psi
        w *= 1.0 - float(np.linalg.norm(psi - kept) ** 2)
        psi = kept / np.linalg.norm(kept)
    return w


def _bit(index: int, qubit: int) -> int:
    # qubit 0 is the most significant bit (tensor order q1 x q2 x q3)
    return (index >> (2 - qubit)) & 1


def brute_force_three_qubit_h(omega_vecs, g: float, g_tilde: float) -> np.ndarray:
    """8x8 three-qubit Hamiltonian assembled entry-by-entry from basis indices."""
    vecs = np.asarray(omega_vecs, dtype=float)
    h = np.zeros((8, 8), dtype=complex)
    for s in range(8):
        bits = [_bit(s, q) for q in range(3)]
        # single-qubit drive terms
        for q in range(3):
            z = 1.0 if bits[q] == 0 else -1.0
            h[s, s] += vecs[q, 2] * z
            flipped = s ^ (1 << (2 - q))
            h[flipped, s] += vecs[q, 0]
            h[flipped, s] += vecs[q, 1] * (1j if bits[q] == 0 else -1j)
        # pairwise couplings
        for i in range(3):
            for j in range(i + 1, 3):
                zi = 1.0 if bits[i] == 0 else -1.0
                zj = 1.0 if bits[j] == 0 else -1.0
                h[s, s] += 0.5 * g_tilde * zi * zj
                if bits[i] != bits[j]:
                    # (XX + YY)/2 exchanges |01> and |10>
                    swapped = s ^ (1 << (2 - i)) ^ (1 << (2 - j))
                    h[swapped, s] += g
    return h


def qubit_permutation_operator(perm) -> np.ndarray:
    """8x8 operator sending qubit q of the input to slot perm[q]."""
    p = np.zeros((8, 8), dtype=complex)
    for s in range(8):
        bits = [_bit(s, q) for q in range(3)]
        target_bits = [0, 0, 0]
        for q in range(3):
            target_bits[perm[q]] = bits[q]
        target = (target_bits[0] << 2) | (target_bits[1] << 1) | target_bits[2]
        p[target, s] = 1.0
    return p


# Leak deficits d = 1 - W of the reference scenario (eta = -0.2, T = 5 ns,
# drive phase -pi/2, start in level 1), quoted to 40 digits from 60-digit
# mpmath.  The float64 parameters enter exactly.  Generated by:
#
#     import mpmath as mp
#     mp.mp.dps = 60
#
#     def hamiltonian(omega, eta, gamma=0.0):
#         w, s2w = mp.mpf(omega), mp.sqrt(2) * mp.mpf(omega)
#         return mp.matrix([[0, -1j * w, 0], [1j * w, 0, -1j * s2w],
#                           [0, 1j * s2w, mp.mpf(eta) - 0.5j * mp.mpf(gamma)]])
#
#     def zeno_deficit(omega, eta, t_total, n):
#         u = mp.expm(-1j * hamiltonian(omega, eta) * mp.mpf(t_total) / n)
#         m = (mp.diag([1, 1, 0]) * u) ** n
#         return 1 - sum(abs(m[k, 0]) ** 2 for k in range(3))
#
#     def tunneling_deficit(omega, eta, gamma, t_total):
#         u = mp.expm(-1j * hamiltonian(omega, eta, gamma) * mp.mpf(t_total))
#         return 1 - abs(u[0, 0]) ** 2 - abs(u[1, 0]) ** 2
#
#     print(mp.nstr(zeno_deficit(0.05, -0.2, 5.0, 400), 40))
#     print(mp.nstr(tunneling_deficit(0.05, -0.2, 40.0, 5.0), 40))  # and so on
#
# Zeno survival after n checks at omega = 0.05, keyed by n.
ZENO_DEFICIT_40 = {
    400: "6.428755184409321200099802561631733440351e-6",
    4000: "6.429443829348497977060006359000968030354e-7",
    40000: "6.429511660936609513021690014551168980124e-8",
}
# Continuous tunneling, keyed by (omega, gamma).
TUNNELING_DEFICIT_40 = {
    (0.01, 40.0): "8.203201342531194388975576335646079865724e-8",
    (0.01, 400.0): "8.316638697202718516692892953766297871146e-9",
    (0.05, 40.0): "5.062003806070079316738480816142947642461e-5",
    (0.05, 200.0): "1.025467511007946089322700944046920391045e-5",
    (0.05, 400.0): "5.135479549564841685691634606689823572984e-6",
}
# Continuous tunneling at an exceptional point of H, where two eigenvectors
# merge: omega = 0.05, eta/omega ~ -0.590, gamma/omega ~ 4.404, T = 5 ns.
EXCEPTIONAL_POINT = {"omega": 0.05, "eta": -0.02949899198927462,
                     "gamma": 0.22018347375208064, "t_total": 5.0}
EXCEPTIONAL_POINT_DEFICIT_40 = "1.645403720792723070089781857229351035273e-3"
