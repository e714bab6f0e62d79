"""Independent high-precision references for the leak deficit 1 - W.

Every Hamiltonian here is written out from the paper's formulas with mpmath;
nothing imports zenosim.  Inputs are the same float64 parameters the CLI
receives, converted exactly, so a reference differs from the CLI's answer
only by the CLI's own arithmetic.  Work runs at DPS decimal digits and the
results are quoted to 40; `precision_gap` measures what DPS leaves over.

mpmath is used only by the benchmark and is not a dependency of zenosim.
"""

from __future__ import annotations

import functools

import mpmath as mp

DPS = 60
QUOTED_DIGITS = 40


def drive_hamiltonian(omega: float, eta: float, gamma: float = 0.0):
    """Rotating-frame Y-drive of a three-level qubit.

    The drive couples |1>-|2> with -i*omega and |2>-|3> with the
    oscillator-enhanced -i*sqrt(2)*omega; the leak level |3> sits at the
    anharmonicity eta, shifted to eta - i*gamma/2 when it tunnels out.
    """
    w = mp.mpf(omega)
    s2w = mp.sqrt(2) * w
    return mp.matrix([
        [0, -1j * w, 0],
        [1j * w, 0, -1j * s2w],
        [0, 1j * s2w, mp.mpf(eta) - 0.5j * mp.mpf(gamma)],
    ])


def two_level_hamiltonian(v: float):
    """Two-level toy coupling [[0, V], [V, 0]]; |2> is the monitored level."""
    v = mp.mpf(v)
    return mp.matrix([[0, v], [v, 0]])


def _propagator(h, t):
    return mp.expm(-1j * h * mp.mpf(t))


def _zeno(h, t_total: float, n: int):
    # Survival after n evolve-then-project steps is ||(P U)^n psi0||^2 with
    # psi0 = |1>, so the deficit reads off the first column of (P U)^n,
    # which `**` builds by repeated squaring.
    dim = h.rows
    proj = mp.diag([1] * (dim - 1) + [0])
    m = (proj * _propagator(h, mp.mpf(t_total) / n)) ** n
    return 1 - sum(abs(m[k, 0]) ** 2 for k in range(dim))


def _unitary(omega, eta, t_total):
    return abs(_propagator(drive_hamiltonian(omega, eta), t_total)[2, 0]) ** 2


def _tunneling(omega, eta, gamma, t_total):
    u = _propagator(drive_hamiltonian(omega, eta, gamma), t_total)
    return 1 - (abs(u[0, 0]) ** 2 + abs(u[1, 0]) ** 2)


def _at_dps(compute, dps=DPS):
    # Hamiltonians are built inside the context too, so sqrt(2) and every
    # other constant carries the full working precision.
    with mp.workdps(dps):
        return +compute()


@functools.lru_cache(maxsize=None)
def zeno_deficit(omega: float, eta: float, t_total: float, n: int):
    """1 - ||(P U(T/n))^n |1>||^2 for the three-level drive."""
    return _at_dps(lambda: _zeno(drive_hamiltonian(omega, eta), t_total, n))


@functools.lru_cache(maxsize=None)
def two_level_zeno_deficit(v: float, t_total: float, n: int):
    """1 - ||(P U(T/n))^n |1>||^2 for the two-level toy model."""
    return _at_dps(lambda: _zeno(two_level_hamiltonian(v), t_total, n))


@functools.lru_cache(maxsize=None)
def unitary_deficit(omega: float, eta: float, t_total: float):
    """|<3| exp(-iHT) |1>|^2: the leak population of the unmeasured run."""
    return _at_dps(lambda: _unitary(omega, eta, t_total))


@functools.lru_cache(maxsize=None)
def tunneling_deficit(omega: float, eta: float, gamma: float, t_total: float):
    """1 - (|a1|^2 + |a2|^2) after exp(-iHT) with the decaying leak level."""
    return _at_dps(lambda: _tunneling(omega, eta, gamma, t_total))


def closed_form_gap(omega: float = 0.05, times=(0.5, 5.0, 40.0)):
    """Largest relative gap between the eta = 0 unitary deficit and the
    closed form p3(t) = (2/9)(1 - cos(sqrt(3) omega t))^2."""
    gap = mp.mpf(0)
    with mp.workdps(DPS):
        for t in times:
            x = mp.sqrt(3) * mp.mpf(omega) * mp.mpf(t)
            exact = mp.mpf(2) / 9 * (1 - mp.cos(x)) ** 2
            gap = max(gap, abs(unitary_deficit(omega, 0.0, t) - exact) / exact)
    return gap


def single_check_gap(omega: float = 0.05, eta: float = -0.2, t_total: float = 5.0):
    """Relative gap between the Zeno deficit at n = 1 and the unitary one:
    one check at T is the unmeasured run read out at T."""
    ref = unitary_deficit(omega, eta, t_total)
    with mp.workdps(DPS):
        return abs(zeno_deficit(omega, eta, t_total, 1) - ref) / ref


def precision_gap(omega: float = 0.05, eta: float = -0.2, gamma: float = 400.0,
                  t_total: float = 5.0, n: int = 40000):
    """Largest relative change of the stiffest references (tunneling at large
    gamma, Zeno at large n) when the working precision grows by 30 digits."""
    pairs = (
        (tunneling_deficit(omega, eta, gamma, t_total),
         _at_dps(lambda: _tunneling(omega, eta, gamma, t_total), DPS + 30)),
        (zeno_deficit(omega, eta, t_total, n),
         _at_dps(lambda: _zeno(drive_hamiltonian(omega, eta), t_total, n), DPS + 30)),
    )
    with mp.workdps(DPS + 30):
        return max(abs(ref - fine) / fine for ref, fine in pairs)


def self_check() -> list[str]:
    """Problems found by the reference's own consistency checks, if any."""
    tol = mp.mpf(10) ** -QUOTED_DIGITS
    problems = []
    for label, gap in (("eta=0 closed form", closed_form_gap()),
                       ("zeno n=1 vs unitary", single_check_gap()),
                       ("working precision", precision_gap())):
        if not gap <= tol:
            problems.append(f"reference {label}: relative gap {mp.nstr(gap, 3)}")
    return problems
