"""Evolution engines and closed-form survival probabilities.

Three regimes are implemented:

  * run_unitary    exact evolution under a Hermitian Hamiltonian, no
                   measurements; survival is the instantaneous probability
                   of the computational subspace, 1 - p_leak(t);
  * run_zeno       evolution interrupted by n ideal projective measurements
                   of the leak level, conditioned on never detecting it;
                   survival is the product of per-step no-leak
                   probabilities, summed as logarithms;
  * run_tunneling  exact evolution under a non-Hermitian Hamiltonian whose
                   top level decays; the state norm shrinks and survival is
                   the population remaining outside the leak level.

Every runner checks its inputs through one function, _check_run, and takes
any dimension >= 2; the leak (monitored) level is always the last one.

run_unitary and run_tunneling share one kernel, _evolve: every sample is
exp(-iHt)|psi0> evaluated directly from t = 0 through one
eigendecomposition of H (near an exceptional point, through one matrix
exponential per sample), so no sample carries the rounding of the ones
before it, and the value at T does not depend on how many samples precede
it.

Every run returns a SimulationTrace; its last survival entry is W at T.
A trace holds `samples` rows (run_unitary), n + 1 (run_zeno) or steps + 1
(run_tunneling, steps defaulting to default_tunneling_steps): one row more
than its intervals.  The CLI resolves every count into its config and
passes it explicitly, so its row budget reads the counts a run will use.

All runs are deterministic, single-threaded and allocation-local; distinct
runs may execute concurrently without coordination.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import mul

import numpy as np

from .linalg import _as_square, _as_vector, _check_exponent, is_hermitian, mat_exp
# `apply` is unused here; bench/traced_child.py wraps engine.apply by name.
from .linalg import apply  # noqa: F401

__all__ = [
    "PhysicsError",
    "DegenerateProjectionError",
    "ZenoSchedule",
    "SimulationTrace",
    "two_level_survival_closed_form",
    "run_unitary",
    "run_zeno",
    "run_tunneling",
    "perturbative_step",
    "default_tunneling_steps",
]

# Norm below which a projective measurement outcome is treated as impossible.
DEGENERATE_NORM = 1e-14

# Rows of an unmeasured trace when no sample count is given.
DEFAULT_SAMPLES = 101

# Largest condition number of the eigenvector matrix V of a non-Hermitian H
# for which _evolve uses V exp(-i Lambda t) V^-1.  The error of that form in
# W grows as about 1e-16 * cond(V); near an exceptional point, where two
# eigenvectors merge, cond(V) diverges (1.5e8 at omega = 0.05,
# eta = -0.0295, gamma = 0.220), and each sample is formed as
# mat_exp(H, -it) @ psi0 instead.
EIGVEC_COND_MAX = 1e4


class PhysicsError(RuntimeError):
    """A physically meaningful failure during a simulation run."""


class DegenerateProjectionError(PhysicsError):
    """The state leaked with certainty; the conditioned protocol cannot continue."""


def _check_count(name: str, value, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class ZenoSchedule:
    """Measurement plan: n intervals of length dt, total time T = n*dt (ns)."""

    n: int
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_count("n", self.n))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not math.isfinite(self.n * self.dt):
            raise ValueError(f"n*dt must be finite, got n={self.n} dt={self.dt!r}")

    @property
    def t_total(self) -> float:
        return self.n * self.dt


@dataclass
class SimulationTrace:
    """Time-ordered record of populations and running survival probability.

    times        sample instants (ns), strictly increasing
    populations  row k holds (p_1, ..., p_dim) at times[k]
    survival     running survival probability W at times[k]
    """

    times: np.ndarray
    populations: np.ndarray
    survival: np.ndarray


def two_level_survival_closed_form(v: float, t_total: float, n: int) -> float:
    """Survival of the monitored two-level system after n projective checks,
    (1 - q/n^2)^n with q = (V*T)^2.

    Accurate when |V*T/n| << 1; the caller owns that regime choice.
    """
    n = _check_count("n", n)
    if not (math.isfinite(v) and math.isfinite(t_total)):
        raise ValueError("v and t_total must be finite")
    q = (v * t_total) ** 2
    return (1.0 - q / n**2) ** n


def _check_run(h, psi0, t_total: float) -> tuple[np.ndarray, np.ndarray]:
    """The input contract of every runner: a finite square H of dim >= 2, a
    finite normalized psi0 of the same dim and a positive finite T."""
    hm = _as_square(h, "h")
    psi = _as_vector(psi0, "psi0")
    if hm.shape[0] < 2:
        raise ValueError("h must have dim >= 2: the last level is the leak level")
    if psi.shape[0] != hm.shape[0]:
        raise ValueError("dimension mismatch between h and psi0")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"psi0 must be normalized, got norm {nrm}")
    if not (math.isfinite(t_total) and t_total > 0):
        raise ValueError(f"t_total must be positive, got {t_total!r}")
    return hm, psi


def _evolve(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States exp(-iHt)|psi0> at each t of times (times[0] = 0), one row each.

    Every row is V exp(-i Lambda t) V^-1 psi0 from one eigendecomposition,
    eigh for Hermitian H and eig otherwise; an ill-conditioned V (see
    EIGVEC_COND_MAX) takes one mat_exp per row instead.  Row 0 is psi0
    itself: the eigenbasis round trip would move it by an ulp.
    """
    hermitian = is_hermitian(h)
    w, vecs = np.linalg.eigh(h) if hermitian else np.linalg.eig(h)
    _check_exponent(w, float(times[-1]))
    if not hermitian and np.linalg.cond(vecs) > EIGVEC_COND_MAX:
        # mat_exp(h, 0) is the identity, so row 0 is psi0 here too.
        return np.array([mat_exp(h, -1j * t) @ psi0 for t in times])
    coef = vecs.conj().T @ psi0 if hermitian else np.linalg.solve(vecs, psi0)
    # In place: at 200,001 samples each temporary of this size is 9.6 MB,
    # and freed ones stay resident.
    phases = np.outer(-1j * w, times)
    np.exp(phases, out=phases)
    phases *= coef[:, None]
    states = (vecs @ phases).T
    states[0] = psi0
    return states


def run_unitary(h, psi0, t_total: float, samples: int = DEFAULT_SAMPLES) -> SimulationTrace:
    """Exact unmeasured evolution exp(-iHt)|psi0> sampled on a uniform grid.

    The survival column is the instantaneous probability of not being in the
    top (monitored) level, 1 - p_dim(t); its final entry is the
    single-measurement survival at time T.
    """
    hm, psi = _check_run(h, psi0, t_total)
    if not is_hermitian(hm):
        raise ValueError("h must be Hermitian; use run_tunneling for decaying levels")
    samples = _check_count("samples", samples, minimum=2)

    times = np.linspace(0.0, t_total, samples)
    populations = np.abs(_evolve(hm, psi, times)) ** 2
    survival = 1.0 - populations[:, -1]
    return SimulationTrace(times=times, populations=populations, survival=survival)


def run_zeno(h, psi0, schedule: ZenoSchedule) -> SimulationTrace:
    """Evolve-then-measure protocol conditioned on never detecting the leak level.

    Each of the n intervals evolves the state by exp(-iH dt); the
    pre-measurement leak probability enters the survival and the projected,
    renormalized state continues (and is what the trace records, so the
    trace leak population is identically zero).

    Survival is summed in the log domain: a running product of the factors
    1 - leak would round each factor near 1 and lose the small deficit 1 - W.
    """
    hm, psi = _check_run(h, psi0, schedule.t_total)
    if not is_hermitian(hm):
        raise ValueError("h must be Hermitian; use run_tunneling for decaying levels")
    if abs(psi[-1]) > 1e-10:
        raise ValueError("psi0 must lie in the monitored (computational) subspace")

    # Plain Python complex arithmetic: at dim 2 or 3 a step is a few
    # microseconds, below the overhead of the numpy calls it replaces.
    rows = mat_exp(hm, -1j * schedule.dt).tolist()
    amps = psi.tolist()
    n = schedule.n
    populations = array("d", np.abs(psi) ** 2)
    odds = array("d", [0.0])
    for k in range(1, n + 1):
        amps = [sum(map(mul, row, amps)) for row in rows]
        top = amps.pop()
        top_sq = top.real * top.real + top.imag * top.imag
        kept = [a.real * a.real + a.imag * a.imag for a in amps]
        kept_sq = sum(kept)
        nrm = math.sqrt(kept_sq)
        if nrm < DEGENERATE_NORM:
            raise DegenerateProjectionError(
                f"certain leakage at step {k}: projected norm {nrm:.3e}"
            )
        odds.append(top_sq / kept_sq)
        scale = 1.0 / nrm
        amps = [a * scale for a in amps]
        amps.append(0j)
        populations.extend([p / kept_sq for p in kept])
        populations.append(0.0)

    # Each check keeps kept/(kept + top) of the probability, and
    # log1p(-leak) = -log1p(odds) with odds = top/kept stays exact for a leak
    # near 0 and finite for one near 1.  exp need not be monotone to the last
    # ulp, and W must never rise.
    log_survival = -np.cumsum(np.log1p(np.frombuffer(odds)))
    survival = np.minimum.accumulate(np.exp(log_survival))
    return SimulationTrace(
        times=schedule.dt * np.arange(n + 1),
        populations=np.frombuffer(populations).reshape(n + 1, len(psi)),
        survival=survival,
    )


def default_tunneling_steps(gamma: float, t_total: float) -> int:
    """Sample count of a tunneling trace: one sample per 0.01/gamma, at
    least 1000.

    Every sample is exact at its own time, so the count sets only the
    sampling density of the trace; the value at T is the same for any count.
    """
    steps = 1000
    if gamma > 0:
        wanted = 100.0 * gamma * t_total
        if not math.isfinite(wanted):
            raise ValueError(f"100 * gamma * t_total = {wanted} is past the float range")
        steps = max(steps, math.ceil(wanted))
    return steps


def run_tunneling(h_nh, psi0, t_total: float, steps: int | None = None) -> SimulationTrace:
    """Continuous-measurement evolution under a decaying-level Hamiltonian,
    sampled at steps + 1 evenly spaced times.

    The state is never renormalized; the lost norm is the probability that
    the monitored level tunneled out.  Survival is the population outside
    the leak level, |a_1|^2 + ... + |a_{dim-1}|^2.
    """
    hm, psi = _check_run(h_nh, psi0, t_total)
    # Decay part K from H = H_herm - iK; gain (negative eigenvalue of K) is invalid.
    decay_rates = np.linalg.eigvalsh(0.5j * (hm - hm.conj().T))
    if decay_rates[0] < -1e-12:
        raise ValueError("anti-Hermitian part has gain; decay rates must be >= 0")
    if steps is None:
        steps = default_tunneling_steps(2.0 * float(decay_rates[-1]), t_total)
    steps = _check_count("steps", steps)

    times = np.linspace(0.0, t_total, steps + 1)
    populations = np.abs(_evolve(hm, psi, times)) ** 2
    survival = populations[:, :-1].sum(axis=1)
    return SimulationTrace(times=times, populations=populations, survival=survival)


def perturbative_step(a1: complex, a2: complex, omega: float, eta: float,
                      gamma: float, dt: float) -> tuple[complex, complex, complex]:
    """Second-order short-time amplitudes of the driven three-level system.

    Expanding the propagator of the Y-drive Hamiltonian (top-level energy
    eta - i*gamma/2) to second order in dt about a state with no leak
    population gives

        a1' = a1 (1 - omega^2 dt^2 / 2) - a2 omega dt
        a2' = a2 (1 - 3 omega^2 dt^2 / 2) + a1 omega dt
        a3' = sqrt(2) a2 omega dt
              + (sqrt(2)/2) [a1 omega^2 - a2 omega (gamma/2 + i eta)] dt^2

    Valid for omega*dt << 1 and gamma*dt << 1.  In this truncated series,
    choosing gamma = 4/dt cancels the first-order leak amplitude exactly,
    leaving only the quadratic residue.  That choice breaks gamma*dt << 1, so
    the cancellation is a property of the series, not of the dynamics: the
    exact step from a2 = 1 keeps a first-order leak amplitude of magnitude
    sqrt(2) omega dt (1 - e^-2)/2.
    """
    a1 = complex(a1)
    a2 = complex(a2)
    s2 = math.sqrt(2.0)
    a1p = a1 * (1.0 - 0.5 * omega**2 * dt**2) - a2 * omega * dt
    a2p = a2 * (1.0 - 1.5 * omega**2 * dt**2) + a1 * omega * dt
    a3p = s2 * a2 * omega * dt + (s2 / 2.0) * (
        a1 * omega**2 - a2 * omega * (gamma / 2.0 + 1j * eta)
    ) * dt**2
    return a1p, a2p, a3p
