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

run_unitary and run_tunneling share one kernel, _evolve: the populations
of exp(-iHt)|psi0>, each sample evaluated directly from t = 0 through one
eigendecomposition of H and a fixed block of samples at a time, so neither a
sample nor a block carries the rounding of the ones before it, and the value
at T does not depend on how many samples precede it.  run_zeno follows the
same rule with the kept block K of exp(-iH dt): check k is evaluated from
k = 0 as K^(k-1), through one eigendecomposition of K, and its survival
factor is still a ratio summed in the log domain.  Where an eigenbasis is
ill-conditioned, both take one fallback from k = 0, the binary powers of the
step in _binary_products; there the value at T moves with the step by ulps.

Every run returns a SimulationTrace; its last survival entry is W at T.
A trace has `samples` rows (run_unitary), n + 1 (run_zeno) or steps + 1
(run_tunneling, steps defaulting to default_tunneling_steps): one row more
than its intervals.  Every check that can raise runs before the runner
returns; the runner hands the trace its row count and one source of blocks,
and the trace cuts itself and forms its rows a block at a time when they are
read, holding only what a later row depends on (see SimulationTrace).  The CLI
resolves every count into its config and passes it explicitly, so its row
budget reads the counts a run will use.

All runs are deterministic, single-threaded and allocation-local; distinct
runs may execute concurrently without coordination.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator, NamedTuple

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

# Largest condition number of the eigenvectors V of a non-Hermitian H (or of
# run_zeno's kept block) for which V f(Lambda) V^-1 is used: its error in W
# grows as about 1e-16 * cond(V).  Near an exceptional point cond(V) diverges
# (1.5e8 at omega = 0.05, eta = -0.0295, gamma = 0.220), and both kernels take
# _binary_products instead, at ~1.3-2 us a row; -1 forces that fallback.
EIGVEC_COND_MAX = 1e4

# Rows _evolve and run_zeno form per pass: about 0.3 MB of Zeno working set
# at dim 3.  A power of two, so that every column of _evolve meets the gemm
# kernel (unrolled over a few columns) it meets in one all-row product.
_BLOCK = 1024


class PhysicsError(RuntimeError):
    """A physically meaningful failure during a simulation run."""


class DegenerateProjectionError(PhysicsError):
    """The state leaked with certainty; the conditioned protocol cannot continue."""


def _check_count(name: str, value, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if abs(value) > sys.float_info.max:  # exact, where float(value) would overflow
        raise ValueError(f"{name} is past the float range")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class ZenoSchedule(NamedTuple("ZenoSchedule", [("n", int), ("dt", float)])):
    """Measurement plan: n intervals of length dt, total time T = n*dt (ns)."""

    __slots__ = ()

    def __new__(cls, n: int, dt: float) -> ZenoSchedule:
        n = _check_count("n", n)
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if not math.isfinite(n * dt):
            raise ValueError(f"n*dt must be finite, got n={n} dt={dt!r}")
        return super().__new__(cls, n, dt)

    # `_replace` builds through `_make`: check its values as a new schedule's.
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def t_total(self) -> float:
        return self.n * self.dt


class SimulationTrace:
    """Time-ordered record of populations and running survival probability.

    times        sample instants (ns), strictly increasing
    populations  row k holds (p_1, ..., p_dim) at times[k]
    survival     running survival probability W at times[k]
    dim          number of levels, the width of populations
    rows         number of rows, read without forming a column

    A trace is `dim`, a row count and one source of blocks, block(start, stop)
    = (times, populations, survival) of rows start:stop, read in the blocks of
    _partition.  It holds only what a later row depends on: a run_zeno trace
    holds its survival, since each check's survival depends on every earlier
    one; a run_unitary or run_tunneling trace holds no row.  The first read of
    a column not held forms all three in one pass over blocks() and keeps each
    one not held; blocks() keeps none.  final_survival reads a held survival,
    or else the last block alone.  Every way gives the same bits.
    """

    _COLUMNS = ("times", "populations", "survival")

    def __init__(self, dim: int, rows: int, block: Callable):
        self.dim, self._bounds, self._block = dim, _partition(rows), block

    def __getattr__(self, name: str) -> np.ndarray:
        # Called only for a name the instance lacks: a column not held or formed yet.
        if name not in self._COLUMNS:
            raise AttributeError(f"'SimulationTrace' object has no attribute {name!r}")
        rows = self.rows
        columns = np.empty(rows), np.empty((rows, self.dim)), np.empty(rows)
        for (start, stop), block in zip(self._bounds, self.blocks()):
            for column, part in zip(columns, block):
                column[start:stop] = part
        for key, column in zip(self._COLUMNS, columns):
            vars(self).setdefault(key, column)
        return vars(self)[name]

    @property
    def rows(self) -> int:
        """The row count: the last stop of the block partition."""
        return self._bounds[-1][1]

    @property
    def final_survival(self) -> float:
        """W at T, the last survival entry."""
        held = vars(self).get("survival")
        return (self._block(*self._bounds[-1])[2] if held is None else held)[-1]

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (times, populations, survival) of consecutive rows, in order,
        each block formed anew and not kept."""
        for start, stop in self._bounds:
            yield self._block(start, stop)


def _partition(rows: int) -> list[tuple[int, int]]:
    """(start, stop) of the blocks every trace is formed and written in: _BLOCK
    rows each from row 0, one block for 0 or 1 rows.  numpy sends a one-column
    product to gemv, not gemm, so a lone last row joins the block before it."""
    starts = range(0, max(rows - 1, 1), _BLOCK)
    return list(zip(starts, [*starts[1:], rows]))


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


def _evolve(h, psi0, t_total: float, rows: int,
            survival: Callable[[np.ndarray], np.ndarray]) -> SimulationTrace:
    """The trace of populations |exp(-iHt)|psi0>|^2 at rows even times from 0 to T,
    with survival(populations) per block of rows.

    Every row is V exp(-i Lambda t) V^-1 psi0 from one eigendecomposition (eigh for
    Hermitian H, else eig), _BLOCK rows at a time from t = 0.  If V is ill-conditioned
    (EIGVEC_COND_MAX), row k is the product of exp(-iH dt 2^b) over the bits b of k.
    Row 0 is |psi0|^2 itself: the eigenbasis round trip would move it an ulp.
    Everything that can raise runs here; the trace forms its blocks when read.
    """
    step = t_total / (rows - 1)
    hermitian = is_hermitian(h)
    w, vecs = np.linalg.eigh(h) if hermitian else np.linalg.eig(h)
    _check_exponent(w, t_total)
    if not hermitian and np.linalg.cond(vecs) > EIGVEC_COND_MAX:
        # Squaring exp(-iH dt) up to these would compound its rounding.
        factors = [mat_exp(h, -1j * step * 2.0**b) for b in range((rows - 1).bit_length())]

        def block_populations(k, t):
            x, exponent = _binary_products(factors, psi0, k)
            return np.ldexp(np.abs(x.T) ** 2, 2 * exponent[:, None])
    else:
        coef = vecs.conj().T @ psi0 if hermitian else np.linalg.solve(vecs, psi0)

        def block_populations(k, t):
            phases = np.outer(-1j * w, t)
            np.exp(phases, out=phases)
            phases *= coef[:, None]
            return np.abs((vecs @ phases).T) ** 2

    def block(start, stop):
        # The times of np.linspace(0, T, rows), by its own arithmetic, which
        # divides first and scales after when the step rounds to 0.
        k = np.arange(start, stop)
        t = k * step if step else k / (rows - 1) * t_total
        if stop == rows:
            t[-1] = t_total
        populations = block_populations(k, t)
        if start == 0:
            populations[0] = np.abs(psi0) ** 2
        return t, populations, survival(populations)

    return SimulationTrace(len(psi0), rows, block)


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
    return _evolve(hm, psi, t_total, samples, lambda p: 1.0 - p[:, -1])


def _unit(z: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Scale z in place by the powers of two (returned) to a largest |Re| or |Im| in [0.5, 1)."""
    shift = -np.frexp(np.maximum(abs(z.real), abs(z.imag)).max(axis=axis))[1]
    for part in (z.real, z.imag):
        np.ldexp(part, shift, out=part)
    return shift


def _binary_products(factors: list, x0, powers) -> tuple[np.ndarray, np.ndarray]:
    """(x, e): column j of x, times 2^e[j], is x0 after factors[b] for each set bit b
    of powers[j], lowest first: each an elementwise sum in a fixed order, then
    _unit, so that a column depends only on its own power."""
    x = np.repeat(x0[:, None], len(powers), axis=1)
    exponent = np.zeros(len(powers), dtype=int)
    has = powers >> np.arange(len(factors))[:, None] & 1
    for bit in np.flatnonzero(has.any(axis=1)).tolist():
        cols = np.nonzero(has[bit])[0]
        y = sum(entry[:, None] * row for entry, row in zip(factors[bit].T, x[:, cols]))
        exponent[cols] -= _unit(y, axis=0)
        x[:, cols] = y
    return x, exponent


def _zeno_checks(u: np.ndarray, psi: np.ndarray, n: int
                 ) -> tuple[np.ndarray, Callable[[int, int], np.ndarray]]:
    """(odds, populations): the odds of checks 1..n, all run here in the blocks
    of _partition, and a function that forms them again as the populations of
    rows start:stop of rows 0..n, row 0 being psi0 and row k the state after check k.

    With the kept block K = U[:-1, :-1], the state before check k is
    U[:, :-1] K^(k-1) psi0: projecting and renormalizing only rescale it, and
    odds and populations are ratios, so each column K^(k-1) psi0 may carry a
    scale of its own.  It is V (mu^(k-1) * c) with K = V diag(mu) V^-1 and
    c = V^-1 psi0; when V is ill-conditioned (see EIGVEC_COND_MAX), it is the
    product of the squares K^(2^j) over the bits of k - 1 (_binary_products).
    """
    kept = u[:-1, :-1]
    # Decompose K - I, not K: eig's eigenvectors err by about eps * norm / gap,
    # and the eigenvalues mu of K lie close together near 1, a gap only the
    # norm of K - I is on the scale of (at n = 4,000, K's own eigenvectors
    # moved a population cell by 2.4e-13; those of K - I by 4.9e-14).
    nu, vecs = np.linalg.eig(kept - np.eye(len(kept)))
    if np.linalg.cond(vecs) <= EIGVEC_COND_MAX:
        coef = np.linalg.solve(vecs, psi[:-1])
        # A mode psi0 does not excite must not set the scale below.
        live = coef != 0
        log_mu = np.log1p(nu[live])
        # Every mu is divided by the largest |mu|: the slowest-decaying mode
        # keeps magnitude 1 and no check underflows, however fast the run leaks.
        log_mu -= log_mu.real.max()
        amps = (u[:, :-1] @ vecs[:, live]) * coef[live]

        def columns(powers):
            return np.exp(np.outer(log_mu, powers))
    else:
        # Only the levels psi0 reaches through K's nonzero entries: a level it
        # never reaches must not set the scale of the squares below.
        reach = psi[:-1] != 0
        for _ in range(len(kept)):
            reach |= (kept[:, reach] != 0).any(axis=1)
        amps = u[:, :-1][:, reach]
        squares = [kept[np.ix_(reach, reach)]]
        while len(squares) < (n - 1).bit_length():
            squares.append(squares[-1] @ squares[-1])
            _unit(squares[-1])

        def columns(powers):
            return _binary_products(squares, psi[:-1][reach], powers)[0]

    def block(start, stop):  # the first check of rows start:stop, |a|^2 before each, kept sum
        first = max(start, 1)
        # Sums over modes and over levels, elementwise and in a fixed order,
        # so a check rounds alike in any block and when it is formed again.
        a = sum(col[:, None] * mode
                for col, mode in zip(amps.T, columns(np.arange(first - 1, stop - 1))))
        sq = a.real ** 2 + a.imag ** 2
        return first, sq, sum(sq[:-1])

    odds = np.zeros(n + 1)
    for start, stop in _partition(n + 1):
        first, sq, kept_sq = block(start, stop)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(sq[-1], kept_sq, out=odds[first:stop])
    # The check keeps 1/(1 + odds) of the probability: the squared norm of the
    # projected state before it is renormalized.  nan odds: every amplitude
    # underflowed, and no check can be formed from the state.
    leaked = np.flatnonzero(~(odds <= DEGENERATE_NORM**-2))
    if leaked.size:
        nrm = (1.0 + odds[leaked[0]]) ** -0.5
        raise DegenerateProjectionError(
            f"certain leakage at step {leaked[0]}: projected norm {nrm:.3e}")

    def populations(start, stop):
        first, sq, kept_sq = block(start, stop)
        rows = np.zeros((stop - start, len(psi)))
        if start == 0:
            rows[0] = np.abs(psi) ** 2
        np.divide(sq[:-1], kept_sq, out=rows[first - start:, :-1].T)
        return rows

    return odds, populations


def run_zeno(h, psi0, schedule: ZenoSchedule) -> SimulationTrace:
    """Evolve-then-measure protocol conditioned on never detecting the leak level.

    Each of the n intervals evolves the state by U = exp(-iH dt); the
    pre-measurement leak probability enters the survival and the projected,
    renormalized state continues (and is what the trace records, so the
    trace leak population is identically zero).

    Every check is evaluated directly from k = 0 (see _zeno_checks), _BLOCK
    checks at a time, so no check carries the rounding of the ones before it
    and the trace does not depend on the block.

    Survival is summed in the log domain: a running product of the factors
    1 - leak would round each factor near 1 and lose the small deficit 1 - W.
    """
    hm, psi = _check_run(h, psi0, schedule.t_total)
    if not is_hermitian(hm):
        raise ValueError("h must be Hermitian; use run_tunneling for decaying levels")
    if abs(psi[-1]) > 1e-10:
        raise ValueError("psi0 must lie in the monitored (computational) subspace")

    u = mat_exp(hm, -1j * schedule.dt)
    odds, populations = _zeno_checks(u, psi, schedule.n)

    # Each check keeps kept/(kept + top) of the probability, and
    # log1p(-leak) = -log1p(odds) with odds = top/kept stays exact for a leak
    # near 0 and finite for one near 1.  exp need not be monotone to the last
    # ulp, and W must never rise.  The odds buffer becomes the survival.
    survival = odds
    np.log1p(survival, out=survival)
    np.cumsum(survival, out=survival)
    np.negative(survival, out=survival)
    np.exp(survival, out=survival)
    np.minimum.accumulate(survival, out=survival)
    trace = SimulationTrace(len(psi), schedule.n + 1, lambda start, stop: (
        schedule.dt * np.arange(start, stop), populations(start, stop), survival[start:stop]))
    trace.survival = survival
    return trace


def default_tunneling_steps(gamma: float, t_total: float) -> int:
    """Sample count of a tunneling trace: one sample per 0.01/gamma, at
    least 1000.

    Every sample is formed at its own time, so the count sets only the trace's
    density; the value at T is the same for any count (to ulps past EIGVEC_COND_MAX).
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

    return _evolve(hm, psi, t_total, steps + 1, lambda p: p[:, :-1].sum(axis=1))


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
