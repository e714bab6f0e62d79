import math
import tracemalloc

import numpy as np
import pytest

from zenosim import engine
from zenosim.engine import (
    DegenerateProjectionError,
    SimulationTrace,
    ZenoSchedule,
    default_tunneling_steps,
    perturbative_step,
    run_tunneling,
    run_unitary,
    run_zeno,
    two_level_survival_closed_form,
)
from zenosim.linalg import mat_exp
from zenosim.models import (
    build_three_level,
    build_tunneling,
    build_two_level,
)

from oracles import (
    EXCEPTIONAL_POINT,
    build_three_level_ideal,
    fine_step_final_state,
    zeno_survival_taylor,
)

OMEGA, ETA = 0.05, -0.2
PHI_Y = -math.pi / 2

# Regression values pinned from the first verified run of this implementation,
# cross-checked below against the independent Taylor-propagator oracle.
FROZEN_W_ZENO = {
    25: 0.9998973677560562,
    50: 0.999948617934153,
    100: 0.9999742947036303,
    200: 0.9999871440640015,
    400: 0.9999935712448154,
}
FROZEN_BASELINE = 0.9982099452315643
# Fine-step integrator oracle value (4th-order Taylor stepper, delta = 1e-5 ns)
# for the continuous-tunneling scenario gamma=40/ns, omega=0.05, T=5 ns.
FROZEN_W_TUNNEL_ORACLE = 0.9999493799419517


def ground_state(dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


class TestClosedForm:
    def test_zero_coupling_survives(self):
        assert two_level_survival_closed_form(0.0, 7.3, 5) == 1.0

    def test_single_interval_at_q_one(self):
        assert two_level_survival_closed_form(1.0, 1.0, 1) == 0.0

    def test_two_intervals_at_q_one(self):
        assert two_level_survival_closed_form(1.0, 1.0, 2) == 0.5625

    def test_monotone_in_n(self):
        n = np.arange(2, 10001)
        w = (1.0 - 1.0 / n**2) ** n
        assert np.all(np.diff(w) > 0)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            two_level_survival_closed_form(1.0, 1.0, 0)

    def test_rejects_a_non_finite_coupling(self):
        with pytest.raises(ValueError, match="must be finite"):
            two_level_survival_closed_form(math.nan, 1.0, 1)


class TestZenoLimit:
    def test_closed_form_approaches_limit(self):
        # at q = 1 the deficit behaves like q/n
        gap = 1.0 - two_level_survival_closed_form(1.0, 1.0, 10**6)
        assert 0.9e-6 < gap < 1.1e-6

    @pytest.mark.parametrize("n", [100, 10**4, 10**6])
    def test_deficit_bound(self, n):
        w = two_level_survival_closed_form(1.0, 1.0, n)
        assert 1.0 - w <= 2.0 / n


class TestRunUnitary:
    def test_ideal_hamiltonian_rabi_oscillation(self):
        h = build_three_level_ideal(OMEGA, ETA)
        trace = run_unitary(h, ground_state(3), 5.0, samples=101)
        expected_p1 = np.cos(OMEGA * trace.times) ** 2
        expected_p2 = np.sin(OMEGA * trace.times) ** 2
        np.testing.assert_allclose(trace.populations[:, 0], expected_p1, atol=1e-10)
        np.testing.assert_allclose(trace.populations[:, 1], expected_p2, atol=1e-10)
        assert np.max(trace.populations[:, 2]) <= 1e-10

    def test_two_level_rabi(self):
        v, t = 0.17, 6.0
        trace = run_unitary(build_two_level(v), ground_state(2), t, samples=31)
        assert abs(trace.populations[-1, 1] - math.sin(v * t) ** 2) <= 1e-10
        # survival is the population outside the last level at dim 2 too
        assert abs(trace.survival[-1] - math.cos(v * t) ** 2) <= 1e-12

    def test_zero_drive_is_constant(self):
        h = build_three_level(0.0, PHI_Y, ETA)
        trace = run_unitary(h, ground_state(3), 3.0, samples=11)
        np.testing.assert_allclose(
            trace.populations, np.tile([1.0, 0.0, 0.0], (11, 1)), atol=1e-14
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            run_unitary(build_tunneling(OMEGA, ETA, 40.0), ground_state(3), 1.0, samples=3)

    def test_rejects_a_time_of_zero(self):
        with pytest.raises(ValueError, match="t_total must be positive"):
            run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(3), 0.0)

    def test_norm_preserved_at_every_sample(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        trace = run_unitary(h, ground_state(3), 5.0, samples=64)
        norms = trace.populations.sum(axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)
        # t = 0 is the initial state itself, not its eigenbasis round trip
        assert np.array_equal(trace.populations[0], np.abs(ground_state(3)) ** 2)

    def test_final_survival_is_single_shot_probability(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        trace = run_unitary(h, ground_state(3), 5.0, samples=11)
        assert trace.survival[-1] == 1.0 - trace.populations[-1, 2]


class TestRunZeno:
    def test_ideal_hamiltonian_never_leaks(self):
        h = build_three_level_ideal(OMEGA, ETA)
        trace = run_zeno(h, ground_state(3), ZenoSchedule(40, 0.125))
        assert trace.survival[-1] == 1.0
        reference = run_unitary(h, ground_state(3), 5.0, samples=41)
        np.testing.assert_allclose(
            trace.populations, reference.populations, atol=1e-10
        )

    def test_two_level_toy_matches_cosine_product(self):
        v, n, dt = 0.1, 100, 0.1
        trace = run_zeno(build_two_level(v), ground_state(2), ZenoSchedule(n, dt))
        assert abs(trace.survival[-1] - math.cos(v * dt) ** (2 * n)) <= 1e-12

    def test_near_certain_leak_keeps_relative_accuracy(self):
        # each check keeps cos^2(V dt) ~ 1e-18; 1 - leak would cancel to ~1e-16
        dt = math.pi / 2 - 1e-9
        w = run_zeno(build_two_level(1.0), ground_state(2), ZenoSchedule(3, dt)).survival[-1]
        exact = math.cos(dt) ** 6
        assert abs(w - exact) <= 1e-9 * exact

    @pytest.mark.parametrize("v,n,dt", [(0.1, 10, 1.0), (0.1, 100, 0.1), (0.5, 50, 0.2)])
    def test_two_level_toy_near_closed_form(self, v, n, dt):
        # closed form drops the (V dt)^4 term of the per-step survival
        assert v * dt <= 0.1
        w = run_zeno(build_two_level(v), ground_state(2), ZenoSchedule(n, dt)).survival[-1]
        closed = two_level_survival_closed_form(v, n * dt, n)
        assert abs(w - closed) <= n * (v * dt) ** 4

    @pytest.mark.parametrize("n", sorted(FROZEN_W_ZENO))
    def test_reference_scenario_regression(self, n):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        trace = run_zeno(h, ground_state(3), ZenoSchedule(n, 5.0 / n))
        assert abs(trace.survival[-1] - FROZEN_W_ZENO[n]) <= 1e-12
        oracle = zeno_survival_taylor(h, np.diag([1, 1, 0]), ground_state(3), n, 5.0 / n)
        assert abs(trace.survival[-1] - oracle) <= 1e-12
        # post-measurement leak population is identically zero
        assert np.all(trace.populations[:, 2] == 0.0)

    def test_reference_scenario_ordering_and_bound(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        w = {}
        for n in (25, 50, 100, 200, 400):
            dt = 5.0 / n
            assert OMEGA * dt <= 0.01 + 1e-12
            w[n] = run_zeno(h, ground_state(3), ZenoSchedule(n, dt)).survival[-1]
            assert w[n] >= (1.0 - 2.0 * OMEGA**2 * dt**2) ** n
        assert w[25] < w[50] < w[100] < w[200] < w[400]

    def test_zeno_limit_rate(self):
        # the survival deficit halves with each doubling of n
        deficits = {n: 1.0 - FROZEN_W_ZENO[n] for n in (25, 50, 100, 200, 400)}
        for n in (25, 50, 100, 200):
            ratio = deficits[2 * n] / deficits[n]
            assert 0.3 <= ratio <= 0.7

    def test_survival_matches_survival_product(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        # row k of the survival column is W of the run that stops after k checks
        trace = run_zeno(h, ground_state(3), ZenoSchedule(20, 0.25))
        for k in (1, 7, 19):
            assert trace.survival[k] == run_zeno(h, ground_state(3),
                                                 ZenoSchedule(k, 0.25)).survival[-1]

    def test_certain_leakage_raises(self):
        # a quarter period of the toy model puts all population in the
        # monitored state, so the conditioned protocol cannot continue
        with pytest.raises(DegenerateProjectionError):
            run_zeno(build_two_level(1.0), ground_state(2), ZenoSchedule(1, math.pi / 2))

    @pytest.mark.parametrize("h,psi0", [
        (build_two_level(1.0), [1, 0]),
        # the kept block's other mode, level 1, holds none of psi0
        (np.array([[0.3, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex), [0, 1, 0]),
    ])
    def test_certain_leakage_raises_at_the_same_step_on_both_paths(self, h, psi0, zeno_path):
        with pytest.raises(DegenerateProjectionError,
                           match=r"^certain leakage at step 1: projected norm 6\.519e-17$"):
            run_zeno(h, psi0, ZenoSchedule(5, math.pi / 2))

    # Runs that leak nearly all of their state at every check; the second
    # underflows to W = 0.
    @pytest.mark.parametrize("omega,eta,n,dt,w", [(2.0, 0.0, 300, 1.3, 3.3643545370e-213),
                                                  (1.0, ETA, 2000, 1.0, 0.0)])
    def test_leaking_at_every_check(self, omega, eta, n, dt, w, zeno_path):
        trace = run_zeno(build_three_level(omega, PHI_Y, eta), ground_state(3),
                         ZenoSchedule(n, dt))
        assert not np.isnan(trace.populations).any()
        assert not np.isnan(trace.survival).any()
        assert trace.survival[-1] == pytest.approx(w, rel=1e-10, abs=0)

    def test_a_mode_the_state_does_not_excite(self, zeno_path):
        # Level 1 is decoupled and does not decay, level 2 keeps cos^2(1/2) of
        # its weight per check: past k ~ 2,700 a scale set by level 1 would
        # underflow every amplitude of the state.
        h = np.array([[0.3, 0, 0], [0, 0, 0.5], [0, 0.5, 0]], dtype=complex)
        trace = run_zeno(h, [0, 1, 0], ZenoSchedule(3000, 1.0))
        np.testing.assert_array_equal(trace.populations[1:], [[0.0, 1.0, 0.0]] * 3000)
        # The running sum of log1p(odds) rounds by up to about eps * k * |log W| / 2
        # of W: 2e-11 at k = 2,000, where log W = -523.
        k = np.arange(2001)
        np.testing.assert_allclose(trace.survival[k], math.cos(0.5) ** (2 * k), rtol=1e-10)
        assert not np.isnan(trace.survival).any()

    def test_near_an_exceptional_point_the_checks_take_binary_powers(self, monkeypatch):
        # The kept block's two eigenvectors nearly merge here: cond(V) = 8e4.
        h = build_three_level(1.0, PHI_Y, 0.0)
        schedule = ZenoSchedule(8, 1.209199576)
        kept = mat_exp(h, -1j * schedule.dt)[:2, :2]
        assert np.linalg.cond(np.linalg.eig(kept - np.eye(2))[1]) > engine.EIGVEC_COND_MAX
        trace = run_zeno(h, ground_state(3), schedule)
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
        powers = run_zeno(h, ground_state(3), schedule)
        assert np.array_equal(trace.populations, powers.populations)
        assert np.array_equal(trace.survival, powers.survival)

    def test_a_level_the_state_never_reaches_sets_no_scale(self):
        # Level 0 is decoupled and psi0 never reaches it; the near-exceptional
        # block of the test above keeps about 2e-10 per check.  The squares of
        # K take only the levels psi0 reaches, so level 0's weight sets no
        # scale and the state's column never underflows: W is 0 from check 34
        # on, and no population is NaN at any n.
        h = np.zeros((4, 4), dtype=complex)
        h[0, 0] = 0.3
        h[1:, 1:] = build_three_level(1.0, PHI_Y, 0.0)
        dt = 1.209199576
        for n in (128, 200):
            trace = run_zeno(h, [0, 1, 0, 0], ZenoSchedule(n, dt))
            assert trace.survival[33] > 0.0 and np.all(trace.survival[34:] == 0.0)
            assert not np.isnan(trace.populations).any()
            assert not np.isnan(trace.survival).any()

    def test_rejects_leaked_initial_state(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        with pytest.raises(ValueError):
            run_zeno(h, np.array([0, 0, 1.0], dtype=complex), ZenoSchedule(5, 0.1))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            run_zeno(build_tunneling(OMEGA, ETA, 40.0), ground_state(3), ZenoSchedule(5, 0.1))


class TestRunTunneling:
    def test_gamma_zero_matches_unitary(self):
        h = build_tunneling(OMEGA, ETA, 0.0)
        trace = run_tunneling(h, ground_state(3), 5.0, steps=100)
        reference = run_unitary(h, ground_state(3), 5.0, samples=101)
        np.testing.assert_allclose(trace.populations, reference.populations, atol=1e-10)
        assert abs(trace.survival[-1] - reference.survival[-1]) <= 1e-10

    def test_reference_scenario_against_fine_step_oracle(self):
        h = build_tunneling(OMEGA, ETA, 40.0)
        trace = run_tunneling(h, ground_state(3), 5.0)
        psi_oracle = fine_step_final_state(h, ground_state(3), 5.0, delta=1e-5)
        w_oracle = abs(psi_oracle[0]) ** 2 + abs(psi_oracle[1]) ** 2
        assert abs(w_oracle - FROZEN_W_TUNNEL_ORACLE) <= 1e-13
        assert abs(trace.survival[-1] - FROZEN_W_TUNNEL_ORACLE) <= 1e-9
        assert np.max(trace.populations[:, 2]) <= 1e-3

    def test_norm_non_increasing(self):
        h = build_tunneling(OMEGA, ETA, 40.0)
        trace = run_tunneling(h, ground_state(3), 5.0, steps=2000)
        norms = trace.populations.sum(axis=1)
        assert np.all(np.diff(norms) <= 1e-10)

    def test_norm_decay_rate_is_gamma_p3(self):
        # d||psi||^2/dt = -gamma p3(t), checked by central differences
        gamma = 40.0
        h = build_tunneling(OMEGA, ETA, gamma)
        psi0 = ground_state(3)
        step = 1e-4
        for t in (0.5, 1.7, 3.3):
            psi = mat_exp(h, -1j * t) @ psi0
            plus = mat_exp(h, -1j * (t + step)) @ psi0
            minus = mat_exp(h, -1j * (t - step)) @ psi0
            deriv = (np.linalg.norm(plus) ** 2 - np.linalg.norm(minus) ** 2) / (2 * step)
            assert abs(deriv + gamma * abs(psi[2]) ** 2) <= 1e-6

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_exceptional_point_reaches_t_in_few_steps(self, steps):
        # A sweep's end value takes steps = 1.  The last row is the product of
        # steps.bit_length() factors exp(-iH dt 2^b); one factor too few
        # leaves it at |psi0|^2, 0.06 off at steps = 1.
        p = EXCEPTIONAL_POINT
        h = build_tunneling(p["omega"], p["eta"], p["gamma"])
        trace = run_tunneling(h, ground_state(3), p["t_total"], steps=steps)
        exact = np.abs(mat_exp(h, -1j * p["t_total"]) @ ground_state(3)) ** 2
        np.testing.assert_allclose(trace.populations[-1], exact, rtol=0, atol=1e-15)

    def test_forced_binary_products_match_the_eigen_rows(self, monkeypatch):
        # EIGVEC_COND_MAX = -1 sends a well-conditioned H through the fallback:
        # 20,001 rows at gamma = 40, measured within 2.6e-14 of the eigen rows.
        h = build_tunneling(OMEGA, ETA, 40.0)
        eigen = run_tunneling(h, ground_state(3), 5.0)
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
        forced = run_tunneling(h, ground_state(3), 5.0)
        assert len(forced.times) == 20_001
        np.testing.assert_allclose(forced.populations, eigen.populations, rtol=0, atol=1e-13)

    def test_forced_binary_products_restore_the_scale_of_a_leaked_state(self, monkeypatch):
        # W falls to 4.9e-11: the products rescale each column by powers of
        # two on the way, and the rows must carry the true scale.  Measured:
        # 1.2e-13 relative in every cell.
        h = build_tunneling(0.5, ETA, 2.0)
        eigen = run_tunneling(h, ground_state(3), 60.0, steps=1000)
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
        forced = run_tunneling(h, ground_state(3), 60.0, steps=1000)
        assert forced.survival[-1] < 1e-10
        np.testing.assert_allclose(forced.populations, eigen.populations, rtol=1e-12, atol=0)

    def test_rejects_gain(self):
        h = build_three_level(OMEGA, PHI_Y, ETA).copy()
        h[2, 2] = ETA + 20j
        with pytest.raises(ValueError):
            run_tunneling(h, ground_state(3), 1.0, steps=10)

    def test_default_steps(self):
        assert default_tunneling_steps(0.0, 5.0) == 1000
        assert default_tunneling_steps(40.0, 5.0) == 20000

    def test_default_steps_past_the_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="past the float range"):
            run_tunneling(build_tunneling(0.05, -0.2, 1e300), [1, 0, 0], 1e300)

    @pytest.mark.filterwarnings("error")
    def test_phase_past_the_float_range_is_a_value_error(self):
        # |lambda| * t = 1e308 * 5: exp of that phase would be NaN
        h = build_tunneling(OMEGA, -1e308, 1.0)
        with pytest.raises(ValueError, match="past the float range"):
            run_tunneling(h, ground_state(3), 5.0, steps=10)
        with pytest.raises(ValueError, match="past the float range"):
            run_unitary(build_three_level(OMEGA, PHI_Y, 1e308), ground_state(3), 5.0)


class TestPerturbativeStep:
    def test_ground_start_leak_amplitude(self):
        dt = 0.01
        _, _, a3 = perturbative_step(1.0, 0.0, OMEGA, ETA, 0.0, dt)
        expected = (math.sqrt(2) / 2) * OMEGA**2 * dt**2
        assert abs(a3 - expected) <= 1e-15 * abs(expected) + 1e-30

    def test_excited_start_amplitudes(self):
        dt = 0.01
        a1, _, a3 = perturbative_step(0.0, 1.0, OMEGA, ETA, 0.0, dt)
        expected_a3 = math.sqrt(2) * OMEGA * dt - (math.sqrt(2) / 2) * 1j * ETA * OMEGA * dt**2
        assert abs(a3 - expected_a3) <= 1e-15
        assert abs(a1 - (-OMEGA * dt)) <= 1e-15

    @pytest.mark.parametrize("a1,a2", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j), (0.28 - 0.4j, 0.87)])
    def test_gamma_cancellation_leaves_quadratic_residue(self, a1, a2):
        dt = 0.005
        gamma = 4.0 / dt
        _, _, a3 = perturbative_step(a1, a2, OMEGA, ETA, gamma, dt)
        residue = (math.sqrt(2) / 2) * (a1 * OMEGA**2 - 1j * a2 * OMEGA * ETA) * dt**2
        assert abs(a3 - residue) <= 1e-9 * max(abs(residue), 1e-30) + 1e-18

    def test_third_order_accuracy(self):
        # deviation from the exact propagator scales as dt^3
        h = build_three_level(OMEGA, PHI_Y, ETA)
        a1, a2 = 0.6, 0.8j
        psi0 = np.array([a1, a2, 0.0], dtype=complex)
        dts = np.logspace(-3, -2, 7)
        errs = []
        for dt in dts:
            exact = mat_exp(h, -1j * dt) @ psi0
            approx = np.array(perturbative_step(a1, a2, OMEGA, ETA, 0.0, dt))
            errs.append(np.linalg.norm(exact - approx))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 3.0) <= 0.2


class TestScheduleAndRecords:
    def test_schedule_total_time(self):
        assert ZenoSchedule(50, 0.1).t_total == pytest.approx(5.0)

    @pytest.mark.parametrize("n,dt", [(0, 0.1), (-3, 0.1), (2.5, 0.1), (5, 0.0), (5, -1.0)])
    def test_schedule_validation(self, n, dt):
        with pytest.raises(ValueError):
            ZenoSchedule(n, dt)

    def test_schedule_rejects_an_overflowing_total_time(self):
        # each dt is finite, but T = n*dt is past the float range
        with pytest.raises(ValueError, match=r"n\*dt must be finite"):
            ZenoSchedule(3, 1e308)

    def test_record_fields_are_probabilities(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        trace = run_zeno(h, ground_state(3), ZenoSchedule(25, 0.2))
        assert 0.0 <= trace.survival[-1] <= 1.0 + 1e-12
        assert len(trace.times) == 25 + 1
        assert isinstance(trace, SimulationTrace)


class TestTraceInvariants:
    def _traces(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        h_nh = build_tunneling(OMEGA, ETA, 40.0)
        zeno_trace = run_zeno(h, ground_state(3), ZenoSchedule(50, 0.1))
        tun_trace = run_tunneling(h_nh, ground_state(3), 5.0, steps=2000)
        uni_trace = run_unitary(h, ground_state(3), 5.0, samples=101)
        return zeno_trace, tun_trace, uni_trace

    def test_times_strictly_increasing(self):
        for trace in self._traces():
            assert np.all(np.diff(trace.times) > 0)

    def test_populations_are_probabilities(self):
        for trace in self._traces():
            assert np.min(trace.populations) >= 0.0
            assert np.max(trace.populations) <= 1.0 + 1e-12

    def test_survival_non_increasing(self):
        for trace in self._traces():
            assert np.all(np.diff(trace.survival) <= 1e-10)

    def test_no_zeno_baseline_regression(self):
        h = build_three_level(OMEGA, PHI_Y, ETA)
        trace = run_unitary(h, ground_state(3), 5.0, samples=2)
        assert abs(trace.survival[-1] - FROZEN_BASELINE) <= 1e-12


def ladder(dim: int, omega: float, eta: float, gamma: float) -> np.ndarray:
    """A driven ladder with sqrt(k) couplings; its last level is detuned by
    eta and decays at rate gamma."""
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        h[k, k + 1] = h[k + 1, k] = omega * math.sqrt(k + 1)
    h[-1, -1] = eta - 0.5j * gamma
    return h


class TestAnyDimension:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_tunneling_against_fine_step_oracle(self, dim):
        h = ladder(dim, 0.3, ETA, 4.0)
        trace = run_tunneling(h, ground_state(dim), 5.0, steps=50)
        psi = fine_step_final_state(h, ground_state(dim), 5.0, delta=1e-4)
        np.testing.assert_allclose(trace.populations[-1], np.abs(psi) ** 2, atol=1e-10)
        # survival is the population outside the last level, at every row
        np.testing.assert_array_equal(trace.survival, trace.populations[:, :-1].sum(axis=1))
        assert trace.populations.shape == (51, dim)
        assert trace.survival[-1] < 1.0 - 1e-3

    def test_zeno_on_a_four_level_ladder(self):
        h = ladder(4, 0.3, ETA, 0.0)
        trace = run_zeno(h, ground_state(4), ZenoSchedule(50, 0.1))
        oracle = zeno_survival_taylor(h, np.diag([1, 1, 1, 0]), ground_state(4), 50, 0.1)
        assert abs(trace.survival[-1] - oracle) <= 1e-12
        assert trace.survival[-1] < 1.0 - 1e-4
        assert trace.populations.shape == (51, 4)
        assert np.all(trace.populations[:, 3] == 0.0)


RUNNERS = {
    "unitary": lambda h, psi: run_unitary(h, psi, 1.0, samples=3),
    "zeno": lambda h, psi: run_zeno(h, psi, ZenoSchedule(2, 0.5)),
    "tunneling": lambda h, psi: run_tunneling(h, psi, 1.0, steps=2),
}


def _nan_in_h():
    h = build_three_level(OMEGA, PHI_Y, ETA)
    h[1, 1] = np.nan
    return h


# (h, psi0, message) inputs that break the one input contract of every runner
BAD_INPUTS = {
    "nan_in_h": (_nan_in_h(), ground_state(3), "non-finite"),
    "nan_in_psi0": (build_three_level(OMEGA, PHI_Y, ETA), [np.nan, 0, 0], "non-finite"),
    "non_square_h": (np.zeros((3, 2)), ground_state(3), "square"),
    "psi0_of_the_wrong_length": (build_three_level(OMEGA, PHI_Y, ETA), ground_state(2),
                                 "dimension mismatch"),
    "psi0_of_two_dims": (build_three_level(OMEGA, PHI_Y, ETA), [ground_state(3)], "1-d vector"),
    "psi0_of_norm_one_half": (build_three_level(OMEGA, PHI_Y, ETA), 0.5 * ground_state(3),
                              "normalized"),
    "dim_1": (np.zeros((1, 1)), ground_state(1), r"dim >= 2"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_every_runner_checks_its_inputs_alike(runner, bad):
    h, psi0, message = BAD_INPUTS[bad]
    with pytest.raises(ValueError, match=message):
        RUNNERS[runner](h, psi0)


def _zeno_run():
    # 12,290 rows: whole blocks of every size below and a partial one.
    return run_zeno(build_three_level(OMEGA, PHI_Y, ETA), ground_state(3),
                    ZenoSchedule(12_289, 5.0 / 12_289))


SAMPLE_BLOCK_RUNS = {
    # 10,001 rows: nine whole blocks of 1,024 and a partial one.
    "unitary": lambda: run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(3), 5.0,
                                   samples=10_001),
    # 12,289 rows = 12 * 1,024 + 1: several blocks and a lone last row.
    "tunneling": lambda: run_tunneling(build_tunneling(OMEGA, ETA, 400.0), ground_state(3), 5.0,
                                       steps=12_288),
    "exceptional_point": lambda: run_tunneling(
        build_tunneling(EXCEPTIONAL_POINT["omega"], EXCEPTIONAL_POINT["eta"],
                        EXCEPTIONAL_POINT["gamma"]),
        ground_state(3), EXCEPTIONAL_POINT["t_total"], steps=50),
    # 6,145 rows = 6 * 1,024 + 1, each a product of binary powers of the step.
    "tunneling_powers": lambda: run_tunneling(build_tunneling(OMEGA, ETA, 40.0),
                                              ground_state(3), 5.0, steps=6_144),
    "zeno": _zeno_run,
    # The same checks, each kept-state column a product of binary powers.
    "zeno_powers": _zeno_run,
}


@pytest.mark.parametrize("run", sorted(SAMPLE_BLOCK_RUNS))
def test_results_do_not_depend_on_the_sample_block(run, monkeypatch):
    def set_block(rows):
        monkeypatch.setattr(engine, "_BLOCK", rows)

    if run.endswith("_powers"):
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)

    set_block(10**9)
    whole = SAMPLE_BLOCK_RUNS[run]()
    # A block that is a multiple of the gemm kernel's column unroll sends
    # every column through the kernel it meets in one product over all rows.
    for block in (64, 1024, 4096):
        set_block(block)
        trace = SAMPLE_BLOCK_RUNS[run]()
        assert np.array_equal(trace.populations, whole.populations)
        assert np.array_equal(trace.survival, whole.survival)
    # Blocks of 1 and 7 rows meet other kernels, whose 3-term sums round
    # differently: within a few ulps of the largest term, which is at most 1.
    # A Zeno row, and a row of binary powers (exceptional_point, *_powers), is
    # an elementwise sum in a fixed order and meets no kernel.
    exact = run.startswith("zeno") or run in ("exceptional_point", "tunneling_powers")
    atol = 0.0 if exact else 8 * np.finfo(float).eps
    # One-check blocks of binary powers cost ~290 us each, paid twice: once
    # when the run forms its checks and once when its rows are read.  Blocks
    # of 3 take the same kernel switch at a third of that; the one-row block
    # stays covered by zeno, exceptional_point and tunneling_powers.
    for block in ((3, 7) if run == "zeno_powers" else (1, 7)):
        set_block(block)
        trace = SAMPLE_BLOCK_RUNS[run]()
        np.testing.assert_allclose(trace.populations, whole.populations, rtol=0, atol=atol)
        np.testing.assert_allclose(trace.survival, whole.survival, rtol=0, atol=atol)


def _array_trace():
    table = np.random.default_rng(7).standard_normal((3_000, 5))
    return SimulationTrace(times=table[:, 0], populations=table[:, 1:4], survival=table[:, 4])


COLUMN_RUNS = {**SAMPLE_BLOCK_RUNS, "arrays": _array_trace}


@pytest.mark.parametrize("first", ["times", "populations", "survival"])
@pytest.mark.parametrize("run", sorted(COLUMN_RUNS))
def test_the_first_column_read_forms_and_keeps_all_three(run, first, monkeypatch):
    if run.endswith("_powers"):
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
    trace = COLUMN_RUNS[run]()
    names = ("times", "populations", "survival")
    held = {name: vars(trace)[name] for name in names if name in vars(trace)}
    assert list(held) == (list(names) if run == "arrays" else
                          ["survival"] if run.startswith("zeno") else [])
    joined = [np.concatenate(cols) for cols in zip(*trace.blocks())]
    assert np.array_equal(getattr(trace, first), joined[names.index(first)])
    # Reading a held column forms nothing; reading any other forms all three.
    if first not in held:
        assert set(names) <= set(vars(trace))
    for name, column in zip(names, joined):
        assert np.array_equal(getattr(trace, name), column)
        if name in held:
            assert vars(trace)[name] is held[name]
    assert trace.final_survival.tobytes() == trace.survival[-1].tobytes()


@pytest.mark.parametrize("run", sorted(COLUMN_RUNS))
def test_the_row_count_forms_no_column(run, monkeypatch):
    if run.endswith("_powers"):
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
    trace = COLUMN_RUNS[run]()
    held = set(vars(trace))
    rows = trace.rows
    assert set(vars(trace)) == held
    assert rows == sum(len(t) for t, _, _ in trace.blocks())
    assert rows == len(trace.times) == len(trace.populations) == len(trace.survival)
    with pytest.raises(AttributeError):
        trace.rows = rows + 1


def test_a_trace_keeps_the_block_it_was_run_with(monkeypatch):
    # Blocks of 7 rows meet other gemm kernels and move thousands of this
    # run's rows by ulps (see above), so rows formed after the patch would show it.
    before = SAMPLE_BLOCK_RUNS["tunneling"]()
    reference = SAMPLE_BLOCK_RUNS["tunneling"]()
    reference.populations
    monkeypatch.setattr(engine, "_BLOCK", 7)
    rows = [np.concatenate(cols) for cols in zip(*before.blocks())]
    assert np.array_equal(rows[1], reference.populations)
    assert np.array_equal(rows[2], reference.survival)
    assert np.array_equal(before.populations, reference.populations)
    assert np.array_equal(before.survival, reference.survival)


def test_reading_w_at_t_holds_no_rows():
    trace = run_tunneling(build_tunneling(OMEGA, ETA, 400.0), ground_state(3), 5.0,
                          steps=200_000)
    tracemalloc.start()
    try:
        w = trace.final_survival
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert w == trace.survival[-1]


def test_binary_products_skip_a_bit_no_power_has():
    # Powers 0, 1, 8 and 9 set bits 0 and 3 only: the factors at bits 1 and 2
    # are never applied, so a NaN there changes nothing, and neither is read.
    h = build_tunneling(OMEGA, ETA, 40.0)
    factors = [mat_exp(h, -1j * 0.1 * 2.0**b) for b in range(4)]
    powers = np.array([0, 1, 8, 9])
    x, e = engine._binary_products(factors, ground_state(3), powers)
    for spare in (np.full((3, 3), np.nan), None):
        got_x, got_e = engine._binary_products([factors[0], spare, spare, factors[3]],
                                               ground_state(3), powers)
        assert np.isfinite(got_x).all()
        assert np.array_equal(got_x, x) and np.array_equal(got_e, e)


def test_zeno_holds_no_more_than_the_trace_it_returns():
    h = build_three_level(OMEGA, PHI_Y, ETA)
    tracemalloc.start()
    try:
        trace = run_zeno(h, ground_state(3), ZenoSchedule(200_000, 5.0 / 200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The run holds its survival column, 8 bytes a row; its times and
    # populations are formed when read.
    assert peak <= trace.survival.nbytes + 0.5e6


def test_zeno_w_at_t_forms_no_populations():
    trace = run_zeno(build_three_level(OMEGA, PHI_Y, ETA), ground_state(3),
                     ZenoSchedule(200_000, 5.0 / 200_000))
    tracemalloc.start()
    try:
        w = trace.final_survival
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One block of populations alone would take 24 KB.
    assert peak < 4096
    assert w == trace.survival[-1]


def test_tunneling_holds_no_more_than_the_trace_it_returns():
    h = build_tunneling(OMEGA, ETA, 400.0)
    tracemalloc.start()
    try:
        trace = run_tunneling(h, ground_state(3), 5.0, steps=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Times, populations and survival are all formed when read: the run holds
    # nothing per row, against 1.6 MB for its times alone.
    assert peak < 0.1e6
    assert len(trace.times) == 200_001


@pytest.mark.parametrize("rows", [2, engine._BLOCK + 1, 200_001])
def test_block_times_are_those_of_linspace(rows):
    trace = run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(3), 5.0,
                        samples=rows)
    expected = np.linspace(0.0, 5.0, rows)
    assert np.array_equal(np.concatenate([t for t, _, _ in trace.blocks()]), expected)
    assert np.array_equal(trace.times, expected)


def test_block_times_of_a_subnormal_step_are_those_of_linspace():
    # T / 3 rounds to 0: linspace divides by 3 first and scales by T after,
    # where arange(4) * (T / 3) would give [0, 0, 0, 5e-324].
    expected = np.linspace(0.0, 5e-324, 4)
    assert expected.tolist() == [0.0, 0.0, 5e-324, 5e-324]
    trace = run_unitary(build_three_level(OMEGA, PHI_Y, ETA), ground_state(3), 5e-324,
                        samples=4)
    assert np.array_equal(np.concatenate([t for t, _, _ in trace.blocks()]), expected)
    assert np.array_equal(trace.times, expected)


@pytest.mark.parametrize("n", [1, engine._BLOCK, 12_289])
def test_zeno_times_are_the_multiples_of_dt(n):
    schedule = ZenoSchedule(n, 5.0 / n)
    trace = run_zeno(build_three_level(OMEGA, PHI_Y, ETA), ground_state(3), schedule)
    expected = schedule.dt * np.arange(n + 1)
    assert np.array_equal(np.concatenate([t for t, _, _ in trace.blocks()]), expected)
    assert np.array_equal(trace.times, expected)
