"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
Every tolerance is asserted exactly as stated; nothing is deferred to later
calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from zenosim.cli import main
from zenosim.engine import (
    ZenoSchedule,
    perturbative_step,
    run_tunneling,
    run_unitary,
    run_zeno,
    two_level_survival_closed_form,
)
from zenosim.ghz import entangling_time, ghz_fidelity, rotation_pulse, run_ghz_protocol
from zenosim.linalg import mat_exp
from zenosim.models import (
    build_ghz_hamiltonian,
    build_three_level,
    build_tunneling,
    build_two_level,
)

from oracles import fine_step_final_state, taylor_expm
from test_engine import FROZEN_W_TUNNEL_ORACLE

OMEGA, ETA = 0.05, -0.2
PHI_Y = -math.pi / 2


def ground_state(dim: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    return psi


def _report(cid: str, desc: str, elapsed: float, limit: float, checks: dict) -> None:
    failed = [name for name, ok in checks.items() if not ok]
    ok = not failed and elapsed < limit
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {desc} ({elapsed:.3f} s)")
    assert not failed, f"{cid} failed checks: {failed}"
    assert elapsed < limit, f"{cid} runtime {elapsed:.3f} s exceeds {limit} s"


def _loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def test_criterion_1_two_level_closed_form():
    start = time.perf_counter()
    closed_small = two_level_survival_closed_form(1.0, 1.0, 2)
    v, t_total, n = 0.1, 10.0, 100
    closed = two_level_survival_closed_form(v, t_total, n)
    w_zeno = run_zeno(
        build_two_level(v), ground_state(2), ZenoSchedule(n, t_total / n)
    ).survival[-1]
    elapsed = time.perf_counter() - start
    _report("criterion 1", "two-level closed form and simulated Zeno run", elapsed, 1.0, {
        "closed form (q=1, n=2) is exactly 0.5625": closed_small == 0.5625,
        "simulated matches closed form within 1e-5": abs(w_zeno - closed) <= 1e-5,
        "closed form is about 0.9900": abs(closed - 0.9900) <= 1e-4,
        "simulated is about 0.9900": abs(w_zeno - 0.9900) <= 1e-4,
    })


def test_criterion_2_zeno_limit():
    start = time.perf_counter()
    checks = {}
    for n in (10**2, 10**4, 10**6):
        w = two_level_survival_closed_form(1.0, 1.0, n)
        checks[f"deficit at n={n} within 2q/n"] = 1.0 - w <= 2.0 / n
    w_large = two_level_survival_closed_form(1.0, 1.0, 10**6)
    checks["W at n=1e6 is at least 1 - 2e-6"] = w_large >= 1.0 - 2e-6
    elapsed = time.perf_counter() - start
    _report("criterion 2", "Zeno limit of the closed form", elapsed, 1.0, checks)


def test_criterion_3_three_level_zeno():
    start = time.perf_counter()
    h = build_three_level(OMEGA, PHI_Y, ETA)
    t_total = 5.0
    w = {}
    checks = {}
    for n in (25, 50, 100, 400):
        dt = t_total / n
        trace = run_zeno(h, ground_state(3), ZenoSchedule(n, dt))
        w[n] = trace.survival[-1]
        checks[f"leak population zero at all post-measurement instants (n={n})"] = bool(
            np.all(trace.populations[:, 2] == 0.0)
        )
        bound = (1.0 - 2.0 * OMEGA**2 * dt**2) ** n
        checks[f"survival above second-order bound (n={n})"] = w[n] >= bound
    checks["survival increases with measurement count"] = w[25] < w[50] < w[100] < w[400]
    elapsed = time.perf_counter() - start
    _report("criterion 3", "three-level Zeno scenario at fixed T=5 ns", elapsed, 5.0, checks)


def test_criterion_4_second_order_expansion():
    start = time.perf_counter()
    h = build_three_level(OMEGA, PHI_Y, ETA)
    a1, a2 = 0.6, 0.8j
    psi0 = np.array([a1, a2, 0.0], dtype=complex)
    dts = np.logspace(-3, -2, 7)
    errors = []
    for dt in dts:
        exact = mat_exp(h, -1j * dt) @ psi0
        approx = np.array(perturbative_step(a1, a2, OMEGA, ETA, 0.0, dt))
        errors.append(np.linalg.norm(exact - approx))
    slope = _loglog_slope(dts, errors)
    elapsed = time.perf_counter() - start
    _report("criterion 4", "second-order step converges at third order", elapsed, 1.0, {
        f"log-log slope {slope:.3f} within 3 +/- 0.2": abs(slope - 3.0) <= 0.2,
    })


def test_criterion_5a_leak_amplitude_without_tunneling():
    start = time.perf_counter()
    dts = np.logspace(-3, -2, 7)
    amps = []
    for dt in dts:
        h = build_tunneling(OMEGA, ETA, 0.0)
        psi = mat_exp(h, -1j * dt) @ np.array([0, 1, 0], dtype=complex)
        amps.append(abs(psi[2]))
    slope = _loglog_slope(dts, amps)
    elapsed = time.perf_counter() - start
    _report("criterion 5a", "exact leak amplitude without tunneling is first order",
            elapsed, 1.0, {
                f"log-log slope {slope:.3f} within 1 +/- 0.05": abs(slope - 1.0) <= 0.05,
            })


def test_criterion_5b_leak_amplitude_with_matched_tunneling():
    # gamma = 4/dt cancels the first-order leak amplitude of the second-order
    # expansion (perturbative_step), which assumes gamma*dt << 1.  The exact
    # step does not: to first order in omega, a3 = -sqrt(2) omega
    # (1 - exp(-i h33 dt)) / h33 with h33 = eta - 2i/dt, which tends to
    # sqrt(2) omega dt (1 - e^-2)/2 as dt -> 0 -- still first order.
    start = time.perf_counter()
    dts = np.logspace(-3, -2, 7)
    excited = np.array([0, 1, 0], dtype=complex)
    prefactor = math.sqrt(2.0) * OMEGA * (1.0 - math.exp(-2.0)) / 2.0
    perturbative = []
    prefactor_dev = oracle_dev = 0.0
    for dt in dts:
        perturbative.append(abs(perturbative_step(0, 1, OMEGA, ETA, 4.0 / dt, dt)[2]))
        h = build_tunneling(OMEGA, ETA, 4.0 / dt)
        a3 = (mat_exp(h, -1j * dt) @ excited)[2]
        a3_oracle = (taylor_expm(h, -1j * dt) @ excited)[2]
        prefactor_dev = max(prefactor_dev, abs(abs(a3) - prefactor * dt) / (prefactor * dt))
        oracle_dev = max(oracle_dev, abs(a3 - a3_oracle) / abs(a3_oracle))
    slope = _loglog_slope(dts, perturbative)
    elapsed = time.perf_counter() - start
    _report("criterion 5b", "gamma=4/dt cancels the first-order leak of the second-order "
            "step; the exact step keeps (1 - e^-2)/2 of it", elapsed, 1.0, {
                f"second-order step: log-log slope {slope:.3f} within 2 +/- 0.1":
                    abs(slope - 2.0) <= 0.1,
                f"exact step: |a3| matches sqrt(2) omega dt (1 - e^-2)/2, "
                f"relative deviation {prefactor_dev:.2e} within 1e-5": prefactor_dev <= 1e-5,
                f"exact step: a3 matches Taylor oracle, "
                f"relative deviation {oracle_dev:.2e} within 1e-12": oracle_dev <= 1e-12,
            })


def test_criterion_6_tunneling_measurement_model():
    start = time.perf_counter()
    gamma, t_total = 40.0, 5.0
    h = build_tunneling(OMEGA, ETA, gamma)
    trace = run_tunneling(h, ground_state(3), t_total)
    psi_oracle = fine_step_final_state(h, ground_state(3), t_total, delta=1e-5)
    w_oracle = abs(psi_oracle[0]) ** 2 + abs(psi_oracle[1]) ** 2

    # norm decay rate against gamma * p3 by central differences
    step = 1e-4
    rate_ok = True
    for t in (0.5, 1.7, 3.3):
        psi = mat_exp(h, -1j * t) @ ground_state(3)
        plus = mat_exp(h, -1j * (t + step)) @ ground_state(3)
        minus = mat_exp(h, -1j * (t - step)) @ ground_state(3)
        deriv = (np.linalg.norm(plus) ** 2 - np.linalg.norm(minus) ** 2) / (2 * step)
        rate_ok = rate_ok and abs(deriv + gamma * abs(psi[2]) ** 2) <= 1e-6
    elapsed = time.perf_counter() - start
    _report("criterion 6", "continuous tunneling measurement scenario", elapsed, 2.0, {
        "peak leak population at most 1e-3": float(np.max(trace.populations[:, 2])) <= 1e-3,
        "oracle value unchanged since freezing": abs(w_oracle - FROZEN_W_TUNNEL_ORACLE) <= 1e-12,
        "survival matches frozen oracle within 1e-9":
            abs(trace.survival[-1] - FROZEN_W_TUNNEL_ORACLE) <= 1e-9,
        "norm decay rate equals -gamma*p3 within 1e-6": rate_ok,
    })


def test_criterion_7_ghz_protocol():
    start = time.perf_counter()
    uniform = rotation_pulse("y", math.pi / 2) @ ground_state(8)
    checks = {
        "uniformity deviation after the Y pulse at most 1e-12":
            ghz_fidelity(uniform).uniformity_deviation <= 1e-12,
        "entangling time at reference couplings":
            abs(entangling_time(0.02, 0.005) - math.pi / 0.03) <= 1e-12,
    }
    for g, g_tilde in ((0.02, 0.005), (0.03, 0.01), (0.01, -0.01)):
        _, diag = run_ghz_protocol(g, g_tilde)
        checks[f"fidelity at (g={g}, g~={g_tilde})"] = diag.fidelity >= 1.0 - 1e-9
    elapsed = time.perf_counter() - start
    _report("criterion 7", "single-step GHZ protocol", elapsed, 1.0, checks)


def test_criterion_8_kernel_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        radius = np.sqrt(rng.uniform(size=(3, 3)))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(3, 3))
        a = radius * np.exp(1j * angle)
        worst = max(worst, float(np.max(np.abs(mat_exp(a, -1j) - taylor_expm(a, -1j)))))

    unitarity = 0.0
    hermitians = [
        build_two_level(0.1),
        build_three_level(OMEGA, PHI_Y, ETA),
        build_ghz_hamiltonian(np.full((3, 3), 0.02), 0.02, 0.005),
    ]
    for h in hermitians:
        for t in (0.1, 1.0, 10.0):
            u = mat_exp(h, -1j * t)
            unitarity = max(unitarity, float(np.max(np.abs(
                u @ u.conj().T - np.eye(u.shape[0])
            ))))
    elapsed = time.perf_counter() - start
    _report("criterion 8", "matrix exponential kernel validity", elapsed, 1.0, {
        f"worst deviation from Taylor oracle {worst:.2e} within 1e-10": worst <= 1e-10,
        f"worst unitarity defect {unitarity:.2e} within 1e-10": unitarity <= 1e-10,
    })


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    scenario = {"mode": "three_level_zeno", "omega": 0.05, "eta": -0.2, "n": 50, "dt": 0.1}
    config = tmp_path / "fig2.json"
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"

    config.write_text(json.dumps({**scenario, "out": str(out1)}), encoding="utf-8")
    rc1 = main(["three-level-zeno", "--config", str(config)])
    config.write_text(json.dumps({**scenario, "out": str(out2)}), encoding="utf-8")
    rc2 = main(["three-level-zeno", "--config", str(config)])

    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "three_level_zeno", "omega": 0.05', encoding="utf-8")
    never = tmp_path / "never.csv"
    rc_bad = main(["three-level-zeno", "--config", str(bad), "--out", str(never)])
    elapsed = time.perf_counter() - start
    _report("criterion 9", "CLI determinism and failure hygiene", elapsed, 5.0, {
        "both runs succeed": rc1 == 0 and rc2 == 0,
        "repeated scenario gives byte-identical CSV": out1.read_bytes() == out2.read_bytes(),
        "malformed config exits nonzero": rc_bad != 0,
        "malformed config writes no output": not never.exists(),
    })
