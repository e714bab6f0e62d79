"""Leak deficits 1 - W against frozen high-precision references.

The deficit, 1e-5 to 1e-8 here, is the quantity the Zeno-versus-tunneling
comparison is about; W itself would hide errors in its last digits.
"""

import math

import numpy as np
import pytest

from zenosim import cli, engine
from zenosim.engine import ZenoSchedule, run_tunneling, run_zeno
from zenosim.linalg import mat_exp
from zenosim.models import build_three_level, build_tunneling
from zenosim.report import sweep, validate_config

from oracles import (
    EXCEPTIONAL_POINT,
    EXCEPTIONAL_POINT_DEFICIT_40,
    SCHULMAN_DEFICITS_40,
    TUNNELING_DEFICIT_40,
    ZENO_DEFICIT_40,
    ZENO_POPULATIONS_40,
)

ETA, T = -0.2, 5.0


def relative_error(w, reference):
    exact = float(reference)
    return abs((1.0 - w) - exact) / exact


def sweep_w_tunnel(omega, gamma):
    cfg = validate_config({"mode": "sweep", "axis": "gamma", "axis_values": [gamma],
                           "omega": omega, "eta": ETA, "t_total": T})
    ((_, _, w_tunnel),) = sweep(cfg).records
    return w_tunnel


def tunneling_summary(capsys, omega, gamma, eta=ETA, t_total=T):
    """W on the summary line of the `tunneling` mode, run with default steps."""
    argv = ["tunneling", "--omega", repr(omega), "--eta", repr(eta),
            "--gamma", repr(gamma), "--t-total", repr(t_total)]
    assert cli.main(argv) == 0
    return float(capsys.readouterr().out.split("W=")[1])


# W rounded to float64 holds d only to about 6e-17 / d, which is 1e-9 at n = 40,000
@pytest.mark.parametrize("n,rtol", [(400, 1e-9), (4000, 1e-9), (40000, 1e-8)])
def test_zeno_deficit(n, rtol):
    h = build_three_level(0.05, -math.pi / 2, ETA)
    trace = run_zeno(h, [1, 0, 0], ZenoSchedule(n, T / n))
    assert relative_error(trace.survival[-1], ZENO_DEFICIT_40[n]) <= rtol


# The eigen modes measured 8e-16, 1.0e-14 and 4.9e-14 at n = 4,000 and 1.4e-14
# and 4.5e-13 at n = 40,000, the binary powers 6.7e-16, 8.5e-15, 4.0e-14, 1.4e-14
# and 4.5e-13: the rounding of U = exp(-iH dt), raised to the k-th power.  The eigendecomposition of K itself, not of K - I, missed the n = 4,000
# gate (2.4e-13 at k = 4,000).
@pytest.mark.parametrize("n,atol", [(4000, 1e-13), (40000, 1e-12)])
def test_zeno_populations(n, atol, zeno_path):
    h = build_three_level(0.05, -math.pi / 2, ETA)
    trace = run_zeno(h, [1, 0, 0], ZenoSchedule(n, T / n))
    rows = {k: row for (m, k), row in ZENO_POPULATIONS_40.items() if m == n}
    for k, row in rows.items():
        exact = [float(p) for p in row]
        np.testing.assert_allclose(trace.populations[k, :2], exact, rtol=0, atol=atol)
        assert trace.populations[k, 2] == 0.0


def test_zeno_near_an_exceptional_point_of_the_kept_block():
    # The kept block K of U is nearly nilpotent here and its eigenvectors
    # nearly merge, so every check is formed from binary powers of K.  The
    # reference is the evolve-project loop in 60 digits on the same float64 U.
    # Measured: 3.3e-9 relative in log W and 4.0e-8 in the populations.
    # Against the exact H they are 3.8e-8 and 3.8e-7, mostly the rounding of U.
    mp = pytest.importorskip("mpmath")
    h = build_three_level(1.0, -math.pi / 2, 0.0)
    n, dt = 8, 1.209199576
    u = mat_exp(h, -1j * dt)
    assert np.linalg.cond(np.linalg.eig(u[:2, :2] - np.eye(2))[1]) > engine.EIGVEC_COND_MAX
    trace = run_zeno(h, [1, 0, 0], ZenoSchedule(n, dt))
    with mp.workdps(60):
        state, log_w = mp.matrix([1, 0, 0]), mp.mpf(0)
        for k in range(1, n + 1):
            state = mp.matrix(u.tolist()) * state
            kept = abs(state[0]) ** 2 + abs(state[1]) ** 2
            log_w += mp.log(kept / (kept + abs(state[2]) ** 2))
            state = mp.matrix([state[0], state[1], 0]) / mp.sqrt(kept)
            exact = [float(abs(state[i]) ** 2) for i in range(2)]
            np.testing.assert_allclose(trace.populations[k, :2], exact, rtol=0, atol=3e-7)
        assert abs(math.log(trace.survival[-1]) / float(log_w) - 1.0) <= 2e-8


@pytest.mark.parametrize("omega,gamma", sorted(TUNNELING_DEFICIT_40))
def test_sweep_tunneling_deficit(omega, gamma):
    w = sweep_w_tunnel(omega, gamma)
    assert relative_error(w, TUNNELING_DEFICIT_40[(omega, gamma)]) <= 1e-7


def test_pulsed_checks_and_continuous_monitoring_are_one_effect():
    # Schulman (PRA 57, 1509, 1998): monitoring at rate gamma acts like checks
    # every tau = 4/gamma, so n checks in T and gamma = 4n/T leak alike, up to
    # O(1/n).  Measured: every deficit within 1.3e-10 of its reference, and
    # n*(1 - ratio) within 6.4e-7 of the reference's (at n = 10,000).
    ns = sorted(SCHULMAN_DEFICITS_40)
    ratios, run_ratios = [], []
    for n in ns:
        zeno, tunneling = map(float, SCHULMAN_DEFICITS_40[n])
        w_zeno = run_zeno(build_three_level(0.05, -math.pi / 2, ETA), [1, 0, 0],
                          ZenoSchedule(n, T / n)).final_survival
        w_tunnel = run_tunneling(build_tunneling(0.05, ETA, 4 * n / T), [1, 0, 0], T,
                                 steps=1).final_survival
        assert relative_error(w_zeno, zeno) <= 1e-9
        assert relative_error(w_tunnel, tunneling) <= 1e-9
        ratios.append(tunneling / zeno)
        run_ratios.append((1.0 - w_tunnel) / (1.0 - w_zeno))
    # The ratio rises toward 1, and its gap settles as c/n: each step of
    # n*(1 - ratio) is smaller than the one before.
    assert all(a < b < 1.0 for a, b in zip(ratios, ratios[1:]))
    settle = np.multiply(ns, np.subtract(1.0, ratios))
    steps = np.abs(np.diff(settle))
    assert np.all(steps[1:] < steps[:-1])
    np.testing.assert_allclose(np.multiply(ns, np.subtract(1.0, run_ratios)), settle,
                               rtol=0, atol=1e-5)


@pytest.mark.parametrize("omega,gamma", [(0.01, 40.0), (0.05, 400.0)])
def test_tunneling_mode_deficit(omega, gamma, capsys):
    w = tunneling_summary(capsys, omega, gamma)
    assert relative_error(w, TUNNELING_DEFICIT_40[(omega, gamma)]) <= 1e-7
    # the trace's last row and a sweep's end value are one number
    assert w == sweep_w_tunnel(omega, gamma)


@pytest.mark.parametrize("steps", [1000, 200_000])
def test_exceptional_point_takes_binary_products(steps, monkeypatch):
    # cond(V) is 1.5e8 here; V exp(-i Lambda t) V^-1 misses the deficit by 4.7e-6.
    # Row k is a product of factors exp(-iH dt 2^b) over the bits of k: 10 for
    # 1,001 rows and 18 for 200,001, not one mat_exp per row.  Each is formed
    # directly: measured 4.9e-14 and 2.2e-13.  Squaring them up from
    # exp(-iH dt) instead compounds its rounding to 7.4e-9 at 200,001 rows.
    calls = []
    mat_exp = engine.mat_exp

    def counting(*args):
        calls.append(args)
        return mat_exp(*args)

    monkeypatch.setattr(engine, "mat_exp", counting)
    p = EXCEPTIONAL_POINT
    h = build_tunneling(p["omega"], p["eta"], p["gamma"])
    trace = run_tunneling(h, [1, 0, 0], p["t_total"], steps=steps)
    assert len(calls) == steps.bit_length()
    assert relative_error(trace.survival[-1], EXCEPTIONAL_POINT_DEFICIT_40) <= 1e-9
