"""Leak deficits 1 - W against frozen high-precision references.

The deficit, 1e-5 to 1e-8 here, is the quantity the Zeno-versus-tunneling
comparison is about; W itself would hide errors in its last digits.
"""

import math

import pytest

from zenosim import cli, engine
from zenosim.engine import ZenoSchedule, run_zeno
from zenosim.models import build_three_level
from zenosim.report import sweep, validate_config

from oracles import (
    EXCEPTIONAL_POINT,
    EXCEPTIONAL_POINT_DEFICIT_40,
    TUNNELING_DEFICIT_40,
    ZENO_DEFICIT_40,
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


@pytest.mark.parametrize("omega,gamma", sorted(TUNNELING_DEFICIT_40))
def test_sweep_tunneling_deficit(omega, gamma):
    w = sweep_w_tunnel(omega, gamma)
    assert relative_error(w, TUNNELING_DEFICIT_40[(omega, gamma)]) <= 1e-7


@pytest.mark.parametrize("omega,gamma", [(0.01, 40.0), (0.05, 400.0)])
def test_tunneling_mode_deficit(omega, gamma, capsys):
    w = tunneling_summary(capsys, omega, gamma)
    assert relative_error(w, TUNNELING_DEFICIT_40[(omega, gamma)]) <= 1e-7
    # the trace's last row and a sweep's end value are one number
    assert w == sweep_w_tunnel(omega, gamma)


def test_exceptional_point_takes_the_mat_exp_rows(capsys, monkeypatch):
    # cond(V) is 1.5e8 here; V exp(-i Lambda t) V^-1 misses the deficit by 4.7e-6
    calls = []
    mat_exp = engine.mat_exp

    def counting(*args):
        calls.append(args)
        return mat_exp(*args)

    monkeypatch.setattr(engine, "mat_exp", counting)
    p = EXCEPTIONAL_POINT
    w = tunneling_summary(capsys, p["omega"], p["gamma"], p["eta"], p["t_total"])
    assert len(calls) == 1001
    assert relative_error(w, EXCEPTIONAL_POINT_DEFICIT_40) <= 1e-9
