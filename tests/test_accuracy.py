"""Leak deficits 1 - W against frozen high-precision references.

The deficit, 1e-5 to 1e-8 here, is the quantity the Zeno-versus-tunneling
comparison is about; W itself would hide errors in its last digits.
"""

import math

import pytest

from zenosim.engine import ZenoSchedule, run_zeno
from zenosim.models import build_three_level
from zenosim.report import sweep, validate_config

from oracles import TUNNELING_DEFICIT_40, ZENO_DEFICIT_40

ETA, T = -0.2, 5.0


def relative_error(w, reference):
    exact = float(reference)
    return abs((1.0 - w) - exact) / exact


# W rounded to float64 holds d only to about 6e-17 / d, which is 1e-9 at n = 40,000
@pytest.mark.parametrize("n,rtol", [(400, 1e-9), (4000, 1e-9), (40000, 1e-8)])
def test_zeno_deficit(n, rtol):
    h = build_three_level(0.05, -math.pi / 2, ETA)
    _, record = run_zeno(h, [1, 0, 0], ZenoSchedule(n, T / n))
    assert relative_error(record.w_zeno, ZENO_DEFICIT_40[n]) <= rtol


@pytest.mark.parametrize("omega,gamma", sorted(TUNNELING_DEFICIT_40))
def test_sweep_tunneling_deficit(omega, gamma):
    cfg = validate_config({"mode": "sweep", "axis": "gamma", "axis_values": [gamma],
                           "omega": omega, "eta": ETA, "t_total": T})
    (record,) = sweep(cfg).records
    assert relative_error(record.w_tunnel, TUNNELING_DEFICIT_40[(omega, gamma)]) <= 1e-7
