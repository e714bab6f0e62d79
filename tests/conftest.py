import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from zenosim import engine  # noqa: E402


@pytest.fixture(params=["eigen_modes", "step_loop"])
def zeno_path(request, monkeypatch):
    """Runs a test on both forms of run_zeno: every check from one
    eigendecomposition (the default), or one check after another (the form
    it takes when that eigendecomposition is ill-conditioned)."""
    if request.param == "step_loop":
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
    return request.param
