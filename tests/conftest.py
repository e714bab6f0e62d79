import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from zenosim import engine  # noqa: E402


@pytest.fixture(params=["eigen_modes", "binary_powers"])
def zeno_path(request, monkeypatch):
    """Runs a test on both sources of run_zeno's kept-state columns: one
    eigendecomposition of the kept block (the default), or its binary powers
    (the source it takes when that eigendecomposition is ill-conditioned).
    EIGVEC_COND_MAX = -1 forces the binary powers on run_tunneling as well."""
    if request.param == "binary_powers":
        monkeypatch.setattr(engine, "EIGVEC_COND_MAX", -1.0)
    return request.param
