import importlib

import pytest

# zenosim.cli defines no __all__: its interface is the command line.
MODULES = ["zenosim", "zenosim.engine", "zenosim.ghz", "zenosim.linalg", "zenosim.models",
           "zenosim.report"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported)


def test_star_import():
    namespace = {}
    exec("from zenosim import *", namespace)
    assert "run_scenario" in namespace
