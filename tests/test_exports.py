import importlib
import re
from pathlib import Path

import pytest

import zenosim
from zenosim.cli import build_parser
from zenosim.report import _MODES, _SWEEP_AXIS_REQUIRED, MODES

from test_cli import run_python

# zenosim.cli defines no __all__: its interface is the command line.
MODULES = ["zenosim", "zenosim.engine", "zenosim.ghz", "zenosim.linalg", "zenosim.models",
           "zenosim.report"]

README = Path(__file__).resolve().parent.parent / "README.md"


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


def python_child(code, cwd):
    """Run `python -c CODE` in a fresh interpreter; return its stdout."""
    result = run_python(["-c", code], cwd, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_import_loads_no_numpy(tmp_path):
    loaded = python_child(
        "import sys, zenosim\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'zenosim')))",
        tmp_path)
    assert loaded.strip() == "['zenosim']"


def test_from_import_still_loads_a_submodule(tmp_path):
    code = "from zenosim import cli\nprint(cli.__name__, cli.main.__name__)"
    assert python_child(code, tmp_path) == "zenosim.cli main\n"


@pytest.mark.parametrize("name", [n for n in zenosim.__all__ if n != "__version__"])
def test_export_is_its_defining_modules_object(name):
    value = getattr(zenosim, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert vars(zenosim)[name] is value  # resolved once, then a plain global


@pytest.mark.parametrize("module", sorted(zenosim._EXPORTS))
def test_exports_are_in_their_modules_all(module):
    names = importlib.import_module(f"zenosim.{module}").__all__
    assert [n for n in zenosim._EXPORTS[module] if n not in names] == []


def test_dir_covers_all():
    assert set(zenosim.__all__) <= set(dir(zenosim))


def test_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'zenosim' has no attribute 'no_such'$"):
        zenosim.no_such  # noqa: B018


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md (Library quick start)", "exec"), {})
    assert capsys.readouterr().out.count("\n") == code.count("print(")


def test_readme_lists_every_override_flag():
    line = next(line for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("Override flags: "))
    listed = line.split("`")[1].split()
    options = [opt for action in build_parser()._actions for opt in action.option_strings
               if opt not in ("-h", "--help", "--config")]
    assert listed == options


def test_readme_schema_table_lists_every_mode():
    section = README.read_text(encoding="utf-8").split("\n### Config schema\n", 1)[1]
    rows = [line for line in section.split("\n#", 1)[0].splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == list(MODES)
    # Each row's required and optional cells name exactly the keys its mode
    # accepts; a sweep's axis needs are named in the axes sentence instead.
    axis_needs = set().union(*_SWEEP_AXIS_REQUIRED.values())
    for row in rows:
        mode, required, optional = (cell.strip() for cell in row.strip().strip("|").split("|"))
        mode = mode.strip("`")
        named = set(re.findall(r"`(\w+)`", required + optional))
        keys = _MODES[mode].keys
        assert named <= keys, f"{mode}: {sorted(named - keys)}"
        unnamed = keys - named - (axis_needs if mode == "sweep" else set())
        assert not unnamed, f"{mode}: {sorted(unnamed)}"


def test_readme_sweep_axes_name_their_required_keys():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = text.split("Sweep axes: ", 1)[1].split(". ", 1)[0]
    axes = {}
    for item in sentence.split("), "):
        axis, needs = item.split(" (needs ", 1)
        axes[axis.strip("`")] = {key.strip("`);") for key in needs.split(";")[0].split(", ")}
    assert axes == _SWEEP_AXIS_REQUIRED
