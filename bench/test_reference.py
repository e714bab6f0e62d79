"""Checks of the benchmark's own reference and output checks.

Run with: python -m pytest bench
"""

import pytest

mp = pytest.importorskip("mpmath")

import reference  # noqa: E402
import run  # noqa: E402

TOL = mp.mpf(10) ** -reference.QUOTED_DIGITS


def test_unitary_matches_eta0_closed_form():
    assert reference.closed_form_gap() <= TOL


def test_zeno_single_check_equals_unitary():
    assert reference.single_check_gap() <= TOL


def test_working_precision_carries_quoted_digits():
    assert reference.precision_gap() <= TOL


def test_reference_deficits_sit_in_the_paper_range():
    # omega = 0.05, eta = -0.2, T = 5: deficits between 1e-8 and 1e-4
    assert 6e-6 < reference.zeno_deficit(0.05, -0.2, 5.0, 400) < 7e-6
    assert 6e-8 < reference.zeno_deficit(0.05, -0.2, 5.0, 40000) < 7e-8
    assert 5e-5 < reference.tunneling_deficit(0.05, -0.2, 40.0, 5.0) < 6e-5


def test_check_output_rejects_a_wrong_deficit():
    job = run.tunneling(40.0)
    ref = reference.tunneling_deficit(0.05, -0.2, 40.0, 5.0)
    good = f"mode=tunneling T=5 W={1 - float(ref):.17g}"
    problems, errors = run.check_output(job, good, "")
    assert problems == [] and errors[0] < 1e-9
    problems, _ = run.check_output(job, f"mode=tunneling T=5 W={1 - 1.001 * float(ref):.17g}", "")
    assert problems and "deficit" in problems[0]


def test_check_output_rejects_a_population_above_one():
    job = run.Job("no-zeno", "no_zeno", dict(omega=0.05, eta=-0.2, t_total=5.0), out=True, rows=2)
    w = f"{1 - float(reference.unitary_deficit(0.05, -0.2, 5.0)):.17g}"
    csv = f"t,p1,p2,p3,W\n0,1,0,0,1\n5,0.5,0.5,0,{w}\n"
    assert run.check_output(job, f"mode=no_zeno T=5 W={w}", csv)[0] == []
    bad = csv.replace("0,1,0,0,1", "0,1.0000000000000004,0,0,1")
    assert run.check_output(job, f"mode=no_zeno T=5 W={w}", bad)[0]
