"""Smoke tests of the runnable demos in scripts/: each runs in a fresh
interpreter, with the package on PYTHONPATH, as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurkernels

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name, *args):
    src = str(Path(schurkernels.__file__).parents[1])
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_runs_with_no_flags(name):
    p = run_script(name)
    assert p.returncode == 0, p.stderr
    assert "Traceback" not in p.stdout + p.stderr


def test_expansion_demo_missing_parameter_is_a_usage_error():
    p = run_script("expansion_demo.py", "--ensemble", "jue")
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert "jue needs beta" in p.stderr


@pytest.mark.parametrize("kind", ["gue", "sw"])
def test_expansion_demo_runs_on_kinds_without_alpha(kind):
    p = run_script("expansion_demo.py", "--ensemble", kind)
    assert p.returncode == 0, p.stderr
    assert "schur expansion" in p.stdout


def test_expansion_demo_stray_alpha_is_a_usage_error():
    p = run_script("expansion_demo.py", "--ensemble", "gue", "--alpha", "1")
    assert p.returncode == 2
    assert "gue does not take alpha" in p.stderr


def test_fermion_report_negative_n_is_a_usage_error():
    p = run_script("fermion_report.py", "--n", "-1")
    assert p.returncode == 2
    assert "Traceback" not in p.stderr
    assert "--n" in p.stderr
