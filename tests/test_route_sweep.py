"""Tests of ci/route_sweep.py: its fixed groups keep every command line the
hand-written CI `cmp` steps ran, `check` reports a route that is off and
says why a call failed, and the timing report names the slowest call."""

import importlib.util
import time
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import schurkernels
from schurkernels import cli

_path = Path(__file__).parents[1] / "ci" / "route_sweep.py"
_spec = importlib.util.spec_from_file_location("route_sweep", _path)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

# The command lines of the ten `cmp` steps that tier1.yml ran before the
# sweep, as their loops expanded them, each with the methods it compared.
JUE30 = ("--alpha 123456789012345678901234567891/1000000000000000000000000000000 "
         "--beta 131415926535897932384626433832/100000000000000000000000000000")
CMP_STEPS = {
    "Andreief oracles equal the closed forms on both sides of the QRat determinant size switch": [
        ("schur-avg --ensemble qlue --alpha 1 --m 8 --partition 3,2,1", "closed oracle"),
        ("schur-avg --ensemble sw --m 13 --partition 2,1", "closed oracle"),
    ],
    "Walked closed averages, classical and q, print the Andreief oracle's bytes at M = 8": [
        (f"schur-avg --ensemble {ens} --m 8 --partition {mu}", "closed oracle")
        for ens in ("gue", "lue --alpha 1/2", "jue --alpha 7/10 --beta 13/10",
                    "sw", "qlue --alpha 0", "qlue --alpha 1")
        for mu in ("4,3,3,2", "5,5,2,2,1,1")
    ],
    "Inverse-Laguerre and inverse-Jacobi closed averages print the Andreief oracle's bytes at M = 8": [
        (f"schur-avg --ensemble {ens} --m 8 --partition {mu}", "closed oracle")
        for ens in ("lue-tilde --alpha-tilde 30", "jue-tilde --alpha 1 --beta 20")
        for mu in ("4,3,3,2", "5,5,2,2,1,1")
    ],
    "The q-Laguerre double route at n = 3 prints the Schur route's bytes": [
        ("kernel eval --ensemble qlue --alpha 1 --N 7 --n 3 --x 3/7,-2/9,5/11 "
         "--y -5/11,4/13,7/5", "double schur"),
    ],
    "JUE at 30-digit rational parameters prints one value on three routes": [
        (f"kernel eval --ensemble jue {JUE30} --N 48 --n 1 --x -7/5 --y 11/13", "cd double schur"),
    ],
    "JUE at decimal parameters prints one value on three routes": [
        ("kernel eval --ensemble jue --alpha 0.7 --beta 1.3 --N 48 --n 1 --x -7/5 --y 11/13",
         "cd double schur"),
    ],
    "Stieltjes-Wigert at N = 24 and q-Laguerre at N = 16 print one value on three routes": [
        (f"kernel eval --ensemble {ens} --n 1 --x 3/7 --y -5/11", "cd double schur")
        for ens in ("sw --N 24", "qlue --alpha 0 --N 16", "qlue --alpha 1 --N 16")
    ],
    "Classical exact kernels at N = 96 print one value on three routes": [
        (f"kernel eval --ensemble {ens} --N 96 --n 1 --x -7/5 --y 11/13", "cd double schur")
        for ens in ("gue", "lue --alpha 1/2", "jue --alpha 7/10 --beta 13/10")
    ],
    "The Chebyshev form prints the Schur route's bytes": [
        (f"kernel eval --ensemble {ens} --n 1 --x -7/5 --y -28/45", "chebyshev schur")
        for ens in ("gue --N 96", "lue --alpha 1/2 --N 96",
                    "jue --alpha 7/10 --beta 13/10 --N 96", "sw --N 24")
    ],
    "Inverse-Laguerre and inverse-Jacobi kernels print one value on three routes": [
        (f"kernel eval {args}", "cd double schur") for args in (
            "--ensemble lue-tilde --alpha-tilde 60 --N 12 --n 2 --x 3/7,-2/9 --y -5/11,4/13",
            "--ensemble jue-tilde --alpha 1 --beta 60 --N 12 --n 1 --x 3/7 --y -5/11",
            "--ensemble lue-tilde --alpha-tilde 60 --N 24 --n 2 --x 3/7,-2/9 --y -5/11,4/13",
            "--ensemble jue-tilde --alpha 1 --beta 60 --N 24 --n 2 --x 3/7,-2/9 --y -5/11,4/13")
    ],
}


def test_fixed_groups_hold_every_cmp_step_command_line():
    groups = [(tuple(line.split()), tuple(methods.split()))
              for step in CMP_STEPS.values() for line, methods in step]
    assert (len(CMP_STEPS), len(groups), sum(len(ms) for _, ms in groups)) == (10, 35, 82)
    fixed = [(tuple(line.split()), ms) for line, ms in sweep.FIXED]
    assert [" ".join(argv) for argv, ms in groups if (argv, ms) not in fixed] == []
    assert len(set(fixed)) == len(fixed)


def in_process(argv):
    r = CliRunner().invoke(cli.main, list(argv))
    return (True, r.stdout) if r.exit_code == 0 else (False, r.output.strip().splitlines()[-1])


def test_check_reports_the_group_whose_route_is_one_unit_off(monkeypatch):
    """check names the one group whose cd route is one unit off in the last
    place of its p/q, and no group when the routes are as they are."""
    kernel = f"{sweep.K} lue --alpha 1/2 --N 4 --n 1 --x 3/7 --y -5/11"
    average = f"{sweep.A} lue --alpha 1/2 --m 3 --partition 2,1"
    groups = [(kernel, sweep.ROUTES), (average, sweep.AVG)]
    assert sweep.check(groups, in_process) == []
    exact = cli.khat_cd
    monkeypatch.setattr(cli, "khat_cd", lambda q: exact(q) + Fraction(1, exact(q).denominator))
    assert sweep.check(groups, in_process) == [f"{kernel} --method cd != double/schur"]


def test_report_names_the_slowest_call():
    """The slowest-calls report of an in-process run lists every call,
    slowest first, and names first the one call that sleeps half a second."""
    groups = [(f"{sweep.K} lue --alpha 1/2 --N 4 --n 1 --x 3/7 --y -5/11", sweep.ROUTES),
              (f"{sweep.A} lue --alpha 1/2 --m 3 --partition 2,1", sweep.AVG)]
    slow = f"{sweep.K} lue --alpha 1/2 --N 4 --n 1 --x 3/7 --y -5/11 --method double"

    def run(argv):
        if " ".join(argv) == slow:
            time.sleep(0.5)
        return in_process(argv)

    times = []
    assert sweep.check(groups, sweep.timed(run, times)) == []
    report = sweep.slowest(times)
    assert len(report) == 5 and report[0].endswith(f"s  {slow}")
    seconds = [float(line.split()[0]) for line in report]
    assert seconds == sorted(seconds, reverse=True) and seconds[0] >= 0.5


def test_check_prints_why_a_call_failed():
    """A failed call's methods carry the last line of its stderr: a sweep
    that cannot import the package says so on every group line, and one
    failing route names its own error beside the routes that ran."""
    kernel = f"{sweep.K} lue --alpha 1/2 --N 4 --n 1 --x 3/7 --y -5/11"
    average = f"{sweep.A} lue --alpha 1/2 --m 3 --partition 2,1"
    groups = [(kernel, sweep.ROUTES), (average, sweep.AVG)]
    missing = "ModuleNotFoundError: No module named 'schurkernels'"
    assert sweep.check(groups, lambda argv: (False, missing)) == [
        f"{kernel} --method cd/double/schur (failed: {missing})",
        f"{average} --method closed/oracle (failed: {missing})"]

    def cd_fails(argv):
        return (False, "Error: out of memory") if argv[-1] == "cd" else in_process(argv)
    assert sweep.check(groups, cd_fails) == [
        f"{kernel} --method cd (failed: Error: out of memory) != double/schur"]


def test_run_returns_the_last_stderr_line_of_a_failed_call(monkeypatch):
    """`run` itself, in a fresh interpreter that imports this checkout's
    package: a bad flag exits 2 and its usage error is the reason it gives."""
    monkeypatch.setenv("PYTHONPATH", str(Path(schurkernels.__file__).parents[1]))
    ok, text = sweep.run(["schur-avg", "--ensemble", "gue", "--m", "-1", "--partition", "1"])
    assert not ok and text.startswith("Error: ") and "-1" in text
