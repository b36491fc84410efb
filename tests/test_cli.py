"""CLI surface tests: grammar, JSON determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import schurkernels
from schurkernels.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestSchurAvg:
    def test_spec_example(self, runner):
        r = invoke(runner, ["schur-avg", "--ensemble", "lue", "--alpha", "0",
                            "--m", "2", "--partition", "1"])
        assert r.exit_code == 0
        assert json.loads(r.output) == {"value": "4/1"}

    def test_oracle_method_agrees(self, runner):
        a = invoke(runner, ["schur-avg", "--ensemble", "jue", "--alpha", "1",
                            "--beta", "2", "--m", "3", "--partition", "2,1"])
        b = invoke(runner, ["schur-avg", "--ensemble", "jue", "--alpha", "1",
                            "--beta", "2", "--m", "3", "--partition", "2,1",
                            "--method", "oracle"])
        assert a.output == b.output

    def test_qrat_output(self, runner):
        r = invoke(runner, ["schur-avg", "--ensemble", "sw", "--m", "1",
                            "--partition", "1"])
        assert json.loads(r.output)["value"] == {
            "var": "u", "offset": -3, "num": ["1/1"], "den": ["1/1"]}

    def test_real_parameter(self, runner):
        r = invoke(runner, ["schur-avg", "--ensemble", "lue", "--alpha", "0.5",
                            "--m", "2", "--partition", "1"])
        out = json.loads(r.output)["value"]
        assert out["precision"] == 50
        assert out["value"].startswith("5.0")  # M(M+alpha) = 2 * 2.5

    def test_ginibre_rejected(self, runner):
        r = runner.invoke(main, ["schur-avg", "--ensemble", "ginibre",
                                 "--m", "2", "--partition", "1"])
        assert r.exit_code == 1

    def test_unknown_flag_exit2(self, runner):
        r = runner.invoke(main, ["schur-avg", "--ensemble", "lue",
                                 "--nope", "1"])
        assert r.exit_code == 2

    def test_bad_partition_exit2(self, runner):
        r = runner.invoke(main, ["schur-avg", "--ensemble", "lue", "--alpha",
                                 "0", "--m", "2", "--partition", "1,x"])
        assert r.exit_code == 2


class TestKernelCommands:
    def test_eval_spec_example(self, runner):
        r = invoke(runner, ["kernel", "eval", "--ensemble", "lue", "--alpha",
                            "0", "--N", "2", "--n", "1", "--x", "1", "--y",
                            "1", "--method", "schur"])
        assert json.loads(r.output) == {"khat": "1/1"}

    def test_eval_methods_agree(self, runner):
        base = None
        for method in ("schur", "double", "cd"):
            r = invoke(runner, ["kernel", "eval", "--ensemble", "gue", "--N",
                                "4", "--n", "1", "--x", "2/3", "--y", "5",
                                "--method", method])
            val = json.loads(r.output)["khat"]
            base = base or val
            assert val == base

    def test_expand_deterministic(self, runner):
        args = ["kernel", "expand", "--ensemble", "lue", "--alpha", "1",
                "--N", "4", "--n", "1"]
        r1, r2 = invoke(runner, args), invoke(runner, args)
        assert r1.output == r2.output
        payload = json.loads(r1.output)
        assert payload["rectangle"] == {"rows": 2, "cols": 3}
        assert payload["coefficients"][0] == {"partition": [],
                                              "coefficient": "1/1"}

    def test_expand_csv(self, runner):
        r = invoke(runner, ["kernel", "expand", "--ensemble", "gue", "--N",
                            "3", "--n", "1", "--format", "csv"])
        assert "rectangle.rows,2" in r.output


class TestPainleveToeplitzHeat:
    def test_painleve_coeffs(self, runner):
        r = invoke(runner, ["painleve", "coeffs", "--n", "1", "--m-size", "2",
                            "--order", "2"])
        assert json.loads(r.output) == {"f0": "20/1", "b": ["0/1", "-1/10"]}

    def test_toeplitz_inverse(self, runner):
        r = invoke(runner, ["toeplitz", "inverse", "--gamma", "1", "--delta",
                            "1", "--size", "2"])
        assert json.loads(r.output) == {"matrix": [["2/3", "1/3"],
                                                   ["1/3", "2/3"]]}

    def test_verify_dr(self, runner):
        r = invoke(runner, ["toeplitz", "verify-dr", "--gamma", "2",
                            "--delta", "1", "--size", "4"])
        assert r.exit_code == 0
        assert json.loads(r.output)["ok"] is True

    def test_heat_kernel(self, runner):
        r = invoke(runner, ["heat-kernel", "--q", "0.5", "--xi", "1",
                            "--eta", "-1"])
        payload = json.loads(r.output)
        assert payload["closed"]["value"].startswith("0.4444444444")
        assert float(payload["abs_diff"]["value"]) < 1e-25

    def test_heat_kernel_explicit_terms(self, runner):
        r = invoke(runner, ["heat-kernel", "--q", "0.5", "--xi", "0",
                            "--eta", "0", "--terms", "5"])
        assert json.loads(r.output)["terms"] == 5


class TestVerifyCommand:
    def test_single_suite(self, runner):
        r = invoke(runner, ["verify", "--suite", "symmetry"])
        assert r.exit_code == 0
        assert "PASS" in r.output

    def test_json_determinism_across_runs(self, runner):
        args = ["verify", "--suite", "sw-fermion", "--seed", "7",
                "--format", "json"]
        r1, r2 = invoke(runner, args), invoke(runner, args)
        assert r1.output == r2.output
        payload = json.loads(r1.output)
        assert payload["sw-fermion"]["failed"] == 0
        assert "zm_ratio_M1" in payload["sw-fermion"]["notes"]

    def test_unknown_suite_exit2(self, runner):
        r = runner.invoke(main, ["verify", "--suite", "nonsense"])
        assert r.exit_code == 2

    def test_precision_flag(self, runner):
        r = invoke(runner, ["--precision", "30", "heat-kernel", "--q", "0.5",
                            "--xi", "1", "--eta", "1"])
        assert json.loads(r.output)["closed"]["precision"] == 30


LUE_AVG = ["schur-avg", "--ensemble", "lue", "--alpha", "0", "--m", "2",
           "--partition", "1"]
EVAL = ["kernel", "eval", "--ensemble", "gue", "--N", "3", "--n", "1"]


@pytest.mark.parametrize("args, env", [
    (["--precision", "-5"] + LUE_AVG, None),
    (["--precision", "0"] + LUE_AVG, None),
    (LUE_AVG, {"SCHURKERNELS_PRECISION": "abc"}),
    (["schur-avg", "--ensemble", "lue-tilde", "--m", "2", "--partition", "1"], None),
    (["schur-avg", "--ensemble", "jue", "--alpha", "1", "--m", "2"], None),
    (["toeplitz", "verify-dr", "--gamma", "-2", "--delta", "1", "--size", "3"], None),
    (["toeplitz", "inverse", "--gamma", "-1", "--delta", "1", "--size", "3"], None),
    (["schur-avg", "--ensemble", "lue", "--alpha", "0", "--m", "-1"], None),
    (["kernel", "expand", "--ensemble", "gue", "--N", "3", "--n", "0"], None),
    (["schur-avg", "--ensemble", "lue", "--alpha", "1/x", "--m", "2"], None),
    (EVAL + ["--x", "1/0", "--y", "2"], None),
    (["heat-kernel", "--q", "1", "--xi", "0", "--eta", "0"], None),
])
def test_bad_input_fails_cleanly(runner, args, env):
    if env is None:
        r = runner.invoke(main, args)
        assert isinstance(r.exception, SystemExit)
        code, out = r.exit_code, r.output
    else:
        # a fresh interpreter, so that the variable reaches the import too
        src = str(Path(schurkernels.__file__).parents[1])
        p = subprocess.run([sys.executable, "-m", "schurkernels.cli", *args],
                           env={**os.environ, **env, "PYTHONPATH": src},
                           capture_output=True, text=True, timeout=60)
        code, out = p.returncode, p.stdout + p.stderr
    assert code in (1, 2)
    assert "Traceback" not in out
    assert len([line for line in out.splitlines() if line.startswith("Error:")]) == 1
