"""CLI surface tests: grammar, JSON determinism, exit codes."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import schurkernels
from schurkernels import partitions as pt
from schurkernels.cli import main
from schurkernels.ensembles import EnsembleSpec, schur_average
from schurkernels.kernels import KernelQuery, expansion_table, khat_cd, khat_double, khat_schur
from schurkernels.scalars import hpreal_json, to_mpf


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

    @pytest.mark.parametrize("partition", ["", "1", "1,1,1"])
    def test_ginibre_rejected_by_oracle(self, runner, partition):
        r = runner.invoke(main, ["schur-avg", "--ensemble", "ginibre", "--m", "2",
                                 "--partition", partition, "--method", "oracle"])
        assert r.exit_code == 1
        assert "no single-Schur average" in r.output

    def test_unknown_flag_exit2(self, runner):
        r = runner.invoke(main, ["schur-avg", "--ensemble", "lue",
                                 "--nope", "1"])
        assert r.exit_code == 2

    def test_bad_partition_exit2(self, runner):
        r = runner.invoke(main, ["schur-avg", "--ensemble", "lue", "--alpha",
                                 "0", "--m", "2", "--partition", "1,x"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    @pytest.mark.parametrize("ensemble", [
        ["gue"], ["lue", "--alpha", "1"], ["lue", "--alpha", "0.5"],
        ["jue", "--alpha", "1", "--beta", "2"],
        ["jue-tilde", "--alpha", "0", "--beta", "7"],
        ["lue-tilde", "--alpha-tilde", "8"], ["sw"], ["qlue", "--alpha", "1"],
        ["qlue", "--alpha", "1/2", "--q", "1/3"],
    ], ids=" ".join)
    def test_more_rows_than_variables_is_zero(self, runner, ensemble, method):
        """s_mu with l(mu) > M is the zero polynomial: every kind that takes
        a single average answers an exact 0 by both methods, printed as a
        real when a parameter was typed as a decimal."""
        r = invoke(runner, ["schur-avg", "--ensemble", *ensemble, "--m", "1",
                            "--partition", "1,1", "--method", method])
        assert r.exit_code == 0
        zero = {"precision": 50, "value": "0.0"} if "0.5" in ensemble else "0/1"
        assert json.loads(r.output) == {"value": zero}


# The (N, n, methods) groups of the exact kernel benchmark, on its ensembles
# and on JUE 7/10, 13/10, whose moment Hankel rows have different lcms.  At
# n = 1 the product xy = (21/10)^2 has an exact square root (chebyshev).
PINNED_ENSEMBLES = ("--ensemble gue", "--ensemble lue --alpha 0", "--ensemble lue --alpha 1",
                    "--ensemble jue --alpha 1 --beta 1",
                    "--ensemble jue --alpha 7/10 --beta 13/10")
PINNED_GROUPS = [(24, 1, ("schur", "cd", "chebyshev")), (12, 1, ("double",)),
                 (10, 2, ("schur", "cd")), (8, 3, ("schur", "cd")), (6, 2, ("double",))]
PINNED_POINTS = {1: ("7/5", "63/20"), 2: ("7/5,-11/13", "5/7,13/11"),
                 3: ("7/5,-11/13,2/3", "5/7,13/11,-3/2")}
PINNED_DIGEST = "92a6e0d5851dcb2543cb8ebb56cd30443fab4b2b79c9598fbd0b453e7aadb53a"
# The real routes that read ortho_system: (ensemble, N, n) for cd and double
# at 50 digits; a change in the builder's mpf rounding or in the guard digits
# of the kernel routes changes these bytes.
REAL_PINNED_CASES = [*((ens, nr, n) for ens in ("--ensemble lue --alpha 0.5",
                                                "--ensemble jue --alpha 0.7 --beta 1.3")
                       for nr, n in ((12, 1), (24, 1), (10, 2))),
                     ("--ensemble qlue --alpha 0.5 --q 1/3", 8, 1)]
REAL_PINNED_DIGEST = "84c6a79f8a5fbeeb33954c7ca6e7daa2f3f2956e48664db30d31f711d64455ec"
# The same cases through the library at mpf parameters, the guarded mpf
# routes of a library caller.  Recorded when the CLI still parsed decimals to
# mpfs and took these routes, so it is the CLI digest of that time.
REAL_LIBRARY_PINNED_DIGEST = "84c6a79f8a5fbeeb33954c7ca6e7daa2f3f2956e48664db30d31f711d64455ec"
# Real-alpha qLUE through the library at 50 digits: `schur_average` over
# Y(3,3) at M = 3, 4, 6 and the (8,1), (12,2), (8,3) expansion tables, at
# these (alpha, q) and at q = 1/3 as an mpf; the reprs carry each value's
# type and every bit.  Recorded when each average was one closed form per
# partition and each table coefficient its own `schur_average` call.
REAL_QLUE_PAIRS = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(9, 10)),
                   (Fraction(9, 4), Fraction(7, 10)), (Fraction(-1, 2), Fraction(1, 2)),
                   (Fraction(1, 2), None)]
REAL_QLUE_PINNED_DIGEST = "6fa362c0ebdac2a3db2931828bf11f120d21bbe6dc7a886d5699f216d96ab71f"
# The exact q kinds past the benchmark's sizes: (command, N, n, methods),
# eval at PINNED_POINTS, on SW and integer-alpha qLUE.
Q_PINNED_ENSEMBLES = ("--ensemble sw", "--ensemble qlue --alpha 0", "--ensemble qlue --alpha 1")
Q_PINNED_GROUPS = [("eval", 12, 1, ("schur", "cd", "chebyshev")), ("eval", 8, 2, ("schur", "cd")),
                   ("expand", 12, 1, (None,)), ("expand", 6, 2, (None,))]
Q_PINNED_DIGEST = "d9802866950379017a225e23315b6dd69ff4fe5e7a1d374097ba3e7a67075134"


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

    def test_exact_eval_outputs_are_pinned(self, runner):
        """Every exact kernel route prints the bytes it printed when this
        digest was recorded, before the integer cold path."""
        digest = hashlib.sha256()
        for ens in PINNED_ENSEMBLES:
            for nr, n, methods in PINNED_GROUPS:
                x, y = PINNED_POINTS[n]
                for method in methods:
                    r = invoke(runner, ["kernel", "eval", *ens.split(), "--N", str(nr),
                                        "--n", str(n), "--x", x, "--y", y, "--method", method])
                    assert r.exit_code == 0, r.output
                    digest.update(r.output.encode())
        assert digest.hexdigest() == PINNED_DIGEST

    def test_real_eval_outputs_are_pinned(self, runner):
        """The real routes that read ortho_system print, at 50 digits, the
        bytes they printed when this digest was recorded."""
        digest = hashlib.sha256()
        for ens, nr, n in REAL_PINNED_CASES:
            x, y = PINNED_POINTS[n]
            for method in ("cd", "double"):
                r = invoke(runner, ["--precision", "50", "kernel", "eval", *ens.split(),
                                    "--N", str(nr), "--n", str(n), "--x", x, "--y", y,
                                    "--method", method])
                assert r.exit_code == 0, r.output
                digest.update(r.output.encode())
        assert digest.hexdigest() == REAL_PINNED_DIGEST

    def test_exact_q_outputs_are_pinned(self, runner):
        """The SW and integer-alpha qLUE routes and expansions print the bytes
        they printed when this digest was recorded, before their tables
        walked."""
        digest = hashlib.sha256()
        for ens in Q_PINNED_ENSEMBLES:
            for cmd, nr, n, methods in Q_PINNED_GROUPS:
                x, y = PINNED_POINTS[n]
                for method in methods:
                    args = ["kernel", cmd, *ens.split(), "--N", str(nr), "--n", str(n)]
                    if method:
                        args += ["--x", x, "--y", y, "--method", method]
                    r = invoke(runner, args)
                    assert r.exit_code == 0, r.output
                    digest.update(r.output.encode())
        assert digest.hexdigest() == Q_PINNED_DIGEST

    def test_real_library_routes_are_pinned(self):
        """khat_cd and khat_double at mpf parameters print, at 50 digits, the
        bytes they printed when this digest was recorded."""
        digest = hashlib.sha256()
        with mpmath.workdps(50):
            for ens, nr, n in REAL_PINNED_CASES:
                kind, *flags = ens.split()[1:]
                spec = EnsembleSpec(kind, **{k[2:]: Fraction(v) if "/" in v else mpmath.mpf(v)
                                             for k, v in zip(flags[::2], flags[1::2])})
                x, y = (tuple(map(Fraction, p.split(","))) for p in PINNED_POINTS[n])
                for route in (khat_cd, khat_double):
                    out = {"khat": hpreal_json(route(KernelQuery(spec, nr, n, x, y), dps=50))}
                    digest.update(json.dumps(out, sort_keys=True, separators=(",", ":")).encode()
                                  + b"\n")
        assert digest.hexdigest() == REAL_LIBRARY_PINNED_DIGEST

    def test_real_alpha_qlue_averages_are_pinned(self):
        """Real-alpha qLUE averages and tables keep, at 50 digits, the values
        and types they had when this digest was recorded."""
        digest = hashlib.sha256()
        with mpmath.workdps(50):
            for alpha, q in REAL_QLUE_PAIRS:
                spec = EnsembleSpec("qlue", alpha=alpha, q=q or mpmath.mpf(1) / 3)
                for m in (3, 4, 6):
                    for mu in pt.enumerate_bounded(3, 3):
                        digest.update(repr(schur_average(spec, mu, m)).encode())
                for nr, n in ((8, 1), (12, 2), (8, 3)):
                    digest.update(repr(list(expansion_table(spec, nr, n).coeffs.items())).encode())
        assert digest.hexdigest() == REAL_QLUE_PINNED_DIGEST

    def test_divergent_tilde_moment_is_named_in_order(self, runner):
        """The recurrence of a tilde kind reads m_0..m_2K in order before its
        closed form (whose denominators vanish past the divergence), so cd
        at N = 12 names the first divergent moment, m_19 at alpha_tilde 20."""
        r = runner.invoke(main, ["kernel", "eval", "--ensemble", "lue-tilde", "--alpha-tilde",
                                 "20", "--N", "12", "--n", "1", "--x", "3/7", "--y", "-5/11",
                                 "--method", "cd"])
        assert r.exit_code == 1
        assert r.output.splitlines() == ["Error: lue_tilde moment diverges at p = 19"]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["lue-tilde", "jue-tilde"])
    def test_tilde_routes_at_the_moment_boundary(self, runner, kind, n):
        """At N = 12, alpha_tilde = 2N and beta = alpha + M + 2n are the edge
        of both domains: cd and double read m_0..m_22, and the largest mu_1
        of the 2n x M table is 2n; the three routes print the same bytes.
        One step below, each route prints its own one-line error."""
        nr, m = 12, 12 - n
        def args(edge):
            ens = ([f"--alpha-tilde={2 * nr + edge}"] if kind == "lue-tilde"
                   else ["--alpha=1", f"--beta={1 + m + 2 * n + edge}"])
            return ["--ensemble", kind, *ens, "--N", str(nr), "--n", str(n)]
        x, y = PINNED_POINTS[n]
        outs = {method: invoke(runner, ["kernel", "eval", *args(0), "--x", x, "--y", y,
                                        "--method", method])
                for method in ("schur", "cd", "double")}
        assert all(r.exit_code == 0 for r in outs.values())
        assert len({r.output for r in outs.values()}) == 1
        schur_error = ("Error: lue_tilde average diverges: alpha_tilde too small"
                       if kind == "lue-tilde"
                       else "Error: jue_tilde average: mu_1 > beta_t (zero dimension)")
        moment_error = f"Error: {kind.replace('-', '_')} moment diverges at p = 22"
        for method, error in (("schur", schur_error), ("cd", moment_error),
                              ("double", moment_error)):
            r = runner.invoke(main, ["kernel", "eval", *args(-1), "--x", x, "--y", y,
                                     "--method", method])
            assert r.exit_code == 1 and r.output.splitlines() == [error], method
        r = runner.invoke(main, ["kernel", "expand", *args(-1)])
        assert r.exit_code == 1 and r.output.splitlines() == [schur_error]

    def test_expand_deterministic(self, runner):
        args = ["kernel", "expand", "--ensemble", "lue", "--alpha", "1",
                "--N", "4", "--n", "1"]
        r1, r2 = invoke(runner, args), invoke(runner, args)
        assert r1.output == r2.output
        payload = json.loads(r1.output)
        assert payload["rectangle"] == {"rows": 2, "cols": 3}
        assert payload["coefficients"][0] == {"partition": [],
                                              "coefficient": "1/1"}

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    @pytest.mark.parametrize("ensemble", [["lue", "--alpha", "1/2"], ["qlue", "--alpha", "1"]])
    def test_expand_prints_the_bounded_order(self, runner, ensemble, method):
        """The table's partitions print in `enumerate_bounded(2n, N - n)`
        order, graded then lexicographic, with no sort of their own."""
        r = invoke(runner, ["kernel", "expand", "--ensemble", *ensemble, "--N", "5",
                            "--n", "2", "--method", method])
        printed = [tuple(c["partition"]) for c in json.loads(r.output)["coefficients"]]
        assert printed == pt.enumerate_bounded(4, 3)

    def test_expand_csv(self, runner):
        r = invoke(runner, ["kernel", "expand", "--ensemble", "gue", "--N",
                            "3", "--n", "1", "--format", "csv"])
        assert "rectangle.rows,2" in r.output


def _rounded(obj):
    """obj with every exact "p/q" leaf rounded once to 50 digits, as a real."""
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    if isinstance(obj, str):
        with mpmath.workdps(50):
            return hpreal_json(to_mpf(Fraction(obj)))
    return obj


# (decimal, its exact twin): each kind at decimal parameters with rational
# points, and at rational parameters with decimal points
DECIMAL_TWINS = [
    ("--ensemble lue --alpha 0.5", "--ensemble lue --alpha 1/2"),
    ("--ensemble jue --alpha 0.7 --beta 1.3", "--ensemble jue --alpha 7/10 --beta 13/10"),
]
DECIMAL_POINTS = [(("1.4", "3.15"), ("7/5", "63/20")),
                  (("1.4,-0.5", "0.25,2.2"), ("7/5,-1/2", "1/4,11/5"))]


class TestDecimalInput:
    """A decimal is its exact rational: the output is the exact output at the
    typed rational, rounded once to the precision."""

    def check(self, runner, decimal, exact):
        d, e = invoke(runner, decimal.split()), invoke(runner, exact.split())
        assert d.exit_code == e.exit_code == 0, d.output + e.output
        assert json.loads(d.output) == _rounded(json.loads(e.output))

    @pytest.mark.parametrize("dec, twin", DECIMAL_TWINS, ids=["lue", "jue"])
    def test_kernel_eval(self, runner, dec, twin):
        for (dx, dy), (x, y) in DECIMAL_POINTS:
            n = len(x.split(","))
            methods = ("schur", "cd", "double") + (("chebyshev",) if n == 1 else ())
            for method in methods:
                tail = f"--N 12 --n {n} --method {method}"
                self.check(runner, f"kernel eval {dec} {tail} --x {x} --y {y}",
                           f"kernel eval {twin} {tail} --x {x} --y {y}")
                self.check(runner, f"kernel eval {twin} {tail} --x {dx} --y {dy}",
                           f"kernel eval {twin} {tail} --x {x} --y {y}")

    @pytest.mark.parametrize("dec, twin", DECIMAL_TWINS, ids=["lue", "jue"])
    def test_kernel_expand_and_averages(self, runner, dec, twin):
        self.check(runner, f"kernel expand {dec} --N 6 --n 2", f"kernel expand {twin} --N 6 --n 2")
        for method in ("closed", "oracle"):
            for mu in ("2,1", "3,3,1"):
                tail = f"--m 4 --partition {mu} --method {method}"
                self.check(runner, f"schur-avg {dec} {tail}", f"schur-avg {twin} {tail}")

    def test_jue_tilde_at_a_decimal_alpha_is_the_rational_average_rounded(self, runner):
        """The inverse-Jacobi closed form needs rational parameters, and a
        decimal is one: --alpha 0.5 prints the rounding of 1/2's 10/9."""
        tail = "--beta 7 --m 2 --partition 1"
        self.check(runner, f"schur-avg --ensemble jue-tilde --alpha 0.5 {tail}",
                   f"schur-avg --ensemble jue-tilde --alpha 1/2 {tail}")
        r = invoke(runner, f"schur-avg --ensemble jue-tilde --alpha 1/2 {tail}".split())
        assert json.loads(r.output) == {"value": "10/9"}

    def test_irrational_chebyshev_root_runs_on_the_reals(self, runner):
        """At decimal points whose product has no rational square root the
        Chebyshev form takes the real route, and agrees with schur."""
        args = "kernel eval --ensemble lue --alpha 0.5 --N 8 --n 1 --x 0.3 --y 2.5".split()
        cheb, schur = (json.loads(invoke(runner, args + ["--method", m]).output)["khat"]
                       for m in ("chebyshev", "schur"))
        with mpmath.workdps(50):
            a, b = mpmath.mpf(cheb["value"]), mpmath.mpf(schur["value"])
            assert abs(a - b) <= abs(b) * mpmath.mpf(10) ** -45

    def test_irrational_chebyshev_root_keeps_the_schur_digits(self, runner):
        """The real points are taken at the route's guarded precision, not at
        --precision: at LUE 0.5 (48,1) the Chebyshev form prints schur's bytes
        and keeps 49 of 50 digits against the value at the exact points."""
        args = "kernel eval --ensemble lue --alpha 0.5 --N 48 --n 1 --x 2.2 --y 0.35".split()
        cheb, schur = (invoke(runner, args + ["--method", m]).output
                       for m in ("chebyshev", "schur"))
        assert cheb == schur
        spec = EnsembleSpec("lue", alpha=Fraction(1, 2))
        ref = khat_schur(KernelQuery(spec, 48, 1, (Fraction(11, 5),), (Fraction(7, 20),)),
                         dps=150)
        with mpmath.workdps(150):
            value = mpmath.mpf(json.loads(cheb)["khat"]["value"])
            assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -49

    @pytest.mark.parametrize("spec", ["sw", "qlue --alpha 1"])
    def test_decimal_points_on_an_exact_q_ensemble_fail(self, runner, spec):
        for x, y in (("0.5", "2"), ("1/2", "2.0")):
            r = runner.invoke(main, ["kernel", "eval", "--ensemble", *spec.split(), "--N", "3",
                                     "--n", "1", "--x", x, "--y", y])
            assert r.exit_code == 1
            assert r.output.splitlines() == ["Error: an exact q-ensemble needs rational points"]

    def test_huge_exponent_is_a_usage_error(self, runner):
        r = runner.invoke(main, ["schur-avg", "--ensemble", "lue", "--alpha", "1e4000000",
                                 "--m", "2", "--partition", "1"])
        assert r.exit_code == 2 and "Traceback" not in r.output
        errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "digits" in errors[0]

    def test_a_long_number_is_quoted_short(self, runner):
        """A 5,000-digit integer is too wide to parse; the one error line
        quotes its first 40 characters, not the whole input."""
        r = runner.invoke(main, ["schur-avg", "--ensemble", "lue", "--alpha", "7" * 5000,
                                 "--m", "2", "--partition", "1"])
        assert r.exit_code == 2 and "Traceback" not in r.output
        errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and len(errors[0]) <= 120, errors
        assert "7" * 40 in errors[0] and "7" * 41 not in errors[0]

    @pytest.mark.parametrize("q", ["1/3", "0.9"])
    def test_real_alpha_qlue_keeps_the_typed_digits(self, runner, q):
        """Real-alpha qLUE holds alpha and q exactly, so at 50 digits every
        output keeps 49 against a 150-digit reference at the typed decimals."""
        spec = EnsembleSpec("qlue", alpha=Fraction(1, 2), q=Fraction(q))
        outs = [(mu, m, method) for mu in ("1", "2,1", "3,3", "3,2,1")
                for m in (3, 4) for method in ("closed", "oracle")]
        for mu, m, method in outs:
            r = invoke(runner, ["schur-avg", "--ensemble", "qlue", "--alpha", "0.5", "--q", q,
                                "--m", str(m), "--partition", mu, "--method", method])
            ref = schur_average(spec, tuple(map(int, mu.split(","))), m, "oracle", dps=150)
            with mpmath.workdps(150):
                value = mpmath.mpf(json.loads(r.output)["value"]["value"])
                assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -49, (mu, m, method)
        for method in ("schur", "cd", "double"):
            r = invoke(runner, ["kernel", "eval", "--ensemble", "qlue", "--alpha", "0.5",
                                "--q", q, "--N", "8", "--n", "1", "--x", "1.4", "--y", "-0.3",
                                "--method", method])
            query = KernelQuery(spec, 8, 1, (Fraction(7, 5),), (Fraction(-3, 10),))
            ref = khat_cd(query, dps=150)
            with mpmath.workdps(150):
                value = mpmath.mpf(json.loads(r.output)["khat"]["value"])
                assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -49, method


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

    def test_heat_kernel_tiny_q(self, runner):
        # q = 1e-400 is below the smallest float; the term count needs no float
        r = invoke(runner, ["heat-kernel", "--q", "1e-400", "--xi", "1",
                            "--eta", "-1"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["terms"] == 6
        assert payload["closed"]["value"].startswith("1.0")
        assert float(payload["abs_diff"]["value"]) < 1e-300

    def test_heat_kernel_q_near_one_names_terms(self, runner):
        # q = 1 - 10^-20 rounds to the float 1; its tail bound needs ~10^22 terms
        r = runner.invoke(main, ["heat-kernel", "--q", "0.99999999999999999999",
                                 "--xi", "1", "--eta", "-1"])
        assert r.exit_code == 1
        errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "--terms" in errors[0]

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
    (["toeplitz", "inverse", "--gamma", "1", "--delta", "1", "--size", "-1"], None),
    (["toeplitz", "verify-dr", "--gamma", "1", "--delta", "1", "--size", "0"], None),
    (["kernel", "expand", "--ensemble", "gue", "--N", "0", "--n", "1"], None),
    (["kernel", "eval", "--ensemble", "gue", "--N", "1", "--n", "1", "--x", "1",
      "--y", "2"], None),
    (["painleve", "coeffs", "--n", "-1", "--m-size", "2"], None),
    (["painleve", "coeffs", "--n", "1", "--m-size", "2", "--order", "-1"], None),
    (["kernel", "eval", "--ensemble", "sw", "--N", "3", "--n", "1", "--x", "0.5",
      "--y", "2"], None),
    (["schur-avg", "--ensemble", "qlue", "--alpha", "-3", "--m", "2",
      "--partition", "1"], None),
    (["schur-avg", "--ensemble", "qlue", "--alpha", "-1", "--m", "2",
      "--partition", "1"], None),
    (["schur-avg", "--ensemble", "lue-tilde", "--alpha-tilde", "5/2", "--m", "2",
      "--partition", "1", "--method", "oracle"], None),
    (["schur-avg", "--ensemble", "jue-tilde", "--alpha", "1/2", "--beta", "1",
      "--m", "2", "--partition", "1", "--method", "oracle"], None),
    (["schur-avg", "--ensemble", "lue-tilde", "--alpha-tilde", "2.5", "--m", "2",
      "--partition", "1", "--method", "oracle"], None),
    (["schur-avg", "--ensemble", "lue", "--alpha", "1", "--beta", "3", "--m", "2",
      "--partition", "1"], None),
    (["schur-avg", "--ensemble", "lue", "--alpha", "1", "--q", "1/2", "--m", "2",
      "--partition", "1"], None),
    (["schur-avg", "--ensemble", "gue", "--alpha", "1", "--m", "2", "--partition", "1"],
     None),
    (["schur-avg", "--ensemble", "sw", "--q", "1/2", "--m", "2", "--partition", "1"],
     None),
    (["schur-avg", "--ensemble", "qlue", "--alpha", "1", "--q", "1/2", "--m", "2",
      "--partition", "1"], None),
    (["schur-avg", "--ensemble", "qlue", "--alpha", "1e400", "--m", "1",
      "--partition", "1"], None),
    (["kernel", "eval", "--ensemble", "lue", "--alpha", "1e400", "--N", "2", "--n", "1",
      "--x", "1", "--y", "2", "--method", "cd"], None),
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



NUMBERS = ["-1", "0", "1", "2", "3", "1/2", "-1/2", "1/3", "3/2", "0.5", "-0.5",
           "0.3", "2.5"]
BAD_NUMBERS = ["1/0", "nan", "inf", "abc", ""]
BAD_INTS = ["-1", "x"]


@st.composite
def command_lines(draw):
    """A command line with flag values from fixed pools of good and bad
    values; sizes stay small (N <= 6, M <= 4, size <= 6, order <= 3)."""
    def mostly():
        return draw(st.integers(0, 9)) < 9

    def value(good, bad=BAD_INTS):
        """A good value, or one time in ten a bad one."""
        return draw(st.sampled_from(good if mostly() else bad))

    def flag(name, good, bad=BAD_INTS):
        """The flag with a value, or one time in ten nothing."""
        return [name, value(good, bad)] if mostly() else []

    ensemble = ["--ensemble", value(["gue", "lue", "jue", "jue-tilde", "lue-tilde",
                                     "sw", "qlue", "ginibre"], ["bogus"])]
    ensemble += [x for name in ("--alpha", "--beta", "--alpha-tilde")
                 for x in flag(name, NUMBERS, BAD_NUMBERS)]
    ensemble += flag("--q", ["1/2", "1/3", "0.3"], BAD_NUMBERS + ["1", "-1/2"])
    kernel = ["--N", value(["2", "3", "4", "6"], ["-1", "0", "1"]),
              "--n", value(["1", "2"], ["-1", "0", "x"])]
    points = NUMBERS + ["1,2", "1/2,-3"]
    args = draw(st.sampled_from([
        lambda: ["schur-avg", *ensemble, "--m", value(["0", "1", "2", "4"]),
                 "--partition", value(["", "1", "2,1", "3,3"], ["1,x", "-1", "1,2"]),
                 "--method", value(["closed", "oracle"])],
        lambda: ["kernel", "expand", *ensemble, *kernel],
        lambda: ["kernel", "eval", *ensemble, *kernel,
                 "--x", value(points, BAD_NUMBERS), "--y", value(points, BAD_NUMBERS),
                 "--method", value(["schur", "double", "cd", "chebyshev"])],
        lambda: ["painleve", "coeffs", "--n", value(["1", "2", "3"], ["-1", "0", "x"]),
                 "--m-size", value(["1", "2", "3"], ["-1", "0", "x"]),
                 "--order", value(["0", "1", "2", "3"])],
        lambda: ["toeplitz", draw(st.sampled_from(["inverse", "verify-dr"])),
                 "--gamma", value(["0", "1", "2", "3"]),
                 "--delta", value(["0", "1", "2", "3"]),
                 "--size", value(["1", "3", "6"], ["-1", "0", "x"])],
        lambda: ["heat-kernel",
                 "--q", value(["0.2", "1/2", "0.9"], BAD_NUMBERS + ["1", "0"]),
                 "--xi", value(NUMBERS + ["-2"], BAD_NUMBERS),
                 "--eta", value(NUMBERS + ["-2"], BAD_NUMBERS),
                 *flag("--terms", ["1", "5", "60"], ["-1", "0", "x"])],
    ]))()
    return flag("--precision", ["1", "5", "20", "50", "80"], ["-1", "0", "x"]) + args


@given(command_lines())
@settings(max_examples=200, deadline=None)
def test_fuzz_fails_cleanly(args):
    """Any command line: exit code 0, 1 or 2, no traceback, at most one
    `Error:` line."""
    r = CliRunner().invoke(main, args)
    assert r.exception is None or isinstance(r.exception, SystemExit), args
    assert r.exit_code in (0, 1, 2), args
    assert "Traceback" not in r.output
    assert len([line for line in r.output.splitlines()
                if line.startswith("Error:")]) <= 1


@pytest.mark.parametrize("x,y", [("0.3", "-1.7"), ("3/10", "-17/10")])
def test_chebyshev_rejects_negative_xy(runner, x, y):
    """sqrt(xy) is not real at x*y < 0, at decimal and at rational points
    alike: one `Error:` line and exit code 1."""
    r = runner.invoke(main, ["kernel", "eval", "--ensemble", "lue", "--alpha", "1",
                             "--N", "4", "--n", "1", "--x", x, "--y", y,
                             "--method", "chebyshev"])
    assert r.exit_code == 1 and "Traceback" not in r.output
    errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "x*y > 0" in errors[0]


@pytest.mark.parametrize("spec", [["sw"], ["qlue", "--alpha", "1"]])
def test_chebyshev_irrational_root_on_exact_q_names_schur(runner, spec):
    """An exact q-ensemble takes no decimal points, so at xy = 6 the error
    names --method schur: one `Error:` line and exit code 1."""
    r = runner.invoke(main, ["kernel", "eval", "--ensemble", *spec, "--N", "4",
                             "--n", "1", "--x", "2", "--y", "3",
                             "--method", "chebyshev"])
    assert r.exit_code == 1 and "Traceback" not in r.output
    errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "--method schur" in errors[0]
    assert "decimal" not in errors[0]


@pytest.mark.parametrize("point", ["2", "2.0"])
def test_chebyshev_on_ginibre_names_ginibre(runner, point):
    """Ginibre has no single-Schur table: at any point, exact or decimal,
    the Chebyshev form says so instead of asking for decimal points."""
    r = runner.invoke(main, ["kernel", "eval", "--ensemble", "ginibre", "--N", "3",
                             "--n", "1", "--x", point, "--y", "3",
                             "--method", "chebyshev"])
    assert r.exit_code == 1 and "Traceback" not in r.output
    errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "ginibre has no single-Schur average" in errors[0]


@pytest.mark.parametrize("terms", ["0", "-1"])
def test_heat_kernel_terms_out_of_range_is_usage_error(runner, terms):
    """--terms below 1 is an out-of-range flag: exit code 2, like --size."""
    r = runner.invoke(main, ["heat-kernel", "--q", "0.5", "--xi", "1", "--eta", "1",
                             "--terms", terms])
    assert r.exit_code == 2 and "--terms" in r.output


@pytest.mark.parametrize("args", [
    ["kernel", "expand", "--ensemble", "gue", "--N", "2", "--n", "2"],
    ["kernel", "eval", "--ensemble", "gue", "--N", "2", "--n", "2",
     "--x", "1,2", "--y", "3,4"],
])
def test_rank_must_exceed_pairs(runner, args):
    """--N <= --n is a usage error that names the flags."""
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert "--N must be greater than --n" in r.output


def readme_examples():
    """(arguments, stated JSON) for each README CLI example followed by a
    `# -> ` line; the stated JSON ends where its value ends."""
    out, command = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("schurkernels "):
            command = line
        elif line.startswith("# -> "):
            text = line[len("# -> "):]
            out.append((shlex.split(command)[1:],
                        text[:json.JSONDecoder().raw_decode(text)[1]]))
    return out


README_EXAMPLES = readme_examples()


def test_readme_states_two_outputs():
    assert [args[0] for args, _ in README_EXAMPLES] == ["schur-avg", "painleve"]


@pytest.mark.parametrize("args, stated", README_EXAMPLES,
                         ids=[args[0] for args, _ in README_EXAMPLES])
def test_readme_example_output(runner, args, stated):
    """The output the README states for an example, byte for byte."""
    r = invoke(runner, args)
    assert r.exit_code == 0 and r.output == stated + "\n"
