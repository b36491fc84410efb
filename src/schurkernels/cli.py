"""Command-line front end.

Numeric flags are parsed as exact integers, "p/q" rationals, or decimal
strings read as their exact rationals -- never binary floats -- so every
ensemble that is exact at rational parameters runs its exact route at a
decimal too.  Output is deterministic JSON (rationals as "p/q" strings,
q-objects as Laurent data, reals as decimal strings with an explicit
precision field); when any typed number is a decimal, an exact rational
result is rounded once to the precision and printed as a real.  `--format
csv` emits flat key,value rows.  The default precision comes from the
SCHURKERNELS_PRECISION environment variable (50 digits if unset); the root
group sets it once, as the mpmath working precision of every command.  Bad
input exits with code 2 (usage) or 1 (no result) and a one-line message.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click
import mpmath

from . import partitions as pt
from .ensembles import EnsembleSpec, schur_average
from .heat_kernel import auto_terms, heat_kernel_closed, heat_kernel_sum
from .kernels import (KernelQuery, expansion_table, k2_chebyshev, khat_cd,
                      khat_double, khat_schur)
from .painleve import b_coeffs, f2n_zero
from .scalars import (DEFAULT_DPS, QRat, frac_str, hpreal_json, parse_number,
                      rational_sqrt, to_mpf)
from .toeplitz_fh import duduchava_roch_check, toeplitz_inverse_exact
from .verify import SUITES, run_suite


def parse_numbers(values) -> tuple:
    """parse_number over each string, a parse failure as a usage error.  A
    decimal among them marks the command's output to be rounded once
    (`serialize`)."""
    try:
        out = tuple(map(parse_number, values))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if any(map(_is_decimal, values, out)):
        click.get_current_context().meta["decimal"] = True
    return out


def _is_decimal(s: str, v) -> bool:
    """s was typed as a decimal: it parsed to a non-int without a "/"."""
    return "/" not in s and not isinstance(v, int)


def parse_partition(s: str):
    if not s or s.strip() in ("0", "[]", "()"):
        return ()
    try:
        return pt.canonical([int(x) for x in s.split(",")])
    except ValueError as exc:
        raise click.UsageError(f"bad partition {s!r}: {exc}")


def serialize(v):
    if isinstance(v, (int, Fraction)):
        if click.get_current_context().meta.get("decimal"):
            return hpreal_json(to_mpf(v))
        return frac_str(v)
    if isinstance(v, QRat):
        return v.to_json()
    if isinstance(v, mpmath.mpf):
        return hpreal_json(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


def emit(payload: dict, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in sorted(_flatten(payload)):
            click.echo(f"{key},{value}")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield (prefix.rstrip("."), obj)


def build_spec(ensemble, alpha, beta, alpha_tilde, q, m) -> EnsembleSpec:
    kind = ensemble.replace("-", "_").lower()
    given = {key: v for key, v in (("alpha", alpha), ("beta", beta),
                                   ("alpha_tilde", alpha_tilde), ("q", q)) if v is not None}
    kwargs = dict(zip(given, parse_numbers(list(given.values()))))
    try:
        if kind == "jue_tilde":
            kwargs["m"] = m
        return EnsembleSpec(kind, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


_ensemble_options = [
    click.option("--ensemble", required=True,
                 help="gue | lue | jue | jue-tilde | lue-tilde | sw | qlue | ginibre"),
    click.option("--alpha", default=None, help="int, p/q, or decimal"),
    click.option("--beta", default=None),
    click.option("--alpha-tilde", default=None),
    click.option("--q", default=None, help="numeric q in (0,1) for real paths"),
]


def ensemble_options(f):
    for opt in reversed(_ensemble_options):
        f = opt(f)
    return f


class _Main(click.Group):
    """The root group, and the one error boundary of every command: a
    library error becomes one `Error:` line and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, ArithmeticError, AssertionError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("--precision", type=click.IntRange(min=1), default=DEFAULT_DPS,
              envvar="SCHURKERNELS_PRECISION", show_default=True,
              help="working decimal digits for real (mpf) computations")
@click.pass_context
def main(ctx, precision):
    """Exact Schur expansions of random-matrix kernels."""
    ctx.with_resource(mpmath.workdps(precision))


@main.command("schur-avg")
@ensemble_options
@click.option("--m", type=click.IntRange(min=0), required=True,
              help="number of variables M")
@click.option("--partition", default="", help="comma-separated parts, e.g. 2,1")
@click.option("--method", type=click.Choice(["closed", "oracle"]), default="closed")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def schur_avg_cmd(ensemble, alpha, beta, alpha_tilde, q, m, partition, method,
                  fmt):
    """Schur-polynomial average <s_mu> in an ensemble of M variables."""
    spec = build_spec(ensemble, alpha, beta, alpha_tilde, q, m)
    mu = parse_partition(partition)
    emit({"value": serialize(schur_average(spec, mu, m, method))}, fmt)


@main.group()
def kernel():
    """Kernel expansions and evaluations."""


@kernel.command("expand")
@ensemble_options
@click.option("--n-rank", "--N", "n_rank", type=int, required=True)
@click.option("--n-pairs", "--n", "n_pairs", type=click.IntRange(min=1),
              required=True)
@click.option("--method", type=click.Choice(["closed", "oracle"]), default="closed")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def kernel_expand(ensemble, alpha, beta, alpha_tilde, q, n_rank, n_pairs,
                  method, fmt):
    """Table of expansion coefficients <s_lam'> over the 2n x (N-n) rectangle."""
    if n_rank <= n_pairs:
        raise click.UsageError("--N must be greater than --n")
    spec = build_spec(ensemble, alpha, beta, alpha_tilde, q, n_rank - n_pairs)
    table = expansion_table(spec, n_rank, n_pairs, method)
    payload = {
        "rectangle": {"rows": table.rows, "cols": table.cols},
        "coefficients": [
            {"partition": list(lam), "coefficient": serialize(c)}
            for lam, c in table.coeffs.items()
        ],
    }
    emit(payload, fmt)


@kernel.command("eval")
@ensemble_options
@click.option("--n-rank", "--N", "n_rank", type=int, required=True)
@click.option("--n-pairs", "--n", "n_pairs", type=click.IntRange(min=1),
              required=True)
@click.option("--x", required=True, help="comma-separated points x_1..x_n")
@click.option("--y", required=True, help="comma-separated points y_1..y_n")
@click.option("--method",
              type=click.Choice(["schur", "double", "cd", "chebyshev"]),
              default="schur")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def kernel_eval(ensemble, alpha, beta, alpha_tilde, q, n_rank, n_pairs, x, y,
                method, fmt):
    """Evaluate Khat_N^(n)(x; y) by the chosen representation."""
    if n_rank <= n_pairs:
        raise click.UsageError("--N must be greater than --n")
    spec = build_spec(ensemble, alpha, beta, alpha_tilde, q, n_rank - n_pairs)
    xs, ys = parse_numbers(x.split(",")), parse_numbers(y.split(","))
    query = KernelQuery(spec, n_rank, n_pairs, xs, ys)
    if query.q_exact and any(map(_is_decimal, f"{x},{y}".split(","), xs + ys)):
        raise ValueError("an exact q-ensemble needs rational points")
    if (method == "chebyshev" and click.get_current_context().meta.get("decimal")
            and rational_sqrt(xs[0] * ys[0]) is None):  # sqrt(xy) is irrational: run on reals
        with mpmath.extradps(query.guard):  # the points at the precision the route works at
            query = KernelQuery(spec, n_rank, n_pairs, *(tuple(map(to_mpf, v)) for v in (xs, ys)))
    fn = {"schur": khat_schur, "double": khat_double, "cd": khat_cd,
          "chebyshev": k2_chebyshev}[method]
    emit({"khat": serialize(fn(query))}, fmt)


@main.group()
def painleve():
    """Laguerre-Wronskian series data."""


@painleve.command("coeffs")
@click.option("--n", type=click.IntRange(min=1), required=True,
              help="half the Laguerre parameter")
@click.option("--m-size", type=click.IntRange(min=1), required=True,
              help="number of variables M")
@click.option("--order", type=click.IntRange(min=0), default=2,
              help="highest b_k to report")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def painleve_coeffs(n, m_size, order, fmt):
    """f_2n(0) and the normalized Taylor coefficients b_1..b_order."""
    f0 = f2n_zero(n, m_size)
    bs = b_coeffs(n, m_size, order)
    emit({"f0": frac_str(f0), "b": [frac_str(b) for b in bs]}, fmt)


@main.group()
def toeplitz():
    """Fisher-Hartwig Toeplitz operations."""


@toeplitz.command("inverse")
@click.option("--gamma", type=click.IntRange(min=0), required=True)
@click.option("--delta", type=click.IntRange(min=0), required=True)
@click.option("--size", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def toeplitz_inverse_cmd(gamma, delta, size, fmt):
    """Exact inverse of the M x M Fisher-Hartwig Toeplitz matrix."""
    inv = toeplitz_inverse_exact(gamma, delta, size)
    emit({"matrix": [[frac_str(v) for v in row] for row in inv]}, fmt)


@toeplitz.command("verify-dr")
@click.option("--gamma", type=click.IntRange(min=0), required=True)
@click.option("--delta", type=click.IntRange(min=0), required=True)
@click.option("--size", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def toeplitz_verify_dr(gamma, delta, size, fmt):
    """Check the Duduchava-Roch identity on the M x M block."""
    ok = duduchava_roch_check(gamma, delta, size)
    emit({"gamma": gamma, "delta": delta, "size": size,
          "ok": bool(ok)}, fmt)
    if not ok:
        sys.exit(1)


@main.command("heat-kernel")
@click.option("--q", required=True)
@click.option("--xi", required=True)
@click.option("--eta", required=True)
@click.option("--terms", type=click.IntRange(min=1), default=None,
              help="partial-sum length (default: auto from the tail bound)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def heat_kernel_cmd(q, xi, eta, terms, fmt):
    """Chebyshev heat kernel: partial sum, closed form, difference."""
    qv, xiv, etav = parse_numbers((q, xi, eta))
    used = terms if terms is not None else auto_terms(qv)
    s = heat_kernel_sum(qv, xiv, etav, used)
    c = heat_kernel_closed(qv, xiv, etav)
    emit({"sum": hpreal_json(s), "closed": hpreal_json(c),
          "abs_diff": hpreal_json(abs(s - c)), "terms": used}, fmt)


@main.command("verify")
@click.option("--suite", type=click.Choice(["all", *SUITES]), default="all")
@click.option("--seed", type=int, default=1, show_default=True,
              help="seed for the random rational test points")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table")
def verify_cmd(suite, seed, fmt):
    """Run the verification suites; exit 0 iff every check passes."""
    results = [run_suite(name, seed, mpmath.mp.dps)
               for name in (SUITES if suite == "all" else [suite])]
    if fmt == "json":
        payload = {r.name: {"passed": r.passed, "failed": r.failed,
                            "failures": r.failures[:20], "notes": r.notes}
                   for r in results}
        click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        width = max(len(r.name) for r in results)
        total_pass = total_fail = 0
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            click.echo(f"{r.name:<{width}}  {status}  "
                       f"{r.passed:5d} passed  {r.failed:3d} failed  "
                       f"[{r.seconds:6.2f}s]")
            for line in r.failures[:10]:
                click.echo(f"    FAIL: {line}")
            for key, val in r.notes.items():
                click.echo(f"    note {key}: {json.dumps(val, sort_keys=True)}")
            total_pass += r.passed
            total_fail += r.failed
        click.echo(f"{'total':<{width}}        {total_pass:5d} passed  "
                   f"{total_fail:3d} failed")
    if any(not r.ok for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
