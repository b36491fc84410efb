"""Command-line front end.

Numeric flags are parsed as exact integers, "p/q" rationals, or decimal
strings promoted to high-precision reals -- never binary floats.  Output is
deterministic JSON (rationals as "p/q" strings, q-objects as Laurent data,
reals as decimal strings with an explicit precision field); `--format csv`
emits flat key,value rows.  The default precision comes from the
SCHURKERNELS_PRECISION environment variable (50 digits if unset).  Bad
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
from .scalars import DEFAULT_DPS, QRat, frac_str, hpreal_json, parse_number
from .toeplitz_fh import duduchava_roch_check, toeplitz_inverse_exact
from .verify import SUITES, run_all, run_suite


def parse_numbers(values, dps: int) -> tuple:
    """parse_number over each string, a parse failure as a usage error."""
    try:
        return tuple(parse_number(v, dps) for v in values)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def parse_partition(s: str):
    if not s or s.strip() in ("0", "[]", "()"):
        return ()
    try:
        return pt.canonical([int(x) for x in s.split(",")])
    except ValueError as exc:
        raise click.UsageError(f"bad partition {s!r}: {exc}")


def serialize(v, dps: int):
    if isinstance(v, (int, Fraction)):
        return frac_str(v)
    if isinstance(v, QRat):
        return v.to_json()
    if isinstance(v, mpmath.mpf):
        return hpreal_json(v, dps)
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


def build_spec(ensemble, alpha, beta, alpha_tilde, q, m, dps) -> EnsembleSpec:
    kind = ensemble.replace("-", "_").lower()
    try:
        kwargs = {key: parse_number(v, dps) for key, v in
                  (("alpha", alpha), ("beta", beta), ("alpha_tilde", alpha_tilde),
                   ("q", q)) if v is not None}
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


@click.group()
@click.option("--precision", type=click.IntRange(min=1), default=DEFAULT_DPS,
              envvar="SCHURKERNELS_PRECISION", show_default=True,
              help="working decimal digits for HPReal computations")
@click.pass_context
def main(ctx, precision):
    """Exact Schur expansions of random-matrix kernels."""
    ctx.ensure_object(dict)
    ctx.obj["dps"] = precision


@main.command("schur-avg")
@ensemble_options
@click.option("--m", type=click.IntRange(min=0), required=True,
              help="number of variables M")
@click.option("--partition", default="", help="comma-separated parts, e.g. 2,1")
@click.option("--method", type=click.Choice(["closed", "oracle"]), default="closed")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.pass_context
def schur_avg_cmd(ctx, ensemble, alpha, beta, alpha_tilde, q, m, partition,
                  method, fmt):
    """Schur-polynomial average <s_mu> in an ensemble of M variables."""
    dps = ctx.obj["dps"]
    spec = build_spec(ensemble, alpha, beta, alpha_tilde, q, m, dps)
    mu = parse_partition(partition)
    try:
        with mpmath.workdps(dps):
            value = schur_average(spec, mu, m, method, dps)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(str(exc))
    emit({"value": serialize(value, dps)}, fmt)


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
@click.pass_context
def kernel_expand(ctx, ensemble, alpha, beta, alpha_tilde, q, n_rank, n_pairs,
                  method, fmt):
    """Table of expansion coefficients <s_lam'> over the 2n x (N-n) rectangle."""
    dps = ctx.obj["dps"]
    spec = build_spec(ensemble, alpha, beta, alpha_tilde, q, n_rank - n_pairs, dps)
    try:
        with mpmath.workdps(dps):
            table = expansion_table(spec, n_rank, n_pairs, method, dps)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(str(exc))
    payload = {
        "rectangle": {"rows": table.rows, "cols": table.cols},
        "coefficients": [
            {"partition": pt.to_json(lam), "coefficient": serialize(c, dps)}
            for lam, c in sorted(table.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
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
@click.pass_context
def kernel_eval(ctx, ensemble, alpha, beta, alpha_tilde, q, n_rank, n_pairs,
                x, y, method, fmt):
    """Evaluate Khat_N^(n)(x; y) by the chosen representation."""
    dps = ctx.obj["dps"]
    spec = build_spec(ensemble, alpha, beta, alpha_tilde, q, n_rank - n_pairs, dps)
    xs, ys = parse_numbers(x.split(","), dps), parse_numbers(y.split(","), dps)
    try:
        query = KernelQuery(spec, n_rank, n_pairs, xs, ys)
        fn = {"schur": khat_schur, "double": khat_double, "cd": khat_cd,
              "chebyshev": k2_chebyshev}[method]
        with mpmath.workdps(dps):
            value = fn(query, dps=dps)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(str(exc))
    emit({"khat": serialize(value, dps)}, fmt)


@main.group()
def painleve():
    """Laguerre-Wronskian series data."""


@painleve.command("coeffs")
@click.option("--n", type=int, required=True, help="half the Laguerre parameter")
@click.option("--m-size", type=int, required=True, help="number of variables M")
@click.option("--order", type=int, default=2, help="highest b_k to report")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.pass_context
def painleve_coeffs(ctx, n, m_size, order, fmt):
    """f_2n(0) and the normalized Taylor coefficients b_1..b_order."""
    try:
        f0 = f2n_zero(n, m_size)
        bs = b_coeffs(n, m_size, order)
    except (ValueError, AssertionError) as exc:
        raise click.ClickException(str(exc))
    emit({"f0": frac_str(f0), "b": [frac_str(b) for b in bs]}, fmt)


@main.group()
def toeplitz():
    """Fisher-Hartwig Toeplitz operations."""


@toeplitz.command("inverse")
@click.option("--gamma", type=click.IntRange(min=0), required=True)
@click.option("--delta", type=click.IntRange(min=0), required=True)
@click.option("--size", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
def toeplitz_inverse_cmd(gamma, delta, size, fmt):
    """Exact inverse of the M x M Fisher-Hartwig Toeplitz matrix."""
    try:
        inv = toeplitz_inverse_exact(gamma, delta, size)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(str(exc))
    emit({"matrix": [[frac_str(v) for v in row] for row in inv]}, fmt)


@toeplitz.command("verify-dr")
@click.option("--gamma", type=click.IntRange(min=0), required=True)
@click.option("--delta", type=click.IntRange(min=0), required=True)
@click.option("--size", type=int, required=True)
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
@click.option("--terms", type=int, default=None,
              help="partial-sum length (default: auto from the tail bound)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.pass_context
def heat_kernel_cmd(ctx, q, xi, eta, terms, fmt):
    """Chebyshev heat kernel: partial sum, closed form, difference."""
    dps = ctx.obj["dps"]
    qv, xiv, etav = parse_numbers((q, xi, eta), dps)
    try:
        with mpmath.workdps(dps):
            used = terms if terms is not None else auto_terms(qv)
            s = heat_kernel_sum(qv, xiv, etav, used, dps)
            c = heat_kernel_closed(qv, xiv, etav, dps)
            diff = abs(s - c)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.ClickException(str(exc))
    emit({"sum": hpreal_json(s, dps), "closed": hpreal_json(c, dps),
          "abs_diff": hpreal_json(diff, dps), "terms": used}, fmt)


@main.command("verify")
@click.option("--suite", default="all",
              help="all | " + " | ".join(SUITES))
@click.option("--seed", type=int, default=1, show_default=True,
              help="seed for the random rational test points")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table")
@click.pass_context
def verify_cmd(ctx, suite, seed, fmt):
    """Run the verification suites; exit 0 iff every check passes."""
    dps = ctx.obj["dps"]
    if suite == "all":
        results = run_all(seed=seed, dps=dps)
    elif suite in SUITES:
        results = [run_suite(suite, seed=seed, dps=dps)]
    else:
        raise click.UsageError(f"unknown suite {suite!r}; choices: all, "
                               + ", ".join(SUITES))
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
