"""Seeded op lists and output checks for each benchmark workload.

An op is one `schurkernels` CLI command line.  The op list of a run depends
only on (workload, seed, seconds), so two commits run byte-identical inputs;
`digest()` fingerprints it.  Checks run after the timed region and compare
every output against an independent route (schur vs cd vs chebyshev, closed
form vs Andreief oracle), a higher-precision reference, or an output digest
recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("kernel-rational", "kernel-q", "kernel-real", "verify-all")

DPS = 50                # working precision of every op
REF_DPS = 2 * DPS + 20  # precision of the real references
MIN_DIGITS = 10         # fewer correct digits than this is a wrong answer

# Ensembles by short name: (CLI kind, CLI parameters).
ENSEMBLES = {
    "gue": ("gue", {}),
    "lue0": ("lue", {"alpha": "0"}),
    "lue1": ("lue", {"alpha": "1"}),
    "jue11": ("jue", {"alpha": "1", "beta": "1"}),
    "sw": ("sw", {}),
    "qlue0": ("qlue", {"alpha": "0"}),
    "qlue1": ("qlue", {"alpha": "1"}),
    "lue.5": ("lue", {"alpha": "0.5"}),
    "jue.7": ("jue", {"alpha": "0.7", "beta": "1.3"}),
    "qlue.5": ("qlue", {"alpha": "0.5", "q": "1/3"}),
}

# kernel-rational: (N, n, methods) per query; the methods of one query are
# independent routes to the same exact value.
RATIONAL_GROUPS = [(24, 1, ("schur", "cd", "chebyshev")), (12, 1, ("double",)),
                   (10, 2, ("schur", "cd")), (8, 3, ("schur", "cd")),
                   (6, 2, ("double",))]
RATIONAL_ENSEMBLES = ("gue", "lue0", "lue1", "jue11")
# kernel-real: (N, n) per query, each evaluated by schur and cd.
REAL_SIZES = [(12, 1), (24, 1), (10, 2)]
REAL_ENSEMBLES = ("lue.5", "jue.7")
REAL_AVG_ENSEMBLES = ("lue.5", "jue.7", "qlue.5")
Q_ENSEMBLES = ("sw", "qlue0", "qlue1")
Q_AVG = [(3, "closed"), (4, "closed"), (5, "closed"), (3, "oracle"), (4, "oracle")]

# Nominal seconds of one pass on a 2-vCPU machine: a run makes
# max(1, round(seconds / nominal)) whole passes, so its op mix never depends
# on where a timer stopped.  kernel-q has exactly one pass: its keys are the
# whole (spec, M, mu, method) grid and must not repeat.
NOMINAL_PASS_S = {"kernel-rational": 7.5, "kernel-real": 5.0, "verify-all": 10.0}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str               # eval | avg | expand | verify
    ens: str = ""
    n_rank: int = 0
    n_pairs: int = 0
    m: int = 0
    mu: tuple = ()
    x: tuple = ()
    y: tuple = ()
    method: str = ""

    @property
    def query(self):
        return (self.ens, self.n_rank, self.n_pairs, self.x, self.y)


def _ens_argv(ens: str) -> list:
    kind, params = ENSEMBLES[ens]
    out = ["--ensemble", kind]
    for key, val in params.items():
        out += [f"--{key.replace('_', '-')}", val]
    return out


def _q(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _points(rng: random.Random, n: int, square_product: bool):
    """n distinct x's and y's of the form +-p/q with primes p != q in 5..13,
    so that every draw has about the same bit size and op cost; for n = 1
    and square_product, y = x s^2 (s = a/b, primes a != b in 2..5) so that
    xy has an exact square root."""
    def draw(taken):
        while True:
            p, q = rng.sample((5, 7, 11, 13), 2)
            v = Fraction(rng.choice((-1, 1)) * p, q)
            if v not in taken:
                return v
    xs, ys = [], []
    for _ in range(n):
        xs.append(draw(xs))
        if square_product:
            ys.append(xs[-1] * Fraction(*rng.sample((2, 3, 5), 2)) ** 2)
        else:
            ys.append(draw(ys))
    return tuple(map(_q, xs)), tuple(map(_q, ys))


def eval_op(ens, n_rank, n_pairs, x, y, method, precision=False) -> Op:
    argv = (["--precision", str(DPS)] if precision else []) + [
        "kernel", "eval", *_ens_argv(ens), "--N", str(n_rank), "--n", str(n_pairs),
        "--x", ",".join(x), "--y", ",".join(y), "--method", method]
    return Op(tuple(argv), "eval", ens, n_rank, n_pairs, x=x, y=y, method=method)


def avg_op(ens, m, mu, method, precision=False) -> Op:
    argv = (["--precision", str(DPS)] if precision else []) + [
        "schur-avg", *_ens_argv(ens), "--m", str(m),
        "--partition", ",".join(map(str, mu)), "--method", method]
    return Op(tuple(argv), "avg", ens, m=m, mu=tuple(mu), method=method)


def _y33():
    from schurkernels import partitions as pt
    return pt.enumerate_bounded(3, 3)


def q_fixed_ops() -> list:
    """The seed-independent part of kernel-q: the whole Y_{3,3} grid and the
    N=6, n=1 expansion tables."""
    ops = [avg_op(ens, m, mu, method) for ens in Q_ENSEMBLES
           for m, method in Q_AVG for mu in _y33()]
    ops += [Op(("kernel", "expand", *_ens_argv(ens), "--N", "6", "--n", "1"),
               "expand", ens, 6, 1) for ens in Q_ENSEMBLES]
    return ops


def passes(workload: str, seconds: int) -> int:
    if workload == "kernel-q":
        return 1
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def make_ops(workload: str, seed: int, seconds: int) -> list:
    """The run's op list, in execution order, as a list of passes."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    if workload == "kernel-rational":
        # fresh points every pass; the (spec, N, n, method) keys recur
        for _ in range(passes(workload, seconds)):
            ops = []
            for ens in RATIONAL_ENSEMBLES:
                for n_rank, n_pairs, methods in RATIONAL_GROUPS:
                    x, y = _points(rng, n_pairs, "chebyshev" in methods)
                    ops += [eval_op(ens, n_rank, n_pairs, x, y, m) for m in methods]
            rng.shuffle(ops)
            out.append(ops)
    elif workload == "kernel-q":
        ops = q_fixed_ops()
        x, y = _points(rng, 1, True)
        ops.append(eval_op("sw", 8, 1, x, y, "schur"))
        x, y = _points(rng, 2, False)
        ops.append(eval_op("sw", 5, 2, x, y, "double"))
        x, y = _points(rng, 2, False)
        ops.append(eval_op("qlue1", 5, 2, x, y, "cd"))
        rng.shuffle(ops)
        out.append(ops)
    elif workload == "kernel-real":
        # one fixed query set per run, so each reference is computed once
        base = []
        for ens in REAL_ENSEMBLES:
            for n_rank, n_pairs in REAL_SIZES:
                x, y = _points(rng, n_pairs, False)
                base += [eval_op(ens, n_rank, n_pairs, x, y, m, precision=True)
                         for m in ("schur", "cd")]
        base += [avg_op(ens, m, mu, method, precision=True)
                 for ens in REAL_AVG_ENSEMBLES for mu in _y33()[1:]
                 for m in (3, 4) for method in ("closed", "oracle")]
        for _ in range(passes(workload, seconds)):
            ops = list(base)
            rng.shuffle(ops)
            out.append(ops)
    elif workload == "verify-all":
        op = Op(("verify", "--suite", "all", "--seed", str(seed), "--format", "json"),
                "verify")
        out = [[op] for _ in range(passes(workload, seconds))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def digest(ops) -> str:
    """sha256 over the command lines of a flat op list."""
    h = hashlib.sha256()
    for op in ops:
        h.update((" ".join(op.argv) + "\n").encode())
    return h.hexdigest()


def output_digest(outputs) -> str:
    h = hashlib.sha256()
    for _, out in outputs:
        h.update(out.encode() + b"\0")
    return h.hexdigest()


# ----------------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------------

def spec_of(ens: str, dps: int):
    """The EnsembleSpec of a short ensemble name, parameters parsed at dps."""
    import mpmath
    from schurkernels.ensembles import EnsembleSpec
    kind, params = ENSEMBLES[ens]
    kwargs = {}
    for key, val in params.items():
        if "/" in val:
            kwargs[key] = Fraction(val)
        elif "." in val:
            with mpmath.workdps(dps):
                kwargs[key] = mpmath.mpf(val)
        else:
            kwargs[key] = int(val)
    return EnsembleSpec(kind, **kwargs)


def _value(payload):
    """Library value of a serialized scalar: Fraction, QRat or mpf."""
    import mpmath
    from schurkernels.scalars import QRat
    if isinstance(payload, str):
        return Fraction(payload)
    if "var" in payload:
        return QRat(payload["offset"], [Fraction(c) for c in payload["num"]],
                    [Fraction(c) for c in payload["den"]])
    with mpmath.workdps(REF_DPS):
        return mpmath.mpf(payload["value"])


def _digits(value, ref) -> float:
    """Correct decimal digits of value against ref, capped at DPS."""
    import mpmath
    with mpmath.workdps(REF_DPS):
        v, r = (x if isinstance(x, mpmath.mpf)
                else mpmath.mpf(x.numerator) / x.denominator for x in (value, ref))
        err = abs(v - r)
        if err == 0:
            return float(DPS)
        scale = abs(r) if r != 0 else mpmath.mpf(1)
        return min(float(DPS), float(-mpmath.log10(err / scale)))


def _query(op: Op, dps: int):
    from schurkernels.kernels import KernelQuery
    pts = tuple(Fraction(v) for v in op.x), tuple(Fraction(v) for v in op.y)
    return KernelQuery(spec_of(op.ens, dps), op.n_rank, op.n_pairs, *pts)


def _exact_reference(op: Op):
    """An independent route to an exact kernel value: chebyshev for a schur
    op (n = 1, square product), the Schur expansion otherwise."""
    from schurkernels import kernels
    q = _query(op, DPS)
    if op.method == "schur":
        return kernels.k2_chebyshev(q, dps=DPS)
    return kernels.khat_schur(q, dps=DPS)


def _real_reference(op: Op):
    """(reference, digits by which an independent route agrees with it)."""
    import mpmath
    from schurkernels import ensembles, kernels
    with mpmath.workdps(REF_DPS):
        if op.kind == "eval":
            q = _query(op, REF_DPS)
            ref = kernels.khat_schur(q, dps=REF_DPS)
            other = kernels.khat_cd(q, dps=REF_DPS)
        else:
            spec = spec_of(op.ens, REF_DPS)
            ref = ensembles.schur_average(spec, op.mu, op.m, "closed", REF_DPS)
            other = ensembles.schur_average(spec, op.mu, op.m, "oracle", REF_DPS)
    return ref, _digits(other, ref)


def check(workload: str, ops: list, results: list) -> list:
    """Per op (ok, correct digits).  results[i] = (exit code, stdout)."""
    verdict = [None] * len(ops)
    parsed = []
    for i, (op, (code, out)) in enumerate(zip(ops, results)):
        try:
            payload = json.loads(out) if code == 0 else None
        except ValueError:
            payload = None
        if payload is None:
            verdict[i] = (False, 0.0)
            parsed.append(None)
            continue
        if op.kind == "verify":
            from schurkernels.verify import SUITES
            ok = (sorted(payload) == sorted(SUITES)
                  and all(r["passed"] > 0 and r["failed"] == 0 for r in payload.values()))
            verdict[i] = (ok, float(DPS) if ok else 0.0)
            parsed.append(None)
            continue
        parsed.append(payload.get("khat", payload.get("value")))
    if workload == "kernel-real":
        _check_real(ops, parsed, verdict)
    elif workload in ("kernel-rational", "kernel-q"):
        _check_exact(ops, results, parsed, verdict)
    return verdict


def _check_exact(ops, results, parsed, verdict):
    expected = json.loads(EXPECTED_PATH.read_text())
    # ops sharing a query, or a (spec, M, mu) average, must agree exactly
    groups: dict = {}
    for i, op in enumerate(ops):
        if verdict[i] is not None:
            continue
        if op.kind == "eval":
            groups.setdefault(("eval",) + op.query, []).append(i)
        elif op.kind == "avg":
            groups.setdefault(("avg", op.ens, op.m, op.mu), []).append(i)
        else:
            groups.setdefault(("expand", op.ens), []).append(i)
    for key, idx in groups.items():
        values = [_value(parsed[i]) for i in idx] if key[0] != "expand" else []
        agree = all(v == values[0] for v in values)
        for i in idx:
            op = ops[i]
            ok = agree
            if op.kind in ("avg", "expand"):
                want = expected.get(" ".join(op.argv))
                got = hashlib.sha256(results[i][1].encode()).hexdigest()
                ok = ok and want == got
            elif len({ops[j].method for j in idx}) == 1:
                # no second route ran on this query: compare with one
                ok = ok and values[0] == _exact_reference(op)
            verdict[i] = (ok, float(DPS) if ok else 0.0)


def _check_real(ops, parsed, verdict):
    refs: dict = {}
    for i, op in enumerate(ops):
        if verdict[i] is not None:
            continue
        key = (op.kind, op.query, op.m, op.mu)
        if key not in refs:
            refs[key] = _real_reference(op)
        ref, agreement = refs[key]
        digits = _digits(_value(parsed[i]), ref)
        ok = agreement >= DPS and digits >= MIN_DIGITS
        verdict[i] = (ok, digits if ok else 0.0)
