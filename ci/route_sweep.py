"""The route sweep: the exact kernel routes print the same bytes, and so do
each closed Schur average and its Andreief oracle.  A group is a command
line and the methods that must print one output: `FIXED` holds sizes the
tier-1 tests cannot afford, `draws` seeded kinds, sizes, points, partitions
and int, p/q and decimal parameters.  Real-alpha qLUE (its routes round
different reals) and Ginibre (one route) are left out.  Calls run two at a
time, each in a fresh interpreter; each group that does not match prints
one line, with the last stderr line of each failed call, then the sweep
exits 1.  After the summary line the sweep prints its ten slowest calls
with their wall times, as a report, not a gate.
Run:  python ci/route_sweep.py
"""

import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

SEEDS = (1, 11)  # the two seeds `schurkernels verify` runs in CI
KINDS = ("gue", "lue", "jue", "jue-tilde", "lue-tilde", "sw", "qlue")
# the largest N at n = 1, 2, 3
N_MAX = {**dict.fromkeys(KINDS, (96, 24, 12)), "sw": (24, 10, 7), "qlue": (16, 8, 7)}
ROUTES, AVG = ("cd", "double", "schur"), ("closed", "oracle")
K, A = "kernel eval --ensemble", "schur-avg --ensemble"
CLASSICAL = ("gue", "lue --alpha 1/2", "jue --alpha 7/10 --beta 13/10")
X2, X3 = "--x 3/7,-2/9 --y -5/11,4/13", "--x 3/7,-2/9,5/11 --y -5/11,4/13,7/5"
FIXED = [
    # an 8-square QRat determinant takes Laplace, a 13-square one Bareiss
    (f"{A} qlue --alpha 1 --m 8 --partition 3,2,1", AVG),
    (f"{A} sw --m 13 --partition 2,1", AVG),
    # walks through parents that no kernel table holds
    *((f"{A} {ens} --m 8 --partition {mu}", AVG)
      for ens in (*CLASSICAL, "sw", "qlue --alpha 0", "qlue --alpha 1",
                  "lue-tilde --alpha-tilde 30", "jue-tilde --alpha 1 --beta 20")
      for mu in ("4,3,3,2", "5,5,2,2,1,1")),
    (f"{K} qlue --alpha 1 --N 7 --n 3 {X3}", ("double", "schur")),
    *((f"{K} jue {params} --N 48 --n 1 --x -7/5 --y 11/13", ROUTES)
      for params in ("--alpha 123456789012345678901234567891/1000000000000000000000000000000"
                     " --beta 131415926535897932384626433832/100000000000000000000000000000",
                     "--alpha 0.7 --beta 1.3")),
    *((f"{K} {ens} --n 1 --x 3/7 --y -5/11", ROUTES)
      for ens in ("sw --N 24", "qlue --alpha 0 --N 16", "qlue --alpha 1 --N 16")),
    # the q scale past the draws, where cd divides polynomials of thousands
    # of terms in Z[u]; double (a minute at SW N = 48) is left out for now
    *((f"{K} {ens} --n 1 --x 3/7 --y -5/11", ("cd", "schur"))
      for ens in ("sw --N 48", "qlue --alpha 1 --N 24")),
    *((f"{K} {ens} --N 96 --n 1 --x -7/5 --y 11/13", ROUTES) for ens in CLASSICAL),
    # xy = (14/15)^2: the exact Chebyshev form applies
    *((f"{K} {ens} --n 1 --x -7/5 --y -28/45", ("chebyshev", "schur"))
      for ens in (*(f"{e} --N 96" for e in CLASSICAL), "sw --N 24")),
    (f"{K} lue-tilde --alpha-tilde 60 --N 12 --n 2 {X2}", ROUTES),
    (f"{K} jue-tilde --alpha 1 --beta 60 --N 12 --n 1 --x 3/7 --y -5/11", ROUTES),
    (f"{K} lue-tilde --alpha-tilde 60 --N 24 --n 2 {X2}", ROUTES),
    (f"{K} jue-tilde --alpha 1 --beta 60 --N 24 --n 2 {X2}", ROUTES),
    # the sizes at which `pair_cofactors` and `_branching` are to be rewritten
    (f"{K} lue --alpha 1 --N 16 --n 3 {X3}", ROUTES),
    (f"{K} lue --alpha 1 --N 48 --n 2 {X2}", ROUTES),
]


def param(rng, lo) -> str:
    """A seeded value in (lo, lo + 3]: an int, a p/q or a decimal."""
    den = rng.choice((1, 3, 7, 100))
    v = lo + Fraction(rng.choice([k for k in range(1, 3 * den + 1) if den == 1 or k % den]), den)
    return str(Decimal(v.numerator) / v.denominator) if den == 100 else str(v)


def ensemble(rng, kind, m, top) -> str:
    """The kind and its seeded parameter flags.  Tilde parameters keep every
    moment finite, and every average over m variables whose first part is at
    most top: alpha_tilde >= 2m + top, beta >= alpha + m + top."""
    flags = {"lue": lambda: f"--alpha {param(rng, -1)}",
             "jue": lambda: f"--alpha {param(rng, -1)} --beta {param(rng, -1)}",
             "jue-tilde": lambda: f"--alpha {param(rng, -1)} --beta {param(rng, m + top + 2)}",
             "lue-tilde": lambda: f"--alpha-tilde {param(rng, 2 * m + top)}",
             "qlue": lambda: f"--alpha {rng.randint(0, 2)}"}
    return f"{kind} {flags[kind]()}" if kind in flags else kind


def points(rng, k) -> list:
    """k distinct seeded rationals +-p/q other than +-1."""
    pts = []
    while len(pts) < k:
        v = Fraction(rng.choice((-1, 1)) * rng.randint(1, 13), rng.randint(2, 13))
        pts += [v] if abs(v) != 1 and v not in pts else []
    return pts


def draws(seed) -> list:
    """For each kind, a kernel group at each n = 1, 2, 3 and an average at M <= 8."""
    rng, groups = random.Random(seed), []
    for kind in KINDS:
        for n in (1, 2, 3):
            big = rng.randint(n + 1, N_MAX[kind][n - 1])
            pts, methods = points(rng, 2 * n), ROUTES
            if n == 1 and rng.random() < 0.5:  # y = x s^2: xy is a rational square
                pts, methods = [pts[0], pts[0] * pts[1] ** 2], ROUTES + ("chebyshev",)
            x, y = (",".join(map(str, p)) for p in (pts[:n], pts[n:]))
            ens = ensemble(rng, kind, big - n, 2 * n)
            groups.append((f"{K} {ens} --N {big} --n {n} --x {x} --y {y}", methods))
        m = rng.randint(1, 8)
        mu = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, min(m, 4)))), reverse=True)
        ens = ensemble(rng, kind, m, mu[0])
        groups.append((f"{A} {ens} --m {m} --partition {','.join(map(str, mu))}", AVG))
    return groups


def run(argv):
    """(True, stdout) of `schurkernels argv` in a fresh interpreter, or
    (False, the last line of its stderr) if it fails."""
    p = subprocess.run([sys.executable, "-m", "schurkernels.cli", *argv],
                       capture_output=True, text=True)
    if p.returncode == 0:
        return True, p.stdout
    return False, (p.stderr.strip().splitlines() or [f"exit status {p.returncode}"])[-1]


def check(groups, run, map=map) -> list:
    """One line per group whose calls, run by map(run, calls), differ or fail;
    a failed call's methods carry the last line of its stderr."""
    results = map(run, [f"{line} --method {m}".split() for line, ms in groups for m in ms])
    bad = []
    for line, methods in groups:
        outs = {}
        for method, out in zip(methods, results):
            outs.setdefault(out, []).append(method)
        if len(outs) > 1 or not all(ok for ok, _ in outs):
            bad.append(f"{line} --method " + " != ".join(
                "/".join(ms) + ("" if ok else f" (failed: {text})")
                for (ok, text), ms in outs.items()))
    return bad


def timed(run, times):
    """run, each call appending (wall seconds, command line) to times."""
    def call(argv):
        start = time.perf_counter()
        out = run(argv)
        times.append((time.perf_counter() - start, " ".join(argv)))
        return out
    return call


def slowest(times, k=10) -> list:
    """The k slowest calls of times, slowest first, one line each."""
    return [f"{t:8.2f} s  {line}" for t, line in sorted(times, reverse=True)[:k]]


def main():
    groups, times = FIXED + [g for seed in SEEDS for g in draws(seed)], []
    with ThreadPoolExecutor(2) as pool:
        bad = check(groups, timed(run, times), pool.map)
    print("\n".join([*bad, f"route sweep: {len(groups) - len(bad)} of {len(groups)} match",
                     "slowest calls:", *slowest(times)]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
