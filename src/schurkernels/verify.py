"""Verification suites: one per acceptance-grade identity family.

Each suite replays a family of exact identities (closed forms vs the
Andreief oracle, the four kernel representations against each other, the
Wronskian/Schur routes to f_2n, ...) and returns a SuiteResult with
pass/fail counts plus any reported constants.  The CLI `verify` command
and the acceptance test module both run these.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import mpmath

from . import partitions as pt
from .ensembles import (EnsembleSpec, askey_limit_check, hankel_det,
                        jack_avg_jacobi_coeff, pair_cofactors, schur_average,
                        schur_pair_avg_oracle)
from .heat_kernel import (heat_kernel_closed, heat_kernel_sum,
                          schur_doubling_check)
from .kernels import (KernelQuery, df_chiral_closed_n1, df_chiral_kernel,
                      df_khat_double, df_kernel_factorized, expansion_table,
                      ginibre_kernel, hankel_inverse_gen,
                      k2_chebyshev, kernel_cd, khat_cd, khat_double,
                      khat_schur, random_rationals, real_ginibre_kernel,
                      selberg_je_partition)
from .painleve import (b2_closed, b_coeffs, f2n_confluence_pair, f2n_schur,
                       f2n_wronskian, f2n_zero, sw_fermion_constant,
                       sw_zm_ratio)
from .scalars import DEFAULT_DPS, hp_close, over
from .symfun import dual_cauchy_check
from .toeplitz_fh import (duduchava_roch_check, fh_inverse_via_elementary_oracle,
                          fh_kernel_generating, toeplitz_inverse_closed,
                          toeplitz_inverse_exact)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    seconds: float = 0.0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, label: str, cond: bool):
        if cond:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(label)


def suite_schur_averages(seed: int = 1) -> SuiteResult:
    """Every closed-form Schur average equals the Andreief oracle exactly
    on mu in Y_{3,3}, M in {3,4}; non-integer spot checks at 10^-40.  Both
    sides go through `schur_average`, the dispatch the CLI runs."""
    r = SuiteResult("schur-averages")
    for m in (3, 4):
        specs = [EnsembleSpec("gue"),
                 *(EnsembleSpec("lue", alpha=a) for a in (0, 1, 2)),
                 *(EnsembleSpec("jue", alpha=a, beta=b) for a in (0, 1, 2) for b in (0, 1, 2)),
                 *(EnsembleSpec("jue_tilde", alpha=a, beta=a + m + 4, m=m) for a in (0, 1)),
                 EnsembleSpec("lue_tilde", alpha_tilde=2 * m + 6), EnsembleSpec("sw"),
                 *(EnsembleSpec("qlue", alpha=a) for a in (0, 1))]
        for mu in pt.enumerate_bounded(3, 3):
            for spec in specs:
                r.check(f"{_label(spec)} {mu} M={m}",
                        schur_average(spec, mu, m) == schur_average(spec, mu, m, "oracle"))
    half, ja, jb = mpmath.mpf(1) / 2, mpmath.mpf("0.7"), mpmath.mpf("1.3")
    for spec, mus in ((EnsembleSpec("lue", alpha=half), ((1,), (2, 1), (2, 2))),
                      (EnsembleSpec("jue", alpha=ja, beta=jb), ((1,), (2, 1), (3, 2)))):
        for mu in mus:
            r.check(f"{_label(spec)} {mu}",
                    hp_close(schur_average(spec, mu, 3), schur_average(spec, mu, 3, "oracle")))
    return r


def _label(spec: EnsembleSpec) -> str:
    """The kind and the set parameters of spec, as a check label."""
    return " ".join(f"{k}={v}" for k, v in vars(spec).items() if v is not None and k[0] != "_")


_KERNEL_SPECS = (EnsembleSpec("gue"), EnsembleSpec("lue", alpha=0),
                 EnsembleSpec("lue", alpha=2), EnsembleSpec("jue", alpha=1, beta=1))


def suite_kernel_equivalence(seed: int = 1) -> SuiteResult:
    """khat_schur = khat_double = khat_cd (and = k2_chebyshev at n = 1),
    exactly, on 10 seeded rational points per (spec, N, n).  The double
    checks of each (spec, N, n) also need 4 seeded pair averages of
    `pair_cofactors` to equal the per-pair determinant oracle."""
    r = SuiteResult("kernel-equivalence")
    rng, pair_rng = random.Random(seed), random.Random(f"pairs:{seed}")
    for spec in _KERNEL_SPECS:
        for n in (1, 2):
            for nr in range(n + 1, 6):
                m = nr - n
                rows, den = pair_cofactors(spec, n, m)
                parts = pt.enumerate_bounded(n, m)
                at = {p: i for i, p in enumerate(parts)}
                pairs = sorted((lam, mu) for lam in parts for mu in parts)
                pairs_ok = all(
                    over(rows[at[lam]][at[mu]], den)
                    == schur_pair_avg_oracle(spec, pt.conjugate(lam), pt.conjugate(mu), m)
                    for lam, mu in pair_rng.sample(pairs, min(4, len(pairs))))
                for _ in range(10):
                    pts = random_rationals(rng, 2 * n)
                    q = KernelQuery(spec, nr, n, tuple(pts[:n]), tuple(pts[n:]))
                    a = khat_schur(q)
                    r.check(f"{spec.kind} N={nr} n={n} double",
                            pairs_ok and khat_double(q) == a)
                    r.check(f"{spec.kind} N={nr} n={n} cd", khat_cd(q) == a)
                    if n == 1:
                        x0 = pts[0]
                        scale = Fraction(rng.randint(1, 5), rng.randint(1, 5)) ** 2
                        y0 = x0 * scale
                        q2 = KernelQuery(spec, nr, 1, (x0,), (y0,))
                        r.check(f"{spec.kind} N={nr} chebyshev",
                                k2_chebyshev(q2) == khat_schur(q2))
    return r


def suite_hankel_inverse(seed: int = 1) -> SuiteResult:
    """hankel_inverse_gen = kernel_cd exactly, N <= 5."""
    r = SuiteResult("hankel-inverse")
    rng = random.Random(seed)
    for spec in _KERNEL_SPECS:
        for nr in range(1, 6):
            for _ in range(3):
                x, y = random_rationals(rng, 2, nonzero=False)
                r.check(f"{spec.kind} N={nr}",
                        hankel_inverse_gen(spec, nr, x, y) == kernel_cd(spec, nr, x, y))
    return r


def suite_symmetry(seed: int = 1) -> SuiteResult:
    """The Schur expansion is invariant under all 24 permutations of t;
    n=2, N=4, LUE(0)."""
    r = SuiteResult("symmetry")
    rng = random.Random(seed)
    spec = EnsembleSpec("lue", alpha=0)
    pts = random_rationals(rng, 4)
    q = KernelQuery(spec, 4, 2, tuple(pts[:2]), tuple(pts[2:]))
    table = expansion_table(spec, 4, 2)
    base = table.evaluate(q.t)
    for perm in permutations(q.t):
        r.check(f"perm {perm}", table.evaluate(perm) == base)
    return r


def suite_painleve(seed: int = 1) -> SuiteResult:
    """f2n routes agree exactly; b1 = 0; b2 closed form; f2n(0) forms."""
    r = SuiteResult("painleve")
    for (n, m) in ((1, 1), (1, 2), (1, 3), (2, 2)):
        w, s = f2n_wronskian(n, m), f2n_schur(n, m)
        r.check(f"f2n schur==wronskian n={n} M={m}", w == s)
        r.check(f"degree 2nM n={n} M={m}", w.poly.degree() == 2 * n * m)
        b1, b2 = b_coeffs(n, m, 2)
        r.check(f"b1=0 n={n} M={m}", b1 == 0)
        r.check(f"b2 closed n={n} M={m}", b2 == b2_closed(n, m))
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            try:
                f2n_zero(n, m)
                r.check(f"f2n(0) forms n={n} M={m}", True)
            except AssertionError:
                r.check(f"f2n(0) forms n={n} M={m}", False)
    lhs, rhs = f2n_confluence_pair(1, 2, 3)
    r.check("confluence spot check (1,2,x=3)", lhs == rhs)
    return r


def suite_dual_cauchy(seed: int = 1) -> SuiteResult:
    """Direct product = partition sum for (2n, M) grids, 20 seeded points."""
    r = SuiteResult("dual-cauchy")
    rng = random.Random(seed)
    for (rows, cols) in ((2, 2), (2, 3), (4, 2)):
        for _ in range(20):
            t = random_rationals(rng, rows, nonzero=False, distinct=False)
            z = random_rationals(rng, cols, nonzero=False, distinct=False)
            lhs, rhs = dual_cauchy_check(t, z)
            r.check(f"dual cauchy {rows}x{cols}", lhs == rhs)
    return r


def suite_ginibre(seed: int = 1) -> SuiteResult:
    """Schur single sum (`khat_double`, whose Ginibre pair averages are
    diagonal) = closed form (2 <= N <= 6); real-Ginibre antisymmetry and
    displayed values (N <= 4)."""
    r = SuiteResult("ginibre")
    rng = random.Random(seed)
    ginibre = EnsembleSpec("ginibre")
    for nr in range(2, 7):
        for _ in range(4):
            x, y = random_rationals(rng, 2)
            r.check(f"ginibre N={nr}",
                    khat_double(KernelQuery(ginibre, nr, 1, (x,), (y,)))
                    == ginibre_kernel(nr, x, y))
    for nr in range(1, 5):
        for _ in range(4):
            x, y = random_rationals(rng, 2)
            k = real_ginibre_kernel(nr, x, y)
            r.check(f"real ginibre antisym N={nr}",
                    k == -real_ginibre_kernel(nr, y, x))
            direct = (x - y) * math.factorial(nr - 1) \
                * sum((x * y) ** j / Fraction(math.factorial(j)) for j in range(nr))
            r.check(f"real ginibre display N={nr}", k == direct)
    r.check("real ginibre example", real_ginibre_kernel(2, 2, 1) == 3)
    return r


def suite_df_selberg(seed: int = 1) -> SuiteResult:
    """DF chiral factorization at gamma=1; Kadell coefficient at gamma=1;
    Selberg product vs JUE Hankel determinant."""
    r = SuiteResult("df-selberg")
    rng = random.Random(seed)
    for nr in (2, 3, 4):
        for _ in range(3):
            x, y = random_rationals(rng, 2)
            f = df_kernel_factorized(nr, 1, (x,), (y,), 1, 0, 1)
            d = df_khat_double(nr, 1, (x,), (y,), 1, 0)
            r.check(f"df factorized N={nr}", f == d)
            r.check(f"df chiral closed N={nr}",
                    df_chiral_kernel(nr, 1, (x,), 0, 1, 1)
                    == df_chiral_closed_n1(nr, x, 0, 1, 1))
    for nu in pt.enumerate_bounded(2, 2):
        for (m, a, b, n) in ((2, 0, 0, 1), (3, 1, 2, 1), (4, 2, 1, 2)):
            if len(nu) > m:
                continue
            r.check(f"kadell gamma=1 {nu} M={m}",
                    jack_avg_jacobi_coeff(nu, m, a, b, 1, n)
                    == schur_average(EnsembleSpec("jue", alpha=a, beta=b), nu, m))
    for m in (1, 2, 3):
        for (a, b) in ((0, 0), (1, 2)):
            zje = selberg_je_partition(m, a, b, 1)
            h = hankel_det(EnsembleSpec("jue", alpha=a, beta=b), m)
            r.check(f"selberg gamma=1 M={m} a={a} b={b}",
                    hp_close(zje, Fraction(h)))
    return r


def suite_sw_fermion(seed: int = 1) -> SuiteResult:
    """Character expansion = modified-moment Andreief polynomial up to one
    x-independent constant, M <= 3, n = 1; constants and the Z_M^SW
    normalization ratio are reported."""
    r = SuiteResult("sw-fermion")
    for m in (1, 2, 3):
        try:
            c = sw_fermion_constant(m, 1)
            r.check(f"fermion constant x-independent M={m}", True)
            r.notes[f"fermion_constant_M{m}"] = c.to_json()
        except AssertionError as exc:
            r.check(f"fermion constant x-independent M={m} ({exc})", False)
        r.notes[f"zm_ratio_M{m}"] = sw_zm_ratio(m).to_json()
    return r


def suite_toeplitz(seed: int = 1) -> SuiteResult:
    """Closed-form inverse = exact inverse; Duduchava-Roch identity; FH
    generating function = inverse generating sum (both routes)."""
    r = SuiteResult("toeplitz")
    rng = random.Random(seed)
    for g in (1, 2, 3):
        for d in (1, 2, 3):
            for m in range(1, 7):
                r.check(f"closed inverse g={g} d={d} M={m}",
                        toeplitz_inverse_closed(g, d, m)
                        == toeplitz_inverse_exact(g, d, m))
                r.check(f"duduchava-roch g={g} d={d} M={m}",
                        duduchava_roch_check(g, d, m))
    for g, d in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for nr in range(1, 5):
            x, y = random_rationals(rng, 2)
            direct = fh_kernel_generating(g, d, nr, x, y)
            tinv = fh_inverse_via_elementary_oracle(g, d, nr)
            via_oracle = sum(x ** (nr - j - 1) * y ** (nr - k - 1) * tinv[j][k]
                             for j in range(nr) for k in range(nr))
            r.check(f"fh generating g={g} d={d} N={nr}", direct == via_oracle)
    return r


def suite_heat_kernel(seed: int = 1) -> SuiteResult:
    """|partial sum - closed form| <= 10^-25 with auto term count on a
    5 x 5 x 3 grid; Schur-doubling exact for J <= 10, k <= 3."""
    r = SuiteResult("heat-kernel")
    rng = random.Random(seed)
    tol = mpmath.mpf(10) ** -25
    xis = [mpmath.mpf(v) / 2 for v in (-4, -2, 0, 2, 4)]
    for q in (mpmath.mpf("0.2"), mpmath.mpf("0.5"), mpmath.mpf("0.8")):
        for xi in xis:
            for eta in xis:
                s = heat_kernel_sum(q, xi, eta)
                c = heat_kernel_closed(q, xi, eta)
                r.check(f"heat q={q} xi={xi} eta={eta}", abs(s - c) <= tol)
    r.check("symmetry", heat_kernel_closed("0.37", "1.25", "-0.5")
            == heat_kernel_closed("0.37", "-0.5", "1.25"))
    for _ in range(10):
        x, y = random_rationals(rng, 2)
        q = Fraction(rng.randint(1, 9), 10)
        sf, hf = schur_doubling_check(x, y, q, 10)
        r.check(f"doubling x={x} y={y}", sf == hf)
        for k in (1, 2, 3):
            sk, hk = schur_doubling_check(x, y, q, 10, k=k)
            r.check(f"doubling k-indep k={k}", sk == sf and hk == hf)
    return r


def suite_askey(seed: int = 1) -> SuiteResult:
    """The qLUE/SW pair ratio tends to 1 monotonically in alpha."""
    r = SuiteResult("askey")
    for mu in ((1,), (1, 1)):
        for m in (1, 2):
            if len(mu) > m:
                continue
            for q in (Fraction(1, 2), Fraction(1, 3)):
                devs = []
                for al in ("10.5", "20.5", "40.5"):
                    lhs, rhs = askey_limit_check(mu, m, mpmath.mpf(al), q)
                    devs.append(abs(lhs / rhs - 1))
                r.check(f"askey mu={mu} M={m} q={q} monotone to 1",
                        devs[0] > devs[1] > devs[2])
    return r


SUITES = {
    "schur-averages": suite_schur_averages,
    "kernel-equivalence": suite_kernel_equivalence,
    "hankel-inverse": suite_hankel_inverse,
    "symmetry": suite_symmetry,
    "painleve": suite_painleve,
    "dual-cauchy": suite_dual_cauchy,
    "ginibre": suite_ginibre,
    "df-selberg": suite_df_selberg,
    "sw-fermion": suite_sw_fermion,
    "toeplitz": suite_toeplitz,
    "heat-kernel": suite_heat_kernel,
    "askey": suite_askey,
}


def run_suite(name: str, seed: int = 1, dps: int = DEFAULT_DPS) -> SuiteResult:
    """Run one suite at dps working digits."""
    t0 = time.perf_counter()
    with mpmath.workdps(dps):
        result = SUITES[name](seed=seed)
    result.seconds = time.perf_counter() - t0
    return result
