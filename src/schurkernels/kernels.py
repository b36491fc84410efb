"""Kernel representations and their mutual-equality surfaces: the Schur
expansion, the double (Rosengren) expansion, the Chebyshev rewriting of the
2-point kernel, the direct Christoffel-Darboux sum, the Hankel-inverse
generating function, and the Ginibre / Dotsenko-Fateev complex kernels.

The central identity: with t = (-1/x_1, ..., -1/x_n, -1/y_1, ..., -1/y_n)
and M = N - n,

    Khat_N^(n)(x; y) = sum_{lam in Y_{2n,M}} s_lam(t) <s_lam'>_w ,

where Khat = [prod_{j=M}^{N-1} h_j / prod_i (x_i y_i)^M] K_N^(n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from . import partitions as pt
from .ensembles import (EnsembleSpec, MomentTable, OrthoSystem, ortho_system,
                        pair_average, schur_average, schur_avg_jue,
                        schur_pair_avg_ginibre)
from .scalars import (DEFAULT_DPS, binom, det_exact, factorial, gamma_real,
                      mat_inverse_exact, rational_sqrt, recip, to_mpf,
                      with_working_precision)
from .symfun import chebyshev_u, schur_eval


@dataclass(frozen=True)
class KernelQuery:
    """Evaluation request: ensemble, kernel rank N, n pairs of points."""

    spec: EnsembleSpec
    n_rank: int
    n_pairs: int
    x: tuple
    y: tuple

    def __post_init__(self):
        if not (self.n_rank > self.n_pairs >= 1):
            raise ValueError("need N > n >= 1")
        if len(self.x) != self.n_pairs or len(self.y) != self.n_pairs:
            raise ValueError("need n x-points and n y-points")
        if any(not v for v in self.x) or any(not v for v in self.y):
            raise ValueError("points must be nonzero (t-vector undefined)")
        object.__setattr__(self, "x", tuple(_exactify(v) for v in self.x))
        object.__setattr__(self, "y", tuple(_exactify(v) for v in self.y))

    @property
    def m_size(self) -> int:
        return self.n_rank - self.n_pairs

    @property
    def t(self) -> tuple:
        return tuple(-1 / v for v in self.x) + tuple(-1 / v for v in self.y)


def _exactify(v):
    return Fraction(v) if isinstance(v, int) else v


@dataclass
class KernelExpansion:
    """Coefficient map of the Schur expansion over the 2n x (N-n) rectangle."""

    rows: int
    cols: int
    coeffs: dict = field(default_factory=dict)

    def evaluate(self, t: tuple):
        total = 0
        for lam, c in self.coeffs.items():
            total = total + schur_eval(lam, list(t)) * c
        return total


def expansion_table(spec: EnsembleSpec, n_rank: int, n_pairs: int,
                    method: str = "closed", dps: int = DEFAULT_DPS) -> KernelExpansion:
    """Coefficients <s_lam'>_w for all lam in Y_{2n, N-n}."""
    m = n_rank - n_pairs
    exp = KernelExpansion(rows=2 * n_pairs, cols=m)
    for lam in pt.enumerate_bounded(2 * n_pairs, m):
        exp.coeffs[lam] = schur_average(spec, pt.conjugate(lam), m, method, dps)
    return exp


@with_working_precision
def khat_schur(query: KernelQuery, method: str = "closed",
               dps: int = DEFAULT_DPS):
    """Khat via the single-sum Schur expansion (Theorem path)."""
    table = expansion_table(query.spec, query.n_rank, query.n_pairs, method, dps)
    return table.evaluate(query.t)


@with_working_precision
def khat_double(query: KernelQuery, dps: int = DEFAULT_DPS):
    """Khat via the double expansion over pairs (lam, mu) in Y_{n,M}^2 with
    two-insertion Andreief pair averages."""
    m = query.m_size
    xd = [-1 / v for v in query.x]
    yd = [-1 / v for v in query.y]
    total = 0
    parts = pt.enumerate_bounded(query.n_pairs, m)
    sx = {lam: schur_eval(lam, xd) for lam in parts}
    sy = {mu: schur_eval(mu, yd) for mu in parts}
    for lam in parts:
        if not sx[lam]:
            continue
        for mu in parts:
            if not sy[mu]:
                continue
            avg = pair_average(query.spec, pt.conjugate(lam), pt.conjugate(mu),
                               m, dps)
            total = total + sx[lam] * sy[mu] * avg
    return total


@with_working_precision
def k2_chebyshev(query: KernelQuery, dps: int = DEFAULT_DPS):
    """2-point Khat via the Chebyshev form
    sum_{lam1 >= lam2} <s_lam'> (xy)^(-|lam|/2) U_{lam1-lam2}(-(x+y)/(2 sqrt(xy))).

    lam1 runs to N-1 (= M for n = 1): this is the full rectangle of the
    Schur expansion, without which the equality with khat_schur fails.
    Exact mode requires xy to be a perfect rational square.
    """
    if query.n_pairs != 1:
        raise ValueError("k2_chebyshev is the 2-point (n = 1) form")
    x, y = query.x[0], query.y[0]
    xy = x * y
    if isinstance(xy, Fraction):
        s = rational_sqrt(xy)
        if s is None:
            raise ValueError("xy has no exact square root; evaluate in HPReal")
    else:
        s = mpmath.sqrt(xy)
    w = -(x + y) / (2 * s)
    m = query.m_size
    total = 0
    for lam1 in range(0, query.n_rank):
        if lam1 > m:
            break
        for lam2 in range(0, lam1 + 1):
            lam = pt.canonical((lam1, lam2))
            c = schur_average(query.spec, pt.conjugate(lam), m, "closed", dps)
            total = total + c * s ** (-(lam1 + lam2)) * chebyshev_u(lam1 - lam2, w)
    return total


# ----------------------------------------------------------------------------
# Christoffel-Darboux route
# ----------------------------------------------------------------------------

@with_working_precision
def kernel_cd(spec: EnsembleSpec, n_rank: int, x, y, dps: int = DEFAULT_DPS):
    """K_N(x, y) = sum_{j<N} P_j(x) P_j(y) / h_j from the moment data."""
    return _cd_sum(ortho_system(spec, n_rank - 1, dps), x, y)


def _cd_sum(osys: OrthoSystem, x, y):
    """sum_j P_j(x) P_j(y) / h_j over every polynomial of osys, in degree order."""
    total = 0
    for p, h in zip(osys.polys, osys.norms):
        total = total + p(x) * p(y) * recip(h)
    return total


@with_working_precision
def kernel_cd_formula(spec: EnsembleSpec, n_rank: int, x, y,
                      dps: int = DEFAULT_DPS):
    """The Christoffel-Darboux formula form
    (P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)) / (h_{N-1} (x - y)); x != y."""
    if x == y:
        raise ValueError("CD formula form needs x != y")
    osys = ortho_system(spec, n_rank, dps)
    pn, pm = osys.polys[n_rank], osys.polys[n_rank - 1]
    return (pn(x) * pm(y) - pm(x) * pn(y)) \
        * recip(osys.norms[n_rank - 1] * (x - y))


@with_working_precision
def khat_cd(query: KernelQuery, dps: int = DEFAULT_DPS):
    """Khat via the determinant of 2-point CD kernels (the oracle route).

    K_N^(n) = det[K_N(x_i, y_j)] / (Delta_n(x) Delta_n(y)), then
    Khat = prod_{j=N-n}^{N-1} h_j / prod_i (x_i y_i)^(N-n) * K_N^(n).
    Multi-point evaluation needs distinct x_i and distinct y_i.
    """
    n = query.n_pairs
    if len(set(query.x)) < n or len(set(query.y)) < n:
        raise ValueError("multi-point CD kernel needs distinct coordinates")
    spec, nr = query.spec, query.n_rank
    osys = ortho_system(spec, nr - 1, dps)
    det = det_exact([[_cd_sum(osys, xi, yj) for yj in query.y] for xi in query.x])
    vand = 1
    for i in range(n):
        for j in range(i + 1, n):
            vand = vand * (query.x[i] - query.x[j]) * (query.y[i] - query.y[j])
    kn = det * recip(vand)
    pref = 1
    for j in range(nr - n, nr):
        pref = pref * osys.norms[j]
    for xi, yi in zip(query.x, query.y):
        pref = pref * recip((xi * yi) ** (nr - n))
    return pref * kn


@with_working_precision
def hankel_inverse_gen(spec: EnsembleSpec, n_rank: int, x, y,
                       dps: int = DEFAULT_DPS):
    """K_N(x,y) as the generating function of the inverse moment Hankel:
    sum_{j,k} x^j y^k [H_N^-1]_{jk}."""
    mom = MomentTable(spec, dps)
    h = [[mom.get(j + k) for k in range(n_rank)] for j in range(n_rank)]
    hinv = mat_inverse_exact(h)
    total = 0
    for j in range(n_rank):
        for k in range(n_rank):
            total = total + x ** j * y ** k * hinv[j][k]
    return total


# ----------------------------------------------------------------------------
# complex-plane kernels
# ----------------------------------------------------------------------------

def ginibre_kernel(n_rank: int, x, ybar):
    """Closed form Khat_N(x; ybar) = (N-1)! sum_j (x ybar)^(j-N+1)/j!;
    depends on the points only through the product x*ybar."""
    xy = _exactify(x) * _exactify(ybar)
    if not xy:
        raise ValueError("ginibre kernel needs x*ybar != 0")
    total = 0
    for j in range(n_rank):
        total = total + xy ** (j - n_rank + 1) * Fraction(1, factorial(j))
    return factorial(n_rank - 1) * total


def ginibre_khat_schur(n_rank: int, n_pairs: int, xs, ybars):
    """Ginibre Khat via the single-sum Schur expansion
    sum_lam s_lam(x^v) s_lam(ybar^v) <s_lam' sbar_lam'>."""
    m = n_rank - n_pairs
    xd = [-1 / _exactify(v) for v in xs]
    yd = [-1 / _exactify(v) for v in ybars]
    total = 0
    for lam in pt.enumerate_bounded(n_pairs, m):
        lc = pt.conjugate(lam)
        total = (total + schur_eval(lam, xd) * schur_eval(lam, yd)
                 * schur_pair_avg_ginibre(lc, lc, m))
    return total


def real_ginibre_kernel(n_rank: int, x, y):
    """Real Ginibre: K_N(x,y) = (x-y) (N-1)! sum_j (xy)^j / j!."""
    x, y = _exactify(x), _exactify(y)
    total = 0
    for j in range(n_rank):
        total = total + (x * y) ** j * Fraction(1, factorial(j))
    return (x - y) * factorial(n_rank - 1) * total


def df_chiral_kernel(n_rank: int, n_pairs: int, xs, alpha, beta, gamma=1,
                     dps: int = DEFAULT_DPS):
    """Chiral Dotsenko-Fateev kernel
    K_N^(n)(x) = sum_{lam in Y_{n,M}} s_lam(x^v) <s_lam'>_{JE,gamma}.

    gamma = 1 is the Schur-coefficient regime (<.>_{JE,1} is the JUE
    average); general gamma would need Jack averages and is out of scope
    beyond the explicit n = 1 product formula.
    """
    if gamma != 1:
        if n_pairs == 1:
            return df_chiral_closed_n1(n_rank, _exactify(xs[0]), alpha, beta, gamma)
        raise ValueError("df_chiral_kernel supports gamma != 1 only at n = 1")
    m = n_rank - n_pairs
    xd = [-1 / _exactify(v) for v in xs]
    total = 0
    for lam in pt.enumerate_bounded(n_pairs, m):
        total = (total + schur_eval(lam, xd)
                 * schur_avg_jue(pt.conjugate(lam), m, alpha, beta, dps))
    return total


def df_chiral_closed_n1(n_rank: int, z, alpha, beta, gamma=1):
    """2-point chiral DF kernel as the binomial product sum
    sum_k (-z)^(-k) C(N-1,k) prod_{j<=k} (a+1+g(N-j-1))/(a+b+2+g(2N-j-3)).

    gamma is normalized so that gamma = 1 is the JUE regime; the
    half-convention variant (gamma -> gamma/2 in every factor) would tie
    gamma = 2 to JUE instead.
    """
    z = _exactify(z)
    total = 0
    for k in range(n_rank):
        term = Fraction(binom(n_rank - 1, k))
        for j in range(1, k + 1):
            term = term * (alpha + 1 + gamma * (n_rank - j - 1)) \
                / (alpha + beta + 2 + gamma * (2 * n_rank - j - 3))
        total = total + (-z) ** (-k) * term
    return total


def df_kernel_factorized(n_rank: int, n_pairs: int, xs, ybars, alpha, beta,
                         gamma=1, dps: int = DEFAULT_DPS):
    """Khat_N^(n)(x; ybar)|_DF = K(x) * K(ybar) (chiral factorization)."""
    return (df_chiral_kernel(n_rank, n_pairs, xs, alpha, beta, gamma, dps)
            * df_chiral_kernel(n_rank, n_pairs, ybars, alpha, beta, gamma, dps))


def df_khat_double(n_rank: int, n_pairs: int, xs, ybars, alpha, beta,
                   dps: int = DEFAULT_DPS):
    """DF double expansion at gamma = 1 with pair averages
    <s_lam' sbar_mu'>_DF = <s_lam'>_JUE <s_mu'>_JUE, each JUE factor
    computed by the Andreief oracle (independent of the closed forms)."""
    from .ensembles import schur_avg_oracle
    spec = EnsembleSpec("jue", alpha=alpha, beta=beta)
    m = n_rank - n_pairs
    xd = [-1 / _exactify(v) for v in xs]
    yd = [-1 / _exactify(v) for v in ybars]
    total = 0
    for lam in pt.enumerate_bounded(n_pairs, m):
        for mu in pt.enumerate_bounded(n_pairs, m):
            avg = (schur_avg_oracle(spec, pt.conjugate(lam), m, dps)
                   * schur_avg_oracle(spec, pt.conjugate(mu), m, dps))
            total = (total + schur_eval(lam, xd) * schur_eval(mu, yd) * avg)
    return total


def selberg_je_partition(m: int, alpha, beta, gamma, dps: int = DEFAULT_DPS):
    """Selberg product for Z_JE = (1/M!) int |Delta|^(2 gamma)
    prod z^a (1-z)^b, normalized so gamma = 1 is the JUE Hankel
    determinant:

        (1/M!) prod_{j=0}^{M-1} G(a+1+gj) G(b+1+gj) G(1+(j+1)g)
                               / [G(a+b+2+(M+j-1)g) G(1+g)] .
    """
    with mpmath.workdps(dps):
        a, b, g = to_mpf(alpha), to_mpf(beta), to_mpf(gamma)
        zje = mpmath.mpf(1) / factorial(m)
        for j in range(m):
            zje *= (gamma_real(a + 1 + g * j, dps) * gamma_real(b + 1 + g * j, dps)
                    * gamma_real(1 + (j + 1) * g, dps)
                    / gamma_real(a + b + 2 + (m + j - 1) * g, dps)
                    / gamma_real(1 + g, dps))
        return zje


def df_partition(m: int, alpha, beta, gamma, dps: int = DEFAULT_DPS):
    """Dotsenko-Fateev (complex Selberg) partition function: Z_JE^2 times
    the sine product mirroring the Gamma arguments.  Zero sine
    denominators (including the 0/0 cases at integer parameters) raise."""
    zje = selberg_je_partition(m, alpha, beta, gamma, dps)
    with mpmath.workdps(dps):
        a, b, g = to_mpf(alpha), to_mpf(beta), to_mpf(gamma)
        sden = mpmath.sinpi(g)
        zdf = zje ** 2
        for j in range(1, m + 1):
            den1 = mpmath.sinpi(a + b + 2 + g * (2 * m - j - 1))
            if den1 == 0 or sden == 0:
                raise ValueError("sine pole in the DF partition function")
            zdf *= (mpmath.sinpi(a + 1 + g * (m - j)) * mpmath.sinpi(b + 1 + g * (m - j))
                    / den1) * (mpmath.sinpi(g * j) / sden)
        return zdf


def random_rationals(rng: random.Random, count: int, nonzero=True,
                     distinct=True, maxval: int = 13) -> list[Fraction]:
    """Seeded random rational test points with |numerator|, denominator <= 13."""
    out: list[Fraction] = []
    while len(out) < count:
        v = Fraction(rng.randint(-maxval, maxval), rng.randint(1, maxval))
        if nonzero and not v:
            continue
        if distinct and v in out:
            continue
        out.append(v)
    return out
