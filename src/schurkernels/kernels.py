"""Kernel representations and their mutual-equality surfaces: the Schur
expansion, the double (Rosengren) expansion, the Chebyshev rewriting of the
2-point kernel, the direct Christoffel-Darboux sum, the Hankel-inverse
generating function, and the Ginibre / Dotsenko-Fateev complex kernels.

The central identity: with t = (-1/x_1, ..., -1/x_n, -1/y_1, ..., -1/y_n)
and M = N - n,

    Khat_N^(n)(x; y) = sum_{lam in Y_{2n,M}} s_lam(t) <s_lam'>_w ,

where Khat = [prod_{j=M}^{N-1} h_j / prod_i (x_i y_i)^M] K_N^(n).  One cached
<s_lam'>_w table per rows x M rectangle also serves <det(x + Z)^k>
(`char_poly_schur`: Painleve f_2n, the SW fermion sum) and the chiral DF kernel.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from types import MappingProxyType

import mpmath

from . import partitions as pt
from .ensembles import (EnsembleSpec, OrthoSystem, moment, ortho_system,
                        pair_cofactors, schur_average, spec_cache, walk)
from .scalars import (Poly, binom, det_exact, gamma_real, guarded, int_form,
                      mat_inverse_exact, over, rational_sqrt, recip, to_mpf)
from .symfun import _branching, schur_table, schur_values


@dataclass(frozen=True)
class KernelQuery:
    """Evaluation request: ensemble, kernel rank N, n pairs of int, Fraction or mpf points."""

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
        for key in ("x", "y"):
            if not all(isinstance(v, (int, Fraction, mpmath.mpf)) for v in getattr(self, key)):
                raise ValueError(f"{key} points must be ints, Fractions or mpfs")
        if any(not v for v in self.x) or any(not v for v in self.y):
            raise ValueError("points must be nonzero (t-vector undefined)")
        if self.q_exact and any(isinstance(v, mpmath.mpf) for v in self.x + self.y):
            raise ValueError("an exact q-ensemble needs rational points")
        object.__setattr__(self, "x", tuple(_exactify(v) for v in self.x))
        object.__setattr__(self, "y", tuple(_exactify(v) for v in self.y))

    @property
    def q_exact(self) -> bool:
        return self.spec.kind in ("sw", "qlue") and self.spec.q is None

    @property
    def m_size(self) -> int:
        return self.n_rank - self.n_pairs

    guard = property(lambda self: self.n_pairs * self.m_size + 10)  # the digits of `_guarded`

    @property
    def t(self) -> tuple:
        return tuple(-1 / v for v in self.x) + tuple(-1 / v for v in self.y)


def _exactify(v):
    return Fraction(v) if isinstance(v, int) else v


@dataclass(frozen=True)
class KernelExpansion:
    """Read-only coefficient map of the Schur expansion over the rows x cols
    rectangle (a cached table is shared by every caller) and its `int_form`
    (c, e), in the order of the map: ints over their lcm at rational
    coefficients, Laurent polynomials at q ones, mpfs over e = 1."""

    rows: int
    cols: int
    coeffs: MappingProxyType
    ints: tuple

    def evaluate(self, t: tuple):
        """sum_lam s_lam(t) c_lam, every s_lam(t) from one branching pass at
        the `int_form` (z, d) of t, grouped by |lam| with Horner in d and
        divided once."""
        (z, d), (c, e) = int_form(t), self.ints
        parts, s = schur_values(self.rows, self.cols, z)
        return over(_horner_dot(map(sum, parts), s, c, d),
                    e * d ** (self.rows * self.cols))


def _horner_dot(sizes, a, b, d):
    """sum_i a_i b_i d^(K - sizes_i), K = sizes[-1], by Horner in d over
    nondecreasing sizes: sum_i a_i b_i / d^sizes_i times d^K."""
    total, k = 0, 0
    for size, u, v in zip(sizes, a, b):
        if size > k:
            total *= d ** (size - k)
            k = size
        total += u * v
    return total


def expansion_table(spec: EnsembleSpec, n_rank: int, n_pairs: int,
                    method: str = "closed") -> KernelExpansion:
    """Coefficients <s_lam'>_w for all lam in Y_{2n, N-n}: the table of the
    2n x (N-n) rectangle."""
    return _table(spec, 2 * n_pairs, n_rank - n_pairs, method)


@spec_cache(128)
def _table(spec: EnsembleSpec, rows: int, m: int, method: str) -> KernelExpansion:
    """<s_lam'>_w for all lam in Y_{rows, m}: one table per rectangle for every
    sum that reads it; cached by `spec_cache`.  Every exact kind with a single
    average takes one `walk` of the graded rectangle, each lam one step from
    its parent; the oracle, real-alpha qLUE and Ginibre (whose error it
    raises) go through `schur_average` per lam."""
    parts = _branching(rows, m)[0]
    if method == "closed" and spec.q is None and spec.kind != "ginibre":
        coeffs = walk(parts, m, spec)
    else:
        coeffs = {lam: schur_average(spec, pt.conjugate(lam), m, method) for lam in parts}
    return KernelExpansion(rows, m, MappingProxyType(coeffs), int_form(list(coeffs.values())))


def char_poly_schur(spec: EnsembleSpec, m: int, k: int) -> Poly:
    """<det(x + Z)^k> over M = m variables, a polynomial in x: by the dual
    Cauchy identity (Macdonald I.4) sum_{lam in Y_{k,M}} x^(kM-|lam|)
    s_lam(1^k) <s_lam'>, from the k x M table and one branching pass."""
    parts, s = schur_values(k, m, [1] * k)
    coeffs = [0] * (k * m + 1)
    for lam, v, c in zip(parts, s, _table(spec, k, m, "closed").coeffs.values()):
        coeffs[k * m - sum(lam)] += v * c
    return Poly(coeffs)


def _guarded(route):
    """route(query) as route(query, dps=None) under `guarded`, n (N - n) + 10
    guard digits: each route's sum cancels up to about a digit per degree of
    each point pair on a weight on [0, 1]."""
    @wraps(route)
    def run(query: KernelQuery, dps: int | None = None):
        real = query.spec._real or any(isinstance(v, mpmath.mpf) for v in query.x + query.y)
        return guarded(real, dps, query.guard, lambda: route(query))
    return run


@_guarded
def khat_schur(query: KernelQuery):
    """Khat via the single-sum Schur expansion (Theorem path)."""
    table = expansion_table(query.spec, query.n_rank, query.n_pairs)
    return table.evaluate(query.t)


@_guarded
def khat_double(query: KernelQuery):
    """Khat via the double expansion sum over lam, mu in Y_{n,M} of
    s_lam(x^v) s_mu(y^v) <s_lam' s_mu'>, the pair averages read from
    `pair_cofactors` (one denominator).  On Ginibre the pair averages are
    diagonal and this is the single sum of s_lam(x^v) s_lam(ybar^v)
    <s_lam' sbar_lam'>.  s_lam and s_mu are taken at the `int_form` of each
    point set; the sum runs by Horner in each denominator and divides once."""
    m, n = query.m_size, query.n_pairs
    c, e = pair_cofactors(query.spec, n, m)
    (zx, dx), (zy, dy) = (int_form([-1 / v for v in pts]) for pts in (query.x, query.y))
    parts, sx = schur_values(n, m, zx)
    sy, sizes = schur_values(n, m, zy)[1], [sum(p) for p in parts]
    inner = [_horner_dot(sizes, row, sy, dy) for row in c]
    return over(_horner_dot(sizes, sx, inner, dx), e * (dx * dy) ** (n * m))


@_guarded
def k2_chebyshev(query: KernelQuery):
    """2-point Khat via the Chebyshev form
    sum_{lam1 >= lam2} <s_lam'> s^(-|lam|) U_{lam1-lam2}(w),  s = sqrt(xy),
    w = -(x+y)/(2s), with the coefficients read from the `int_form` (c, e)
    of `expansion_table(spec, N, 1)` in the table's order.  At the
    `int_form`s w = a/b and 1/s = z/d, V_j = U_j(a/b) b^j comes from
    V_(j+1) = 2a V_j - b^2 V_(j-1), and
        Khat = sum_lam c_lam V_j b^(M-j) z^|lam| d^(2M-|lam|) / (e b^M d^(2M)),
    j = lam1 - lam2, by Horner in d over the sizes, divided once.

    lam1 runs to N-1 (= M for n = 1): this is the full rectangle of the
    Schur expansion, without which the equality with khat_schur fails.
    Needs xy > 0; exact mode requires xy to be a perfect rational square.
    """
    if query.n_pairs != 1:
        raise ValueError("k2_chebyshev is the 2-point (n = 1) form")
    x, y = query.x[0], query.y[0]
    xy = x * y
    if xy < 0:
        raise ValueError("the Chebyshev form needs x*y > 0")
    m = query.m_size
    table = expansion_table(query.spec, query.n_rank, 1)
    if isinstance(xy, Fraction):
        s = rational_sqrt(xy)
        if s is None:
            # an exact q-ensemble takes no decimal points (__post_init__)
            hint = "use --method schur" if query.q_exact else "give decimal points"
            raise ValueError(f"xy has no exact square root; {hint}")
    else:
        s = mpmath.sqrt(xy)
    ((a,), b), ((z,), d) = int_form([-(x + y) / (2 * s)]), int_form([recip(s)])
    v = [1, 2 * a]
    for _ in range(m - 1):
        v.append(2 * a * v[-1] - b * b * v[-2])
    vb, zk = [v[j] * b ** (m - j) for j in range(m + 1)], [z ** k for k in range(2 * m + 1)]
    lams, (c, e) = table.coeffs, table.ints
    sizes = [sum(lam) for lam in lams]
    # lam1 - lam2 = 2 lam1 - |lam|
    terms = (vb[2 * lam[0] - k if lam else 0] * zk[k] for lam, k in zip(lams, sizes))
    return over(_horner_dot(sizes, c, terms, d), e * b ** m * d ** (2 * m))


# ----------------------------------------------------------------------------
# Christoffel-Darboux route
# ----------------------------------------------------------------------------

def kernel_cd(spec: EnsembleSpec, n_rank: int, x, y):
    """K_N(x, y) = sum_{j<N} P_j(x) P_j(y) / h_j from the moment data."""
    return _cd_sum(ortho_system(spec, n_rank - 1), x, y)


def _cd_sum(osys: OrthoSystem, x, y):
    """sum_j P_j(x) P_j(y) / h_j over every polynomial of osys, in degree
    order, on `OrthoSystem.ints` at the `int_form` of each point, divided
    once."""
    polys, w, den = osys.ints
    k = len(polys) - 1
    fx, fy = int_form([x]), int_form([y])
    # p_j(a / d) = sum_i p_ji a^i d^(k-i) / d^k: one monomial vector and one
    # denominator d^k for every degree j <= k
    mx, my = ([a ** i * d ** (k - i) for i in range(k + 1)] for (a,), d in (fx, fy))
    total = sum(wj * sum(map(operator.mul, c, mx)) * sum(map(operator.mul, c, my))
                for c, wj in zip(polys, w))
    return over(total, den * (fx[1] * fy[1]) ** k)


@_guarded
def khat_cd(query: KernelQuery):
    """Khat via the determinant of 2-point CD kernels (the oracle route).

    K_N^(n) = det[K_N(x_i, y_j)] / (Delta_n(x) Delta_n(y)), then
    Khat = prod_{j=N-n}^{N-1} h_j / prod_i (x_i y_i)^(N-n) * K_N^(n).
    Multi-point evaluation needs distinct x_i and distinct y_i.
    """
    n = query.n_pairs
    if len(set(query.x)) < n or len(set(query.y)) < n:
        raise ValueError("multi-point CD kernel needs distinct coordinates")
    spec, nr = query.spec, query.n_rank
    osys = ortho_system(spec, nr - 1)
    det = det_exact([[_cd_sum(osys, xi, yj) for yj in query.y] for xi in query.x])
    vand = math.prod(d for i in range(n) for j in range(i + 1, n)
                     for d in (query.x[i] - query.x[j], query.y[i] - query.y[j]))
    scale = (recip((xi * yi) ** (nr - n)) for xi, yi in zip(query.x, query.y))
    pref = math.prod([*osys.norms[nr - n:], *scale])
    return pref * (det * recip(vand))


def hankel_inverse_gen(spec: EnsembleSpec, n_rank: int, x, y):
    """K_N(x,y) as the generating function of the inverse moment Hankel:
    sum_{j,k} x^j y^k [H_N^-1]_{jk}."""
    mom = [moment(spec, p) for p in range(2 * n_rank - 1)]
    h = [[mom[j + k] for k in range(n_rank)] for j in range(n_rank)]
    hinv = mat_inverse_exact(h)
    return sum(x ** j * y ** k * hinv[j][k] for j in range(n_rank) for k in range(n_rank))


# ----------------------------------------------------------------------------
# complex-plane kernels
# ----------------------------------------------------------------------------

def ginibre_kernel(n_rank: int, x, ybar):
    """Closed form Khat_N(x; ybar) = (N-1)! sum_j (x ybar)^(j-N+1)/j!;
    depends on the points only through the product x*ybar."""
    xy = _exactify(x) * _exactify(ybar)
    if not xy:
        raise ValueError("ginibre kernel needs x*ybar != 0")
    total = sum(xy ** (j - n_rank + 1) * Fraction(1, math.factorial(j)) for j in range(n_rank))
    return math.factorial(n_rank - 1) * total


def real_ginibre_kernel(n_rank: int, x, y):
    """Real Ginibre: K_N(x,y) = (x-y) (N-1)! sum_j (xy)^j / j!."""
    x, y = _exactify(x), _exactify(y)
    total = sum((x * y) ** j * Fraction(1, math.factorial(j)) for j in range(n_rank))
    return (x - y) * math.factorial(n_rank - 1) * total


def df_chiral_kernel(n_rank: int, n_pairs: int, xs, alpha, beta, gamma=1):
    """Chiral Dotsenko-Fateev kernel
    K_N^(n)(x) = sum_{lam in Y_{n,M}} s_lam(x^v) <s_lam'>_{JE,gamma}.

    gamma = 1 is the Schur-coefficient regime (<.>_{JE,1} is the JUE
    average: the n x M JUE table at x^v = (-1/x_i)); general gamma would
    need Jack averages and is out of scope beyond the n = 1 product formula.
    """
    if len(xs) != n_pairs:
        raise ValueError("need n points")
    if gamma != 1:
        if n_pairs == 1:
            return df_chiral_closed_n1(n_rank, _exactify(xs[0]), alpha, beta, gamma)
        raise ValueError("df_chiral_kernel supports gamma != 1 only at n = 1")
    table = _table(EnsembleSpec("jue", alpha=alpha, beta=beta), n_pairs, n_rank - n_pairs, "closed")
    return table.evaluate(tuple(-1 / _exactify(v) for v in xs))


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
                         gamma=1):
    """Khat_N^(n)(x; ybar)|_DF = K(x) * K(ybar) (chiral factorization)."""
    return (df_chiral_kernel(n_rank, n_pairs, xs, alpha, beta, gamma)
            * df_chiral_kernel(n_rank, n_pairs, ybars, alpha, beta, gamma))


def df_khat_double(n_rank: int, n_pairs: int, xs, ybars, alpha, beta):
    """DF double expansion at gamma = 1 with pair averages
    <s_lam' sbar_mu'>_DF = <s_lam'>_JUE <s_mu'>_JUE, each JUE factor
    computed by the Andreief oracle (independent of the closed forms)."""
    from .ensembles import schur_avg_oracle
    if len(xs) != n_pairs or len(ybars) != n_pairs:
        raise ValueError("need n x-points and n ybar-points")
    spec = EnsembleSpec("jue", alpha=alpha, beta=beta)
    m = n_rank - n_pairs
    sx = schur_table(n_pairs, m, [-1 / _exactify(v) for v in xs])
    sy = schur_table(n_pairs, m, [-1 / _exactify(v) for v in ybars])
    total = 0
    for lam, s in sx.items():
        for mu, r in sy.items():
            avg = (schur_avg_oracle(spec, pt.conjugate(lam), m)
                   * schur_avg_oracle(spec, pt.conjugate(mu), m))
            total = total + s * r * avg
    return total


def selberg_je_partition(m: int, alpha, beta, gamma):
    """Selberg product for Z_JE = (1/M!) int |Delta|^(2 gamma)
    prod z^a (1-z)^b, normalized so gamma = 1 is the JUE Hankel
    determinant:

        (1/M!) prod_{j=0}^{M-1} G(a+1+gj) G(b+1+gj) G(1+(j+1)g)
                               / [G(a+b+2+(M+j-1)g) G(1+g)] .
    """
    a, b, g = to_mpf(alpha), to_mpf(beta), to_mpf(gamma)
    zje = mpmath.mpf(1) / math.factorial(m)
    for j in range(m):
        zje *= (gamma_real(a + 1 + g * j) * gamma_real(b + 1 + g * j)
                * gamma_real(1 + (j + 1) * g)
                / gamma_real(a + b + 2 + (m + j - 1) * g)
                / gamma_real(1 + g))
    return zje


def df_partition(m: int, alpha, beta, gamma):
    """Dotsenko-Fateev (complex Selberg) partition function: Z_JE^2 times
    the sine product mirroring the Gamma arguments.  Zero sine
    denominators (including the 0/0 cases at integer parameters) raise."""
    zje = selberg_je_partition(m, alpha, beta, gamma)
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
                     distinct=True) -> list[Fraction]:
    """Seeded random rational test points with |numerator|, denominator <= 13."""
    out: list[Fraction] = []
    while len(out) < count:
        v = Fraction(rng.randint(-13, 13), rng.randint(1, 13))
        if nonzero and not v:
            continue
        if distinct and v in out:
            continue
        out.append(v)
    return out
