"""Laguerre-Wronskian series: the function f_2n(x) = poly(x) e^(-Mx/2) via
two independent routes (a Wronskian of generalized Laguerre polynomials and
a terminating Schur expansion), its Taylor data b_1, b_2, f_2n(0), and the
Stieltjes-Wigert fermion partition-function identity.
The Schur sides are the averages <det(x + Z)^2n> of `kernels.char_poly_schur`
(LUE(2n) for f_2n, SW for the fermion sum), read from the kernel table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .ensembles import (EnsembleSpec, char_poly_moment_det,
                        char_poly_moment_oracle, hankel_det)
from .kernels import char_poly_schur
from .scalars import Poly, QRat, barnes_g_int, binom, det_exact, qratio
from .symfun import schur_principal


def laguerre_poly(k: int, alpha: int) -> Poly:
    """Generalized Laguerre L_k^(alpha)(x) = sum_i (-1)^i C(k+a, k-i) x^i / i!."""
    if k < 0:
        raise ValueError("laguerre_poly needs k >= 0")
    coeffs = [Fraction((-1) ** i * binom(k + alpha, k - i), math.factorial(i))
              for i in range(k + 1)]
    return Poly(coeffs)


def wronskian(polys: list[Poly]) -> Poly:
    """Wronskian determinant det[d^(i-1) p_j / dx^(i-1)]."""
    if not polys:
        raise ValueError("wronskian needs a nonempty list")
    rows = [list(polys)]
    for _ in range(len(polys) - 1):
        rows.append([p.derivative() for p in rows[-1]])
    return det_exact(rows)


@dataclass
class ExpSeries:
    """poly(x) * e^(rate * x), with exact Taylor coefficients to any order."""

    rate: Fraction
    poly: Poly

    def taylor_coeff(self, k: int) -> Fraction:
        c = Fraction(0)
        for mdeg, pm in enumerate(self.poly.coeffs):
            if pm and mdeg <= k:
                c += pm * self.rate ** (k - mdeg) / math.factorial(k - mdeg)
        return c

    def __eq__(self, other):
        return self.rate == other.rate and self.poly == other.poly


def f2n_wronskian(n: int, m: int) -> ExpSeries:
    """f_2n via the Wronskian of L_M^(2n)(-x), ..., L_{M+2n-1}^(2n)(-x).

    The ascending-order Wronskian carries no extra sign: a (-1)^n
    prefactor paired with descending columns is the same thing, since the
    column reversal contributes (-1)^(n(2n-1)) = (-1)^n.  The ascending
    form is fixed by f_2n(0) > 0 and the Schur-route equality.
    """
    if n < 1 or m < 1:
        raise ValueError("f2n needs n, m >= 1")
    polys = []
    for k in range(m, m + 2 * n):
        p = laguerre_poly(k, 2 * n)
        polys.append(Poly([c * (-1) ** i for i, c in enumerate(p.coeffs)]))
    return ExpSeries(rate=Fraction(-m, 2), poly=wronskian(polys))


def f2n_schur(n: int, m: int) -> ExpSeries:
    """f_2n via the terminating Schur expansion: the polynomial part is

        G(2n+1)/G(M+2n+1) * sum_{lam in Y_{2n,M}} x^(2Mn-|lam|)
            s_lam(1^2n) s_lam'(1^(M+2n)) prod_j Gamma(lam'_j - j + M + 1),

    and s_lam'(1^(M+2n)) prod_j (lam'_j - j + M)! = G(M+1) <s_lam'>_{LUE(2n),M}
    (each row of the hook-content product telescopes), so the sum is
    G(M+1) <det(x + Z)^2n>_{LUE(2n),M}.
    """
    if n < 1 or m < 1:
        raise ValueError("f2n needs n, m >= 1")
    g = Fraction(barnes_g_int(2 * n + 1) * barnes_g_int(m + 1),
                 barnes_g_int(m + 2 * n + 1))
    lue = EnsembleSpec("lue", alpha=2 * n)
    return ExpSeries(Fraction(-m, 2), g * char_poly_schur(lue, m, 2 * n))


def f2n_zero(n: int, m: int) -> Fraction:
    """f_2n(0), by the Schur principal form and the Barnes-G form; the two
    must agree exactly."""
    schur_form = schur_principal((2 * n,) * m, m + 2 * n)
    g_form = Fraction(barnes_g_int(m + 1) * barnes_g_int(4 * n + m + 1)
                      * barnes_g_int(2 * n + 1) ** 2,
                      barnes_g_int(4 * n + 1) * barnes_g_int(2 * n + m + 1) ** 2)
    if schur_form != g_form:
        raise AssertionError(f"f2n(0) forms disagree at n={n}, m={m}")
    return schur_form


def b_coeffs(n: int, m: int, upto: int) -> list[Fraction]:
    """b_1..b_upto with f_2n(x) = f_2n(0) [1 + b_1 x + b_2 x^2 + ...]."""
    series = f2n_schur(n, m)
    c0 = series.taylor_coeff(0)
    return [series.taylor_coeff(k) / c0 for k in range(1, upto + 1)]


def b2_closed(n: int, m: int) -> Fraction:
    """Closed form b_2 = -M(M+4n) / (8(4n+1)(4n-1))."""
    return Fraction(-m * (m + 4 * n), 8 * (4 * n + 1) * (4 * n - 1))


def f2n_confluence_pair(n: int, m: int, x0):
    """Spot check of the confluent diagonal-kernel identity: returns
    (f2n.poly(x0) * G(M+2n+1)/(G(2n+1) G(M+1)),  <det(-x0 - Z)^2n>_{LUE,2n}).
    Both sides are exact rationals and must agree.

    Tracking the monic-to-classical Laguerre conversion gives the G(M+1)
    denominator: P_k = (-1)^k k! L_k^(a), so the Wronskian columns
    contribute prod_{k=M}^{M+2n-1} k! = G(M+2n+1)/G(M+1).  A G(M+2)
    denominator would fail this exact check by G(M+2)/G(M+1).
    """
    x0 = Fraction(x0)
    lhs = (f2n_wronskian(n, m).poly(x0)
           * Fraction(barnes_g_int(m + 2 * n + 1),
                      barnes_g_int(2 * n + 1) * barnes_g_int(m + 1)))
    spec = EnsembleSpec("lue", alpha=2 * n)
    rhs = char_poly_moment_oracle(spec, m, 2 * n, -x0)
    return lhs, rhs


# ----------------------------------------------------------------------------
# Stieltjes-Wigert fermion partition function
# ----------------------------------------------------------------------------

def sw_fermion_partition(m: int, n: int) -> Poly:
    """Character-expansion side of the fermion partition function, as an
    exact polynomial in x over QRat:

        Z_M^SW * sum_{lam in Y_{2n,M}} x^(2nM-|lam|) s_lam(1^2n) <s_lam'>_SW
            = Z_M^SW <det(x + Z)^2n>_SW,

    <s_lam'>_SW = q^(-(3M+1)|lam|/2 + sum_j (-lam'_j^2/2 + j lam'_j)) dim_q(lam'),
    with Z_M^SW the moment Hankel determinant (the q-factorial product
    formula differs by the pure power reported by `sw_zm_ratio`).
    """
    sw = EnsembleSpec("sw")
    return hankel_det(sw, m) * char_poly_schur(sw, m, 2 * n)


def sw_fermion_oracle(m: int, n: int) -> Poly:
    """(1/M!) int Delta^2 prod (x - z_j)^2n w(z_j) dz as a polynomial in x:
    the char-poly Andreief determinant of SW at the variable x."""
    return char_poly_moment_det(EnsembleSpec("sw"), m, 2 * n, Poly([0, 1]))


def sw_fermion_constant(m: int, n: int) -> QRat:
    """The x-independent ratio expansion(x) / oracle(-x); raises if the
    ratio depends on x.

    The character expansion has positive coefficients, so it matches the
    alternating-sign Andreief polynomial for prod (x - z_j)^2n at the
    reflected argument (the spectral parameter sits on the other half
    line); the reflection is checked term by term here.
    """
    expansion = sw_fermion_partition(m, n)
    oracle = sw_fermion_oracle(m, n)
    if expansion.degree() != oracle.degree():
        raise AssertionError("fermion expansion/oracle degree mismatch")
    ratios = []
    for k, (e, o) in enumerate(zip(expansion.coeffs, oracle.coeffs)):
        o = -o if k % 2 else o
        if bool(e) != bool(o):
            raise AssertionError("fermion expansion/oracle support mismatch")
        if e:
            ratios.append(e / o)
    if any(r != ratios[0] for r in ratios[1:]):
        raise AssertionError("fermion expansion/oracle ratio is x-dependent")
    return ratios[0]


def sw_zm_product(m: int) -> QRat:
    """The q-factorial product form of the SW partition function,
    [prod_{j<M} Gamma_q(1+j)] (1-q)^(M(M-1)/2) q^(-M(M^2-1)/6), exact in u:
    Gamma_q(1+j) = prod_{i<=j} (1-q^i)/(1-q), and the M(M-1)/2 factors
    1-q cancel, which leaves one `qratio`."""
    return qratio([i for j in range(1, m) for i in range(1, j + 1)], [],
                  -m * (m * m - 1) // 3)


def sw_zm_ratio(m: int) -> QRat:
    """hankel_det(SW, M) / product form: the normalization gap, a pure
    power of u (u^(-M^3) on every tested size)."""
    return hankel_det(EnsembleSpec("sw"), m) / sw_zm_product(m)
