"""Fisher-Hartwig Toeplitz matrices: exact inverses, the closed-form inverse
from the Duduchava-Roch factorization, the Duduchava-Roch identity itself,
and the kernel generating function with its circular-ensemble oracle.

Symbols are pure Fisher-Hartwig weights (1-z)^gamma (1-1/z)^delta with
gamma, delta nonnegative integers (the exact regime; z_0 = 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .scalars import binom, det_exact, mat_inverse_exact, poch


def fh_coeff(gamma: int, delta: int, k: int) -> int:
    """Laurent coefficient of z^k in (1-z)^gamma (1-1/z)^delta:
    (-1)^k C(gamma+delta, delta+k), 0 outside -delta <= k <= gamma."""
    c = binom(gamma + delta, delta + k)
    return -c if k % 2 else c


def toeplitz_matrix(gamma: int, delta: int, m: int) -> list[list[int]]:
    """T_M with entries c_{j-k} of the Fisher-Hartwig symbol."""
    return [[fh_coeff(gamma, delta, j - k) for k in range(m)] for j in range(m)]


@lru_cache(maxsize=128)
def toeplitz_det(gamma: int, delta: int, m: int) -> Fraction:
    """det T_M = the circular-ensemble partition function (Heine); cached,
    bounded."""
    return Fraction(det_exact(toeplitz_matrix(gamma, delta, m)))


def toeplitz_inverse_exact(gamma: int, delta: int, m: int):
    """Exact inverse of T_M by fraction-free Gauss-Jordan on its int rows."""
    return mat_inverse_exact(toeplitz_matrix(gamma, delta, m))


def toeplitz_inverse_closed(gamma: int, delta: int, m: int):
    """Closed-form inverse from the Duduchava-Roch factorization.

    T_M(w) = C^-1 D_delta^-1 L D_{gamma+delta} U D_gamma^-1 with L, U the
    (banded, triangular) Toeplitz matrices of (1-z)^gamma and (1-1/z)^delta
    and D_z = diag Gamma(z+j)/(Gamma(j) Gamma(z+1)); inverting termwise and
    collapsing the constants gives, 1-based,

        [T_M^-1]_{jk} = Gamma(g+j) Gamma(d+k) / (Gamma(j) Gamma(k))
            * sum_{r=max(j,k)}^{M} Gamma(r)/Gamma(g+d+r)
              C(g+r-k-1, r-k) C(d+r-j-1, r-j) .

    (A variant sometimes quoted with an extra (-1)^(j+k) sign, an r-sum
    stopping at M-1 and a bare 1/gamma factor fails already at
    gamma = delta = 1, M = 2; this form is validated against the exact
    inverse on the full test grid.)  The r-sum runs on integers over the one
    denominator (g+d+M-1)!, and each entry is one Fraction.
    """
    if gamma < 0 or delta < 0:
        raise ValueError("closed inverse needs gamma, delta >= 0")
    gd = gamma + delta  # Gamma(r)/Gamma(g+d+r) = weight[r] / den
    den = math.prod(range(1, gd + m))
    weight = [math.prod(range(1, r)) * math.prod(range(gd + r, gd + m)) for r in range(m + 1)]
    return [[Fraction(poch(j, gamma) * poch(k, delta) * sum(
        weight[r] * binom(gamma + r - k - 1, r - k) * binom(delta + r - j - 1, r - j)
        for r in range(max(j, k), m + 1)), den) for k in range(1, m + 1)]
        for j in range(1, m + 1)]


def duduchava_roch_check(gamma: int, delta: int, m: int) -> bool:
    """Verify T(w_g) M_{g+d} T(w~_d) = C M_d T(w_g w~_d) M_g on the top-left
    M x M blocks, C = Gamma(1+g)Gamma(1+d)/Gamma(1+g+d), with
    (M_z)_jj = Gamma(z+j)/(Gamma(j) Gamma(z+1)) = C(z+j-1, j-1), 1-based.

    T(w_g) is lower banded and T(w~_d) upper banded, so the product index
    runs over r <= min(j,k) (binom is 0 off the bands) and the M x M
    truncation is exact.  Both sides are taken times 1/C = C(g+d, g): integers.
    """
    dsum, dg, dd = ([binom(z + j - 1, j - 1) for j in range(1, m + 1)]
                    for z in (gamma + delta, gamma, delta))
    inv_c = binom(gamma + delta, gamma)
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            lhs = sum((-1) ** (j + k) * binom(gamma, j - r) * dsum[r - 1] * binom(delta, k - r)
                      for r in range(1, min(j, k) + 1))
            if lhs * inv_c != dd[j - 1] * fh_coeff(gamma, delta, j - k) * dg[k - 1]:
                return False
    return True


def fh_kernel_generating(gamma: int, delta: int, n_rank: int, x, ybar):
    """K_N(x, ybar)|_FH = sum_{j,k=0}^{N-1} x^(N-j-1) ybar^(N-k-1)
    [T_N^-1]_{jk} (0-based indexing)."""
    x, ybar = Fraction(x), Fraction(ybar)
    tinv = toeplitz_inverse_exact(gamma, delta, n_rank)
    return sum((x ** (n_rank - j - 1) * ybar ** (n_rank - k - 1) * tinv[j][k]
                for j in range(n_rank) for k in range(n_rank)), Fraction(0))


def fh_pair_elementary_avg(gamma: int, delta: int, a: int, b: int, m: int):
    """<e_a conj(e_b)> in the Fisher-Hartwig circular ensemble of m
    variables, by the Toeplitz-minor Andreief oracle:

        det[c_{(mu_k+m-k) - (lam_j+m-j)}] / det[c_{j-k}]

    with lam = (1^a), mu = (1^b) (Fourier moments of the symbol reduce the
    circle integrals to Toeplitz minors); the denominator is `toeplitz_det`.
    """
    if a > m or b > m:
        return Fraction(0)
    aexp, bexp = ([(j <= c) + m - j for j in range(1, m + 1)] for c in (a, b))
    num = det_exact([[fh_coeff(gamma, delta, bk - aj) for bk in bexp] for aj in aexp])
    return num / toeplitz_det(gamma, delta, m)


def fh_inverse_via_elementary_oracle(gamma: int, delta: int, n_rank: int):
    """[T_N^-1]_{jk} = (-1)^(j+k) (Z_{N-1}/Z_N) <e_k conj(e_j)>|_{M=N-1},
    0-based; the independent circular-ensemble route to the inverse.
    (The row index of T^-1 pairs with the anti-holomorphic insertion under
    this module's Fourier convention c_m = [z^m] w(z).)"""
    m = n_rank - 1
    zr = toeplitz_det(gamma, delta, m) / toeplitz_det(gamma, delta, n_rank)
    return [[(-1) ** (j + k) * zr * fh_pair_elementary_avg(gamma, delta, k, j, m)
             for k in range(n_rank)] for j in range(n_rank)]
