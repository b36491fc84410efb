"""Symmetric-function evaluation: complete homogeneous and Schur
polynomials, principal specializations, q-dimensions and the dual Cauchy
identity.

`schur_table` gives every s_lam of a rectangle in one division-free
branching pass, exact in any scalar field and valid at repeated points; the
rectangle sums read it.  `schur_eval` evaluates one s_lam by the
Jacobi-Trudi determinant of complete homogeneous polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import partitions as pt
from .scalars import QRat, det_exact, int_form, over, qratio


def complete_h_all(kmax: int, z: list) -> list:
    """h_0..h_kmax of the point vector z, one variable at a time."""
    h = [1] + [0] * kmax
    for x in z:
        for k in range(1, kmax + 1):
            h[k] = h[k] + x * h[k - 1]
    return h


def schur_eval(lam, z: list):
    """s_lam(z) by Jacobi-Trudi: det[h_{lam_i - i + j}], 1 <= i,j <= l(lam)."""
    lam = pt.canonical(lam)
    if not lam:
        return 1
    if len(lam) > len(z):
        return 0
    n = len(lam)
    h = complete_h_all(lam[0] + n - 1, z)
    mat = [[(h[lam[i] - (i + 1) + (j + 1)]
             if 0 <= lam[i] - (i + 1) + (j + 1) <= lam[0] + n - 1 else 0)
            for j in range(n)] for i in range(n)]
    return det_exact(mat)


def schur_table(rows: int, cols: int, z: list) -> dict:
    """s_lam(z) for every lam in Y_{rows,cols}, from the `int_form` (w, D) of
    z: s_lam(z) = s_lam(w) / D^|lam| (D = 1 off the rationals)."""
    w, d = int_form(z)
    parts, s = schur_values(rows, cols, w)
    return {p: over(v, d ** sum(p)) for p, v in zip(parts, s)}


def schur_values(rows: int, cols: int, z) -> tuple:
    """(Y_{rows,cols} in `enumerate_bounded` order, the s_lam(z)), adding
    one variable at a time by the branching rule s_lam(z_1..z_k) =
    sum_mu s_mu(z_1..z_{k-1}) z_k^(|lam|-|mu|), mu interlacing lam (Demmel
    and Koev, Math. Comp. 75, 2006).  Division-free: int points give ints."""
    parts, steps = _branching(rows, cols)
    s = [1] + [0] * (len(parts) - 1)
    for x in z:
        for step in steps:
            for k, j in step:
                s[k] = s[k] + x * s[j]
    return parts, s


@lru_cache(maxsize=64)
def _branching(rows: int, cols: int):
    """Y_{rows,cols} and, for rows i = rows..1, the index pairs (nu, nu - e_i).
    s[nu] += x s[nu - e_i] over them, nu in increasing size, sums the mu
    that interlace nu in rows >= i, so one pass over all rows adds x."""
    parts = pt.enumerate_bounded(rows, cols)
    index = {p: k for k, p in enumerate(parts)}
    # nu - e_i by slicing: a row of one box is the last row, and goes
    return tuple(parts), tuple(
        tuple((k, index[p[:i - 1] + (p[i - 1] - 1,) + p[i:] if p[i - 1] > 1 else p[:i - 1]])
              for k, p in enumerate(parts) if len(p) == i or (len(p) > i and p[i - 1] > p[i]))
        for i in range(rows, 0, -1))


def schur_principal(lam, m: int) -> Fraction:
    """s_lam(1^m) by the hook-content product, a polynomial in m: 0 at an
    integer m < l(lam), where the box (m + 1, 1) has content -m."""
    num = den = 1
    for (_, hook, content) in pt.hook_content_data(pt.canonical(lam)):
        num *= m + content
        den *= hook
    return Fraction(num, den)


def qdim(mu, m: int) -> QRat:
    """q-dimension of the U(m) representation mu (0 when l(mu) > m), as one
    `qratio`: the hook-content product prod_boxes [m + c]_q / [h]_q with
    [z]_q = u^(1-z) (1 - q^z)/(1 - q) (Macdonald, I.3 Ex. 1).  It equals
    the Weyl product prod_{j<k} [mu_j - j - mu_k + k]_q / [k - j]_q and
    tends to s_mu(1^m) as q -> 1.  The q averages walk its Weyl ratio box
    by box (`ensembles._row_step`); tests and the benchmark read it."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return QRat.const(0)
    data = pt.hook_content_data(mu)
    up, down = [m + c for _, _, c in data], [h for _, h, _ in data]
    return qratio(up, down, sum(down) - sum(up))


def dual_cauchy_check(t: list, z: list):
    """Both sides of prod_{i,j} (1 + t_i z_j) = sum_lam s_lam(t) s_lam'(z).

    The sum runs over partitions in the len(t) x len(z) rectangle.  Returns
    (lhs, rhs); the caller asserts equality.
    """
    lhs = 1
    for ti in t:
        for zj in z:
            lhs = lhs * (1 + ti * zj)
    st = schur_table(len(t), len(z), t)
    sz = schur_table(len(z), len(t), z)
    rhs = 0
    for lam, s in st.items():
        rhs = rhs + s * sz[pt.conjugate(lam)]
    return lhs, rhs

