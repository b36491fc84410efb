"""Chebyshev heat kernel: partial sums of sum_j q^j U_j(xi/2) U_j(eta/2),
the rational closed form, automatic term counts from the geometric tail
bound, and the exact Schur-doubling identity behind the construction.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp, to_fixed

from . import partitions as pt
from .scalars import int_form, over, to_mpf
from .symfun import complete_h_all, schur_values

DEFAULT_TAIL_TOL = Fraction(1, 10**30)


def auto_terms(q) -> int:
    """Term count with tail below tol = DEFAULT_TAIL_TOL: |U_j| <= j+1 on
    [-1,1] bounds the tail of sum q^j (j+1)^2 by C q^J/(1-q)^3, so
    J ~ log(tol (1-q)^3)/log q, taken at the working precision.  More than
    10^6 terms is an error."""
    if not (0 < q < 1):
        raise ValueError("heat kernel needs 0 < q < 1")
    q = to_mpf(q)
    j = (mpmath.log(to_mpf(DEFAULT_TAIL_TOL)) + 3 * mpmath.log(1 - q)) / mpmath.log(q)
    if j > 10**6:
        raise ValueError("heat kernel tail bound needs more than 10^6 terms "
                         "at this q; give the count with --terms")
    return max(1, int(mpmath.ceil(j))) + 5


def heat_kernel_sum(q, xi, eta, terms: int = None):
    """Partial sum sum_{j<terms} q^j U_j(xi/2) U_j(eta/2) via the
    three-term recurrence, run on ints in fixed point: every value is
    scaled by 2^p, p = prec + 20 + bit_length(terms), and the sum is
    rounded once to the working precision.  The guard bits absorb the
    truncations (below 2^-p per shift, grown by the recurrence like a low
    power of j): at least dps - 1 digits are right on the tested grid."""
    q, xi, eta = to_mpf(q), to_mpf(xi), to_mpf(eta)
    if not (0 < q < 1):
        raise ValueError("heat kernel needs 0 < q < 1")
    if not (abs(xi) <= 2 and abs(eta) <= 2):  # NaN has no fixed-point form
        raise ValueError("heat kernel sum needs xi, eta in [-2, 2]")
    if terms is None:
        terms = auto_terms(q)
    if terms < 1:
        raise ValueError("heat kernel needs terms >= 1")
    prec = mpmath.mp.prec
    p = prec + 20 + terms.bit_length()
    qf, xf, ef = (to_fixed(v._mpf_, p) for v in (q, xi, eta))
    one = 1 << p
    ux_prev, ux = one, xf
    ue_prev, ue = one, ef
    total = qj = one
    for _ in range(1, terms):
        qj = qj * qf >> p
        total += (qj * ux >> p) * ue >> p
        ux_prev, ux = ux, (xf * ux >> p) - ux_prev
        ue_prev, ue = ue, (ef * ue >> p) - ue_prev
    return mpmath.mp.make_mpf(from_man_exp(total, -p, prec, "n"))


def heat_kernel_closed(q, xi, eta):
    """(1-q^2) / (1 - q xi eta + q^2 (xi^2 + eta^2 - 2) - q^3 xi eta + q^4)."""
    q, xi, eta = to_mpf(q), to_mpf(xi), to_mpf(eta)
    den = (1 - q * xi * eta + q ** 2 * (xi ** 2 + eta ** 2 - 2)
           - q ** 3 * xi * eta + q ** 4)
    if den == 0:
        raise ZeroDivisionError("heat kernel closed form: zero denominator")
    return (1 - q ** 2) / den


def schur_doubling_check(x, y, q, terms: int, k: int = 0):
    """Exact partial sums of the two expansions

        sum_j q^j s_(k+j,k)(x, 1/x) s_(k+j,k)(y, 1/y)
        sum_j q^j h_j(x, 1/x) h_j(y, 1/y)

    over j < terms; the specialization x_2 = 1/x_1 makes them equal term
    by term for every k.  Returns (schur_form, h_form).  At the `int_form`s
    (w, d) of (x, 1/x), (y, 1/y) and q = a/b, term j is a^j S_j / (b dx dy)^j,
    S_j the product of the values at wx and wy, over (dx dy)^2k more on the
    Schur side: each sum runs on integers by Horner in b dx dy, divided once.
    """
    x, y, q = Fraction(x), Fraction(y), Fraction(q)
    if not x or not y:
        raise ValueError("doubling check needs nonzero x, y")
    (wx, dx), (wy, dy) = int_form([x, 1 / x]), int_form([y, 1 / y])
    (parts, sx), (_, sy) = (schur_values(2, max(k + terms - 1, 0), w) for w in (wx, wy))
    hx, hy = (complete_h_all(terms - 1, w) for w in (wx, wy))
    schur_form, h_form, qj, e = 0, 0, 1, q.denominator * dx * dy
    for j in range(terms):
        i = parts.index(pt.canonical((k + j, k)))
        schur_form = schur_form * e + qj * sx[i] * sy[i]
        h_form = h_form * e + qj * hx[j] * hy[j]
        qj *= q.numerator
    den = e ** max(terms - 1, 0)
    return over(schur_form, den * (dx * dy) ** (2 * k)), over(h_form, den)
