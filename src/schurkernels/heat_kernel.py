"""Chebyshev heat kernel: partial sums of sum_j q^j U_j(xi/2) U_j(eta/2),
the rational closed form, automatic term counts from the geometric tail
bound, and the exact Schur-doubling identity behind the construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .scalars import DEFAULT_DPS, to_mpf
from .symfun import complete_h_all, schur_eval

DEFAULT_TAIL_TOL = Fraction(1, 10**30)


def auto_terms(q, tol=DEFAULT_TAIL_TOL) -> int:
    """Term count with tail below tol: |U_j| <= j+1 on [-1,1] bounds the
    tail of sum q^j (j+1)^2 by C q^J/(1-q)^3, so J ~ log(tol (1-q)^3)/log q."""
    if not (0 < q < 1):
        raise ValueError("heat kernel needs 0 < q < 1")
    qf = float(q)
    target = float(tol) * (1 - qf) ** 3
    j = max(1, math.ceil(math.log(target) / math.log(qf)))
    return j + 5


def heat_kernel_sum(q, xi, eta, terms: int = None, dps: int = DEFAULT_DPS):
    """Partial sum sum_{j<terms} q^j U_j(xi/2) U_j(eta/2) via the
    three-term recurrence."""
    with mpmath.workdps(dps):
        q, xi, eta = to_mpf(q), to_mpf(xi), to_mpf(eta)
        if not (0 < q < 1):
            raise ValueError("heat kernel needs 0 < q < 1")
        if abs(xi) > 2 or abs(eta) > 2:
            raise ValueError("heat kernel sum needs xi, eta in [-2, 2]")
        if terms is None:
            terms = auto_terms(q)
        if terms < 1:
            raise ValueError("heat kernel needs terms >= 1")
        ux_prev, ux = mpmath.mpf(1), xi
        ue_prev, ue = mpmath.mpf(1), eta
        total = mpmath.mpf(1)
        qj = mpmath.mpf(1)
        for _ in range(1, terms):
            qj *= q
            total += qj * ux * ue
            ux_prev, ux = ux, xi * ux - ux_prev
            ue_prev, ue = ue, eta * ue - ue_prev
        return total


def heat_kernel_closed(q, xi, eta, dps: int = DEFAULT_DPS):
    """(1-q^2) / (1 - q xi eta + q^2 (xi^2 + eta^2 - 2) - q^3 xi eta + q^4)."""
    with mpmath.workdps(dps):
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
    by term for every k.  Returns (schur_form, h_form).
    """
    x, y, q = Fraction(x), Fraction(y), Fraction(q)
    if not x or not y:
        raise ValueError("doubling check needs nonzero x, y")
    zx, zy = [x, 1 / x], [y, 1 / y]
    hx = complete_h_all(terms - 1, zx)
    hy = complete_h_all(terms - 1, zy)
    schur_form = Fraction(0)
    h_form = Fraction(0)
    qj = Fraction(1)
    for j in range(terms):
        schur_form += qj * schur_eval((k + j, k), zx) * schur_eval((k + j, k), zy)
        h_form += qj * hx[j] * hy[j]
        qj *= q
    return schur_form, h_form
