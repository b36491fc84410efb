"""Unit tests for the Chebyshev heat kernel."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import schur_doubling_fractions

from schurkernels.heat_kernel import (auto_terms, heat_kernel_closed,
                                      heat_kernel_sum, schur_doubling_check)
from schurkernels.scalars import hp_close, to_mpf

F = Fraction


class TestClosedForm:
    def test_small_q_limit(self):
        with mpmath.workdps(50):
            v = heat_kernel_closed("1e-30", "1.5", "0.5")
            assert abs(v - 1) < mpmath.mpf("1e-29")

    def test_diagonal_zero(self):
        with mpmath.workdps(50):
            q = mpmath.mpf("0.5")
            assert hp_close(heat_kernel_closed(q, 0, 0), 1 / (1 - q ** 2))

    def test_spec_value(self):
        assert hp_close(heat_kernel_closed("0.5", 1, -1), F(4, 9))

    def test_symmetry(self):
        with mpmath.workdps(50):
            a = heat_kernel_closed("0.37", "1.2", "-0.4")
            b = heat_kernel_closed("0.37", "-0.4", "1.2")
            assert a == b

    def test_zero_denominator(self):
        # q -> 1, xi = eta = 2 collapses the denominator
        with pytest.raises(ZeroDivisionError):
            heat_kernel_closed(mpmath.mpf(1) - mpmath.mpf("1e-60"), 2, 2)


class TestPartialSum:
    def test_one_term(self):
        assert heat_kernel_sum("0.5", "1.3", "0.2", terms=1) == 1

    def test_geometric_at_origin(self):
        with mpmath.workdps(50):
            q = mpmath.mpf("0.5")
            s = heat_kernel_sum(q, 0, 0)
            assert hp_close(s, 1 / (1 - q ** 2), tol=F(1, 10 ** 25))

    def test_edge_values(self):
        # U_j(1) = j+1, so the sum at xi = eta = 2 is sum q^j (j+1)^2
        with mpmath.workdps(50):
            q = mpmath.mpf("0.3")
            terms = 40
            s = heat_kernel_sum(q, 2, 2, terms=terms)
            direct = sum(q ** j * (j + 1) ** 2 for j in range(terms))
            assert hp_close(s, direct)

    def test_tail_bound_grid(self):
        with mpmath.workdps(50):
            tol = mpmath.mpf(10) ** -25
            for qs in ("0.2", "0.5", "0.8"):
                q = mpmath.mpf(qs)
                for xi in (-2, -1, 0, 1, 2):
                    for eta in (-2, -1, 0, 1, 2):
                        s = heat_kernel_sum(q, xi, eta)
                        c = heat_kernel_closed(q, xi, eta)
                        assert abs(s - c) <= tol

    @pytest.mark.parametrize("dps, digits", [(50, 49), (30, 29)])
    def test_correct_digits(self, dps, digits):
        # reference: the same mpf inputs and term count, summed at 150 dps
        points = ("-2", "-1.9", "-1.5", "-1", "0", "0.37", "0.5", "1", "2")
        worst = mpmath.inf
        for qs in ("0.2", "0.5", "0.8", "0.95"):
            with mpmath.workdps(dps):
                q = to_mpf(qs)
                terms = auto_terms(q)
                zs = [to_mpf(z) for z in points]
                sums = {(xi, eta): heat_kernel_sum(q, xi, eta)
                        for xi in zs for eta in zs}
            with mpmath.workdps(150):
                u = {}
                for z in zs:
                    us = [mpmath.mpf(1), z]
                    while len(us) < terms:
                        us.append(z * us[-1] - us[-2])
                    u[z] = us[:terms]
                qpow = [q ** j for j in range(terms)]
                for (xi, eta), s in sums.items():
                    ref = mpmath.fdot([a * b for a, b in zip(qpow, u[xi])], u[eta])
                    err = abs(s - ref) / ref
                    worst = min(worst, -mpmath.log10(err) if err else mpmath.inf)
        assert worst >= digits

    def test_auto_terms_scales_with_q(self):
        assert auto_terms(F(1, 10)) < auto_terms(F(1, 2)) < auto_terms(F(9, 10))

    def test_bad_q(self):
        with pytest.raises(ValueError):
            heat_kernel_sum("1.5", 0, 0)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            heat_kernel_sum("0.5", "2.5", 0)
        with pytest.raises(ValueError):
            heat_kernel_sum("0.5", 0, mpmath.nan)


class TestSchurDoubling:
    def test_j1(self):
        assert schur_doubling_check(F(2), F(3), F(1, 2), 1) == (1, 1)

    def test_unit_points(self):
        # at x = y = 1 the j-th term is (j+1)^2 q^j in both forms
        q = F(1, 3)
        sf, hf = schur_doubling_check(F(1), F(1), q, 6)
        direct = sum(q ** j * (j + 1) ** 2 for j in range(6))
        assert sf == hf == direct

    @given(st.fractions(min_value=F(-3), max_value=F(3)),
           st.fractions(min_value=F(-3), max_value=F(3)),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_equality_and_k_independence(self, x, y, k):
        if not x or not y:
            return
        q = F(2, 7)
        base = schur_doubling_check(x, y, q, 8)
        assert base[0] == base[1]
        shifted = schur_doubling_check(x, y, q, 8, k=k)
        assert shifted == base

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            schur_doubling_check(F(0), F(1), F(1, 2), 3)

    def test_integer_sums_equal_the_fraction_sums(self):
        """Both sides, summed by Horner on integers and divided once, equal
        the term-by-term Fraction sums at seeded points, q and k, including
        q of either sign and the empty sum."""
        rng = random.Random(32)
        for _ in range(40):
            x, y = (F(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 40))
                    for _ in range(2))
            q = F(rng.randint(-9, 9), rng.randint(1, 12))
            terms, k = rng.randint(0, 12), rng.randint(0, 4)
            got = schur_doubling_check(x, y, q, terms, k)
            assert got == schur_doubling_fractions(x, y, q, terms, k)
            assert all(type(v) is F for v in got)
