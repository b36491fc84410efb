"""Unit tests for the Laguerre-Wronskian series and the SW fermion identity."""

from fractions import Fraction

import pytest

from schurkernels.painleve import (ExpSeries, b2_closed, b_coeffs,
                                   f2n_confluence_pair, f2n_schur,
                                   f2n_wronskian, f2n_zero, laguerre_poly,
                                   sw_fermion_constant, sw_fermion_oracle,
                                   sw_fermion_partition, sw_zm_product,
                                   sw_zm_ratio, wronskian)
from schurkernels.scalars import Poly, QRat

F = Fraction


class TestLaguerre:
    def test_l0(self):
        assert laguerre_poly(0, 5) == Poly([F(1)])

    def test_l1_l2(self):
        assert laguerre_poly(1, 0) == Poly([F(1), F(-1)])
        assert laguerre_poly(2, 0) == Poly([F(1), F(-2), F(1, 2)])

    def test_l1_alpha2(self):
        assert laguerre_poly(1, 2) == Poly([F(3), F(-1)])


class TestWronskian:
    def test_single(self):
        p = Poly([F(1), F(2), F(3)])
        assert wronskian([p]) == p

    def test_one_x(self):
        assert wronskian([Poly([F(1)]), Poly([F(0), F(1)])]) == Poly([F(1)])

    def test_2x2_cofactor(self):
        p1 = Poly([c * (-1) ** i for i, c in enumerate(laguerre_poly(1, 2).coeffs)])
        p2 = Poly([c * (-1) ** i for i, c in enumerate(laguerre_poly(2, 2).coeffs)])
        direct = p1 * p2.derivative() - p1.derivative() * p2
        assert wronskian([p1, p2]) == direct

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wronskian([])


class TestExpSeries:
    def test_taylor(self):
        s = ExpSeries(rate=F(-1, 2), poly=Poly([F(2), F(1)]))
        # (2 + x) e^(-x/2): c0 = 2, c1 = 1 - 1 = 0, c2 = 1/4 - 1/2 = -1/4
        assert s.taylor_coeff(0) == 2
        assert s.taylor_coeff(1) == 0
        assert s.taylor_coeff(2) == F(-1, 4)


class TestF2n:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 2)])
    def test_routes_agree(self, n, m):
        assert f2n_wronskian(n, m) == f2n_schur(n, m)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2)])
    def test_degree(self, n, m):
        assert f2n_wronskian(n, m).poly.degree() == 2 * n * m

    def test_zero_matches_series(self):
        for (n, m) in ((1, 1), (1, 2), (2, 2)):
            assert f2n_schur(n, m).taylor_coeff(0) == f2n_zero(n, m)

    def test_zero_examples(self):
        assert f2n_zero(1, 1) == 6
        assert f2n_zero(1, 2) == 20

    def test_zero_forms_on_grid(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3, 4):
                f2n_zero(n, m)  # raises if the two forms disagree

    def test_b_coeffs(self):
        b1, b2 = b_coeffs(1, 2, 2)
        assert b1 == 0
        assert b2 == F(-1, 10)
        assert b_coeffs(2, 3, 2)[1] == F(-11, 168) == b2_closed(2, 3)

    def test_b1_vanishes_broadly(self):
        for (n, m) in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
            assert b_coeffs(n, m, 1)[0] == 0

    def test_confluence(self):
        lhs, rhs = f2n_confluence_pair(1, 2, 3)
        assert lhs == rhs

    def test_bad_input(self):
        with pytest.raises(ValueError):
            f2n_schur(0, 2)


class TestSwFermion:
    def test_oracle_m1_n1(self):
        # x^2 m0 - 2x m1 + m2 with SW moments
        p = sw_fermion_oracle(1, 1)
        assert p.coeffs == [QRat.u_power(-9), -2 * QRat.u_power(-4), QRat.u_power(-1)]

    @pytest.mark.parametrize("m, pinned", [
        (2, [(-34, [1, 0, -1]), (-29, [-2, 0, 0, 0, 2]),
             (-26, [1, 0, 0, 0, 0, 0, 2, 0, -3]), (-17, [-2, 0, 0, 0, 2]),
             (-10, [1, 0, -1])]),
        (3, [(-83, [1, 0, -2, 0, 0, 0, 2, 0, -1]),
             (-78, [-2, 0, 2, 0, 2, 0, 0, 0, -2, 0, -2, 0, 2]),
             (-75, [1, 0, -1, 0, 0, 0, 2, 0, -3, 0, -2, 0, 0, 0, 4, 0, 2, 0, -3]),
             (-66, [-2, 0, 0, 0, 4, 0, 0, 0, 0, 0, -4, 0, 4, 0, 0, 0, -6, 0, 4]),
             (-59, [1, 0, -1, 0, 0, 0, 2, 0, -3, 0, -2, 0, 0, 0, 4, 0, 2, 0, -3]),
             (-46, [-2, 0, 2, 0, 2, 0, 0, 0, -2, 0, -2, 0, 2]),
             (-35, [1, 0, -2, 0, 0, 0, 2, 0, -1])]),
    ])
    def test_oracle_pinned_n1(self, m, pinned):
        # coefficient of x^k is u^offset times an integer polynomial in u
        p = sw_fermion_oracle(m, 1)
        assert p.coeffs == [QRat(offset, num) for offset, num in pinned]

    def test_reduces_to_hankel_at_n0(self):
        from schurkernels.ensembles import EnsembleSpec, hankel_det
        for m in (1, 2):
            p = sw_fermion_oracle(m, 0)
            e = sw_fermion_partition(m, 0)
            z = hankel_det(EnsembleSpec("sw"), m)
            assert p == Poly([z]) and e == Poly([z])

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_constant_is_one(self, m):
        assert sw_fermion_constant(m, 1) == QRat.const(1)

    def test_zm_ratio_is_pure_power(self):
        for m in (1, 2, 3):
            r = sw_zm_ratio(m)
            assert r == QRat.u_power(-m ** 3)

    def test_zm_product_m1(self):
        assert sw_zm_product(1) == QRat.const(1)
