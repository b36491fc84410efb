"""Unit tests for scalars: QRat arithmetic, determinants, special functions."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkernels.scalars import (Poly, QRat, barnes_g_int, binom,
                                  det_cofactor, det_exact, double_factorial,
                                  frac_str, gamma_real, hp_close, parse_number,
                                  poch, qfactorial_floor, qgamma_real,
                                  qnum_floor, qnum_symmetric, rational_sqrt)

F = Fraction


class TestDetExact:
    def test_identity_1x1(self):
        assert det_exact([[F(1)]]) == 1

    def test_gue_moment_2x2(self):
        # cofactor by hand: m0 m2 - m1^2 with moments (1, 0, 1)
        assert det_exact([[F(1), F(0)], [F(0), F(1)]]) == 1

    def test_2x2_cofactor(self):
        assert det_exact([[F(2), F(-1)], [F(-1), F(2)]]) == 3

    def test_zero_pivot_needs_swap(self):
        m = [[F(0), F(1)], [F(1), F(0)]]
        assert det_exact(m) == -1

    def test_singular(self):
        m = [[F(1), F(2)], [F(2), F(4)]]
        assert det_exact(m) == 0

    def test_mixed_fields_rejected(self):
        # rationals embed everywhere, but QRat/Poly/HPReal cannot mix
        with mpmath.workdps(20):
            with pytest.raises(ValueError):
                det_exact([[mpmath.mpf(1), QRat.const(1)],
                           [QRat.const(1), QRat.const(1)]])
        with pytest.raises(ValueError):
            det_exact([[Poly([F(1)]), QRat.const(1)],
                       [QRat.const(1), QRat.const(1)]])

    def test_agrees_with_cofactor_on_random_4x4(self):
        import random
        rng = random.Random(12)
        for _ in range(50):
            m = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
                 for _ in range(4)]
            assert det_exact(m) == det_cofactor(m)

    def test_qrat_matrix(self):
        u = QRat.u_power
        m = [[u(2), u(0)], [u(0), u(-2)]]
        assert det_exact(m) == QRat.const(0)
        m = [[u(2), u(1)], [u(0), u(-2)]]
        assert det_exact(m) == QRat.const(1) - u(1)

    def test_hpreal_matrix(self):
        with mpmath.workdps(50):
            m = [[mpmath.mpf(2), mpmath.mpf(-1)], [mpmath.mpf(-1), mpmath.mpf(2)]]
            assert hp_close(det_exact(m), F(3))


class TestQRat:
    def test_canonical_zero(self):
        z = QRat.const(0)
        assert not z and z.offset == 0 and z.num == [] and z.den == [F(1)]

    def test_roundtrip_product(self):
        a = qnum_symmetric(5) / qnum_symmetric(2)
        b = qnum_symmetric(2) / qnum_symmetric(5)
        assert a * b == QRat.const(1)

    def test_qnum_examples(self):
        assert qnum_symmetric(1) == QRat.const(1)
        assert qnum_symmetric(2) == QRat.u_power(-1) + QRat.u_power(1)
        assert qnum_floor(3) == 1 + QRat.q_power(1) + QRat.q_power(2)
        assert qnum_symmetric(-3) == -qnum_symmetric(3)

    def test_eval_u(self):
        v = qnum_symmetric(2).eval_u(F(2))
        assert v == F(1, 2) + 2

    def test_subs_u1_matches_integer(self):
        for z in range(1, 7):
            assert qnum_symmetric(z).subs_u1() == z
            assert qnum_floor(z).subs_u1() == z

    def test_pow_negative(self):
        x = qnum_floor(2)
        assert x ** -2 * x ** 2 == QRat.const(1)

    def test_serialization(self):
        d = qnum_symmetric(2).to_json()
        assert d == {"var": "u", "offset": -1, "num": ["1/1", "0/1", "1/1"],
                     "den": ["1/1"]}

    @given(st.fractions(min_value=-5, max_value=5),
           st.fractions(min_value=-5, max_value=5),
           st.integers(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_field_axioms_sample(self, a, b, k):
        x = QRat.const(a) + QRat.u_power(k) * QRat.const(b)
        y = QRat.u_power(-1) + QRat.const(2)
        assert (x + y) - y == x
        if x:
            assert (x / x) == QRat.const(1)
            assert (y / x) * x == y


class TestPoly:
    def test_arith_and_eval(self):
        p = Poly([F(1), F(2), F(1)])
        q = Poly([F(-1), F(1)])
        assert (p * q)(F(3)) == p(F(3)) * q(F(3))
        assert p.derivative() == Poly([F(2), F(2)])

    def test_exact_division(self):
        p = Poly([F(-1), F(0), F(1)])
        q = Poly([F(1), F(1)])
        assert p / q == Poly([F(-1), F(1)])
        with pytest.raises(ValueError):
            Poly([F(1), F(1), F(1)]) / q

    def test_power(self):
        x1 = Poly([F(1), F(1)])
        assert x1 ** 3 == Poly([F(1), F(3), F(3), F(1)])
        with pytest.raises(ValueError):
            x1 ** -1

    def test_poly_det(self):
        x = Poly.x()
        m = [[x, x * x], [Poly.const(1), x]]
        assert det_exact(m) == Poly([])


class TestSpecialFunctions:
    def test_gamma_small_ints(self):
        assert hp_close(gamma_real(1), F(1))
        assert hp_close(gamma_real(5), F(24))

    def test_gamma_half(self):
        with mpmath.workdps(50):
            assert hp_close(gamma_real(mpmath.mpf(1) / 2), mpmath.sqrt(mpmath.pi))

    def test_gamma_pole(self):
        with pytest.raises(ValueError):
            gamma_real(0)
        with pytest.raises(ValueError):
            gamma_real(-3)

    def test_gamma_functional_equation_sweep(self):
        with mpmath.workdps(50):
            tol = mpmath.mpf(10) ** -45
            z = mpmath.mpf("0.1")
            while z < mpmath.mpf("10.2"):
                lhs = gamma_real(z + 1)
                rel = abs(lhs - z * gamma_real(z)) / abs(lhs)
                assert rel < tol, (z, rel)
                z += 1

    def test_qgamma_values(self):
        assert hp_close(qgamma_real(1, F(1, 2)), F(1))
        assert hp_close(qgamma_real(2, F(1, 2)), F(1))
        assert hp_close(qgamma_real(3, F(1, 2)), F(3, 2))

    def test_qgamma_functional_equation(self):
        with mpmath.workdps(50):
            for zs, qs in (("2.7", "0.5"), ("0.4", "0.2"), ("-1.3", "0.7")):
                z, q = mpmath.mpf(zs), mpmath.mpf(qs)
                lhs = qgamma_real(z + 1, q)
                floor_q = (1 - q ** z) / (1 - q)
                assert hp_close(lhs, floor_q * qgamma_real(z, q))

    def test_qgamma_matches_mpmath_qp(self):
        with mpmath.workdps(50):
            q = mpmath.mpf("0.37")
            z = mpmath.mpf("1.8")
            ref = (1 - q) ** (1 - z) * mpmath.qp(q, q) / mpmath.qp(q ** z, q)
            assert hp_close(qgamma_real(z, q), ref)

    def test_qgamma_pole(self):
        with pytest.raises(ValueError):
            qgamma_real(0, F(1, 2))
        with pytest.raises(ValueError):
            qgamma_real(F(1, 2), F(3, 2))

    def test_qgamma_integer_matches_qfactorial(self):
        with mpmath.workdps(50):
            q = mpmath.mpf("0.41")
            u = mpmath.sqrt(q)
            for n in range(1, 6):
                assert hp_close(qgamma_real(n + 1, q),
                                qfactorial_floor(n).eval_u(u))

    def test_barnes_examples(self):
        assert barnes_g_int(1) == 1
        assert barnes_g_int(2) == 1
        assert barnes_g_int(4) == 2
        assert barnes_g_int(5) == 12
        with pytest.raises(ValueError):
            barnes_g_int(0)

    def test_barnes_functional_equation(self):
        import math
        for n in range(1, 9):
            assert barnes_g_int(n + 1) == math.factorial(n - 1) * barnes_g_int(n)

    def test_double_factorial(self):
        assert [double_factorial(n) for n in (-1, 0, 1, 2, 3, 4, 5)] == \
            [1, 1, 1, 2, 3, 8, 15]

    def test_poch(self):
        assert poch(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
        assert poch(5, 0) == 1

    def test_binom_negative(self):
        assert binom(-1, 2) == 1
        assert binom(-2, 3) == -4

    def test_rational_sqrt(self):
        assert rational_sqrt(F(9, 4)) == F(3, 2)
        assert rational_sqrt(F(2)) is None
        assert rational_sqrt(F(-1)) is None

    def test_frac_str(self):
        assert frac_str(F(4)) == "4/1"
        assert frac_str(F(-3, 7)) == "-3/7"


class TestParseNumber:
    def test_examples(self):
        assert parse_number(" 12 ", 20) == 12 and isinstance(parse_number("12", 20), int)
        assert parse_number("-3/6", 20) == F(-1, 2)
        with mpmath.workdps(20):
            assert parse_number("0.5", 20) == mpmath.mpf("0.5")
        for bad in ("1/x", "1/0", "inf", "nan", "", "abc", "1.5/2"):
            with pytest.raises(ValueError):
                parse_number(bad, 20)

    @given(st.one_of(st.text(), st.from_regex(r"\A[-+ ]?[0-9./e_]{0,8}\Z"),
                     st.sampled_from(["inf", "-inf", "nan", "1e400000", "0x1p3"])))
    @settings(max_examples=300, deadline=None)
    def test_int_fraction_finite_mpf_or_value_error(self, s):
        try:
            v = parse_number(s, 20)
        except ValueError:
            return
        assert (type(v) in (int, Fraction)
                or (isinstance(v, mpmath.mpf) and mpmath.isfinite(v)))
