"""Unit tests for scalars: QRat arithmetic, determinants, special functions."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from oracles import (det_cofactor, det_leibniz, qfactorial_floor, qnum_floor,
                     qnum_symmetric, zgcd, zgcd_euclid, zmul)
from schurkernels import scalars
from schurkernels.ensembles import EnsembleSpec
from schurkernels.kernels import KernelQuery, khat_cd, khat_schur
from schurkernels.scalars import (Poly, QRat, _zcancel, _zexquo, _zpack, _zprim,
                                  _zunpack, barnes_g_int, binom, det_exact,
                                  double_factorial, frac_str, gamma_real,
                                  hp_close, int_adjugate, int_form,
                                  mat_inverse_exact, over, parse_number,
                                  poch, qgamma_real, qratio, rational_sqrt,
                                  to_mpf)

F = Fraction


class TestToMpf:
    @given(st.integers(-10 ** 90, 10 ** 90), st.integers(1, 10 ** 90),
           st.sampled_from([15, 30, 50, 77]))
    @settings(max_examples=300, deadline=None)
    def test_fraction_is_rounded_once(self, n, d, dps):
        """A Fraction is its correctly rounded value, not its numerator
        rounded and then divided."""
        with mpmath.workdps(dps):
            want = from_rational(n, d, mpmath.mp.prec, round_nearest)
            assert to_mpf(F(n, d))._mpf_ == want

    @given(st.from_regex(r"\A-?[0-9]{1,45}\.[0-9]{1,45}(e-?[0-9]{1,2})?\Z"),
           st.sampled_from([15, 30, 50, 77]))
    @settings(max_examples=300, deadline=None)
    def test_decimal_rounds_as_mpmath_parses_it(self, s, dps):
        with mpmath.workdps(dps):
            assert to_mpf(parse_number(s)) == mpmath.mpf(s)


class TestDetExact:
    def test_identity_1x1(self):
        assert det_exact([[F(1)]]) == 1

    def test_plain_ints_stay_exact(self):
        from schurkernels.symfun import schur_eval
        d = det_exact([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        assert type(d) is int and d == 4
        s = schur_eval((9, 9, 9), [10**6, 3, 7, 11])
        assert type(s) is int
        assert s == schur_eval((9, 9, 9), [F(10**6), F(3), F(7), F(11)])
        assert s == 228864248542038526632208971940491027027635774064062302289819733412394471
        q = (Poly([1, 2, 1]) / Poly([1, 1])).coeffs
        assert q == [1, 1] and all(isinstance(c, (int, F)) for c in q)
        inv = mat_inverse_exact([[2, 1], [1, 3]])
        assert inv == [[F(3, 5), F(-1, 5)], [F(-1, 5), F(2, 5)]]
        assert all(isinstance(c, (int, F)) for row in inv for c in row)

    def test_mixed_int_fraction_stays_exact(self):
        # Bareiss divided two ints with / at a step k >= 1 and gave a float
        m1 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, F(1, 3)]]
        m2 = [[-1, -2, -3, 0], [-3, 3, 1, 1], [-1, 1, -2, F(3, 7)],
              [0, F(8), -1, F(1, 2)]]
        for m, want in ((m1, F(2, 3)), (m2, F(-233, 14))):
            d = det_exact(m)
            assert type(d) is F and d == want

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
        # rationals embed everywhere, but QRat/Poly/mpf cannot mix
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
            ints = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            assert det_exact(ints) == det_cofactor(ints)
            assert type(det_exact(ints)) is int
            polys = [[Poly([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)])
                      for _ in range(4)] for _ in range(4)]
            assert det_exact(polys) == det_cofactor(polys)

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

    def test_1x1_returns_its_entry_in_every_field(self, monkeypatch):
        """A 1x1 determinant is its entry: no field packs, scales or
        eliminates it."""
        from schurkernels import scalars

        def fail(matrix):
            raise AssertionError("1x1 matrix reached a field elimination")
        monkeypatch.setattr(scalars, "_det_qrat", fail)
        monkeypatch.setattr(scalars, "_det_hpreal", fail)
        with mpmath.workdps(50):
            for x in (1 / (1 - QRat.u_power(3)), mpmath.mpf(2) / 3,
                      Poly([F(1, 2), 3]), F(-5, 7), 4):
                assert det_exact([[x]]) is x


@st.composite
def rational_matrices(draw):
    """An n x n matrix, n <= 5, of ints, of Fractions or of both; about
    half of those with n >= 2 are made singular (last row = c row_0 +
    row_{n-2})."""
    n = draw(st.integers(min_value=1, max_value=5))
    ints = st.integers(min_value=-9, max_value=9)
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    entry = draw(st.sampled_from([ints, fracs, ints | fracs]))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(entry)
        m[-1] = [c * a + b for a, b in zip(m[0], m[-2])]
    return m


class TestRationalElimination:
    @given(rational_matrices())
    @settings(max_examples=200, deadline=None)
    def test_det_matches_leibniz(self, m):
        d = det_exact(m)
        assert d == det_leibniz(m)
        if all(type(x) is int for row in m for x in row):
            assert type(d) is int
        else:
            assert type(d) is F

    @given(rational_matrices())
    @settings(max_examples=200, deadline=None)
    def test_inverse_times_matrix_is_identity(self, m):
        n = len(m)
        if det_leibniz(m) == 0:
            with pytest.raises(ZeroDivisionError, match="^singular matrix$"):
                mat_inverse_exact(m)
            return
        inv = mat_inverse_exact(m)
        assert all(type(x) is F for row in inv for x in row)
        prod = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


    @given(rational_matrices())
    @settings(max_examples=200, deadline=None)
    def test_int_adjugate_is_det_times_inverse(self, m):
        """The fraction-free Gauss-Jordan behind the rational
        `mat_inverse_exact` gives det A with its sign under row swaps, and
        A adj(A) = det(A) I."""
        a = [list(int_form(row)[0]) for row in m]
        n = len(a)
        if det_leibniz(a) == 0:
            with pytest.raises(ZeroDivisionError, match="^singular matrix$"):
                int_adjugate(a)
            return
        det, adj = int_adjugate(a)
        assert det == det_leibniz(a) and all(type(x) is int for row in adj for x in row)
        assert [[sum(a[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[det * (i == j) for j in range(n)] for i in range(n)]

    def test_int_adjugate_sign_after_pivot_swaps(self):
        assert int_adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert int_adjugate([[0, 2, 1], [1, 0, 3], [4, 1, 0]]) == (
            25, [[-3, 1, 6], [12, -4, 1], [1, 8, -2]])


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
            assert qnum_symmetric(z).eval_u(F(1)) == z
            assert qnum_floor(z).eval_u(F(1)) == z

    def test_pow_negative(self):
        x = qnum_floor(2)
        assert x ** -2 * x ** 2 == QRat.const(1)

    def test_serialization(self):
        d = qnum_symmetric(2).to_json()
        assert d == {"var": "u", "offset": -1, "num": ["1/1", "0/1", "1/1"],
                     "den": ["1/1"]}

    def test_serialization_is_over_the_monic_denominator(self):
        # den[-1] = 1 writes the integers as they are; any other den[-1]
        # divides every coefficient by it
        for x, num, den in (
                (QRat(2, [3, -1], [2, 0, 1]), ["3/1", "-1/1"], ["2/1", "0/1", "1/1"]),
                (QRat(0, [1, 1], [1, 3]), ["1/3", "1/3"], ["1/3", "1/1"])):
            assert x.to_json() == {"var": "u", "offset": x.offset, "num": num, "den": den}

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


class TestQRatio:
    def test_products_of_q_numbers(self):
        # (1-q^3)/(1-q) = |3|_q; [5]_q [4]_q / ([2]_q [1]_q) in symmetric form
        assert qratio([3], [1]) == qnum_floor(3)
        assert qratio([5, 4], [2, 1], 3 - 9) == (qnum_symmetric(5) * qnum_symmetric(4)
                                               / qnum_symmetric(2))
        assert qratio([], []) == QRat.const(1)
        assert qratio([2, 3], [3, 2], 4) == QRat.u_power(4)
        assert qratio(range(1, 6), [], -2) == QRat.u_power(-2) * math.prod(
            1 - QRat.q_power(a) for a in range(1, 6))

    def test_q_factorials(self):
        for n in range(7):
            assert qratio(range(1, n + 1), [1] * n) == qfactorial_floor(n)

    @pytest.mark.parametrize("ups, downs", [([3], [2]), ([1], [2]), ([], [1]),
                                            ([4, 6], [5])])
    def test_inexact_quotient_raises(self, ups, downs):
        with pytest.raises(ValueError, match="not divisible"):
            qratio(ups, downs)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def qrats(draw):
    """A QRat from Fraction coefficient lists: a negative or small offset, up
    to three numerator terms (zero included) and a nonzero denominator of up
    to three terms."""
    num = draw(st.lists(SMALL, max_size=3))
    den = draw(st.lists(SMALL, min_size=1, max_size=3).filter(any))
    return QRat(draw(st.integers(-4, 2)), num, den)


class TestIntegerLaurentCore:
    """QRat keeps integer coefficient lists; det_exact takes its determinant
    over Z[u] on packed big integers."""

    def test_int_form_of_qrats(self):
        """QRats (ints and Fractions among them) come out as Laurent
        polynomials over the lcm in Z[u] of their denominators, and `over`
        gives the values back; Laurent polynomials come out over 1."""
        u = QRat.u_power
        values = [u(-3) / (2 - 2 * u(1)), u(2) / (1 - u(2)), F(1, 2), QRat.const(0), 1 + u(1)]
        nums, d = int_form(values)
        # 2 (u^2 - 1), not the product 4 (u - 1) (u^2 - 1)
        assert d == 2 * (u(2) - 1)
        assert all(isinstance(x, QRat) and x.den == [1] for x in nums)
        assert [over(x, d) for x in nums] == values
        laurent = [u(-2) * (1 + u(3)), 3, F(5), QRat.const(0)]
        assert int_form(laurent) == (tuple(laurent), 1)

    @given(st.lists(qrats(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_int_form_over_gives_the_values_back(self, values):
        nums, d = int_form(values)
        assert all(x.den == [1] for x in nums)
        assert tuple(over(x, d) for x in nums) == tuple(values)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(qrats(), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_det_matches_cofactor(self, m):
        assert det_exact(m) == det_cofactor(m)

    @given(qrats(), qrats(),
           st.fractions(min_value=F(-3), max_value=F(3), max_denominator=5))
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_matches_evaluation(self, x, y, u):
        try:
            xu, yu = x.eval_u(u), y.eval_u(u)
        except ZeroDivisionError:  # a pole of x or y, or u = 0 with offset < 0
            return
        assert (x + y).eval_u(u) == xu + yu
        assert (x * y).eval_u(u) == xu * yu
        if yu:
            assert (x / y).eval_u(u) == xu / yu

    @given(qrats())
    @settings(max_examples=60, deadline=None)
    def test_canonical_form(self, x):
        assert all(isinstance(c, int) for c in x.num + x.den)
        assert x.den[-1] > 0 and math.gcd(*x.num, *x.den) == 1
        if x:
            assert x.num[0] and x.den[0] and zgcd_euclid(x.num, x.den) == [1]

    def test_fraction_and_integer_coefficients_agree(self):
        a = QRat(-2, [F(1, 2), F(0), F(-2, 3)], [F(3, 4), F(1, 6)])
        b = QRat(-2, [6, 0, -8], [9, 2])
        assert a == b
        assert (a.offset, a.num, a.den) == (-2, [6, 0, -8], [9, 2])
        assert a.to_json() == {"var": "u", "offset": -2, "num": ["3/1", "0/1", "-4/1"],
                               "den": ["9/2", "1/1"]}

    def test_gcd_fallback(self):
        # a = 3 (1 + u^2)(-21 + 10u - 22u^2 ... ) and b = 6 (1 + u^2)(15u - 16);
        # at xi = 2^8 the integer gcd of a(xi), b(xi) reads back as
        # (1 + u^2)(u - 17), which divides neither, so the next point decides
        a = [-63, -33, 39, -99, 102, -66]
        b = [-96, 90, -96, 90]
        pa, pb = _zprim(a), _zprim(b)
        candidate = _zunpack(math.gcd(_zpack(pa, 1), _zpack(pb, 1)), 1)
        assert candidate == [-17, 1, -17, 1]
        assert _zexquo(pa, candidate) is None
        assert zgcd(a, b) == [1, 0, 1]

    def test_cancel_fallback(self):
        # the pair of test_gcd_fallback: the product cancels (1 + u^2) found
        # at the second point, then takes out the content 3 and the sign
        a = [-63, -33, 39, -99, 102, -66]
        b = [-96, 90, -96, 90]
        x = QRat(0, a, [1]) * QRat(0, [1], b)
        assert (x.offset, x.num, x.den) == (0, [-21, -11, 34, -22], [-32, 30])

    @given(*[st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda c: c[-1])] * 2,
           *[st.lists(st.tuples(st.integers(1, 6), st.integers(0, 24)),
                      min_size=i, max_size=3) for i in (0, 0, 1)])
    @settings(max_examples=100, deadline=None)
    def test_cancel_takes_out_the_gcd_of_power_of_two_factors(self, a, b, fa, fb, fg):
        """_zcancel(a g, b g), where a, b and g have factors u^j - 2^k, leaves
        a g and b g over their primitive gcd by the primitive remainder
        sequence.  The values of such factors at the first point, 2^(8w),
        share powers of two, which there can read back as a false gcd."""
        def times(c, factors):
            for j, k in factors:
                c = zmul(c, [-(2 ** k)] + [0] * (j - 1) + [1])
            return c
        ag, bg = times(times(a, fa), fg), times(times(b, fb), fg)
        gcd = zgcd_euclid(ag, bg)
        qa, qb = _zcancel(ag, bg)
        assert zmul(qa, gcd) == ag and zmul(qb, gcd) == bg

    def test_sw_cd_at_a_power_of_two_takes_no_euclid_step(self, monkeypatch):
        """SW (14,1) at y = 1/4: the cd route cancels gcds whose factors have
        powers of two as values at 2^(8w), and it gives the Schur route's
        value with no remainder step of the Euclid fallback."""
        steps = []
        divmod_ = scalars._pdivmod
        monkeypatch.setattr(scalars, "_pdivmod", lambda a, b: steps.append(1) or divmod_(a, b))
        query = KernelQuery(EnsembleSpec("sw"), 14, 1, (F(3, 7),), (F(1, 4),))
        assert khat_cd(query) == khat_schur(query)
        assert steps == []

    @pytest.mark.parametrize("n", [5, 8, 12, 13])
    def test_det_commutes_with_evaluation(self, n):
        # evaluation at a rational u is a ring map, so det and evaluation
        # commute; n = 12 and 13 lie on either side of the size at which
        # det_exact changes its integer determinant
        u = QRat.u_power
        m = [[QRat.const(0)] * n for _ in range(n)]
        for i in range(n):
            # offsets -1 to 2: every nonzero entry of a row i = 2 mod 3
            # has a positive offset, its zero entries have offset 0
            m[i][i] = u(i % 3 - 1) * (1 + u(1))
            m[i][(i + 1) % n] = u(i % 3) / (i + 2)
            m[i][(3 * i + 2) % n] += u(i % 3) / (1 + u(2))
        singular = m[:-1] + [[x * (1 - u(1)) for x in m[1]]]
        # monomial entries, as in every Stieltjes-Wigert moment matrix, take
        # Bareiss below 12 rows too (evaluating them at 13 rows takes seconds)
        mono = [[u(-(i + j + 1) ** 2) * (1 + i * j % 3) for j in range(n)] for i in range(n)]
        for mat in [m, singular] + [mono] * (n < 12):
            d = det_exact(mat)
            for v in (F(2, 3), F(-5, 7), F(3, 2)):
                assert d.eval_u(v) == det_exact([[x.eval_u(v) for x in row] for row in mat])
        assert det_exact(singular) == 0 and det_exact(m) != 0

    def test_monomial_matrix_takes_bareiss(self, monkeypatch):
        """Bareiss multiplies and divides packed monomials (small multiples
        of powers of two) faster than the Laplace expansion, at every size."""
        from schurkernels import scalars
        monkeypatch.setattr(scalars, "_laplace", None)
        u = QRat.u_power
        m = [[u(-(i + j + 1) ** 2) * (1 + i * j % 3) for j in range(5)] for i in range(5)]
        assert det_exact(m).eval_u(F(2, 3)) == det_exact([[x.eval_u(F(2, 3)) for x in row]
                                                         for row in m])

    def test_exact_quotient(self):
        assert _zexquo([-1, 0, 1], [1, 1]) == [-1, 1]
        assert _zexquo([1, 1, 1], [1, 1]) is None
        assert _zexquo([2, 2], [4, 4]) is None  # 1/2 is not in Z[u]

    def test_det_clears_row_denominators(self):
        u = QRat.u_power
        one_minus_u = 1 - u(1)
        m = [[1 / one_minus_u, u(-3)], [QRat.const(F(1, 2)), 1 / (1 + u(2))]]
        assert det_exact(m) == det_cofactor(m)


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
        x = Poly([0, 1])
        m = [[x, x * x], [Poly([1]), x]]
        assert det_exact(m) == Poly([])

    def test_poly_det_with_an_int_block(self):
        """An int block of a Poly matrix stays exact past the first
        elimination step (it used to divide two ints with / and fail)."""
        m = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, Poly([0, 1])]]
        assert det_exact(m) == Poly([0, 6])

    def test_mixed_int_fraction_poly_matches_leibniz(self):
        """Rational entries with Polys in the last column: the rational block
        is eliminated past step 0 before a Poly meets it."""
        import random
        rng = random.Random(17)
        scalars = (lambda: rng.randint(-4, 4),
                   lambda: F(rng.randint(-4, 4), rng.randint(1, 4)))
        for n in (2, 3, 4, 5):
            for trial in range(10):
                block = scalars[:1] if trial % 2 else scalars  # ints only, or mixed
                m = [[rng.choice(block)() for _ in range(n - 1)]
                     + [Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])]
                     for _ in range(n)]
                assert det_exact(m) == det_leibniz(m)


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
        """Pins the convention Gamma_q(z) = (1-q)^(1-z) (q;q)_inf / (q^z;q)_inf;
        qgamma_real calls mpmath.qgamma, so this checks no independent
        product.  The functional equation and the q-factorial tests are the
        independent checks."""
        with mpmath.workdps(50):
            q = mpmath.mpf("0.37")
            z = mpmath.mpf("1.8")
            ref = (1 - q) ** (1 - z) * mpmath.qp(q, q) / mpmath.qp(q ** z, q)
            assert hp_close(qgamma_real(z, q), ref)

    def test_qgamma_pinned_values(self):
        with mpmath.workdps(50):
            mpf = mpmath.mpf
            for z, q, want in (
                    (mpf("2.5"), mpf("0.9"), "1.3039396133920590516368060241416798595040495478823"),
                    (mpf("-3.5"), F(1, 2), "0.0027010469412646921043478577626970310950726277642536"),
                    (7, F(1, 2), "18.774261474609375"),
                    (mpf("-0.5"), F(1, 3), "-1.3467738519614828072737283054648377031870866972386")):
                assert mpmath.nstr(qgamma_real(z, q), 50) == want

    def test_qgamma_no_convergence_is_value_error(self):
        with mpmath.workdps(50):
            with pytest.raises(ValueError, match="converge"):
                qgamma_real(mpmath.mpf("0.3"), mpmath.mpf("0.999"))

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
        assert parse_number(" 12 ") == 12 and isinstance(parse_number("12"), int)
        assert parse_number("-3/6") == F(-1, 2)
        assert parse_number("0.5") == F(1, 2) and parse_number("-1.5e-3") == F(-3, 2000)
        for bad in ("1/x", "1/0", "inf", "nan", "", "abc", "1.5/2"):
            with pytest.raises(ValueError):
                parse_number(bad)
        with mpmath.workdps(20):
            v20 = parse_number("0.1")
        with mpmath.workdps(50):
            assert parse_number("0.1") == v20 == F(1, 10)  # exact at every precision

    def test_exponent_past_the_int_digit_limit_raises(self):
        """A decimal whose exponent would build an int wider than Python's
        int-string digit limit raises at once instead of building it."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the int-string digit limit is switched off")
        assert parse_number(f"1e{limit - 1}") == 10 ** (limit - 1)
        for s in ("1e4000000", "-2.5e-4000000", f"1e{limit}"):
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                parse_number(s)

    @given(st.one_of(st.text(), st.from_regex(r"\A[-+ ]?[0-9./e_]{0,8}\Z"),
                     st.sampled_from(["inf", "-inf", "nan", "1e400000", "0x1p3"])))
    @settings(max_examples=300, deadline=None)
    def test_int_fraction_finite_mpf_or_value_error(self, s):
        try:
            with mpmath.workdps(20):
                v = parse_number(s)
        except ValueError:
            return
        assert (type(v) in (int, Fraction)
                or (isinstance(v, mpmath.mpf) and mpmath.isfinite(v)))
