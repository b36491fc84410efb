"""Unit tests for symmetric-function evaluation."""

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurkernels import partitions as pt
from schurkernels.kernels import random_rationals
from schurkernels.scalars import QRat, hp_close
from oracles import chebyshev_u_all, qnum_symmetric, schur_bialternant
from schurkernels.symfun import (_branching, complete_h_all, dual_cauchy_check,
                                 qdim, schur_eval, schur_principal, schur_table)

F = Fraction


class TestElementaryComplete:
    def test_k0(self):
        assert complete_h_all(0, [F(2), F(3)]) == [1]

    def test_e2_ones(self):
        # e_2 = s_(1,1)
        assert schur_eval((1, 1), [F(1)] * 3) == 3

    def test_h2_ones(self):
        assert complete_h_all(2, [F(1)] * 2) == [1, 2, 3]


class TestSchurEval:
    def test_empty(self):
        assert schur_eval((), [F(2), F(5)]) == 1

    def test_single_row_is_e1(self):
        z = [F(1, 2), F(3), F(-2)]
        assert schur_eval((1,), z) == sum(z)

    def test_tableau_count(self):
        assert schur_eval((2, 1), [F(1)] * 3) == 8

    def test_too_long_is_zero(self):
        assert schur_eval((1, 1, 1), [F(1), F(2)]) == 0

    def test_repeated_points_fine(self):
        assert schur_eval((2, 2), [F(1), F(1), F(1), F(1)]) == 20

    def test_matches_bialternant_at_distinct_points(self):
        rng = random.Random(5)
        for lam in pt.enumerate_bounded(3, 3):
            z = random_rationals(rng, 3)
            assert schur_eval(lam, z) == schur_bialternant(lam, z)

    def test_symmetry_under_permutations(self):
        rng = random.Random(9)
        z = random_rationals(rng, 4)
        base = schur_eval((3, 1), z)
        for _ in range(20):
            zz = z[:]
            rng.shuffle(zz)
            assert schur_eval((3, 1), zz) == base

    def test_qrat_points(self):
        z = [QRat.u_power(1), QRat.u_power(-1)]
        assert schur_eval((1,), z) == QRat.u_power(1) + QRat.u_power(-1)


RECTANGLES = [(2, 11), (4, 6), (6, 4)]


class TestSchurTable:
    """The one-pass branching evaluator against per-partition Jacobi-Trudi."""

    @pytest.mark.parametrize("rows,cols", RECTANGLES)
    def test_rational_points_with_repeats(self, rows, cols):
        rng = random.Random(rows * 100 + cols)
        for nz in (rows, rows - 1, rows + 1):
            z = random_rationals(rng, nz, nonzero=False, distinct=False)
            z[-1] = z[0]
            table = schur_table(rows, cols, z)
            assert list(table) == pt.enumerate_bounded(rows, cols)
            for lam, v in table.items():
                assert isinstance(v, Fraction) and v == schur_eval(lam, z), lam

    @pytest.mark.parametrize("rows,cols", RECTANGLES)
    def test_qrat_points(self, rows, cols):
        z = [QRat.u_power(k) for k in (1, -2, 3, 1, 0, -1)[:rows]]
        for lam, v in schur_table(rows, cols, z).items():
            assert v == schur_eval(lam, z), lam

    @pytest.mark.parametrize("rows,cols", RECTANGLES)
    def test_mpf_points_at_50_digits(self, rows, cols):
        with mpmath.workdps(50):
            z = [mpmath.mpf(v) for v in ("0.3", "-1.7", "2.25", "0.3", "-0.9", "1.1")[:rows]]
            for lam, v in schur_table(rows, cols, z).items():
                assert hp_close(v, schur_eval(lam, z)), lam

    def test_empty_point_list(self):
        assert schur_table(2, 3, []) == {lam: (1 if not lam else 0)
                                         for lam in pt.enumerate_bounded(2, 3)}


class TestBranchingPairs:
    @pytest.mark.parametrize("rows", range(7))
    def test_pairs_equal_removing_a_box(self, rows):
        """For rows i = rows..1, the pairs (nu, nu - e_i) of every nu whose
        row i has a removable box, in the order of the enumeration."""
        for cols in range(9):
            parts = pt.enumerate_bounded(rows, cols)
            index = {p: k for k, p in enumerate(parts)}
            want = []
            for i in range(rows, 0, -1):
                step = []
                for k, p in enumerate(parts):
                    nu = list(p) + [0] * (rows - len(p))
                    nu[i - 1] -= 1
                    if nu[i - 1] >= 0 and (i == rows or nu[i - 1] >= nu[i]):
                        step.append((k, index[tuple(v for v in nu if v)]))
                want.append(tuple(step))
            got = _branching.__wrapped__(rows, cols)
            assert got == (tuple(parts), tuple(want)), cols


class TestSchurPrincipal:
    def test_single_box(self):
        for m in range(1, 6):
            assert schur_principal((1,), m) == m

    def test_21_at_3(self):
        assert schur_principal((2, 1), 3) == 8

    def test_22_at_4(self):
        assert schur_principal((2, 2), 4) == 20

    def test_matches_eval_on_grid(self):
        for lam in pt.enumerate_bounded(3, 3):
            for m in range(1, 6):
                assert schur_principal(lam, m) == schur_eval(lam, [F(1)] * m)


class TestQDim:
    def test_empty(self):
        assert qdim((), 3) == QRat.const(1)

    def test_single_box_m2(self):
        assert qdim((1,), 2) == QRat.u_power(-1) + QRat.u_power(1)

    def test_single_box_m3_telescopes(self):
        assert qdim((1,), 3) == QRat.u_power(-2) + QRat.const(1) + QRat.u_power(2)

    def test_too_long(self):
        assert qdim((1, 1, 1), 2) == 0

    def test_u1_limit_is_principal(self):
        for mu in pt.enumerate_bounded(3, 3):
            for m in range(len(mu), 5):
                assert qdim(mu, m).eval_u(F(1)) == schur_principal(mu, m)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_hook_content_equals_weyl(self, m):
        """The Weyl product prod_{j<k} [z_jk]_q / [k - j]_q, z_jk = mu_j - j -
        mu_k + k > 0, with [z]_q = u^(1-z) P_z(u), P_z = 1 + u^2 + ... +
        u^(2z-2), cross-multiplied: qdim = u^e num(u) exactly when
        e = sum (k - j - z_jk) and num(u) prod P_(k-j)(u) = prod P_z(u).  Both
        sides have integer coefficients in [0, X) at X = 2^b above their
        values at u = 1, so they are equal when their values at u = X are
        (equal base-X digit strings): one integer identity per mu.  P_z has
        first and last coefficient 1, so the canonical QRat that the Weyl
        product builds has den = [1] and num[0] = num[-1] = 1; checking both
        ends pins the length of num, which QRat equality compares."""
        pairs = [(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)]
        d = [k - j for j, k in pairs]
        b = math.prod(5 + a for a in d).bit_length()  # z_jk <= 5 + k - j
        p = [((1 << 2 * b * a) - 1) // ((1 << 2 * b) - 1) for a in range(5 + m)]
        for mu in pt.enumerate_bounded(m, 5):
            z = [pt.part(mu, j) - j - pt.part(mu, k) + k for j, k in pairs]
            got = qdim(mu, m)
            assert got.den == [1] and got.num[0] == got.num[-1] == 1, mu
            assert min(got.num) >= 0, mu
            assert sum(got.num) * math.prod(d) < 1 << b, mu
            assert got.offset == sum(d) - sum(z), mu
            num = 0
            for c in reversed(got.num):
                num = (num << b) + c
            # the factors common to both sides cancel
            up, down = Counter(z) - Counter(d), Counter(d) - Counter(z)
            assert (num * math.prod(p[a] for a in down.elements())
                    == math.prod(p[a] for a in up.elements())), mu

    @pytest.mark.parametrize("seed", range(4))
    def test_hook_content_equals_weyl_at_m23(self, seed):
        """At m = 23 the QRat Weyl product takes seconds, so both sides are
        read at the integer u = X > dim(mu): there the Weyl product is one
        exact Fraction.  Both are Laurent polynomials with integer
        coefficients in [0, X), so equal values are equal base-X digit
        strings, that is equal polynomials."""
        rng, m = random.Random(seed), 23
        mu = pt.canonical(sorted((rng.randint(0, 3) for _ in range(m)), reverse=True))
        x = F(2 * int(schur_principal(mu, m)) + 2)
        weyl = F(1)
        for j in range(1, m + 1):
            for k in range(j + 1, m + 1):
                weyl *= (qnum_symmetric(pt.part(mu, j) - j - pt.part(mu, k) + k).eval_u(x)
                         / qnum_symmetric(k - j).eval_u(x))
        got = qdim(mu, m)
        assert got.den == [1] and all(0 <= c < x for c in got.num)
        assert got.eval_u(x) == weyl


class TestDualCauchy:
    def test_degenerate(self):
        assert dual_cauchy_check([], [F(1)]) == (1, 1)
        assert dual_cauchy_check([F(1), F(1)], []) == (1, 1)

    def test_small_exact(self):
        lhs, rhs = dual_cauchy_check([F(1), F(1)], [F(1)])
        assert lhs == rhs == 4

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (4, 2)])
    def test_seeded_random_points(self, rows, cols):
        rng = random.Random(11)
        for _ in range(20):
            t = random_rationals(rng, rows, nonzero=False, distinct=False)
            z = random_rationals(rng, cols, nonzero=False, distinct=False)
            lhs, rhs = dual_cauchy_check(t, z)
            assert lhs == rhs


class TestChebyshev:
    def test_u0_u1(self):
        assert chebyshev_u_all(0, F(7)) == [1]
        assert chebyshev_u_all(1, F(7)) == [1, 14]

    def test_u2_at_zero(self):
        assert chebyshev_u_all(2, F(0)) == [1, 0, -1]

    def test_u_at_one(self):
        assert chebyshev_u_all(7, F(1)) == list(range(1, 9))

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            chebyshev_u_all(-1, F(1))

    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5),
           st.fractions(min_value=F(1, 4), max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_two_variable_bridge(self, j, k, x):
        """s_(k+j,k)(x, 1/x) = U_j((x + 1/x)/2): the Schur-Chebyshev map."""
        if x == 0:
            return
        w = (x + 1 / x) / 2
        assert schur_eval((k + j, k), [x, 1 / x]) == chebyshev_u_all(j, w)[j]
