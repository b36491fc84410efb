"""Unit tests for the kernel representations and their mutual equalities."""

import random
from fractions import Fraction

import mpmath
import pytest

from schurkernels.ensembles import EnsembleSpec, hankel_det
from schurkernels.kernels import (KernelQuery, df_chiral_closed_n1,
                                  df_chiral_kernel, df_khat_double,
                                  df_kernel_factorized, df_partition,
                                  expansion_table, ginibre_kernel,
                                  ginibre_khat_schur, hankel_inverse_gen,
                                  k2_chebyshev, kernel_cd, kernel_cd_formula,
                                  khat_cd, khat_double, khat_schur,
                                  random_rationals, real_ginibre_kernel,
                                  selberg_je_partition)
from schurkernels.scalars import QRat, hp_close

F = Fraction
GUE = EnsembleSpec("gue")
LUE0 = EnsembleSpec("lue", alpha=0)


class TestKernelQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelQuery(GUE, 2, 2, (F(1), F(2)), (F(3), F(4)))
        with pytest.raises(ValueError):
            KernelQuery(GUE, 3, 1, (F(0),), (F(1),))
        with pytest.raises(ValueError):
            KernelQuery(GUE, 3, 2, (F(1),), (F(2), F(3)))

    def test_t_vector(self):
        q = KernelQuery(GUE, 3, 1, (F(2),), (F(1, 3),))
        assert q.t == (F(-1, 2), F(-3))
        assert q.m_size == 2


class TestExpansionTable:
    def test_rectangle_and_empty_coeff(self):
        table = expansion_table(LUE0, 4, 1)
        assert (table.rows, table.cols) == (2, 3)
        assert table.coeffs[()] == 1
        assert len(table.coeffs) == 10  # C(5,2)

    def test_positive_coefficients_lue_jue(self):
        for spec in (LUE0, EnsembleSpec("jue", alpha=1, beta=2)):
            table = expansion_table(spec, 5, 2)
            assert all(c > 0 for c in table.coeffs.values())

    def test_closed_equals_oracle_source(self):
        t1 = expansion_table(LUE0, 4, 2)
        t2 = expansion_table(LUE0, 4, 2, method="oracle")
        assert t1.coeffs == t2.coeffs


class TestSchurExpansion:
    def test_spec_example(self):
        q = KernelQuery(LUE0, 2, 1, (F(1),), (F(1),))
        assert khat_schur(q) == 1

    def test_m_zero_rectangle_is_trivial(self):
        # N = n + 1 gives M = 1; the smallest admissible rectangle
        q = KernelQuery(LUE0, 2, 1, (F(3),), (F(5),))
        val = khat_schur(q)
        assert val == khat_cd(q)

    def test_sw_kernel_exact(self):
        spec = EnsembleSpec("sw")
        q = KernelQuery(spec, 3, 1, (F(2),), (F(1, 2),))
        a = khat_schur(q)
        assert isinstance(a, QRat)
        assert a == khat_cd(q)
        assert a == khat_double(q)

    def test_qlue_kernel_exact(self):
        spec = EnsembleSpec("qlue", alpha=1)
        q = KernelQuery(spec, 3, 1, (F(3),), (F(2),))
        assert khat_schur(q) == khat_cd(q)


class TestFourWayEquality:
    @pytest.mark.parametrize("spec", [GUE, LUE0, EnsembleSpec("lue", alpha=2),
                                      EnsembleSpec("jue", alpha=1, beta=1)])
    def test_seeded_points(self, spec):
        rng = random.Random(23)
        for n in (1, 2):
            for nr in range(n + 1, 6):
                pts = random_rationals(rng, 2 * n)
                q = KernelQuery(spec, nr, n, tuple(pts[:n]), tuple(pts[n:]))
                a = khat_schur(q)
                assert khat_double(q) == a
                assert khat_cd(q) == a

    def test_chebyshev_square_points(self):
        rng = random.Random(29)
        for spec in (GUE, LUE0):
            for nr in (2, 3, 4, 5):
                x = random_rationals(rng, 1)[0]
                y = x * F(rng.randint(1, 5), rng.randint(1, 5)) ** 2
                q = KernelQuery(spec, nr, 1, (x,), (y,))
                assert k2_chebyshev(q) == khat_schur(q)

    def test_chebyshev_equal_points(self):
        # x = y makes U_k(-1) = (-1)^k (k+1)
        q = KernelQuery(LUE0, 4, 1, (F(5, 3),), (F(5, 3),))
        assert k2_chebyshev(q) == khat_schur(q)

    def test_chebyshev_rejects_nonsquare(self):
        q = KernelQuery(LUE0, 3, 1, (F(2),), (F(1),))
        with pytest.raises(ValueError):
            k2_chebyshev(q)

    def test_chebyshev_needs_n1(self):
        q = KernelQuery(LUE0, 4, 2, (F(1), F(2)), (F(3), F(4)))
        with pytest.raises(ValueError):
            k2_chebyshev(q)


class TestChristoffelDarboux:
    def test_n1_value(self):
        assert kernel_cd(LUE0, 1, F(2), F(3)) == 1  # 1/h_0 = 1/m_0

    def test_lue_n2_closed(self):
        x, y = F(2), F(5)
        assert kernel_cd(LUE0, 2, x, y) == 1 + (x - 1) * (y - 1)

    def test_formula_form_matches_sum(self):
        rng = random.Random(31)
        for spec in (GUE, LUE0):
            for nr in (1, 2, 3, 4):
                x, y = random_rationals(rng, 2)
                assert kernel_cd_formula(spec, nr, x, y) == kernel_cd(spec, nr, x, y)

    def test_formula_form_in_the_q_field(self):
        sw = EnsembleSpec("sw")
        assert kernel_cd_formula(sw, 3, F(2), F(5)) == kernel_cd(sw, 3, F(2), F(5))

    def test_coincident_multipoint_rejected(self):
        q = KernelQuery(LUE0, 4, 2, (F(1), F(1)), (F(2), F(3)))
        with pytest.raises(ValueError):
            khat_cd(q)


class TestHankelInverseGen:
    def test_n1(self):
        assert hankel_inverse_gen(LUE0, 1, F(0), F(0)) == 1

    def test_matches_cd(self):
        rng = random.Random(37)
        for spec in (GUE, LUE0, EnsembleSpec("jue", alpha=1, beta=1)):
            for nr in range(1, 6):
                x, y = random_rationals(rng, 2, nonzero=False)
                assert hankel_inverse_gen(spec, nr, x, y) == kernel_cd(spec, nr, x, y)


class TestGinibre:
    def test_n1_closed(self):
        assert ginibre_kernel(1, F(7), F(3)) == 1

    def test_n2_at_unit_product(self):
        assert ginibre_kernel(2, F(1), F(1)) == 2

    def test_expansion_matches_closed(self):
        for nr in range(1, 6):
            x, y = F(3, 2), F(-2, 5)
            assert ginibre_khat_schur(nr, 1, (x,), (y,)) == ginibre_kernel(nr, x, y)

    def test_real_ginibre(self):
        assert real_ginibre_kernel(1, F(5), F(2)) == 3
        assert real_ginibre_kernel(2, F(2), F(1)) == 3
        assert real_ginibre_kernel(3, F(2), F(3)) == -real_ginibre_kernel(3, F(3), F(2))

    def test_generic_double_route_sees_the_delta(self):
        # the full double sum over (lam, mu) collapses onto the diagonal
        spec = EnsembleSpec("ginibre")
        q = KernelQuery(spec, 4, 1, (F(3, 2),), (F(-2, 5),))
        assert khat_double(q) == ginibre_khat_schur(4, 1, (F(3, 2),), (F(-2, 5),))


class TestDotsenkoFateev:
    def test_k0_term(self):
        # at N = 1 only the k = 0 term C(N-1,0) = 1 survives, for any params
        assert df_chiral_closed_n1(1, F(3), 2, 5, F(7, 3)) == 1

    def test_chiral_schur_equals_closed_gamma1(self):
        for nr in (2, 3, 4):
            for (a, b) in ((0, 0), (1, 2)):
                z = F(7, 4)
                assert df_chiral_kernel(nr, 1, (z,), a, b, 1) \
                    == df_chiral_closed_n1(nr, z, a, b, 1)

    def test_factorized_equals_double(self):
        for nr in (2, 3, 4):
            f = df_kernel_factorized(nr, 1, (F(2),), (F(3, 2),), 1, 1, 1)
            d = df_khat_double(nr, 1, (F(2),), (F(3, 2),), 1, 1)
            assert f == d

    def test_general_gamma_needs_n1(self):
        with pytest.raises(ValueError):
            df_chiral_kernel(4, 2, (F(1), F(2)), 0, 0, F(1, 2))

    def test_selberg_matches_hankel(self):
        for m in (1, 2, 3):
            zje = selberg_je_partition(m, 1, 2, 1)
            assert hp_close(zje, F(hankel_det(EnsembleSpec("jue", alpha=1, beta=2), m)))

    def test_df_partition_finite_generic(self):
        with mpmath.workdps(50):
            z = df_partition(2, mpmath.mpf("0.3"), mpmath.mpf("0.35"),
                             mpmath.mpf("0.45"))
            assert mpmath.isfinite(z)

    def test_df_partition_pole_raises(self):
        with pytest.raises(ValueError):
            df_partition(1, 0, 0, 1)

    def test_df_partition_m1_limit_exists(self):
        """Symmetric regularization of the 0/0 at gamma=1, alpha=beta=0:
        the limit is finite (it tends to 0 linearly)."""
        with mpmath.workdps(50):
            vals = [df_partition(1, eps, eps, 1 - eps)
                    for eps in (mpmath.mpf("1e-6"), mpmath.mpf("1e-7"))]
            assert all(mpmath.isfinite(v) for v in vals)
            assert abs(vals[1]) < abs(vals[0]) < mpmath.mpf("1e-4")


class TestRealParameterKernels:
    def test_three_routes_agree_at_50_digits(self):
        with mpmath.workdps(50):
            spec = EnsembleSpec("lue", alpha=mpmath.mpf("0.5"))
            q = KernelQuery(spec, 3, 1, (F(2),), (F(8),))
            a, b, c = khat_schur(q), khat_double(q), khat_cd(q)
            ch = k2_chebyshev(q)
            assert hp_close(a, b) and hp_close(a, c) and hp_close(a, ch)

    def test_qlue_real_alpha_routes_agree(self):
        with mpmath.workdps(50):
            spec = EnsembleSpec("qlue", alpha=mpmath.mpf("1.5"),
                                q=mpmath.mpf("0.5"))
            q = KernelQuery(spec, 3, 1, (F(2),), (F(3),))
            assert hp_close(khat_schur(q), khat_cd(q))


class TestSymmetry:
    def test_n1_swap(self):
        q = KernelQuery(LUE0, 3, 1, (F(2),), (F(5, 3),))
        qs = KernelQuery(LUE0, 3, 1, (F(5, 3),), (F(2),))
        assert khat_schur(q) == khat_schur(qs)

    def test_random_shuffles(self):
        rng = random.Random(41)
        for spec in (LUE0, EnsembleSpec("gue")):
            pts = random_rationals(rng, 4)
            q = KernelQuery(spec, 5, 2, tuple(pts[:2]), tuple(pts[2:]))
            table = expansion_table(spec, 5, 2)
            base = khat_schur(q)
            shuffler = random.Random(1)
            for _ in range(10):
                perm = list(q.t)
                shuffler.shuffle(perm)
                assert table.evaluate(tuple(perm)) == base
