"""Unit tests for the Fisher-Hartwig Toeplitz module."""

from fractions import Fraction

import pytest
from oracles import toeplitz_inverse_closed_fractions

from schurkernels import toeplitz_fh
from schurkernels.toeplitz_fh import (duduchava_roch_check, fh_coeff,
                                      fh_inverse_via_elementary_oracle,
                                      fh_kernel_generating,
                                      fh_pair_elementary_avg, toeplitz_det,
                                      toeplitz_inverse_closed,
                                      toeplitz_inverse_exact, toeplitz_matrix)

F = Fraction


class TestSymbolCoefficients:
    def test_trivial_symbol(self):
        assert fh_coeff(0, 0, 0) == 1
        assert fh_coeff(0, 0, 1) == 0
        assert fh_coeff(0, 0, -1) == 0

    def test_gamma_delta_one(self):
        assert fh_coeff(1, 1, 0) == 2
        assert fh_coeff(1, 1, 1) == -1
        assert fh_coeff(1, 1, -1) == -1

    def test_gamma2(self):
        assert [fh_coeff(2, 0, k) for k in (0, 1, 2, 3, -1)] == [1, -2, 1, 0, 0]

    def test_convolution_factorization(self):
        from schurkernels.scalars import binom
        for g in range(4):
            for d in range(4):
                for k in range(-d - 1, g + 2):
                    conv = sum(F((-1) ** i * binom(g, i))
                               * F((-1) ** (i - k) * binom(d, i - k))
                               for i in range(g + 1) if 0 <= i - k <= d)
                    assert conv == fh_coeff(g, d, k)


class TestInverse:
    def test_identity_case(self):
        assert toeplitz_inverse_exact(0, 0, 3) == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_2x2_example(self):
        assert toeplitz_matrix(1, 1, 2) == [[F(2), F(-1)], [F(-1), F(2)]]
        assert toeplitz_inverse_exact(1, 1, 2) == [
            [F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]]

    def test_lower_bidiagonal(self):
        inv = toeplitz_inverse_exact(1, 0, 3)
        t = toeplitz_matrix(1, 0, 3)
        n = 3
        prod = [[sum(t[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_closed_equals_exact(self, g, d):
        for m in range(1, 7):
            assert toeplitz_inverse_closed(g, d, m) == toeplitz_inverse_exact(g, d, m)

    def test_closed_times_matrix_is_identity(self):
        for (g, d, m) in ((1, 1, 4), (2, 1, 4), (3, 3, 5)):
            t = toeplitz_matrix(g, d, m)
            inv = toeplitz_inverse_closed(g, d, m)
            prod = [[sum(t[i][k] * inv[k][j] for k in range(m)) for j in range(m)]
                    for i in range(m)]
            expected = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
            assert prod == expected

    @pytest.mark.parametrize("g", range(4))
    @pytest.mark.parametrize("d", range(4))
    def test_integer_sums_equal_the_fraction_sums(self, g, d):
        """The sums over the one denominator (g+d+M-1)! equal the term-by-term
        Fraction sums, entry by entry, and every entry is a Fraction."""
        for m in range(0, 9):
            inv = toeplitz_inverse_closed(g, d, m)
            assert inv == toeplitz_inverse_closed_fractions(g, d, m)
            assert all(type(v) is F for row in inv for v in row)

    def test_closed_handles_gamma_zero_column(self):
        # outside the documented domain but consistent with the exact inverse
        assert toeplitz_inverse_closed(0, 2, 4) == toeplitz_inverse_exact(0, 2, 4)


class TestDuduchavaRoch:
    def test_trivial(self):
        assert duduchava_roch_check(0, 0, 4)

    @pytest.mark.parametrize("g", range(4))
    @pytest.mark.parametrize("d", range(4))
    def test_grid(self, g, d):
        for m in range(1, 7):
            assert duduchava_roch_check(g, d, m)

    def test_a_perturbed_symbol_fails(self, monkeypatch):
        """The comparison on integers can still fail: one symbol coefficient
        off by one breaks the identity on every block that reads it."""
        exact = toeplitz_fh.fh_coeff
        monkeypatch.setattr(toeplitz_fh, "fh_coeff",
                            lambda g, d, k: exact(g, d, k) + (k == 1))
        for g, d in ((1, 1), (2, 3), (3, 0)):
            assert not duduchava_roch_check(g, d, 4)

    def test_a_perturbed_diagonal_fails(self, monkeypatch):
        """One binomial of the diagonal factors M_z off by one fails too."""
        exact = toeplitz_fh.binom
        monkeypatch.setattr(toeplitz_fh, "binom",
                            lambda n, k: exact(n, k) + (n == 6 and k == 3))
        assert duduchava_roch_check(2, 1, 3)  # no entry reads C(6, 3) yet
        assert not duduchava_roch_check(2, 1, 4)  # (M_(g+d))_44 = C(6, 3)


class TestGeneratingFunction:
    def test_identity_symbol(self):
        x, y = F(2), F(3)
        assert fh_kernel_generating(0, 0, 3, x, y) == sum((x * y) ** j for j in range(3))

    def test_n1(self):
        assert fh_kernel_generating(1, 1, 1, F(5), F(7)) == F(1, 2)  # 1/c_0

    def test_polynomial_degree_bound(self):
        # Khat is a polynomial of total degree <= 2(N-1) in (x, y): check by
        # evaluating the x-degree at fixed y via finite differences
        n = 3
        ys = F(3, 2)
        vals = [fh_kernel_generating(2, 1, n, F(k), ys) for k in range(2 * n + 2)]
        # (N-1)-th difference of a degree-(N-1) polynomial is constant
        for _ in range(n - 1):
            vals = [b - a for a, b in zip(vals, vals[1:])]
        assert len(set(vals[:3])) == 1

    def test_elementary_average_example(self):
        # <e_1 ebar_0> at M=1, gamma=delta=1: c_{-1}/c_0 = -1/2
        assert fh_pair_elementary_avg(1, 1, 1, 0, 1) == F(-1, 2)

    @pytest.mark.parametrize("g,d", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_inverse_from_elementary_oracle(self, g, d):
        for nr in range(1, 5):
            assert fh_inverse_via_elementary_oracle(g, d, nr) \
                == toeplitz_inverse_exact(g, d, nr)

    def test_det_is_partition_function(self):
        # Heine: det T_M equals the circular-ensemble partition function;
        # check the first few against direct expansion for gamma=delta=1
        assert toeplitz_det(1, 1, 0) == 1
        assert toeplitz_det(1, 1, 1) == 2
        assert toeplitz_det(1, 1, 2) == 3
        assert toeplitz_det(1, 1, 3) == 4
