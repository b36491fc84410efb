"""Unit tests for the kernel representations and their mutual equalities."""

import random
from fractions import Fraction

import mpmath
import pytest

from oracles import (ginibre_khat_schur, kernel_cd_formula, monic_polys,
                     schur_avg_gue_blocks, schur_avg_jue_tilde_principal,
                     schur_avg_lue_tilde_complement, schur_avg_qlue_hook_content,
                     schur_avg_row_products, schur_avg_sw_hook_content)
from schurkernels import partitions as pt
from schurkernels.ensembles import (EnsembleSpec, char_poly_moment_oracle,
                                    hankel_det, ortho_system, pair_cofactors,
                                    schur_average, schur_avg_oracle)
from schurkernels.kernels import (KernelQuery, _cd_sum, _table, char_poly_schur,
                                  df_chiral_closed_n1,
                                  df_chiral_kernel, df_khat_double,
                                  df_kernel_factorized, df_partition,
                                  expansion_table, ginibre_kernel,
                                  hankel_inverse_gen,
                                  k2_chebyshev, kernel_cd,
                                  khat_cd, khat_double, khat_schur,
                                  random_rationals, real_ginibre_kernel,
                                  selberg_je_partition)
from schurkernels.scalars import QRat, hp_close, recip, to_mpf
from schurkernels.symfun import schur_eval

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

    @pytest.mark.parametrize("x, y, key", [((0.5,), (F(1),), "x"),
                                           ((F(1, 2),), (2.0,), "y"),
                                           ((F(1), F(2)), (F(3), 4.0), "y")])
    def test_float_points_rejected(self, x, y, key):
        with pytest.raises(ValueError, match=f"^{key} points must be ints, Fractions or mpfs$"):
            KernelQuery(GUE, 3, len(x), x, y)

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


WALK_SPECS = ([EnsembleSpec("lue", alpha=a) for a in (0, 1, 2, F(1, 2), F(7, 10))]
              + [EnsembleSpec("jue", alpha=a, beta=b)
                 for a, b in ((0, 0), (1, 1), (0, 2), (F(7, 10), F(13, 10)))]
              + [GUE, EnsembleSpec("sw"), *(EnsembleSpec("qlue", alpha=a) for a in (0, 1, 2))])


def _product_form(spec, mu, m):
    """<s_mu> by the per-partition product form of `oracles`, not the walk."""
    if spec.kind == "gue":
        return schur_avg_gue_blocks(mu, m)
    if spec.kind == "sw":
        return schur_avg_sw_hook_content(mu, m)
    if spec.kind == "qlue":
        return schur_avg_qlue_hook_content(mu, m, spec.alpha)
    if spec.kind == "jue_tilde":
        return schur_avg_jue_tilde_principal(mu, m, spec.alpha, spec.beta)
    if spec.kind == "lue_tilde":
        return schur_avg_lue_tilde_complement(mu, m, spec.alpha_tilde)
    return schur_avg_row_products(mu, m, spec.alpha, spec.beta)


# the inverse kinds: (kind, parameters); jue_tilde takes m = N - n per table
TILDE_PARAMS = [("lue_tilde", {"alpha_tilde": 60}), ("lue_tilde", {"alpha_tilde": F(121, 2)}),
                ("jue_tilde", {"alpha": 1, "beta": 60}),
                ("jue_tilde", {"alpha": F(-1, 3), "beta": F(119, 2)})]


def _tilde(kind, params, m):
    return EnsembleSpec(kind, **params, **({"m": m} if kind == "jue_tilde" else {}))


def _tilde_id(v):
    return v if isinstance(v, str) else "-".join(map(str, v.values()))


def _walked_table_calls(monkeypatch, spec, rows, m):
    """(size, calls): the size of the Y(rows, m) table that the uncached
    builder makes, and its calls of `schur_average` (a table cached by an
    earlier test would make none)."""
    from schurkernels import ensembles, kernels
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return schur_average(*args, **kwargs)

    monkeypatch.setattr(ensembles, "schur_average", counted)
    monkeypatch.setattr(kernels, "schur_average", counted)
    return len(kernels._table.__wrapped__(spec, rows, m, "closed").coeffs), calls


def _per_lam(spec, nr, n):
    return {lam: _product_form(spec, pt.conjugate(lam), nr - n)
            for lam in pt.enumerate_bounded(2 * n, nr - n)}


class TestTableWalk:
    """The LUE/JUE, JUE-tilde/LUE-tilde, SW and integer-alpha qLUE tables,
    built coefficient by coefficient from the parent mu - e_r, and the GUE
    table, from the parent mu minus a domino, equal the per-partition
    product forms of `oracles` (hook-content dimension times row products;
    the principal-specialization ratio and the rectangle complement of the
    tilde kinds; one hook-content `qratio`; the GUE parity blocks)."""

    def test_gue_table_makes_no_per_partition_average(self, monkeypatch):
        assert _walked_table_calls(monkeypatch, GUE, 2, 23) == (300, [])

    @pytest.mark.parametrize("kind", ["jue_tilde", "lue_tilde"])
    def test_tilde_table_makes_no_per_partition_average(self, monkeypatch, kind):
        spec = _tilde(*TILDE_PARAMS[0 if kind == "lue_tilde" else 2], 22)
        assert _walked_table_calls(monkeypatch, spec, 4, 22) == (14950, [])

    @pytest.mark.parametrize("kind,params", TILDE_PARAMS, ids=_tilde_id)
    def test_tilde_tables_equal_the_product_forms(self, kind, params):
        """The inverse-kind kernel tables at n <= 3, N <= n + 7: each lam's
        walked coefficient against the per-partition product form, under ==
        and in type."""
        for n in (1, 2, 3):
            for nr in range(n + 1, n + 8):
                spec = _tilde(kind, params, nr - n)
                for lam, c in expansion_table(spec, nr, n).coeffs.items():
                    ref = _product_form(spec, pt.conjugate(lam), nr - n)
                    assert c == ref and type(c) is F, (nr, n, lam)

    @pytest.mark.parametrize("kind", ["jue_tilde", "lue_tilde"])
    @pytest.mark.parametrize("rows,m", [(2, 11), (4, 6), (6, 4)])
    def test_tilde_table_at_the_domain_edge_equals_the_andreief_oracle(self, kind, rows, m):
        """At alpha_tilde = 2m + rows and at beta_t = rows (alpha = 1/2) the
        largest mu_1 of the rectangle sits on the edge of the walk's domain,
        and the moments m_0..m_(rows + 2m - 2) of the oracle are finite."""
        spec = (EnsembleSpec("lue_tilde", alpha_tilde=2 * m + rows) if kind == "lue_tilde"
                else EnsembleSpec("jue_tilde", alpha=F(1, 2), beta=F(1, 2) + m + rows, m=m))
        coeffs = _table(spec, rows, m, "closed").coeffs
        assert list(coeffs) == pt.enumerate_bounded(rows, m)
        for lam, c in coeffs.items():
            assert c == schur_avg_oracle(spec, pt.conjugate(lam), m) and type(c) is F, lam

    @pytest.mark.parametrize("rows,m", [(2, 11), (4, 6), (6, 4)])
    def test_gue_table_equals_the_andreief_oracle(self, rows, m):
        """The domino walk on lam's rows against the Andreief determinant
        of each mu = lam', zeros (an odd 2-core) included."""
        from schurkernels import kernels
        coeffs = kernels._table.__wrapped__(GUE, rows, m, "closed").coeffs
        assert list(coeffs) == pt.enumerate_bounded(rows, m)
        for lam, c in coeffs.items():
            ref = schur_avg_oracle(GUE, pt.conjugate(lam), m)
            assert c == ref and type(c) is F, lam

    @pytest.mark.parametrize("spec", WALK_SPECS,
                             ids=lambda s: f"{s.kind}-{s.alpha}-{s.beta}")
    def test_exact_tables_equal_closed_forms(self, spec):
        """The classical kernel tables at n <= 3 and (24,1); the SW and
        integer-alpha qLUE tables Y(min(6, 24 // M), M), which hold every
        Y(r, M) with r <= 6 and rM <= 24 (to rM <= 48 they take about two
        minutes).  ==, the same type (QRat at ()), and for QRats the same
        offset and coefficient lists."""
        if spec.kind in ("sw", "qlue"):
            tables = [_table(spec, min(6, 24 // m), m, "closed") for m in range(1, 25)]
        else:
            sizes = [(nr, n) for n in (1, 2, 3) for nr in range(n + 1, n + 10)]
            tables = [expansion_table(spec, nr, n) for nr, n in sizes + [(24, 1)]]
        for table in tables:
            coeffs, m = table.coeffs, table.cols
            assert list(coeffs) == pt.enumerate_bounded(table.rows, m)
            for lam, c in coeffs.items():
                ref = _product_form(spec, pt.conjugate(lam), m)
                assert c == ref and type(c) is type(ref), (table.rows, m, lam)
                if isinstance(c, QRat):
                    assert (c.offset, c.num, c.den) == (ref.offset, ref.num, ref.den)

    @pytest.mark.parametrize("params", [{"alpha": "0.5"},
                                        {"alpha": "0.7", "beta": "1.3"}], ids=str)
    def test_real_tables_keep_49_digits(self, params):
        def spec(dps):
            with mpmath.workdps(dps):
                kind = "jue" if "beta" in params else "lue"
                return EnsembleSpec(kind, **{k: mpmath.mpf(v) for k, v in params.items()})
        for nr, n in ((24, 1), (12, 1), (10, 2), (8, 3)):
            with mpmath.workdps(50):
                coeffs = expansion_table(spec(50), nr, n).coeffs
            with mpmath.workdps(120):
                ref = _per_lam(spec(120), nr, n)
                assert coeffs[()] == 1 and type(coeffs[()]) is F
                for lam in list(coeffs)[1:]:
                    assert abs(coeffs[lam] - ref[lam]) <= abs(ref[lam]) * mpmath.mpf(10) ** -49

    @pytest.mark.parametrize("alpha,q", [(F(1, 2), F(1, 3)), (F(-1, 2), F(1, 2)),
                                         (F(9, 4), None)], ids=str)
    def test_real_alpha_qlue_table_is_its_single_averages(self, alpha, q):
        """A real-alpha qLUE table walks its rectangle 2M + 5 digits above the
        working precision and rounds each value once, so it holds what
        `schur_average` gives lam by lam, under == and in type (the mpf 1
        at ()); q = None is q = 7/10 as an mpf."""
        with mpmath.workdps(50):
            spec = EnsembleSpec("qlue", alpha=alpha, q=q or mpmath.mpf("0.7"))
            for nr, n in ((8, 1), (12, 2), (8, 3)):
                table = expansion_table(spec, nr, n)
                for lam, c in table.coeffs.items():
                    ref = schur_average(spec, pt.conjugate(lam), table.cols)
                    assert c == ref and type(c) is type(ref), (nr, n, lam)
                assert type(table.coeffs[()]) is mpmath.mpf

    @pytest.mark.parametrize("spec", [
        *(EnsembleSpec("lue", alpha=a) for a in (0, 1, F(1, 2))),
        *(EnsembleSpec("jue", alpha=a, beta=b) for a, b in ((1, 1), (F(7, 10), F(13, 10)),
                                                            (F(-1, 2), F(-1, 2)))),
        EnsembleSpec("lue", alpha=mpmath.mpf("0.5")),
        EnsembleSpec("jue", alpha=mpmath.mpf("0.7"), beta=mpmath.mpf("1.3"))],
        ids=lambda s: f"{s.kind}-{s.alpha}-{s.beta}")
    @pytest.mark.parametrize("rows,m", [(2, 30), (3, 12), (4, 8), (6, 5)])
    def test_walk_on_rows_where_the_first_part_repeats(self, spec, rows, m):
        """The walk takes lam from lam - e_t, t the multiplicity of lam_1, and
        telescopes the Weyl ratio over each run of equal parts; it equals
        the per-lam product forms under == and in type, and to 45 digits at
        mpf parameters (both at 50 digits)."""
        coeffs = _table(spec, rows, m, "closed").coeffs
        assert list(coeffs) == pt.enumerate_bounded(rows, m)
        for lam in list(coeffs)[1:]:
            c, ref = coeffs[lam], _product_form(spec, pt.conjugate(lam), m)
            if isinstance(ref, F):
                assert c == ref and type(c) is F, lam
            else:
                assert abs(c - ref) <= abs(ref) * mpmath.mpf(10) ** -45, lam

    def test_one_real_jacobi_parameter(self):
        with mpmath.workdps(30):
            spec = EnsembleSpec("jue", alpha=F(1, 3), beta=mpmath.mpf("0.5"))
            coeffs, ref = expansion_table(spec, 7, 2).coeffs, _per_lam(spec, 7, 2)
            assert all(hp_close(coeffs[lam], ref[lam], F(1, 10**28)) for lam in ref)
            assert type(coeffs[(1,)]) is mpmath.mpf


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

    def test_sw_kernel_at_kernel_size(self):
        """SW (14,1): the hook-content table against the Chebyshev bridge."""
        q = KernelQuery(EnsembleSpec("sw"), 14, 1, (F(1, 3),), (F(3, 4),))
        assert khat_schur(q) == k2_chebyshev(q)

    def test_routes_exact_at_rational_parameters(self):
        spec = EnsembleSpec("jue", alpha=F(1, 2), beta=F(3, 2))
        q = KernelQuery(spec, 3, 1, (F(1, 2),), (F(2),))
        assert khat_schur(q) == khat_cd(q) == khat_double(q) == F(-17, 192)


# xy = (14/15)^2, (6/7)^2 and x = y, where w = -(x+y)/(2 sqrt(xy)) = -1
CHEBYSHEV_POINTS = [(F(-7, 5), F(-28, 45)), (F(3, 7), F(12, 7)), (F(5, 3), F(5, 3))]


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

    @pytest.mark.parametrize("spec", [GUE, EnsembleSpec("lue", alpha=1),
                                      EnsembleSpec("lue", alpha=F(1, 2)),
                                      EnsembleSpec("jue", alpha=F(7, 10), beta=F(13, 10))],
                             ids=lambda s: f"{s.kind}-{s.alpha}-{s.beta}")
    @pytest.mark.parametrize("nr", [24, 48, 96])
    def test_chebyshev_integer_sum_at_kernel_size(self, spec, nr):
        """The integer sum over the table's ints equals khat_schur in value
        and type, at points of either sign and at x = y."""
        for x, y in CHEBYSHEV_POINTS:
            q = KernelQuery(spec, nr, 1, (x,), (y,))
            a, b = k2_chebyshev(q), khat_schur(q)
            assert a == b and type(a) is type(b) is F, (x, y)

    @pytest.mark.parametrize("spec,nr", [(EnsembleSpec("sw"), 24),
                                         (EnsembleSpec("qlue", alpha=1), 8)],
                             ids=["sw-24", "qlue1-8"])
    def test_chebyshev_integer_sum_on_laurent_tables(self, spec, nr):
        for x, y in CHEBYSHEV_POINTS:
            q = KernelQuery(spec, nr, 1, (x,), (y,))
            a, b = k2_chebyshev(q), khat_schur(q)
            assert a == b and type(a) is type(b) is QRat, (x, y)

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
        """khat_double, the library's Ginibre single sum, equals the closed
        form; a query needs N > n, so N starts at 2."""
        x, y = F(3, 2), F(-2, 5)
        for nr in range(2, 7):
            q = KernelQuery(EnsembleSpec("ginibre"), nr, 1, (x,), (y,))
            assert khat_double(q) == ginibre_kernel(nr, x, y)

    def test_double_route(self):
        """khat_double reads the Ginibre diagonal from pair_cofactors: it
        equals the single sum, and the closed form at n = 1."""
        rng = random.Random(13)
        for nr, n in ((3, 1), (5, 1), (4, 2), (5, 2)):
            pts = random_rationals(rng, 2 * n)
            x, y = tuple(pts[:n]), tuple(pts[n:])
            got = khat_double(KernelQuery(EnsembleSpec("ginibre"), nr, n, x, y))
            assert isinstance(got, F) and got == ginibre_khat_schur(nr, n, x, y)
            if n == 1:
                assert got == ginibre_kernel(nr, x[0], y[0])

    def test_real_ginibre(self):
        assert real_ginibre_kernel(1, F(5), F(2)) == 3
        assert real_ginibre_kernel(2, F(2), F(1)) == 3
        assert real_ginibre_kernel(3, F(2), F(3)) == -real_ginibre_kernel(3, F(3), F(2))

    def test_generic_double_route_sees_the_delta(self):
        # the full double sum over (lam, mu) collapses onto the diagonal
        spec = EnsembleSpec("ginibre")
        q = KernelQuery(spec, 4, 1, (F(3, 2),), (F(-2, 5),))
        assert khat_double(q) == ginibre_khat_schur(4, 1, (F(3, 2),), (F(-2, 5),))


@pytest.mark.parametrize("spec", [
    EnsembleSpec("gue"), EnsembleSpec("lue", alpha=1), EnsembleSpec("lue", alpha=F(1, 2)),
    EnsembleSpec("jue", alpha=F(7, 10), beta=F(13, 10)), EnsembleSpec("sw"),
    EnsembleSpec("qlue", alpha=1)], ids=["gue", "lue1", "lue1/2", "jue", "sw", "qlue1"])
def test_char_poly_schur_equals_andreief(spec):
    """<det(x + Z)^k> from the coefficient table against the Andreief
    determinant of modified moments, which reads no table: odd k reaches
    tables with rows != 2n."""
    for m in range(1, 4):
        for k in range(1, 5):
            poly = char_poly_schur(spec, m, k)
            for x in (F(3, 2), F(-5, 7)):
                assert (poly(x) * (-1) ** (k * m)
                        == char_poly_moment_oracle(spec, m, k, -x)), (m, k, x)


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
        for nr, n in ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 3)):
            xs, ys = (F(2), F(-3, 5), F(7, 4))[:n], (F(3, 2), F(5, 9), F(-4))[:n]
            f = df_kernel_factorized(nr, n, xs, ys, 1, 1, 1)
            d = df_khat_double(nr, n, xs, ys, 1, 1)
            assert f == d, (nr, n)

    @pytest.mark.parametrize("a,b", [(-1, 0), (0, F(-3, 2))])
    def test_parameters_at_or_below_minus_one_fail(self, a, b):
        with pytest.raises(ValueError, match="^jue needs alpha, beta > -1$"):
            df_chiral_kernel(3, 1, (F(2),), a, b, 1)

    def test_point_count_must_match_n(self):
        """A rectangle that does not match the points is an error, as in
        `KernelQuery`, not a sum over the wrong rectangle."""
        for call in (lambda: df_chiral_kernel(4, 2, (F(2),), 1, 1),
                     lambda: df_chiral_kernel(4, 1, (F(2), F(3)), 1, 1),
                     lambda: df_kernel_factorized(4, 1, (F(2),), (F(2), F(3)), 1, 1),
                     lambda: df_khat_double(4, 1, (F(2),), (F(2), F(3)), 1, 1),
                     lambda: df_khat_double(4, 2, (F(2),), (F(2), F(3)), 1, 1)):
            with pytest.raises(ValueError, match="^need n "):
                call()

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


INT_SPECS = {"gue": GUE, "lue1": EnsembleSpec("lue", alpha=1),
             "jue_half": EnsembleSpec("jue", alpha=F(1, 2), beta=F(3, 2)),
             "sw": EnsembleSpec("sw"), "qlue1": EnsembleSpec("qlue", alpha=1),
             "lue_half_real": EnsembleSpec("lue", alpha=mpmath.mpf("0.5"))}


def _same(got, want) -> bool:
    """got is in want's field and equal to it: exactly in the exact fields,
    to 40 digits for reals."""
    if isinstance(want, mpmath.mpf):
        return isinstance(got, mpmath.mpf) and hp_close(got, want)
    return type(got) is type(want) and got == want


def _keeps_its_field(spec):
    """Off the rationals the table and the pair averages stay in the field;
    the orthogonal polynomials are the reals themselves over 1, and Laurent
    polynomials over one QRat in u."""
    table, osys = expansion_table(spec, 4, 1), ortho_system(spec, 3)
    rows, den = pair_cofactors(spec, 1, 3)
    assert table.ints == (tuple(table.coeffs.values()), 1)
    if isinstance(den, QRat):
        polys, w, big_w = osys.ints
        laurent = [c for p in polys for c in p] + list(w)
        assert all(type(c) is int or type(c) is QRat and c.den == [1] for c in laurent)
        assert isinstance(big_w, QRat) and big_w != 1
    else:
        assert osys.ints[1:] == (tuple(recip(h) for h in osys.norms), 1)
        assert all(p[-1] == 1 for p in osys.ints[0])  # p_j = P_j
    assert not isinstance(den, (int, F))
    assert all(type(c) is type(den) for row in rows for c in row)


class TestIntegerEvaluation:
    """The common-denominator sums of evaluate, _cd_sum and khat_double
    against the plain field sums they replace, written out here: on ints at
    rational inputs, on Laurent polynomials at q inputs, on mpfs over 1."""

    @staticmethod
    def points(rng, count):
        """count seeded rationals of mixed denominators; from two on, the
        first one twice."""
        pts = random_rationals(rng, count)
        return pts[:1] * 2 + pts[2:] if count > 1 else pts

    @pytest.mark.parametrize("name", INT_SPECS)
    def test_evaluate(self, name):
        rng = random.Random(31)
        for nr, n in ((4, 1), (5, 2), (5, 3)):
            table = expansion_table(INT_SPECS[name], nr, n)
            # fewer t-variables than rows, then all 2n of them
            for count in (1, n, 2 * n):
                t = self.points(rng, count)
                want = sum(schur_eval(lam, t) * c for lam, c in table.coeffs.items())
                assert _same(table.evaluate(tuple(t)), want), (nr, n, t)

    @pytest.mark.parametrize("name", INT_SPECS)
    def test_cd_sum(self, name):
        rng = random.Random(37)
        osys = ortho_system(INT_SPECS[name], 6)
        for x, y in [self.points(rng, 2) for _ in range(4)] + [(F(2, 9), F(2, 9))]:
            want = sum(p(x) * p(y) * recip(h) for p, h in zip(monic_polys(osys), osys.norms))
            assert _same(_cd_sum(osys, x, y), want), (x, y)

    @pytest.mark.parametrize("name", INT_SPECS)
    def test_khat_double(self, name):
        spec, rng = INT_SPECS[name], random.Random(41)
        # the 3-pair QRat cofactors of a 6 x 6 Hankel matrix take seconds
        for nr, n in ((5, 1), (5, 2), (5 if name in ("sw", "qlue1") else 6, 3)):
            x, y = self.points(rng, n), self.points(rng, n)
            assert _same(khat_double(KernelQuery(spec, nr, n, tuple(x), tuple(y))),
                         _plain_double(spec, nr - n, x, y)), (nr, n, x, y)

    def test_rational_table_at_real_points(self):
        """Int coefficients over their lcm, mpf points over 1."""
        spec, rng = INT_SPECS["lue1"], random.Random(43)
        for nr, n in ((4, 1), (5, 2)):
            table = expansion_table(spec, nr, n)
            t = [to_mpf(v) for v in self.points(rng, 2 * n)]
            want = sum(schur_eval(lam, t) * c for lam, c in table.coeffs.items())
            assert _same(table.evaluate(tuple(t)), want), (nr, n)
            x, y = t[:n], t[n:]
            assert _same(khat_double(KernelQuery(spec, nr, n, tuple(x), tuple(y))),
                         _plain_double(spec, nr - n, x, y)), (nr, n)
        osys = ortho_system(spec, 6)
        x, y = to_mpf(F(-3, 7)), to_mpf(F(5, 11))
        want = sum(p(x) * p(y) * recip(h) for p, h in zip(monic_polys(osys), osys.norms))
        assert _same(_cd_sum(osys, x, y), want)

    def test_q_and_real_fields_keep_their_types(self):
        sw, qlue = EnsembleSpec("sw"), EnsembleSpec("qlue", alpha=1)
        _keeps_its_field(sw)
        _keeps_its_field(qlue)
        x, y = (F(2),), (F(8),)
        q = KernelQuery(sw, 4, 1, x, y)
        for route in (khat_schur, khat_double, k2_chebyshev, khat_cd):
            assert isinstance(route(q), QRat), route
        assert isinstance(khat_cd(KernelQuery(qlue, 4, 1, x, y)), QRat)
        with mpmath.workdps(30):
            spec = EnsembleSpec("lue", alpha=mpmath.mpf("0.5"))
            _keeps_its_field(spec)
            q = KernelQuery(spec, 4, 1, x, y)
            for route in (khat_schur, khat_double, k2_chebyshev, khat_cd):
                assert isinstance(route(q), mpmath.mpf), route
            # rational spec, real points
            q = KernelQuery(LUE0, 4, 1, (mpmath.mpf("0.3"),), (mpmath.mpf("1.7"),))
            for route in (khat_schur, khat_double, k2_chebyshev, khat_cd):
                assert isinstance(route(q), mpmath.mpf), route


def _plain_double(spec, m, x, y):
    """sum_{lam, mu} s_lam(tx) s_mu(ty) rows[i][j] / den, in the field."""
    n = len(x)
    rows, den = pair_cofactors(spec, n, m)
    tx, ty = [-1 / v for v in x], [-1 / v for v in y]
    parts = pt.enumerate_bounded(n, m)
    return sum(schur_eval(lam, tx) * schur_eval(mu, ty) * rows[i][j]
               for i, lam in enumerate(parts)
               for j, mu in enumerate(parts)) * recip(den)


def _binary(v) -> F:
    """The exact rational value of the mpf v."""
    man, exp = v.man_exp
    return F(man) * F(2) ** exp


class TestRealParameterKernels:
    def test_three_routes_agree_at_50_digits(self):
        with mpmath.workdps(50):
            spec = EnsembleSpec("lue", alpha=mpmath.mpf("0.5"))
            q = KernelQuery(spec, 3, 1, (F(2),), (F(8),))
            a, b, c = khat_schur(q), khat_double(q), khat_cd(q)
            ch = k2_chebyshev(q)
            assert hp_close(a, b) and hp_close(a, c) and hp_close(a, ch)

    def test_double_route_digits_at_real_alpha(self):
        """The double route, on the orthogonal polynomials of khat_cd, keeps
        35 of 50 digits on LUE alpha=0.5, N=12, n=1 (against a 120-digit
        khat_schur)."""
        def query(dps):
            with mpmath.workdps(dps):
                spec = EnsembleSpec("lue", alpha=mpmath.mpf("0.5"))
                return KernelQuery(spec, 12, 1, (F(3, 7),), (F(-5, 11),))
        ref = khat_schur(query(120), dps=120)
        value = khat_double(query(50), dps=50)
        with mpmath.workdps(120):
            assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -35

    def test_cd_route_digits_at_real_jacobi(self):
        """khat_cd keeps 20 of 50 digits on JUE alpha=0.7 beta=1.3, N=24,
        n=1, against khat_schur at the exact 7/10 and 13/10 (Gram-Schmidt
        kept 18.8, the Chebyshev algorithm 20.6, the closed forms 34.4)."""
        x, y = (F(-7, 5),), (F(11, 13),)
        exact = EnsembleSpec("jue", alpha=F(7, 10), beta=F(13, 10))
        ref = khat_schur(KernelQuery(exact, 24, 1, x, y))
        with mpmath.workdps(50):
            real = EnsembleSpec("jue", alpha=mpmath.mpf("0.7"),
                                beta=mpmath.mpf("1.3"))
            value = khat_cd(KernelQuery(real, 24, 1, x, y))
        with mpmath.workdps(120):
            assert abs(value - to_mpf(ref)) <= abs(to_mpf(ref)) * mpmath.mpf(10) ** -20

    @pytest.mark.parametrize("params,nr,n,digits", [
        *(({"alpha": "0.5"}, nr, n, 44) for nr, n in ((24, 1), (48, 1), (10, 2))),
        *(({"alpha": "0.7", "beta": "1.3"}, nr, n, d)
          for nr, n, d in ((24, 1, 32), (10, 2, 37), (48, 1, 15)))],
        ids=lambda v: "-".join(v.values()) if isinstance(v, dict) else str(v))
    def test_cd_and_double_digits_at_binary_parameters(self, params, nr, n, digits):
        """Real cd and double at 50 digits against the exact route at the
        mpf's own binary parameters.  With the recurrence coefficients from
        the moments LUE (48,1) kept 7.7 digits and JUE (48,1) printed the
        wrong sign; the closed forms kept 45.6 and 17.1 at 50 working
        digits, and with the guard digits of the routes they keep 51."""
        kind = "jue" if "beta" in params else "lue"
        real = EnsembleSpec(kind, **{k: mpmath.mpf(v) for k, v in params.items()})
        exact = EnsembleSpec(kind, **{k: _binary(getattr(real, k)) for k in params})
        x, y = (((F(-7, 5),), (F(11, 13),)) if n == 1
                else ((F(7, 5), F(-11, 13)), (F(5, 7), F(13, 11))))
        ref = khat_schur(KernelQuery(exact, nr, n, x, y))
        for route in (khat_cd, khat_double):
            value = route(KernelQuery(real, nr, n, x, y))
            with mpmath.workdps(200):
                err = abs(value - to_mpf(ref))
                assert err <= abs(to_mpf(ref)) * mpmath.mpf(10) ** -digits, route

    @pytest.mark.parametrize("nr,n,x,y", [
        (12, 1, (F(5, 7),), (F(11, 13),)), (24, 1, (F(5, 7),), (F(11, 13),)),
        (24, 1, (F(7, 11),), (F(-5, 13),)), (24, 1, (F(-7, 5),), (F(11, 13),)),
        (10, 2, (F(7, 5), F(-11, 13)), (F(5, 7), F(13, 11)))],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_real_routes_keep_every_digit_wherever_the_points_lie(self, nr, n, x, y):
        """schur, cd and double on JUE alpha=0.7 beta=1.3 at 50 digits keep
        49 against the exact route at the mpf's own binary parameters, and
        return values rounded to 50 digits.  Working at 50 digits they kept
        20.1-45.3 digits, fewest with both points inside [0, 1]."""
        with mpmath.workdps(50):
            real = EnsembleSpec("jue", alpha=mpmath.mpf("0.7"), beta=mpmath.mpf("1.3"))
        exact = EnsembleSpec("jue", alpha=_binary(real.alpha), beta=_binary(real.beta))
        ref = khat_schur(KernelQuery(exact, nr, n, x, y))
        for route in (khat_schur, khat_cd, khat_double):
            with mpmath.workdps(50):
                value = route(KernelQuery(real, nr, n, x, y))
                assert +value == value, route
            with mpmath.workdps(200):
                err = abs(value - to_mpf(ref))
                assert err <= abs(to_mpf(ref)) * mpmath.mpf(10) ** -49, route

    @pytest.mark.parametrize("nr,x,y", [
        (12, F(4, 9), F(9, 16)), (24, F(4, 9), F(9, 16)), (24, F(-7, 5), F(-28, 45)),
        (24, F(5, 7), F(5, 7)), (48, F(7, 11), F(28, 11))],
        ids=lambda v: str(v))
    def test_real_chebyshev_keeps_every_digit_where_xy_is_positive(self, nr, x, y):
        """k2_chebyshev on JUE alpha=0.7 beta=1.3 at 50 digits keeps 49
        against the exact route at the mpf's own binary parameters, and
        returns a value rounded to 50 digits, inside [0, 1], at x = y and
        with both points negative."""
        with mpmath.workdps(50):
            real = EnsembleSpec("jue", alpha=mpmath.mpf("0.7"), beta=mpmath.mpf("1.3"))
        exact = EnsembleSpec("jue", alpha=_binary(real.alpha), beta=_binary(real.beta))
        ref = khat_schur(KernelQuery(exact, nr, 1, (x,), (y,)))
        with mpmath.workdps(50):
            value = k2_chebyshev(KernelQuery(real, nr, 1, (x,), (y,)))
            assert type(value) is mpmath.mpf and +value == value
        with mpmath.workdps(200):
            assert abs(value - to_mpf(ref)) <= abs(to_mpf(ref)) * mpmath.mpf(10) ** -49

    def test_qlue_real_alpha_schur_digits_at_kernel_size(self):
        """khat_schur on qLUE alpha=0.5 q=1/3, N=12, n=1 at 50 dps keeps 45
        digits against khat_cd at 120 dps."""
        def query(dps):
            with mpmath.workdps(dps):
                spec = EnsembleSpec("qlue", alpha=mpmath.mpf("0.5"), q=F(1, 3))
                return KernelQuery(spec, 12, 1, (F(3, 7),), (F(-5, 11),))
        ref = khat_cd(query(120), dps=120)
        value = khat_schur(query(50), dps=50)
        with mpmath.workdps(120):
            assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -45

    @pytest.mark.parametrize("nr", [16, 24])
    def test_qlue_real_alpha_double_digits(self, nr):
        """khat_double on qLUE alpha=0.5 q=1/3 at 50 dps keeps 45 digits
        against khat_schur at 150 dps.  Taking the pair averages from the
        Hankel adjugate kept 0.6 digits at N=16, and at N=24 its value was
        off by a factor of about 10^297."""
        def query(dps):
            with mpmath.workdps(dps):
                spec = EnsembleSpec("qlue", alpha=mpmath.mpf("0.5"), q=F(1, 3))
                return KernelQuery(spec, nr, 1, (F(3, 7),), (F(-5, 11),))
        ref = khat_schur(query(150), dps=150)
        value = khat_double(query(50), dps=50)
        with mpmath.workdps(150):
            assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -45

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
