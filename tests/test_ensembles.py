"""Unit tests for ensemble data: moments, orthogonal polynomials, the
Andreief oracle and every closed-form Schur average."""

from fractions import Fraction

import mpmath
import pytest

from schurkernels import partitions as pt
from schurkernels.ensembles import (EnsembleSpec, MomentTable, hankel_det,
                                    jack_avg_jacobi_coeff, lue_alpha_shift_pair,
                                    moment, ortho_system,
                                    schur_average, schur_avg_bruteforce,
                                    schur_avg_gue, schur_avg_jue,
                                    schur_avg_jue_gamma_form,
                                    schur_avg_jue_tilde, schur_avg_lue,
                                    schur_avg_lue_int_form, schur_avg_lue_tilde,
                                    schur_avg_oracle, schur_avg_qlue,
                                    schur_avg_sw, schur_pair_avg_bruteforce,
                                    schur_pair_avg_ginibre,
                                    schur_pair_avg_oracle)
from schurkernels.scalars import QRat, hp_close, qnum_floor

F = Fraction

GUE = EnsembleSpec("gue")
LUE0 = EnsembleSpec("lue", alpha=0)
SW = EnsembleSpec("sw")


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EnsembleSpec("cue")

    def test_json_roundtrip(self):
        from schurkernels.ensembles import spec_from_json
        for spec in (EnsembleSpec("lue", alpha=2),
                     EnsembleSpec("jue", alpha=F(1, 2), beta=1),
                     EnsembleSpec("jue_tilde", alpha=0, beta=7, m=3),
                     EnsembleSpec("sw")):
            assert spec_from_json(spec.to_json()) == spec
        assert spec_from_json({"kind": "lue", "alpha": "2"}).alpha == 2
        real = spec_from_json({"kind": "lue", "alpha": "0.5"})
        assert isinstance(real.alpha, mpmath.mpf)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            EnsembleSpec("lue", alpha=-2)
        with pytest.raises(ValueError):
            EnsembleSpec("jue_tilde", alpha=0, beta=5)
        with pytest.raises(ValueError):
            EnsembleSpec("qlue", alpha=0, q=F(3, 2))

    @pytest.mark.parametrize("kind, params", [
        ("lue", {}), ("jue", {"alpha": 1}), ("jue_tilde", {"alpha": 0, "m": 2}),
        ("lue_tilde", {}), ("qlue", {}),
    ])
    def test_required_parameters(self, kind, params):
        with pytest.raises(ValueError, match="needs"):
            EnsembleSpec(kind, **params)


class TestMoments:
    def test_gue(self):
        assert [moment(GUE, p) for p in range(6)] == [1, 0, 1, 0, 3, 0]

    def test_cache_is_bounded(self):
        from schurkernels.ensembles import _moment_cached
        assert _moment_cached.cache_parameters()["maxsize"] is not None

    def test_lue(self):
        assert moment(LUE0, 3) == 6
        assert moment(EnsembleSpec("lue", alpha=2), 1) == 6

    def test_jue_is_beta_function(self):
        spec = EnsembleSpec("jue", alpha=1, beta=2)
        # B(p+2, 3) = (p+1)! 2! / (p+4)!
        assert moment(spec, 0) == F(2, 24)
        assert moment(spec, 1) == F(2 * 2, 120)

    def test_jue_tilde_divergence(self):
        spec = EnsembleSpec("jue_tilde", alpha=0, beta=3, m=1)
        assert moment(spec, 0) == F(1, 3)
        assert moment(spec, 1) == F(1, 6)
        with pytest.raises(ValueError):
            moment(spec, 3)

    def test_lue_tilde(self):
        spec = EnsembleSpec("lue_tilde", alpha_tilde=5)
        assert moment(spec, 0) == 6
        with pytest.raises(ValueError):
            moment(spec, 4)

    def test_sw(self):
        assert moment(SW, 0) == QRat.u_power(-1)
        assert moment(SW, 2) == QRat.u_power(-9)

    def test_qlue_integer(self):
        spec = EnsembleSpec("qlue", alpha=0)
        assert moment(spec, 0) == QRat.const(1)
        assert moment(spec, 1) == QRat.q_power(-1)
        assert moment(spec, 2) == QRat.q_power(-1) * (-qnum_floor(-2))

    def test_moment_table_caches(self):
        table = MomentTable(GUE)
        assert table.get(4) == 3
        assert table.get(4) == 3

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment(GUE, -1)


class TestHankelAndOrtho:
    def test_hankel_m1(self):
        assert hankel_det(LUE0, 1) == 1

    def test_hankel_gue2(self):
        assert hankel_det(GUE, 2) == 1

    def test_hankel_lue2(self):
        assert hankel_det(LUE0, 2) == 1  # 1*2 - 1

    def test_gue_ortho(self):
        osys = ortho_system(GUE, 2)
        assert osys.polys[2].coeffs == [F(-1), F(0), F(1)]  # z^2 - 1
        assert osys.norms[2] == 2

    def test_lue_ortho(self):
        osys = ortho_system(LUE0, 1)
        assert osys.polys[1].coeffs == [F(-1), F(1)]  # z - 1
        assert osys.norms[1] == 1

    def test_p0_h0(self):
        for spec in (GUE, LUE0, SW):
            osys = ortho_system(spec, 0)
            assert osys.polys[0].coeffs == [1]
            assert osys.norms[0] == moment(spec, 0)

    def test_norms_equal_hankel_ratios(self):
        for spec in (GUE, LUE0, EnsembleSpec("jue", alpha=1, beta=0), SW):
            osys = ortho_system(spec, 3)
            for j in range(4):
                ratio = hankel_det(spec, j + 1) / hankel_det(spec, j)
                assert osys.norms[j] == ratio

    def test_orthogonality(self):
        osys = ortho_system(GUE, 3)
        table = MomentTable(GUE)

        def inner(pa, pb):
            return sum(ca * cb * table.get(i + j)
                       for i, ca in enumerate(pa.coeffs) if ca
                       for j, cb in enumerate(pb.coeffs) if cb)

        for j in range(4):
            for k in range(j):
                assert inner(osys.polys[j], osys.polys[k]) == 0


class TestOracle:
    def test_empty_partition(self):
        for spec in (GUE, LUE0, SW):
            assert schur_avg_oracle(spec, (), 3) == 1

    def test_gue_examples(self):
        assert schur_avg_oracle(GUE, (2,), 2) == 3
        assert schur_avg_oracle(GUE, (1, 1), 2) == -1

    def test_lue_example(self):
        assert schur_avg_oracle(LUE0, (1,), 2) == 4

    def test_length_check(self):
        with pytest.raises(ValueError):
            schur_avg_oracle(GUE, (1, 1, 1), 2)

    def test_matches_bruteforce(self):
        for spec in (GUE, LUE0, EnsembleSpec("jue", alpha=0, beta=1), SW,
                     EnsembleSpec("qlue", alpha=1)):
            for mu in pt.enumerate_bounded(2, 2):
                for m in (2, 3):
                    assert schur_avg_oracle(spec, mu, m) \
                        == schur_avg_bruteforce(spec, mu, m)

    def test_pair_matches_bruteforce(self):
        for spec in (GUE, LUE0, EnsembleSpec("jue", alpha=1, beta=2)):
            for lam in pt.enumerate_bounded(2, 2):
                for mu in pt.enumerate_bounded(2, 2):
                    assert schur_pair_avg_oracle(spec, lam, mu, 2) \
                        == schur_pair_avg_bruteforce(spec, lam, mu, 2)

    def test_pair_reduces_to_single(self):
        for mu in pt.enumerate_bounded(2, 2):
            assert schur_pair_avg_oracle(LUE0, mu, (), 3) \
                == schur_avg_oracle(LUE0, mu, 3)


class TestClosedForms:
    def test_gue_odd_size_vanishes(self):
        for mu in pt.enumerate_bounded(3, 3):
            if sum(mu) % 2:
                assert schur_avg_gue(mu, 4) == 0
                assert schur_avg_oracle(GUE, mu, 4) == 0

    def test_gue_balanced_parity_vanishing(self):
        # |mu| even but unbalanced parity blocks: the average still vanishes
        assert schur_avg_gue((3, 2, 1), 3) == 0
        assert schur_avg_oracle(GUE, (3, 2, 1), 3) == 0

    def test_lue_single_box_is_m_m_plus_alpha(self):
        for m in (1, 2, 3):
            for a in (0, 1, 2):
                assert schur_avg_lue((1,), m, a) == m * (m + a)

    def test_lue_integer_form_agrees(self):
        for mu in pt.enumerate_bounded(3, 3):
            for m in (3, 4):
                for a in (0, 1, 2):
                    assert schur_avg_lue(mu, m, a) \
                        == schur_avg_lue_int_form(mu, m, a)

    def test_lue_alpha_shift_identity(self):
        for mu in pt.enumerate_bounded(2, 2):
            for m in (1, 2, 3):
                if len(mu) > m:
                    continue
                for a in (1, 2):
                    lhs, rhs = lue_alpha_shift_pair(mu, m, a)
                    assert lhs == rhs

    def test_jue_example(self):
        assert schur_avg_jue((1,), 1, 0, 0) == F(1, 2)

    def test_jue_gamma_form_matches_integer(self):
        with mpmath.workdps(50):
            for mu in pt.enumerate_bounded(2, 2):
                v1 = schur_avg_jue(mu, 2, 1, 2)
                v2 = schur_avg_jue_gamma_form(mu, 2, 1, 2)
                assert hp_close(F(v1), v2)

    def test_jue_tilde_example(self):
        assert schur_avg_jue_tilde((1,), 1, 0, 3) == F(1, 2)
        assert schur_avg_jue_tilde((1,), 2, 1, 5) == 3

    def test_jue_tilde_zero_dimension_errors(self):
        with pytest.raises(ValueError):
            schur_avg_jue_tilde((3,), 1, 0, 3)  # beta_t = 2 < mu_1

    def test_lue_tilde_example(self):
        spec = EnsembleSpec("lue_tilde", alpha_tilde=4)
        assert schur_avg_lue_tilde((1,), 1, 4) == schur_avg_oracle(spec, (1,), 1)
        assert schur_avg_lue_tilde((1,), 1, 4) == F(1, 2)

    def test_lue_tilde_divergence(self):
        with pytest.raises(ValueError):
            schur_avg_lue_tilde((3, 3), 2, 6)

    def test_sw_examples(self):
        assert schur_avg_sw((1,), 1) == QRat.u_power(-3)
        assert schur_avg_sw((1,), 2) == QRat.u_power(-6) * (QRat.u_power(-1) + QRat.u_power(1))

    def test_qlue_m1_example(self):
        assert schur_avg_qlue((1,), 1, 0) == QRat.q_power(-1)

    def test_ginibre_pair(self):
        assert schur_pair_avg_ginibre((), (), 3) == 1
        assert schur_pair_avg_ginibre((1,), (), 3) == 0
        for m in (1, 2, 4):
            assert schur_pair_avg_ginibre((1,), (1,), m) == m

    def test_schur_average_dispatch(self):
        assert schur_average(LUE0, (1,), 2) == 4
        assert schur_average(LUE0, (1,), 2, method="oracle") == 4
        with pytest.raises(ValueError):
            schur_average(EnsembleSpec("ginibre"), (1,), 2)


class TestOracleAgreementSample:
    """Small slice of the acceptance grid (the full grid runs in
    test_acceptance / the verify suite)."""

    @pytest.mark.parametrize("mu", [(1,), (2, 1), (3, 3, 3)])
    def test_all_kinds(self, mu):
        m = 3
        assert schur_avg_gue(mu, m) == schur_avg_oracle(GUE, mu, m)
        assert schur_avg_lue(mu, m, 1) == schur_avg_oracle(
            EnsembleSpec("lue", alpha=1), mu, m)
        assert schur_avg_jue(mu, m, 1, 2) == schur_avg_oracle(
            EnsembleSpec("jue", alpha=1, beta=2), mu, m)
        assert schur_avg_jue_tilde(mu, m, 0, m + 4) == schur_avg_oracle(
            EnsembleSpec("jue_tilde", alpha=0, beta=m + 4, m=m), mu, m)
        assert schur_avg_lue_tilde(mu, m, 2 * m + 6) == schur_avg_oracle(
            EnsembleSpec("lue_tilde", alpha_tilde=2 * m + 6), mu, m)
        assert schur_avg_sw(mu, m) == schur_avg_oracle(SW, mu, m)
        assert schur_avg_qlue(mu, m, 1) == schur_avg_oracle(
            EnsembleSpec("qlue", alpha=1), mu, m)


class TestRealParameterPaths:
    def test_lue_half(self):
        with mpmath.workdps(50):
            a = mpmath.mpf(1) / 2
            c = schur_avg_lue((2, 1), 3, a)
            o = schur_avg_oracle(EnsembleSpec("lue", alpha=a), (2, 1), 3)
            assert hp_close(c, o)

    def test_qlue_real_alpha(self):
        with mpmath.workdps(50):
            q = mpmath.mpf(1) / 2
            a = mpmath.mpf("1.5")
            c = schur_avg_qlue((2, 1), 2, a, q)
            o = schur_avg_oracle(EnsembleSpec("qlue", alpha=a, q=q), (2, 1), 2)
            assert hp_close(c, o)

    def test_qlue_approaches_lue_as_q_to_1(self):
        """qLUE -> LUE: deviation shrinks as 1 - q does."""
        with mpmath.workdps(50):
            a = 1
            target = F(schur_avg_lue((1,), 2, a))
            devs = []
            for qs in ("0.9", "0.99", "0.999"):
                q = mpmath.mpf(qs)
                got = schur_avg_qlue((1,), 2, a).eval_u(mpmath.sqrt(q))
                devs.append(abs(got - mpmath.mpf(target.numerator) / target.denominator))
            assert devs[0] > devs[1] > devs[2]


class TestJackCoefficient:
    def test_empty(self):
        assert jack_avg_jacobi_coeff((), 3, 1, 2, F(3, 2), 1) == 1

    def test_gamma_one_reduces_to_jue(self):
        for nu in pt.enumerate_bounded(2, 2):
            assert jack_avg_jacobi_coeff(nu, 2, 0, 0, 1, 1) \
                == schur_avg_jue(nu, 2, 0, 0)
            assert jack_avg_jacobi_coeff(nu, 3, 1, 0, 1, 2) \
                == schur_avg_jue(nu, 3, 1, 0)

    def test_rational_gamma_value_is_exact(self):
        v = jack_avg_jacobi_coeff((2, 1), 3, 1, 2, F(1, 2), 2)
        assert isinstance(v, F)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            jack_avg_jacobi_coeff((3,), 3, 0, 0, 1, 1)  # nu_1 > 2n
