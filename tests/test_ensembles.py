"""Unit tests for ensemble data: moments, orthogonal polynomials, the
Andreief oracle and every closed-form Schur average."""

import dataclasses
import math
import sys
from fractions import Fraction
from types import MappingProxyType

import mpmath
import pytest

from oracles import (chebyshev_algorithm, lue_alpha_shift_pair, monic_polys,
                     ortho_gram_schmidt, qnum_floor, schur_avg_bruteforce,
                     schur_avg_gue_blocks, schur_avg_jue_tilde_principal,
                     schur_avg_lue_int_form, schur_avg_lue_tilde_complement,
                     schur_avg_qlue_hook_content, schur_avg_row_products,
                     schur_avg_sw_hook_content, schur_pair_avg_bruteforce)
from schurkernels import ensembles
from schurkernels import partitions as pt
from schurkernels.ensembles import (EnsembleSpec, char_poly_moment_oracle,
                                    hankel_det, jack_avg_jacobi_coeff,
                                    moment, ortho_system, schur_average,
                                    schur_avg_oracle, schur_avg_qlue,
                                    schur_pair_avg_ginibre,
                                    schur_pair_avg_oracle)
from schurkernels.kernels import kernel_cd
from schurkernels.scalars import (QRat, det_exact, gamma_real, hp_close,
                                  qgamma_real, to_mpf)
from schurkernels.symfun import schur_principal

F = Fraction

GUE = EnsembleSpec("gue")
LUE0 = EnsembleSpec("lue", alpha=0)
SW = EnsembleSpec("sw")
# the first five rational, then the two q kinds, then the rational tilde kinds
# (their 2K moments converge up to K = 23)
ORTHO_SPECS = (GUE, LUE0, EnsembleSpec("lue", alpha=1), EnsembleSpec("jue", alpha=1, beta=1),
               EnsembleSpec("jue", alpha=F(7, 10), beta=F(13, 10)),
               SW, EnsembleSpec("qlue", alpha=1),
               EnsembleSpec("lue_tilde", alpha_tilde=60),
               EnsembleSpec("lue_tilde", alpha_tilde=F(121, 2)),
               EnsembleSpec("jue_tilde", alpha=1, beta=60, m=5))
JUE_LONG = EnsembleSpec("jue", alpha=F("0.123456789012345678901234567891"),
                        beta=F("1.31415926535897932384626433832"))
JUE_7_13 = ORTHO_SPECS[4]
JUE_HALF = EnsembleSpec("jue", alpha=F(-1, 2), beta=F(-1, 2))
JUE_MIXED = EnsembleSpec("jue", alpha=F(-1, 2), beta=F(1, 2))


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EnsembleSpec("cue")

    def test_integral_fraction_is_an_int(self):
        spec = EnsembleSpec("jue", alpha=F(4, 2), beta=F(1, 2))
        assert type(spec.alpha) is int and spec.alpha == 2
        assert spec == EnsembleSpec("jue", alpha=2, beta=F(1, 2))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            EnsembleSpec("lue", alpha=-2)
        with pytest.raises(ValueError):
            EnsembleSpec("jue_tilde", alpha=0, beta=5)
        with pytest.raises(ValueError):
            EnsembleSpec("qlue", alpha=0, q=F(3, 2))
        with pytest.raises(ValueError, match="alpha > -1"):
            EnsembleSpec("qlue", alpha=-1)
        with pytest.raises(ValueError, match="alpha > -1"):
            EnsembleSpec("jue_tilde", alpha=mpmath.mpf(-1), beta=7, m=2)

    @pytest.mark.parametrize("kind, params", [
        ("lue", {}), ("jue", {"alpha": 1}), ("jue_tilde", {"alpha": 0, "m": 2}),
        ("lue_tilde", {}), ("qlue", {}), ("qlue", {"alpha": F(1, 2)}),
    ])
    def test_required_parameters(self, kind, params):
        with pytest.raises(ValueError, match="needs"):
            EnsembleSpec(kind, **params)

    @pytest.mark.parametrize("kind, params", [
        ("gue", {"alpha": 1}), ("lue", {"alpha": 1, "beta": 3}),
        ("lue", {"alpha": 1, "q": F(1, 2)}), ("jue", {"alpha": 1, "beta": 1, "m": 2}),
        ("lue_tilde", {"alpha_tilde": 5, "alpha": 1}), ("sw", {"q": F(1, 2)}),
        ("ginibre", {"beta": 1}),
    ])
    def test_unused_parameters_rejected(self, kind, params):
        with pytest.raises(ValueError, match="does not take"):
            EnsembleSpec(kind, **params)

    @pytest.mark.parametrize("kind, params, key", [
        ("lue", {"alpha": 0.5}, "alpha"), ("jue", {"alpha": 1, "beta": 0.5}, "beta"),
        ("lue_tilde", {"alpha_tilde": 30.0}, "alpha_tilde"),
        ("qlue", {"alpha": F(1, 2), "q": 0.5}, "q"), ("lue", {"alpha": "1/2"}, "alpha"),
    ])
    def test_non_numeric_types_rejected(self, kind, params, key):
        """A float would reach each route as something different (a binary
        ratio, a TypeError); only ints, Fractions and mpfs are taken."""
        with pytest.raises(ValueError, match=f"^{key} must be an int, Fraction or mpf, not "):
            EnsembleSpec(kind, **params)

    def test_qlue_takes_q_only_at_non_integer_alpha(self):
        with pytest.raises(ValueError, match="no q at integer alpha"):
            EnsembleSpec("qlue", alpha=1, q=F(1, 2))
        assert EnsembleSpec("qlue", alpha=F(1, 2), q=F(1, 2)).q == F(1, 2)
        with pytest.raises(ValueError, match=r"q must be in \(0, 1\)"):
            EnsembleSpec("qlue", alpha=F(1, 2), q=F(3, 2))


class TestMoments:
    def test_gue(self):
        assert [moment(GUE, p) for p in range(6)] == [1, 0, 1, 0, 3, 0]

    def test_cache_is_bounded(self):
        caches = _module_caches()
        assert {"ensembles._moment_cached", "ensembles._moment_prefix", "kernels._table",
                "symfun._branching", "toeplitz_fh.toeplitz_det"} <= caches.keys()
        for cache in caches.values():
            assert cache.cache_parameters()["maxsize"] is not None

    @pytest.mark.parametrize("seed", [1, 11])
    def test_verify_all_keeps_its_moment_prefixes(self, seed):
        """`_moment_prefix` holds every (spec, top) key that one pass of every
        verify suite reads (about 150 from empty caches): a second pass in
        the same process makes no miss."""
        from schurkernels.verify import SUITES, run_suite
        _clear_caches()
        for name in SUITES:
            run_suite(name, seed=seed)
        misses = ensembles._moment_prefix.cache_info().misses
        for name in SUITES:
            run_suite(name, seed=seed)
        assert ensembles._moment_prefix.cache_info().misses == misses

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

    @pytest.mark.parametrize("alpha", range(4))
    def test_qlue_integer_equals_the_ratio_recursion(self, alpha):
        """The one-quotient moment against m_p = m_{p-1} (-|-(alpha+p)|_q)."""
        spec, r = EnsembleSpec("qlue", alpha=alpha), QRat.const(1)
        for p in range(13):
            if p:
                r = r * -qnum_floor(-(alpha + p))
            m = moment(spec, p)
            assert (m.offset, m.num, m.den) == (r.offset, r.num, r.den)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment(GUE, -1)

    def test_recurrence_matches_gamma_definition(self):
        """m_p/m_0 from the moment recurrence against the Gamma (Gamma_q)
        form of the moment, at real parameters and 120 digits."""
        with mpmath.workdps(120):
            r = mpmath.mpf
            g = gamma_real
            cases = [
                (EnsembleSpec("lue", alpha=r("0.5")),
                 lambda p: g(r("1.5") + p)),
                (EnsembleSpec("jue", alpha=r("0.7"), beta=r("1.3")),
                 lambda p: g(r("1.7") + p) * g(r("2.3")) / g(r("4") + p)),
                (EnsembleSpec("jue", alpha=0, beta=r("0.5")),
                 lambda p: g(1 + p) * g(r("1.5")) / g(r("2.5") + p)),
                (EnsembleSpec("jue_tilde", alpha=r("0.5"), beta=r("12.5"), m=2),
                 lambda p: g(r("1.5") + p) * g(r("13") - p) / g(r("14.5"))),
                (EnsembleSpec("lue_tilde", alpha_tilde=r("10.5")),
                 lambda p: g(r("9.5") - p)),
                (EnsembleSpec("qlue", alpha=r("0.5"), q=F(1, 3)),
                 lambda p: (g(-p - r("0.5")) * g(p + r("1.5"))
                            / qgamma_real(-p - r("0.5"), F(1, 3)))),
            ]
            for spec, gamma_form in cases:
                for p in range(9):
                    assert hp_close(moment(spec, p) / moment(spec, 0),
                                    gamma_form(p) / gamma_form(0),
                                    tol=F(1, 10**110)), (spec, p)

    def test_cache_keeps_exact_and_real_apart(self):
        """1/2 and 0.5 (2 and 2.0) are equal spec keys of different fields."""
        with mpmath.workdps(50):
            for exact, real, p, value in ((F(1, 2), "0.5", 3, F(105, 8)),
                                          (2, "2", 1, 6)):
                real_m = moment(EnsembleSpec("lue", alpha=mpmath.mpf(real)), p)
                exact_m = moment(EnsembleSpec("lue", alpha=exact), p)
                assert isinstance(real_m, mpmath.mpf)
                assert isinstance(exact_m, F) and exact_m == value
            # the same holds for the ortho_system, expansion_table,
            # pair_cofactors and hankel_det caches
            from schurkernels.ensembles import pair_cofactors
            from schurkernels.kernels import expansion_table
            real, exact = (EnsembleSpec("lue", alpha=mpmath.mpf("0.5")),
                           EnsembleSpec("lue", alpha=F(1, 2)))
            for spec, kind in ((real, mpmath.mpf), (exact, F), (real, mpmath.mpf)):
                assert isinstance(hankel_det(spec, 3), kind)
                assert isinstance(schur_avg_oracle(spec, (1,), 3), kind)
                osys = ortho_system(spec, 3)
                table = expansion_table(spec, 4, 1)
                rows, den = pair_cofactors(spec, 2, 2)
                assert all(isinstance(h, kind) for h in osys.norms)
                assert all(isinstance(c, kind) for p in monic_polys(osys) for c in p.coeffs[:-1])
                # <s_()> = 1 is exact in every field
                assert all(isinstance(c, kind) for lam, c in table.coeffs.items() if lam)
                # the exact field sums on ints; the real field on its own
                # values over the denominator 1
                num = int if kind is F else mpmath.mpf
                assert isinstance(den, num)
                assert all(isinstance(c, num) for row in rows for c in row)
                assert all(isinstance(c, num) for c in table.ints[0][1:])
                assert all(isinstance(c, num) for c in osys.ints[1])
                if kind is mpmath.mpf:
                    assert table.ints == (tuple(table.coeffs.values()), 1)
                    assert all(p[-1] == 1 for p in osys.ints[0])  # p_j = P_j
                    assert osys.ints[2] == 1

    def test_precision_is_part_of_every_key(self):
        """0.5 is exact in binary, so LUE at alpha = 0.5 is one spec key at
        30 and at 60 digits: after a 30-digit build, each cached builder at
        60 digits equals a 60-digit build from empty caches to 1e-55, where
        the 30-digit values differ from it beyond that."""
        from schurkernels.ensembles import pair_cofactors
        from schurkernels.kernels import expansion_table
        spec = EnsembleSpec("lue", alpha=mpmath.mpf("0.5"))
        # sizes at which every builder has values that round at 30 digits
        builds = {"moment": lambda: moment(spec, 35), "hankel_det": lambda: hankel_det(spec, 17),
                  "ortho_system": lambda: ortho_system(spec, 20),
                  "pair_cofactors": lambda: pair_cofactors(spec, 2, 2),
                  "expansion_table": lambda: expansion_table(spec, 24, 1)}

        def build():
            return {name: list(_reals(f())) for name, f in builds.items()}

        def agree(got, want):
            tol = mpmath.mpf(10) ** -55
            return len(got) == len(want) and all(abs(g - w) <= abs(w) * tol
                                                 for g, w in zip(got, want))
        _clear_caches()
        with mpmath.workdps(30):
            low = build()
        with mpmath.workdps(60):
            warm = build()
            _clear_caches()
            fresh = build()
            for name in builds:
                assert fresh[name] and agree(warm[name], fresh[name]), name
                assert not agree(low[name], fresh[name]), name

    def test_deep_moment_needs_no_recursion(self):
        assert moment(EnsembleSpec("lue", alpha=F(1, 2)), 1500) > 0

    def test_moments_out_of_order_equal_the_full_product(self):
        """m_p is taken from the last moment made, in any request order, and
        equals m_0 prod_(s<=p) step(s) multiplied in that order: bit for bit
        on the reals, where the order of the products matters."""
        with mpmath.workdps(50):
            a, b, q, h = mpmath.mpf("0.7"), mpmath.mpf("1.3"), mpmath.mpf(1) / 3, mpmath.mpf("0.5")
            cases = [(EnsembleSpec("jue", alpha=a, beta=b), mpmath.mpf(1),
                      lambda s: (a + s) * (1 / (a + b + 1 + s))),
                     (EnsembleSpec("qlue", alpha=h, q=q), mpmath.mpf(1),
                      lambda s: (q ** -(h + s) - 1) / (1 - q)),
                     (EnsembleSpec("jue", alpha=F(7, 10), beta=F(13, 10)), F(1),
                      lambda s: (F(7, 10) + s) / (F(3) + s))]
            for spec, want0, step in cases:
                for p in (9, 3, 17, 0, 12):
                    want = want0
                    for s in range(1, p + 1):
                        want = want * step(s)
                    assert moment(spec, p) == want and type(moment(spec, p)) is type(want)


class TestHankelAndOrtho:
    def test_hankel_m1(self):
        assert hankel_det(LUE0, 1) == 1

    def test_hankel_gue2(self):
        assert hankel_det(GUE, 2) == 1

    def test_hankel_lue2(self):
        assert hankel_det(LUE0, 2) == 1  # 1*2 - 1

    @pytest.mark.parametrize("spec", [
        EnsembleSpec("gue"), EnsembleSpec("lue", alpha=F(1, 2)),
        EnsembleSpec("jue", alpha=F(7, 10), beta=F(13, 10)),
        EnsembleSpec("lue_tilde", alpha_tilde=30),
        EnsembleSpec("jue_tilde", alpha=1, beta=20, m=8)],
        ids=["gue", "lue-1/2", "jue-7/10-13/10", "lue_tilde-30", "jue_tilde-1-20"])
    def test_moment_det_equals_det_exact_of_the_fraction_matrix(self, spec):
        """Bareiss on the integer form of the moment prefix, over d^M, is
        det_exact of the Fraction moment matrix, in the Hankel row order and
        at the oracle's exponent sets, for M <= 8."""
        for m in range(1, 9):
            hankel = range(m - 1, -1, -1)
            sets = [(hankel, hankel)] + [
                ([pt.part(lam, j) + m - j for j in range(1, m + 1)],
                 [pt.part(mu, j) + m - j for j in range(1, m + 1)])
                for lam, mu in (((1,), ()), ((2, 1), (1, 1)), ((3, 2, 2), (2,)))
                if len(lam) <= m and len(mu) <= m]
            for rows, cols in sets:
                got = ensembles._moment_det(spec, rows, cols)
                want = det_exact([[moment(spec, a + b) for b in cols] for a in rows])
                assert got == want and type(got) is F, (m, rows, cols)

    def test_gue_ortho(self):
        osys = ortho_system(GUE, 2)
        assert monic_polys(osys)[2].coeffs == [F(-1), F(0), F(1)]  # z^2 - 1
        assert osys.norms[2] == 2

    def test_lue_ortho(self):
        osys = ortho_system(LUE0, 1)
        assert monic_polys(osys)[1].coeffs == [F(-1), F(1)]  # z - 1
        assert osys.norms[1] == 1

    def test_p0_h0(self):
        for spec in (GUE, LUE0, SW):
            osys = ortho_system(spec, 0)
            assert monic_polys(osys)[0].coeffs == [1]
            assert osys.norms[0] == moment(spec, 0)

    def test_norms_equal_hankel_ratios(self):
        for spec in (GUE, LUE0, EnsembleSpec("jue", alpha=1, beta=0), SW):
            osys = ortho_system(spec, 3)
            for j in range(4):
                ratio = hankel_det(spec, j + 1) / hankel_det(spec, j)
                assert osys.norms[j] == ratio

    @pytest.mark.parametrize("spec,kmax", [
        *((spec, kmax) for spec in ORTHO_SPECS[:5] for kmax in (7, 9, 23)),
        (SW, 7), (EnsembleSpec("qlue", alpha=1), 7),
        *((spec, kmax) for spec in ORTHO_SPECS[7:] for kmax in (7, 23)),
        *((spec, kmax) for spec in ORTHO_SPECS for kmax in (0, 1)),
        *((JUE_LONG, kmax) for kmax in (7, 11)),
        *((spec, kmax) for spec in (EnsembleSpec("lue", alpha=F(1, 2)), JUE_HALF, JUE_MIXED)
          for kmax in (0, 1, 7, 23))])
    def test_chebyshev_algorithm_equals_gram_schmidt(self, spec, kmax):
        """The recurrence, on the closed-form coefficients of every kind,
        gives the Gram-Schmidt norms and integer forms (so the polynomials
        P_j = p_j / lead(p_j)) exactly, with the same types, in every exact
        field, Fraction and QRat alike; JUE_LONG has 30-digit rational parameters,
        whose moments' integers grow fastest, and JUE_HALF and JUE_MIXED have
        alpha + beta = -1 and 0, where the closed forms cancel a 0/0."""
        osys, oracle = ortho_system(spec, kmax), ortho_gram_schmidt(spec, kmax)
        assert osys.norms == oracle.norms
        assert osys.ints == oracle.ints
        assert _types(osys) == _types(oracle)

    @pytest.mark.parametrize("spec", [GUE, JUE_LONG, SW, EnsembleSpec("qlue", alpha=1),
                                      EnsembleSpec("lue", alpha=mpmath.mpf("0.5"))])
    def test_negative_kmax_is_an_error(self, spec):
        """As moment(spec, -1) is: no field caches a system for kmax < 0, and
        kernel_cd at N = 0 reaches the same error."""
        for call in (lambda: ortho_system(spec, -1), lambda: kernel_cd(spec, 0, 1, 1)):
            with pytest.raises(ValueError, match="ortho_system needs kmax >= 0"):
                call()

    def test_orthogonality(self):
        osys = ortho_system(GUE, 3)

        def inner(pa, pb):
            return sum(ca * cb * moment(GUE, i + j)
                       for i, ca in enumerate(pa.coeffs) if ca
                       for j, cb in enumerate(pb.coeffs) if cb)

        polys = monic_polys(osys)
        for j in range(4):
            for k in range(j):
                assert inner(polys[j], polys[k]) == 0

    @pytest.mark.parametrize("spec", [GUE, EnsembleSpec("lue", alpha=1), JUE_7_13, SW,
                                      EnsembleSpec("qlue", alpha=0), EnsembleSpec("qlue", alpha=1),
                                      ORTHO_SPECS[7], ORTHO_SPECS[9]],
                             ids=lambda s: f"{s.kind}-{s.alpha}-{s.beta}")
    def test_closed_forms_equal_the_chebyshev_source(self, spec, fresh_ortho, monkeypatch):
        """The closed-form recurrence coefficients give the system that the
        Chebyshev algorithm's give, under == and in type: at K=95 on GUE,
        LUE and JUE, at K=23 on the tilde kinds (as far as their moments
        converge) and on SW, and at K=11 on qLUE."""
        kmax = {"gue": 95, "lue": 95, "jue": 95, "qlue": 11}.get(spec.kind, 23)
        closed = ortho_system(spec, kmax)
        fresh_ortho()
        monkeypatch.setattr(ensembles, "_recurrence", lambda s, k, dps: chebyshev_algorithm(s, k))
        chebyshev = ortho_system(spec, kmax)
        assert closed == chebyshev and _types(closed) == _types(chebyshev)

    @pytest.mark.parametrize("kind,params,kmax", [
        ("lue", {"alpha": "0.5"}, 12), ("jue", {"alpha": "0.7", "beta": "1.3"}, 12),
        ("qlue", {"alpha": "0.5", "q": "1/3"}, 12), ("lue_tilde", {"alpha_tilde": "10.5"}, 4),
        ("jue_tilde", {"alpha": "0.5", "beta": "12.5", "m": 2}, 6)],
        ids=["lue", "jue", "qlue", "lue_tilde", "jue_tilde"])
    def test_closed_forms_equal_the_chebyshev_source_in_mpf(self, kind, params, kmax):
        """At 50 digits the closed forms agree with the Chebyshev algorithm,
        run at 100 digits on the same binary parameters, to 1e-45 relative;
        the tilde kinds as far as their moments converge (m_2K)."""
        with mpmath.workdps(50):
            spec = EnsembleSpec(kind, **{k: v if k == "m" else to_mpf(F(v))
                                         for k, v in params.items()})
            closed = ensembles._recurrence(spec, kmax, mpmath.mp.dps)
            with mpmath.workdps(100):
                reference = chebyshev_algorithm(spec, kmax)
        got, want = [*closed[0], *closed[1][1:]], [*reference[0], *reference[1][1:]]
        assert len(got) == 2 * kmax and all(isinstance(x, mpmath.mpf) for x in got)
        assert all(abs(x - y) <= abs(y) * mpmath.mpf(10) ** -45 for x, y in zip(got, want))

    @pytest.mark.parametrize("spec,big", [(GUE, 23), (EnsembleSpec("lue", alpha=1), 23),
                                          (JUE_7_13, 23), (SW, 9),
                                          (EnsembleSpec("lue", alpha=mpmath.mpf("0.5")), 23)],
                             ids=lambda v: getattr(v, "kind", v))
    @pytest.mark.parametrize("grown", [True, False], ids=["small-then-big", "big-then-small"])
    def test_grown_system_equals_a_fresh_build(self, spec, big, grown, fresh_ortho):
        """One system per spec grows in place: K=5 after K=big reads a prefix
        (its ints weights over the prefix's own W), K=big after K=5 extends
        the chain, and each equals a build from empty caches."""
        first, then = (5, big) if grown else (big, 5)
        fresh = ortho_system(spec, then)
        fresh_ortho()
        ortho_system(spec, first)
        again = ortho_system(spec, then)
        assert again == fresh and _types(again) == _types(fresh)


def _module_caches():
    """Every module-level cache of the package, by module.name: the objects
    that carry cache_parameters."""
    import schurkernels.cli  # noqa: F401  (loads every module)
    return {f"{name.removeprefix('schurkernels.')}.{attr}": obj
            for name, mod in list(sys.modules.items())
            if name == "schurkernels" or name.startswith("schurkernels.")
            for attr, obj in vars(mod).items()
            if callable(getattr(obj, "cache_parameters", None))}


def _clear_caches():
    for cache in _module_caches().values():
        cache.cache_clear()


def _reals(v):
    """The mpfs in a cached value, in order: nested tuples, lists, maps and
    dataclasses."""
    if isinstance(v, mpmath.mpf):
        yield v
    elif isinstance(v, (tuple, list)):
        for x in v:
            yield from _reals(x)
    elif isinstance(v, MappingProxyType):
        yield from _reals(list(v.values()))
    elif dataclasses.is_dataclass(v):
        for f in dataclasses.fields(v):
            yield from _reals(getattr(v, f.name))


@pytest.fixture
def fresh_ortho():
    """Empties the orthogonal-system caches before and after a test, and
    gives the test the function that empties them."""
    def clear():
        ensembles.ortho_system.cache_clear()
        ensembles._ortho_chain.cache_clear()
    clear()
    yield clear
    clear()


def _types(osys):
    return ([type(h) for h in osys.norms], [[type(c) for c in p] for p in osys.ints[0]],
            [type(w) for w in osys.ints[1]], type(osys.ints[2]))


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
        # s_mu in M < l(mu) variables is the zero polynomial: an exact 0
        assert schur_avg_oracle(GUE, (1, 1, 1), 2) == 0
        for spec in (GUE, SW, EnsembleSpec("qlue", alpha=1)):
            assert schur_pair_avg_oracle(spec, (1,), (1, 1, 1), 2) == 0
            assert schur_pair_avg_oracle(spec, (1, 1, 1), (), 2) == 0
        assert schur_pair_avg_ginibre((1, 1, 1), (1, 1, 1), 2) == 0
        assert schur_average(SW, (1, 1), 1) == 0
        assert schur_average(EnsembleSpec("qlue", alpha=1), (1, 1), 1) == 0
        assert schur_avg_qlue((1, 1), 1, F(1, 2), F(1, 3)) == 0

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
        """mu in the column slot is the transposed determinant; it must give
        the closed form <s_mu> all the same."""
        for spec in (GUE, LUE0, EnsembleSpec("jue", alpha=1, beta=1), SW):
            for mu in pt.enumerate_bounded(2, 2):
                assert schur_pair_avg_oracle(spec, (), mu, 3) \
                    == schur_average(spec, mu, 3), (spec.kind, mu)

    def test_char_poly_oracle_at_m0_is_exact(self):
        """No variables: <det(x - Z)^n2> is the exact 1, not the float 1.0."""
        v = char_poly_moment_oracle(EnsembleSpec("lue", alpha=1), 0, 2, F(3))
        assert isinstance(v, F) and v == 1


class TestClosedForms:
    def test_gue_odd_size_vanishes(self):
        for mu in pt.enumerate_bounded(3, 3):
            if sum(mu) % 2:
                assert schur_average(GUE, mu, 4) == 0
                assert schur_avg_oracle(GUE, mu, 4) == 0

    def test_gue_balanced_parity_vanishing(self):
        # |mu| even but unbalanced parity blocks: the average still vanishes
        assert schur_average(GUE, (3, 2, 1), 3) == 0
        assert schur_avg_oracle(GUE, (3, 2, 1), 3) == 0

    def test_lue_single_box_is_m_m_plus_alpha(self):
        for m in (1, 2, 3):
            for a in (0, 1, 2):
                assert schur_average(EnsembleSpec("lue", alpha=a), (1,), m) == m * (m + a)

    def test_lue_integer_form_agrees(self):
        for mu in pt.enumerate_bounded(3, 3):
            for m in (3, 4):
                for a in (0, 1, 2):
                    assert schur_average(EnsembleSpec("lue", alpha=a), mu, m) \
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
        assert schur_average(EnsembleSpec("jue", alpha=0, beta=0), (1,), 1) == F(1, 2)

    def test_walks_equal_the_product_forms(self):
        """The single-partition walks against the per-partition product
        forms: the GUE parity blocks, and the hook-content dimension times
        the LUE/JUE row products; == and type Fraction.  SW and qLUE at
        alpha = 0, 1, 2 over Y(3,3) at M <= 8 against one hook-content
        `qratio` each: ==, the same type (QRat, or the Fraction 0 at
        l(mu) > M) and the same offset and coefficient lists."""
        lue = (0, 1, F(1, 2), F(9, 4))
        jue = ((1, 2), (F(7, 10), F(13, 10)), (F(-1, 2), F(15, 4)))
        for m in range(1, 7):
            for mu in pt.enumerate_bounded(min(m, 4), 4):
                pairs = [(schur_average(GUE, mu, m), schur_avg_gue_blocks(mu, m))]
                pairs += [(schur_average(EnsembleSpec("lue", alpha=a), mu, m),
                           schur_avg_row_products(mu, m, a)) for a in lue]
                pairs += [(schur_average(EnsembleSpec("jue", alpha=a, beta=b), mu, m),
                           schur_avg_row_products(mu, m, a, b)) for a, b in jue]
                for v, ref in pairs:
                    assert v == ref and type(v) is F, (mu, m)
        for m in range(1, 9):
            for mu in pt.enumerate_bounded(3, 3):
                pairs = [(schur_average(SW, mu, m), schur_avg_sw_hook_content(mu, m))]
                pairs += [(schur_average(EnsembleSpec("qlue", alpha=a), mu, m),
                           schur_avg_qlue_hook_content(mu, m, a)) for a in (0, 1, 2)]
                for v, ref in pairs:
                    assert v == ref and type(v) is type(ref), (mu, m)
                    if isinstance(v, QRat):
                        assert (v.offset, v.num, v.den) == (ref.offset, ref.num, ref.den)

    @pytest.mark.parametrize("mu", [(4, 3, 3, 2), (5, 5, 2, 2, 1, 1)])
    @pytest.mark.parametrize("spec", [GUE, EnsembleSpec("lue", alpha=F(1, 2)), JUE_7_13],
                             ids=lambda s: f"{s.kind}-{s.alpha}-{s.beta}")
    def test_walk_to_the_empty_partition_equals_the_andreief_oracle(self, spec, mu):
        """One average walks lam = mu' alone down to (), with no table built
        (mu' = (6, 4, 2, 2, 2) has five rows); at M = 8 it equals the
        Andreief determinant ratio under ==."""
        v = schur_average(spec, mu, 8)
        assert v == schur_avg_oracle(spec, mu, 8) and type(v) is F and v

    @pytest.mark.parametrize("params", [{"alpha": "0.5"}, {"alpha": "0.7", "beta": "1.3"}],
                             ids=str)
    def test_real_walk_keeps_every_digit(self, params):
        """Real LUE/JUE averages at 50 digits are within 1e-48 (relative) of
        the product form at 120 digits, both at the parameters' own binary
        values."""
        kind = "jue" if "beta" in params else "lue"
        spec = EnsembleSpec(kind, **{k: mpmath.mpf(v) for k, v in params.items()})
        for m, mu in ((4, (3, 3, 2)), (8, (4, 3, 3, 2)), (8, (5, 5, 2, 2, 1, 1))):
            v = schur_average(spec, mu, m)
            with mpmath.workdps(120):
                ref = schur_avg_row_products(mu, m, spec.alpha, spec.beta)
                assert abs(v - ref) <= abs(ref) * mpmath.mpf(10) ** -48, (m, mu)

    def test_jue_gamma_form_matches_integer(self):
        """At integer parameters the telescoped Gamma form is the dimension
        ratio s_mu(1^m) s_mu(1^(a+m)) / s_mu(1^(a+b+2m))."""
        for mu in pt.enumerate_bounded(3, 3):
            for m in (3, 4):
                for a in (0, 1, 2):
                    for b in (0, 1, 2):
                        assert schur_average(EnsembleSpec("jue", alpha=a, beta=b), mu, m) == (
                            schur_principal(mu, m) * schur_principal(mu, a + m)
                            / schur_principal(mu, a + b + 2 * m))

    def test_jue_rational_parameters_are_exact(self):
        spec = EnsembleSpec("jue", alpha=F(1, 2), beta=F(3, 2))
        for mu in pt.enumerate_bounded(3, 3):
            v = schur_average(EnsembleSpec("jue", alpha=F(1, 2), beta=F(3, 2)), mu, 3)
            assert isinstance(v, F)
            assert hp_close(v, schur_avg_oracle(spec, mu, 3))

    @pytest.mark.parametrize("spec", [
        EnsembleSpec("lue", alpha=F(1, 2)),
        EnsembleSpec("jue", alpha=F(1, 2), beta=F(3, 2)),
        EnsembleSpec("lue_tilde", alpha_tilde=F(25, 2)),
        EnsembleSpec("jue_tilde", alpha=F(1, 2), beta=F(19, 2), m=3),
        # the tilde domain's edges over Y(3,3) at M = 3, where the oracle's
        # moments m_0..m_(mu_1 + 2M - 2) are still finite:
        # alpha_tilde - 2M - 3 in {0, -1/3} and beta_t = 3
        EnsembleSpec("lue_tilde", alpha_tilde=9), EnsembleSpec("lue_tilde", alpha_tilde=F(26, 3)),
        EnsembleSpec("jue_tilde", alpha=2, beta=8, m=3),
        EnsembleSpec("jue_tilde", alpha=F(-1, 3), beta=F(17, 3), m=3),
    ])
    def test_oracle_is_exact_at_rational_parameters(self, spec):
        for mu in pt.enumerate_bounded(3, 3):
            assert schur_avg_oracle(spec, mu, 3) == schur_average(spec, mu, 3)

    def test_jue_mixed_rational_and_real_parameters(self):
        """One real parameter makes the value real; a rational alpha with a
        real beta must not divide a Fraction by an mpf."""
        for a, b in ((F(1, 2), mpmath.mpf("0.5")), (mpmath.mpf("0.5"), F(3, 2))):
            spec = EnsembleSpec("jue", alpha=a, beta=b)
            for mu in pt.enumerate_bounded(2, 2):
                assert hp_close(schur_average(EnsembleSpec("jue", alpha=a, beta=b), mu, 2),
                                schur_avg_oracle(spec, mu, 2))

    def test_jue_tilde_example(self):
        assert schur_average(EnsembleSpec("jue_tilde", alpha=0, beta=3, m=1), (1,), 1) \
            == F(1, 2)
        assert schur_average(EnsembleSpec("jue_tilde", alpha=1, beta=5, m=2), (1,), 2) == 3

    def test_jue_tilde_zero_dimension_errors(self):
        with pytest.raises(ValueError):
            # beta_t = 2 < mu_1
            schur_average(EnsembleSpec("jue_tilde", alpha=0, beta=3, m=1), (3,), 1)

    def test_lue_tilde_example(self):
        spec = EnsembleSpec("lue_tilde", alpha_tilde=4)
        assert schur_average(spec, (1,), 1) == schur_avg_oracle(spec, (1,), 1)
        assert schur_average(spec, (1,), 1) == F(1, 2)

    def test_lue_tilde_divergence(self):
        with pytest.raises(ValueError):
            schur_average(EnsembleSpec("lue_tilde", alpha_tilde=6), (3, 3), 2)

    def test_tilde_walks_equal_the_product_forms(self):
        """The inverse-kind single walks against their per-partition product
        forms over Y(4,5) at M <= 5: integer and rational parameters, alpha
        < 0 with alpha + M < l(mu) (where s_mu(1^(alpha+M)) is the
        hook-content polynomial, not 0), and the domain's edges (beta_t = 5,
        alpha_tilde - 2M - 5 in {0, -1/2, -1/3}); == and type Fraction."""
        for m in range(1, 6):
            jue = [(0, m + 5), (1, m + 6), (F(1, 2), F(1, 2) + m + 5),
                   (F(-1, 3), F(-1, 3) + m + 5), (F(-2, 3), F(7, 2) + m + 2)]
            lue = [2 * m + 5, 30, F(4 * m + 9, 2), F(6 * m + 14, 3)]
            for mu in pt.enumerate_bounded(4, 5):
                pairs = [(schur_average(EnsembleSpec("jue_tilde", alpha=a, beta=b, m=m), mu, m),
                          schur_avg_jue_tilde_principal(mu, m, a, b)) for a, b in jue]
                pairs += [(schur_average(EnsembleSpec("lue_tilde", alpha_tilde=at), mu, m),
                           schur_avg_lue_tilde_complement(mu, m, at)) for at in lue]
                for v, ref in pairs:
                    assert v == ref and type(v) is F, (mu, m)

    def test_real_lue_tilde_average_keeps_every_digit(self):
        """An mpf alpha_tilde walks on the reals under the guard digits of
        `schur_average`: at 50 digits the average is within 1e-49 of the
        product form at the mpf's own binary value and agrees with the
        Andreief oracle."""
        at = mpmath.mpf("20.3")
        spec, exact_at = EnsembleSpec("lue_tilde", alpha_tilde=at), F(at.man) * F(2) ** at.exp
        for m in (3, 5):
            for mu in pt.enumerate_bounded(3, 4):
                value = schur_average(spec, mu, m, dps=50)
                ref = schur_avg_lue_tilde_complement(mu, m, exact_at)
                with mpmath.workdps(200):
                    value, ref = to_mpf(value), to_mpf(ref)
                    assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -49, mu
                assert hp_close(value, schur_avg_oracle(spec, mu, m))

    def test_sw_examples(self):
        assert schur_average(SW, (1,), 1) == QRat.u_power(-3)
        assert schur_average(SW, (1,), 2) \
            == QRat.u_power(-6) * (QRat.u_power(-1) + QRat.u_power(1))

    def test_qlue_m1_example(self):
        assert schur_average(EnsembleSpec("qlue", alpha=0), (1,), 1) == QRat.q_power(-1)

    @pytest.mark.parametrize("alpha", range(4))
    def test_qlue_integer_closed_form_equals_oracle(self, alpha):
        spec = EnsembleSpec("qlue", alpha=alpha)
        for m in range(1, 6):
            for mu in pt.enumerate_bounded(min(m, 3), 3):
                assert schur_average(spec, mu, m) == schur_avg_oracle(spec, mu, m), (mu, m)

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
        for spec in (GUE, EnsembleSpec("lue", alpha=1), EnsembleSpec("jue", alpha=1, beta=2),
                     EnsembleSpec("jue_tilde", alpha=0, beta=m + 4, m=m),
                     EnsembleSpec("lue_tilde", alpha_tilde=2 * m + 6), SW,
                     EnsembleSpec("qlue", alpha=1)):
            assert schur_average(spec, mu, m) == schur_avg_oracle(spec, mu, m), spec.kind


class TestRealParameterPaths:
    def test_lue_half(self):
        with mpmath.workdps(50):
            a = mpmath.mpf(1) / 2
            c = schur_average(EnsembleSpec("lue", alpha=a), (2, 1), 3)
            o = schur_avg_oracle(EnsembleSpec("lue", alpha=a), (2, 1), 3)
            assert hp_close(c, o)

    def test_qlue_real_alpha(self):
        with mpmath.workdps(50):
            q = mpmath.mpf(1) / 2
            a = mpmath.mpf("1.5")
            spec = EnsembleSpec("qlue", alpha=a, q=q)
            for mu in pt.enumerate_bounded(3, 3):
                c = schur_avg_qlue(mu, 3, a, q)
                assert hp_close(c, schur_avg_oracle(spec, mu, 3))

    @pytest.mark.parametrize("alpha,q", [(F(1, 2), F(1, 3)), (F(1, 2), F(9, 10)),
                                         (F(9, 4), F(7, 10)), (mpmath.mpf("0.5"), F(1, 3)),
                                         (F(1, 2), mpmath.mpf(1) / 3)], ids=str)
    def test_real_alpha_qlue_keeps_every_digit(self, alpha, q):
        """Real-alpha qLUE evaluates dim_q on integers at q = a/b with the
        one real power q^-alpha: at 50 digits it keeps 49 against the
        Andreief oracle at 150, whose moments take one power per factor."""
        spec = EnsembleSpec("qlue", alpha=alpha, q=q)
        for m in (3, 4, 6):
            for mu in pt.enumerate_bounded(3, 3):
                value = schur_average(spec, mu, m, "closed", dps=50)
                with mpmath.workdps(150):
                    ref = schur_average(spec, mu, m, "oracle")
                    assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -49, (m, mu)

    def test_jue_tilde_closed_form_needs_rational_parameters(self):
        """The inverse-Jacobi closed form is a ratio of principal
        specializations, defined here at rational parameters: a real alpha
        is one clean error."""
        spec = EnsembleSpec("jue_tilde", alpha=mpmath.mpf("0.5"), beta=7, m=2)
        with pytest.raises(ValueError, match="needs rational alpha and beta"):
            schur_average(spec, (1,), 2)

    def test_qlue_approaches_lue_as_q_to_1(self):
        """qLUE -> LUE: deviation shrinks as 1 - q does."""
        with mpmath.workdps(50):
            a = 1
            target = F(schur_average(EnsembleSpec("lue", alpha=a), (1,), 2))
            devs = []
            for qs in ("0.9", "0.99", "0.999"):
                q = mpmath.mpf(qs)
                got = schur_average(EnsembleSpec("qlue", alpha=a), (1,), 2)
                got = got.eval_u(mpmath.sqrt(q))
                devs.append(abs(got - mpmath.mpf(target.numerator) / target.denominator))
            assert devs[0] > devs[1] > devs[2]

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    @pytest.mark.parametrize("m,mu", [(4, (3, 3, 2)), (6, (3, 2, 2, 1)), (8, (3,) * 7)],
                             ids=["4", "6", "8"])
    def test_real_average_keeps_every_digit(self, m, mu, method):
        """A real average works 2M + 5 digits above the precision and is
        rounded once to it: JUE alpha=0.7 beta=1.3 at 50 digits keeps 49
        against the exact closed form at the mpf's own binary parameters.
        Working at 50 digits the oracle kept 47.5 at M = 4, 43.6 at M = 6
        and 40.9 at M = 8."""
        with mpmath.workdps(50):
            spec = EnsembleSpec("jue", alpha=mpmath.mpf("0.7"), beta=mpmath.mpf("1.3"))
            value = schur_average(spec, mu, m, method)
            assert +value == value
        a, b = (F(man) * F(2) ** exp for man, exp in (spec.alpha.man_exp, spec.beta.man_exp))
        exact = schur_average(EnsembleSpec("jue", alpha=a, beta=b), mu, m)
        with mpmath.workdps(200):
            ref = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(value - ref) <= abs(ref) * mpmath.mpf(10) ** -49

    def test_exact_average_takes_no_precision_context(self, monkeypatch):
        """An exact spec runs as it is, dps or not: no mpmath context."""
        monkeypatch.setattr(mpmath, "workdps", None)
        monkeypatch.setattr(mpmath, "extradps", None)
        for method in ("closed", "oracle"):
            for dps in (None, 120):
                assert schur_average(LUE0, (1,), 2, method, dps) == 4

    def test_dps_argument_sets_the_precision(self):
        """schur_average(..., dps=120) computes at 120 digits whatever the
        caller's precision (here 50), on the closed route too."""
        spec = EnsembleSpec("lue", alpha=mpmath.mpf("0.3"))
        got = schur_average(spec, (2, 1), 3, "closed", dps=120)
        with mpmath.workdps(120):
            ref = schur_average(spec, (2, 1), 3, "closed")
            assert abs(got - ref) <= abs(ref) * mpmath.mpf(10) ** -110


class TestJackCoefficient:
    def test_empty(self):
        assert jack_avg_jacobi_coeff((), 3, 1, 2, F(3, 2), 1) == 1

    def test_gamma_one_reduces_to_jue(self):
        for nu in pt.enumerate_bounded(2, 2):
            assert jack_avg_jacobi_coeff(nu, 2, 0, 0, 1, 1) \
                == schur_average(EnsembleSpec("jue", alpha=0, beta=0), nu, 2)
            assert jack_avg_jacobi_coeff(nu, 3, 1, 0, 1, 2) \
                == schur_average(EnsembleSpec("jue", alpha=1, beta=0), nu, 3)

    def test_rational_gamma_value_is_exact(self):
        v = jack_avg_jacobi_coeff((2, 1), 3, 1, 2, F(1, 2), 2)
        assert isinstance(v, F)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            jack_avg_jacobi_coeff((3,), 3, 0, 0, 1, 1)  # nu_1 > 2n


class TestCachedValuesAreImmutable:
    """lru_cache hands one object to every caller, so none may be mutable."""

    def test_ortho_system(self):
        osys = ortho_system(LUE0, 3)
        assert isinstance(osys.ints, tuple) and isinstance(osys.norms, tuple)
        with pytest.raises(AttributeError):
            osys.norms = ()
        assert ortho_system(LUE0, 3) is osys

    def test_expansion_table(self):
        from schurkernels.kernels import expansion_table
        table = expansion_table(LUE0, 4, 1)
        with pytest.raises(TypeError):
            table.coeffs[()] = 0
        assert expansion_table(LUE0, 4, 1) is table
        assert _nested_tuples(table.ints)

    def test_ortho_system_int_form(self):
        assert _nested_tuples(ortho_system(LUE0, 3).ints)

    def test_pair_cofactors(self):
        from schurkernels.ensembles import pair_cofactors
        cof = pair_cofactors(LUE0, 2, 3)
        with pytest.raises(TypeError):
            cof[0][0] = ()
        assert _nested_tuples(cof)
        assert pair_cofactors(LUE0, 2, 3) is cof


def _nested_tuples(v) -> bool:
    """v holds no list, dict or other mutable container at any depth."""
    if isinstance(v, tuple):
        return all(_nested_tuples(x) for x in v)
    return isinstance(v, (int, F, MappingProxyType))


PAIR_SPECS = {"gue": GUE, "lue1": EnsembleSpec("lue", alpha=1),
              "jue11": EnsembleSpec("jue", alpha=1, beta=1),
              "jue_half": EnsembleSpec("jue", alpha=F(1, 2), beta=F(3, 2)),
              "sw": SW, "qlue1": EnsembleSpec("qlue", alpha=1),
              "lue_half_real": EnsembleSpec("lue", alpha=mpmath.mpf("0.5")),
              "qlue_half_real": EnsembleSpec("qlue", alpha=mpmath.mpf("0.5"), q=F(1, 3))}
# (M, n): every pair of Y_{n,M}.  qLUE and the reals run smaller sizes: the
# exact qLUE per-pair oracle determinant costs about 1.7 s at M = 8 and 40 ms
# at M = 6, and the real oracle is itself a real determinant
SMALL_PAIRS = ("qlue1", "lue_half_real", "qlue_half_real")
PAIR_SIZES = [(name, size) for name in PAIR_SPECS
              for size in ((5, 1), (4, 2), (2, 3)) if name in SMALL_PAIRS] + \
             [(name, size) for name in PAIR_SPECS if name not in SMALL_PAIRS
              for size in ((8, 1), (6, 2), (4, 3))]


class TestPairCofactorForm:
    def test_rational_rows_in_lowest_terms(self):
        """The ints keep no common factor, and () x () is the denominator."""
        from schurkernels.ensembles import pair_cofactors
        for spec in (PAIR_SPECS["lue1"], PAIR_SPECS["jue_half"]):
            rows, den = pair_cofactors(spec, 2, 4)
            assert den == rows[0][0] > 0 and math.gcd(*(c for row in rows for c in row)) == 1


class TestPairCofactors:
    @pytest.mark.parametrize("name,size", PAIR_SIZES,
                             ids=[f"{n}-M{m}-n{k}" for n, (m, k) in PAIR_SIZES])
    def test_every_pair_equals_the_determinant_oracle(self, name, size):
        from schurkernels.ensembles import pair_cofactors
        from schurkernels.scalars import recip
        spec, (m, n) = PAIR_SPECS[name], size
        rows, den = pair_cofactors(spec, n, m)
        parts = pt.enumerate_bounded(n, m)
        assert len(rows) == len(parts) and all(len(row) == len(parts) for row in rows)
        inv = recip(den)
        for i, lam in enumerate(parts):
            for j, mu in enumerate(parts):
                # H is symmetric, so the oracle is symmetric in (lam, mu): one
                # oracle call covers both orders once the numerators agree
                assert rows[i][j] == rows[j][i], (lam, mu)
                if lam <= mu and isinstance(den, mpmath.mpf):
                    # the same body on the reals, at 50 digits
                    assert hp_close(rows[i][j] * inv, schur_pair_avg_oracle(
                        spec, pt.conjugate(lam), pt.conjugate(mu), m)), (lam, mu)
                elif lam <= mu:
                    assert rows[i][j] * inv == schur_pair_avg_oracle(
                        spec, pt.conjugate(lam), pt.conjugate(mu), m), (lam, mu)
