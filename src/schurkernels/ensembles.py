"""Matrix-ensemble data: moments, Hankel determinants, orthogonal polynomials,
the Andreief determinant-ratio oracle, and closed-form Schur averages for
the Gaussian, Laguerre, Jacobi, inverse-Jacobi, inverse-Laguerre,
Stieltjes-Wigert, q-Laguerre and Ginibre ensembles.

Every closed form is cross-validated against `schur_avg_oracle`, which
reduces the M-fold average to a ratio of moment determinants.  Both the
numerator and the denominator of the oracle use the same row scheme
(exponents mu_j + M - j + (k-1), the denominator at mu = empty); using the
plain Hankel ordering for the denominator alone would flip the sign by
(-1)^floor(M/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import mpmath

from . import partitions as pt
from .scalars import (DEFAULT_DPS, Poly, QRat, binom, det_exact,
                      double_factorial, factorial, gamma_real, parse_number,
                      poch, qgamma_real, qnum_floor, to_mpf,
                      with_working_precision)
from .symfun import qdim, schur_principal

KINDS = ("gue", "lue", "jue", "jue_tilde", "lue_tilde", "sw", "qlue", "ginibre")


@dataclass(frozen=True)
class EnsembleSpec:
    """Identifies an ensemble and its parameter values.

    Parameters are ints (exact), Fractions (exact rational) or mpf (real).
    `m` is required for jue_tilde, whose weight (1+z)^-(M+beta) depends on
    the number of variables.  `q` is the numeric q for real-parameter
    evaluations; exact SW/qLUE work is symbolic in u = q^(1/2).
    """

    kind: str
    alpha: object = None
    beta: object = None
    alpha_tilde: object = None
    q: object = None
    m: int = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        missing = [k for k in _REQUIRED.get(self.kind, ()) if getattr(self, k) is None]
        if missing:
            raise ValueError(f"{self.kind} needs {' and '.join(missing)}")
        if self.kind == "lue" and not (self.alpha > -1):
            raise ValueError("lue needs alpha > -1")
        if self.kind == "jue" and (not (self.alpha > -1) or not (self.beta > -1)):
            raise ValueError("jue needs alpha, beta > -1")
        if self.q is not None and not (0 < self.q < 1):
            raise ValueError("q must be in (0, 1)")

    def to_json(self) -> dict:
        """JSON form with parameters as "p/q" or decimal strings."""
        out = {"kind": self.kind}
        for key in ("alpha", "beta", "alpha_tilde", "q"):
            v = getattr(self, key)
            if v is not None:
                out[key] = _param_str(v)
        if self.m is not None:
            out["m"] = self.m
        return out


#: parameters each kind cannot do without
_REQUIRED = {"lue": ("alpha",), "jue": ("alpha", "beta"),
             "jue_tilde": ("alpha", "beta", "m"), "lue_tilde": ("alpha_tilde",),
             "qlue": ("alpha",)}


def _param_str(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return mpmath.nstr(v, mpmath.mp.dps)


def spec_from_json(data: dict, dps: int = DEFAULT_DPS) -> EnsembleSpec:
    """Parse {"kind": ..., "alpha": "p/q" | "decimal", ...}; integers stay
    exact, "p/q" becomes Fraction, decimal strings become HPReal."""
    kwargs = {key: parse_number(str(data[key]), dps)
              for key in ("alpha", "beta", "alpha_tilde", "q") if key in data}
    if "m" in data:
        kwargs["m"] = int(data["m"])
    return EnsembleSpec(data["kind"], **kwargs)


def moment(spec: EnsembleSpec, p: int, dps: int = DEFAULT_DPS):
    """Moment m_p of the ensemble weight, exact where the parameters allow.

    GUE moments are for the normalized weight (m_0 = 1); qLUE moments are
    normalized to m_0 = 1.  Normalization constants cancel in every
    determinant ratio.
    """
    if p < 0:
        raise ValueError("moment needs p >= 0")
    return _moment_cached(spec, p, dps)


@lru_cache(maxsize=4096)
@with_working_precision
def _moment_cached(spec: EnsembleSpec, p: int, dps: int):
    kind = spec.kind
    if kind == "gue":
        return Fraction(0) if p % 2 else Fraction(double_factorial(p - 1))
    if kind == "lue":
        a = spec.alpha
        if isinstance(a, int):
            return Fraction(factorial(a + p))
        return gamma_real(to_mpf(a) + 1 + p, dps)
    if kind == "jue":
        a, b = spec.alpha, spec.beta
        if isinstance(a, int) and isinstance(b, int):
            return Fraction(factorial(p + a) * factorial(b),
                            factorial(p + a + b + 1))
        return (gamma_real(to_mpf(a) + p + 1, dps)
                * gamma_real(to_mpf(b) + 1, dps)
                / gamma_real(to_mpf(a) + to_mpf(b) + p + 2, dps))
    if kind == "jue_tilde":
        a, b, m = spec.alpha, spec.beta, spec.m
        if isinstance(a, int) and isinstance(b, int):
            top = m - p - a + b - 1
            if top <= 0:
                raise ValueError(f"jue_tilde moment diverges at p = {p}")
            return Fraction(factorial(p + a) * factorial(top - 1),
                            factorial(m + b - 1))
        return (gamma_real(p + to_mpf(a) + 1, dps)
                * gamma_real(m - p - to_mpf(a) + to_mpf(b) - 1, dps)
                / gamma_real(m + to_mpf(b), dps))
    if kind == "lue_tilde":
        at = spec.alpha_tilde
        if isinstance(at, int):
            if at - p - 1 <= 0:
                raise ValueError(f"lue_tilde moment diverges at p = {p}")
            return Fraction(factorial(at - p - 2))
        return gamma_real(to_mpf(at) - p - 1, dps)
    if kind == "sw":
        return QRat.u_power(-((p + 1) ** 2))
    if kind == "qlue":
        a = spec.alpha
        if isinstance(a, int):
            r = QRat.const(1)
            for s in range(1, p + 1):
                r = r * (-qnum_floor(-(a + s)))
            return r
        if spec.q is None:
            raise ValueError("real-alpha qlue moments need a numeric q")
        av = to_mpf(a)
        return (gamma_real(-p - av, dps) * gamma_real(p + av + 1, dps)
                / qgamma_real(-p - av, to_mpf(spec.q), dps))
    raise ValueError(f"moments not defined for kind {kind!r}")


class MomentTable:
    """Lazily extended table p -> m_p for one ensemble.

    Entries are deterministic, so concurrent extension is harmless
    (worst case a value is recomputed).
    """

    def __init__(self, spec: EnsembleSpec, dps: int = DEFAULT_DPS):
        self.spec = spec
        self.dps = dps
        self._cache: dict[int, object] = {}

    def get(self, p: int):
        v = self._cache.get(p)
        if v is None:
            v = moment(self.spec, p, self.dps)
            self._cache.setdefault(p, v)
        return v


@with_working_precision
def hankel_det(spec: EnsembleSpec, m: int, dps: int = DEFAULT_DPS):
    """det[m_{j+k}], 0 <= j,k <= m-1; equals the partition function."""
    if m == 0:
        return 1
    return _moment_det(MomentTable(spec, dps), range(m), range(m))


def _moment_det(mom: MomentTable, rows, cols):
    """det[m_{a+b}] for a in rows (row order) and b in cols (column order)."""
    return det_exact([[mom.get(a + b) for b in cols] for a in rows])


@dataclass
class OrthoSystem:
    """Monic orthogonal polynomials P_0..P_K and their norms h_0..h_K."""

    spec: EnsembleSpec
    polys: list
    norms: list


@with_working_precision
def ortho_system(spec: EnsembleSpec, kmax: int, dps: int = DEFAULT_DPS) -> OrthoSystem:
    """Gram-Schmidt on the moment bilinear form <z^a, z^b> = m_{a+b}."""
    mom = MomentTable(spec, dps)

    def inner(pa: Poly, pb: Poly):
        r = 0
        for i, ca in enumerate(pa.coeffs):
            if ca:
                for j, cb in enumerate(pb.coeffs):
                    if cb:
                        r = r + ca * cb * mom.get(i + j)
        return r

    polys, norms = [], []
    for k in range(kmax + 1):
        p = Poly([0] * k + [1])
        for j in range(k):
            c = inner(p, polys[j]) / norms[j]
            p = p - polys[j] * c
        h = inner(p, p)
        if not h:
            raise ValueError(f"degenerate measure: zero norm at degree {k}")
        polys.append(p)
        norms.append(h)
    return OrthoSystem(spec, polys, norms)


# ----------------------------------------------------------------------------
# Andreief determinant-ratio oracles
# ----------------------------------------------------------------------------

@with_working_precision
def schur_avg_oracle(spec: EnsembleSpec, mu, m: int, dps: int = DEFAULT_DPS):
    """<s_mu> as a ratio of M x M moment determinants (Andreief).

    Row j of the numerator uses exponents mu_j + M - j + (k-1); the
    denominator uses the same scheme at mu = empty.
    """
    mu = pt.canonical(mu)
    if len(mu) > m:
        raise ValueError(f"oracle needs l(mu) <= {m}")
    if m == 0:
        return Fraction(1)
    mom = MomentTable(spec, dps)
    num = _moment_det(mom, [pt.part(mu, j) + m - j for j in range(1, m + 1)], range(m))
    den = _moment_det(mom, [m - j for j in range(1, m + 1)], range(m))
    return num / den


@with_working_precision
def schur_pair_avg_oracle(spec: EnsembleSpec, lam, mu, m: int,
                          dps: int = DEFAULT_DPS):
    """<s_lam s_mu> by a two-insertion Andreief determinant.

    Delta^2 s_lam s_mu = det[z_k^(lam_j+M-j)] det[z_k^(mu_j+M-j)], so the
    average is det[m_{a_j + b_k}] over the shifted exponent sets, divided
    by the same determinant at lam = mu = empty.
    """
    lam, mu = pt.canonical(lam), pt.canonical(mu)
    if len(lam) > m or len(mu) > m:
        raise ValueError(f"pair oracle needs l <= {m}")
    if m == 0:
        return Fraction(1)
    mom = MomentTable(spec, dps)
    a = [pt.part(lam, j) + m - j for j in range(1, m + 1)]
    b = [pt.part(mu, k) + m - k for k in range(1, m + 1)]
    a0 = [m - j for j in range(1, m + 1)]
    return _moment_det(mom, a, b) / _moment_det(mom, a0, a0)


@with_working_precision
def char_poly_moment_oracle(spec: EnsembleSpec, m: int, n2: int, x,
                            dps: int = DEFAULT_DPS):
    """<det(x - Z)^n2> via Andreief with binomially modified moments."""
    mom = MomentTable(spec, dps)

    def modified(e):
        r = 0
        for l in range(n2 + 1):
            term = Fraction((-1) ** l * binom(n2, l)) * x ** (n2 - l) * mom.get(e + l)
            r = r + term
        return r

    num = det_exact([[modified(j + k) for k in range(m)] for j in range(m)])
    return num / _moment_det(mom, range(m), range(m))


# ----------------------------------------------------------------------------
# closed-form Schur averages
# ----------------------------------------------------------------------------

def schur_avg_gue(mu, m: int) -> Fraction:
    """GUE Schur average, via the parity-block evaluation of the moment
    determinant (Di Francesco-Itzykson type formula).

    With L = l(mu) padded to even length and l_j = mu_j + L - j, the average
    is c(mu) * s_mu(1^m) where c(mu) collects double factorials of the l_j,
    plain products of cross-parity differences, and the explicit signs of
    the row/column permutations that split the determinant into its even
    and odd moment blocks.  Vanishes when |mu| is odd or the parity counts
    of the l_j are unbalanced.
    """
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    if sum(mu) % 2:
        return Fraction(0)
    big_l = len(mu) + (len(mu) % 2)
    if big_l == 0:
        return Fraction(1)
    l = [pt.part(mu, j) + big_l - j for j in range(1, big_l + 1)]
    l0 = [big_l - j for j in range(1, big_l + 1)]
    c_mu = _gue_block_coeff(l)
    c_0 = _gue_block_coeff(l0)
    if c_mu is None or c_0 is None:
        return Fraction(0)
    return (c_mu / c_0) * schur_principal(mu, m)


def _gue_block_coeff(l: list) -> Fraction | None:
    odd = [x for x in l if x % 2]
    even = [x for x in l if x % 2 == 0]
    if len(odd) != len(even):
        return None
    # sign of moving even-l rows in front of odd-l rows, order preserved
    inv = 0
    seen_odd = 0
    for x in l:
        if x % 2:
            seen_odd += 1
        else:
            inv += seen_odd
    sign = -1 if inv % 2 else 1
    num = Fraction(1)
    for x in odd:
        num *= double_factorial(x)
    for x in even:
        num *= double_factorial(x - 1)
    cross = Fraction(1)
    for i, a in enumerate(l):
        for b in l[i + 1:]:
            if (a - b) % 2:
                cross *= a - b
    return sign * num / cross


def schur_avg_lue(mu, m: int, alpha):
    """LUE: s_mu(1^m) prod_j Gamma(alpha+mu_j+m+1-j)/Gamma(alpha+m+1-j).

    The Gamma ratios are rising factorials, so the value is exact for any
    exact alpha and a high-precision real otherwise.
    """
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    r = schur_principal(mu, m)
    for j in range(1, m + 1):
        r = r * poch(alpha + m + 1 - j, pt.part(mu, j))
    return r


def schur_avg_lue_int_form(mu, m: int, alpha: int):
    """Integer-alpha LUE variant: s_mu(1^(m+alpha)) prod_j poch(m+1-j, mu_j)."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    r = schur_principal(mu, m + alpha)
    for j in range(1, m + 1):
        r = r * poch(m + 1 - j, pt.part(mu, j))
    return r


def lue_alpha_shift_pair(mu, m: int, alpha: int):
    """Both sides of the alpha-shift identity

        <s_mu>_{LUE,alpha} = <s_{mu+(alpha^m)}>_{LUE,0} / <s_{(alpha^m)}>_{LUE,0},

    obtained by absorbing z^alpha of the weight into the Schur polynomial.
    The mu-independent coefficient is 1/<s_{(alpha^m)}>_{LUE,0}
    = prod_j Gamma(m+1-j)/Gamma(alpha+m+1-j); the often-quoted shortcut
    prod_j (alpha+m-j)^-j agrees with it only for m <= 2.
    """
    mu = pt.canonical(mu)
    if len(mu) > m:
        raise ValueError("alpha-shift identity needs l(mu) <= m")
    lhs = schur_avg_lue(mu, m, alpha)
    shifted = pt.canonical(tuple(pt.part(mu, j) + alpha for j in range(1, m + 1)))
    rhs = schur_avg_lue(shifted, m, 0) / schur_avg_lue((alpha,) * m, m, 0)
    return lhs, rhs


def schur_avg_jue(mu, m: int, alpha, beta, dps: int = DEFAULT_DPS):
    """JUE: dimension-ratio form for integer parameters, Gamma form else."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    if isinstance(alpha, int) and isinstance(beta, int):
        return (schur_principal(mu, m) * schur_principal(mu, alpha + m)
                / schur_principal(mu, alpha + beta + 2 * m))
    return schur_avg_jue_gamma_form(mu, m, alpha, beta, dps)


@with_working_precision
def schur_avg_jue_gamma_form(mu, m: int, alpha, beta, dps: int = DEFAULT_DPS):
    """JUE Gamma form, valid at non-integer parameters:
    s_mu(1^m) prod_j G(mu_j-j+a+m+1) G(a+b+2m+1-j) / (G(mu_j-j+a+b+2m+1) G(a+m+1-j))."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return 0
    a, b = to_mpf(alpha), to_mpf(beta)
    r = to_mpf(schur_principal(mu, m))
    for j in range(1, m + 1):
        mj = pt.part(mu, j)
        r *= (gamma_real(mj - j + a + m + 1, dps)
              * gamma_real(a + b + 2 * m + 1 - j, dps)
              / gamma_real(mj - j + a + b + 2 * m + 1, dps)
              / gamma_real(a + m + 1 - j, dps))
    return r


def schur_avg_jue_tilde(mu, m: int, alpha: int, beta: int):
    """JUE-tilde: s_mu(1^m) s_mu(1^(alpha+m)) / s_mu'(1^beta_t),
    beta_t = beta - alpha - m >= 0; needs mu_1 <= beta_t."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    bt = beta - alpha - m
    if bt < 0:
        raise ValueError("jue_tilde average needs beta - alpha - m >= 0")
    if mu and mu[0] > bt:
        raise ValueError("jue_tilde average: mu_1 > beta_t (zero dimension)")
    return (schur_principal(mu, m) * schur_principal(mu, alpha + m)
            / schur_principal(pt.conjugate(mu), bt))


def schur_avg_lue_tilde(nu, m: int, alpha_tilde):
    """Inverse-Laguerre (LUE-tilde) Schur average.

    Mapping z -> 1/z sends the weight z^-at e^(-1/z) to an effective LUE
    with alpha_base = at - 2m, and s_nu(1/z) = s_nu*(z) prod z^-nu_1 with
    nu* the reversed complement in the m x nu_1 rectangle.  Absorbing the
    extra power into the weight shifts alpha by nu_1 and leaves a
    partition-function ratio:

        <s_nu> = [prod_j Gamma(ab-nu_1+j)/Gamma(ab+j)] <s_nu*>_{LUE, ab-nu_1}

    with ab = alpha_tilde - 2m.  (The bare reduction without the
    partition-function ratio fails already at m = 1.)
    """
    nu = pt.canonical(nu)
    if len(nu) > m:
        return Fraction(0)
    ell = nu[0] if nu else 0
    abase = alpha_tilde - 2 * m
    if not (abase - ell > -1):
        raise ValueError("lue_tilde average diverges: alpha_tilde too small")
    nustar = pt.rectangle_complement(nu, m, ell)
    pref = Fraction(1)
    for j in range(1, m + 1):
        p = poch(abase - ell + j, ell)
        pref = pref / p if isinstance(p, (int, Fraction)) else pref * (1 / p)
    return pref * schur_avg_lue(nustar, m, abase - ell)


def schur_avg_sw(mu, m: int) -> QRat:
    """Stieltjes-Wigert: q^(-1/2 sum mu_j (mu_j + 3m + 1 - 2j)) dim_q mu."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        raise ValueError(f"sw average needs l(mu) <= {m}")
    e = sum(pt.part(mu, j) * (pt.part(mu, j) + 3 * m + 1 - 2 * j)
            for j in range(1, m + 1))
    return QRat.u_power(-e) * qdim(mu, m)


@with_working_precision
def schur_avg_qlue(mu, m: int, alpha, q=None, dps: int = DEFAULT_DPS):
    """q-Laguerre Schur average.

    Integer alpha: exact QRat.  The Gamma/Gamma_q ratios of the closed form
    telescope under Gamma(z+1) = z Gamma(z) and Gamma_q(z+1) = |z|_q
    Gamma_q(z) into the moment-recursion products

        prod_j m_{mu_j+m-j}/m_{j-1},  m_p = prod_{s<=p} (-|-(alpha+s)|_q),

    times q^(-(m-1)|mu|/2) dim_q(mu), with no singular factor evaluated.

    Real alpha: the closed form evaluated verbatim in high precision
    (Gamma and Gamma_q at negative non-integer arguments).
    """
    mu = pt.canonical(mu)
    if len(mu) > m:
        raise ValueError(f"qlue average needs l(mu) <= {m}")
    if isinstance(alpha, int):
        r = QRat.u_power(-(m - 1) * sum(mu)) * qdim(mu, m)
        for j in range(1, m + 1):
            r = r * _qlue_moment_ratio(alpha, pt.part(mu, j) + m - j, j - 1)
        return r
    if q is None:
        raise ValueError("real-alpha qlue average needs a numeric q")
    a, qv = to_mpf(alpha), to_mpf(q)
    u = mpmath.sqrt(qv)
    r = qv ** (-(m - 1) * mpmath.mpf(sum(mu)) / 2) * qdim(mu, m).eval_u(u)
    for j in range(1, m + 1):
        mj = pt.part(mu, j)
        r *= (gamma_real(a + 1 + mj + m - j, dps)
              * gamma_real(-a - mj - m + j, dps)
              / gamma_real(a + j, dps) / gamma_real(-a - j + 1, dps))
        r *= (qgamma_real(-a - j + 1, qv, dps)
              / qgamma_real(-a - mj - m + j, qv, dps))
    return r


def _qlue_moment_ratio(alpha: int, a: int, b: int) -> QRat:
    """m_a / m_b for integer-alpha qLUE moments."""
    if a >= b:
        r = QRat.const(1)
        for s in range(b + 1, a + 1):
            r = r * (-qnum_floor(-(alpha + s)))
        return r
    return _qlue_moment_ratio(alpha, b, a).inverse()


def schur_pair_avg_ginibre(lam, mu, m: int):
    """Complex Ginibre: <s_lam conj(s_mu)> = delta_{lam,mu} prod_j
    Gamma(m-j+1+lam_j)/Gamma(m-j+1)."""
    lam, mu = pt.canonical(lam), pt.canonical(mu)
    if len(lam) > m or len(mu) > m:
        raise ValueError(f"ginibre pair average needs l <= {m}")
    if lam != mu:
        return Fraction(0)
    r = Fraction(1)
    for j in range(1, m + 1):
        r *= poch(m - j + 1, pt.part(lam, j))
    return r


def jack_avg_jacobi_coeff(nu, m: int, alpha, beta, gamma, n: int):
    """Kadell's Jack average in the Jacobi (2 gamma)-ensemble, as the triple
    Pochhammer product over the rows of nu = lam'.

    At gamma = 1 it must coincide with schur_avg_jue(nu, m, alpha, beta).
    """
    nu = pt.canonical(nu)
    if nu and nu[0] > 2 * n:
        raise ValueError("jack coefficient needs nu_1 <= 2n")
    if len(nu) > m:
        raise ValueError("jack coefficient needs l(nu) <= m")
    lam1 = len(nu)
    r = Fraction(1)
    for j in range(1, 2 * n + 1):
        nj = pt.part(nu, j)
        den = poch(alpha + beta + 2 + gamma * (2 * m - j - 1), nj)
        if not den:
            raise ValueError("singular Pochhammer in jack coefficient")
        r = r * poch(alpha + 1 + gamma * (m - j), nj) / den
    for j in range(1, lam1 + 1):
        for k in range(j + 1, lam1 + 1):
            d = pt.part(nu, j) - pt.part(nu, k)
            den = poch(gamma * (k - j), d)
            if not den:
                raise ValueError("singular Pochhammer in jack coefficient")
            r = r * poch(gamma * (k - j + 1), d) / den
    for j in range(1, lam1 + 1):
        nj = pt.part(nu, j)
        den = poch(gamma * (lam1 - j + 1), nj)
        if not den:
            raise ValueError("singular Pochhammer in jack coefficient")
        r = r * poch(gamma * (m - j + 1), nj) / den
    return r


@with_working_precision
def askey_limit_check(mu, m: int, alpha, q, dps: int = DEFAULT_DPS):
    """Pair (<s_mu>_qLUE(alpha), comparand) for the alpha -> infinity limit
    onto the Stieltjes-Wigert average.

    The comparand is (1-q)^-|mu| q^((1/2-alpha)|mu|) <s_mu>_SW: tracking
    the Gamma_q telescoping exactly fixes this factor (the naive
    q^((1-alpha)|mu|) would leave a residual q^(|mu|/2) (1-q)^|mu|), and
    with it the ratio of the pair tends to 1.
    """
    mu = pt.canonical(mu)
    qv, a = to_mpf(q), to_mpf(alpha)
    lhs = schur_avg_qlue(mu, m, a, qv, dps)
    sw = schur_avg_sw(mu, m).eval_u(mpmath.sqrt(qv))
    k = sum(mu)
    rhs = (1 - qv) ** (-k) * qv ** ((mpmath.mpf(1) / 2 - a) * k) * sw
    return lhs, rhs


def schur_average(spec: EnsembleSpec, mu, m: int, method: str = "closed",
                  dps: int = DEFAULT_DPS):
    """<s_mu> in the given ensemble via the closed form or the oracle."""
    if method == "oracle":
        return schur_avg_oracle(spec, mu, m, dps)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    kind = spec.kind
    if kind == "gue":
        return schur_avg_gue(mu, m)
    if kind == "lue":
        return schur_avg_lue(mu, m, spec.alpha)
    if kind == "jue":
        return schur_avg_jue(mu, m, spec.alpha, spec.beta, dps)
    if kind == "jue_tilde":
        if spec.m != m:
            raise ValueError("jue_tilde average needs m equal to spec.m")
        return schur_avg_jue_tilde(mu, m, spec.alpha, spec.beta)
    if kind == "lue_tilde":
        return schur_avg_lue_tilde(mu, m, spec.alpha_tilde)
    if kind == "sw":
        return schur_avg_sw(mu, m)
    if kind == "qlue":
        return schur_avg_qlue(mu, m, spec.alpha, spec.q, dps)
    raise ValueError(f"no single-Schur closed form for {kind!r}")


def pair_average(spec: EnsembleSpec, lam, mu, m: int, dps: int = DEFAULT_DPS):
    """<s_lam s_mu> (real line) or <s_lam conj(s_mu)> (Ginibre)."""
    if spec.kind == "ginibre":
        return schur_pair_avg_ginibre(lam, mu, m)
    return schur_pair_avg_oracle(spec, lam, mu, m, dps)


# ----------------------------------------------------------------------------
# brute-force monomial integrator (validates the Andreief oracles themselves)
# ----------------------------------------------------------------------------

def _mv_add(p1: dict, p2: dict) -> dict:
    out = dict(p1)
    for e, c in p2.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _mv_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _mv_var(i: int, m: int) -> dict:
    return {tuple(1 if j == i else 0 for j in range(m)): Fraction(1)}


def _mv_const(c, m: int) -> dict:
    return {(0,) * m: Fraction(c)} if c else {}


def _mv_vandermonde_sq(m: int) -> dict:
    d = _mv_const(1, m)
    for i in range(m):
        for j in range(i + 1, m):
            diff = _mv_add(_mv_var(i, m), {k: -v for k, v in _mv_var(j, m).items()})
            d = _mv_mul(d, _mv_mul(diff, diff))
    return d


def _mv_complete_h(k: int, m: int) -> dict:
    out: dict = {}
    for combo in combinations_with_replacement(range(m), k):
        e = [0] * m
        for i in combo:
            e[i] += 1
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + 1
    return out or _mv_const(1, m)


def _mv_schur(lam, m: int) -> dict:
    """s_lam(z_1..z_m) as an explicit polynomial, via Jacobi-Trudi with
    cofactor expansion over multivariate polynomial entries."""
    lam = pt.canonical(lam)
    if not lam:
        return _mv_const(1, m)
    n = len(lam)
    h = {k: _mv_complete_h(k, m) for k in range(lam[0] + n)}

    def entry(i, j):
        k = lam[i] - (i + 1) + (j + 1)
        if k < 0:
            return {}
        return h[k]

    def detrec(rows, cols):
        if not rows:
            return _mv_const(1, m)
        i = rows[0]
        out: dict = {}
        for idx, j in enumerate(cols):
            e = entry(i, j)
            if not e:
                continue
            sub = detrec(rows[1:], cols[:idx] + cols[idx + 1:])
            term = _mv_mul(e, sub)
            if idx % 2:
                term = {k: -v for k, v in term.items()}
            out = _mv_add(out, term)
        return out

    return detrec(tuple(range(n)), tuple(range(n)))


def average_bruteforce(spec: EnsembleSpec, poly: dict, m: int,
                       dps: int = DEFAULT_DPS):
    """Average of a polynomial in the eigenvalues by term-wise integration
    of Delta^2 * poly against the weight."""
    mom = MomentTable(spec, dps)
    dsq = _mv_vandermonde_sq(m)

    def integrate(p: dict):
        total = 0
        for e, c in p.items():
            t = c
            for ei in e:
                t = t * mom.get(ei)
            total = total + t
        return total

    return integrate(_mv_mul(dsq, poly)) / integrate(dsq)


def schur_avg_bruteforce(spec: EnsembleSpec, mu, m: int,
                         dps: int = DEFAULT_DPS):
    return average_bruteforce(spec, _mv_schur(mu, m), m, dps)


def schur_pair_avg_bruteforce(spec: EnsembleSpec, lam, mu, m: int,
                              dps: int = DEFAULT_DPS):
    return average_bruteforce(spec, _mv_mul(_mv_schur(lam, m), _mv_schur(mu, m)),
                              m, dps)
