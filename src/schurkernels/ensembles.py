"""Matrix-ensemble data: moments, Hankel determinants, orthogonal polynomials,
the Andreief determinant-ratio oracle, and closed-form Schur averages for
the Gaussian, Laguerre, Jacobi, inverse-Jacobi, inverse-Laguerre,
Stieltjes-Wigert, q-Laguerre and Ginibre ensembles.  `schur_average(spec,
mu, m)` is the one entry point for a single average, of every kind.

The LUE, JUE, qLUE and Ginibre closed forms are products of Gamma (or
Gamma_q) ratios, which telescope under Gamma(z+1) = z Gamma(z) and
Gamma_q(z+1) = |z|_q Gamma_q(z), so no Gamma is evaluated: the value is
exact at every rational parameter (for qLUE, at every integer alpha).  The
averages of every kind but Ginibre, the inverse kinds included, take one
`walk` down a chain of smaller partitions, a Weyl dimension ratio (of
q-numbers for SW and qLUE) times a row factor per box (a domino for GUE);
the kernel tables take the same walk over a whole rectangle.  Real-alpha
qLUE takes each step on integers at a rational q, but for the one real
power q^-alpha.

The moments evaluate no Gamma either: each moment sequence is generated by
the weight's own ratio m_p/m_{p-1} (`moment`), so the Andreief oracles, the
orthogonal polynomials and every kernel route built on them are exact at
every rational parameter too.

Every closed form is cross-validated against `schur_avg_oracle`, which
reduces the M-fold average to a ratio of moment determinants: the pair
oracle `schur_pair_avg_oracle` at mu = empty.  Its determinants run on
integers: the integer form of rational moments, and exact q moments (SW,
integer-alpha qLUE) packed once per width, in q = u^2 on qLUE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

import mpmath

from . import partitions as pt
from .scalars import (QRat, _bareiss, _zdet, _zexquo, _zunpack, binom, det_exact,
                      double_factorial, guarded, int_form, over, poch, qratio, recip, to_mpf)
from .symfun import _branching

#: the ensemble kinds and the parameters each takes; all but q are required
PARAMS = {"gue": (), "lue": ("alpha",), "jue": ("alpha", "beta"),
          "jue_tilde": ("alpha", "beta", "m"), "lue_tilde": ("alpha_tilde",),
          "sw": (), "qlue": ("alpha", "q"), "ginibre": ()}


@dataclass(frozen=True)
class EnsembleSpec:
    """Identifies an ensemble and its parameter values.

    Parameters are ints (exact), Fractions (exact rational) or mpf (real);
    any other type, a float included, is an error.  `m` is required for
    jue_tilde, whose weight (1+z)^-(M+beta) depends on the number of
    variables.  `q` is the numeric q of qLUE at non-integer alpha; exact
    SW/qLUE work is symbolic in u = q^(1/2).  A parameter the kind does not
    take is an error.  The hash and the realness flag of `spec_cache`'s key
    are set once: a lookup hashes no parameter again.
    """

    kind: str
    alpha: object = None
    beta: object = None
    alpha_tilde: object = None
    q: object = None
    m: int = None

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        for key in ("alpha", "beta", "alpha_tilde", "q"):
            v = getattr(self, key)
            if not isinstance(v, (int, Fraction, mpmath.mpf, type(None))):
                raise ValueError(f"{key} must be an int, Fraction or mpf, not {type(v).__name__}")
            if isinstance(v, Fraction) and v.denominator == 1:
                # 4/2 is the integer 2: same exact path, same moment cache key
                object.__setattr__(self, key, v.numerator)
        takes = PARAMS[self.kind]
        missing = [k for k in takes if k != "q" and getattr(self, k) is None]
        if missing:
            raise ValueError(f"{self.kind} needs {' and '.join(missing)}")
        stray = [k for k in ("alpha", "beta", "alpha_tilde", "q", "m")
                 if k not in takes and getattr(self, k) is not None]
        if stray:
            raise ValueError(f"{self.kind} does not take {' or '.join(stray)}")
        if self.m is not None and (type(self.m) is not int or self.m < 0):
            raise ValueError(f"m must be a nonnegative int, not {self.m!r}")
        if self.kind in ("lue", "qlue", "jue_tilde") and not (self.alpha > -1):
            raise ValueError(f"{self.kind} needs alpha > -1")
        if self.kind == "qlue" and not isinstance(self.alpha, int) and self.q is None:
            raise ValueError("qlue needs q for non-integer alpha")
        if self.kind == "qlue" and isinstance(self.alpha, int) and self.q is not None:
            raise ValueError("qlue takes no q at integer alpha: it is exact in u = q^(1/2)")
        if self.kind == "jue" and (not (self.alpha > -1) or not (self.beta > -1)):
            raise ValueError("jue needs alpha, beta > -1")
        if self.q is not None and not (0 < self.q < 1):
            raise ValueError("q must be in (0, 1)")
        key = (self.kind, self.alpha, self.beta, self.alpha_tilde, self.q, self.m)
        real = self.q is not None or any(isinstance(v, mpmath.mpf) for v in key)
        vars(self).update(_hash=hash(key), _real=real)  # past the frozen __setattr__

    def __hash__(self):
        return self._hash


def moment(spec: EnsembleSpec, p: int):
    """Moment m_p of the ensemble weight: exact at integer and rational
    parameters, a real at the working precision otherwise.

    Apart from GUE and SW, m_p = m_0 prod_{s=1}^p step(s) with the weight's
    own ratio m_s/m_{s-1}.  m_0 is the exact mass (a factorial product) at
    integer parameters and 1 at any other parameter; GUE moments are for the
    normalized weight and qLUE moments have m_0 = 1 throughout.  The mass
    cancels in every determinant ratio.  A divergent tilde moment raises.
    """
    if p < 0:
        raise ValueError("moment needs p >= 0")
    return _moment_cached(spec, p)


def spec_cache(maxsize: int):
    """A bounded LRU cache for a builder fn(spec, *args), keyed on its
    positional arguments and the spec's field: the working precision of a
    real spec, 0 for an exact one (1/2 and 0.5 are equal, equally hashed
    parameters).  The wrapper carries the cache's cache_info, cache_clear
    and cache_parameters, and fn as __wrapped__."""
    def decorate(fn):
        cached = lru_cache(maxsize)(lambda dps, spec, *args: fn(spec, *args))

        @wraps(fn)
        def lookup(spec: EnsembleSpec, *args):
            return cached(mpmath.mp.dps if spec._real else 0, spec, *args)
        lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
        lookup.cache_parameters = cached.cache_parameters
        return lookup
    return decorate


@spec_cache(4096)
def _moment_cached(spec: EnsembleSpec, p: int):
    kind, a, b, m = spec.kind, spec.alpha, spec.beta, spec.m
    if kind == "gue":
        return Fraction(0) if p % 2 else Fraction(double_factorial(p - 1))
    if kind == "sw":
        return QRat.u_power(-((p + 1) ** 2))
    integer = all(isinstance(v, int) for v in (a, b, spec.alpha_tilde)
                  if v is not None)
    mass = mpmath.mpf(1) if spec._real else Fraction(1)
    if kind == "lue":
        if integer:
            mass = Fraction(math.factorial(a))
        step = lambda s: a + s
    elif kind == "jue":
        if integer:
            mass = Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))
        step = lambda s: (a + s) * recip(a + b + 1 + s)
    elif kind == "jue_tilde":
        if not (m - p - a + b - 1 > 0):
            raise ValueError(f"jue_tilde moment diverges at p = {p}")
        if integer:
            mass = Fraction(math.factorial(a) * math.factorial(m - a + b - 2),
                            math.factorial(m + b - 1))
        step = lambda s: (a + s) * recip(m - s - a + b - 1)
    elif kind == "lue_tilde":
        at = spec.alpha_tilde
        if not (at - p - 1 > 0):
            raise ValueError(f"lue_tilde moment diverges at p = {p}")
        if integer:
            mass = Fraction(math.factorial(at - 2))
        step = lambda s: recip(at - s - 1)
    elif kind == "qlue":
        if integer:
            # m_p/m_{p-1} = -|-(a+p)|_q = q^(-(a+p)) (1 - q^(a+p))/(1 - q)
            ups = range(a + 1, a + p + 1)
            return qratio(ups, [1] * p, -2 * sum(ups))
        else:
            av, qv = to_mpf(a), to_mpf(spec.q)
            step = lambda s: (qv ** -(av + s) - 1) / (1 - qv)
    else:
        raise ValueError(f"moments not defined for kind {kind!r}")
    # m_p = m_{p-1} step(p) from the last moment made so far: the product
    # order of m_0 prod_{s<=p} step(s), without recursion
    chain = _moment_chain(spec)
    for s in range(len(chain), p + 1):
        chain.append(chain[-1] * step(s) if s else mass)
    return chain[p]


@spec_cache(128)
def _moment_chain(spec: EnsembleSpec) -> list:
    """m_0, m_1, ... as far as `_moment_cached` made them; it extends the list."""
    return []


@spec_cache(128)
def hankel_det(spec: EnsembleSpec, m: int):
    """det[m_{j+k}], 0 <= j,k <= m-1: the partition function of the weight
    with the mass m_0 of `moment` (its true mass at integer parameters), for
    the Andreief oracles and `painleve`.  Eliminated in the row order M-1..0
    of the oracle numerators, so a real Andreief ratio rounds both of its
    determinants alike.  Cached by `spec_cache`."""
    return _moment_det(spec, range(m - 1, -1, -1), range(m - 1, -1, -1)) if m else 1


def _moment_det(spec: EnsembleSpec, rows, cols):
    """det[m_{a+b}] for a in rows (row order) and b in cols (column order): on
    exact q moments `_qdet` read back as a QRat, at rational ones Bareiss on
    the `int_form` (z, d) of m_0..m_top: det[z_{a+b}] / d^M."""
    if spec.kind in ("sw", "qlue") and not spec._real:
        g, k, d, w = _qdet(spec, rows, cols)
        return _qrat(g, k, _zunpack(d, w))
    z, d = _moment_prefix(spec, max(rows) + max(cols))
    mat = [[z[a + b] for b in cols] for a in rows]
    return det_exact(mat) if d is None else over(_bareiss(mat, int.__floordiv__), d ** len(mat))


@spec_cache(128)
def _qprefix(spec: EnsembleSpec) -> list:
    """[o_p/g, P_p in v = u^g, ||P_p||_1, {w: the P_p packed at w bytes}] of
    the exact q moments m_p = u^(o_p) P_p(u), as far as `_qdet` extended them."""
    return [[], [], [], {}]


def _qdet(spec: EnsembleSpec, rows, cols, hold: int = 0):
    """(g, k, D, w): det[m_{a+b}] = v^k d(v), v = u^g (g = 2 on qLUE, whose moments
    are in q = u^2, else 1), D = d(2^(8w)) from `_zdet`, its digits wide enough for hold."""
    g, (offs, polys, norms, packed) = 2 if spec.kind == "qlue" else 1, _qprefix(spec)
    for p in range(len(offs), max(rows) + max(cols) + 1):
        m = moment(spec, p)
        offs.append(m.offset // g)
        polys.append(m.num[::g])
        norms.append(sum(map(abs, m.num)))
    ids = [[a + b for b in cols] for a in rows]
    return g, *_zdet([[offs[e] for e in z] for z in ids], ids, polys, norms, packed, hold)


def _qrat(g: int, k: int, c: list) -> QRat:
    """v^k c(v) as a QRat in u = v^(1/g), g = 1 or 2."""
    return QRat._raw(g * k, [y for x in c for y in (x, 0)[:g]], [1], True)


@spec_cache(256)
def _moment_prefix(spec: EnsembleSpec, top: int):
    """The `int_form` of m_0..m_top at rational moments, else (m_0..m_top, None)."""
    mom = [moment(spec, p) for p in range(top + 1)]
    return int_form(mom) if isinstance(mom[0], (int, Fraction)) else (mom, None)


@dataclass(frozen=True)
class OrthoSystem:
    """The norms h_0..h_K of the monic orthogonal polynomials P_0..P_K and
    ints = (p, w, W) with P_j(x) P_j(y) / h_j = w_j p_j(x) p_j(y) / W, from
    `int_form`: p_j = e_j P_j and w_j are ints at rational moments and
    Laurent polynomials at QRat ones; on the reals p_j = P_j, w_j = 1 / h_j
    and W = 1.  So P_j = p_j / lead(p_j).  The h_j and p_j of a smaller K
    are the first entries of a larger K's, and W is the lcm over its own K.
    `khat_cd` sums them and `pair_cofactors` reads W H^-1."""

    norms: tuple
    ints: tuple


@spec_cache(128)
def ortho_system(spec: EnsembleSpec, kmax: int) -> OrthoSystem:
    """h_0..h_K and P_0..P_K of the moment form <z^a, z^b> = m_{a+b}, by the
    monic recurrence P_(k+1) = (z - a_k) P_k - b_k P_(k-1), h_0 = m_0 and
    h_k = h_(k-1) b_k, in the moments' own field (Fraction, QRat or mpf),
    with the closed-form (a_k, b_k) of `_recurrence`; Gram-Schmidt and the
    Chebyshev algorithm are the test oracles.  One system per spec and field
    grows in place, and a smaller K reads its prefix.  Cached by
    `spec_cache`."""
    if kmax < 0:
        raise ValueError("ortho_system needs kmax >= 0")
    # P_(k+1) on plain lists, skipping zero terms as `_pmul` does: zero
    # coefficients stay int 0 and the leading one int 1
    norms, forms, pk, pprev = chain = _ortho_chain(spec)
    if len(norms) <= kmax:
        a, b = _recurrence(spec, kmax)
        for k in range(len(norms) - 1, kmax):
            nxt = [0] + pk
            for c, p in ((a[k], pk), (b[k], pprev)):
                if c:
                    for i, x in enumerate(p):
                        if x:
                            nxt[i] -= x * c
            pk, pprev = nxt, pk
            forms.append(int_form(pk))
            norms.append(norms[-1] * b[k + 1])
        chain[2:] = pk, pprev
    forms, norms = forms[:kmax + 1], norms[:kmax + 1]
    w = int_form([recip(e * e * h) for (_, e), h in zip(forms, norms)])
    return OrthoSystem(tuple(norms), (tuple(c for c, _ in forms), *w))


@spec_cache(128)
def _ortho_chain(spec: EnsembleSpec) -> list:
    """[h_0.., the int forms of P_0.., the last two coefficient lists] as
    far as `ortho_system` grew them; it extends them."""
    return [[moment(spec, 0)], [int_form([1])], [1], []]


def _recurrence(spec: EnsembleSpec, kmax: int):
    """(a_0..a_(K-1), b_0..b_K), b_0 = 0, in closed form (Koekoek, Lesky and
    Swarttouw 2010, sections 9.15, 9.12, 9.8, 14.21 and 14.27): ints on GUE
    and LUE at integer alpha, QRats on SW and exact qLUE (q = u^2).  JUE is
    Jacobi at (x, y) = (beta, alpha) moved to [0, 1], a_k = (1 + A_k)/2 and
    b_k = B_k/4, with the 0/0 of A_0 at x + y = 0 and of B_1 at x + y = -1
    cancelled; jue_tilde is JUE at beta -> -(M + beta) reflected by z -> -z
    (a_k -> -a_k); lue_tilde is the Bessel family.  The tilde kinds read
    m_0..m_2K in order first, so a divergent moment raises as `moment` does."""
    kind, al, num = spec.kind, spec.alpha, to_mpf if spec._real else Fraction
    if kind.endswith("_tilde"):
        for p in range(2 * kmax + 1):
            moment(spec, p)
    if kind == "gue":
        a, b = (lambda k: 0), (lambda k: k)
    elif kind == "lue":
        a, b = (lambda k: 2 * k + al + 1), (lambda k: k * (k + al))
    elif kind == "sw":
        u = QRat.u_power(1)
        a = lambda k: u ** -(4 * k + 3) * (1 + u ** 2 - u ** (2 * k + 2))
        b = lambda k: u ** (-8 * k) * (1 - u ** (2 * k))
    elif kind == "qlue":
        q = to_mpf(spec.q) if spec._real else QRat.q_power(1)
        a = lambda k: (1 - q ** (k + al + 1) + q - q ** (k + 1)) / (q ** (2 * k + al + 1) * (1 - q))
        b = lambda k: (1 - q ** k) * (1 - q ** (k + al)) / (q ** (4 * k + 2 * al - 1) * (1 - q) ** 2)
    elif kind == "lue_tilde":
        c = num(spec.alpha_tilde)
        a = lambda k: c / ((2 * k + 2 - c) * (2 * k - c))
        b = lambda k: k * (c - k) / ((2 * k - 1 - c) * (2 * k - c) ** 2 * (2 * k + 1 - c))
    else:
        x, y = num(spec.beta if kind == "jue" else -(spec.m + spec.beta)), num(al)
        s, sign = x + y, 1 if kind == "jue" else -1
        a = lambda k: sign * (1 + (y - x) * (s / (2 * k + s) if k else 1) / (2 * k + s + 2)) / 2
        b = lambda k: (k * (k + x) * (k + y) * ((k + s) / (2 * k + s - 1) if k > 1 else 1)
                       / ((2 * k + s) ** 2 * (2 * k + s + 1)))
    return [a(k) for k in range(kmax)], [0, *map(b, range(1, kmax + 1))]


# ----------------------------------------------------------------------------
# Andreief determinant-ratio oracles
# ----------------------------------------------------------------------------

def schur_avg_oracle(spec: EnsembleSpec, mu, m: int):
    """<s_mu> as a ratio of M x M moment determinants (Andreief): the pair
    oracle at the empty partition."""
    return schur_pair_avg_oracle(spec, mu, (), m)


def schur_pair_avg_oracle(spec: EnsembleSpec, lam, mu, m: int):
    """<s_lam s_mu> by a two-insertion Andreief determinant.

    Delta^2 s_lam s_mu = det[z_k^(lam_j+M-j)] det[z_k^(mu_j+M-j)], so the
    average is det[m_{a_j + b_k}] over the shifted exponent sets, divided
    by the same determinant at lam = mu = empty (`hankel_det`).  It is 0
    when l(lam) > M or l(mu) > M.  On exact q moments it is one exact
    quotient (`_zexquo`: a Laurent polynomial, no gcd) of the packed `_qdet`,
    as packed, by `hankel_det` at that width, or `QRat` division if refused.
    """
    lam, mu = pt.canonical(lam), pt.canonical(mu)
    if len(lam) > m or len(mu) > m:
        return Fraction(0)
    if m == 0:
        return Fraction(1)
    a, b = ([pt.part(p, j) + m - j for j in range(1, m + 1)] for p in (lam, mu))
    h = hankel_det(spec, m)
    if spec.kind not in ("sw", "qlue") or spec._real:
        return _moment_det(spec, a, b) / h
    g, k, d, w = _qdet(spec, a, b, max(map(abs, h.num)))
    c = _zexquo(d, h.num[::g], w)
    return _qrat(g, k, _zunpack(d, w)) / h if c is None else _qrat(g, k - h.offset // g, c)


@spec_cache(128)
def pair_cofactors(spec: EnsembleSpec, n: int, m: int):
    """(rows, den) with <s_lam' s_mu'> = rows[i][j] / den, lam and mu the
    i-th and j-th of `enumerate_bounded(n, m)`: ints in lowest terms at
    rational moments, QRats or mpfs otherwise.  Ginibre's diagonal comes
    from `pair_average`.  Cached by `spec_cache`.

    The numerator in `schur_pair_avg_oracle` is the minor H[A, B] of the
    (M+n)-square moment Hankel matrix; A^c = {M-1+i-lam_i}.  The
    `OrthoSystem.ints` of `khat_cd` give G = W H^-1 = sum_k w_k p_k p_k^T
    (ints or Laurent polynomials), and by Jacobi's complementary-minor
    identity H[A, B] / det H_M = (-1)^(sum A + sum B) h_M ... h_(M+n-1)
    det G[B^c, A^c] / W^n, with sum A + sum B of the parity of
    sum A^c + sum B^c.  The pair () x () (the first) is 1, so its minor of
    G is the denominator: one n x n determinant per unordered pair.
    """
    parts = _branching(n, m)[0]
    k = len(parts)
    if spec.kind == "ginibre":
        nums = [pair_average(spec, pt.conjugate(lam), pt.conjugate(mu), m)
                for lam in parts for mu in parts]
    else:
        p, w, _ = ortho_system(spec, m + n - 1).ints
        comp = [[m - 1 + i - pt.part(lam, i) for i in range(1, n + 1)] for lam in parts]
        nums = [0] * (k * k)

        @lru_cache(maxsize=None)
        def entry(r, c):  # G[r][c] = G[c][r] at r <= c, once a complement set reads it
            return sum(w[j] * p[j][r] * p[j][c] for j in range(c, m + n))

        for i, a in enumerate(comp):
            for j, b in enumerate(comp[i:], i):
                nums[i * k + j] = nums[j * k + i] = (-1) ** (sum(a) + sum(b)) * det_exact(
                    [[entry(min(r, c), max(r, c)) for c in a] for r in b])
    flat = int_form(nums)[0]
    if isinstance(flat[0], int):  # the rational field, in lowest terms
        g = math.gcd(*flat)
        flat = tuple(x // g for x in flat)
    return tuple(flat[i:i + k] for i in range(0, k * k, k)), flat[0]


def char_poly_moment_det(spec: EnsembleSpec, m: int, n2: int, x):
    """(1/M!) int Delta^2 prod_j (x - z_j)^n2 w(z_j) dz: the Andreief
    determinant of binomially modified moments."""
    mom = [moment(spec, p) for p in range(2 * m - 1 + n2)]

    def modified(e):
        return sum(Fraction((-1) ** l * binom(n2, l)) * x ** (n2 - l) * mom[e + l]
                   for l in range(n2 + 1))

    return det_exact([[modified(j + k) for k in range(m)] for j in range(m)])


def char_poly_moment_oracle(spec: EnsembleSpec, m: int, n2: int, x):
    """<det(x - Z)^n2> via Andreief with binomially modified moments."""
    return char_poly_moment_det(spec, m, n2, x) * recip(hankel_det(spec, m))


# ----------------------------------------------------------------------------
# closed-form Schur averages
# ----------------------------------------------------------------------------

def walk(lams, m: int, spec: EnsembleSpec) -> dict:
    """<s_lam'> over m variables for each lam of lams, with {(): 1} (the mpf 1
    at real-alpha qLUE), as a dict, in every kind with a single average, the
    parameters read from spec.  A tilde kind checks its domain once, at the
    largest mu_1 = l(lam) of lams (a table's rows).  step(lam) is None when
    <s_lam'> is 0, else (nu, ups, downs, shift) for a smaller nu; each lam
    steps down to a nu already made, and <s_lam'> is <s_nu'> times the ups
    over the downs of the chain: one Fraction (on the reals, one product), or
    one `qratio` on <s_nu'>'s list in q, each factor a read as the q-number
    [a]_q = u^(1-a) (1 - q^a)/(1 - q), times u^shift.  A graded list from ()
    takes one step per lam; a single lam walks down to ()."""
    kind, real = spec.kind, spec._real
    if kind.endswith("_tilde"):
        _tilde_domain(spec, m, max(map(len, lams), default=0))
    step = _gue_step(m) if kind == "gue" else _row_step(m, spec)
    q = kind in ("sw", "qlue") and not real
    out = {(): QRat.const(1) if q else mpmath.mpf(1) if spec.q is not None else Fraction(1)}
    for lam in lams:
        nu, shift, (ups, downs) = lam, 0, ([], []) if q else (1, 1)
        while nu not in out:
            s = step(nu)
            if s is None:
                out[lam] = Fraction(0)
                break
            nu, shift = s[0], shift + s[3]
            ups, downs = ((ups + s[1], downs + s[2]) if q
                          else (ups * math.prod(s[1]), downs * math.prod(s[2])))
        else:
            p = out[nu]
            if q:
                out[lam] = qratio(ups, downs, p.offset + shift + sum(downs) - sum(ups), p.num[::2])
            elif not real:
                out[lam] = Fraction(p.numerator * ups, p.denominator * downs)
            elif lam:  # on the reals, where p may be the Fraction 1 of (), which stays
                out[lam] = to_mpf(p) * ups / downs
    return out


def _walk_average(mu, m: int, spec: EnsembleSpec):
    """<s_mu> by `walk` on lam = mu' alone; 0 when l(mu) = lam_1 > m."""
    lam = pt.conjugate(pt.canonical(mu))
    return walk([lam], m, spec)[lam] if lam[:1] <= (m,) else Fraction(0)


def _tilde_domain(spec: EnsembleSpec, m: int, top: int):
    """Raise unless the tilde average of every mu with mu_1 <= top over m
    variables is finite: jue_tilde needs spec.m = m, rational parameters and
    beta_t = beta - alpha - m >= top (else s_mu'(1^beta_t) = 0), lue_tilde
    alpha_tilde - 2m - top > -1."""
    if spec.kind == "jue_tilde":
        if spec.m != m:
            raise ValueError("jue_tilde average needs m equal to spec.m")
        if spec._real:
            raise ValueError("jue_tilde closed form needs rational alpha and beta")
        bt = spec.beta - spec.alpha - m
        if bt < 0:
            raise ValueError("jue_tilde average needs beta - alpha - m >= 0")
        if top > bt:
            raise ValueError("jue_tilde average: mu_1 > beta_t (zero dimension)")
    elif not (spec.alpha_tilde - 2 * m - top > -1):
        raise ValueError("lue_tilde average diverges: alpha_tilde too small")


def _gue_step(m: int):
    """The GUE `walk` step: lam minus a domino.  The holes
    g_i = m - 1 + i - lam_i, i <= l = l(lam), are the complement in [0, T],
    T = m + l - 1, of the beads mu_j + m - j, j <= m, of mu = lam'.  <s_mu>
    is 0 unless the beads have the parity counts of those of () (an empty
    2-core); else the largest bead x with x - 2 a hole gives nu = mu minus
    that domino (lam minus a domino in row i, or in rows i and i + 1 when
    x - 1 is a hole), and the parity-block evaluation of the moment
    determinant (Di Francesco-Itzykson) and the Weyl dimensions give, over
    the beads y != x of the parity of x,
        <s_mu> = <s_nu> (-1)^[x-1 a bead] (x - 1 + x % 2) prod (x - y)/(x - 2 - y).
    Over all y of that parity in [0, T] the product is x // 2 / ((T - x) // 2 + 1),
    so only the holes are divided out: O(l) integer factors."""
    def step(lam):
        l = len(lam)
        g = [m - 1 + i - p for i, p in enumerate(lam, 1)]
        if (m + l) // 2 - sum(v % 2 for v in g) != m // 2:
            return None
        g += (m + l, m + l + 1)  # the holes of two empty rows end the scan for x
        i = next(i for i in range(l - 1, -1, -1) if g[i] + 2 not in g[i + 1:i + 3])
        x, two_rows = g[i] + 2, g[i + 1] == g[i] + 1
        num, den = x * (x - 1) // 2, (m + l - 1 - x) // 2 + 1
        for v in g[:l]:
            if v != x - 2 and (x - v) % 2 == 0:
                num, den = num * (x - 2 - v), den * (x - v)
        p = [*lam, 0]
        p[i] -= 1 if two_rows else 2
        p[i + 1] -= two_rows
        return tuple(filter(None, p)), [num if two_rows else -num], [den], 0
    return step


def _row_step(m: int, spec: EnsembleSpec):
    """The `walk` step of every kind but GUE: lam - e_t, t the multiplicity
    of r = lam_1.  With mu = lam', y = t + m - r = m + c for the content c
    of the box taken, and l_k = mu_k + m - k, the Weyl dimension ratio of mu
    over mu - e_r (Macdonald I.3 Ex. 1) times the kind's row factor f(y) is
        <s_mu> / <s_nu> = y/t prod_{k<r} (l_k - y)/(l_k - y + 1) f(y).
    The product telescopes over each run mu_k = c (lam_(c+1) < k <= lam_c)
    to prod_{c>=t} (d_c - lam_c)/(d_c - lam_(c+1)), d_c = c - t + r, with
    lam_t read as r - 1 (a factor 1 up) and lam_(l+1) = 0: O(l(lam))
    integer factors on lam's own rows, which read as q-numbers give the
    q-dimension ratio.  f(y) = u^(s0 + s1 y) (u0 + u1 y)/(v0 + v1 y) is
    alpha + y (LUE), (alpha + y)/(alpha + beta + m + y) (JUE),
    (alpha + y)/(beta - alpha - y) (JUE-tilde) or 1/(alpha_tilde - m - y)
    (LUE-tilde): ints at alpha = a/b, beta = c/d (alpha_tilde = a/b), and
    reals at b = d = 1 if a parameter is real (Fraction / mpf is undefined);
    u^-(2y + m) (SW); q^(-(m-1)/2) m_y/m_(y-1) = u^-(m + alpha + y)
    [alpha + y]_q (qLUE).  Real-alpha qLUE steps on integers at q = a/b (an
    mpf q is a/1) and q^-alpha = n/d, d = 2^s, read at the working precision:
    [e]_q/[f]_q = u^(f-e) (b^e - a^e) b^f / ((b^f - a^f) b^e), f(y) =
    u^(1-m) (n b^y - d a^y) b / (d a^y (b - a)), and the u-powers sum to
    2(r - m), so the factor is (n b^y - d a^y) b^r prod (b^e - a^e) over
    d (b - a) a^(2m + t - 2r) prod (b^f - a^f)."""
    kind, n = spec.kind, None
    (u0, u1), (v0, v1), (s0, s1) = (1, 0), (1, 0), (0, 0)
    if kind == "sw":
        s0, s1 = -m, -2
    elif spec.q is not None:
        (a,), b = int_form([spec.q])
        n, s = (to_mpf(spec.q) ** -to_mpf(spec.alpha)).man_exp
        n, d = n << max(s, 0), 1 << max(-s, 0)
    elif kind == "qlue":
        (u0, u1), (s0, s1) = (spec.alpha, 1), (-m - spec.alpha, -1)
    else:
        al = spec.alpha_tilde if kind == "lue_tilde" else spec.alpha
        (a, b), (c, d) = ((to_mpf(x), 1) if spec._real else x.as_integer_ratio()
                          for x in (al, spec.beta or 0))
        (u0, u1), (v0, v1) = {"lue": ((a * d, b * d), (b, 0)),
                              "jue": ((a * d, b * d), (a * d + b * c + b * d * m, b * d)),
                              "jue_tilde": ((a * d, b * d), (b * c - a * d, -b * d)),
                              "lue_tilde": ((b, 0), (a - b * m, -b))}[kind]

    def step(lam):
        r, t, l = lam[0], lam.count(lam[0]), len(lam)
        y, k = t + m - r, r - t  # d_c = c + k
        ups, downs = [y, u0 + u1 * y, 1], [t, v0 + v1 * y, l + k]  # y/t, f(y), runs c = t, l
        for i in range(t, l):  # d_c - lam_c up at c = i + 1, d_c - lam_(c+1) down at c = i
            e = i + k - lam[i]
            ups.append(e + 1)
            downs.append(e)
        if n is not None:  # real-alpha qLUE: s0 = s1 = 0, f(y) = 1 in the lists
            ups, downs = ([n * b ** y - d * a ** y, b ** r, *(b ** e - a ** e for e in ups)],
                          [d * (b - a) * a ** (2 * (m - r) + t), *(b ** e - a ** e for e in downs)])
        return lam[:t - 1] + (r - 1,) + lam[t:] if r > 1 else lam[:-1], ups, downs, s0 + s1 * y
    return step


def schur_pair_avg_ginibre(lam, mu, m: int):
    """Complex Ginibre: <s_lam conj(s_mu)> = delta_{lam,mu} prod_j
    Gamma(m-j+1+lam_j)/Gamma(m-j+1)."""
    lam, mu = pt.canonical(lam), pt.canonical(mu)
    if lam != mu or len(lam) > m:
        return Fraction(0)
    return Fraction(math.prod(math.factorial(pt.part(lam, j) + m - j) // math.factorial(m - j)
                              for j in range(1, m + 1)))


def jack_avg_jacobi_coeff(nu, m: int, alpha, beta, gamma, n: int):
    """Kadell's Jack average in the Jacobi (2 gamma)-ensemble, as the triple
    Pochhammer product over the rows of nu = lam'.

    At gamma = 1 it must coincide with the JUE average <s_nu> over m
    variables (`schur_average`).
    """
    nu = pt.canonical(nu)
    if nu and nu[0] > 2 * n:
        raise ValueError("jack coefficient needs nu_1 <= 2n")
    if len(nu) > m:
        raise ValueError("jack coefficient needs l(nu) <= m")
    lam1, part, r = len(nu), lambda j: pt.part(nu, j), Fraction(1)
    # (a, b, k): the factor poch(a, k) / poch(b, k), in the order of the product
    factors = [(alpha + 1 + gamma * (m - j), alpha + beta + 2 + gamma * (2 * m - j - 1), part(j))
               for j in range(1, 2 * n + 1)]
    factors += [(gamma * (k - j + 1), gamma * (k - j), part(j) - part(k))
                for j in range(1, lam1 + 1) for k in range(j + 1, lam1 + 1)]
    factors += [(gamma * (m - j + 1), gamma * (lam1 - j + 1), part(j)) for j in range(1, lam1 + 1)]
    for a, b, k in factors:
        den = poch(b, k)
        if not den:
            raise ValueError("singular Pochhammer in jack coefficient")
        r = r * poch(a, k) / den
    return r


def askey_limit_check(mu, m: int, alpha, q):
    """Pair (<s_mu>_qLUE(alpha), comparand) for the alpha -> infinity limit
    onto the Stieltjes-Wigert average.

    The comparand is (1-q)^-|mu| q^((1/2-alpha)|mu|) <s_mu>_SW: tracking
    the Gamma_q telescoping exactly fixes this factor (the naive
    q^((1-alpha)|mu|) would leave a residual q^(|mu|/2) (1-q)^|mu|), and
    with it the ratio of the pair tends to 1.
    """
    mu = pt.canonical(mu)
    if len(mu) > m:
        raise ValueError("askey_limit_check needs l(mu) <= m")
    qv, a = to_mpf(q), to_mpf(alpha)
    lhs = schur_average(EnsembleSpec("qlue", alpha=a, q=qv), mu, m)
    sw = _walk_average(mu, m, EnsembleSpec("sw")).eval_u(mpmath.sqrt(qv))
    k = sum(mu)
    rhs = (1 - qv) ** (-k) * qv ** ((mpmath.mpf(1) / 2 - a) * k) * sw
    return lhs, rhs


def schur_average(spec: EnsembleSpec, mu, m: int, method: str = "closed",
                  dps: int | None = None):
    """<s_mu> in the given ensemble via the closed form or the oracle, at dps
    digits (None: the working precision).  A real spec works 2M + 5 digits
    above them and is rounded once (`guarded`): the Andreief determinants
    lose about 1.2 digits per variable (JUE 0.7, 1.3: 11.7 at M = 10)."""
    return guarded(spec._real, dps, 2 * m + 5, lambda: _schur_average(spec, mu, m, method))


def _schur_average(spec: EnsembleSpec, mu, m: int, method: str):
    if spec.kind == "ginibre":
        raise ValueError("ginibre has no single-Schur average (no moments)")
    if method == "oracle":
        return schur_avg_oracle(spec, mu, m)
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    return _walk_average(mu, m, spec)


def pair_average(spec: EnsembleSpec, lam, mu, m: int):
    """<s_lam s_mu> (real line) or <s_lam conj(s_mu)> (Ginibre)."""
    if spec.kind == "ginibre":
        return schur_pair_avg_ginibre(lam, mu, m)
    return schur_pair_avg_oracle(spec, lam, mu, m)
