"""Brute-force reference computations that the tests compare the library
against.  Each is independent of the code it checks:

* `det_cofactor`      -- cofactor expansion, the reference for `det_exact`;
* `det_leibniz`       -- the sum over permutations, the reference for the
                         rational `det_exact` at n <= 5;
* `schur_bialternant` -- the ratio of alternants, the reference for
                         `schur_eval` at distinct points;
* `average_bruteforce`, `schur_avg_bruteforce`, `schur_pair_avg_bruteforce`
  -- term-wise integration of explicit polynomials in the eigenvalues, the
  reference for the Andreief oracles of `schurkernels.ensembles`;
* `ortho_gram_schmidt` -- Gram-Schmidt on the moment bilinear form, the
                         reference for `ortho_system`, and `monic_polys`,
                         the P_j that `OrthoSystem.ints` holds;
* `chebyshev_algorithm` -- the recurrence coefficients from the moments,
                         the reference for the closed forms of
                         `ensembles._recurrence`;
* `qnum_symmetric`, `qnum_floor`, `qfactorial_floor` -- q-numbers and
                         q-factorials, which rebuild the q-products that
                         `scalars.qratio` forms in one pass;
* `ginibre_khat_schur` -- the Ginibre single sum term by term over Schur
                         tables, the reference for `khat_double` on Ginibre;
* `schur_avg_lue_int_form`, `lue_alpha_shift_pair` -- the integer-alpha LUE
                         dimension form and the alpha-shift identity, the
                         references for the LUE `schur_average`;
* `schur_avg_row_products`, `schur_avg_gue_blocks`,
  `schur_avg_sw_hook_content`, `schur_avg_qlue_hook_content`,
  `schur_avg_jue_tilde_principal`, `schur_avg_lue_tilde_complement` -- the
                         per-partition product forms of the LUE/JUE, GUE,
                         SW, integer-alpha qLUE, JUE-tilde and LUE-tilde
                         averages (the q ones one hook-content `qratio`
                         each, JUE-tilde a ratio of principal
                         specializations, LUE-tilde a shifted LUE average of
                         the `rectangle_complement`), the references for the
                         walks of `ensembles.walk`;
* `kernel_cd_formula` -- the two-term Christoffel-Darboux formula, the
                         reference for the sum `kernel_cd`;
* `chebyshev_u_all`   -- U_0..U_k by their recurrence, the reference for the
                         Schur-Chebyshev bridge s_(k+j,k)(x, 1/x) = U_j;
* `toeplitz_inverse_closed_fractions`, `schur_doubling_fractions` -- the
                         Duduchava-Roch closed inverse and the two Schur
                         doubling sums in Fraction arithmetic, term by term:
                         the references for the integer sums of
                         `toeplitz_inverse_closed` and `schur_doubling_check`;
* `zgcd`              -- the primitive gcd in Z[u] that `scalars._zcancel`
                         takes out, read by the tests of `_zcancel` itself
                         (it is not independent of it);
* `zgcd_euclid`, `zmul` -- the primitive gcd by the primitive remainder
                         sequence alone and the schoolbook product, the
                         references for the heuristic gcd of `_zcancel`
                         and for the canonical form of `QRat`.
"""

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import mpmath

from schurkernels import partitions as pt
from schurkernels.ensembles import (EnsembleSpec, OrthoSystem, moment,
                                    ortho_system, schur_average,
                                    schur_pair_avg_ginibre)
from schurkernels.kernels import _exactify
from schurkernels.scalars import (Poly, QRat, _zcancel, _zexquo, binom,
                                  det_exact, double_factorial, int_form, poch,
                                  qratio, recip, to_mpf)
from schurkernels.symfun import complete_h_all, schur_principal, schur_table


def det_cofactor(matrix):
    """Naive cofactor expansion; the reference oracle for det_exact."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if not matrix[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * det_cofactor(minor)
        total = total - term if j % 2 else total + term
    return total


def det_leibniz(matrix):
    """Leibniz formula: sum over permutations p of sign(p) prod_i m[i][p(i)],
    the sign counted by inversions; n! terms, so for small n only."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += math.prod((matrix[i][p] for i, p in enumerate(perm)),
                           start=(-1) ** inversions)
    return total


def schur_bialternant(lam, z: list):
    """s_lam(z) as det[z_i^(lam_j + M - j)] / det[z_i^(M - j)].

    Requires pairwise distinct points.
    """
    lam = pt.canonical(lam)
    m = len(z)
    if len(lam) > m:
        return 0
    exps = [pt.part(lam, j) + m - j for j in range(1, m + 1)]
    num = det_exact([[zi ** e for e in exps] for zi in z])
    den = det_exact([[zi ** (m - j) for j in range(1, m + 1)] for zi in z])
    return num / den


def ortho_gram_schmidt(spec: EnsembleSpec, kmax: int) -> OrthoSystem:
    """Gram-Schmidt on the moment bilinear form <z^a, z^b> = m_{a+b}, over
    O(K^3) field products; the reference oracle for `ortho_system`."""
    mom = [moment(spec, p) for p in range(2 * kmax + 1)]

    def inner(pa: Poly, pb: Poly):
        r = 0
        for i, ca in enumerate(pa.coeffs):
            if ca:
                for j, cb in enumerate(pb.coeffs):
                    if cb:
                        r = r + ca * cb * mom[i + j]
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
    forms = [int_form(p.coeffs) for p in polys]
    w = int_form([recip(e * e * h) for (_, e), h in zip(forms, norms)])
    return OrthoSystem(tuple(norms), (tuple(c for c, _ in forms), *w))


def monic_polys(osys: OrthoSystem) -> list:
    """The monic P_j = p_j / lead(p_j) of `OrthoSystem.ints`."""
    return [Poly([c * recip(p[-1]) for c in p]) for p in osys.ints[0]]


def chebyshev_algorithm(spec: EnsembleSpec, kmax: int):
    """(a_0..a_(K-1), b_0..b_K) of the monic recurrence from the moments
    (Gautschi, SIAM J. Sci. Stat. Comput. 3, 1982), in O(K^2) field
    operations: sig_(k,l) = <P_k, z^l> gives h_k = sig_(k,k), b_k =
    h_k/h_(k-1) and a_k = sig_(k,k+1)/h_k - sig_(k-1,k)/h_(k-1), then
    sig_(k+1,l) = sig_(k,l+1) - a_k sig_(k,l) - b_k sig_(k-1,l)."""
    sig = prev = [moment(spec, p) for p in range(2 * kmax + 1)]
    a, b, ratio, inv = [], [], 0, 0
    for k in range(kmax + 1):
        h = sig[k]
        if not h:
            raise ValueError(f"degenerate measure: zero norm at degree {k}")
        b.append(h * inv)
        if k == kmax:
            break
        r = sig[k + 1] * (inv := recip(h))
        a.append(r - ratio)
        ratio = r
        prev, sig = sig, [0] * (k + 1) + [sig[l + 1] - a[k] * sig[l] - b[k] * prev[l]
                                          for l in range(k + 1, 2 * kmax - k)]
    return a, b


def ginibre_khat_schur(n_rank: int, n_pairs: int, xs, ybars):
    """Ginibre Khat via the single-sum Schur expansion
    sum_lam s_lam(x^v) s_lam(ybar^v) <s_lam' sbar_lam'>."""
    m = n_rank - n_pairs
    sx = schur_table(n_pairs, m, [-1 / _exactify(v) for v in xs])
    sy = schur_table(n_pairs, m, [-1 / _exactify(v) for v in ybars])
    total = 0
    for lam, s in sx.items():
        lc = pt.conjugate(lam)
        total = total + s * sy[lam] * schur_pair_avg_ginibre(lc, lc, m)
    return total


# ----------------------------------------------------------------------------
# q-numbers as QRat products
# ----------------------------------------------------------------------------

def qnum_symmetric(z: int) -> QRat:
    """Symmetric q-number [z]_q = (u^(-z) - u^z)/(u^(-1) - u)."""
    if z == 0:
        return QRat.const(0)
    if z < 0:
        return -qnum_symmetric(-z)
    # u^(1-z) (1 + u^2 + ... + u^(2z-2))
    return QRat._raw(1 - z, [1, 0] * (z - 1) + [1], [1], True)


def qnum_floor(z: int) -> QRat:
    """Asymmetric q-number |z|_q = (1 - q^z)/(1 - q)."""
    if z == 0:
        return QRat.const(0)
    if z < 0:
        # (1 - q^z)/(1 - q) = -q^z * |  -z |_q
        return -(QRat.q_power(z) * qnum_floor(-z))
    return QRat._raw(0, [1, 0] * (z - 1) + [1], [1], True)


def qfactorial_floor(n: int) -> QRat:
    """|n|_q! = prod_{i=1}^{n} |i|_q; equals Gamma_q(n+1) at integers."""
    r = QRat.const(1)
    for i in range(1, n + 1):
        r = r * qnum_floor(i)
    return r


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


def average_bruteforce(spec: EnsembleSpec, poly: dict, m: int):
    """Average of a polynomial in the eigenvalues by term-wise integration
    of Delta^2 * poly against the weight."""
    dsq = _mv_vandermonde_sq(m)

    def integrate(p: dict):
        total = 0
        for e, c in p.items():
            t = c
            for ei in e:
                t = t * moment(spec, ei)
            total = total + t
        return total

    return integrate(_mv_mul(dsq, poly)) / integrate(dsq)


def schur_avg_bruteforce(spec: EnsembleSpec, mu, m: int):
    return average_bruteforce(spec, _mv_schur(mu, m), m)


def schur_pair_avg_bruteforce(spec: EnsembleSpec, lam, mu, m: int):
    return average_bruteforce(spec, _mv_mul(_mv_schur(lam, m), _mv_schur(mu, m)),
                              m)


def schur_avg_lue_int_form(mu, m: int, alpha: int):
    """Integer-alpha LUE variant: s_mu(1^(m+alpha)) prod_j poch(m+1-j, mu_j)."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    r = schur_principal(mu, m + alpha)
    for j in range(1, m + 1):
        r = r * poch(m + 1 - j, pt.part(mu, j))
    return r


def schur_avg_row_products(mu, m: int, alpha, beta=None):
    """LUE (beta None) or JUE <s_mu> as the hook-content s_mu(1^m) times the
    Gamma ratios of the closed forms telescoped row by row:
    prod_j prod_{p=m-j+1}^{mu_j+m-j} (alpha+p), over the same product of
    alpha+beta+m+p for JUE, one division.  Reals if either parameter is."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    if isinstance(alpha, mpmath.mpf) or isinstance(beta, mpmath.mpf):
        alpha, beta = to_mpf(alpha), None if beta is None else to_mpf(beta)
    rows = [p for j in range(1, m + 1) for p in range(m - j + 1, pt.part(mu, j) + m - j + 1)]
    den = 1 if beta is None else math.prod(alpha + beta + m + p for p in rows)
    return schur_principal(mu, m) * math.prod(alpha + p for p in rows) / den


def schur_avg_jue_tilde_principal(mu, m: int, alpha, beta):
    """JUE-tilde <s_mu> = s_mu(1^m) s_mu(1^(alpha+m)) / s_mu'(1^beta_t),
    beta_t = beta - alpha - m >= mu_1, per partition by hook-content
    products; 0 when l(mu) > m."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    return (schur_principal(mu, m) * schur_principal(mu, alpha + m)
            / schur_principal(pt.conjugate(mu), beta - alpha - m))


def in_rectangle(p, rows: int, cols: int) -> bool:
    return len(p) <= rows and (not p or p[0] <= cols)


def rectangle_complement(mu, rows: int, cols: int):
    """Complement of mu in the rows x cols rectangle, rotated by 180 degrees.

    lam_j = cols - mu_{rows+1-j}; an involution on the rectangle.
    """
    mu = pt.canonical(mu)
    if not in_rectangle(mu, rows, cols):
        raise ValueError(f"{mu} does not fit in a {rows}x{cols} rectangle")
    lam = tuple(cols - pt.part(mu, rows + 1 - j) for j in range(1, rows + 1))
    return pt.canonical(lam)


def schur_avg_lue_tilde_complement(nu, m: int, alpha_tilde):
    """Inverse-Laguerre (LUE-tilde) <s_nu>, alpha_tilde - 2m - nu_1 > -1.

    Mapping z -> 1/z sends the weight z^-at e^(-1/z) to an effective LUE
    with alpha_base = at - 2m, and s_nu(1/z) = s_nu*(z) prod z^-nu_1 with
    nu* the reversed complement in the m x nu_1 rectangle.  Absorbing the
    extra power into the weight shifts alpha by nu_1 and leaves a
    partition-function ratio:

        <s_nu> = [prod_j Gamma(ab-nu_1+j)/Gamma(ab+j)] <s_nu*>_{LUE, ab-nu_1}

    with ab = alpha_tilde - 2m, the LUE average by `schur_avg_row_products`.
    (The bare reduction without the partition-function ratio fails already
    at m = 1.)  0 when l(nu) > m.
    """
    nu = pt.canonical(nu)
    if len(nu) > m:
        return Fraction(0)
    ell = nu[0] if nu else 0
    abase = alpha_tilde - 2 * m
    nustar = rectangle_complement(nu, m, ell)
    pref = math.prod((recip(poch(abase - ell + j, ell)) for j in range(1, m + 1)),
                     start=Fraction(1))
    return pref * schur_avg_row_products(nustar, m, abase - ell)


def schur_avg_gue_blocks(mu, m: int) -> Fraction:
    """GUE <s_mu> by the parity-block evaluation of the moment determinant
    (Di Francesco-Itzykson type formula).  With L = l(mu) padded to even
    length and l_j = mu_j + L - j, the average is c(l) / c(l at mu = ())
    times s_mu(1^m), where c collects double factorials of the l_j, plain
    products of cross-parity differences, and the sign of the row and column
    permutations that split the determinant into its even and odd moment
    blocks.  It vanishes when |mu| is odd or the parity counts of the l_j
    are unbalanced."""
    mu = pt.canonical(mu)
    if len(mu) > m or sum(mu) % 2:
        return Fraction(0)

    def block_coeff(l):
        if 2 * sum(x % 2 for x in l) != len(l):
            return None
        # sign of moving even-l rows in front of odd-l rows, order preserved
        inv = sum(sum(y % 2 for y in l[:i]) for i, x in enumerate(l) if x % 2 == 0)
        # (x)!! at odd x, (x - 1)!! at even x; the cross-parity differences
        num = math.prod(double_factorial(x - 1 + x % 2) for x in l)
        cross = math.prod(a - b for i, a in enumerate(l) for b in l[i + 1:] if (a - b) % 2)
        return Fraction((-1) ** inv * num, cross)

    big_l = len(mu) + len(mu) % 2
    c_mu = block_coeff([pt.part(mu, j) + big_l - j for j in range(1, big_l + 1)])
    c_0 = block_coeff(list(range(big_l - 1, -1, -1)))
    if c_mu is None or c_0 is None:
        return Fraction(0)
    return (c_mu / c_0) * schur_principal(mu, m)


def _hook_content_qratio(mu, m: int, ups=(), downs=(), offset: int = 0):
    """u^offset dim_q(mu) prod_a (1 - q^a) / prod_b (1 - q^b) as one
    `qratio` over the hook-content multiset of mu and the extra factors:
    dim_q(mu) = prod_boxes [m + c]_q / [h]_q, [z]_q = u^(1-z) (1 - q^z)/(1 - q);
    0 when l(mu) > m."""
    mu = pt.canonical(mu)
    if len(mu) > m:
        return Fraction(0)
    data = pt.hook_content_data(mu)
    up, down = [m + c for _, _, c in data], [h for _, h, _ in data]
    return qratio(up + list(ups), down + list(downs), offset + sum(down) - sum(up))


def schur_avg_sw_hook_content(mu, m: int):
    """SW <s_mu> = q^(-1/2 sum mu_j (mu_j + 3m + 1 - 2j)) dim_q(mu) per partition."""
    e = sum(pt.part(mu, j) * (pt.part(mu, j) + 3 * m + 1 - 2 * j) for j in range(1, m + 1))
    return _hook_content_qratio(mu, m, offset=-e)


def schur_avg_qlue_hook_content(mu, m: int, alpha: int):
    """Integer-alpha qLUE <s_mu> = q^(-(m-1)|mu|/2) dim_q(mu) prod_j
    m_{mu_j+m-j}/m_{m-j} per partition, each moment ratio
    q^(-(alpha+p)) (1 - q^(alpha+p))/(1 - q)."""
    rows = [p for j in range(1, m + 1)
            for p in range(m - j + 1, pt.part(mu, j) + m - j + 1)]
    ups = [alpha + p for p in rows]
    return _hook_content_qratio(mu, m, ups, [1] * len(ups),
                                -(m - 1) * sum(mu) - 2 * sum(ups))


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
    lue0 = EnsembleSpec("lue", alpha=0)
    lhs = schur_average(EnsembleSpec("lue", alpha=alpha), mu, m)
    shifted = pt.canonical(tuple(pt.part(mu, j) + alpha for j in range(1, m + 1)))
    rhs = schur_average(lue0, shifted, m) / schur_average(lue0, (alpha,) * m, m)
    return lhs, rhs


def kernel_cd_formula(spec: EnsembleSpec, n_rank: int, x, y):
    """The Christoffel-Darboux formula form
    (P_N(x) P_{N-1}(y) - P_{N-1}(x) P_N(y)) / (h_{N-1} (x - y)); x != y."""
    if x == y:
        raise ValueError("CD formula form needs x != y")
    osys = ortho_system(spec, n_rank)
    pm, pn = monic_polys(osys)[n_rank - 1:]
    return (pn(x) * pm(y) - pm(x) * pn(y)) \
        * recip(osys.norms[n_rank - 1] * (x - y))


def zgcd(a: list, b: list) -> list:
    """Primitive gcd of nonzero a, b in Z[u]: a over its cofactor."""
    return _zexquo(a, _zcancel(a, b)[0])


def _zprimitive(c: list) -> list:
    while c and not c[-1]:
        c = c[:-1]
    g = math.gcd(*c) * (1 if c[-1] > 0 else -1)
    return [x // g for x in c]


def zmul(a: list, b: list) -> list:
    """The product of two coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def zgcd_euclid(a: list, b: list) -> list:
    """Primitive gcd, with a positive leading coefficient, of nonzero a, b in
    Z[u]: the primitive pseudo-remainder sequence, each remainder lc(b)^k a
    minus multiples of b, over its content."""
    a, b = _zprimitive(a), _zprimitive(b)
    while len(b) > 1:
        while len(a) >= len(b) and any(a):
            c, d = a[-1], len(a) - len(b)
            a = [x * b[-1] - (c * b[i - d] if i >= d else 0) for i, x in enumerate(a)][:-1]
        a, b = b, a
        if not any(b):
            return a
        b = _zprimitive(b)
    return [1]


def chebyshev_u_all(kmax: int, w) -> list:
    """Chebyshev U_0(w)..U_kmax(w) via U_{k+1}(w) = 2w U_k(w) - U_{k-1}(w)."""
    if kmax < 0:
        raise ValueError("chebyshev_u_all needs kmax >= 0")
    u = [1, 2 * w]
    for _ in range(kmax - 1):
        u.append(2 * w * u[-1] - u[-2])
    return u[:kmax + 1]


def toeplitz_inverse_closed_fractions(gamma: int, delta: int, m: int):
    """[T_M^-1]_{jk} = Gamma(g+j) Gamma(d+k) / (Gamma(j) Gamma(k))
    sum_{r=max(j,k)}^{M} Gamma(r)/Gamma(g+d+r) C(g+r-k-1, r-k) C(d+r-j-1, r-j),
    1-based, one Fraction per term."""
    out = [[Fraction(0)] * m for _ in range(m)]
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            pref = Fraction(poch(j, gamma) * poch(k, delta))
            s = sum((Fraction(math.factorial(r - 1), math.factorial(gamma + delta + r - 1))
                     * binom(gamma + r - k - 1, r - k) * binom(delta + r - j - 1, r - j)
                     for r in range(max(j, k), m + 1)), Fraction(0))
            out[j - 1][k - 1] = pref * s
    return out


def schur_doubling_fractions(x, y, q, terms: int, k: int = 0):
    """(sum_j q^j s_(k+j,k)(x, 1/x) s_(k+j,k)(y, 1/y), sum_j q^j h_j(x, 1/x)
    h_j(y, 1/y)) over j < terms, each term a Fraction product of
    `schur_table` and `complete_h_all` values at the rational points."""
    x, y, q = Fraction(x), Fraction(y), Fraction(q)
    zx, zy = [x, 1 / x], [y, 1 / y]
    hx, hy = complete_h_all(terms - 1, zx), complete_h_all(terms - 1, zy)
    cols = max(k + terms - 1, 0)
    sx, sy = schur_table(2, cols, zx), schur_table(2, cols, zy)
    schur_form = h_form = Fraction(0)
    for j in range(terms):
        lam = pt.canonical((k + j, k))
        schur_form += q ** j * sx[lam] * sy[lam]
        h_form += q ** j * hx[j] * hy[j]
    return schur_form, h_form
