"""Exact and high-precision scalars: rationals, Laurent rational functions in
u = q^(1/2), arbitrary-precision reals, polynomials and determinants.

Every other module is generic over these three scalar fields:

* exact rationals          -- ``fractions.Fraction``,
* exact q-objects          -- ``QRat``, Laurent rational functions in u,
* high-precision reals     -- mpmath ``mpf`` at a configurable precision.

Working in u = q^(1/2) (instead of q) keeps Stieltjes-Wigert moments
q^(-(p+1)^2/2) and symmetric q-numbers exact Laurent objects.  One dense
coefficient-list engine (the ``_p*`` helpers) does the polynomial arithmetic
of both ``QRat`` and ``Poly``; ``parse_number`` is the one parser of numeric
strings and ``to_mpf`` the one scalar-to-real conversion.
"""

from __future__ import annotations

import inspect
import math
from fractions import Fraction
from functools import wraps

import mpmath

DEFAULT_DPS = 50
#: default comparison tolerance for high-precision reals
DEFAULT_TOL = Fraction(1, 10**40)


def frac_str(x) -> str:
    """Serialize an exact rational as the lossless string "p/q"."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_number(s: str, dps: int):
    """An exact int, an exact "p/q" Fraction, or a finite decimal mpf at dps
    digits -- never a binary float.  Anything else raises ValueError."""
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        pass
    if "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    with mpmath.workdps(dps):
        try:
            v = mpmath.mpf(s)
        except ValueError:
            raise ValueError(f"cannot parse number {s!r}") from None
    if not mpmath.isfinite(v):
        raise ValueError(f"number {s!r} is not finite")
    return v


def to_mpf(x):
    """x as an mpf at the working precision; a Fraction is its numerator
    divided by its denominator, an mpf is returned as it is."""
    if isinstance(x, mpmath.mpf):
        return x
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def factorial(n: int) -> int:
    return math.factorial(n)


def binom(n: int, k: int) -> int:
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    # generalized: binom(n, k) = (-1)^k binom(k-n-1, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def double_factorial(n: int) -> int:
    """n!! for n >= -1, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial not defined here for {n}")
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def poch(x, k: int):
    """Rising factorial x(x+1)...(x+k-1); exact when x is exact."""
    if k < 0:
        raise ValueError("poch needs k >= 0")
    r = 1
    for i in range(k):
        r = r * (x + i)
    return r


def barnes_g_int(n: int) -> int:
    """Barnes G at a positive integer: G(n) = prod_{k=1}^{n-2} k!."""
    if n <= 0:
        raise ValueError("barnes_g_int needs n >= 1")
    r = 1
    for k in range(1, n - 1):
        r *= math.factorial(k)
    return r


def recip(v):
    """Multiplicative inverse staying in the scalar field of v."""
    if isinstance(v, (int, Fraction)):
        return Fraction(1) / v
    return 1 / v


def with_working_precision(fn):
    """Run the call under mpmath.workdps(dps), dps taken from the call's
    own `dps` argument.  Exact-field work is unaffected; HPReal work gets
    the requested precision independent of the ambient mpmath context."""
    sig = inspect.signature(fn)

    @wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        with mpmath.workdps(bound.arguments.get("dps", DEFAULT_DPS)):
            return fn(*args, **kwargs)

    return wrapper


def rational_sqrt(x) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    f = Fraction(x)
    if f < 0:
        return None
    pn, pd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


# ----------------------------------------------------------------------------
# dense coefficient lists, lowest degree first: the one polynomial engine,
# shared by QRat (Fraction coefficients) and Poly (any exact field or mpf)
# ----------------------------------------------------------------------------

def _ptrim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a: list) -> list:
    return [-x for x in a]


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = a[:]
    q = [0] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lb
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[i + d] -= c * y
        _ptrim(r)
        if not r:
            break
    return _ptrim(q), r


def _pgcd(a: list, b: list) -> list:
    a, b = a[:], b[:]
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lc = a[-1]
        a = [x / lc for x in a]
    return a


def _phorner(c: list, x):
    r = x * 0
    for v in reversed(c):
        r = r * x + v
    return r


def _pstr(c: list, var: str) -> str:
    terms = [f"{v}*{var}^{i}" for i, v in enumerate(c) if v]
    return " + ".join(terms) if terms else "0"


def _binpow(b, k: int, one):
    """b**k for an integer k >= 0 by repeated squaring."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    r = one
    while k:
        if k & 1:
            r = r * b
        b = b * b
        k >>= 1
    return r


# ----------------------------------------------------------------------------
# QRat: Laurent rational functions in u = q^(1/2)
# ----------------------------------------------------------------------------

class QRat:
    """Exact Laurent rational function in u = q^(1/2).

    Canonical form: value = u^offset * num(u)/den(u) with num[0] != 0,
    den[0] != 0, gcd(num, den) = 1 and den monic (leading coefficient 1,
    hence positive).  Zero is offset 0, num = [], den = [1].
    """

    __slots__ = ("offset", "num", "den")

    def __init__(self, offset=0, num=(1,), den=(1,)):
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        self.offset, self.num, self.den = _qr_canonical(offset, num, den)

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c) -> "QRat":
        return cls(0, [Fraction(c)], [Fraction(1)])

    @classmethod
    def u_power(cls, k: int) -> "QRat":
        return cls(k, [Fraction(1)], [Fraction(1)])

    @classmethod
    def q_power(cls, k: int) -> "QRat":
        """q^k = u^(2k)."""
        return cls(2 * k, [Fraction(1)], [Fraction(1)])

    @classmethod
    def _raw(cls, offset, num, den) -> "QRat":
        self = object.__new__(cls)
        self.offset, self.num, self.den = _qr_canonical(offset, num, den)
        return self

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QRat):
            return x
        if isinstance(x, (int, Fraction)):
            return QRat.const(x)
        return None

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        k = min(self.offset, o.offset)
        a = _pmul(_ushift(self.num, self.offset - k), o.den)
        b = _pmul(_ushift(o.num, o.offset - k), self.den)
        return QRat._raw(k, _padd(a, b), _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return QRat._raw(self.offset, _pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return QRat.const(0)
        # cross-cancel before multiplying to keep gcds small
        g1 = _pgcd(self.num, o.den)
        g2 = _pgcd(o.num, self.den)
        n1 = _pdivmod(self.num, g1)[0] if len(g1) > 1 else self.num
        d2 = _pdivmod(o.den, g1)[0] if len(g1) > 1 else o.den
        n2 = _pdivmod(o.num, g2)[0] if len(g2) > 1 else o.num
        d1 = _pdivmod(self.den, g2)[0] if len(g2) > 1 else self.den
        return QRat._raw(self.offset + o.offset, _pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "QRat":
        if not self.num:
            raise ZeroDivisionError("QRat inverse of zero")
        return QRat._raw(-self.offset, self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _binpow(self, k, QRat.const(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.offset == o.offset and self.num == o.num and self.den == o.den

    # -- evaluation / conversion ---------------------------------------------

    def eval_u(self, u):
        """Evaluate at a numeric u (Fraction or mpf); offset handled exactly."""
        num = _phorner(self.num, u)
        den = _phorner(self.den, u)
        if den == 0:
            raise ZeroDivisionError("QRat pole at requested u")
        return (u ** self.offset) * num / den

    def subs_u1(self):
        """Exact value at u = 1 (q -> 1 limit of the reduced form)."""
        den = _phorner(self.den, Fraction(1))
        if den == 0:
            raise ZeroDivisionError("QRat has a pole at u = 1")
        return _phorner(self.num, Fraction(1)) / den

    def to_json(self) -> dict:
        return {
            "var": "u",
            "offset": self.offset,
            "num": [frac_str(c) for c in self.num],
            "den": [frac_str(c) for c in self.den],
        }

    def __repr__(self):
        if not self.num:
            return "QRat(0)"
        return (f"QRat(u^{self.offset} * ({_pstr(self.num, 'u')}) / ({_pstr(self.den, 'u')}))")


def _ushift(c: list, k: int) -> list:
    return [Fraction(0)] * k + c if k else c


def _qr_canonical(offset, num, den):
    _ptrim(num)
    _ptrim(den)
    if not den:
        raise ZeroDivisionError("QRat with zero denominator")
    if not num:
        return 0, [], [Fraction(1)]
    i = next(k for k, c in enumerate(num) if c)
    j = next(k for k, c in enumerate(den) if c)
    offset += i - j
    num, den = num[i:], den[j:]
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
    lc = den[-1]
    if lc != 1:
        num = [c / lc for c in num]
        den = [c / lc for c in den]
    return offset, num, den


QRAT_ONE = QRat.const(1)
QRAT_U = QRat.u_power(1)


def qnum_symmetric(z: int) -> QRat:
    """Symmetric q-number [z]_q = (u^(-z) - u^z)/(u^(-1) - u)."""
    if z == 0:
        return QRat.const(0)
    if z < 0:
        return -qnum_symmetric(-z)
    # u^(1-z) (1 + u^2 + ... + u^(2z-2))
    return QRat(1 - z, [Fraction(1), Fraction(0)] * (z - 1) + [Fraction(1)])


def qnum_floor(z: int) -> QRat:
    """Asymmetric q-number |z|_q = (1 - q^z)/(1 - q)."""
    if z == 0:
        return QRat.const(0)
    if z < 0:
        # (1 - q^z)/(1 - q) = -q^z * |  -z |_q
        return -(QRat.q_power(z) * qnum_floor(-z))
    return QRat(0, [Fraction(1), Fraction(0)] * (z - 1) + [Fraction(1)])


def qfactorial_floor(n: int) -> QRat:
    """|n|_q! = prod_{i=1}^{n} |i|_q; equals Gamma_q(n+1) at integers."""
    r = QRat.const(1)
    for i in range(1, n + 1):
        r = r * qnum_floor(i)
    return r


# ----------------------------------------------------------------------------
# generic dense polynomial in one formal variable (coefficients in any field)
# ----------------------------------------------------------------------------

class Poly:
    """Univariate polynomial with coefficients in one scalar field.

    Coefficients may be ints, Fractions, QRats or mpfs; the arithmetic is
    the shared ``_p*`` coefficient-list engine.  Trailing zeros are trimmed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _ptrim(list(coeffs))

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction, QRat, mpmath.mpf)):
            return Poly([x])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(_padd(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Poly(_pneg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Poly(_pmul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by a polynomial or a scalar; a remainder is an error."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q, r = _pdivmod(self.coeffs, o.coeffs)
        if r:
            raise ValueError("inexact polynomial division")
        return Poly(q)

    def __pow__(self, k: int):
        return _binpow(self, k, Poly([1]))

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        return _phorner(self.coeffs, x)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __repr__(self):
        return f"Poly({_pstr(self.coeffs, 'x')})"


# ----------------------------------------------------------------------------
# determinants
# ----------------------------------------------------------------------------

def _scalar_kind(x) -> str:
    if isinstance(x, (int, Fraction)):
        return "rational"
    if isinstance(x, QRat):
        return "qrat"
    if isinstance(x, Poly):
        return "poly"
    if isinstance(x, mpmath.mpf):
        return "hpreal"
    raise TypeError(f"unsupported scalar {type(x)!r}")


def det_exact(matrix):
    """Determinant of a square matrix over one scalar field.

    Fraction-free Bareiss elimination for the exact fields (every division
    is exact, which tames intermediate growth); partial-pivot Gaussian
    elimination for high-precision reals.  Mixing fields is an error.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("det_exact needs a square matrix")
    if n == 0:
        return 1
    kinds = {_scalar_kind(x) for row in matrix for x in row}
    kinds.discard("rational")  # ints/Fractions embed in every exact field
    if len(kinds) > 1:
        raise ValueError(f"mixed scalar fields in matrix: {sorted(kinds)}")
    if kinds == {"hpreal"}:
        return _det_hpreal(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0 * m[0][0]
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = t / prev if k > 0 else t
            m[i][k] = 0
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def _det_hpreal(matrix):
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = mpmath.mpf(1)
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[piv][k] == 0:
            return mpmath.mpf(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


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


def mat_inverse_exact(matrix):
    """Exact inverse of a square matrix over an exact field (Gauss-Jordan)."""
    n = len(matrix)
    m = [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(matrix)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        d = m[k][k]
        m[k] = [x / d for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return [row[n:] for row in m]


# ----------------------------------------------------------------------------
# high-precision special functions
# ----------------------------------------------------------------------------

def gamma_real(z, dps: int = DEFAULT_DPS):
    """Gamma(z) to dps decimal digits (mpmath's Lanczos-class evaluation).

    Accuracy target: relative error below 10^-(dps-5), checked by the
    functional-equation sweep in the test suite.
    """
    with mpmath.workdps(dps):
        z = to_mpf(z)
        if z <= 0 and abs(z - mpmath.nint(z)) < mpmath.mpf(10) ** (-(dps - 5)):
            raise ValueError(f"gamma_real pole at z = {z}")
        return mpmath.gamma(z)


def qgamma_real(z, q, dps: int = DEFAULT_DPS):
    """Gamma_q(z) = (1-q)^(1-z) prod_{k>=0} (1-q^(k+1))/(1-q^(k+z)).

    The product is truncated once the running factor differs from 1 by
    less than 10^-(dps+5); the tail is geometric in q, so this bounds the
    truncation error below the working precision.
    """
    with mpmath.workdps(dps + 10):
        z, q = to_mpf(z), to_mpf(q)
        if not (0 < q < 1):
            raise ValueError("qgamma_real needs 0 < q < 1")
        if z <= 0 and abs(z - mpmath.nint(z)) < mpmath.mpf(10) ** (-(dps - 5)):
            raise ValueError(f"qgamma_real pole at z = {z}")
        eps = mpmath.mpf(10) ** (-(dps + 5))
        prod = mpmath.mpf(1)
        k = 0
        while True:
            denom = 1 - q ** (k + z)
            if denom == 0:
                raise ValueError(f"qgamma_real pole at z = {z}")
            factor = (1 - q ** (k + 1)) / denom
            prod *= factor
            if abs(factor - 1) < eps and k > 2:
                break
            k += 1
            if k > 100 * (dps + 10):
                raise ValueError("qgamma_real product failed to converge")
        result = (1 - q) ** (1 - z) * prod
    with mpmath.workdps(dps):
        return +result


def hp_close(a, b, tol=DEFAULT_TOL, dps: int = DEFAULT_DPS) -> bool:
    """Relative comparison of high-precision values inside a dps context."""
    with mpmath.workdps(dps):
        a, b = to_mpf(a), to_mpf(b)
        scale = max(abs(a), abs(b))
        if scale == 0:
            return True
        return abs(a - b) / scale < mpmath.mpf(tol.numerator) / tol.denominator


def hpreal_json(x, dps: int = DEFAULT_DPS) -> dict:
    with mpmath.workdps(dps):
        return {"value": mpmath.nstr(x, dps), "precision": dps}
