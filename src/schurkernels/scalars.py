"""Exact and high-precision scalars: rationals, Laurent rational functions in
u = q^(1/2), arbitrary-precision reals, polynomials and determinants.

Every other module is generic over these three scalar fields:

* exact rationals          -- ``fractions.Fraction``,
* exact q-objects          -- ``QRat``, Laurent rational functions in u,
* high-precision reals     -- mpmath ``mpf`` at the caller's working precision.

Library code never sets the precision itself: like mpmath's own functions
it runs at ``mpmath.mp.dps``, and so does ``to_mpf``.  The CLI root
group, ``verify.run_suite`` and the ``dps`` argument of the query functions
(``guarded``, which also adds guard digits and rounds once) set it.

Working in u = q^(1/2) (instead of q) keeps Stieltjes-Wigert moments
q^(-(p+1)^2/2) and symmetric q-numbers exact Laurent objects.  ``QRat``
keeps integer coefficient lists (the ``_z*`` helpers): a list c is read as
the one integer c(2^(8w)) (Kronecker substitution), so a product, an exact
quotient, a heuristic gcd or a whole determinant over Z[u] is big-integer
arithmetic.  ``Poly`` over Fractions, QRats or mpfs uses the
generic dense-list helpers (``_p*``).  ``parse_number`` is the one parser
of numeric strings and ``to_mpf`` the one scalar-to-real conversion.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import mpmath
from mpmath.libmp import from_rational, round_nearest

DEFAULT_DPS = 50
#: default comparison tolerance for high-precision reals
DEFAULT_TOL = Fraction(1, 10**40)


def frac_str(x) -> str:
    """Serialize an exact rational as the lossless string "p/q"."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_number(s: str):
    """An exact int, or the exact Fraction of a "p/q" or finite decimal string
    (never a binary float).  Anything else raises ValueError (quoting at most 40
    characters of s), as does a decimal whose exponent would build an int wider
    than `sys.get_int_max_str_digits()`."""
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        pass
    mant, _, exp = s.lower().partition("e")
    exp, limit = exp.lstrip("+-").replace("_", ""), sys.get_int_max_str_digits()
    quoted = repr(s) if len(s) <= 40 else f"{s[:40]!r}..."
    if limit and exp.isdecimal() and (len(exp) > len(str(limit)) or int(exp) + len(mant) > limit):
        raise ValueError(f"number {quoted} has more than {limit} digits")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {quoted}") from None
    except ValueError:
        raise ValueError(f"cannot parse number {quoted}") from None


def to_mpf(x):
    """x as an mpf at the working precision, rounded once: a Fraction is its
    correctly rounded value (not its numerator rounded, then divided), an
    mpf is returned as it is."""
    if isinstance(x, mpmath.mpf):
        return x
    if isinstance(x, Fraction):
        return mpmath.mp.make_mpf(from_rational(x.numerator, x.denominator,
                                                mpmath.mp.prec, round_nearest))
    return mpmath.mpf(x)


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
    return math.prod(range(n, 1, -2))


def poch(x, k: int):
    """Rising factorial x(x+1)...(x+k-1); exact when x is exact."""
    if k < 0:
        raise ValueError("poch needs k >= 0")
    return math.prod(x + i for i in range(k))


def barnes_g_int(n: int) -> int:
    """Barnes G at a positive integer: G(n) = prod_{k=1}^{n-2} k!."""
    if n <= 0:
        raise ValueError("barnes_g_int needs n >= 1")
    return math.prod(math.factorial(k) for k in range(1, n - 1))


def recip(v):
    """Multiplicative inverse staying in the scalar field of v."""
    if isinstance(v, (int, Fraction)):
        return Fraction(1) / v
    return 1 / v


def int_form(values):
    """(nums, d) with values[i] = nums[i] / d, for a sum over a common
    denominator that divides once (`over`): ints over the lcm d of the
    denominators at ints and Fractions, Laurent polynomials over the lcm d
    in Z[u] of the denominators at QRats (over 1 if all are Laurent), and
    the values themselves over d = 1 in any other field (mpf)."""
    if all(isinstance(v, (int, Fraction)) for v in values):
        d = math.lcm(*(v.denominator for v in values))
        return tuple(v.numerator * (d // v.denominator) for v in values), d
    q = [QRat._coerce(v) for v in values]
    if None in q or all(x.den == [1] for x in q):
        return tuple(values), 1
    d = functools.reduce(_zlcm, map(list, {tuple(x.den) for x in q}), [1])
    return tuple(QRat._raw(x.offset, _zmul(x.num, d if x.den == [1] else _zexquo(d, x.den)),
                           [1], True) for x in q), QRat._raw(0, d, [1], True)


def over(n, d):
    """n / d, the one division that ends a sum over a common denominator:
    a Fraction for two ints, n itself when d = 1."""
    if isinstance(n, int) and isinstance(d, int):
        return Fraction(n, d)
    return n if d == 1 else n / d


def guarded(real, dps: int | None, extra: int, compute):
    """compute() for a query function's `dps` argument: a real query works
    `extra` digits above dps (None: the working precision) and is rounded
    once to it; an exact one runs as it is, with no precision context."""
    if not real:
        return compute()
    with mpmath.workdps(dps or mpmath.mp.dps):
        with mpmath.extradps(extra):
            value = compute()
        return +value


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
# dense coefficient lists, lowest degree first, over any ring: the arithmetic
# of Poly (any exact field or mpf) and the generic parts of QRat's
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
    inv = recip(b[-1])
    while len(r) >= len(b):
        c = r[-1] * inv
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[i + d] -= c * y
        _ptrim(r)
        if not r:
            break
    return _ptrim(q), r


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
# integer coefficient lists, the exact core of QRat.  c is read as the integer
# c(2^(8w)), w bytes per coefficient, with every |c_i| < 2^(8w-1); the least
# such w for |c_i| <= bound is bound.bit_length() // 8 + 1
# ----------------------------------------------------------------------------

def _zbias(n: int, w: int) -> int:
    """sum_{i<n} 2^(8w-1) 2^(8wi), which makes n signed digits nonnegative."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _zpack(c, w: int) -> int:
    h = 1 << (8 * w - 1)
    return int.from_bytes(b"".join((x + h).to_bytes(w, "little") for x in c),
                          "little") - _zbias(len(c), w)


def _zunpack(x: int, w: int) -> list:
    n, h = x.bit_length() // (8 * w) + 2, 1 << (8 * w - 1)
    b = (x + _zbias(n, w)).to_bytes(n * w, "little")
    return _ptrim([int.from_bytes(b[i:i + w], "little") - h for i in range(0, n * w, w)])


def _zmul(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    if len(b) <= 1:
        return [x * b[0] for x in a] if b else []
    w = (max(map(abs, a)) * max(map(abs, b)) * len(b)).bit_length() // 8 + 1
    return _zunpack(_zpack(a, w) * _zpack(b, w), w)


def _zexquo(a: list, b: list):
    """a/b if b divides the nonzero a in Z[u], else None.  A factor of a has
    coefficients at most 2^deg ||a||_1 (Mignotte), so the quotient's digits
    read back; the product check makes the answer exact."""
    w = max(sum(map(abs, a)) << max(len(a) - len(b), 0), *map(abs, b)).bit_length() // 8 + 1
    q, r = divmod(_zpack(a, w), _zpack(b, w))
    q = None if r else _zunpack(q, w)
    return q if q and _zmul(b, q) == a else None


def _zprim(c: list) -> list:
    """c over its content, with a positive leading coefficient."""
    g = math.gcd(*c) * (1 if c[-1] > 0 else -1)
    return [x // g for x in c]


def _zlcm(a: list, b: list) -> list:
    """lcm in Z[u] of nonzero a, b with positive leading coefficients."""
    c = math.gcd(math.gcd(*a), math.gcd(*b))
    return [x // c for x in _zmul(a, _zcancel(a, b)[1])]


def _zcancel(a: list, b: list) -> tuple[list, list]:
    """a and b over their primitive gcd g, for nonzero a, b in Z[u].
    Heuristic gcd (Char, Geddes and Gonnet, J. Symb. Comp. 7, 1989): at xi >=
    2 max|a_i, b_i| + 2 of the primitive parts, the symmetric xi-adic digits
    of gcd(a(xi), b(xi)) are g once their primitive part divides both, and
    the two exact quotients are the answer.  The first xi = 2^(8w) packs;
    a power of two can share a factor with every value of u^j - 2^k, so up
    to six more xi, each floor(xi 73794/27011) of the last, evaluate by
    Horner; when all fail, primitive Euclid finds g."""
    if len(a) == 1 or len(b) == 1:
        return a, b
    pa, pb = _zprim(a), _zprim(b)
    w = max(map(abs, pa + pb)).bit_length() // 8 + 1
    xi = 1 << 8 * w
    for k in range(7):
        if k == 0:
            g = _zunpack(math.gcd(_zpack(pa, w), _zpack(pb, w)), w)
        else:
            xi, g = xi * 73794 // 27011, []
            h = math.gcd(*(functools.reduce(lambda v, c: v * xi + c, p[::-1], 0) for p in (pa, pb)))
            while h:  # the symmetric digits, least first
                h, d = divmod(h, xi)
                h, d = (h + 1, d - xi) if 2 * d > xi else (h, d)
                g.append(d)
        g = _zprim(g)
        if len(g) == 1:
            return a, b
        if (qa := _zexquo(a, g)) and (qb := _zexquo(b, g)):
            return qa, qb
    while pb:  # each remainder over Q scaled to a primitive integer list
        r = _pdivmod([Fraction(x) for x in pa], pb)[1]
        lcd = math.lcm(*(x.denominator for x in r))
        pa, pb = pb, r and _zprim([int(x * lcd) for x in r])
    return (_zexquo(a, pa), _zexquo(b, pa)) if len(pa) > 1 else (a, b)


# ----------------------------------------------------------------------------
# QRat: Laurent rational functions in u = q^(1/2)
# ----------------------------------------------------------------------------

class QRat:
    """Exact Laurent rational function in u = q^(1/2).

    Canonical form: value = u^offset * num(u)/den(u) with integer
    coefficients, num[0] != 0, den[0] != 0, gcd(num, den) = 1, no integer
    factor common to all coefficients of num and den, and den[-1] > 0.
    Zero is offset 0, num = [], den = [1].  The constructor also takes
    Fraction coefficients.
    """

    __slots__ = ("offset", "num", "den")

    def __init__(self, offset=0, num=(1,), den=(1,)):
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        lcd = math.lcm(*(c.denominator for c in num + den))
        self.offset, self.num, self.den = _qr_canonical(
            offset, [int(c * lcd) for c in num], [int(c * lcd) for c in den])

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, c) -> "QRat":
        c = Fraction(c)
        return cls._raw(0, [c.numerator], [c.denominator], True)

    @classmethod
    def u_power(cls, k: int) -> "QRat":
        return cls._raw(k, [1], [1], True)

    @classmethod
    def q_power(cls, k: int) -> "QRat":
        """q^k = u^(2k)."""
        return cls.u_power(2 * k)

    @classmethod
    def _raw(cls, offset, num, den, coprime=False) -> "QRat":
        self = object.__new__(cls)
        self.offset, self.num, self.den = _qr_canonical(offset, num, den, coprime)
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
        a = _zmul([0] * (self.offset - k) + self.num, o.den)
        b = _zmul([0] * (o.offset - k) + o.num, self.den)
        return QRat._raw(k, _padd(a, b), _zmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return QRat._raw(self.offset, _pneg(self.num), self.den, True)

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
        # cross-cancel, after which the product is already in lowest terms
        n1, d2 = _zcancel(self.num, o.den)
        n2, d1 = _zcancel(o.num, self.den)
        return QRat._raw(self.offset + o.offset, _zmul(n1, n2), _zmul(d1, d2), True)

    __rmul__ = __mul__

    def inverse(self) -> "QRat":
        if not self.num:
            raise ZeroDivisionError("QRat inverse of zero")
        return QRat._raw(-self.offset, self.den, self.num, True)

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
        if len(self.num) == len(self.den) == 1:  # u^offset c/d: one object
            return QRat._raw(self.offset * k, [self.num[0] ** k], [self.den[0] ** k], True)
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

    def _monic(self) -> tuple[list, list]:
        """num and den as Fractions over the leading coefficient of den."""
        return tuple([Fraction(c, self.den[-1]) for c in p] for p in (self.num, self.den))

    def to_json(self) -> dict:
        num, den = (([f"{c}/1" for c in p] for p in (self.num, self.den)) if self.den[-1] == 1
                    else ([frac_str(c) for c in p] for p in self._monic()))
        return {"var": "u", "offset": self.offset, "num": num, "den": den}

    def __repr__(self):
        if not self.num:
            return "QRat(0)"
        num, den = self._monic()
        return f"QRat(u^{self.offset} * ({_pstr(num, 'u')}) / ({_pstr(den, 'u')}))"


def _qr_canonical(offset, num, den, coprime=False):
    _ptrim(num)
    _ptrim(den)
    if not den:
        raise ZeroDivisionError("QRat with zero denominator")
    if not num:
        return 0, [], [1]
    i = next(k for k, c in enumerate(num) if c)
    j = next(k for k, c in enumerate(den) if c)
    offset += i - j
    num, den = num[i:], den[j:]
    if not coprime:
        num, den = _zcancel(num, den)
    # den first: at den = [1], math.gcd reaches 1 at once and skips num
    c = math.gcd(*den, *num) * (1 if den[-1] > 0 else -1)
    if c != 1:
        num, den = [x // c for x in num], [x // c for x in den]
    return offset, num, den


def qratio(ups, downs, offset: int = 0, start=(1,)) -> QRat:
    """u^offset c prod_a (1 - q^a) / prod_b (1 - q^b), c the integer list
    `start` in q, for positive integer exponents, when the quotient is a
    Laurent polynomial; otherwise ValueError.  Equal exponents cancel, the
    rest multiply c as lists (c - q^a c), and c / (1 - q^b) is the prefix
    sum of c along the stride b, whose last b entries are the remainder.
    No gcd is taken.  The q `walk` starts at a parent's list."""
    up, down = Counter(ups), Counter(downs)
    c = list(start)
    for a in (up - down).elements():
        ext = c + [0] * a
        c = ext[:a] + [x - y for x, y in zip(ext[a:], c)]
    for b in (down - up).elements():
        s = c[:]
        for r in range(b):
            s[r::b] = accumulate(c[r::b])
        if len(s) <= b or any(s[-b:]):
            raise ValueError("qratio: the product is not divisible")
        c = s[:-b]
    num = [0] * (2 * len(c) - 1)
    num[::2] = c
    return QRat._raw(offset, num, [1], True)


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
    """Determinant of a square matrix over one scalar field; a 1x1 matrix
    gives its entry, in every field.

    Fraction-free Bareiss elimination over the rationals and Polys (every
    division is exact, which tames intermediate growth).  Rational row i is
    first scaled by the lcm L_i of its denominators, so Bareiss runs on ints
    with // and det = det(int rows) / prod L_i: an all-int matrix gives an
    int, any Fraction entry a Fraction.  A rational entry of a Poly matrix is
    a constant Poly, so that no two ints meet in `/`.  QRat: see _det_qrat;
    high-precision reals: partial-pivot Gaussian elimination.  Mixing fields
    is an error.
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
    if n == 1:
        return matrix[0][0]
    if kinds == {"hpreal"}:
        return _det_hpreal(matrix)
    if kinds == {"qrat"}:
        return _det_qrat(matrix)
    if kinds == {"poly"}:
        return _bareiss([[Poly._coerce(x) for x in row] for row in matrix], operator.truediv)
    if all(isinstance(x, int) for row in matrix for x in row):
        return _bareiss([list(row) for row in matrix], operator.floordiv)
    rows = [int_form(row) for row in matrix]
    return Fraction(_bareiss([list(z) for z, _ in rows], operator.floordiv),
                    math.prod(lcd for _, lcd in rows))


def _bareiss(m, div):
    """Determinant of the square matrix m by fraction-free elimination, in
    place; div is the exact division of its entries."""
    n = len(m)
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
                m[i][j] = div(t, prev) if k > 0 else t
            m[i][k] = 0
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


#: the largest non-monomial QRat determinant for `_laplace` (2^n minors, 0.2 GB at 12)
_LAPLACE_MAX_N = 12


def _det_qrat(matrix):
    """Row i times u^-k_i L_i (L_i the product of its denominators) is a row
    of Z over Z[u]; det = u^(sum k_i) det Z / prod L_i, with det Z taken on
    the integers at u = 2^(8w) (a ring map): each distinct entry packed once
    and shifted by its power of u.  2^(8w-1) exceeds prod_i sum_j ||Z_ij||_1,
    which bounds the coefficients of every minor."""
    rows, offset, den, bound = [], 0, [1], 1
    for row in matrix:
        row = [QRat._coerce(x) for x in row]
        if not any(row):
            return QRat.const(0)
        k = min(x.offset for x in row if x)
        lcd = functools.reduce(_zmul, {tuple(x.den) for x in row}, [1])
        rows.append([(x.offset - k if x else 0, tuple(
            _zmul(x.num, lcd if x.den == [1] else _zexquo(lcd, x.den)))) for x in row])
        offset, den = offset + k, _zmul(den, lcd)
        bound *= sum(sum(map(abs, e)) for _, e in rows[-1])
    w = bound.bit_length() // 8 + 1
    packed = {e: _zpack(e, w) for e in {e for z in rows for _, e in z}}
    m = [[packed[e] << 8 * w * s for s, e in z] for z in rows]
    # monomial entries, as in every Stieltjes-Wigert moment matrix: Bareiss is faster
    small = len(m) <= _LAPLACE_MAX_N and any(len(e) > 1 for e in packed)
    d = _laplace(m) if small else _bareiss(m, operator.floordiv)
    return QRat._raw(offset, _zunpack(d, w), den)


def _laplace(m) -> int:
    """Determinant of a square int matrix by Laplace expansion along each row
    in turn, smallest first, keeping each minor of the rows so far once per
    column set (a bit mask): n 2^(n-1) products and no division."""
    order = sorted(range(len(m)), key=lambda i: sum(map(int.bit_length, m[i])))
    minors = {0: (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1:])}
    for row in map(m.__getitem__, order):
        nxt = {}
        for cols, d in minors.items():
            for j, x in enumerate(row):
                if x and not cols >> j & 1:
                    t = -x * d if (cols >> j).bit_count() & 1 else x * d
                    c = cols | 1 << j
                    nxt[c] = nxt.get(c, 0) + t
        minors = nxt
    return minors.get((1 << len(m)) - 1, 0)


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


def mat_inverse_exact(matrix):
    """Inverse of a square rational matrix; every entry is a Fraction.
    A = diag(L)·M is an int matrix (L_i the lcm of the denominators of row
    i) and M^-1[i][j] = adj(A)[i][j]·L_j / det A, from `int_adjugate`."""
    rows = [int_form(row) for row in matrix]
    det, adj = int_adjugate([list(z) for z, _ in rows])
    return [[Fraction(x * lcd, det) for x, (_, lcd) in zip(row, rows)] for row in adj]


def int_adjugate(a):
    """(det A, adj A) of a square int matrix, for `mat_inverse_exact`, by
    fraction-free Gauss-Jordan on [A | I] (Bareiss, Math. Comp. 22, 1968):
    every division is exact and the elimination ends at [d·I | d·A^-1],
    d = ±det A by the row swaps."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        p = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


# ----------------------------------------------------------------------------
# high-precision special functions
# ----------------------------------------------------------------------------

def gamma_real(z):
    """Gamma(z) at the working precision (mpmath's Lanczos-class evaluation).

    Accuracy target: relative error below 10^-(dps-5), checked by the
    functional-equation sweep in the test suite.
    """
    z = to_mpf(z)
    if z <= 0 and abs(z - mpmath.nint(z)) < mpmath.mpf(10) ** (5 - mpmath.mp.dps):
        raise ValueError(f"gamma_real pole at z = {z}")
    return mpmath.gamma(z)


def qgamma_real(z, q):
    """Gamma_q(z) = (1-q)^(1-z) prod_{k>=0} (1-q^(k+1))/(1-q^(k+z)) for
    0 < q < 1, by mpmath.qgamma at the working precision.  A pole, or a
    product that mpmath cannot converge (q close to 1), raises ValueError.
    """
    z, q = to_mpf(z), to_mpf(q)
    if not (0 < q < 1):
        raise ValueError("qgamma_real needs 0 < q < 1")
    if z <= 0 and abs(z - mpmath.nint(z)) < mpmath.mpf(10) ** (5 - mpmath.mp.dps):
        raise ValueError(f"qgamma_real pole at z = {z}")
    try:
        return mpmath.qgamma(z, q)
    except mpmath.mp.NoConvergence:
        raise ValueError("qgamma_real product failed to converge") from None


def hp_close(a, b, tol=DEFAULT_TOL) -> bool:
    """Relative comparison of high-precision values at the working precision."""
    a, b = to_mpf(a), to_mpf(b)
    scale = max(abs(a), abs(b))
    if scale == 0:
        return True
    return abs(a - b) / scale < mpmath.mpf(tol.numerator) / tol.denominator


def hpreal_json(x) -> dict:
    dps = mpmath.mp.dps
    return {"value": mpmath.nstr(x, dps), "precision": dps}
