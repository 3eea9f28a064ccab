"""Exact scalar field of complex-rational trigonometric rational functions.

A scalar is a fraction N/D of "trig-polynomials": finite sums

    c * x^a * exp(i k.x),   c a Gaussian rational, a >= 0, k integer,

stored sparsely over the chart coordinates.  Each c is a `QQi`, three ints
(a + b*i)/d in lowest terms, so the kernels read a polynomial as Gaussian
integers over one common denominator (`zi_split`).  sin and cos enter through
their exponential combinations, which keeps the product-to-sum rewriting
implicit and the canonical form unique: fractions are reduced by a true
multivariate gcd and the denominator is normalised (leading coefficient 1,
no overall exp factor), so two scalars are equal iff their stored forms
are identical.

The gcd keeps no state between calls. Its last path is a heuristic gcd
over Z[i] built from Gaussian-integer gcds of evaluations, accepted only
when it divides both operands (`_heu_gcd`). `_gcd_cofactors` returns the gcd
with both cofactors, which every path has at hand (an exact quotient, the
heuristic's acceptance quotients or a key shift), so a reduction
(`_cross_reduce`) divides no more after the gcd; `poly_gcd` is the gcd alone.
The operands' form settles some operations with no gcd and no general
product: a product with a constant is a scale (none by 1), a product of two
scalars over the denominator 1 stays over it, a conjugate stays coprime, and
`is_real` compares numerators alone over a denominator that is real up to
an exp shift.

Denominators are kept factored next to their expanded form: `facs` is a
tuple of (f, e) with pairwise coprime, unit-free f (exp exponents from 0,
leading coefficient 1) whose powers multiply out to den exactly; () for den
1, (den, 1) for a fraction built from a raw (num, den). `==`, hashing,
printing and `eval` read den alone. So no operation takes a gcd of expanded
denominators: a sum takes its lcm by merging the two lists (`_merge`), and
its numerator meets only the factors of equal exponent on both sides; a
product or quotient cancels each numerator against the factors that its own
denominator lacks, and D2/D1 by exponents; `partial` raises the exponent of
each factor that x_k moves and takes no gcd of D with D'.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import (add as _add, getitem as _getitem, lt as _lt, mul as _mul,
                      sub as _sub)

from .errors import DivisionByZero, EvaluationPole, FieldClosureError

# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class QQi:
    """Gaussian rational (a + b*i)/d stored as three ints.

    The form is canonical: d > 0 and gcd(a, b, d) == 1, so two values are
    equal iff their fields are. Arithmetic runs on the ints and reduces its
    result with one gcd, skipped when the denominator is 1. `re` and `im`
    read the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if type(other) is not QQi and (other := _to_qqi(other)) is None:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = _to_qqi(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _to_qqi(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if type(other) is not QQi and (other := _to_qqi(other)) is None:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)
        return _reduced(a * c, 0, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise DivisionByZero("inverse of 0")
            return _raw(d, 0, a) if a > 0 else _raw(-d, 0, -a)
        return _reduced(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        other = _to_qqi(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other):
        other = _to_qqi(other)
        return NotImplemented if other is None else other * self.inverse()

    def conj(self):
        return _raw(self.a, -self.b, self.d)

    def is_zero(self):
        return not (self.a or self.b)

    def is_real(self):
        return not self.b

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return (not self.b and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_qqi(self)


def _raw(a, b, d) -> QQi:
    """QQi from ints already in canonical form."""
    q = object.__new__(QQi)
    q.a, q.b, q.d = a, b, d
    return q


def _reduced(a, b, d) -> QQi:
    """QQi (a + b*i)/d for d > 0, reduced by one gcd unless d == 1."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    q = object.__new__(QQi)
    q.a, q.b, q.d = a, b, d
    return q


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)
QQI_I = QQi(0, 1)
_I_POWERS = (QQI_ONE, QQI_I, QQi(-1), QQi(0, -1))


def ipow(k: int) -> QQi:
    """i^k for an integer k."""
    return _I_POWERS[k % 4]


def _to_qqi(x):
    """x as a QQi, or None for a type that does not coerce (the arithmetic
    then returns NotImplemented, so a ScalarExpr operand is reflected)."""
    if isinstance(x, QQi):
        return x
    if type(x) is int:
        return _raw(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    return None


def as_qqi(x) -> QQi:
    q = _to_qqi(x)
    if q is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")
    return q


def _ratio_str(n, d) -> str:
    if d != 1:
        g = math.gcd(n, d)
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def format_qqi(c: QQi) -> str:
    a, b, d = c.a, c.b, c.d
    if not b:
        return _ratio_str(a, d)
    im = "i" if abs(b) == d else f"{_ratio_str(abs(b), d)}*i"
    if not a:
        return im if b > 0 else f"-{im}"
    return f"({_ratio_str(a, d)}{'+' if b > 0 else '-'}{im})"


# ---------------------------------------------------------------------------
# Trig-polynomials: dict[mono + freq] -> QQi
# ---------------------------------------------------------------------------


class TrigPoly:
    """Sparse Laurent-trig polynomial: sum of c * x^mono * exp(i freq.x).

    A term is keyed by the flat exponent tuple mono + freq of length
    2 * nvars, the key format of the product, division and gcd kernels;
    k[:nvars] is the monomial and k[nvars:] the frequency.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars):
        return TrigPoly(nvars)

    @staticmethod
    def const(nvars, c) -> "TrigPoly":
        c = as_qqi(c)
        if c.is_zero():
            return TrigPoly(nvars)
        return TrigPoly(nvars, {(0,) * (2 * nvars): c})

    @staticmethod
    def coord(nvars, k) -> "TrigPoly":
        return TrigPoly(nvars, {tuple(int(j == k) for j in range(2 * nvars)): QQI_ONE})

    @staticmethod
    def expi(nvars, freq) -> "TrigPoly":
        """exp(i * freq.x) for an integer frequency vector."""
        return TrigPoly(nvars, {(0,) * nvars + tuple(freq): QQI_ONE})

    # -- basic predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        if not self.terms:
            return True
        return len(self.terms) == 1 and not any(next(iter(self.terms)))

    def const_value(self) -> QQi:
        if not self.terms:
            return QQI_ZERO
        return next(iter(self.terms.values()))

    def has_mono(self):
        m = self.nvars
        return any(any(k[:m]) for k in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return TrigPoly(self.nvars, out)

    def __neg__(self):
        return TrigPoly(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        # a constant factor keeps the other's keys in order, as _p_mul does
        if other.is_const():
            return self.scale(other.const_value())
        if self.is_const():
            return other.scale(self.const_value())
        return TrigPoly(self.nvars, _p_mul(self.terms, other.terms))

    def scale(self, c: QQi):
        return self if c == QQI_ONE else TrigPoly(self.nvars, _p_scale(self.terms, c))

    def conj(self):
        m = self.nvars
        return TrigPoly(m, {key[:m] + tuple(-f for f in key[m:]): c.conj()
                            for key, c in self.terms.items()})

    def partial(self, k: int):
        acc = {}
        f = self.nvars + k
        for key, c in self.terms.items():
            if key[k]:
                _acc(acc, key[:k] + (key[k] - 1,) + key[k + 1:], c * QQi(key[k]))
            if key[f]:
                _acc(acc, key, c * QQi(0, key[f]))
        return TrigPoly(self.nvars, acc)

    def __eq__(self, other):
        return (isinstance(other, TrigPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


def _acc(d, key, c):
    """d[key] += c, dropping the key when the sum is zero."""
    s = d.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        d.pop(key, None)
    else:
        d[key] = s


# ---------------------------------------------------------------------------
# Plain polynomial world for gcd: the same term dicts, keyed by exponent
# tuples of length 2m, once `_shift_down` has made every frequency >= 0
# ---------------------------------------------------------------------------


def _graded(e):  # graded order: total degree, then lex
    return sum(e), e


def _leading(d):
    return max(d, key=_graded)


def _graded_first(d):
    """d with its keys in the graded order, largest first, as an exact
    quotient lists them (`_zi_quotient`)."""
    return {k: d[k] for k in sorted(d, key=_graded, reverse=True)}


def _p_scale(d, c: QQi):
    if c.is_zero():
        return {}
    if c == QQI_ONE:
        return d
    return {k: v * c for k, v in d.items()}


def zi_split(d):
    """{key: QQi} -> ({key: (re, im)} Gaussian integers, common denominator)."""
    den = 1
    for c in d.values():
        if c.d != 1:
            den = math.lcm(den, c.d)
    if den == 1:
        return {k: (c.a, c.b) for k, c in d.items()}, 1
    return {k: (c.a * (den // c.d), c.b * (den // c.d))
            for k, c in d.items()}, den


def zi_join(d, den):
    """Gaussian-integer terms over den > 0 back to {key: QQi}."""
    return {k: _reduced(r, i, den) for k, (r, i) in d.items()}


def zi_mul(a, b):
    """Sparse product of {exponent tuple: (re, im)} Gaussian-integer
    polynomials in int arithmetic; cancelled terms are dropped."""
    re, im = {}, {}
    get_re, get_im = re.get, im.get
    for k1, (r1, i1) in a.items():
        for k2, (r2, i2) in b.items():
            key = tuple(map(_add, k1, k2))
            if i1 or i2:
                re[key] = get_re(key, 0) + r1 * r2 - i1 * i2
                im[key] = get_im(key, 0) + r1 * i2 + i1 * r2
            else:
                re[key] = get_re(key, 0) + r1 * r2
    out = {}
    for key, r in re.items():
        i = get_im(key, 0)
        if r or i:
            out[key] = (r, i)
    return out


def _p_mul(a, b):
    ia, da = zi_split(a)
    ib, db = zi_split(b)
    return zi_join(zi_mul(ia, ib), da * db)


def _p_div_exact(a, b):
    """Exact division a/b in the polynomial ring, or None.

    Runs on Gaussian integers: a = A/da and b = B/db (`zi_split`). Let lc be
    the leading coefficient of B and n = N(lc) = lc * conj(lc). The
    Z[i]-content of B divides lc, so by Gauss's lemma B | A over Q(i) iff
    B | n*A over Z[i] (`_zi_quotient`), and then every quotient coefficient
    is a Gaussian integer. The first step's exponent test runs before the
    split.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return {}
    lb = _leading(b)
    if any(map(_lt, _leading(a), lb)):
        return None
    ia, da = zi_split(a)
    ib, db = zi_split(b)
    br, bi = ib[lb]
    n = br * br + bi * bi
    if n != 1:
        ia = {k: (x * n, y * n) for k, (x, y) in ia.items()}
    q = _zi_quotient(ia, ib)
    if q is None:
        return None
    if db != 1:
        q = {k: (x * db, y * db) for k, (x, y) in q.items()}
    return zi_join(q, da * n)


def _zi_quotient(a, b):
    """A/B for Gaussian-integer polynomials when the quotient has Gaussian
    integer coefficients, else None.

    Each step divides the remainder's leading coefficient by lc(B) exactly;
    a nonzero divmod remainder or a negative exponent means no such
    quotient. The remainder is keyed by (total degree, exponent), so `max`
    picks the same leading term as the graded order of `_leading`.
    """
    dl, lb = max((sum(k), k) for k in b)
    br, bi = b[lb]
    n = br * br + bi * bi
    # the other terms of B as offsets from its leading term
    terms = [(sum(k) - dl, tuple(map(_sub, k, lb)), u, v)
             for k, (u, v) in b.items() if k != lb]
    r = {(sum(k), k): c for k, c in a.items()}
    q = {}
    while r:
        lead = max(r)
        x, y = r.pop(lead)
        exp = tuple(map(_sub, lead[1], lb))
        if min(exp) < 0:
            return None
        qr, mr = divmod(x * br + y * bi, n)
        qi, mi = divmod(y * br - x * bi, n)
        if mr or mi:
            return None
        q[exp] = (qr, qi)
        d0, k0 = lead
        for d, off, u, v in terms:
            key = (d0 + d, tuple(map(_add, k0, off)))
            sr, si = r.get(key, (0, 0))
            sr -= u * qr - v * qi
            si -= u * qi + v * qr
            if sr or si:
                r[key] = (sr, si)
            else:
                r.pop(key, None)
    return q


def _mono_content(d):
    """Slot-wise minimum of the keys: the largest monomial dividing d."""
    return tuple(map(min, zip(*d)))


def _shift_down(d, by):
    """d divided by the term whose key is `by` (a monomial, an exp factor or
    both): `by` is subtracted from every key. Returns d itself when `by` is
    zero."""
    if not any(by):
        return d
    return {tuple(map(_sub, k, by)): v for k, v in d.items()}


def _monic(d):
    return _p_scale(d, d[_leading(d)].inverse()) if d else d


# -- evaluation-based coprimality proof -------------------------------------
#
# Soundness: let G = gcd(a, b) and v a shared variable.  When p divides no
# denominator of a, Gauss's lemma gives a = G*H with no p in the
# denominators of G and H, so reducing mod p and putting nonzero integers
# for the variables maps a to image(G)*image(H).  Degrees in v can only
# drop, so when the images of a and b keep their degree in v, image(G) keeps
# its own and divides their gcd: a unit univariate gcd proves deg_v G = 0,
# and for every shared v that G is constant.  F_p[i] is a field, since
# p = 2^31 - 1 is 3 mod 4.
#
# Scale-free images: they are taken of den*a and den*b (`zi_split`); every
# slot, v's too, gets its point value's power, so one weight per term serves
# every v and the image is f(c*x) for the image f that leaves x_v free (c
# the value of v); a remainder is scaled by lc(b), not divided by it.  Each
# differs from the monic image by a unit factor or by x -> c*x, so it has
# the same zero top coefficient and the same gcd degree, and the verdict
# cannot change.

_EVAL_POINTS = ((2, 3, 5, 7, 11, 13, 17, 19), (3, 7, 2, 13, 5, 19, 11, 17),
                (5, 2, 13, 3, 17, 7, 19, 11))
_P = (1 << 31) - 1


def _image_modp(terms, v, n):
    """Dense F_p[i] polynomial in slot v, (re, im) pairs from degree 0, of
    weighted (key, re, im) terms of degree below n in v."""
    re, im = [0] * n, [0] * n
    for k, x, y in terms:
        re[k[v]] += x
        im[k[v]] += y
    return [(x % _P, y % _P) for x, y in zip(re, im)]


def _coprime_modp(a, b):
    """Whether gcd(a, b) is a unit, for dense F_p[i] polynomials of degree
    >= 1 with nonzero top entries: r := lc(b)*r - lc(r)*x^k*b, no inverse."""
    while len(b) > 1:
        br, bi = b[-1]
        while len(a) >= len(b):
            ar, ai = a[-1]
            shifted = [(0, 0)] * (len(a) - len(b)) + b[:-1]
            a = [((br * x - bi * y - ar * u + ai * w) % _P,
                  (br * y + bi * x - ar * w - ai * u) % _P)
                 for (x, y), (u, w) in zip(a[:-1], shifted)]
            while a and a[-1] == (0, 0):
                a.pop()
        a, b = b, a
    return len(b) == 1


def _gcd_known_trivial(a, b, shared):
    """True if mod-p evaluation proves gcd(a, b) is constant."""
    (za, da), (zb, db) = zi_split(a), zi_split(b)
    if da % _P == 0 or db % _P == 0:
        return False  # a denominator vanishes mod p
    deg_a, deg_b = (list(map(max, zip(*z))) for z in (za, zb))
    top, slots = max(deg_a + deg_b), len(deg_a)
    weighted = {}
    for v in shared:
        for point in _EVAL_POINTS:
            if point not in weighted:
                pw = [[c ** e % _P for e in range(top + 1)] for c in point]
                rows = [pw[j % len(point)] for j in range(slots)]
                weighted[point] = [
                    [(k, x * w, y * w) for k, (x, y) in z.items()
                     for w in (math.prod(map(_getitem, rows, k)) % _P,)]
                    for z in (za, zb)]
            ta, tb = weighted[point]
            ua = _image_modp(ta, v, deg_a[v] + 1)
            ub = _image_modp(tb, v, deg_b[v] + 1)
            if ua[-1] == (0, 0) or ub[-1] == (0, 0):
                continue  # degree dropped; point invalid for this argument
            if not _coprime_modp(ua, ub):
                return False
            break
        else:
            return False
    return True


# -- heuristic gcd over Z[i] ------------------------------------------------


def _zi_gcd(a, b):
    """A gcd of two Gaussian integers (re, im), up to a unit, on ints.

    With both imaginary parts 0 it is `math.gcd`. Otherwise the integer
    content e of the four parts comes out first, so the gcd g of the rest
    has no rational integer factor, n = N(g) = gcd(N a, N b, Re a*conj(b),
    Im a*conj(b)) and (g) = {u + iv : u = s*v (mod n)}. s comes from an
    element whose v is a unit mod n, and Cornacchia's half-Euclid on (n, s)
    (1908) gives n = x^2 + y^2 with g = x + iy, y signed so x = s*y (mod n).
    """
    (ar, ai), (br, bi) = a, b
    if not (ai or bi):
        return math.gcd(ar, br), 0
    e = math.gcd(ar, ai, br, bi)
    ar, ai, br, bi = ar // e, ai // e, br // e, bi // e
    n = math.gcd(ar * ar + ai * ai, br * br + bi * bi,
                 ar * br + ai * bi, ai * br - ar * bi)
    for u, v in ((ar, ai), (br, bi)):
        if math.gcd(v, n) == 1:
            s = u * pow(v, -1, n) % n
            break
    else:
        # Euclid on the imaginary parts of i*n, a, i*a, b, i*b mod n (their
        # gcd is 1), carrying the real parts, ends at the element u + 1*i
        u, v = 0, n
        for x, y in ((ar, ai), (-ai, ar), (br, bi), (-bi, br)):
            x, y = x % n, y % n
            while y:
                q = v // y
                u, v, x, y = x, y, u - q * x, v - q * y
        s = u % n
    r, x, root = n, s, math.isqrt(n - 1)
    while x > root:  # x^2 >= n
        r, x = x, r % x
    y = math.isqrt(n - x * x)
    return e * x, e * (y if (x - s * y) % n == 0 else -y)


def _zi_div(z, c):
    """z/c for Gaussian integers (re, im) where c divides z."""
    (x, y), (cr, ci) = z, c
    n = cr * cr + ci * ci
    return (x * cr + y * ci) // n, (y * cr - x * ci) // n


def _zi_primitive(d):
    """(content, primitive part) of a Gaussian-integer polynomial."""
    it = iter(d.values())
    c = next(it)
    for z in it:
        if abs(c[0]) + abs(c[1]) == 1:
            break
        c = _zi_gcd(c, z)
    if c == (1, 0):
        return c, d
    return c, {k: _zi_div(z, c) for k, z in d.items()}


def _zi_at(d, v, xi):
    """d with slot v set to the integer xi (its exponent becomes 0)."""
    out = {}
    for k, (x, y) in d.items():
        key = k[:v] + (0,) + k[v + 1:]
        w = xi ** k[v]
        re, im = out.get(key, (0, 0))
        out[key] = (re + x * w, im + y * w)
    return {k: c for k, c in out.items() if c != (0, 0)}


def _zi_digits(gamma, v, xi):
    """The polynomial in slot v whose value at xi is gamma, from the base-xi
    digits of each coefficient, taken in [-xi/2, xi/2) for the real and the
    imaginary part separately."""
    half = xi // 2
    out = {}
    for k, (x, y) in gamma.items():
        e = 0
        while x or y:
            dx, dy = (x + half) % xi - half, (y + half) % xi - half
            if dx or dy:
                out[k[:v] + (e,) + k[v + 1:]] = (dx, dy)
            x, y, e = (x - dx) // xi, (y - dy) // xi, e + 1
    return out


def _heu_gcd(a, b):
    """(G, A/G, B/G) for two nonzero Gaussian-integer polynomials A and B,
    with G a gcd over Z[i], up to a unit: the heuristic gcd of Char, Geddes
    and Gonnet (GCDHEU, J. Symbolic Comput. 7, 1989), which builds it from
    gcds of evaluations and so needs nothing from earlier calls.

    Each level splits off the Z[i] contents and multiplies their gcd c back
    in at the end. It sets one slot v, present in either operand, to an
    integer xi and recurses on the gcd alone; with no slot left the gcd is
    `_zi_gcd`. The base-xi digits of the gcd gamma of the images give G with
    G(xi) = gamma, and the primitive part G' of G is accepted when it divides
    both operands over Z[i] (`_zi_quotient`); otherwise, or when xi is a root
    of A or B (an image is 0), xi grows by 73794/27011 and the level runs
    again. With |A| the largest |re| + |im| of a coefficient, xi starts at
    4*min(|A|, |B|) + 4; over Z the factor is 2, and 4 covers the sqrt 2 of
    a Gaussian coefficient box. The cofactors are the acceptance test's own
    quotients: A/G = (cont(A)/c) * A'/G'.

    Acceptance: an accepted G' divides D = gcd(A, B), so D = G'*h. D(xi)
    divides gamma = cont(G)*G'(xi), so h(xi) divides cont(G). The roots of h
    are roots of A and of B, so they lie within 1 + min(|A|, |B|) and
    |h(xi)| >= 3*xi/4 > xi/sqrt 2 >= |cont(G)| unless h is a unit: G' is the
    gcd.

    Termination: gamma differs from D(xi) by gcd(Ahat(xi), Bhat(xi)) of the
    cofactors Ahat = A/D and Bhat = B/D. That factor divides their resultant,
    so it is bounded, and it is nonconstant for only finitely many xi, as
    are the roots of A and B; past them the digits of gamma are those of D.
    """
    (ca, a), (cb, b) = _zi_primitive(a), _zi_primitive(b)
    c, zero = _zi_gcd(ca, cb), (0,) * len(next(iter(a)))
    v = next((j for j, top in enumerate(map(max, zip(*a, *b))) if top), None)
    g = qa = qb = {zero: (1, 0)}  # both primitive parts when no slot is left
    if v is not None:
        xi = 4 * min(max(abs(x) + abs(y) for x, y in d.values()) for d in (a, b)) + 4
        while True:
            ia, ib = _zi_at(a, v, xi), _zi_at(b, v, xi)
            if ia and ib:
                g = _zi_primitive(_zi_digits(_heu_gcd(ia, ib)[0], v, xi))[1]
                qa = _zi_quotient(a, g)
                qb = None if qa is None else _zi_quotient(b, g)
                if qb is not None:
                    break
            xi = xi * 73794 // 27011
    return tuple(d if u == (1, 0) else zi_mul(d, {zero: u})
                 for d, u in ((g, c), (qa, _zi_div(ca, c)), (qb, _zi_div(cb, c))))


def _gcd_cofactors(a, b):
    """(g, a/g, b/g) for nonzero a and b, with g their monic gcd in
    QQi[vars]; the cofactors are a and b themselves when g is 1.

    The paths in order: the common monomial content; a mod-p proof that the
    rest is coprime (`_gcd_known_trivial`); exact division of one operand by
    the other; then the heuristic gcd over Z[i] (`_heu_gcd`), exact because
    it accepts only a divisor of both operands read off large enough points,
    and finite because only finitely many points are unlucky. No path keeps
    state, so a gcd does not depend on what ran before it.

    No cofactor costs a division of its own. Past the monomial contents
    (a = x^ma * a'), each path has a gcd G of a' and b' with a'/G and b'/G:
    the quotient and 1 when one operand divides the other, the acceptance
    quotients of the heuristic. Then g = x^common * G/lc(G) and a/g =
    x^(ma - common) * lc(G) * a'/G. Those quotients list their keys in the
    graded order, largest first, as an exact division by g does
    (`_zi_quotient`); a shift or a scale keeps that order, and the cofactors
    of a bare monomial gcd are sorted into it.
    """
    ma, mb = _mono_content(a), _mono_content(b)
    common = tuple(map(min, ma, mb))
    sa, sb = _shift_down(a, ma), _shift_down(b, mb)
    found = None
    if len(sa) > 1 and len(sb) > 1:
        # a coprime pair cannot divide: prove coprimality first
        deg_a, deg_b = (map(max, zip(*d)) for d in (sa, sb))
        shared = [v for v, (x, y) in enumerate(zip(deg_a, deg_b)) if x and y]
        if shared and not _gcd_known_trivial(sa, sb, shared):
            one = {(0,) * len(common): QQI_ONE}
            if (q := _p_div_exact(sa, sb)) is not None:
                found = sb, q, one
            elif (q := _p_div_exact(sb, sa)) is not None:
                found = sa, one, q
            else:
                (za, da), (zb, db) = zi_split(sa), zi_split(sb)
                g, qa, qb = _heu_gcd(za, zb)
                if len(g) > 1:
                    found = zi_join(g, 1), zi_join(qa, da), zi_join(qb, db)
    if found is None:  # the gcd is the monomial x^common
        if not any(common):
            return {common: QQI_ONE}, a, b
        qa, qb = _shift_down(a, common), _shift_down(b, common)
        return {common: QQI_ONE}, _graded_first(qa), _graded_first(qb)
    g, qa, qb = found
    lc = g[_leading(g)]
    return (_shift_down(_p_scale(g, lc.inverse()), tuple(-e for e in common)),
            _shift_down(_p_scale(qa, lc), tuple(map(_sub, common, ma))),
            _shift_down(_p_scale(qb, lc), tuple(map(_sub, common, mb))))


def poly_gcd(a, b):
    """Monic gcd in QQi[vars]: the monic nonzero operand when one is 0, else
    the first element of `_gcd_cofactors`, whose paths it shares."""
    if not (a and b):
        return _monic(dict(a or b))
    return _gcd_cofactors(a, b)[0]


# ---------------------------------------------------------------------------
# ScalarExpr: canonical fraction of trig-polynomials
# ---------------------------------------------------------------------------


class ScalarExpr:
    """Canonical fraction num/den of TrigPolys over a fixed variable count;
    `facs` is den's factor list (module docstring), (den, 1) unless given."""

    __slots__ = ("nvars", "num", "den", "facs")

    def __init__(self, nvars, num: TrigPoly, den: TrigPoly, _normalized=False,
                 _facs=None):
        self.nvars = nvars
        if not _normalized:
            num, den = _normalize(num, den)
        self.num, self.den = num, den
        if _facs is None:
            _facs = () if den.is_const() else ((den, 1),)
        self.facs = _facs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_qqi(nvars, c) -> "ScalarExpr":
        return ScalarExpr(nvars, TrigPoly.const(nvars, c), TrigPoly.const(nvars, 1),
                          _normalized=True, _facs=())

    @staticmethod
    def zero(nvars):
        return ScalarExpr.from_qqi(nvars, 0)

    @staticmethod
    def one(nvars):
        return ScalarExpr.from_qqi(nvars, 1)

    @staticmethod
    def i(nvars):
        return ScalarExpr.from_qqi(nvars, QQI_I)

    @staticmethod
    def coord(nvars, k):
        return ScalarExpr(nvars, TrigPoly.coord(nvars, k), TrigPoly.const(nvars, 1),
                          _normalized=True)

    @staticmethod
    def sin(nvars, freq):
        """sin(freq.x) for an integer frequency vector."""
        e = TrigPoly.expi(nvars, freq)
        em = TrigPoly.expi(nvars, tuple(-f for f in freq))
        half_over_i = QQi(0, Fraction(-1, 2))  # 1/(2i)
        return ScalarExpr(nvars, (e - em).scale(half_over_i), TrigPoly.const(nvars, 1))

    @staticmethod
    def cos(nvars, freq):
        e = TrigPoly.expi(nvars, freq)
        em = TrigPoly.expi(nvars, tuple(-f for f in freq))
        return ScalarExpr(nvars, (e + em).scale(QQi(Fraction(1, 2))), TrigPoly.const(nvars, 1))

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> QQi:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.num.const_value()  # a canonical constant has den == 1

    def is_real(self):
        # num/den == conj(num)/conj(den), cross-multiplied: no gcd needed;
        # when conj(den) = u*den for a term u (den real up to an exp shift,
        # den 1 among them), den cancels and conj(num) == u*num is left
        num, den, cden = self.num, self.den.terms, self.den.conj()
        la, lb = _leading(cden.terms), _leading(den)
        u = tuple(map(_sub, la, lb)), cden.terms[la] * den[lb].inverse()
        if _times_term(den, *u) == cden.terms:
            return num.conj().terms == _times_term(num.terms, *u)
        return num * cden == num.conj() * self.den

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarExpr):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction, QQi)):
            return ScalarExpr.from_qqi(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        m = self.nvars
        if not (self.facs or o.facs):  # over the denominator 1
            return ScalarExpr(m, self.num + o.num, self.den, _normalized=True, _facs=())
        if self.den == o.den:
            # the finer of two bases of one den; the sum may share any factor
            base = [[f, e, e] for f, e in max(self.facs, o.facs, key=len)]
            num, den = self.num + o.num, self.den
        else:
            # over the lcm L = D1*(D2/G) = D2*(D1/G), G = gcd(D1, D2) (Henrici,
            # J. ACM 3, 1956). A factor whose exponent in D1 differs from that in
            # D2 divides one of D1/G and D2/G, and neither numerator: not the sum
            base = _merge(self.facs, o.facs)
            r1, r2 = _coprime_parts(m, base, self.den, o.den)
            num, den = self.num * r2 + o.num * r1, self.den * r2
        return _cancel(m, num, den, [(f, e1) for f, e1, e2 in base if e1 == e2],
                       [(f, max(e1, e2)) for f, e1, e2 in base if e1 != e2])

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(self.nvars, -self.num, self.den, _normalized=True,
                          _facs=self.facs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return -(self - o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # scalars are never mutated, so a zero operand is the product
        if self.is_zero():
            return self
        if o.is_zero():
            return o
        # a canonical constant is num/1, and scaling by it keeps canonical form
        if o.is_const():
            return self._scaled(o.num.const_value())
        if self.is_const():
            return o._scaled(self.num.const_value())
        m = self.nvars
        # over the denominator 1 there is nothing to reduce
        if not (self.facs or o.facs):
            return ScalarExpr(m, self.num * o.num, self.den, _normalized=True, _facs=())
        # a canonical numerator is coprime to its own denominator's factors,
        # so each numerator meets only the factors that its denominator lacks
        base = _merge(self.facs, o.facs)
        n1, left2, k1 = _divide_out(self.num, [(f, e2) for f, e1, e2 in base if not e1])
        n2, left1, k2 = _divide_out(o.num, [(f, e1) for f, e1, e2 in base if not e2])
        both = [(f, e1, e2) for f, e1, e2 in base if e1 and e2]
        d1 = _power_product(m, [*((f, e1) for f, e1, _ in both), *left1]) if k2 else self.den
        d2 = _power_product(m, [*((f, e2) for f, _, e2 in both), *left2]) if k1 else o.den
        return ScalarExpr(m, n1 * n2, d1 * d2, _normalized=True, _facs=(
            *((f, e1 + e2) for f, e1, e2 in both), *left1, *left2))

    __rmul__ = __mul__

    def _scaled(self, c: QQi):
        return ScalarExpr(self.nvars, self.num.scale(c), self.den, _normalized=True,
                          _facs=self.facs)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero scalar")
        if self.is_zero():
            return self
        if o.is_const():
            return self._scaled(o.num.const_value().inverse())
        m = self.nvars
        n1, n2 = _cross_reduce(self.num, o.num)
        # D2/D1 cancels exponent by exponent over a coprime base; what is
        # left of n2 joins the denominator as a factor of its own
        base = _merge(self.facs, o.facs)
        r1, r2 = _coprime_parts(m, base, self.den, o.den)
        num, den = n1 * r2, r1 * n2
        facs = [(f, e1 - e2) for f, e1, e2 in base if e1 > e2]
        if not _is_unit(n2):
            # a repeated factor of n2 that x_k moves divides dn2/dx_k too
            f = _unit_free(n2)
            sp = _split(f, next(d for d in map(f.partial, range(m)) if d.terms))
            new = [(f, 1)] if sp is None else _refined(sp[0], sp[1], 1)
            facs = [(f, e1 + e2) for f, e1, e2 in _merge(facs, new)]
        num, den = _unit_normalize(num.terms, den.terms, m)
        return ScalarExpr(m, num, den, _normalized=True, _facs=tuple(facs))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("integer powers only")
        if k == 0:
            return ScalarExpr.one(self.nvars)
        base = self if k > 0 else ScalarExpr.one(self.nvars) / self
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def conj(self):
        # a ring automorphism keeps a canonical pair and a coprime base
        # coprime: only the unit normalization is left
        m = self.nvars
        num, den = _unit_normalize(self.num.conj().terms, self.den.conj().terms, m)
        return ScalarExpr(m, num, den, _normalized=True,
                          _facs=tuple((_unit_free(f.conj()), e) for f, e in self.facs))

    def partial(self, k: int):
        """(N/prod f^e)' = (N' P - N sum_f e f' P/f) / (D P), P the product
        of the f with f' != 0, each refined until coprime to f'. Modulo such
        an f the numerator is -e N f' P/f, coprime to f, so only the f with
        f' = 0 are tried against it. No gcd of D with D' is taken."""
        if not 0 <= k < self.nvars:
            raise ValueError("coordinate index out of range")
        m = self.nvars
        num, den = self.num.partial(k), self.den
        moving, still, todo = [], [], list(self.facs)
        while todo:
            f, e = todo.pop()
            df = f.partial(k)
            if df.is_zero():
                still.append((f, e))
            elif (s := _split(f, df)) is None:
                moving.append((f, e, df))
            else:  # f = g * (f/g) with g = gcd(f, f')
                todo += _refined(s[0], s[1], e)
        if moving:
            s = TrigPoly.zero(m)
            for j, (_, e, df) in enumerate(moving):
                others = [(g, 1) for i, (g, _, _) in enumerate(moving) if i != j]
                s = s + _power_product(m, [(df.scale(QQi(e)), 1), *others])
            p = _power_product(m, [(f, 1) for f, _, _ in moving])
            num, den = num * p - self.num * s, den * p
        return _cancel(m, num, den, still, [(f, e + 1) for f, e, _ in moving])

    def real(self):
        half = ScalarExpr.from_qqi(self.nvars, QQi(Fraction(1, 2)))
        return (self + self.conj()) * half

    def imag(self):
        c = ScalarExpr.from_qqi(self.nvars, QQi(0, Fraction(-1, 2)))
        return (self - self.conj()) * c

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, ScalarExpr) else other
        if o is None or not isinstance(o, ScalarExpr):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation ----------------------------------------------------------

    def eval(self, point):
        """Exact QQi value at a Point; raises FieldClosureError where the
        value leaves the field and EvaluationPole at a pole."""
        den = _eval_trigpoly(self.den, point)
        num = _eval_trigpoly(self.num, point)
        if den.is_zero():
            raise EvaluationPole("denominator vanishes at point")
        return num / den

    def __repr__(self):
        return f"<ScalarExpr {self}>"

    def __str__(self):
        return self.to_string(_default_names(self.nvars))

    def to_string(self, names):
        num = format_trigpoly(self.num, names)
        if self.den.is_const() and self.den.const_value() == QQI_ONE:
            return num
        return f"({num})/({format_trigpoly(self.den, names)})"


def _default_names(nvars):
    return tuple(f"x{j+1}" for j in range(nvars))


def _normalize(num: TrigPoly, den: TrigPoly):
    if den.is_zero():
        raise DivisionByZero("zero denominator")
    m = num.nvars
    if num.is_zero():
        return TrigPoly.zero(m), TrigPoly.const(m, 1)
    if den.is_const():
        c = den.const_value()
        if c == QQI_ONE:
            return num, den
        return num.scale(c.inverse()), TrigPoly.const(m, 1)
    num, den = _cross_reduce(num, den)
    return _unit_normalize(num.terms, den.terms, m)


def _split(a: TrigPoly, b: TrigPoly):
    """(g, a/g, b/g) for a gcd g of two trig-polynomials, or None when it is
    1; the cofactors have the terms and key order of an exact division."""
    if a.is_const() or b.is_const():
        return None
    m = a.nvars
    # one exp factor makes both plain polynomials; it never changes the gcd
    low = (0,) * m + tuple(min(0, *col) for col in list(zip(*a.terms, *b.terms))[m:])
    pa = _shift_down(a.terms, low)
    pb = _shift_down(b.terms, low)
    g, qa, qb = _gcd_cofactors(pa, pb)
    if qa is pa:
        return None
    high = tuple(-f for f in low)
    return (TrigPoly(m, g), TrigPoly(m, _shift_down(qa, high)),
            TrigPoly(m, _shift_down(qb, high)))


def _cross_reduce(a: TrigPoly, b: TrigPoly):
    """a and b with their gcd divided out, or themselves when it is 1."""
    s = _split(a, b)
    return (a, b) if s is None else s[1:]


# -- factored denominators: a product of unit-free factors is unit-free, so
# a list of them multiplies out to the canonical den exactly


def _unit_free(p: TrigPoly) -> TrigPoly:
    return _unit_normalize({}, p.terms, p.nvars)[1]


def _is_unit(p: TrigPoly) -> bool:
    """Whether p is one term c * exp(i k.x)."""
    return len(p.terms) == 1 and not any(next(iter(p.terms))[:p.nvars])


def _times_term(d, key, c):
    """d times the term c * x^key (key may have negative entries)."""
    return _p_scale(_shift_down(d, tuple(-k for k in key)), c)


def _power_product(m, pairs) -> TrigPoly:
    """The product of f^e over the (f, e) pairs."""
    out = TrigPoly.const(m, 1)
    for f, e in pairs:
        for _ in range(e):
            out = out * f
    return out


def _coprime_parts(m, base, d1, d2):
    """(D1/G, D2/G) for G = gcd(D1, D2), read off a coprime base of the two
    (`_merge`)."""
    if not any(e1 and e2 for _, e1, e2 in base):
        return d1, d2
    return (_power_product(m, [(f, e1 - e2) for f, e1, e2 in base if e1 > e2]),
            _power_product(m, [(f, e2 - e1) for f, e1, e2 in base if e2 > e1]))


def _merge(f1, f2):
    """Coprime base of two factor lists: [f, e1, e2] entries whose f^e1
    multiply out to the product of f1 and whose f^e2 to that of f2.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993)
    replaces a pair with a gcd g != 1 by g, f/g and b/g. Entries that divide
    one list's product alone are coprime, so no gcd runs between them."""
    base = [[f, e, 0] for f, e in f1]
    todo = [[f, 0, e] for f, e in reversed(f2)]
    if not (base and todo):
        return base + todo
    while todo:
        item = todo.pop()
        f, a1, a2 = item
        for j, (b, b1, b2) in enumerate(base):
            if b == f:
                base[j] = [b, a1 + b1, a2 + b2]
                break
            if not (a1 or b1) or not (a2 or b2):
                continue  # both divide one list's product alone
            s = _split(f, b)
            if s is not None:
                g, q, r = s
                del base[j]
                todo += [[_unit_free(p), x, y]
                         for p, x, y in ((g, a1 + b1, a2 + b2), (q, a1, a2), (r, b1, b2))
                         if not _is_unit(p)]
                break
        else:
            base.append(item)
    return base


def _refined(g: TrigPoly, h: TrigPoly, e: int):
    """(g h)^e as a coprime list of (f, e)."""
    return [(p, x + y) for p, x, y in _merge([(_unit_free(g), e)], [(_unit_free(h), e)])]


def _divide_out(n: TrigPoly, entries):
    """(n over each f of a coprime list of (f, e) as often as f divides it,
    up to e; the entries with what is left of e; the count of divisions). A
    factor that shares a proper factor g with n is refined into g and f/g.

    Each division is tried exactly first: n shifted to exp exponents >= 0
    is a polynomial, and f, unit-free, has no exp factor, so f divides n iff
    it divides the shifted n in the polynomial ring. The gcd (`_split`) runs
    only once that fails, to tell a coprime f from a proper common factor."""
    m = n.nvars
    left, k, todo = [], 0, list(reversed(entries))
    while todo:
        f, e = todo.pop()
        while e:
            low = (0,) * m + tuple(min(0, *col) for col in list(zip(*n.terms))[m:])
            q = _p_div_exact(_shift_down(n.terms, low), f.terms)
            if q is None:
                break
            n = TrigPoly(m, _shift_down(q, tuple(-x for x in low)))
            e, k = e - 1, k + 1
        if e:
            if (s := _split(n, f)) is None:
                left.append((f, e))
            else:
                todo += _refined(s[0], s[2], e)
    return n, left, k


def _cancel(m, num: TrigPoly, den: TrigPoly, tested, kept=()):
    """num/den over den's coprime list, split into the entries `tested`,
    which num may share, and `kept`; a den that loses factors is multiplied
    out again from what is left."""
    if num.is_zero():
        return ScalarExpr.zero(m)
    if not tested:
        return ScalarExpr(m, num, den, _normalized=True, _facs=tuple(kept))
    num, left, k = _divide_out(num, tested)
    facs = (*left, *kept)
    return ScalarExpr(m, num, _power_product(m, facs) if k else den,
                      _normalized=True, _facs=facs)


def _unit_normalize(pn, pd, m):
    """Fix the fraction's unit: den has exp-exponent 0 per variable and is monic."""
    low = (0,) * m + tuple(map(min, list(zip(*pd))[m:]))
    inv = pd[_leading(pd)].inverse()
    return (TrigPoly(m, _p_scale(_shift_down(pn, low), inv)),
            TrigPoly(m, _p_scale(_shift_down(pd, low), inv)))


# ---------------------------------------------------------------------------
# Evaluation points
# ---------------------------------------------------------------------------


class Point:
    """Chart point with coordinates a + b*pi (a, b rational)."""

    __slots__ = ("a", "b")

    def __init__(self, coords):
        a, b = [], []
        for c in coords:
            if isinstance(c, tuple):
                a.append(Fraction(c[0]))
                b.append(Fraction(c[1]))
            else:
                a.append(Fraction(c))
                b.append(Fraction(0))
        self.a = tuple(a)
        self.b = tuple(b)

    def __repr__(self):
        return f"Point({list(zip(self.a, self.b))})"


def _eval_trigpoly(p: TrigPoly, point: Point) -> QQi:
    """Exact value at a point, in ints: with a_j = n_j/d_j and top_j the
    largest exponent of x_j, a term's x_j^e is n_j^e * d_j^(top_j - e), and
    the sum is reduced once over den * prod d_j^top_j.  exp(i k.x) is i^q
    where k.a = 0 and 2 k.b = q is an integer; otherwise, or for x_j^e with
    e > 0 and a pi part in x_j, the value leaves the field."""
    m = p.nvars
    zd, den = zi_split(p.terms)
    top = list(map(max, zip(*zd)))[:m]
    if any(t and point.b[j] for j, t in enumerate(top)):
        raise FieldClosureError("point does not admit exact evaluation")
    a = [point.a[j] for j in range(len(top))]
    rows = [[c.numerator ** e * c.denominator ** (t - e) for e in range(t + 1)]
            for c, t in zip(a, top)]
    re = im = 0
    for k, (x, y) in zd.items():
        if any(k[m:]):
            q = 2 * sum(map(_mul, point.b, k[m:]))
            if sum(map(_mul, a, k[m:])) or q.denominator != 1:
                raise FieldClosureError("point does not admit exact evaluation")
            if q.numerator & 2:
                x, y = -x, -y
            if q.numerator & 1:
                x, y = -y, x
        w = math.prod(map(_getitem, rows, k))
        re += x * w
        im += y * w
    return _reduced(re, im, den * math.prod(
        c.denominator ** t for c, t in zip(a, top)))


# ---------------------------------------------------------------------------
# Printing in the sin/cos basis
# ---------------------------------------------------------------------------


def _freq_canonical(freq):
    for f in freq:
        if f > 0:
            return True
        if f < 0:
            return False
    return True  # zero vector


def _lin_arg_str(freq, names):
    parts = []
    for j, f in enumerate(freq):
        if f == 0:
            continue
        if f == 1:
            term = names[j]
        elif f == -1:
            term = f"-{names[j]}"
        else:
            term = f"{f}*{names[j]}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def format_trigpoly(p: TrigPoly, names) -> str:
    """Deterministic print: graded-lex terms, exp pairs folded to cos/sin."""
    if p.is_zero():
        return "0"
    m = p.nvars
    pieces = {}
    for k, c in p.terms.items():
        mono, freq = k[:m], k[m:]
        if not any(freq):
            pieces[(k, "")] = c
            continue
        pos = freq if _freq_canonical(freq) else tuple(-f for f in freq)
        if freq != pos and mono + pos in p.terms:
            continue  # handled when visiting the canonical key
        cpos = p.terms.get(mono + pos, QQI_ZERO)
        cneg = p.terms.get(mono + tuple(-f for f in pos), QQI_ZERO)
        pieces[(mono + pos, "cos")] = cpos + cneg
        pieces[(mono + pos, "sin")] = QQI_I * (cpos - cneg)
    out = []
    # graded order: |mono| + |freq|_1, then the key, then the kind
    for k, kind in sorted(pieces, key=lambda t: (sum(t[0][:m]) + sum(map(abs, t[0][m:])),
                                                 t[0], t[1]), reverse=True):
        c = pieces[(k, kind)]
        if c.is_zero():
            continue
        mono, freq = k[:m], k[m:]
        factors = []
        cs = format_qqi(c)
        for j, e in enumerate(mono):
            if e == 1:
                factors.append(names[j])
            elif e > 1:
                factors.append(f"{names[j]}^{e}")
        if kind:
            factors.append(f"{kind}({_lin_arg_str(freq, names)})")
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        elif cs == "-1":
            body = "-" + "*".join(factors)
        else:
            body = cs + "*" + "*".join(factors)
        out.append(body)
    if not out:
        return "0"
    text = out[0]
    for t in out[1:]:
        text += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
    return text
