"""Graded exterior algebra of complex differential forms on a chart.

Forms are sparse maps from strictly increasing coordinate multi-indices to
exact scalars; mixed-degree polyforms are first class because spinors
exp(b + i*omega) are.  The chart fixes the coordinate volume form
dx1^...^dx2n used as reference for top-form ratios.

`Form.wedge` and `Form.ext_d` sum over one denominator: the terms of a key
that several terms reach are numerators over the lcm of their
coefficients' denominators, read off the factor lists, and each such key
is normalized once, so a key that sums to 0 takes no gcd.  A key that one
term reaches takes that term's scalar product or derivative, and so does
every key when no coefficient has a denominator, since scalars over 1 add
as their numerators do.  Keys come in the order of adding term by term.
The keyed sums of products that the modules above use (`keyed_sum`) live
here and not in `scalars`, whose compile sets a cold process's peak memory.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ChartMismatch, FieldClosureError
from .linalg import rational_inverse
from .parsing import parse_scalar
from .scalars import (QQi, ScalarExpr, TrigPoly, _acc, _cancel, _merge,
                      _p_div_exact, _power_product, ipow)


class Chart:
    """Coordinate chart of real dimension 2n; its scalars also carry the
    trailing parameters (a path's time t), which d and integrals do not see.
    Charts are values: equal and hashed over (n, coords, periodic, params)."""

    __slots__ = ("n", "coords", "periodic", "params")

    def __init__(self, n: int, coords: tuple, periodic: tuple, params: tuple = ()):
        if len(coords) != 2 * n or len(periodic) != 2 * n:
            raise ValueError("chart needs 2n coordinate names and periodic flags")
        self.n = n
        self.coords = coords
        self.periodic = periodic
        self.params = params

    def _key(self):
        return self.n, self.coords, self.periodic, self.params

    def __eq__(self, other):
        if not isinstance(other, Chart):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def with_params(self, params) -> "Chart":
        """This chart with its trailing parameters replaced by `params`."""
        return Chart(self.n, self.coords, self.periodic, params)

    @classmethod
    def flat(cls, n, periodic=False) -> "Chart":
        """Standard chart x1..x2n, periodic in every coordinate or in none."""
        return cls(n, tuple(f"x{j+1}" for j in range(2 * n)),
                   (bool(periodic),) * (2 * n))

    @property
    def dim(self):
        return 2 * self.n

    @property
    def nvars(self):
        return 2 * self.n + len(self.params)

    # scalar helpers ---------------------------------------------------------

    def sc(self, text: str) -> ScalarExpr:
        return parse_scalar(text, self.coords + self.params)

    def const(self, c) -> ScalarExpr:
        return ScalarExpr.from_qqi(self.nvars, c)

    def zero_s(self) -> ScalarExpr:
        return ScalarExpr.zero(self.nvars)

    def one_s(self) -> ScalarExpr:
        return ScalarExpr.one(self.nvars)

    def i_s(self) -> ScalarExpr:
        return ScalarExpr.i(self.nvars)

    def coord_s(self, k) -> ScalarExpr:
        return ScalarExpr.coord(self.nvars, k)

    # form helpers -----------------------------------------------------------

    def zero_form(self) -> "Form":
        return Form(self, {})

    def func(self, f) -> "Form":
        f = self._as_scalar(f)
        return Form(self, {(): f} if not f.is_zero() else {})

    def dx(self, k) -> "Form":
        return Form(self, {(k,): self.one_s()})

    def form(self, terms) -> "Form":
        """Build from {multi-index tuple: scalar-or-text} entries."""
        out = {}
        for idx, c in terms.items():
            c = self._as_scalar(c)
            if c.is_zero():
                continue
            idx, sign = _sort_index(tuple(idx))
            if idx is None:
                continue
            _acc(out, idx, c if sign > 0 else -c)
        return Form(self, out)

    def volume(self) -> "Form":
        return Form(self, {tuple(range(self.dim)): self.one_s()})

    def _as_scalar(self, c) -> ScalarExpr:
        if isinstance(c, ScalarExpr):
            if c.nvars != self.nvars:
                raise ChartMismatch("scalar built on a different chart")
            return c
        if isinstance(c, str):
            return self.sc(c)
        if isinstance(c, (int, Fraction, QQi)):
            return self.const(c)
        raise TypeError(f"cannot coerce {type(c).__name__} to scalar")


def _perm_sign(idx):
    """Sign of the permutation sorting distinct entries: (-1)^inversions."""
    inv = sum(x > y for k, x in enumerate(idx) for y in idx[k + 1:])
    return -1 if inv % 2 else 1


def _sort_index(idx):
    """Sort a multi-index, returning (sorted tuple, sign) or (None, 0)."""
    if len(set(idx)) != len(idx):
        return None, 0
    return tuple(sorted(idx)), _perm_sign(idx)


def _merge_sign(a, b):
    """Merge increasing tuples: (merged, sign), or (None, 0) when they share
    an index."""
    inv = j = 0
    for x in a:
        while j < len(b) and b[j] < x:
            j += 1
        if j < len(b) and b[j] == x:
            return None, 0
        inv += j
    return tuple(sorted(a + b)), -1 if inv & 1 else 1


def _over_one_den(m, xs):
    """(numerators, D, D's factors) of the scalars xs over D, the lcm of
    their denominators read off their factor lists (`_merge`); each
    numerator is num * (D/den), an exact quotient."""
    facs = ()
    for x in xs:
        if x.facs and x.facs != facs:
            facs = tuple((f, max(e1, e2)) for f, e1, e2 in _merge(facs, x.facs))
    den = _power_product(m, facs)
    nums = [x.num if x.is_zero() or x.den == den
            else x.num * TrigPoly(m, _p_div_exact(den.terms, x.den.terms))
            for x in xs]
    return nums, den, facs


def products_over_one_den(m, terms):
    """({key: numerator}, D, D's factors) of the sums of x * y over the
    (key, x, y) scalar terms, D = lcm(x dens) * lcm(y dens) (`_over_one_den`).
    The numerators are summed with `_acc`, so a key whose sum reaches 0 is
    dropped and re-enters at the end, the key order of adding term by term;
    no gcd of expanded polynomials is taken."""
    keys, xs, ys = zip(*terms) if terms else ((), (), ())
    xs, _, fx = _over_one_den(m, xs)
    ys, _, fy = _over_one_den(m, ys)
    facs = tuple((f, e1 + e2) for f, e1, e2 in _merge(fx, fy))
    nums = {}
    for key, x, y in zip(keys, xs, ys):
        _acc(nums, key, x * y)
    return nums, _power_product(m, facs), facs


def keyed_sum(m, terms) -> dict:
    """Sum x * y over the (key, x, y) scalar terms into {key: ScalarExpr},
    in the key order of adding term by term: numerators over one
    denominator D (`products_over_one_den`), then each key's normalized
    once against D's factors (`_cancel`)."""
    nums, den, facs = products_over_one_den(m, terms)
    return {key: _cancel(m, x, den, facs) for key, x in nums.items()}


def _moves(p: TrigPoly, k) -> bool:
    """Whether x_k appears in p; a canonical scalar depends on x_k iff it
    appears in its num or den."""
    m = p.nvars
    return any(key[k] or key[m + k] for key in p.terms)


def _repeated(parts, *terms) -> set:
    """The keys that more than one of the (key, ...) parts reach; none when
    no coefficient in the terms dicts has a denominator, since scalars over
    1 add as their numerators do."""
    seen, many = set(), set()
    if any(c.facs for t in terms for c in t.values()):
        for part in parts:
            (many if part[0] in seen else seen).add(part[0])
    return many


def _lifted(m, terms, idxs):
    """({index: numerator}, D, D's factors) of the coefficients at idxs
    over their one denominator D (`_over_one_den`)."""
    idxs = list(dict.fromkeys(idxs))
    nums, den, facs = _over_one_den(m, [terms[i] for i in idxs])
    return dict(zip(idxs, nums)), den, facs


def _summed(m, parts, den=None, facs=()) -> dict:
    """{key: coefficient} of the (key, sign, value) parts added in order
    (`_acc`): a value is a scalar or, where its key is shared, a numerator
    over den, with den's factor list facs; each numerator sum is normalized
    once (`_cancel`)."""
    out = {}
    for key, sign, v in parts:
        _acc(out, key, v if sign > 0 else -v)
    if den is None:
        return out
    return {key: _cancel(m, v, den, facs) if isinstance(v, TrigPoly) else v
            for key, v in out.items()}


class Form:
    """Sparse mixed-degree complex differential form."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: dict):
        self.chart = chart
        self.terms = terms

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree_part(self, k: int) -> "Form":
        return Form(self.chart, {i: c for i, c in self.terms.items() if len(i) == k})

    def coefficient(self, idx) -> ScalarExpr:
        idx, sign = _sort_index(tuple(idx))
        if idx is None:
            return self.chart.zero_s()
        c = self.terms.get(idx)
        if c is None:
            return self.chart.zero_s()
        return c if sign > 0 else -c

    def _check(self, other):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch("forms on different charts")

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for i, c in other.terms.items():
            _acc(out, i, c)
        return Form(self.chart, out)

    def __neg__(self):
        return Form(self.chart, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Form":
        c = self.chart._as_scalar(c)
        if c.is_zero():
            return self.chart.zero_form()
        return Form(self.chart, {i: v * c for i, v in self.terms.items()})

    def conj(self) -> "Form":
        return Form(self.chart, {i: c.conj() for i, c in self.terms.items()})

    def is_real(self):
        return all(c.is_real() for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- graded operations ---------------------------------------------------

    def wedge(self, other: "Form") -> "Form":
        """self ^ other.  A key that one product reaches takes that product
        of scalars; the products of a key that several reach are summed as
        numerators over one denominator, lcm(self's dens) * lcm(other's
        dens) (`_over_one_den`), and normalized once (`_cancel`)."""
        self._check(other)
        a, b = self.terms, other.terms
        prods = [(key, sign, i1, i2) for i1 in a for i2 in b
                 for key, sign in (_merge_sign(i1, i2),) if key is not None]
        m = self.chart.nvars
        many = _repeated(prods, a, b)
        if not many:
            return Form(self.chart, _summed(m, [
                (key, sign, a[i] * b[j]) for key, sign, i, j in prods]))
        xs, dx, fx = _lifted(m, a, [i for key, _, i, _ in prods if key in many])
        ys, dy, fy = _lifted(m, b, [j for key, _, _, j in prods if key in many])
        return Form(self.chart, _summed(m, [
            (key, sign, xs[i] * ys[j] if key in many else a[i] * b[j])
            for key, sign, i, j in prods],
            dx * dy, tuple((f, e1 + e2) for f, e1, e2 in _merge(fx, fy))))

    def ext_d(self) -> "Form":
        """d self.  A key that one d_k c reaches takes `ScalarExpr.partial`;
        the coefficients of keys that several reach go over one
        denominator D = prod f^e (`_over_one_den`), and with P the product
        of the f that move in a coordinate (a factor in a path parameter
        alone does not), d_k(N/D) = (d_k N P - N S_k)/(D P), S_k = sum
        e d_k f P/f.  Each such key's numerators are summed and normalized
        once (`_cancel`), so a key that sums to 0 takes no gcd."""
        chart, a = self.chart, self.terms
        m, dim = chart.nvars, chart.dim
        parts = [(*_merge_sign((k,), idx), idx, k) for idx, c in a.items()
                 for k in range(dim)
                 if k not in idx and (_moves(c.num, k) or _moves(c.den, k))]
        many = _repeated(parts, a)
        if not many:
            return Form(chart, _summed(m, [
                (key, sign, a[i].partial(k)) for key, sign, i, k in parts]))
        ns, den, facs = _lifted(m, a, [i for key, _, i, _ in parts if key in many])
        moves = [any(_moves(f, k) for k in range(dim)) for f, _ in facs]
        moving = [(f, e) for (f, e), mv in zip(facs, moves) if mv]
        p = _power_product(m, [(f, 1) for f, _ in moving])
        s = {}
        for k in {k for key, _, _, k in parts if key in many}:
            s[k] = TrigPoly.zero(m)
            for j, (f, e) in enumerate(moving):
                if _moves(f, k):
                    others = [(g, 1) for g, _ in moving[:j] + moving[j + 1:]]
                    s[k] = s[k] + _power_product(
                        m, [(f.partial(k).scale(QQi(e)), 1), *others])
        return Form(chart, _summed(m, [
            (key, sign, ns[i].partial(k) * p - ns[i] * s[k] if key in many
             else a[i].partial(k)) for key, sign, i, k in parts],
            den * p, tuple((f, e + 1 if mv else e)
                           for (f, e), mv in zip(facs, moves))))

    def sigma(self) -> "Form":
        """Clifford involution: sign + on degrees 0,1 mod 4, - on 2,3 mod 4."""
        out = {}
        for idx, c in self.terms.items():
            out[idx] = c if len(idx) % 4 in (0, 1) else -c
        return Form(self.chart, out)

    def mukai(self, other: "Form") -> "Form":
        """Spin-representation pairing: degree-2n part of self ^ sigma(other)."""
        self._check(other)
        return self.wedge(other.sigma()).degree_part(self.chart.dim)

    def mukai_scalar(self, other: "Form") -> ScalarExpr:
        """Mukai pairing reported against the coordinate volume form."""
        top = self.mukai(other)
        return top.coefficient(tuple(range(self.chart.dim)))

    def exp(self) -> "Form":
        """Exponential of an even form with no degree-0 part (finite sum)."""
        if any(len(i) % 2 or not i for i in self.terms):
            raise ValueError("exp needs an even form of positive degree")
        out = self.chart.func(1)
        power = self.chart.func(1)
        k = 1
        fact = 1
        while True:
            power = power.wedge(self)
            if power.is_zero():
                break
            fact *= k
            out = out + power.scale(Fraction(1, fact))
            k += 1
        return out

    # -- pullback ------------------------------------------------------------

    def pullback_affine(self, A, t=None) -> "Form":
        """Pullback along F(x) = A x + t for rational A and pi-lattice t."""
        return self.pullback(AffineMap(A, t))

    def pullback(self, F: "AffineMap") -> "Form":
        """Pullback along an already parsed affine map."""
        chart = self.chart
        dim = chart.dim
        # pullbacks of coordinate differentials: F*(dx_i) = sum_j A[i][j] dx_j
        dxs = []
        for i in range(dim):
            dxs.append(Form(chart, {(j,): chart.const(F.a[i][j])
                                    for j in range(dim) if F.a[i][j] != 0}))
        out = chart.zero_form()
        for idx, c in self.terms.items():
            pc = _scalar_affine_sub(c, F.a, F.t)
            piece = chart.func(pc)
            for i in idx:
                piece = piece.wedge(dxs[i])
            out = out + piece
        return out

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        return f"<Form {self}>"

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.chart.coords + self.chart.params
        parts = []
        for idx in sorted(self.terms, key=lambda i: (len(i), i)):
            c = self.terms[idx]
            cs = c.to_string(names)
            basis = "^".join(f"d{names[k]}" for k in idx)
            if not basis:
                parts.append(f"({cs})")
            else:
                parts.append(f"({cs})*{basis}")
        return " + ".join(parts)


class AffineMap:
    """F(x) = A x + t: A as Fraction rows, its exact inverse as QQi rows,
    and t as (a, b) pairs meaning a + b pi.  Raises SingularMap."""

    __slots__ = ("a", "ainv", "t")

    def __init__(self, A, t=None):
        self.a = [[Fraction(x) for x in row] for row in A]
        t = [0] * len(self.a) if t is None else t
        self.t = [(Fraction(p[0]), Fraction(p[1])) if isinstance(p, tuple)
                  else (Fraction(p), Fraction(0)) for p in t]
        self.ainv = rational_inverse(self.a)


def _scalar_affine_sub(e: ScalarExpr, A, t) -> ScalarExpr:
    num = _trig_affine_sub(e.num, A, t)
    den = _trig_affine_sub(e.den, A, t)
    return num / den


def _trig_affine_sub(p: TrigPoly, A, t) -> ScalarExpr:
    m = p.nvars
    out = ScalarExpr.zero(m)
    lin = []
    for j in range(m):
        lj = ScalarExpr.from_qqi(m, QQi(t[j][0]))
        for k in range(m):
            if A[j][k]:
                lj = lj + ScalarExpr.coord(m, k) * QQi(A[j][k])
        lin.append(lj)
    for k, c in p.terms.items():
        mono, freq = k[:m], k[m:]
        term = ScalarExpr.from_qqi(m, c)
        for j, ex in enumerate(mono):
            if ex:
                if t[j][1] != 0:
                    raise FieldClosureError(
                        "pi-translation hits a polynomial coordinate")
                term = term * lin[j] ** ex
        if any(freq):
            newf = []
            for k in range(m):
                fk = sum(Fraction(freq[j]) * A[j][k] for j in range(m))
                if fk.denominator != 1:
                    raise FieldClosureError(
                        "affine map does not preserve the frequency lattice")
                newf.append(int(fk))
            ka = sum(Fraction(freq[j]) * t[j][0] for j in range(m))
            kb = sum(Fraction(freq[j]) * t[j][1] for j in range(m))
            if ka != 0 or (2 * kb).denominator != 1:
                raise FieldClosureError(
                    "translation phase leaves the exact field")
            phase = ScalarExpr.from_qqi(m, ipow(int(2 * kb)))
            term = term * phase * ScalarExpr(m, TrigPoly.expi(m, tuple(newf)),
                                             TrigPoly.const(m, 1))
        out = out + term
    return out
