"""Algebra of the generalized tangent bundle T + T*.

Sections are pairs (vector, covector) over a chart; the split pairing is
<v+xi, u+eta> = (xi(u) + eta(v))/2 and sections act on forms through the
spin representation (interior product plus wedge).  Bi- and tri-vectors are
antisymmetric coefficient arrays over the 4n coordinate basis
(d/dx1..d/dx2n, dx1..dx2n); their spin action uses the canonical
antisymmetrized embedding into the Clifford algebra, so mixed-index arrays
are handled consistently (one kernel, `basis_terms`).  Keyed sums of
products go over one denominator (`products_over_one_den`).  Moving a whole
structure by spin-group factors is `spinor.MovedGCS`; `ad_b` here only moves
single sections.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

from .errors import ChartMismatch
from .forms import Chart, Form, _sort_index
from .linalg import mat_commutator, mat_vec
from .scalars import (QQi, ScalarExpr, TrigPoly, _acc, _cancel, _merge,
                      _p_div_exact, _power_product)


class GenVec:
    """Section of (T + T*) x C with exact component functions."""

    __slots__ = ("chart", "v", "xi")

    def __init__(self, chart: Chart, v, xi):
        self.chart = chart
        self.v = tuple(chart._as_scalar(c) for c in v)
        self.xi = tuple(chart._as_scalar(c) for c in xi)
        if len(self.v) != chart.dim or len(self.xi) != chart.dim:
            raise ValueError("component count must match chart dimension")

    @staticmethod
    def zero(chart):
        z = [0] * chart.dim
        return GenVec(chart, z, z)

    @staticmethod
    def basis(chart, a: int) -> "GenVec":
        """Coordinate basis: a < 2n gives d/dx_{a+1}, else dx_{a-2n+1}."""
        dim = chart.dim
        v = [0] * dim
        xi = [0] * dim
        if a < dim:
            v[a] = 1
        else:
            xi[a - dim] = 1
        return GenVec(chart, v, xi)

    @staticmethod
    def vector(chart, comps) -> "GenVec":
        return GenVec(chart, comps, [0] * chart.dim)

    @staticmethod
    def covector(chart, comps) -> "GenVec":
        return GenVec(chart, [0] * chart.dim, comps)

    @staticmethod
    def from_column(chart, col) -> "GenVec":
        dim = chart.dim
        return GenVec(chart, col[:dim], col[dim:])

    def column(self):
        return list(self.v) + list(self.xi)

    def __add__(self, other):
        self._check(other)
        return GenVec(self.chart, [a + b for a, b in zip(self.v, other.v)],
                      [a + b for a, b in zip(self.xi, other.xi)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GenVec(self.chart, [-a for a in self.v], [-a for a in self.xi])

    def scale(self, c) -> "GenVec":
        c = self.chart._as_scalar(c)
        return GenVec(self.chart, [a * c for a in self.v], [a * c for a in self.xi])

    def conj(self):
        return GenVec(self.chart, [a.conj() for a in self.v],
                      [a.conj() for a in self.xi])

    def is_real(self):
        return all(a.is_real() for a in self.v) and all(a.is_real() for a in self.xi)

    def is_zero(self):
        return all(a.is_zero() for a in self.v) and all(a.is_zero() for a in self.xi)

    def covector_form(self) -> Form:
        return Form(self.chart, {(k,): c for k, c in enumerate(self.xi)
                                 if not c.is_zero()})

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatch("sections on different charts")

    def __eq__(self, other):
        if not isinstance(other, GenVec):
            return NotImplemented
        return self.chart == other.chart and self.v == other.v and self.xi == other.xi

    def __repr__(self):
        names = self.chart.coords + self.chart.params
        parts = []
        for k, c in enumerate(self.v):
            if not c.is_zero():
                parts.append(f"({c.to_string(names)})*d/d{names[k]}")
        for k, c in enumerate(self.xi):
            if not c.is_zero():
                parts.append(f"({c.to_string(names)})*d{names[k]}")
        return "<GenVec " + (" + ".join(parts) if parts else "0") + ">"


def pair_tt(e1: GenVec, e2: GenVec) -> ScalarExpr:
    """Split-signature pairing: (xi1(v2) + xi2(v1)) / 2."""
    e1._check(e2)
    chart = e1.chart
    s = chart.zero_s()
    for a, b in zip(e1.xi, e2.v):
        s = s + a * b
    for a, b in zip(e2.xi, e1.v):
        s = s + a * b
    return s * chart.const(Fraction(1, 2))


def interior(chart: Chart, v_comps, form: Form) -> Form:
    """Interior product with the vector field given by components."""
    acc = {}
    for idx, c in form.terms.items():
        for pos, k in enumerate(idx):
            vk = v_comps[k]
            if vk.is_zero():
                continue
            _acc(acc, idx[:pos] + idx[pos + 1:],
                 vk * c if pos % 2 == 0 else -(vk * c))
    return Form(chart, acc)


def clifford_act(e: GenVec, form: Form) -> Form:
    """(v + xi) . a = i_v a + xi ^ a."""
    if e.chart != form.chart:
        raise ChartMismatch("section and form on different charts")
    return interior(e.chart, e.v, form) + e.covector_form().wedge(form)


# ---------------------------------------------------------------------------
# Bi- and tri-vectors over the 4n coordinate basis
# ---------------------------------------------------------------------------


def _move(dim, a, idx):
    """E_a . dx^idx as (index, sign), or None where it is 0: a < dim
    contracts d/dx_a, else wedges dx_(a-dim) in front."""
    k = a - dim
    if k < 0:
        if a not in idx:
            return None
        pos = idx.index(a)
        return idx[:pos] + idx[pos + 1:], -1 if pos % 2 else 1
    if k in idx:
        return None
    pos = bisect.bisect(idx, k)
    return idx[:pos] + (k,) + idx[pos:], -1 if pos % 2 else 1


def basis_terms(dim, key, idx):
    """E_key . dx^idx as (index, factor) pairs, for one basis section (a,)
    or the Chevalley product of two or three: the product E_a E_b [E_d]
    (`_move`), factor +-1, then minus the one pairing term, factor +-1/2,
    whose index is idx itself for two.  This is `PolyVec.spin_act` on one
    index."""
    terms, out, sign = [], idx, 1
    for a in reversed(key):
        if (r := _move(dim, a, out)) is None:
            break
        out, sign = r[0], sign * r[1]
    else:
        terms.append((out, sign))
    if len(key) == 2 and key[1] - key[0] == dim:
        terms.append((idx, Fraction(-1, 2)))
    elif len(key) == 3:
        a, b, d = key
        half = ((a, -1) if d - b == dim else (b, 1) if d - a == dim
                else (d, -1) if b - a == dim else None)
        if half and (r := _move(dim, half[0], idx)) is not None:
            terms.append((r[0], Fraction(half[1] * r[1], 2)))
    return terms


class PolyVec:
    """Antisymmetric grade-k array over the 4n basis; k = 2 or 3."""

    __slots__ = ("chart", "grade", "coef")

    def __init__(self, chart: Chart, grade: int, coef: dict | None = None):
        self.chart = chart
        self.grade = grade
        self.coef = {}
        if coef:
            for idx, c in coef.items():
                self._accum(tuple(idx), chart._as_scalar(c))

    def _accum(self, idx, c):
        if not c.is_zero():
            order, sign = _sort_index(idx)
            if order is not None:
                _acc(self.coef, order, c if sign > 0 else -c)

    def __add__(self, other):
        out = PolyVec(self.chart, self.grade, dict(self.coef))
        for idx, c in other.coef.items():
            out._accum(idx, c)
        return out

    def scale(self, c):
        c = self.chart._as_scalar(c)
        return PolyVec(self.chart, self.grade,
                       {i: v * c for i, v in self.coef.items()})

    def conj(self):
        return PolyVec(self.chart, self.grade,
                       {i: c.conj() for i, c in self.coef.items()})

    def is_real(self):
        return all(c.is_real() for c in self.coef.values())

    def is_zero(self):
        return not self.coef

    def spin_act(self, form: Form) -> Form:
        """Canonical antisymmetrized Clifford action on a form, by Chevalley:
        E_a ^ E_b = E_a E_b - <E_a, E_b> and E_a ^ E_b ^ E_c = E_a E_b E_c
        - <E_b, E_c> E_a + <E_a, E_c> E_b - <E_a, E_b> E_c.

        <E_x, E_y> is 1/2 when y = x + dim (d/dx_k with dx_k) and 0 otherwise;
        index tuples are increasing, so at most one pairing is nonzero.  Each
        key's piece E_key . form sums its `basis_terms`, the products and then
        the pairing terms, each in the form's order; the c * piece are summed
        over one denominator (`keyed_sum`)."""
        dim = self.chart.dim
        terms = []
        for key, c in self.coef.items():
            moves = [(out, f, v) for idx, v in form.terms.items()
                     for out, f in basis_terms(dim, key, idx)]
            piece = {}
            for out, f, v in sorted(moves, key=lambda t: abs(t[1]) < 1):
                _acc(piece, out, v if f == 1 else -v if f == -1 else v * QQi(f))
            terms += [(idx, c, w) for idx, w in piece.items()]
        return Form(self.chart, keyed_sum(self.chart.nvars, terms))

    def ad(self, e: GenVec) -> GenVec:
        """Adjoint action [self, e] for grade 2 (so(T+T*) element)."""
        return GenVec.from_column(self.chart, mat_vec(self.ad_matrix(), e.column()))

    def ad_matrix(self):
        """4n x 4n matrix of the adjoint action on coordinate columns.

        <E_b, E_c> = 1/2 exactly when c is the index pair partner of b, so
        each coefficient lands in two entries.
        """
        if self.grade != 2:
            raise ValueError("adjoint action implemented for bivectors only")
        chart = self.chart
        dim = chart.dim
        dim4 = 2 * dim
        zero = chart.zero_s()
        m = [[zero for _ in range(dim4)] for _ in range(dim4)]

        def partner(x):
            return x + dim if x < dim else x - dim

        for (a, b), c in self.coef.items():
            col = partner(b)
            m[a][col] = m[a][col] + c
            col = partner(a)
            m[b][col] = m[b][col] - c
        return m

    def __eq__(self, other):
        if not isinstance(other, PolyVec):
            return NotImplemented
        return (self.chart == other.chart and self.grade == other.grade
                and self.coef == other.coef)

    def __repr__(self):
        return f"<PolyVec grade {self.grade}, {len(self.coef)} terms>"


def genvec_wedge(*vecs) -> PolyVec:
    """Wedge of 2 or 3 sections into a coordinate PolyVec (`wedge_terms`)."""
    out = PolyVec(vecs[0].chart, len(vecs))
    out.coef = wedge_terms([e.column() for e in vecs])
    return out


def wedge_terms(cols) -> dict:
    """{index: coefficient} of the wedge of sections given by their
    component columns, over any ring (scalars, or numerators over one
    denominator): expands the product over the nonzero components of each,
    then lists the index tuples in increasing order."""
    acc = {}
    nonzero = [[(a, c) for a, c in enumerate(col) if not c.is_zero()]
               for col in cols]
    for comps in itertools.product(*nonzero):
        idx, cs = zip(*comps)
        order, sign = _sort_index(idx)
        if order is not None:
            c = math.prod(cs[1:], start=cs[0])
            _acc(acc, order, c if sign > 0 else -c)
    return dict(sorted(acc.items()))


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


def wedge_sum(chart, grade, terms) -> PolyVec:
    """Sum of c * (x ^ y [^ z]) over (c, x, y[, z]) terms, as (idx, c, w)
    products over one denominator (`keyed_sum`): each coefficient is
    normalized once, in the key order that adding term by term gives."""
    terms = [(chart._as_scalar(c), vecs) for c, *vecs in terms]
    return PolyVec(chart, grade, keyed_sum(chart.nvars, [
        (idx, c, w) for c, vecs in terms
        if not c.is_zero() for idx, w in genvec_wedge(*vecs).coef.items()]))


# ---------------------------------------------------------------------------
# Brackets and derivatives
# ---------------------------------------------------------------------------


def derivative_along(e: GenVec, f: ScalarExpr) -> ScalarExpr:
    """Derivative of a function along the vector part of e (its anchor)."""
    s = e.chart.zero_s()
    for k, u in enumerate(e.v):
        if not u.is_zero():
            s = s + u * f.partial(k)
    return s


def _bracket_matrix(e: GenVec) -> list:
    """Matrix A_e of [e, .] on the constant sections, in the column basis:
    [v+xi, d/dx_k] = -d_k v - i_{d/dx_k} d xi and [v+xi, dx_k] = d v_k."""
    v, xi = e.v, e.xi
    dim = e.chart.dim
    zero = e.chart.zero_s()
    cols = [[-a.partial(k) for a in v]
            + [xi[k].partial(j) - xi[j].partial(k) for j in range(dim)]
            for k in range(dim)]
    cols += [[zero] * dim + [v[k].partial(j) for j in range(dim)]
             for k in range(dim)]
    return [list(row) for row in zip(*cols)]


def dorfman(e1: GenVec, e2: GenVec) -> GenVec:
    """Dorfman bracket [u+xi, v+eta] = [u,v] + L_u eta - i_v d xi: the bracket
    with a constant section, A_{e1} col(e2), plus the derivative of
    col(e2) along u, since the bracket is a derivation in its second slot."""
    e1._check(e2)
    col = e2.column()
    return GenVec.from_column(e1.chart, [
        a + derivative_along(e1, c)
        for a, c in zip(mat_vec(_bracket_matrix(e1), col), col)])


# ---------------------------------------------------------------------------
# b-field action
# ---------------------------------------------------------------------------


def ad_b(b: Form, x: GenVec) -> GenVec:
    """Action of exp(b) on a section, for any 2-form b (complex allowed):
    v + xi -> v + xi - i_v b."""
    ivb = interior(x.chart, x.v, b)
    return GenVec(x.chart, x.v,
                  [xi - ivb.coefficient((k,)) for k, xi in enumerate(x.xi)])


# ---------------------------------------------------------------------------
# Lie derivative of an endomorphism field along a section
# ---------------------------------------------------------------------------


def gen_lie_J(e: GenVec, jmat) -> list:
    """Matrix field of L_e J = e(J) + [A_e, J]: on a constant section s,
    (L_e J) s = [e, J s] - J [e, s] (`dorfman`)."""
    comm = mat_commutator(_bracket_matrix(e), jmat)
    return [[derivative_along(e, j) + c for j, c in zip(jrow, crow)]
            for jrow, crow in zip(jmat, comm)]
