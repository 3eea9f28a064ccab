"""Almost generalized complex structures from pure-spinor data.

A structure is given by exp(b + i omega), by a complex volume form, by an
explicit spinor with its frame and matrix, or as another structure moved by
spin-group factors exp(c x ^ y) (`MovedGCS`: Poisson deformations, b-field
transforms, nilpotent paths).  Each exposes its spinor line, a closed-form
annihilator frame, its matrix on T + T*, its type at a point, and the
unique real (eta, N) splitting of d(phi), whose Lambda^3 part is the
integrability obstruction.  Frames are read off each structure's data in
closed form, not off a pointwise kernel of the Clifford action.

The splitting first reads the coefficients c of d(phi) on the products of
one and of three conjugate frame vectors with phi (`EtaN.coeffs`).  For
exp(b + i omega) they come in closed form from dZ and the minors of omega
(Jacobi's complementary-minor identity; `_symplectic_coeffs`); every other
structure row-reduces that Clifford system (`_clifford_coeffs`).  Both
routes share one assembly (`_obstruction`): the triples go over one common
denominator D, an lcm read off their factor lists, and n03's numerators are
products of theirs with the frame's, in `wedge_sum`'s key order; N's are
x + u^-1 conj(x) where conj(D) = u D for a term u, else they go over
lcm(D, conj D).  The residual check eta.phi + N.phi = d(phi) is
cross-multiplied at each form index and N's realness is read off its
numerators, so neither takes a gcd.  eta is canonical at once; n03 and N
are normalized key by key only when read (`EtaN`), which `gric_gr` never
does and `integrability` does not need.
"""

from __future__ import annotations

import itertools
import operator

from .errors import (DecompositionFailed, DegenerateOmega, ImpureSpinor,
                     NotRealStructure, ZeroSpinor)
from .forms import Chart, Form
from .genalg import (GenVec, PolyVec, _over_one_den, ad_b, basis_terms,
                     clifford_act, genvec_wedge, wedge_terms)
from .linalg import (kernel_basis, mat_add, mat_identity, mat_inverse, mat_mul,
                     mat_sub, mat_vec, solve_exact)
from .scalars import (QQi, Point, TrigPoly, _acc, _cancel, _coprime_parts,
                      _leading, _merge, _power_product, _times_term,
                      _unit_free, _unit_normalize)


class GCStruct:
    """Base: almost generalized complex structure on a chart."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self._spinor = None
        self._frame = None
        self._jmat = None

    # subclasses fill these -------------------------------------------------

    def _build_spinor(self) -> Form:
        raise NotImplementedError

    def _build_frame(self):
        raise NotImplementedError

    def _build_jmat(self):
        return _jmat_from_frame(self.chart, self.annihilator())

    # cached API -------------------------------------------------------------

    def spinor(self) -> Form:
        if self._spinor is None:
            self._spinor = self._build_spinor()
        return self._spinor

    def annihilator(self):
        """Closed-form frame of the -i eigenbundle (annihilator of the spinor)."""
        if self._frame is None:
            self._frame = self._build_frame()
        return self._frame

    def conj_annihilator(self):
        return [e.conj() for e in self.annihilator()]

    def j_matrix(self):
        if self._jmat is None:
            self._jmat = self._build_jmat()
        return self._jmat


class SymplecticGCS(GCStruct):
    """phi = exp(b + i omega) for real 2-forms b and omega, omega symplectic.

    The endomorphism follows the annihilator convention shared by every
    constructor: J = -i exactly on ker(phi).  The quoted block matrix
    (0, -w^{-1}; w, 0) is its negative and belongs to the pairing side of a
    Kahler-type pair, where it is the structure induced by conj(phi); see
    GKPair.jpsi_matrix.
    """

    def __init__(self, chart, b: Form, omega: Form):
        super().__init__(chart)
        if not (b.is_real() and omega.is_real()):
            raise NotRealStructure("symplectic data must be real 2-forms")
        if any(len(i) != 2 for i in (*b.terms, *omega.terms)):
            raise ValueError("symplectic data must be 2-forms")
        self.b = b
        self.omega = omega
        self.z = b + omega.scale(QQi(0, 1))
        self._omega_exp = None

    def omega_exp(self) -> Form:
        """exp(omega), built once: its top coefficient is Pf(omega) and its
        others are the cofactors that `pfaffian_inverse` reads."""
        if self._omega_exp is None:
            self._omega_exp = self.omega.exp()
        return self._omega_exp

    def _build_spinor(self):
        return self.z.exp()

    def _build_frame(self):
        """Annihilator of exp(Z): sections v - i_v Z over the coordinate fields."""
        return [ad_b(self.z, GenVec.basis(self.chart, k))
                for k in range(self.chart.dim)]

    def _build_jmat(self):
        return [[-x for x in row] for row in self.block_matrix()]

    def block_matrix(self):
        """Ad_{e^b} (0, -w^{-1}; w, 0) Ad_{e^{-b}}: +i on ker exp(b + i omega)."""
        chart = self.chart
        dim = chart.dim
        W = _hat_matrix(chart, self.omega)
        Winv = pfaffian_inverse(chart, self.omega_exp())
        j0 = [[chart.zero_s()] * (2 * dim) for _ in range(2 * dim)]
        for r in range(dim):
            for c in range(dim):
                j0[r][dim + c] = -Winv[r][c]
                j0[dim + r][c] = W[r][c]
        return mat_mul(mat_mul(b_transport_matrix(chart, self.b), j0),
                       b_transport_matrix(chart, -self.b))


def b_transport_matrix(chart: Chart, b: Form):
    """Matrix of v + xi -> v + xi - i_v b on coordinate columns."""
    dim = chart.dim
    B = _hat_matrix(chart, b)
    m = mat_identity(2 * dim, chart.one_s(), chart.zero_s())
    for r in range(dim):
        for c in range(dim):
            m[dim + r][c] = -B[r][c]
    return m


def pfaffian_inverse(chart: Chart, e: Form, name="omega"):
    """W^-1 for the matrix W of v -> i_v w, read off e = exp(w), which holds
    every w^k/k! of the 2-form w.

    Pf is e's coefficient on (0, ..., dim-1) and c_ij its coefficient on
    the sorted complement of {i, j} (1 when dim = 2). For i < j,
    (W^-1)_ij = (-1)^(i+j+1) c_ij / Pf and (W^-1)_ji = -(W^-1)_ij. Since
    det W = Pf^2, raises DegenerateOmega when Pf is 0.
    """
    dim = chart.dim
    coeffs = e.terms
    pf = coeffs.get(tuple(range(dim)))
    if pf is None:
        raise DegenerateOmega(f"{name} is not symplectic")
    winv = [[chart.zero_s()] * dim for _ in range(dim)]
    for i, j in itertools.combinations(range(dim), 2):
        c = coeffs.get(tuple(k for k in range(dim) if k != i and k != j))
        if c is not None:
            x = c / pf
            winv[i][j], winv[j][i] = (x, -x) if (i + j) % 2 else (-x, x)
    return winv


class ComplexVolumeGCS(GCStruct):
    """phi = theta_1 ^ ... ^ theta_n for closed complex 1-forms theta_k."""

    def __init__(self, chart, one_forms):
        super().__init__(chart)
        self.one_forms = [f if isinstance(f, Form) else chart.form(f)
                          for f in one_forms]
        if len(self.one_forms) != chart.n:
            raise ValueError("need n one-forms")

    def _build_spinor(self):
        out = self.chart.func(1)
        for f in self.one_forms:
            out = out.wedge(f)
        if out.is_zero():
            raise ZeroSpinor("one-forms are linearly dependent")
        return out

    def _build_frame(self):
        chart = self.chart
        dim = chart.dim
        amat = [[f.coefficient((j,)) for j in range(dim)] for f in self.one_forms]
        kers = kernel_basis(amat)
        if len(kers) != dim - chart.n:
            raise ImpureSpinor("volume form is degenerate")
        frame = [GenVec.vector(chart, k) for k in kers]
        frame += [GenVec.covector(chart, [f.coefficient((j,)) for j in range(dim)])
                  for f in self.one_forms]
        return frame


class MovedGCS(GCStruct):
    """`base` moved by the spin-group element exp(c1 x1^y1) ... exp(ck xk^yk).

    Each piece (c, x, y) must have x and y isotropic and orthogonal, so that
    c x^y squares to zero: its factor acts as 1 + c x.y on spinors and as
    1 + ad(c x^y), with inverse 1 - ad(c x^y), on sections.  Poisson pieces
    (c, V_i, V_j) of vector fields, b-field pieces (c, dx_i, dx_j) and the
    (c, e+, e-) pieces of a nilpotent path all qualify; nothing is checked.
    """

    def __init__(self, base: GCStruct, pieces):
        super().__init__(base.chart)
        self.base = base
        self.pieces = list(pieces)
        self._ads = None

    def _ad_matrices(self):
        """ad(c x ^ y) of each piece, built once for the frame and for J."""
        if self._ads is None:
            self._ads = [genvec_wedge(x, y).scale(c).ad_matrix()
                         for c, x, y in self.pieces]
        return self._ads

    def _build_spinor(self):
        phi = self.base.spinor()
        for c, x, y in reversed(self.pieces):
            phi = phi + clifford_act(x, clifford_act(y, phi)).scale(c)
        return phi

    def _build_frame(self):
        frame = self.base.annihilator()
        for ad in reversed(self._ad_matrices()):
            frame = [e + GenVec.from_column(self.chart, mat_vec(ad, e.column()))
                     for e in frame]
        return frame

    def _build_jmat(self):
        chart = self.chart
        m = minv = one = mat_identity(2 * chart.dim, chart.one_s(), chart.zero_s())
        for ad in self._ad_matrices():
            m = mat_mul(m, mat_add(one, ad))
            minv = mat_mul(mat_sub(one, ad), minv)
        return mat_mul(mat_mul(m, self.base.j_matrix()), minv)


class FrameGCS(GCStruct):
    """Structure given by explicit spinor, annihilator frame and matrix."""

    def __init__(self, chart, phi: Form, frame, jmat):
        super().__init__(chart)
        self.phi = phi
        self._frame = list(frame)
        self._jmat = jmat

    def _build_spinor(self):
        return self.phi


def _hat_matrix(chart: Chart, two_form: Form):
    """Matrix sending vector components to (i_v w) covector components."""
    dim = chart.dim
    m = [[chart.zero_s() for _ in range(dim)] for _ in range(dim)]
    for (i, j), c in two_form.terms.items():
        m[i][j] = m[i][j] + c
        m[j][i] = m[j][i] - c
    # (i_v w)_j = sum_i v_i w(d_i, d_j); matrix rows index i, so transpose
    return [[m[i][j] for i in range(dim)] for j in range(dim)]


def _jmat_from_frame(chart: Chart, frame):
    """J = S D S^-1 for S = (frame | conj frame) and D = diag(-i, +i): the
    columns of S are scaled by D's entries in place of a product with D."""
    dim = chart.dim
    cols = [e.column() for e in frame] + [e.conj().column() for e in frame]
    smat = [[cols[c][r] for c in range(2 * dim)] for r in range(2 * dim)]
    sinv = mat_inverse(smat)
    if sinv is None:
        raise ImpureSpinor("frame and its conjugate do not span")
    mi = chart.const(QQi(0, -1))
    pi = chart.const(QQi(0, 1))
    sd = [[x * (mi if c < dim else pi) for c, x in enumerate(row)]
          for row in smat]
    return mat_mul(sd, sinv)


# ---------------------------------------------------------------------------
# Pointwise type
# ---------------------------------------------------------------------------


def _eval_form(phi: Form, p: Point):
    out = {}
    for idx, c in phi.terms.items():
        v = c.eval(p)
        if not v.is_zero():
            out[idx] = v
    return out


def type_number(J: GCStruct, p: Point) -> int:
    """Minimal degree with nonvanishing coefficient of the spinor at p."""
    terms = _eval_form(J.spinor(), p)
    if not terms:
        raise ZeroSpinor("spinor vanishes at the point")
    return min(len(i) for i in terms)


# ---------------------------------------------------------------------------
# The (eta, N) decomposition of d(phi)
# ---------------------------------------------------------------------------


class EtaN:
    """Result of the unique real splitting d(phi) = eta.phi + N.phi.

    `coeffs` lists the c of d(phi) = (sum c_i ebar_i + sum c_ijk ebar_i
    ebar_j ebar_k) . phi over the conjugate frame ebar of length m: the m
    singles c_i, then the C(m, 3) triples c_ijk in `itertools.combinations`
    order.  eta is canonical at once.  n03 and n3 (that is N) are held as
    numerators over one denominator each, and become canonical PolyVecs on
    first read, each key normalized once against that denominator's
    factors; `gric_gr` reads neither, `integrability` only their zero-ness.
    """

    __slots__ = ("eta", "coeffs", "_parts", "_read")

    def __init__(self, eta, coeffs, n03, n3):
        self.eta = eta
        self.coeffs = coeffs
        self._parts = {"n03": n03, "n3": n3}  # ({key: num}, den, den's factors)
        self._read = {}

    def _polyvec(self, name):
        if name not in self._read:
            nums, den, facs = self._parts[name]
            out = self._read[name] = PolyVec(self.eta.chart, 3)
            out.coef = {k: _cancel(den.nvars, x, den, facs) for k, x in nums.items()}
        return self._read[name]

    @property
    def n03(self) -> PolyVec:
        return self._polyvec("n03")

    @property
    def n3(self) -> PolyVec:
        return self._polyvec("n3")


def _clifford_coeffs(phi: Form, dphi: Form, ebar):
    """`EtaN.coeffs` of any structure: row-reduce d(phi) against the columns
    ebar_i . phi and ebar_i . ebar_j . ebar_k . phi."""
    cols = [clifford_act(e, phi) for e in ebar]
    cols += [clifford_act(ebar[i], clifford_act(ebar[j], clifford_act(ebar[k], phi)))
             for i, j, k in itertools.combinations(range(len(ebar)), 3)]
    idxs = sorted({i for c in cols for i in c.terms} | set(dphi.terms),
                  key=lambda i: (len(i), i))
    sol = solve_exact([[c.coefficient(i) for c in cols] for i in idxs],
                      [dphi.coefficient(i) for i in idxs])
    if sol is None:
        raise DecompositionFailed("d(phi) is not of the expected shape")
    return sol


def _minor(w, rows, cols, zero):
    """det w[rows, cols] by Laplace expansion along the first row."""
    if len(rows) == 1:
        return w[rows[0]][cols[0]]
    out = zero
    for p, c in enumerate(cols):
        if not w[rows[0]][c].is_zero():
            x = w[rows[0]][c] * _minor(w, rows[1:], cols[:p] + cols[p + 1:], zero)
            out = out - x if p % 2 else out + x
    return out


def _symplectic_coeffs(J: SymplecticGCS, dphi: Form):
    """`EtaN.coeffs` of exp(Z), Z = b + i omega, in closed form.

    ebar_k . (beta ^ phi) = (i_k beta + a_k ^ beta) ^ phi with
    a_k = 2i i_k omega, so the triples solve dZ = sum c_ijk a_i ^ a_j ^ a_k,
    dZ being the 3-form part of d(phi).  With W_ab = omega(d_a, d_b) and
    det W = Pf^2, Jacobi's complementary-minor identity inverts that
    system: c_t = (2i)^-3 sum_s dZ_s (-1)^(sum s + sum t) det W[t', s'] / Pf^2,
    t' and s' the complements.  The singles cancel each triple's 1-form
    part 2i (W_kj a_i - W_ki a_j + W_ji a_k) c_ijk.  Raises
    DecompositionFailed when Pf = 0, where the columns are dependent.
    """
    chart = J.chart
    dim = chart.dim
    zero = chart.zero_s()
    pf = J.omega_exp().terms.get(tuple(range(dim)))
    if pf is None:
        raise DecompositionFailed("d(phi) != 0 and omega is degenerate")
    w = [list(col) for col in zip(*_hat_matrix(chart, J.omega))]
    scale = chart.i_s() / (pf * pf * 8)  # (2i)^-3 / Pf^2
    dz = [(s, [k for k in range(dim) if k not in s], x)
          for s, x in dphi.terms.items() if len(s) == 3]
    triples = list(itertools.combinations(range(dim), 3))
    sol = [zero] * dim
    for t in triples:
        tc = [k for k in range(dim) if k not in t]
        ct = zero
        for s, sc, x in dz:
            y = x * _minor(w, tc, sc, zero)
            ct = ct - y if (sum(s) + sum(t)) % 2 else ct + y
        sol.append(ct * scale)
    for (i, j, k), c in zip(triples, sol[dim:]):
        if c.is_zero():
            continue
        c2 = c * QQi(0, 2)
        sol[i] = sol[i] - w[k][j] * c2
        sol[j] = sol[j] + w[k][i] * c2
        sol[k] = sol[k] - w[j][i] * c2
    return sol


def _conj_unit(d: TrigPoly):
    """The term u = (key, c) with conj(d) = u * d, or None."""
    cd, dt = d.conj().terms, d.terms
    la, lb = _leading(cd), _leading(dt)
    u = tuple(map(operator.sub, la, lb)), cd[la] * dt[lb].inverse()
    return u if _times_term(dt, *u) == cd else None


def _obstruction(chart, ebar, triples, coeffs):
    """n03 = sum c_ijk ebar_i ^ ebar_j ^ ebar_k and N = n03 + conj(n03) as
    ({key: numerator}, den, den's factors), in `wedge_sum`'s key order, and
    the term u with conj(N's den) = u * N's den (None if there is none).

    n03's den is D E^3, D and E the lcms of the c_ijk's and of the frame's
    denominators; its numerators are products of theirs.  Where conj(den)
    = u den for a term u, N's numerators are x + u^-1 conj(x) over den;
    else they go over lcm(den, conj den)."""
    m = chart.nvars
    cs, _, fc = _over_one_den(m, coeffs)
    cols, _, fe = _over_one_den(m, [x for e in ebar for x in e.column()])
    width = 2 * chart.dim
    cols = [cols[k:k + width] for k in range(0, len(cols), width)]
    nums = {}
    for (i, j, k), c in zip(triples, cs):
        if c.terms:
            for idx, w in wedge_terms((cols[i], cols[j], cols[k])).items():
                _acc(nums, idx, c * w)
    facs = tuple((f, e1 + e2) for f, e1, e2 in
                 _merge(fc, tuple((f, 3 * e) for f, e in fe)))
    den = _power_product(m, facs)
    u = _conj_unit(den)
    if u is not None:
        inv = tuple(-k for k in u[0]), u[1].inverse()
        n3 = ((key, x + TrigPoly(m, _times_term(x.conj().terms, *inv)))
              for key, x in nums.items())
        n3den, n3facs = den, facs
    else:
        cd = den.conj().terms
        base = _merge(facs, tuple((_unit_free(f.conj()), e) for f, e in facs))
        r1, r2 = _coprime_parts(m, base, den, _unit_normalize({}, cd, m)[1])
        n3 = ((key, x * r2 + _unit_normalize(x.conj().terms, cd, m)[0] * r1)
              for key, x in nums.items())
        n3den, n3facs = den * r2, tuple((f, max(e1, e2)) for f, e1, e2 in base)
        u = _conj_unit(n3den)
    n3 = {key: y for key, y in n3 if not y.is_zero()}
    return (nums, den, facs), (n3, n3den, n3facs), u


def _act_nums(dim, gens, phi):
    """Numerators of sum x E_key . phi over the (key, x) in gens, for phi
    given as {index: numerator}: the x are summed per (image, source)
    index (`basis_terms`) before one product with phi's numerator."""
    by_src = {}
    for key, x in gens:
        for src in phi:
            for out, f in basis_terms(dim, key, src):
                _acc(by_src, (out, src), x if f == 1 else -x if f == -1
                     else x.scale(QQi(f)))
    acc = {}
    for (out, src), s in by_src.items():
        _acc(acc, out, s * phi[src])
    return acc


def eta_N_extract(J: GCStruct) -> EtaN:
    """Solve d(phi) = (sum c_i ebar_i + sum c_ijk ebar_i ebar_j ebar_k) . phi
    for the coefficient list `EtaN.coeffs`, then assemble eta = 2 Re(eta01)
    and N = 2 Re(n03).

    dphi = 0 returns zeros at once.  A `SymplecticGCS` reads the list in
    closed form (`_symplectic_coeffs`); every other structure row-reduces
    the Clifford system (`_clifford_coeffs`).  Both routes share one
    assembly: n03 and N are built as numerators over one denominator each
    (`_obstruction`) and normalized only when read (`EtaN`).  Its two checks
    take no gcd: eta.phi + N.phi = d(phi) is cross-multiplied at each form
    index, with eta, N and phi each over one denominator, and N is real
    when conj(y) = u y for each numerator y over a den with conj(den) =
    u den.  Either failing, or a non-real eta, raises DecompositionFailed.
    """
    chart = J.chart
    phi = J.spinor()
    dphi = phi.ext_d()
    dim, m = chart.dim, chart.nvars
    triples = list(itertools.combinations(range(dim), 3))
    if dphi.is_zero():
        empty = ({}, TrigPoly.const(m, 1), ())
        return EtaN(GenVec.zero(chart), [chart.zero_s()] * (dim + len(triples)),
                    empty, empty)
    ebar = J.conj_annihilator()
    if isinstance(J, SymplecticGCS):
        sol = _symplectic_coeffs(J, dphi)
    else:
        sol = _clifford_coeffs(phi, dphi, ebar)
    eta01 = GenVec.zero(chart)
    for i in range(dim):
        eta01 = eta01 + ebar[i].scale(sol[i])
    eta = eta01 + eta01.conj()
    n03, n3, u = _obstruction(chart, ebar, triples, sol[dim:])
    nums, lden = n3[0], n3[1]
    # eta.phi = T/(H F) and N.phi = S/(L F) against d(phi) = p/q, index by index
    xs, h, _ = _over_one_den(m, eta.column())
    fs, f, _ = _over_one_den(m, list(phi.terms.values()))
    fs = dict(zip(phi.terms, fs))
    t = _act_nums(dim, [((a,), x) for a, x in enumerate(xs) if x.terms], fs)
    s = _act_nums(dim, nums.items(), fs)
    hlf, zero = h * lden * f, TrigPoly(m)
    for idx in {*t, *s, *dphi.terms}:
        p = dphi.terms.get(idx, chart.zero_s())
        if p.num * hlf != p.den * (t.get(idx, zero) * lden + s.get(idx, zero) * h):
            raise DecompositionFailed("residual in the (eta, N) splitting")
    if not eta.is_real() or u is None or any(
            y.conj().terms != _times_term(y.terms, *u) for y in nums.values()):
        raise DecompositionFailed("splitting is not real")
    return EtaN(eta, sol, n03, n3)


def integrability(J: GCStruct) -> bool:
    """True iff the Lambda^3 obstruction vanishes identically: N's
    numerators are read, and no key of N is normalized."""
    return not eta_N_extract(J)._parts["n3"][0]
