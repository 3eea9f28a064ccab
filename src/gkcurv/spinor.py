"""Almost generalized complex structures from pure-spinor data.

Each structure is built from one of four kinds of defining data (symplectic
exponential exp(b + i omega), complex volume form, bivector deformation,
explicit spinor with its frame and matrix) and exposes the induced spinor
line, a closed-form annihilator frame, the endomorphism matrix on T + T*,
and the unique real (eta, N) splitting of d(phi), whose Lambda^3 part is the
integrability obstruction.
"""

from __future__ import annotations

import itertools

from .errors import (DecompositionFailed, DegenerateOmega, ImpureSpinor,
                     NotBivector, NotRealStructure, ZeroSpinor)
from .forms import Chart, Form
from .genalg import (GenVec, PolyVec, _basis_act, ad_b, clifford_act, exp_spin,
                     keyed_sum, wedge_sum)
from .linalg import (kernel_basis, mat_add, mat_identity, mat_inverse, mat_mul,
                     mat_sub, solve_exact)
from .scalars import QQi, Point


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
        return [ad_b(self.z, GenVec.basis(self.chart, k), check_closed=False)
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


class BetaDeformGCS(GCStruct):
    """Bivector deformation exp(beta) of a base structure."""

    def __init__(self, chart, beta: PolyVec, base: GCStruct):
        super().__init__(chart)
        if beta.grade != 2 or not beta.vector_only():
            raise NotBivector("beta must be a bivector with vector components")
        self.beta = beta
        self.base = base

    def _build_spinor(self):
        return exp_spin(self.beta, self.base.spinor())

    def _build_frame(self):
        return [e + self.beta.ad(e) for e in self.base.annihilator()]

    def _build_jmat(self):
        chart = self.chart
        one = mat_identity(2 * chart.dim, chart.one_s(), chart.zero_s())
        ad = self.beta.ad_matrix()
        return mat_mul(mat_mul(mat_add(one, ad), self.base.j_matrix()),
                       mat_sub(one, ad))


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
# Pointwise purity / nondegeneracy / type
# ---------------------------------------------------------------------------


def _eval_form(phi: Form, p: Point):
    out = {}
    for idx, c in phi.terms.items():
        v = c.eval(p)
        if not v.is_zero():
            out[idx] = v
    return out


def clifford_matrix(phi: Form):
    """Matrix of a -> E_a . phi over the 4n coordinate basis; its rows are
    the multi-indices occurring in some image, in (degree, index) order."""
    chart = phi.chart
    cols = [_basis_act(chart, a, phi) for a in range(2 * chart.dim)]
    idxs = sorted({i for c in cols for i in c.terms}, key=lambda i: (len(i), i))
    return [[c.coefficient(i) for c in cols] for i in idxs]


def purity_nondeg(phi: Form, p: Point) -> dict:
    """Pointwise purity and nondegeneracy of a spinor by exact rank counts."""
    dim = phi.chart.dim
    if not _eval_form(phi, p):
        raise ZeroSpinor("spinor vanishes at the point")
    mat = [[x.eval(p) for x in row]
           for row in clifford_matrix(phi)]
    kers = kernel_basis(mat)
    pure = len(kers) == dim
    nondeg = False
    if pure:
        both = [list(k) for k in kers] + [[c.conj() for c in k] for k in kers]
        gram = [[b[c] for b in both] for c in range(2 * dim)]
        nondeg = len(kernel_basis(gram)) == 0
    return {
        "pure": pure,
        "nondegenerate": nondeg,
        "annihilator": [GenVec.from_column(phi.chart, [phi.chart.const(x) for x in k])
                        for k in kers],
    }


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
    """Result of the unique real splitting d(phi) = eta.phi + N.phi."""

    __slots__ = ("eta", "eta01", "n3", "n03", "coeffs")

    def __init__(self, eta, eta01, n3, n03, coeffs):
        self.eta = eta
        self.eta01 = eta01
        self.n3 = n3
        self.n03 = n03
        self.coeffs = coeffs


def eta_N_extract(J: GCStruct) -> EtaN:
    """Solve d(phi) = (sum c_i ebar_i + sum c_ijk ebar_i ebar_j ebar_k) . phi."""
    chart = J.chart
    phi = J.spinor()
    dphi = phi.ext_d()
    ebar = J.conj_annihilator()
    m = len(ebar)
    cols = []
    for i in range(m):
        cols.append(clifford_act(ebar[i], phi))
    triples = list(itertools.combinations(range(m), 3))
    for (i, j, k) in triples:
        cols.append(clifford_act(ebar[i], clifford_act(ebar[j],
                    clifford_act(ebar[k], phi))))
    idxs = sorted({i for c in cols for i in c.terms} | set(dphi.terms),
                  key=lambda i: (len(i), i))
    if not idxs:
        zero_eta = GenVec.zero(chart)
        return EtaN(zero_eta, zero_eta, PolyVec(chart, 3), PolyVec(chart, 3), [])
    mat = [[c.coefficient(i) for c in cols] for i in idxs]
    rhs = [dphi.coefficient(i) for i in idxs]
    sol = solve_exact(mat, rhs)
    if sol is None:
        raise DecompositionFailed("d(phi) is not of the expected shape")
    eta01 = GenVec.zero(chart)
    for i in range(m):
        eta01 = eta01 + ebar[i].scale(sol[i])
    eta = eta01 + eta01.conj()
    n03 = wedge_sum(chart, 3, ((c, ebar[i], ebar[j], ebar[k])
                               for (i, j, k), c in zip(triples, sol[m:])))
    n3 = PolyVec(chart, 3, keyed_sum(chart.nvars, itertools.chain(
        ((idx, c.num, c.den) for idx, c in n03.coef.items()),
        ((idx, c.num.conj(), c.den.conj()) for idx, c in n03.coef.items()))))
    check = clifford_act(eta, phi) + n3.spin_act(phi)
    if not (check - dphi).is_zero():
        raise DecompositionFailed("residual in the (eta, N) splitting")
    if not eta.is_real() or not n3.is_real():
        raise DecompositionFailed("splitting is not real")
    return EtaN(eta, eta01, n3, n03, sol)


def integrability(J: GCStruct) -> bool:
    """True iff the Lambda^3 obstruction vanishes identically."""
    return eta_N_extract(J).n3.is_zero()
