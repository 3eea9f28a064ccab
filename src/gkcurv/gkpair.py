"""Almost generalized Kahler pairs and their simultaneous eigenspace frames.

A pair couples an arbitrary almost structure J1 with the symplectic-type
structure of a d-closed spinor exp(b + i omega).  The module provides the
commutation/positivity report, the C+/C- simultaneous frames with
G-normalised dual frames, type-(0,0) diagnostics, generalized Hamiltonian
elements, the mixed second algebroid differential on functions, and the
pointwise trace pairing used by the deformation symplectic form.

J_psi is -i on ker exp(b - i omega) and +i on ker exp(b + i omega), so the
frames are the meets E+- = E1 n ker exp(b -+ i omega).  Each is one kernel on
the coefficients of J1's closed-form annihilator frame; the dual frames are
rows of the joint eigen-projectors of J1 and J_psi, with no inverse.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (ChartMismatch, DegenerateOmega, DimensionMismatch,
                     NotClosed, NotRealStructure)
from .forms import Chart, Form, products_over_one_den
from .genalg import (GenVec, PolyVec, ad_b, clifford_act, derivative_along,
                     dorfman, pair_tt, wedge_sum)
from .linalg import (kernel_basis, mat_add, mat_commutator, mat_is_zero,
                     mat_mul, mat_sub, mat_trace_product, mat_vec, rref)
from .scalars import QQi, Point, ScalarExpr, ipow
from .spinor import GCStruct, SymplecticGCS, _hat_matrix, pfaffian_inverse


class GKPair:
    """Candidate almost generalized Kahler pair (J1, J_psi).

    The pairing side carries the quoted block matrix (+i on ker psi, i.e.
    the structure trivialised by conj(psi)); with the annihilator-convention
    J1 this is the sign arrangement that makes -J1 J2 positive on Kahler
    pairs.
    """

    def __init__(self, j1: GCStruct, b: Form, omega: Form):
        self.chart = j1.chart
        if b.chart != self.chart or omega.chart != self.chart:
            raise ChartMismatch("spinor data on a different chart")
        if not (b.ext_d().is_zero() and omega.ext_d().is_zero()):
            raise NotClosed("the symplectic-type spinor must be d-closed")
        self.j1 = j1
        self.b = b
        self.omega = omega
        self.jpsi = SymplecticGCS(self.chart, b, omega)
        self._jpsi_mat = None
        self._ghat = None
        self._frame = None
        self._volume = None

    def psi(self) -> Form:
        return self.jpsi.spinor()

    def psibar(self) -> Form:
        return self.psi().conj()

    def spinor_volume(self) -> ScalarExpr:
        """<psi, conj psi> = (2i)^n Pf(omega), the volume of every torus
        pairing, built once.

        The Mukai pairing is the top part of psi ^ sigma(conj psi), and
        sigma(e^Z) = e^-Z for a 2-form Z, so it is the top part of
        e^(b + i omega) ^ e^(-b + i omega) = e^(2i omega), which is
        (2i)^n omega^n/n!.  Pf(omega), the coefficient of omega^n/n!, is the
        top coefficient of J_psi's exp(omega).
        """
        if self._volume is None:
            chart = self.chart
            pf = self.jpsi.omega_exp().terms.get(tuple(range(chart.dim)),
                                                 chart.zero_s())
            self._volume = pf * (ipow(chart.n) * 2 ** chart.n)
        return self._volume

    def jpsi_matrix(self):
        if self._jpsi_mat is None:
            self._jpsi_mat = self.jpsi.block_matrix()
        return self._jpsi_mat

    def ghat(self):
        if self._ghat is None:
            prod = mat_mul(self.j1.j_matrix(), self.jpsi_matrix())
            self._ghat = [[-x for x in row] for row in prod]
        return self._ghat

    def metric_gram(self):
        """Matrix of G(a, b) = <Ghat a, b> over the coordinate basis: E_b
        pairs only with its partner index (b + dim) % (2 dim), to 1/2."""
        gh = self.ghat()
        dim = self.chart.dim
        return [[gh[(b + dim) % (2 * dim)][a] * Fraction(1, 2)
                 for b in range(2 * dim)] for a in range(2 * dim)]

    def epm_frame(self) -> "EpmFrame":
        if self._frame is None:
            self._frame = epm_split(self)
        return self._frame


def compatibility_check(pair: GKPair, points) -> dict:
    """Exact commutator test plus exact positivity minors at rational points."""
    j1 = pair.j1.j_matrix()
    j2 = pair.jpsi_matrix()
    commute = mat_is_zero(mat_commutator(j1, j2))
    gram = pair.metric_gram()
    positive = True
    min_eig = None
    for p in points:
        vals = [[_real_fraction(x.eval(p)) for x in row]
                for row in gram]
        if not _sylvester_positive(vals):
            positive = False
        eig = _jacobi_min_eigenvalue([[float(v) for v in row] for row in vals])
        min_eig = eig if min_eig is None else min(min_eig, eig)
    return {"commute": commute, "positive": positive, "min_eigenvalue": min_eig}


def _real_fraction(q: QQi) -> Fraction:
    if q.im != 0:
        raise NotRealStructure("metric entry is not real")
    return q.re


def _sylvester_positive(m) -> bool:
    n = len(m)
    rows = [list(r) for r in m]
    for c in range(n):
        piv = rows[c][c]
        if piv <= 0:
            return False
        for r in range(c + 1, n):
            if rows[r][c]:
                f = rows[r][c] / piv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return True


def _jacobi_min_eigenvalue(a):
    """Smallest eigenvalue of a real symmetric matrix: cyclic Jacobi sweeps
    until the off-diagonal part is below 1e-15 relative to the whole matrix."""
    n = len(a)
    a = [row[:] for row in a]
    tol = 1e-30 * sum(x * x for row in a for x in row)
    for _ in range(50):
        if sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0:
                    continue
                theta = 0.5 * math.atan2(2 * a[p][q], a[q][q] - a[p][p])
                c, s = math.cos(theta), math.sin(theta)
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
    return min(a[i][i] for i in range(n))


class EpmFrame:
    """Simultaneous eigenframes: E+ = E1 n E2, E- = E1 n conj(E2).

    E2 = ker exp(b - i omega) is J_psi's -i bundle, so E+- = E1 n
    ker exp(b -+ i omega).  Each is listed in the basis kernel_basis gives
    the kernel of (J1 + i) stacked on (J_psi +- i); see _meet_annihilator.
    """

    __slots__ = ("chart", "eplus", "eminus", "dplus", "dminus")

    def __init__(self, chart, eplus, eminus, dplus, dminus):
        self.chart = chart
        self.eplus = eplus
        self.eminus = eminus
        self.dplus = dplus    # dual frames in conj(E+), conj(E-):
        self.dminus = dminus  # 2<d_i, e_j> = delta_ij within each block

    @property
    def es(self):
        return self.eplus + self.eminus

    @property
    def duals(self):
        return self.dplus + self.dminus


def _meet_annihilator(chart, frame, z: Form):
    """E1 n ker exp(z) for the frame f_k of E1, in the stacked kernel's
    basis, with that basis's free columns.

    e = sum_k c_k f_k lies in ker exp(z) iff xi(e) + i_{X(e)} z = 0: one
    dim x dim kernel on the coefficients c.  kernel_basis of the stacked
    (J1 - s1; J2 - s2) returned the one basis of the meet that is the
    identity on that matrix's free columns, and column j is free iff some
    vector of the meet has its last nonzero entry at j.  These are the
    pivots of the span row-reduced with its columns reversed, so that
    reduction, read back with rows and columns reversed, is the same basis:
    its i-th vector is 1 on the i-th free column and 0 on the others.
    """
    dim = chart.dim
    fmat = [list(row) for row in zip(*(e.column() for e in frame))]
    cons = mat_add(mat_mul(_hat_matrix(chart, z), fmat[:dim]), fmat[dim:])
    rows, _, pivots = rref([mat_vec(fmat, c)[::-1]
                            for c in kernel_basis(cons)])
    return ([GenVec.from_column(chart, row[::-1]) for row in reversed(rows)],
            [2 * dim - 1 - p for p in reversed(pivots)])


def epm_split(pair: GKPair) -> EpmFrame:
    """E+- = E1 n ker exp(b -+ i omega), met inside J1's annihilator frame,
    with dual frames read off the joint eigen-projectors (`_dual_frame`).

    Raises DimensionMismatch unless both meets have dimension n, as for a
    pair whose structures do not commute or whose metric is degenerate, and
    when the duals fail 2<d_i, e_j> = delta_ij, as for a J1 matrix that
    disagrees with J1's frame.
    """
    chart = pair.chart
    frame = pair.j1.annihilator()
    iw = pair.omega.scale(QQi(0, 1))
    eplus, fplus = _meet_annihilator(chart, frame, pair.b - iw)
    eminus, fminus = _meet_annihilator(chart, frame, pair.b + iw)
    if len(eplus) != chart.n or len(eminus) != chart.n:
        raise DimensionMismatch(
            f"eigenspace dims ({len(eplus)}, {len(eminus)}), expected "
            f"({chart.n}, {chart.n})")
    dplus = _dual_frame(pair, eplus, fplus, QQi(0, -1))
    dminus = _dual_frame(pair, eminus, fminus, QQi(0, 1))
    return EpmFrame(chart, eplus, eminus, dplus, dminus)


def _dual_frame(pair: GKPair, es, free, s: QQi):
    """Frame d_i of conj(span es) with 2<d_i, e_j> = delta_ij, read off
    rows of the joint eigen-projector of J1 and J_psi (`GKPair.jpsi_matrix`).

    es is the basis of E = {J1 = -i} n {J_psi = s} that is 1 on its i-th
    free column f_i and 0 on the others (`_meet_annihilator`).  Once both
    meets have dimension n, E+, E- and their conjugates are joint
    eigenspaces that span T + T*, so Pi = (1 + i J1)(1 - s J_psi)/4
    projects onto E along the other three, and (Pi x)[f_i] is the i-th
    coefficient of x's part in E: delta_ij on e_j, 0 on the other three
    spaces.  The eigenbundles of J1 and of J_psi are isotropic, so 2<d, .>
    also vanishes there for d in conj E, and since 2<d, x> = d.xi(x.v) +
    d.v(x.xi), d_i has d_i.xi = row[:dim] and d_i.v = row[dim:] for
    row f_i of Pi.  The identity is checked exactly and with no gcd: the
    pairings' numerators over one denominator D (`products_over_one_den`)
    must be D on the diagonal and 0 off it; else DimensionMismatch.
    """
    chart = pair.chart
    dim = chart.dim
    j1, jpsi = pair.j1.j_matrix(), pair.jpsi_matrix()
    one, i, quarter = chart.one_s(), QQi(0, 1), QQi(Fraction(1, 4))
    duals = []
    for f in free:
        a = [x * i + one if c == f else x * i for c, x in enumerate(j1[f])]
        row = [(x + y * -s) * quarter
               for x, y in zip(a, mat_mul([a], jpsi)[0])]
        duals.append(GenVec(chart, row[dim:], row[:dim]))
    got, den, _ = products_over_one_den(chart.nvars, [
        ((k, j), x, y) for k, d in enumerate(duals) for j, e in enumerate(es)
        for x, y in zip(d.xi + d.v, e.v + e.xi)
        if not (x.is_zero() or y.is_zero())])
    if got != {(k, k): den for k in range(len(es))}:
        raise DimensionMismatch("dual frame fails 2<d_i, e_j> = delta_ij: "
                                "J1's matrix disagrees with its frame")
    return duals


# ---------------------------------------------------------------------------
# Type-(0,0) diagnostics
# ---------------------------------------------------------------------------


def type00_check(chart: Chart, B: Form, w1: Form, w2: Form, points=()) -> dict:
    """Pointwise/4d conditions for (exp(B+i w1), exp(i w2)) to be a GK pair."""
    report = {}
    if chart.dim == 4:
        vol = chart.volume()
        conds = {
            "B^w1=0": B.wedge(w1).is_zero(),
            "B^w2=0": B.wedge(w2).is_zero(),
            "w1^w2=0": w1.wedge(w2).is_zero(),
            "B^B=w1^2+w2^2": B.wedge(B) == w1.wedge(w1) + w2.wedge(w2),
            "B^B!=0": not B.wedge(B).is_zero(),
        }
        report["four_dim_conditions"] = conds
        report["pass"] = all(conds.values())
    kernel_ok = True
    tame_ok = True
    for p in points:
        for sign in (1, -1):
            wc = B + (w1 + w2.scale(-sign)).scale(QQi(0, 1))
            mat = _eval_two_form_matrix(chart, wc, p)
            ker = kernel_basis(mat)
            if len(ker) != chart.n:
                kernel_ok = False
                continue
            if not _tame_at(chart, w2, ker, p):
                tame_ok = False
    if points:
        report["kernel_dims_ok"] = kernel_ok
        report["tame"] = tame_ok
        report["pass"] = report.get("pass", True) and kernel_ok and tame_ok
    return report


def _eval_two_form_matrix(chart, w: Form, p: Point):
    """Values w(d_i, d_j) at p: the transpose of `_hat_matrix`."""
    return [[x.eval(p) for x in col]
            for col in zip(*_hat_matrix(chart, w))]


def _tame_at(chart, w2, ker, p):
    """w2(x, I x) > 0 for sample real directions x = u + conj(u), I x = i u - i conj(u)."""
    dim = chart.dim
    w = _eval_two_form_matrix(chart, w2, p)
    for u in ker:  # u spans T^{0,1}; I u = -i u
        x = [u[k] + u[k].conj() for k in range(dim)]
        ix = [QQi(0, -1) * u[k] + (QQi(0, -1) * u[k]).conj() for k in range(dim)]
        val = QQi(0)
        for a in range(dim):
            for bb in range(dim):
                val = val + x[a] * ix[bb] * w[a][bb]
        if not val.is_zero():
            if val.im != 0 or val.re <= 0:
                return False
    return True


# ---------------------------------------------------------------------------
# Generalized Hamiltonian elements
# ---------------------------------------------------------------------------


def hamiltonian_element(pair: GKPair, f: ScalarExpr) -> GenVec:
    """e = v - i_v b with i_v omega = df; satisfies e.psi = i df.psi exactly."""
    chart = pair.chart
    df = chart.func(f).ext_d()
    v = mat_vec(pfaffian_inverse(chart, pair.jpsi.omega_exp()),
                [df.coefficient((k,)) for k in range(chart.dim)])
    e = ad_b(pair.b, GenVec.vector(chart, v))
    psi = pair.psi()
    check = clifford_act(e, psi) - df.wedge(psi).scale(QQi(0, 1))
    if not check.is_zero():
        raise DegenerateOmega("hamiltonian element failed its defining identity")
    return e


# ---------------------------------------------------------------------------
# Algebroid differential and the mixed second derivative
# ---------------------------------------------------------------------------


def dbar_function(pair: GKPair, f: ScalarExpr):
    """Coefficients of dbar f = sum_j (pi(e_j) f) d_j over the dual frame."""
    fr = pair.epm_frame()
    return [derivative_along(e, f) for e in fr.es]


def dbar_section(pair: GKPair, coeffs):
    """Algebroid differential of s = sum_j coeffs[j] d_j into Lambda^2."""
    fr = pair.epm_frame()
    chart = pair.chart
    es = fr.es
    duals = fr.duals
    m = len(es)

    def s_eval(x: GenVec) -> ScalarExpr:
        total = chart.zero_s()
        for k in range(m):
            total = total + coeffs[k] * (pair_tt(duals[k], x) * 2)
        return total

    out = {}
    for i, j in itertools.combinations(range(m), 2):
        w = derivative_along(es[i], s_eval(es[j])) \
            - derivative_along(es[j], s_eval(es[i])) \
            - s_eval(dorfman(es[i], es[j]))
        if not w.is_zero():
            out[(i, j)] = w
    return out


def ddbar_pm(pair: GKPair, f: ScalarExpr) -> dict:
    """Mixed second algebroid derivative of a function.

    Returns the Lambda^2 coefficients over the dual frame, the mixed-part
    PolyVec in coordinates, and the independently computed full differential
    of the (0,1) part of the Hamiltonian element for cross-checking.
    """
    chart = pair.chart
    fr = pair.epm_frame()
    n = chart.n
    u = dbar_function(pair, f)
    sminus = [chart.zero_s()] * n + u[n:]
    w = dbar_section(pair, sminus)
    mixed = {k: v for k, v in w.items() if k[0] < n <= k[1]}
    pure_minus = {k: v for k, v in w.items() if k[0] >= n}
    poly = wedge_sum(chart, 2, ((c, fr.duals[i], fr.duals[j])
                                for (i, j), c in mixed.items()))
    e = hamiltonian_element(pair, f)
    e01 = [pair_tt(e, x) * 2 for x in fr.es]
    oracle = dbar_section(pair, e01)
    return {
        "mixed": mixed,
        "poly": poly,
        "pure_minus_residue": pure_minus,
        "oracle_full": oracle,
    }


# ---------------------------------------------------------------------------
# Deformation directions and the trace pairing
# ---------------------------------------------------------------------------


def frame_bivector(pair: GKPair, coeff_pairs) -> PolyVec:
    """Real h = sum c * x ^ y + conj over frame sections given as triples."""
    h = wedge_sum(pair.chart, 2, coeff_pairs)
    return h + h.conj()


def random_compat_bivector(pair: GKPair, rng) -> PolyVec:
    """Random real direction in Lambda^2 E + Lambda^2 conj(E) of J1."""
    fr = pair.epm_frame()
    es = fr.es
    pieces = []
    for i, j in itertools.combinations(range(len(es)), 2):
        c = QQi(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                Fraction(rng.randint(-2, 2), 2))
        if not c.is_zero():
            pieces.append((pair.chart.const(c), es[i], es[j]))
    return frame_bivector(pair, pieces)


def jdot_matrix(pair: GKPair, h: PolyVec):
    """Infinitesimal deformation [h, J1] as a matrix field."""
    ad = h.ad_matrix()
    j = pair.j1.j_matrix()
    return mat_sub(mat_mul(ad, j), mat_mul(j, ad))


def trace_pairing(pair: GKPair, h1: PolyVec, h2: PolyVec) -> ScalarExpr:
    """tr(J [h1,J] [h2,J]) as an exact function on the chart, contracted
    as sum_ik (J [h1,J])_ik [h2,J]_ki."""
    return mat_trace_product(mat_mul(pair.j1.j_matrix(), jdot_matrix(pair, h1)),
                             jdot_matrix(pair, h2))
