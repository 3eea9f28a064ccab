import dataclasses
import re
from fractions import Fraction

import pytest
import sympy

from gkcurv.curvature import (SERIES_MEAN_MAX_ORDER, SERIES_MEAN_TOL,
                              NilpotentPath, _at_zero, _pad, check_mean_zero,
                              gr_complex, gr_two_term_forms, gric_gr,
                              moment_derivative_check, moment_form,
                              moment_pairing, proportionality, rho,
                              scalar_torus_mean_certified, theta_form,
                              type00_gric)
from gkcurv.errors import (EvaluationPole, NotExactlyIntegrable, NotMeanZero,
                           NotRealStructure)
from gkcurv.examples import (CATALOG, cp2_three_lines, flat_kahler,
                             flat_omega_form, flat_volume_forms,
                             fubini_study_chart, hyperkahler_t4,
                             t4_nonintegrable, type00_perturbed)
from gkcurv.forms import Chart
from gkcurv.genalg import GenVec, gen_lie_J
from gkcurv.gkpair import (GKPair, compatibility_check, frame_bivector,
                           hamiltonian_element, jdot_matrix)
from gkcurv.linalg import mat_vec
from gkcurv.parsing import parse_scalar
from gkcurv.scalars import Point, QQi, ScalarExpr, ipow
from gkcurv.spinor import ComplexVolumeGCS, SymplecticGCS, eta_N_extract
from gkcurv.transport import transport_b

from conftest import chart_flat
from test_scalars import _sym_trig


def kahler_oracle_dJdlog(j1, rho_val):
    """Independent Ricci oracle -d(J dlog rho), bypassing the spinor route."""
    chart = j1.chart
    dlog = GenVec.covector(chart, [rho_val.partial(k) / rho_val
                                   for k in range(chart.dim)])
    u = GenVec.from_column(chart, mat_vec(j1.j_matrix(), dlog.column()))
    assert all(c.is_zero() for c in u.v), "J dlog rho is not a 1-form"
    return -u.covector_form().ext_d()


def test_rho_flat():
    assert rho(flat_kahler(2).pair()) == chart_flat(2).one_s()
    # complex-volume vs symplectic pairing at n = 1 carries the odd-type sign
    assert rho(flat_kahler(1).pair()) == chart_flat(1).const(-1)


def test_rho_fs():
    pair = fubini_study_chart(1).pair()
    r = rho(pair)
    chart = pair.chart
    s = chart.sc("1 + x1^2 + x2^2")
    assert r == s * s * chart.const(Fraction(-1, 2))


def test_gric_flat_kahler():
    for n in (1, 2):
        pair = flat_kahler(n).pair()
        rep = gric_gr(pair)
        assert rep.gric.is_zero()
        assert rep.gr.is_zero()
        assert rep.flags["gric_closed"]
        assert gr_complex(pair).is_zero()


def test_gric_fs_sphere():
    pair = fubini_study_chart(1).pair()
    rep = gric_gr(pair)
    w = pair.omega
    lam = proportionality(rep.gric, w)
    assert lam is not None
    assert lam == pair.chart.const(-4)
    oracle = kahler_oracle_dJdlog(pair.j1, rep.rho)
    assert rep.gric == oracle
    assert rep.flags["gr_constant"]
    assert rep.gr == pair.chart.const(4)
    assert rep.flags["gric_closed"]


def test_gric_fs_cp2():
    pair = fubini_study_chart(2).pair()
    rep = gric_gr(pair)
    lam = proportionality(rep.gric, pair.omega)
    assert lam is not None
    assert lam == pair.chart.const(-6)
    oracle = kahler_oracle_dJdlog(pair.j1, rep.rho)
    assert rep.gric == oracle
    assert rep.gr == pair.chart.const(12)


def test_cp2_three_lines_is_einstein():
    """The paper's generalized Kahler-Einstein structure from three lines on
    CP^2: E+- have dims (2, 2), gric is closed, gric = -6 omega and gr = 12."""
    pair = cp2_three_lines().pair()
    frame = pair.epm_frame()
    assert (len(frame.eplus), len(frame.eminus)) == (2, 2)
    rep = gric_gr(pair)
    assert rep.flags["gric_closed"]
    assert rep.gric == pair.omega.scale(-6)
    assert rep.gr == pair.chart.const(12)


def toric_cp2():
    """Toric CP^2 in action-angle coordinates (m1, t1, m2, t2), not Einstein:
    theta_k = sum_j G_kj dm_j + i dt_k with G the Hessian of Guillemin's
    potential 1/2 sum_r l_r log l_r (facets m1, m2, 1 - m1 - m2) plus
    m1^2 m2/10 + m2^3/20. Returns the pair and twice Abreu's scalar
    curvature (Int. J. Math. 9, 1998), -sum_ij d_i d_j (G^-1)_ij, as text."""
    m = sympy.symbols("m1 m2")
    potential = (sum(x * sympy.log(x) for x in (*m, 1 - m[0] - m[1])) / 2
                 + m[0] ** 2 * m[1] / 10 + m[1] ** 3 / 20)
    hess = sympy.hessian(potential, m)
    det = sympy.cancel(hess.det())
    inv = [[sympy.cancel(x / det) for x in row] for row in hess.adjugate().tolist()]
    abreu2 = -sum(sympy.diff(inv[i][j], m[i], m[j])
                  for i in range(2) for j in range(2))
    chart = Chart(2, ("m1", "t1", "m2", "t2"), (False, True, False, True))
    thetas = [chart.form({(0,): str(hess[k, 0]), (2,): str(hess[k, 1]),
                          (2 * k + 1,): "i"}) for k in range(2)]
    pair = GKPair(ComplexVolumeGCS(chart, thetas), chart.zero_form(),
                  chart.form({(0, 1): 1, (2, 3): 1}))
    return pair, str(sympy.cancel(abreu2))


def test_toric_cp2_scalar_curvature_is_twice_abreus():
    """gr == 2 S_Abreu on the non-Einstein toric CP^2 of `toric_cp2`.
    Without a memory of earlier gcds its pseudo-remainder gcds ran past
    300 s."""
    pair, abreu2 = toric_cp2()
    gr = gric_gr(pair).gr
    assert not gr.is_const()
    assert gr == pair.chart.sc(abreu2)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_gr_complex_real_part_is_gr(name):
    """Re(gr_complex), read through the spinor route's Theta, equals the gr
    that gric_gr reads off d(alpha): on Kahler scenes, on scenes with
    b != 0 and on the non-integrable one."""
    pair = CATALOG[name]().pair()
    assert gr_complex(pair).real() == gric_gr(pair).gr


def _transported_nonintegrable():
    pair = t4_nonintegrable().pair()
    return transport_b(pair, pair.chart.form({(0, 1): 1, (2, 3): "x3"}))


THETA_PAIRS = {**{name: lambda name=name: CATALOG[name]().pair() for name in CATALOG},
               "transport_b": _transported_nonintegrable,
               "nilpotent_t": lambda: _moved_flat_t2()}
# scenes whose Ricci-type form and Q both vanish
ZERO_THETA = {"flat_kahler_c1", "flat_kahler_c2", "hyperkahler_t4",
              "t4_translation_poisson", "generalized_cy_t4"}


@pytest.mark.parametrize("name", sorted(THETA_PAIRS))
def test_theta_is_d_alpha_wedge_conj_psi(name):
    """Theta ^ exp(-(b - i omega)), Theta built through the spinor route, is
    exactly the 2-form P - iQ = d(alpha) that gric_gr reads: no part of any
    other degree is left."""
    pair = THETA_PAIRS[name]()
    rep = gric_gr(pair)
    zbar = pair.b - pair.omega.scale(QQi(0, 1))
    stripped = theta_form(pair).wedge(zbar.scale(-1).exp())
    assert stripped == rep.gric.scale(-1) - rep.q.scale(QQi(0, 1))
    assert stripped.is_zero() == (name in ZERO_THETA)


def test_gr_two_term_identity():
    for n in (1, 2):
        pair = fubini_study_chart(n).pair()
        rep = gric_gr(pair)
        a, b, vol = gr_two_term_forms(pair)
        target = vol.scale(rep.gr * ipow(-n))
        diff = a - b
        lam = proportionality(target, diff) if not diff.is_zero() else None
        assert lam is not None and lam.is_const()
        # engine two-term constant: measured once, asserted thereafter
        assert lam == pair.chart.const(_expected_two_term(n))


def _expected_two_term(n):
    # frozen by the calibration fixture; see tests/test_calibration.py
    from gkcurv.calibration import load_fixture
    value = load_fixture()["two_term_constant"][str(n)]
    return parse_scalar(value, tuple(f"x{j+1}" for j in range(2 * n))).const_value()


def test_hyperkahler_both_routes_vanish():
    scene = hyperkahler_t4()
    chart = scene.chart
    B, w1, w2 = scene.j1.b, scene.j1.omega, scene.omega
    closed = type00_gric(chart, B, w1, w2)
    assert closed["gric"].is_zero()
    assert closed["gr"].is_zero()
    assert closed["rho"] == chart.one_s()
    rep = gric_gr(scene.pair())
    assert rep.gric.is_zero() and rep.gr.is_zero()
    assert rep.rho == chart.one_s()


def test_type00_perturbed_two_routes():
    """The scene is built from two holomorphic-symplectic forms sharing a
    real part: B + i(w1 - w2) and B + i(w1 + w2)."""
    scene = type00_perturbed()
    chart = scene.chart
    B, w1, w2 = scene.j1.b, scene.j1.omega, scene.omega
    dz1, dz2 = flat_volume_forms(chart)
    z1 = chart.sc("x1 + i*x2")
    wplus = dz1.wedge(dz2) + dz1.wedge(dz2.conj()).scale(z1)
    wminus = dz1.wedge(dz2) + dz1.conj().wedge(dz2).scale(z1.conj())
    assert (wplus + wplus.conj()) == (wminus + wminus.conj())  # shared real part
    assert wplus == B + (w1 - w2).scale(QQi(0, 1))
    assert wminus == B + (w1 + w2).scale(QQi(0, 1))
    assert (B + w1.scale(QQi(0, 1))).ext_d().is_zero()
    assert w2.ext_d().is_zero()
    closed = type00_gric(chart, B, w1, w2)
    assert not closed["gric"].is_zero()
    rep = gric_gr(scene.pair())
    assert rep.gric == closed["gric"]
    assert rep.gr == closed["gr"]
    assert rep.rho == closed["rho"]
    assert rep.flags["gric_closed"]


def test_integrate_torus():
    chart = chart_flat(1, periodic=True)
    val = scalar_torus_mean_certified(chart, chart.sc("2 + cos(x1)"))
    assert val.mean == QQi(2) and val.power == 2
    assert str(val) == "(8)*pi^2"
    chart4 = chart_flat(2, periodic=True)
    assert scalar_torus_mean_certified(chart4, chart4.one_s()).mean == QQi(1)
    exact = chart.form({(0,): "sin(x1)*cos(x2)"}).ext_d()
    assert scalar_torus_mean_certified(chart, exact.coefficient((0, 1))).is_zero()
    # a trig-rational integrand gets the certified series mean, 1/sqrt(15)
    val = scalar_torus_mean_certified(chart, chart.sc("1/(4 + cos(x1))"))
    assert 0 < val.error_bound < SERIES_MEAN_TOL
    assert abs(val.mean.to_complex() - 15 ** -0.5) < 1e-12
    # a series mean is not exact: its printed form carries the bound, scaled
    # by (2 pi)^2 like the value
    assert str(val) == ("(4651297694610395/4503599627370496"
                        " +- 1/824633720832)*pi^2")


def test_integrate_errors():
    chart = chart_flat(1)
    with pytest.raises(NotExactlyIntegrable, match="not fully periodic"):
        scalar_torus_mean_certified(chart, chart.one_s())
    chartp = chart_flat(1, periodic=True)
    with pytest.raises(NotExactlyIntegrable, match="non-periodic polynomial part"):
        scalar_torus_mean_certified(chartp, chartp.sc("x1"))


def test_moment_pairing_flat():
    pair = flat_kahler(2, periodic=True).pair()
    chart = pair.chart
    f = chart.sc("cos(x1)")
    gr = gric_gr(pair).gr
    val = moment_pairing(pair, f, gr)
    assert val.is_zero()
    with pytest.raises(NotMeanZero):
        moment_pairing(pair, chart.sc("1 + cos(x1)"), gr)


def _sheared_t2(s):
    """theta = dx1 + (s cos x1 + i) dx2, omega = dx1^dx2 on T^2."""
    chart = Chart.flat(1, periodic=True)
    theta = chart.form({(0,): 1, (1,): f"{s}*cos(x1) + i"})
    return GKPair(ComplexVolumeGCS(chart, [theta]), chart.zero_form(),
                  chart.form({(0, 1): 1}))


@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(1), Fraction(5, 2)],
                         ids=["1/3", "1", "5/2"])
def test_moment_pairing_nonzero(s):
    """gr = 2 s^2 cos 2x1 and <psi, conj psi> = 2i, so <mu(J), cos 2x1> =
    i^{-1} 2i 2 s^2 mean(cos^2 2x1) (2 pi)^2 = 2 s^2 (2 pi)^2."""
    pair = _sheared_t2(s)
    chart = pair.chart
    gr = gric_gr(pair).gr
    assert gr == chart.sc("cos(2*x1)") * (2 * s * s)
    val = moment_pairing(pair, chart.sc("cos(2*x1)"), gr)
    assert val.mean == QQi(2 * s * s) and val.error_bound == 0
    if s == 1:
        assert str(val) == "(8)*pi^2"


def test_moment_pairing_error_types():
    """A non-real pairing and a function without mean zero raise different
    errors."""
    pair = _sheared_t2(Fraction(1))
    chart = pair.chart
    gr = gric_gr(pair).gr
    with pytest.raises(NotRealStructure):
        moment_pairing(pair, chart.sc("cos(2*x1)"), gr * chart.i_s())
    with pytest.raises(NotMeanZero):
        moment_pairing(pair, chart.sc("1 + cos(x1)"), gr)


def test_torus_integrals_refuse_the_plane():
    """On R^2 every torus integral raises, the moment-map check included."""
    pair = flat_kahler(1).pair()
    chart = pair.chart
    c = chart.sc("cos(x1)")
    frame = pair.epm_frame()
    pieces = [(c, frame.eplus[0], frame.eminus[0])]
    lej = gen_lie_J(hamiltonian_element(pair, c), pair.j1.j_matrix())
    jd = jdot_matrix(pair, frame_bivector(pair, pieces))
    calls = [
        lambda: scalar_torus_mean_certified(chart, c),
        lambda: check_mean_zero(pair, c),
        lambda: moment_pairing(pair, c, gric_gr(pair).gr),
        lambda: moment_form(pair, lej, jd),
        lambda: moment_derivative_check(pair, c, pieces),
    ]
    for call in calls:
        with pytest.raises(NotExactlyIntegrable, match="not fully periodic"):
            call()


@pytest.mark.parametrize("n, text, rhs", [
    (1, "cos(x1)", -8), (2, "cos(x1)", -16), (1, "sin(2*x2)", 32)],
    ids=["1--8", "2--16", "1-sin2x2-32"])
def test_moment_identity_flat_torus(n, text, rhs):
    """d<mu, f> = Omega(L_e J, Jdot) along h = c e+ ^ e- + conj, f = c."""
    pair = flat_kahler(n, periodic=True).pair()
    frame = pair.epm_frame()
    c = pair.chart.sc(text)
    res = moment_derivative_check(pair, c, [(c, frame.eplus[0],
                                              frame.eminus[0])])
    assert res["lhs"] == res["rhs"] == rhs
    assert res["relative_error"] == 0.0
    assert res["lhs_bound"] == res["rhs_bound"] == 0


def test_moment_identity_two_mode_flat_t2():
    """f = c = cos(x1)/2 + sin(x2)/3 on flat T^2: both sides are -10/9."""
    pair = flat_kahler(1, periodic=True).pair()
    frame = pair.epm_frame()
    c = (ScalarExpr.cos(2, (1, 0)) * Fraction(1, 2)
         + ScalarExpr.sin(2, (0, 1)) * Fraction(1, 3))
    res = moment_derivative_check(pair, c, [(c, frame.eplus[0],
                                              frame.eminus[0])])
    assert res["lhs"] == res["rhs"] == Fraction(-10, 9)
    assert res["relative_error"] == 0.0
    assert res["lhs_bound"] == res["rhs_bound"] == 0


@pytest.mark.parametrize("text, rhs", [
    ("cos(x1)", -16), ("cos(x2)", 16), ("sin(x1+x4)", -16)])
def test_moment_identity_t4_translation_poisson(text, rhs):
    """b != 0 and gr = 0 at the base: d<mu, f> = Omega(L_e J, Jdot) exactly."""
    pair = CATALOG["t4_translation_poisson"]().pair()
    frame = pair.epm_frame()
    c = pair.chart.sc(text)
    res = moment_derivative_check(pair, c, [(c, frame.eplus[0],
                                              frame.eminus[0])])
    assert not pair.b.is_zero() and gric_gr(pair).gr.is_zero()
    assert res["lhs"] == res["rhs"] == rhs
    assert res["lhs_bound"] == res["rhs_bound"] == 0


def test_moment_identity_conformal_t2_within_certified_bounds():
    """omega = (8 + cos x1) dx1^dx2: both means are certified series means,
    and the two sides agree within the sum of their bounds."""
    scene = flat_kahler(1, periodic=True)
    chart = scene.chart
    pair = GKPair(scene.j1, chart.zero_form(),
                  chart.form({(0, 1): "8 + cos(x1)"}))
    frame = pair.epm_frame()
    c = chart.sc("sin(x1)")
    res = moment_derivative_check(pair, c, [(c, frame.eplus[0],
                                              frame.eminus[0])])
    assert 0 < res["lhs_bound"] < SERIES_MEAN_TOL
    assert 0 < res["rhs_bound"] < SERIES_MEAN_TOL
    assert abs(res["lhs"] - res["rhs"]) <= res["lhs_bound"] + res["rhs_bound"]
    assert abs(float(res["rhs"]) + 1.0118734538162) < 1e-12


def _moved_flat_t2():
    pair = flat_kahler(1, periodic=True).pair()
    frame = pair.epm_frame()
    c = pair.chart.sc("cos(x1)")
    return NilpotentPath(pair, [(c, frame.eplus[0], frame.eminus[0])]).pair_at()


def test_a_path_pair_prints_its_time_parameter():
    """The report and a frame vector of a t-chart pair name t, as
    `Form.__str__` does: names are the chart's coords + params."""
    pair = _moved_flat_t2()
    out = gric_gr(pair).to_dict()
    for text in (out["rho"], out["gr"], repr(pair.j1.annihilator()[0])):
        assert re.search(r"\bt\b", text)


def test_nilpotent_path_rejects_a_non_real_base():
    """The moved pair is not real away from t = 0, so it is no base point."""
    with pytest.raises(NotRealStructure):
        NilpotentPath(_moved_flat_t2(), [])


def test_non_real_metric_and_symplectic_data_raise_not_real():
    with pytest.raises(NotRealStructure, match="metric entry"):
        compatibility_check(_moved_flat_t2(), [Point([0, 0, Fraction(1, 100)])])
    chart = chart_flat(1)
    with pytest.raises(NotRealStructure, match="symplectic data"):
        SymplecticGCS(chart, chart.zero_form(), flat_omega_form(chart).scale(QQi(0, 1)))


T_CHART = dataclasses.replace(chart_flat(1, periodic=True), params=("t",))


@pytest.mark.parametrize("text", ["(x1 + cos(x2))/(3 + sin(x1))",
                                  "(x1^2 - 1)/(x1*cos(x2) - cos(x2))",
                                  "sin(x1)^2/(1 - cos(x1)) + x2/2"])
def test_pad_is_canonical_and_t0_undoes_it(text):
    """Padding a canonical scalar equals normalizing it on the t-chart."""
    s = chart_flat(1, periodic=True).sc(text)
    padded = _pad(T_CHART, s)
    want = T_CHART.sc(text)
    assert padded.num.terms == want.num.terms
    assert padded.den.terms == want.den.terms
    back = _at_zero(padded)
    assert (back.num.terms, back.den.terms) == (s.num.terms, s.den.terms)


@pytest.mark.parametrize("text", [
    "(t*cos(x1) + x2)/(2 + t*sin(x2) + t^2*x1)",
    "(1 + t*x1*sin(x1 + x2))/(3 + cos(x1) + t*cos(x2))",
    "t^2*sin(2*x2)/(x1^2 + 1 + t*x2)", "x1*t^3 + cos(x2)/(1 + t)"])
def test_t_derivative_at_zero_matches_sympy(text):
    """d/dt at t = 0, with exp(i x_j) written as z_j for sympy."""
    xs = sympy.symbols("x1 x2 t")
    zs = sympy.symbols("z1 z2 zt")
    s = T_CHART.sc(text)
    got = _at_zero(s.partial(2))
    want = sympy.diff(_sym_trig(s.num, xs, zs) / _sym_trig(s.den, xs, zs),
                      xs[2]).subs(xs[2], 0)
    got_sym = (_sym_trig(got.num, xs[:2], zs[:2])
               / _sym_trig(got.den, xs[:2], zs[:2]))
    assert sympy.cancel(got_sym - want) == 0


def test_t0_pole_raises():
    with pytest.raises(EvaluationPole):
        _at_zero(T_CHART.sc("cos(x1)/(t*x1 + t^2*sin(x2))"))


def test_every_trigpoly_key_is_a_flat_exponent_tuple():
    """A TrigPoly term is keyed by mono + freq, 2 * nvars ints, however the
    scalar was built: in the scalar core, on the t-chart, by an affine
    pullback, and through the curvature pipeline."""
    names = ("x1", "x2")
    s = parse_scalar("(x1 + sin(x2))/(2 + cos(x1 - x2))", names)
    built = [s, s.conj(), s.partial(0), s.partial(1), ScalarExpr.sin(2, (1, -1)),
             ScalarExpr.cos(2, (0, 2)), ScalarExpr.coord(2, 1),
             parse_scalar("1/((2+cos(x1))*(1+x2))", names)
             + parse_scalar("x1/((2+cos(x1))*(3+sin(x2)))", names)]
    padded = _pad(T_CHART, s)
    built += [padded, _at_zero(padded),
              _at_zero(T_CHART.sc("(t + x1*cos(x1))/(3 + t*sin(x2))").partial(2))]
    form = T_CHART.form({(0,): "sin(x1 + x2)/(2 + cos(x2))", (0, 1): "x1*cos(x2)"})
    moved = form.pullback_affine([[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                 [0, (0, Fraction(1, 2)), 0])
    built += list(moved.terms.values())
    for name in ("t4_nonintegrable", "fubini_study_cp1"):
        pair = CATALOG[name]().pair()
        rep = gric_gr(pair)
        built += [rep.rho, rep.gr, *rep.gric.terms.values(), *rep.q.terms.values(),
                  *rep.eta.column(), *eta_N_extract(pair.j1).n3.coef.values()]
    keys = [(k, x.nvars) for x in built for p in (x.num, x.den) for k in p.terms]
    for k, m in keys:
        assert type(k) is tuple and len(k) == 2 * m and all(type(e) is int for e in k)
    assert any(any(k[:m]) for k, m in keys) and any(any(k[m:]) for k, m in keys)


def _reference_series_mean(c):
    """The unpruned loop over QQi: acc += mean(num (-E)^k) until the tail
    bound drops below the tolerance."""
    terms, m = c.den.terms, c.nvars
    dom_key = max(terms, key=lambda k: (abs(terms[k].re) + abs(terms[k].im), k[m:]))
    inv = terms[dom_key].inverse()
    zero = (0,) * m

    def recentre(p):
        return {tuple(f - g for f, g in zip(k[m:], dom_key[m:])): v * inv
                for k, v in p.terms.items()}

    def norm(p):
        return sum((abs(v.re) + abs(v.im) for v in p.values()), Fraction(0))

    num, e = recentre(c.num), recentre(c.den)
    e[zero] = e[zero] - 1
    e = {k: v for k, v in e.items() if not v.is_zero()}
    e_norm, num_norm = norm(e), norm(num)
    acc, power = QQi(0), num
    for k in range(SERIES_MEAN_MAX_ORDER + 1):
        acc = acc + power.get(zero, QQi(0))
        tail = num_norm * e_norm ** (k + 1) / (1 - e_norm)
        if tail < SERIES_MEAN_TOL:
            return acc, tail
        nxt = {}
        for f1, c1 in power.items():
            for f2, c2 in e.items():
                key = tuple(a + b for a, b in zip(f1, f2))
                nxt[key] = nxt.get(key, QQi(0)) - c1 * c2
        power = {k: v for k, v in nxt.items() if not v.is_zero()}
    raise AssertionError("reference series did not reach tolerance")


@pytest.mark.parametrize("text", [
    # E = e^{i x1} / 5
    "(1/2 + cos(2*x1) + sin(x1) + cos(x2))/(5 + cos(x1) + i*sin(x1))",
    # E = cos(x1) / 4
    "(1/3 + cos(x1)^2 + sin(2*x1))/(4 + cos(x1))",
    # E has mixed-sign frequencies in two variables
    "(cos(x1)*cos(x2) + sin(x1 - x2) + 2*i*cos(x1 + 2*x2))"
    "/(6 + cos(x1 - x2) + sin(x1 + 2*x2)/2)",
], ids=["one_sided", "two_sided", "two_variables"])
def test_series_mean_matches_unpruned_loop(text):
    c = parse_scalar(text, ("x1", "x2"))
    val = scalar_torus_mean_certified(Chart.flat(1, periodic=True), c)
    assert (val.mean, val.error_bound) == _reference_series_mean(c)
    assert val.error_bound < SERIES_MEAN_TOL and not val.mean.is_zero()


def test_series_mean_errors():
    chart = Chart.flat(1, periodic=True)
    with pytest.raises(NotExactlyIntegrable, match="oscillation too large"):
        scalar_torus_mean_certified(chart, chart.sc("1/(2 + cos(x1) + cos(x2))"))
    with pytest.raises(NotExactlyIntegrable, match="did not reach tolerance"):
        scalar_torus_mean_certified(chart, chart.sc("1/(100 + 99*cos(x1))"))
