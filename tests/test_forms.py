import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkcurv.curvature import NilpotentPath, _u, rho
from gkcurv.errors import ChartMismatch, FieldClosureError, SingularMap
from gkcurv.examples import CATALOG, flat_kahler, fubini_study_omega
from gkcurv.forms import Chart
from gkcurv.genalg import interior
from gkcurv.linalg import rational_inverse
from gkcurv.scalars import QQi, ScalarExpr
from gkcurv.spinor import eta_N_extract

from conftest import ext_d_by_terms, random_form, wedge_by_terms


def test_wedge_antisymmetry(chart2):
    dx1, dx2 = chart2.dx(0), chart2.dx(1)
    assert dx1.wedge(dx2) == chart2.form({(0, 1): 1})
    assert dx2.wedge(dx1) == chart2.form({(0, 1): -1})


def test_wedge_unit(chart4):
    rng = random.Random(3)
    a = random_form(rng, chart4)
    assert a.wedge(chart4.func(1)) == a


def test_exp_of_i_omega_squared_dim2(chart2):
    # exp(i w) ^ exp(i w) = 1 + 2i dx1^dx2 when w = dx1^dx2, n = 1
    w = chart2.form({(0, 1): 1})
    psi = w.scale(QQi(0, 1)).exp()
    sq = psi.wedge(psi)
    assert sq == chart2.form({(): 1, (0, 1): QQi(0, 2)})


def test_exp_of_a_sum_is_the_wedge_of_the_exps(chart4):
    """exp(b1 + b2) = exp(b1) ^ exp(b2): even forms commute, so this is the
    composition law of b-field transforms on spinors."""
    b1 = chart4.form({(0, 1): 1, (0, 2): -2})
    b2 = chart4.form({(1, 3): 3, (2, 3): "x1"})
    assert (b1 + b2).exp() == b1.exp().wedge(b2.exp())
    assert not b1.exp().wedge(b2.exp()).degree_part(4).is_zero()


def test_ext_d_basic(chart2):
    a = chart2.form({(1,): "x1"})  # x1 dx2
    assert a.ext_d() == chart2.form({(0, 1): 1})
    closed = chart2.form({(0, 1): 1}).scale(QQi(0, 1)).exp()
    assert closed.ext_d().is_zero()


def test_d_squared_zero_random(chart4):
    rng = random.Random(5)
    for _ in range(200):
        a = random_form(rng, chart4)
        assert a.ext_d().ext_d().is_zero()


def test_d_graded_leibniz(chart4):
    rng = random.Random(7)
    for _ in range(60):
        k = rng.randrange(3)
        a = random_form(rng, chart4, degrees=[k])
        b = random_form(rng, chart4)
        lhs = a.wedge(b).ext_d()
        rhs = a.ext_d().wedge(b) + (a.wedge(b.ext_d()) if k % 2 == 0
                                    else -(a.wedge(b.ext_d())))
        assert lhs == rhs


def _oracle_pools():
    """(chart, coefficients) to draw forms from: on the flat chart, scalars
    over 1 with polynomial and trig numerators next to Fubini-Study's
    coefficients over s^2 and multiples of them; on a t-chart, as
    torus_moment builds them, coefficients over f1, over f1*f2 and over
    (1 + t)*f1, whose factor 1 + t moves in the path parameter alone."""
    flat = Chart.flat(2)
    over_one = ["x1*x2", "cos(x1) + x3", "i*x4^2 - 1", "sin(x1 - x2)", "2"]
    omega = list(fubini_study_omega(flat).terms.values())
    fs = [c * flat.sc(n) for c in omega[:3] for n in ("x1", "cos(x2) + 1")]
    tchart = Chart.flat(2, periodic=True).with_params(("t",))
    f1, f2 = "(2 + t*cos(x1))", "(3 + sin(x2) + t*cos(x3))"
    tdens = [f1, f"({f1}*{f2})", f"((1 + t)*{f1})"]
    tnums = ["x1", "cos(x2) + t", "sin(x1 + x4)", "i*t*x3"]
    return [(flat, [flat.sc(t) for t in over_one] + omega + fs),
            (tchart, [tchart.sc(t) for t in over_one]
             + [tchart.sc(f"{n}/{d}") for n in tnums for d in tdens])]


ORACLE_POOLS = _oracle_pools()


@st.composite
def _oracle_forms(draw, pool):
    chart, coeffs = pool
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        idx = draw(st.permutations(range(chart.dim)))[:draw(st.integers(0, 3))]
        terms[tuple(sorted(idx))] = draw(st.sampled_from(coeffs))
    return chart.form(terms)


def _same(got, want):
    assert list(got.terms) == list(want.terms)
    assert [(c.num, c.den) for c in got.terms.values()] == [
        (c.num, c.den) for c in want.terms.values()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ORACLE_POOLS).flatmap(
    lambda pool: st.tuples(_oracle_forms(pool), _oracle_forms(pool))))
def test_wedge_and_d_match_the_term_by_term_oracles(forms):
    """Shared keys over one denominator give the canonical num and den, in
    the key order, of adding scalar terms one by one."""
    a, b = forms
    _same(a.ext_d(), ext_d_by_terms(a))
    _same(a.wedge(b), wedge_by_terms(a, b))
    _same(b.wedge(a), wedge_by_terms(b, a))


def _path_alpha():
    """alpha = xi + i_X (b - i omega) of a nilpotent path on flat T^4, the
    1-form with P - iQ = d alpha, on its t-chart."""
    pair = flat_kahler(2, periodic=True).pair()
    frame = pair.epm_frame()
    pieces = [(ScalarExpr.cos(4, (1, 0, 0, 0)), frame.eplus[0], frame.eminus[0])]
    path = NilpotentPath(pair, pieces).pair_at()
    u = _u(path, eta_N_extract(path.j1), rho(path))
    zbar = path.b - path.omega.scale(QQi(0, 1))
    return path, u.covector_form() + interior(path.chart, u.v, zbar)


def _identity_cases():
    """(a, b) pairs with da != 0 and a ^ b != 0 of degree below the top."""
    scene = CATALOG["cp2_three_lines"]()
    chart, omega = scene.chart, scene.omega
    x = [chart.coord_s(k) for k in range(chart.dim)]
    s = sum((c * c for c in x), chart.one_s())
    mu = [-(x[0] * x[0] + x[1] * x[1]) / s, -(x[2] * x[2] + x[3] * x[3]) / s]
    dmu = [chart.func(m).ext_d() for m in mu]
    path, alpha = _path_alpha()
    t = path.chart
    return {
        "fubini_study_omega": (omega.scale(x[0]), dmu[0].scale(x[2])),
        "three_lines_b": (scene.b.scale(x[1]), chart.func(mu[0])),
        "three_lines_dmu": (dmu[1].scale(mu[0]), omega.scale(x[3])),
        "t_chart_alpha": (alpha.scale(t.sc("cos(x3) + x4")),
                          path.omega.scale(t.sc("sin(x2)"))),
    }


IDENTITY_CASES = _identity_cases()


@pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
def test_d_squared_vanishes_on_scene_forms(name):
    a, _ = IDENTITY_CASES[name]
    da = a.ext_d()
    assert not da.is_zero()
    assert da.ext_d().is_zero()


@pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
def test_d_is_a_graded_derivation_on_scene_forms(name):
    """d(a ^ b) = da ^ b + (-1)^p a ^ db for a homogeneous of degree p."""
    a, b = IDENTITY_CASES[name]
    p = len(next(iter(a.terms)))
    ab = a.wedge(b)
    assert not ab.is_zero() and not a.ext_d().is_zero()
    sign = 1 if p % 2 == 0 else -1
    assert ab.ext_d() == a.ext_d().wedge(b) + a.wedge(b.ext_d()).scale(sign)


def test_sigma_signs(chart4):
    vol2 = chart4.form({(0, 1): 1})
    assert vol2.sigma() == -vol2
    mixed = chart4.form({(): 1, (0,): 1})
    assert mixed.sigma() == mixed
    vol4 = chart4.volume()
    assert vol4.sigma() == vol4
    rng = random.Random(9)
    for _ in range(40):
        a = random_form(rng, chart4)
        assert a.sigma().sigma() == a


def test_sigma_d_identity(chart4):
    rng = random.Random(11)
    for _ in range(80):
        k = rng.randrange(4)
        a = random_form(rng, chart4, degrees=[k])
        lhs = a.sigma().ext_d()
        rhs = a.ext_d().sigma()
        assert lhs == (rhs if k % 2 == 0 else -rhs)


def test_mukai_basic(chart2):
    dx1, dx2 = chart2.dx(0), chart2.dx(1)
    assert dx1.mukai(dx2) == chart2.form({(0, 1): 1})
    one = chart2.func(1)
    vol = chart2.volume()
    assert one.mukai(vol) == -vol
    w = chart2.form({(0, 1): 1})
    psi = w.scale(QQi(0, 1)).exp()
    psibar = psi.conj()
    assert psi.mukai(psibar) == vol.scale(QQi(0, 2))
    assert psi.mukai_scalar(psibar) == chart2.const(QQi(0, 2))


def test_mukai_volume_form_general_n(chart4):
    # <psi, conj psi> = (2i)^n w^n / n! for psi = exp(i w)
    w = chart4.form({(0, 1): 1, (2, 3): 1})
    psi = w.scale(QQi(0, 1)).exp()
    top = psi.mukai(psi.conj())
    expect = w.wedge(w).scale(QQi(Fraction(-4, 2)))  # (2i)^2/2! = -2
    assert top == expect


def test_mukai_bilinear(chart4):
    rng = random.Random(13)
    for _ in range(30):
        a = random_form(rng, chart4)
        b = random_form(rng, chart4)
        c = random_form(rng, chart4)
        assert (a + b).mukai(c) == a.mukai(c) + b.mukai(c)
        assert a.mukai(b + c) == a.mukai(b) + a.mukai(c)


def test_degree_part(chart2):
    w = chart2.form({(0, 1): 1})
    psi = w.scale(QQi(0, 1)).exp()
    assert psi.degree_part(2) == w.scale(QQi(0, 1))
    assert psi.degree_part(0) == chart2.func(1)
    assert chart2.dx(0).degree_part(2).is_zero()


def test_pullback_affine_translation_constant(chart4):
    a = chart4.form({(0, 1): 3, (): 5})
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert a.pullback_affine(eye, [1, 2, 3, 4]) == a


def test_pullback_scaling(chart2):
    A = [[2, 0], [0, 1]]
    dx1 = chart2.dx(0)
    assert dx1.pullback_affine(A) == dx1.scale(2)


def test_pullback_commutes_with_d(chart4):
    rng = random.Random(17)
    for _ in range(25):
        a = random_form(rng, chart4, trig=False)
        A = _random_invertible(rng, 4)
        t = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        lhs = a.ext_d().pullback_affine(A, t)
        rhs = a.pullback_affine(A, t).ext_d()
        assert lhs == rhs


def test_pullback_trig_lattice(chart4):
    rng = random.Random(19)
    for _ in range(25):
        a = random_form(rng, chart4, trig=True, mono=False)
        A = _random_unimodular(rng, 4)
        t = [(0, Fraction(rng.randint(0, 3), 2)) for _ in range(4)]
        lhs = a.ext_d().pullback_affine(A, t)
        rhs = a.pullback_affine(A, t).ext_d()
        assert lhs == rhs


def test_pullback_errors(chart2):
    with pytest.raises(SingularMap):
        chart2.dx(0).pullback_affine([[1, 1], [1, 1]])
    trig = chart2.form({(0,): "cos(x2)"})
    with pytest.raises(FieldClosureError):
        trig.pullback_affine([[1, 0], [0, Fraction(1, 2)]])


def test_chart_mismatch(chart2, chart4):
    with pytest.raises(ChartMismatch):
        chart2.dx(0).wedge(chart4.dx(0))


def test_chart_is_a_value():
    """Charts built apart from the same data compare and hash equal; a
    field that differs makes them differ, and forms on equal charts mix."""
    a = Chart(1, ("x1", "x2"), (True, False))
    b = Chart(1, ("x1", "x2"), (True, False), ())
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a.dx(0) + b.dx(1) == a.form({(0,): 1, (1,): 1})
    for other in (Chart(1, ("x1", "y"), (True, False)),
                  Chart(1, ("x1", "x2"), (True, True)),
                  Chart(1, ("x1", "x2"), (True, False), ("t",)),
                  Chart.flat(2)):
        assert a != other
    assert a != ("x1", "x2")


def test_chart_with_params_returns_a_new_chart():
    chart = Chart.flat(1, periodic=True)
    moved = chart.with_params(("t",))
    assert moved.params == ("t",) and moved.nvars == 3
    assert (moved.n, moved.coords, moved.periodic) == (chart.n, chart.coords, chart.periodic)
    assert chart.params == () and chart.nvars == 2
    assert moved != chart and moved.with_params(()) == chart


@pytest.mark.parametrize("coords, periodic", [(("x1",), (False, False)),
                                              (("x1", "x2"), (False,)),
                                              (("x1", "x2", "x3"), (False,) * 3)])
def test_chart_rejects_bad_lengths(coords, periodic):
    with pytest.raises(ValueError, match="2n coordinate names"):
        Chart(1, coords, periodic)


def _random_invertible(rng, n):
    while True:
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            rational_inverse(A)
        except SingularMap:
            continue
        return A


def _random_unimodular(rng, n):
    A = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-1, 1)
        for k in range(n):
            A[i][k] += c * A[j][k]
    return A
