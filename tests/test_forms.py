import random
from fractions import Fraction

import pytest

from gkcurv.errors import ChartMismatch, FieldClosureError, SingularMap
from gkcurv.linalg import rational_inverse
from gkcurv.scalars import QQi

from conftest import random_form


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
