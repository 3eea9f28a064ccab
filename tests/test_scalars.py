import random
from fractions import Fraction

import pytest

from gkcurv.errors import DivisionByZero, EvaluationPole
from gkcurv.scalars import Point, QQi, ScalarExpr, parse_scalar

NAMES = ("x1", "x2", "x3", "x4")


def S(text, names=NAMES):
    return parse_scalar(text, names)


def test_pythagorean_identity():
    assert S("sin(x1)^2 + cos(x1)^2") == S("1")


def test_factor_cancellation():
    assert S("(x1^2 - 1)/(x1 - 1)") == S("x1 + 1")


def test_complex_arithmetic():
    assert S("(1+i)*(1-i)") == S("2")


def test_partial_trig():
    assert S("sin(x1)").partial(0) == S("cos(x1)")
    assert S("x2").partial(0).is_zero()


def test_partial_quotient_rule():
    f = S("1/(1+x1^2)")
    assert f.partial(0) == S("-2*x1/(1+x1^2)^2")


def test_eval_exact():
    f = S("x1^2")
    assert f.eval(Point([3, 0, 0, 0])) == QQi(9)
    g = S("1/(1+x1^2)")
    assert g.eval(Point([1, 0, 0, 0])) == QQi(Fraction(1, 2))


def test_eval_pole():
    f = S("1/(x1-1)")
    with pytest.raises(EvaluationPole):
        f.eval(Point([1, 0, 0, 0]))


def test_eval_trig_quarter_lattice():
    f = S("cos(x1) + sin(x2)")
    p = Point([(0, 1), (0, Fraction(1, 2)), 0, 0])  # x1 = pi, x2 = pi/2
    assert f.eval(p) == QQi(0)  # cos(pi) + sin(pi/2) = -1 + 1


def test_eval_float_fallback():
    f = S("cos(x1)")
    v = f.eval(Point([1, 0, 0, 0]))
    assert isinstance(v, complex)
    assert abs(v - 0.5403023058681398) < 1e-12


def test_division_by_zero_detected():
    with pytest.raises(DivisionByZero):
        S("1/(sin(x1)^2 + cos(x1)^2 - 1)")


def test_is_real_conj():
    assert S("i*x1").is_real() is False
    assert S("x1 + cos(x2)").is_real() is True
    assert S("x1 + i*x2").conj() == S("x1 - i*x2")
    assert S("sin(x1)").conj() == S("sin(x1)")


def test_product_to_sum_canonical():
    lhs = S("sin(x1)*cos(x2)")
    rhs = S("(sin(x1+x2) + sin(x1-x2))/2")
    assert lhs == rhs


def _random_expr(rng, depth=0):
    if depth > 2 or rng.random() < 0.35:
        leaf = rng.choice(["x1", "x2", "x3", "sin(x1)", "cos(x2)", "cos(x1-2*x3)",
                           str(rng.randint(-3, 3)), "i"])
        return leaf
    a = _random_expr(rng, depth + 1)
    b = _random_expr(rng, depth + 1)
    op = rng.choice(["+", "-", "*"])
    return f"({a}){op}({b})"


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        f = S(_random_expr(rng))
        g = S(_random_expr(rng))
        assert (f * g - g * f).is_zero()
        assert ((f + g) - g - f).is_zero()


def test_leibniz_random():
    rng = random.Random(11)
    for _ in range(40):
        f = S(_random_expr(rng))
        g = S(_random_expr(rng))
        k = rng.randrange(4)
        lhs = (f * g).partial(k)
        rhs = f.partial(k) * g + f * g.partial(k)
        assert lhs == rhs


def test_eval_matches_tree_eval():
    rng = random.Random(13)
    for _ in range(100):
        text = _random_expr(rng)
        f = S(text)
        pt = Point([rng.randint(-2, 2) for _ in range(4)])
        direct = _tree_eval(text, pt)
        got = f.eval(pt)
        if isinstance(got, QQi):
            got = got.to_complex()
        assert abs(got - direct) < 1e-9


def _tree_eval(text, pt):
    import cmath
    xs = pt.floats()
    env = {"x1": xs[0], "x2": xs[1], "x3": xs[2], "x4": xs[3],
           "i": 1j, "sin": cmath.sin, "cos": cmath.cos}
    return complex(eval(text.replace("^", "**"), {"__builtins__": {}}, env))


def test_fraction_canonical_unique():
    a = S("(x1+x2)/(x1*x2 + x2^2)")  # = 1/x2
    assert a == S("1/x2")
    b = S("(sin(x1)*cos(x1))/(cos(x1))")
    assert b == S("sin(x1)")


def test_printer_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        f = S(_random_expr(rng))
        again = parse_scalar(f.to_string(NAMES), NAMES)
        assert again == f


def test_pow_negative():
    f = S("(1+x1^2)^-1")
    assert f == S("1/(1+x1^2)")


def test_real_imag_parts():
    f = S("x1 + i*x2")
    assert f.real() == S("x1")
    assert f.imag() == S("x2")

