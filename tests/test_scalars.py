import cmath
import collections
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gkcurv import scalars
from gkcurv.curvature import gric_gr
from gkcurv.errors import DivisionByZero, EvaluationPole, FieldClosureError
from gkcurv.examples import CATALOG
from gkcurv.forms import Chart, keyed_sum
from gkcurv.genalg import GenVec, wedge_sum
from gkcurv.parsing import parse_scalar
from gkcurv.scalars import (Point, QQi, ScalarExpr, TrigPoly, _cross_reduce,
                            _p_div_exact, _p_mul, poly_gcd)

from conftest import pairing_inverse_duals

NAMES = ("x1", "x2", "x3", "x4")
# (proved coprime, all) calls of the mod-p proof in gric_gr of fubini_study_cp2;
# (175, 220) when conj reduced its conjugated pair by a gcd again, (151, 196)
# when denominators were reduced by gcds of expanded products, (40, 60) before
# _divide_out tried the exact division of a numerator by a factor first,
# (40, 45) when rho took <psi, conj psi> as a Mukai product, (34, 39) when
# gr took the powers omega^(n-1) and omega^n by repeated wedges, (32, 37)
# when gric_gr stripped exp(-(b - i omega)) off the whole polyform Theta,
# (20, 25) when Form.wedge and Form.ext_d added scalar terms one by one
FS_CP2_PROOF_TRUE_CALLS = (12, 17)
# _p_div_exact calls while fubini_study_cp2 is built and its gric_gr runs: the
# gcd's own exact-division attempts and _divide_out's trial divisions; 197
# when _cross_reduce divided both operands by the gcd again, 83 with expanded
# denominators, 28 before _divide_out tried an exact division ahead of a gcd,
# 94 when rho took <psi, conj psi> as a Mukai product, 87 when gr took the
# powers of omega by repeated wedges, 81 when gric_gr stripped
# exp(-(b - i omega)) off the whole polyform Theta, 49 when Form.wedge and
# Form.ext_d added scalar terms one by one
FS_CP2_DIV_EXACT_CALLS = 32
# _p_mul calls over the same run; 295 when a product with a constant was a
# general product and is_real cross-multiplied over a real denominator, 219
# with expanded denominators (a factored one is multiplied out again where
# it loses a factor, from smaller products), 245 when rho took
# <psi, conj psi> as a Mukai product, 244 when gr took the powers of omega
# by repeated wedges, 227 when gric_gr stripped exp(-(b - i omega)) off the
# whole polyform Theta, 142 when Form.wedge and Form.ext_d added scalar
# terms one by one
FS_CP2_P_MUL_CALLS = 98
# _gcd_cofactors calls over the same run; 264 with expanded denominators, 124
# when _divide_out took a gcd for every division, 109 when rho took
# <psi, conj psi> as a Mukai product, 103 when gr took the powers of omega
# by repeated wedges, 101 when gric_gr stripped exp(-(b - i omega)) off the
# whole polyform Theta, 81 when Form.wedge and Form.ext_d added scalar terms
# one by one
FS_CP2_GCD_CALLS = 28


def S(text, names=NAMES):
    return parse_scalar(text, names)


def test_pythagorean_identity():
    assert S("sin(x1)^2 + cos(x1)^2") == S("1")


def test_factor_cancellation():
    assert S("(x1^2 - 1)/(x1 - 1)") == S("x1 + 1")
    assert S("1/(x1*(x1+1)) + 1/(x1*(x1-1))") == S("2/(x1^2-1)")


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


def test_eval_outside_the_field_raises():
    """cos(1) and pi are not Gaussian rationals: eval raises, never rounds."""
    with pytest.raises(FieldClosureError):
        S("cos(x1)").eval(Point([1, 0, 0, 0]))
    with pytest.raises(FieldClosureError):
        S("x1").eval(Point([(0, 1), 0, 0, 0]))


def _fraction_eval(p, point):
    """The Fraction loop of `_eval_trigpoly` before its int kernel, kept as
    its reference."""
    m = p.nvars
    total = QQi(0)
    for k, c in p.terms.items():
        mono, freq = k[:m], k[m:]
        ka = sum((point.a[j] * f for j, f in enumerate(freq)), Fraction(0))
        kb = sum((point.b[j] * f for j, f in enumerate(freq)), Fraction(0))
        if (ka != 0 or (2 * kb).denominator != 1
                or any(e and point.b[j] for j, e in enumerate(mono))):
            raise FieldClosureError("point does not admit exact evaluation")
        v = QQi(1)
        for j, e in enumerate(mono):
            if e:
                v = v * QQi(point.a[j] ** e)
        total = total + c * v * scalars.ipow(int(2 * kb))
    return total


HALF, TWO_THIRDS, FIVE_SEVENTHS = Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)
# x2 and x4 carry pi parts: exp(i k x) at x = q*pi/2 is i^(k*q), and the
# frequencies +-1..+-4 below reach every power i^0..i^3
EVAL_POINTS = [
    Point([HALF, (0, HALF), -TWO_THIRDS, (0, 1)]),
    Point([FIVE_SEVENTHS, (0, Fraction(3, 2)), HALF, (0, -HALF)]),
    Point([-TWO_THIRDS, (0, 1), FIVE_SEVENTHS, (0, 2)]),
    Point([0, 0, 0, 0]),
    Point([HALF, (0, Fraction(-3, 2)), 0, 0]),
]
EVAL_TEXTS = [
    "x1^3*cos(2*x2) + (1+2*i)/3*x3^2*sin(x4) - x1*x3 + 7/5",
    "sin(x2) - cos(2*x2) + i*sin(3*x2)/4 + cos(4*x2)/9 + sin(x2 + x4)",
    "(x1^4 - 2*x1*x3^2 + i*x3^5/7)*cos(3*x4) + 1/(1 + x1^2 + x3^2)",
    "x1*sin(x4)^2/(5 + x3^2) - (2 - i)/11*x3",
]


def test_eval_at_rational_points_matches_the_fraction_loop():
    """Rational coordinates 1/2, -2/3, 5/7 and 0, pi parts that give each of
    i^0..i^3, the zero polynomial, and exp(i(x1 - x3)) with x1 = x3, whose
    rational parts cancel."""
    cases = [(S(t).num, pt) for t in EVAL_TEXTS for pt in EVAL_POINTS]
    cases += [(S(t).den, pt) for t in EVAL_TEXTS for pt in EVAL_POINTS]
    cases += [(TrigPoly.zero(4), EVAL_POINTS[0]),
              (S("cos(x1 - x3) + x1^2*sin(x3 - x1)").num,
               Point([HALF, 0, HALF, 0]))]
    values = set()
    for p, pt in cases:
        got, want = scalars._eval_trigpoly(p, pt), _fraction_eval(p, pt)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
        values.add((got.a, got.b, got.d))
    assert len(values) > 20 and any(d > 1 for *_, d in values)
    # the three ways out of the field: a rational part under a nonzero
    # frequency, 2 k.b not an integer, a monomial in a coordinate with pi
    for text, pt in (("x2 + cos(x1)", Point([HALF, 0, 0, 0])),
                     ("x1 + sin(x2)", Point([0, (0, Fraction(1, 3)), 0, 0])),
                     ("cos(2*x2) + x2^2", Point([0, (0, HALF), 0, 0]))):
        for fn in (scalars._eval_trigpoly, _fraction_eval):
            with pytest.raises(FieldClosureError):
                fn(S(text).num, pt)


def test_division_by_zero_detected():
    with pytest.raises(DivisionByZero):
        S("1/(sin(x1)^2 + cos(x1)^2 - 1)")


def test_is_real_conj():
    assert S("i*x1").is_real() is False
    assert S("x1 + cos(x2)").is_real() is True
    assert S("x1 + i*x2").conj() == S("x1 - i*x2")
    assert S("sin(x1)").conj() == S("sin(x1)")


def test_is_real_matches_conj_equality():
    """The cross-multiplied test agrees with conj() == self, also where the
    conjugated denominator is not in canonical form."""
    rng = random.Random(5)
    pool = [S(t) for t in ("1/(3 + cos(x1) + i*sin(x1))", "x2/(2 + sin(x1))",
                           "(x1 + i)/(1 + x2^2)", "cos(x2)/(5 + cos(2*x1) + i*sin(x1))",
                           "i*x1 + sin(x2)", "x1^2 - 3")]
    uncanonical_real = 0
    for _ in range(30):
        g, h = rng.sample(pool, 2)
        for x in (g, g + h, g + g.conj(), g * g.conj(), (g - g.conj()) * QQi(0, 1),
                  g + h.conj(), (g + h) * (g + h).conj() + h):
            assert x.is_real() == (x.conj() == x)
            if x.is_real() and x.den.conj() != x.den:
                uncanonical_real += 1
    assert uncanonical_real >= 10


def test_is_real_over_a_real_denominator_up_to_an_exp_shift_takes_no_product(monkeypatch):
    """2 + cos(x1) is stored as 1 + 4 e^{i x1} + e^{2 i x1}, whose conjugate is
    e^{-2 i x1} times itself: is_real compares conj(num) with the shifted num."""
    pool = [S(t) for t in ("x2/(2 + cos(x1))", "i*x2/(2 + cos(x1))", "sin(x1)/(3 + cos(2*x1))",
                           "(x1 + i)/(5 + cos(x1 - x2))", "x2/(3 + cos(x1) + i*sin(x1))")]
    assert pool[0].den.conj() != pool[0].den
    products = []
    multiply = scalars._p_mul
    monkeypatch.setattr(scalars, "_p_mul", lambda a, b: products.append(1) or multiply(a, b))
    assert [f.is_real() for f in pool[:4]] == [True, False, True, False]
    assert products == []
    assert pool[4].is_real() is False and products
    monkeypatch.undo()
    assert all(f.is_real() == (f.conj() == f) for f in pool)


def test_product_to_sum_canonical():
    lhs = S("sin(x1)*cos(x2)")
    rhs = S("(sin(x1+x2) + sin(x1-x2))/2")
    assert lhs == rhs


def _random_expr(rng, depth=0):
    """Random expression text; a divisor is a leaf that vanishes at no
    integer point (cos of an integer is never 0)."""
    if depth > 2 or rng.random() < 0.35:
        leaf = rng.choice(["x1", "x2", "x3", "sin(x1)", "cos(x2)", "cos(x1-2*x3)",
                           str(rng.randint(-3, 3)), "i"])
        return leaf
    a = _random_expr(rng, depth + 1)
    op = rng.choice(["+", "-", "*", "/"])
    if op == "/":
        return f"({a})/({rng.choice(['cos(x2)', 'cos(x1-2*x3)', 'i', '-3', '2'])})"
    b = _random_expr(rng, depth + 1)
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
    """The canonical num/den, summed term by term in floats at an integer
    point, agrees with the expression tree evaluated in floats."""
    rng = random.Random(13)
    with_den = 0
    for _ in range(100):
        text = _random_expr(rng)
        f = S(text)
        with_den += not f.den.is_const()
        xs = [rng.randint(-2, 2) for _ in range(4)]
        got = _float_sum(f.num, xs) / _float_sum(f.den, xs)
        assert abs(got - _tree_eval(text, xs)) < 1e-9
    assert with_den >= 5


def _float_sum(p, xs):
    m = p.nvars
    return sum(c.to_complex() * math.prod(x ** e for x, e in zip(xs, k[:m]))
               * cmath.exp(1j * sum(f * x for f, x in zip(k[m:], xs)))
               for k, c in p.terms.items())


def _tree_eval(text, xs):
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


@pytest.mark.parametrize("terms, text", [
    ({(0, 0, -1, 0): QQi(1)}, "-i*sin(x1) + cos(x1)"),
    ({(0, 1, 1, 0): QQi(1)}, "i*x2*sin(x1) + x2*cos(x1)"),
    ({(0, 0, 0, 0): QQi(3), (0, 0, 0, -2): QQi(1)},
     "-i*sin(2*x2) + cos(2*x2) + 3"),
    ({(0, 0, 1, 0): QQi(2), (0, 0, -1, 0): QQi(1)}, "i*sin(x1) + 3*cos(x1)"),
    ({(0, 0, 1, -1): QQi(0, 1), (0, 0, -1, 1): QQi(3, -2)},
     "(-3-3*i)*sin(x1-x2) + (3-i)*cos(x1-x2)"),
    ({(1, 0, -1, 2): QQi(-1, 2), (1, 0, 0, 0): QQi(1, 3)},
     "(2+i)*x1*sin(x1-2*x2) + (-1+2*i)*x1*cos(x1-2*x2) + (1+3*i)*x1"),
], ids=["lone_minus", "x2_times_plus", "const_and_minus", "unequal_pair",
        "unequal_complex_pair", "mono_times_minus"])
def test_format_trigpoly_one_sided_and_unequal_pairs(terms, text):
    """exp(i k.x) terms whose -k partner is absent, or present with another
    coefficient, print through cos/sin: c e^{ik.x} + d e^{-ik.x} =
    (c + d) cos(k.x) + i(c - d) sin(k.x)."""
    assert scalars.format_trigpoly(TrigPoly(2, terms), NAMES[:2]) == text


@pytest.mark.parametrize("text, want", [
    ("  x1 +  x2 ", "x1 + x2"),
    ("x1 +\n  x2", "x1 + x2"),
    ("-x1^2", "-x1^2"),
    ("-2^2", "-4"),
    ("2^-1", "1/2"),
    ("x1/x2/x3", "(x1)/(x2*x3)"),
    ("x1 - -x2", "x1 + x2"),
    ("sin(2*x1 - x2)", "sin(2*x1-x2)"),
    ("(1/2+1/3*i)*x1", "(1/2+1/3*i)*x1"),
])
def test_parser_accepts(text, want):
    assert S(text).to_string(NAMES) == want


@pytest.mark.parametrize("text", [
    "x1 x2", "x1 +", "", "1.5", "a", "foo(x1)", "sin(x1/2)", "sin(x1^2)",
    "sin(i*x1)", "sin(x1, x2)", "x1^x2", "x1^1.5", "x1^2^3", "3 % 2",
    "x1 // 2", "x1 == x2", "[x1]", "x1.real", "0x10", "1_000", "x1^+2",
])
def test_parser_rejects(text):
    with pytest.raises(ValueError):
        S(text)


def test_parser_language_changes():
    """What the parser on Python's `ast` reads differently from the earlier
    hand-written one (the `parsing` docstring lists the same)."""
    assert S("x1**2") == S("x1^(2)") == S("x1^2")
    assert S("2*+x1") == S("2*x1")
    assert S("2*-x1^2") == S("-2*x1^2")
    with pytest.raises(ValueError):
        S("007")


def test_pow_negative():
    f = S("(1+x1^2)^-1")
    assert f == S("1/(1+x1^2)")


def test_real_imag_parts():
    f = S("x1 + i*x2")
    assert f.real() == S("x1")
    assert f.imag() == S("x2")


# ---------------------------------------------------------------------------
# sympy oracle for the sparse product and the gcd
# ---------------------------------------------------------------------------


def _rand_qqi(rng):
    re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    im = Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5 else 0
    return QQi(re, im) if re or im else QQi(1)


def _rand_poly(rng, nv, terms, top=3):
    """Sparse {exponent tuple: QQi} with up to `terms` terms in nv variables."""
    return {tuple(rng.randint(0, top) for _ in range(nv)): _rand_qqi(rng)
            for _ in range(terms)}


def _sym(c):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def _sym_poly(d, xs):
    return sympy.Add(*[_sym(c) * sympy.Mul(*[x ** e for x, e in zip(xs, k)])
                       for k, c in d.items()])


def _sym_dict(expr, xs):
    """Exact {exponent tuple: QQi} of a sympy polynomial."""
    out = {}
    for k, c in sympy.Poly(expr, *xs, domain="QQ_I").as_dict().items():
        re, im = sympy.expand(c).as_real_imag()
        out[k] = QQi(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return out


def _product_pairs(rng):
    for nv in (2, 3, 4):
        xs = sympy.symbols(f"x1:{nv + 1}")
        for _ in range(6):
            yield xs, _rand_poly(rng, nv, rng.randint(1, 6)), _rand_poly(rng, nv, rng.randint(1, 6))
        # (u + v)(u - v) = u^2 - v^2: every cross term cancels mid-product
        for _ in range(3):
            u = _rand_poly(rng, nv, 3)
            v = {k: c for k, c in _rand_poly(rng, nv, 3).items() if k not in u}
            minus_v = {k: -c for k, c in v.items()}
            yield xs, {**u, **v}, {**u, **minus_v}


def test_p_mul_matches_sympy_expand():
    rng = random.Random(31)
    for xs, a, b in _product_pairs(rng):
        got = _p_mul(a, b)
        assert all(not c.is_zero() for c in got.values())
        want = sympy.expand(_sym_poly(a, xs) * _sym_poly(b, xs))
        assert got == (_sym_dict(want, xs) if want != 0 else {})


def _rand_trigpoly(rng, nv, terms):
    return TrigPoly(nv, {tuple(rng.randint(0, 2) for _ in range(nv))
                         + tuple(rng.randint(-2, 2) for _ in range(nv)):
                         _rand_qqi(rng) for _ in range(terms)})


def _sym_trig(p, xs, zs):
    """sympy form of a TrigPoly: key k = mono + freq gives x^mono z^freq."""
    return sympy.Add(*[_sym(c) * sympy.Mul(*[v ** e for v, e in zip((*xs, *zs), k)])
                       for k, c in p.terms.items()])


def test_trigpoly_mul_matches_sympy_expand():
    rng = random.Random(37)
    cases = []
    for nv in (2, 3, 4):
        cases += [(_rand_trigpoly(rng, nv, rng.randint(1, 5)),
                   _rand_trigpoly(rng, nv, rng.randint(1, 5))) for _ in range(6)]
    # (e^{ix} + e^{-ix})(e^{ix} - e^{-ix}): the constant terms cancel
    ep, em = TrigPoly.expi(2, (1, 0)), TrigPoly.expi(2, (-1, 0))
    cases.append((ep + em, ep - em))
    for a, b in cases:
        nv = a.nvars
        xs = sympy.symbols(f"x1:{nv + 1}")
        zs = sympy.symbols(f"z1:{nv + 1}")
        got = a * b
        assert all(not c.is_zero() for c in got.terms.values())
        diff = sympy.expand(_sym_trig(a, xs, zs) * _sym_trig(b, xs, zs)
                            - _sym_trig(got, xs, zs))
        assert diff == 0
    assert (ep + em) * (ep - em) == TrigPoly.expi(2, (2, 0)) - TrigPoly.expi(2, (-2, 0))


def _monic_sympy_gcd(a, b, xs):
    g = _sym_dict(sympy.Poly(_sym_poly(a, xs), *xs, domain="QQ_I").gcd(
        sympy.Poly(_sym_poly(b, xs), *xs, domain="QQ_I")).as_expr(), xs)
    lead = g[max(g, key=lambda k: (sum(k), k))]
    return {k: c / lead for k, c in g.items()}


@functools.lru_cache(maxsize=None)
def _gcd_pairs():
    """(xs, a, b, monic sympy gcd): planted common factors, then pairs that
    are drawn at random (most of them coprime)."""
    rng = random.Random(41)
    out = []
    for nv in (2, 3, 4):
        xs = sympy.symbols(f"x1:{nv + 1}")
        for planted in (True,) * 4 + (False,) * 5:
            if planted:
                g = {**_rand_poly(rng, nv, rng.randint(1, 2), top=2),
                     (0,) * nv: QQi(1)}
                a = _p_mul(g, _rand_poly(rng, nv, rng.randint(1, 3), top=2))
                b = _p_mul(g, _rand_poly(rng, nv, rng.randint(1, 3), top=2))
            else:
                a = _rand_poly(rng, nv, rng.randint(2, 4), top=2)
                b = _rand_poly(rng, nv, rng.randint(2, 4), top=2)
            out.append((xs, a, b, _monic_sympy_gcd(a, b, xs)))
    # a squared planted factor, a variable that only `a` has, and planted
    # factors with Gaussian coefficients
    for nv in (2, 3, 4):
        xs = sympy.symbols(f"x1:{nv + 1}")
        g = {**_rand_poly(rng, nv, 2, top=1), (0,) * nv: QQi(1)}
        gg = _p_mul(g, g)
        below = {k[:-1] + (0,): c for k, c in g.items()}
        last = {(0,) * (nv - 1) + (1,): QQi(1), (0,) * nv: _rand_qqi(rng)}
        pairs = [(_p_mul(gg, _rand_poly(rng, nv, 2, top=1)),
                  _p_mul(gg, _rand_poly(rng, nv, 2, top=1))),
                 (_p_mul(gg, _rand_poly(rng, nv, 2, top=1)),
                  _p_mul(g, _rand_poly(rng, nv, 3, top=1))),
                 (_p_mul(_p_mul(below, last), _rand_poly(rng, nv, 2, top=1)),
                  _p_mul(below, {k[:-1] + (0,): c for k, c in
                                 _rand_poly(rng, nv, 3, top=2).items()}))]
        for _ in range(2):
            gi = {k: QQi(rng.randint(-4, 4), rng.choice((-3, -1, 1, 2)))
                  for k in _rand_poly(rng, nv, 3, top=2)}
            pairs.append((_p_mul(gi, _rand_poly(rng, nv, 2, top=2)),
                          _p_mul(gi, _rand_poly(rng, nv, 3, top=2))))
        out += [(xs, a, b, _monic_sympy_gcd(a, b, xs)) for a, b in pairs]
    # the heuristic gcd's first point xi = 4*|b| + 4 = 16 is a root of
    # a = (x1 + 1)(x1 - 16), so its first image of a is 0
    xs = sympy.symbols("x1:3")
    a = {(2, 0): QQi(1), (1, 0): QQi(-15), (0, 0): QQi(-16)}
    b = {(2, 0): QQi(1), (1, 0): QQi(3), (0, 0): QQi(2)}
    out.append((xs, a, b, _monic_sympy_gcd(a, b, xs)))
    return out


def test_poly_gcd_matches_monic_sympy_gcd():
    pairs = _gcd_pairs()
    assert sum(len(g) > 1 for *_, g in pairs) >= 12
    for xs, a, b, want in pairs:
        assert poly_gcd(a, b) == want


def test_coprime_pairs_return_from_the_proof_without_heuristic_gcd(monkeypatch):
    pairs = [p for p in _gcd_pairs() if len(p[3]) == 1]
    assert len(pairs) >= 10

    def forbidden(*args):
        raise AssertionError("coprime pair reached division or the heuristic gcd")

    monkeypatch.setattr(scalars, "_p_div_exact", forbidden)
    monkeypatch.setattr(scalars, "_heu_gcd", forbidden)
    for xs, a, b, want in pairs:
        assert poly_gcd(a, b) == want


def _shift(d, by):
    return {tuple(x - y for x, y in zip(k, by)): c for k, c in d.items()}


def _divide_twice(a, b):
    """_cross_reduce with no cofactors from the gcd: poly_gcd, then both
    operands divided by it, inside the shift to nonnegative frequencies."""
    if a.is_const() or b.is_const():
        return a, b
    m = a.nvars
    low = (0,) * m + tuple(min(0, *col) for col in list(zip(*a.terms, *b.terms))[m:])
    pa, pb = _shift(a.terms, low), _shift(b.terms, low)
    g = poly_gcd(pa, pb)
    if len(g) == 1 and not any(next(iter(g))):
        return a, b
    return tuple(TrigPoly(m, _shift(_p_div_exact(p, g), [-f for f in low]))
                 for p in (pa, pb))


def _reduces_as_dividing_twice(a, b, got):
    """Asserts that got = _cross_reduce(a, b) has the terms and key order of
    _divide_twice(a, b), and is a and b themselves when the gcd is 1;
    returns whether the gcd was nontrivial."""
    want = _divide_twice(a, b)
    if want[0] is a:
        assert got[0] is a and got[1] is b
    for x, y in zip(got, want):
        assert x.nvars == y.nvars
        assert list(x.terms.items()) == list(y.terms.items())
    return want[0] is not a


def _trig(d):
    """A gcd pair's polynomial as a TrigPoly: its slots, padded to an even
    count, split into monomial and frequency halves."""
    pad = (0,) * (len(next(iter(d))) % 2)
    return TrigPoly((len(next(iter(d))) + 1) // 2, {k + pad: c for k, c in d.items()})


def _e(nv, *terms):  # (c, key) is c * x^mono * exp(i freq.x), key = mono + freq
    return TrigPoly(nv, {k: scalars.as_qqi(c) for c, k in terms})


# Bare monomial gcds. The first three reached _cross_reduce in the torus
# moment check, with keys that a shift alone would list in another order
# than the exact division by the gcd does.
MONOMIAL_GCD_PAIRS = [
    (_e(2, (Fraction(1, 16), (0, 0, 0, 5)), (Fraction(1, 16), (0, 0, 0, 7))),
     _e(2, (Fraction(1, 64), (0, 0, 0, 6)))),
    (_e(2, (QQi(0, Fraction(-1, 4)), (0, 0, 0, 10)), (QQi(0, Fraction(1, 4)), (0, 0, 0, 14))),
     _e(2, (Fraction(-1, 64), (0, 0, 0, 12)))),
    (_e(4, (Fraction(-1, 16), (0, 0, 0, 0, 5, 0, 0, 0)), (Fraction(-1, 16), (0, 0, 0, 0, 7, 0, 0, 0))),
     _e(4, (Fraction(1, 64), (0, 0, 0, 0, 6, 0, 0, 0)))),
    (S("x1*x2 + x1^2").num, S("x1^3*x2 - 2*x1*x2^2").num),
    (S("x1^2*(x1 + x2)*cos(x2)").num, S("x1*(x1 - x2)*sin(2*x2)").num),
]


def test_cross_reduce_matches_dividing_twice(monkeypatch):
    """The cofactors the gcd hands back have the terms and the key order of
    two exact divisions by it, on every path: the gcd pairs (both ways round
    in the frequency slots), bare monomial gcds, single-term, constant and
    negative-frequency operands."""
    heuristic = []
    heu_gcd = scalars._heu_gcd
    monkeypatch.setattr(scalars, "_heu_gcd", lambda a, b: heuristic.append(1) or heu_gcd(a, b))
    pairs = [(f(a), f(b)) for _, a, b, _ in _gcd_pairs()
             for f in (_trig, lambda d: _trig(d).conj())]
    pairs += MONOMIAL_GCD_PAIRS + [
        (S("x1^2*x2").num, S("x1*x2 + x1").num),
        (S("3").num, S("x1 + 1").num),
        (S("x1 + 1").num, TrigPoly.expi(4, (0, -3, 0, 0))),
        (S("cos(x1)").num, S("sin(2*x1)").num),
        (S("cos(x1) + sin(x2)").num, S("cos(x1)*sin(x2) - sin(x1)^2").num),
        (S("(x1 - 1)*cos(x1 - x2)").num, S("(x1^2 - 1)*sin(x1 - x2)^2").num)]
    nontrivial = [_reduces_as_dividing_twice(a, b, _cross_reduce(a, b)) for a, b in pairs]
    assert sum(nontrivial) >= 60 and not all(nontrivial) and heuristic


def test_cross_reduce_on_the_fubini_study_cp2_curvature_inputs(monkeypatch):
    """Every reduction in building CP^2 and its gric_gr, and in the E+-
    frames of both CP^2 scenes and their oracle duals, matches dividing
    twice, and no reduction divides after its gcd: a count over the Fubini-Study run repeats exactly,
    so the count of exact divisions catches a return to two divisions, the
    count of products a return to general products with a constant, and
    the count of gcds a return to gcds of expanded denominators, without
    timing. The reductions are recorded at `_split`, which `_cross_reduce`
    calls, and the factor-by-factor routes for what a trial exact division
    leaves open."""
    calls, divisions, products, gcds = [], [], [], []
    split, divide, multiply = scalars._split, scalars._p_div_exact, scalars._p_mul
    gcd = scalars._gcd_cofactors

    def recorded(a, b):
        got = split(a, b)
        calls.append((a, b, (a, b) if got is None else got[1:]))
        return got

    def counted_gcd(a, b):
        gcds.append(1)
        return gcd(a, b)

    def counted(a, b):
        divisions.append(1)
        return divide(a, b)

    def counted_product(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(scalars, "_split", recorded)
    monkeypatch.setattr(scalars, "_p_div_exact", counted)
    monkeypatch.setattr(scalars, "_p_mul", counted_product)
    monkeypatch.setattr(scalars, "_gcd_cofactors", counted_gcd)
    gric_gr(CATALOG["fubini_study_cp2"]().pair())
    assert len(divisions) == FS_CP2_DIV_EXACT_CALLS
    assert len(products) == FS_CP2_P_MUL_CALLS
    assert len(gcds) == FS_CP2_GCD_CALLS
    # with factored denominators and trial divisions Fubini-Study reduces
    # less; the E+- frames add reductions of several factors, and so does
    # the pairing-inverse oracle of their duals, which the frames no longer
    # take; so do the quotients g_jk / s^2 of the Fubini-Study metric,
    # which `fubini_study_omega` no longer takes one by one
    for name in ("cp2_three_lines", "fubini_study_cp2"):
        fr = CATALOG[name]().pair().epm_frame()
        pairing_inverse_duals(fr.chart, fr.eplus)
        pairing_inverse_duals(fr.chart, fr.eminus)
    chart = Chart.flat(2)
    s = sum((chart.coord_s(k) ** 2 for k in range(4)), chart.one_s())
    z = [chart.sc("x1 + i*x2"), chart.sc("x3 + i*x4")]
    for j, k in itertools.product(range(2), repeat=2):
        ((s if j == k else chart.zero_s()) - z[j].conj() * z[k]) / (s * s)
    monkeypatch.undo()
    nontrivial = sum(_reduces_as_dividing_twice(*call) for call in calls)
    assert nontrivial >= 50 and len(calls) > nontrivial


def _ref_zi_gcd(a, b):
    """Gaussian Euclid with quotients rounded to the nearest Gaussian integer."""
    while b != (0, 0):
        (ar, ai), (br, bi) = a, b
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        a, b = b, (ar - qr * br + qi * bi, ai - qr * bi - qi * br)
    return a


def _zi_product(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def test_zi_gcd_matches_gaussian_euclid():
    """Up to a unit, on seeded pairs: planted and random gcds with parts of
    8 to 5,000 bits (norms of about 10^4 bits), zero imaginary parts, units,
    a shared integer content, and pairs where a's imaginary part is not a
    unit mod n = N(gcd)."""
    rng = random.Random(47)

    def rand(bits):
        return rng.randint(-2 ** bits, 2 ** bits), rng.randint(-2 ** bits, 2 ** bits)

    cases = [((6, 0), (4, 0)), ((0, 0), (-9, 0)), ((1, 0), (0, 1)),
             ((0, -1), (7, 3)), ((12, 18), (30, -6)),
             # n = 5 and Im a = 0: s comes from b
             ((5, 0), (3, 4)),
             # gcd 4+7i, n = 65: none of the imaginary parts of a, i*a, b,
             # i*b (10, 15, 13, 26) is a unit mod 65
             ((15, 10), (26, 13))]
    for bits, count in ((8, 40), (64, 20), (5000, 1)):
        for _ in range(count):
            g = rand(bits)
            cases.append((_zi_product(g, rand(bits)), _zi_product(g, rand(bits))))
            cases.append((rand(bits), rand(bits)))
            e = rng.randint(2, 2 ** 12)
            x, y = _zi_product(g, rand(bits)), _zi_product(g, rand(bits))
            cases.append(((e * x[0], e * x[1]), (e * y[0], e * y[1])))
            cases.append(((rand(bits)[0], 0), (rand(bits)[0], 0)))
    for a, b in cases:
        x, y = _ref_zi_gcd(a, b)
        assert scalars._zi_gcd(a, b) in {(x, y), (-y, x), (-x, -y), (y, -x)}


# ---------------------------------------------------------------------------
# the mod-p coprimality proof against the inverse-per-step proof it replaced
# ---------------------------------------------------------------------------

_REF_P = (1 << 31) - 1
_REF_POINTS = ((2, 3, 5, 7, 11, 13, 17, 19), (3, 7, 2, 13, 5, 19, 11, 17),
               (5, 2, 13, 3, 17, 7, 19, 11))


def _ref_modp(d):
    zd, den = scalars.zi_split(d)
    if den % _REF_P == 0:
        return None
    inv = pow(den, _REF_P - 2, _REF_P)
    return {k: (x * inv % _REF_P, y * inv % _REF_P) for k, (x, y) in zd.items()}


def _ref_eval_uni(d, v, point):
    out = {}
    for exp, (re, im) in d.items():
        w = 1
        for j, e in enumerate(exp):
            if j != v and e:
                w = w * pow(point[j % len(point)], e, _REF_P) % _REF_P
        re, im = re * w % _REF_P, im * w % _REF_P
        cur = out.get(exp[v])
        cur = (re, im) if cur is None else ((cur[0] + re) % _REF_P,
                                            (cur[1] + im) % _REF_P)
        if cur == (0, 0):
            out.pop(exp[v], None)
        else:
            out[exp[v]] = cur
    return out


def _ref_uni_gcd_degree(a, b):
    while b:
        db = max(b)
        x, y = b[db]
        ninv = pow((x * x + y * y) % _REF_P, _REF_P - 2, _REF_P)
        linv = (x * ninv % _REF_P, -y * ninv % _REF_P)
        r = dict(a)
        while r and max(r) >= db:
            dr = max(r)
            ra, rb = r[dr]
            fa = (ra * linv[0] - rb * linv[1]) % _REF_P
            fb = (ra * linv[1] + rb * linv[0]) % _REF_P
            for e, (ca, cb) in b.items():
                k = e + dr - db
                cur = r.get(k, (0, 0))
                cur = ((cur[0] - ca * fa + cb * fb) % _REF_P,
                       (cur[1] - ca * fb - cb * fa) % _REF_P)
                if cur == (0, 0):
                    r.pop(k, None)
                else:
                    r[k] = cur
        a, b = b, r
    return max(a) if a else -1


def _ref_proof(a, b, shared, deciding=None):
    """The proof on monic images with a modular inverse per step; appends
    (v, point index) of each deciding point to `deciding`."""
    a, b = _ref_modp(a), _ref_modp(b)
    if a is None or b is None:
        return False
    for v in shared:
        da, db = max(k[v] for k in a), max(k[v] for k in b)
        proved = False
        for t, point in enumerate(_REF_POINTS):
            ua, ub = _ref_eval_uni(a, v, point), _ref_eval_uni(b, v, point)
            if not ua or not ub or max(ua) != da or max(ub) != db:
                continue
            proved = _ref_uni_gcd_degree(ua, ub) == 0
            if deciding is not None:
                deciding.append((v, t))
            break
        if not proved:
            return False
    return True


def _shared(a, b):
    return [v for v in range(len(next(iter(a))))
            if max(k[v] for k in a) > 0 and max(k[v] for k in b) > 0]


def _poly_in(rng, slots, width, terms):
    return {tuple(rng.randint(0, 2) if j in slots else 0 for j in range(width)):
            _rand_qqi(rng) for _ in range(terms)}


def _proof_pairs():
    """(a, b, planted): seeded pairs in 8 and 10 key slots with 1-4 shared
    variables, planted common factors, coefficients over 2^31 - 1, and
    leading coefficients that vanish at the first or at every point."""
    rng = random.Random(59)
    out = []
    for width in (8, 10):
        for n in range(60):
            slots = rng.sample(range(width), rng.randint(1, 4) + 2)
            sa, sb = slots[:-1], slots[:-2] + slots[-1:]
            a = _poly_in(rng, sa, width, rng.randint(2, 5))
            b = _poly_in(rng, sb, width, rng.randint(2, 5))
            planted = n % 4 == 0
            if planted:
                g = _poly_in(rng, slots[:-2], width, 2)
                g[tuple(int(j == slots[0]) for j in range(width))] = QQi(1)
                a, b = _p_mul(g, a), _p_mul(g, b)
            if n % 10 == 3:  # p divides one coefficient's denominator
                k = next(iter(a))
                a[k] = a[k] / _REF_P
            if _shared(a, b):
                out.append((a, b, planted))

    def poly(*terms):  # (c, e1, e2) is c * x1^e1 * x2^e2, in 8 slots
        return {(e1, e2) + (0,) * 6: QQi(c) for c, e1, e2 in terms}
    # lc in x2 is x1 - 2: the first point (x1 = 2) drops the degree
    b = poly((1, 0, 2), (1, 1, 1), (3, 0, 0))
    out.append((poly((1, 1, 2), (-2, 0, 2), (1, 0, 1), (1, 1, 0)), b, False))
    # lc (x1 - 2)(x1 - 3)(x1 - 5) in x2 vanishes at every point
    lc = functools.reduce(_p_mul, [poly((1, 1, 0), (-c, 0, 0)) for c in (2, 3, 5)])
    out.append(({**_p_mul(lc, poly((1, 0, 1))), **poly((1, 0, 0))}, b, False))
    # p in a denominator: only the x2^2 term would survive an image of p*a
    out.append((poly((Fraction(1, _REF_P), 0, 2), (1, 0, 1), (1, 0, 0)),
                poly((1, 0, 1), (1, 1, 0), (2, 0, 0)), False))
    return out


def test_proof_verdicts_match_the_inverse_per_step_proof():
    pairs = _proof_pairs()
    verdicts = []
    for a, b, planted in pairs:
        shared = _shared(a, b)
        got = scalars._gcd_known_trivial(a, b, shared)
        assert got == _ref_proof(a, b, shared)
        assert not (planted and got)
        verdicts.append(got)
    assert {len(next(iter(a))) for a, *_ in pairs} == {8, 10}
    assert {len(_shared(a, b)) for a, b, _ in pairs} >= {1, 2, 3, 4}
    assert sum(p for *_, p in pairs) >= 20 and 40 <= sum(verdicts) < len(pairs) - 30
    deciding = []
    a, b, _ = pairs[-3]
    assert _ref_proof(a, b, [0, 1], deciding) and deciding == [(0, 0), (1, 1)]
    assert not _ref_proof(*pairs[-2][:2], [0, 1])


def test_proof_verdicts_on_the_fubini_study_cp2_curvature_inputs(monkeypatch):
    """Every (a, b, shared) that reaches the proof during gric_gr of CP^2;
    poly_gcd keeps no state, so the inputs do not depend on test order."""
    pair = CATALOG["fubini_study_cp2"]().pair()
    calls = []
    proof = scalars._gcd_known_trivial

    def recorded(a, b, shared):
        calls.append((dict(a), dict(b), list(shared), proof(a, b, shared)))
        return calls[-1][-1]

    monkeypatch.setattr(scalars, "_gcd_known_trivial", recorded)
    gric_gr(pair)
    assert all(_ref_proof(a, b, shared) == got for a, b, shared, got in calls)
    assert (sum(got for *_, got in calls), len(calls)) == FS_CP2_PROOF_TRUE_CALLS


# ---------------------------------------------------------------------------
# exact division against sympy and the term-by-term Gaussian-rational loop
# ---------------------------------------------------------------------------


def _qqi_div_exact(a, b):
    """Long division over QQi Fractions, leading terms in the graded order."""
    def lead(d):
        return max(d, key=lambda k: (sum(k), k))
    lb = lead(b)
    q, r = {}, dict(a)
    while r:
        lr = lead(r)
        exp = tuple(x - y for x, y in zip(lr, lb))
        if any(e < 0 for e in exp):
            return None
        q[exp] = c = r[lr] / b[lb]
        for k, v in b.items():
            key = tuple(x + y for x, y in zip(k, exp))
            s = r.get(key, QQi(0)) - v * c
            if s.is_zero():
                r.pop(key, None)
            else:
                r[key] = s
    return q


def _division_cases():
    """(nv, a, b): planted products b*q, the same with one stray term, and
    hand-picked divisors whose leading coefficient is not a unit of Z[i]."""
    rng = random.Random(43)
    for nv in (2, 3, 4):
        for _ in range(8):
            b = _rand_poly(rng, nv, rng.randint(1, 4))
            a = _p_mul(b, _rand_poly(rng, nv, rng.randint(1, 4)))
            yield nv, a, b
            stray = tuple(rng.randint(0, 6) for _ in range(nv))
            yield nv, {**a, stray: a.get(stray, QQi(0)) + _rand_qqi(rng)}, b
    x1p1 = {(1, 0): QQi(1), (0, 0): QQi(1)}
    # divisor with Z[i] content 2 + i: the quotient is (x1 - i x2)/(2 + i)
    yield 2, _p_mul(x1p1, {(1, 0): QQi(1), (0, 1): QQi(0, -1)}), _p_mul(
        x1p1, {(0, 0): QQi(2, 1)})
    # (x1 + 1)/(2 x1 + 2) = 1/2
    yield 2, x1p1, {(1, 0): QQi(2), (0, 0): QQi(2)}
    # x1^3 by 2 x1 + 1 and by (1 + i) x1 + 1: every exponent divides, but a
    # coefficient leaves Z[i] (after scaling by the norm 4, resp. 2)
    yield 2, {(3, 0): QQi(1)}, {(1, 0): QQi(2), (0, 0): QQi(1)}
    yield 2, {(3, 0): QQi(1)}, {(1, 0): QQi(1, 1), (0, 0): QQi(1)}
    # here a step's real part stays in Z, only its imaginary part does not
    yield 2, {(3, 0): QQi(1), (2, 0): QQi(1, 1), (1, 0): QQi(2, 3),
              (0, 0): QQi(-3, -1)}, {(1, 0): QQi(3), (0, 0): QQi(1, -2)}


def test_p_div_exact_matches_sympy_and_the_qqi_loop():
    quotients = nones = 0
    for nv, a, b in _division_cases():
        xs = sympy.symbols(f"x1:{nv + 1}")
        q, r = sympy.Poly(_sym_poly(a, xs), *xs, domain="QQ_I").div(
            sympy.Poly(_sym_poly(b, xs), *xs, domain="QQ_I"))
        got, ref = _p_div_exact(a, b), _qqi_div_exact(a, b)
        if r.is_zero:
            quotients += 1
            assert got == _sym_dict(q.as_expr(), xs)
            assert list(got.items()) == list(ref.items())
        else:
            nones += 1
            assert got is None and ref is None
    assert quotients >= 26 and nones >= 20


def _is_canonical_const(s, value):
    return (s.is_const() and s.den.terms == {(0,) * (2 * s.nvars): QQi(1)}
            and s.const_value() == value)


def test_constants_reached_by_cancellation_have_unit_denominator():
    """`const_value` reads the numerator only, so every constant that
    arithmetic can produce must carry the denominator 1."""
    f = S("(x1 + sin(x2))/(1 + x1^2)")
    c = S("(2 - 3*i)/5")
    assert _is_canonical_const((f * c) / f, QQi(Fraction(2, 5), Fraction(-3, 5)))
    assert _is_canonical_const(f - f + c, QQi(Fraction(2, 5), Fraction(-3, 5)))
    assert _is_canonical_const(S("(3*x1 - 2*x2 + i)/7").partial(0),
                               QQi(Fraction(3, 7)))
    assert _is_canonical_const(S("x1*x2/(1 + x1)").partial(1) * S("(1 + x1)/x1"),
                               QQi(1))
    assert _is_canonical_const(((f * c) / f).conj(), QQi(Fraction(2, 5), Fraction(3, 5)))
    assert _is_canonical_const(S("(x1 + 1)/(2*x1 + 2)"), QQi(Fraction(1, 2)))
    assert _is_canonical_const(S("(sin(x1)^2 + cos(x1)^2)/(3*i)"),
                               QQi(0, Fraction(-1, 3)))
    assert _is_canonical_const(S("0/(1 + x1)"), QQi(0))


def test_zero_products_and_quotients_are_the_canonical_zero():
    f = S("(x1 + sin(x2))/(1 + x1^2)")
    zero = ScalarExpr.zero(len(NAMES))
    for z in (f * 0, 0 * f, f * zero, zero * f, zero / f, (f - f) * f,
              S("x1 - x1") / S("2 + x2")):
        assert z == zero
        assert z.is_zero() and _is_canonical_const(z, QQi(0))


# ---------------------------------------------------------------------------
# QQi against a reference on Fraction pairs
# ---------------------------------------------------------------------------


def _pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pair_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


_PAIR_OPS = (
    (operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    (operator.sub, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    (operator.mul, _pair_mul),
    (operator.truediv, lambda x, y: _pair_mul(x, _pair_inverse(y))),
)


def _format_pair(re, im):
    """The printer of the Fraction-pair QQi, kept as the string reference."""
    def frac(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if im == 0:
        return frac(re)
    if re == 0:
        return "i" if im == 1 else "-i" if im == -1 else f"{frac(im)}*i"
    im_abs = abs(im)
    im_str = "i" if im_abs == 1 else f"{frac(im_abs)}*i"
    return f"({frac(re)}{'+' if im > 0 else '-'}{im_str})"


def _assert_matches_pair(q, pair):
    re, im = pair
    assert all(type(v) is int for v in (q.a, q.b, q.d))
    assert q.d > 0 and math.gcd(q.a, q.b, q.d) == 1
    assert (q.re, q.im) == (re, im)
    assert q == QQi(re, im) and hash(q) == hash(QQi(re, im))
    assert str(q) == _format_pair(re, im)
    assert q.is_zero() == (re == 0 and im == 0) and q.is_real() == (im == 0)
    if im == 0:
        assert q == re and hash(q) == hash(re)
        assert (q == int(re)) == (re.denominator == 1)
        if re.denominator == 1:
            assert hash(q) == hash(int(re))
    else:
        assert q != re and q != re.numerator
        assert hash(q) == hash((re, im))


def _qqi_operands():
    """(re, im) Fraction pairs: parts over different denominators, pure
    reals and imaginaries, and pairs whose products cancel to integers."""
    rng = random.Random(47)
    out = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)),
           (Fraction(1), Fraction(-1)), (Fraction(2, 3), Fraction(0)),
           (Fraction(3, 2), Fraction(0)), (Fraction(0), Fraction(-1, 6)),
           (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)),
           (Fraction(-4), Fraction(6)), (Fraction(10 ** 20, 3), Fraction(-7, 10 ** 9))]
    for _ in range(40):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.7 else 0
        out.append((re, Fraction(im)))
    return out


def test_qqi_matches_fraction_pair_oracle():
    operands = _qqi_operands()
    for x in operands:
        q = QQi(*x)
        _assert_matches_pair(q, x)
        _assert_matches_pair(-q, (-x[0], -x[1]))
        _assert_matches_pair(q.conj(), (x[0], -x[1]))
        if x == (0, 0):
            with pytest.raises(DivisionByZero):
                q.inverse()
        else:
            _assert_matches_pair(q.inverse(), _pair_inverse(x))
        for y in operands:
            for op, ref in _PAIR_OPS:
                if op is not operator.truediv or y != (0, 0):
                    _assert_matches_pair(op(q, QQi(*y)), ref(x, y))
        # mixed operands: int and Fraction on either side
        for k in (Fraction(-3, 4), 2):
            _assert_matches_pair(q * k, _pair_mul(x, (Fraction(k), Fraction(0))))
            _assert_matches_pair(k + q, (x[0] + k, x[1]))
            _assert_matches_pair(k - q, (k - x[0], -x[1]))
    # products that cancel to integers
    _assert_matches_pair(QQi(Fraction(1, 2), Fraction(1, 2)) * QQi(1, -1),
                         (Fraction(1), Fraction(0)))
    _assert_matches_pair(QQi(Fraction(2, 3)) * Fraction(3, 2), (Fraction(1), Fraction(0)))
    _assert_matches_pair(QQi(Fraction(1, 2), Fraction(1, 3)) * QQi(6),
                         (Fraction(3), Fraction(2)))


# ---------------------------------------------------------------------------
# sympy oracle for _normalize and _cross_reduce on generated expressions
# ---------------------------------------------------------------------------


def _leaves(nv):
    freqs = st.tuples(*[st.integers(-2, 2)] * nv).map(lambda f: f if any(f) else (1,) * nv)
    return st.one_of(
        st.tuples(st.just("x"), st.integers(0, nv - 1)),
        st.tuples(st.sampled_from(("sin", "cos")), freqs),
        st.tuples(st.just("c"), st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)))


def _trees(nv):
    return st.recursive(
        _leaves(nv), lambda kids: st.tuples(st.sampled_from("+*/"), kids, kids),
        max_leaves=5)


def _build(tree, xs, zs):
    """(ScalarExpr, sympy expression in xs and zs = exp(i xs)) of a tree;
    None where a division by zero occurs."""
    nv = len(xs)
    kind = tree[0]
    if kind == "x":
        return ScalarExpr.coord(nv, tree[1]), xs[tree[1]]
    if kind == "c":
        c = QQi(Fraction(tree[1], tree[3]), tree[2])
        return ScalarExpr.from_qqi(nv, c), _sym(c)
    if kind in ("sin", "cos"):
        z = sympy.Mul(*[w ** f for w, f in zip(zs, tree[1])])
        if kind == "sin":
            return ScalarExpr.sin(nv, tree[1]), (z - 1 / z) / (2 * sympy.I)
        return ScalarExpr.cos(nv, tree[1]), (z + 1 / z) / 2
    left, right = _build(tree[1], xs, zs), _build(tree[2], xs, zs)
    if left is None or right is None or (kind == "/" and right[0].is_zero()):
        return None
    op = {"+": operator.add, "*": operator.mul, "/": operator.truediv}[kind]
    return op(left[0], right[0]), op(left[1], right[1])


def _laurent_polys(pairs, xs, zs):
    """sympy Polys of TrigPolys, shifted together into non-negative exponents."""
    keys = [k[len(zs):] for p in pairs for k in p.terms]
    unit = sympy.Mul(*[z ** -min(k[j] for k in keys) for j, z in enumerate(zs)])
    return [sympy.Poly(sympy.expand(_sym_trig(p, xs, zs) * unit), *xs, *zs,
                       domain="QQ_I") for p in pairs]


def _assert_canonical(r, want, xs, zs):
    """r equals want, its num and den are coprime, and den carries the unit
    of the canonical form: exp exponents from 0 and leading coefficient 1."""
    num, den = _laurent_polys([r.num, r.den], xs, zs)
    assert sympy.cancel(_sym_trig(r.num, xs, zs) / _sym_trig(r.den, xs, zs) - want) == 0
    assert r.num.is_zero() or num.gcd(den).is_ground
    nv = len(xs)
    assert all(min(k[nv + j] for k in r.den.terms) == 0 for j in range(nv))
    lead = max(r.den.terms, key=lambda k: (sum(k), k))
    assert r.den.terms[lead] == 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 2).flatmap(lambda nv: st.tuples(st.just(nv), _trees(nv), _trees(nv))))
def test_normalize_and_cross_reduce_match_sympy_cancel(case):
    nv, t1, t2 = case
    xs, zs = sympy.symbols(f"x1:{nv + 1}"), sympy.symbols(f"z1:{nv + 1}")
    built = _build(t1, xs, zs), _build(t2, xs, zs)
    assume(None not in built)
    (f, fs), (g, gs) = built
    for op in (operator.add, operator.mul, operator.truediv):
        if op is not operator.truediv or not g.is_zero():
            _assert_canonical(op(f, g), op(fs, gs), xs, zs)
    # the sum's denominator cancels against g's: only the gcd recovers f
    _assert_canonical((f + g) - g, fs, xs, zs)
    if not (f.is_zero() or g.is_zero()):
        a, b = _cross_reduce(f.num, g.num)
        pa, pb, pf, pg = _laurent_polys([a, b, f.num, g.num], xs, zs)
        assert pa.gcd(pb).is_ground and (pa * pg - pb * pf).is_zero
        # built in another order, the same function has the same terms. Their
        # key order follows the operand order (f + g lists f's terms first),
        # except where both orders form the same products in the same order
        assert f * g == g * f and f + g == g + f
        for x, y in ((f / g, f * (1 / g)), (g / f, g * f ** -1)):
            assert list(x.num.terms.items()) == list(y.num.terms.items())
            assert list(x.den.terms.items()) == list(y.den.terms.items())


# Sums whose denominators share a factor g: the sum is taken over
# lcm = D1 (D2/g), and its numerator may still share a factor with g
LCM_SUMS = [
    ("1/(x1*(x1+1))", "1/(x1*(x1-1))"),
    ("(1+x1^2)^-1", "(1+x1^2)^-2"),
    ("(1+x1^2)^-3", "(1+x1^2)^-1"),
    ("x1*(1+x1^2)^-2", "(x1+1)*(1+x1^2)^-3"),
    ("sin(x1)/((2+cos(x1))*(1+x2))", "cos(x2)/((2+cos(x1))*(3+sin(x2)))"),
    # the two cofactors sum to 2 (2 + cos x1), which cancels against g
    ("1/((2+cos(x1))*(1+cos(x1)+sin(x2)))",
     "1/((2+cos(x1))*(3+cos(x1)-sin(x2)))"),
]


# Coprime denominators: the sum over D1 D2 is already reduced
COPRIME_SUMS = [
    ("1/(1+x1^2)", "x2/(2+cos(x2))"),
    ("(x1+1)/(x1-1)", "sin(x1)/(3+cos(x1)+sin(x2))"),
]


@pytest.mark.parametrize("left, right", LCM_SUMS + COPRIME_SUMS)
def test_add_over_lcm_matches_sympy(left, right):
    names = ("x1", "x2")
    xs, zs = sympy.symbols("x1:3"), sympy.symbols("z1:3")
    trig = {}
    for x, z in zip(xs, zs):
        trig[sympy.cos(x)] = (z + 1 / z) / 2
        trig[sympy.sin(x)] = (z - 1 / z) / (2 * sympy.I)

    def sym(text):
        return sympy.sympify(text.replace("^", "**"),
                             locals=dict(zip(names, xs))).subs(trig)

    f, g = S(left, names), S(right, names)
    assert f.den != g.den and not f.den.is_const() and not g.den.is_const()
    _assert_canonical(f + g, sym(left) + sym(right), xs, zs)
    _assert_canonical(g + f, sym(left) + sym(right), xs, zs)
    _assert_canonical(f - g, sym(left) - sym(right), xs, zs)


# ---------------------------------------------------------------------------
# Fast paths against the routes they replace: the same terms in the same key
# order, on operands on either side
# ---------------------------------------------------------------------------


CONSTANTS = (QQi(1), QQi(-1), QQi(Fraction(-2, 3), Fraction(1, 5)), QQi(0, 1))


def _items(p):
    return list(p.terms.items())


def _old_trig_mul(a, b):
    """TrigPoly.__mul__ as a general product, constants included."""
    return TrigPoly(a.nvars, _p_mul(a.terms, b.terms))


def _old_scalar_mul(f, g):
    """ScalarExpr.__mul__ with no path over the denominator 1: a zero or a
    constant operand scales term by term, any other pair is cross-reduced."""
    if f.is_zero() or g.is_zero():
        return f if f.is_zero() else g
    for c, h in ((g, f), (f, g)):
        if c.is_const():
            k = c.num.const_value()
            return ScalarExpr(f.nvars, TrigPoly(f.nvars, {key: v * k for key, v in
                                                          h.num.terms.items()}),
                              h.den, _normalized=True)
    n1, d2 = _cross_reduce(f.num, g.den)
    n2, d1 = _cross_reduce(g.num, f.den)
    num, den = scalars._unit_normalize(_old_trig_mul(n1, n2).terms,
                                       _old_trig_mul(d1, d2).terms, f.nvars)
    return ScalarExpr(f.nvars, num, den, _normalized=True)


def _old_conj(f):
    """(num, den) term dicts of conj(f) reduced by a gcd, then given the
    unit of the canonical form: the old route."""
    m, num, den = f.nvars, f.num.conj(), f.den.conj()
    if f.is_zero() or den.is_const():
        return num.terms, den.terms
    num, den = _cross_reduce(num, den)
    low = (0,) * m + tuple(map(min, list(zip(*den.terms))[m:]))
    inv = den.terms[max(den.terms, key=lambda k: (sum(k), k))].inverse()
    return tuple({tuple(map(operator.sub, k, low)): c * inv for k, c in p.terms.items()}
                 for p in (num, den))


def _old_is_real(f):
    if f.den.is_const():
        return f.num == f.num.conj()
    return _old_trig_mul(f.num, f.den.conj()) == _old_trig_mul(f.num.conj(), f.den)


def _over_one(p):
    return ScalarExpr(p.nvars, p, TrigPoly.const(p.nvars, 1), _normalized=True)


def _trigpolys(nv):
    coeffs = st.builds(lambda a, b, d: QQi(Fraction(a, d), b), st.integers(-4, 4),
                       st.integers(-2, 2), st.integers(1, 3)).filter(lambda c: not c.is_zero())
    keys = st.tuples(*[st.integers(0, 2)] * nv, *[st.integers(-2, 2)] * nv)
    return st.one_of(st.sampled_from(CONSTANTS).map(lambda c: TrigPoly.const(nv, c)),
                     st.dictionaries(keys, coeffs, min_size=1, max_size=5).map(
                         lambda d: TrigPoly(nv, d)))


def _trigpoly_pairs():
    """Seeded pairs: every constant on either side of a random TrigPoly, and
    random TrigPolys with one another."""
    rng = random.Random(71)
    for nv in (1, 2, 4):
        for _ in range(6):
            p, q = _rand_trigpoly(rng, nv, rng.randint(1, 5)), _rand_trigpoly(rng, nv, 3)
            yield p, q
            for c in CONSTANTS:
                yield p, TrigPoly.const(nv, c)


def _assert_same_products(a, b):
    for x, y in ((a, b), (b, a)):
        assert _items(x * y) == _items(_old_trig_mul(x, y))
        f, g = _over_one(x), _over_one(y)
        got, want = f * g, _old_scalar_mul(f, g)
        assert (_items(got.num), _items(got.den)) == (_items(want.num), _items(want.den))


def test_products_with_constants_and_over_one_match_the_general_product():
    for p, q in _trigpoly_pairs():
        _assert_same_products(p, q)
        one = TrigPoly.const(p.nvars, 1)
        assert p * one is p and one * p is p
        assert scalars._p_scale(p.terms, QQi(1)) is p.terms
        assert list(scalars._p_scale(p.terms, QQi(-1)).items()) == \
            [(k, -c) for k, c in p.terms.items()]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2).flatmap(lambda nv: st.tuples(_trigpolys(nv), _trigpolys(nv))))
def test_products_match_the_general_product_on_generated_operands(pair):
    _assert_same_products(*pair)


def _conj_and_is_real_pool():
    rng = random.Random(73)
    texts = ["1/(3 + cos(x1) + i*sin(x1))", "x2/(2 + sin(x1))", "(x1 + i)/(1 + x2^2)",
             "cos(x2)/(5 + cos(2*x1) + i*sin(x1))", "i*x1 + sin(x2)", "x1^2 - 3",
             "(x1 - i*x2)/(x1^2 + x2^2 + 1)", "x1/(x1 + i)", "(2 + i)/(x2 - 3*x1)",
             "x2/(1 + x1^2)", "cos(x2)/(x1^2 + 2*x2 + 5)"]
    pool = [S(t) for t in texts] + [S(_random_expr(rng)) for _ in range(25)]
    pool += [f * c for c in (QQi(-1), QQi(0, 1)) for f in pool[:9]]
    return pool + [f + g.conj() for f, g in zip(pool[:9], pool[1:10])]


def _assert_conj_and_is_real(f):
    num, den = _old_conj(f)
    got = f.conj()
    assert (_items(got.num), _items(got.den)) == (list(num.items()), list(den.items()))
    if not f.den.is_const():
        # the conjugated pair is coprime: the old gcd returned its inputs
        a, b = f.num.conj(), f.den.conj()
        assert all(x is y for x, y in zip(_cross_reduce(a, b), (a, b)))
    assert f.is_real() == _old_is_real(f) == (got == f)


def test_conj_and_is_real_match_the_old_routes():
    pool = _conj_and_is_real_pool()
    for f in pool:
        _assert_conj_and_is_real(f)
    real_den = [f for f in pool if f.den.conj() == f.den]
    assert sum(not f.den.is_const() for f in real_den) >= 4
    assert {f.is_real() for f in real_den if not f.den.is_const()} == {True, False}
    assert sum(f.den.conj() != f.den for f in pool) >= 20


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 2).flatmap(lambda nv: st.tuples(st.just(nv), _trees(nv))))
def test_conj_and_is_real_match_the_old_routes_on_generated_trees(case):
    nv, tree = case
    xs, zs = sympy.symbols(f"x1:{nv + 1}"), sympy.symbols(f"z1:{nv + 1}")
    built = _build(tree, xs, zs)
    assume(built is not None)
    _assert_conj_and_is_real(built[0])
    _assert_conj_and_is_real(built[0] * QQi(0, 1) + ScalarExpr.coord(nv, 0))


# ---------------------------------------------------------------------------
# Operands are never mutated: results may share their term dicts
# ---------------------------------------------------------------------------


def _polys(x):
    """Every TrigPoly that x holds: x itself, a scalar's num and den, a
    section's components, or those of the items of a tuple or list."""
    if isinstance(x, TrigPoly):
        return [x]
    if isinstance(x, ScalarExpr):
        return [x.num, x.den]
    if isinstance(x, GenVec):
        return _polys([*x.v, *x.xi])
    if isinstance(x, (tuple, list)):
        return [p for y in x for p in _polys(y)]
    return []


def _snapshot(x):
    return [(id(p.terms), [(k, c.a, c.b, c.d) for k, c in p.terms.items()])
            for p in _polys(x)]


def _operations(chart, pool):
    """(name, operands, call) over every pair of the pool: the field
    operations, conj, partial, the pairwise reduction, and the keyed and
    wedge sums of products over shared denominators."""
    rng = random.Random(79)
    for f in pool:
        yield "conj", f, f.conj
        yield "partial", f, lambda f=f: f.partial(0)
        yield "TrigPoly.conj", f.num, f.num.conj
        yield "TrigPoly.partial", f.num, lambda f=f: f.num.partial(1)
        for c in CONSTANTS:
            yield "TrigPoly.scale", f.num, lambda f=f, c=c: f.num.scale(c)
        for g in pool:
            yield "+", (f, g), lambda f=f, g=g: f + g
            yield "-", (f, g), lambda f=f, g=g: f - g
            yield "*", (f, g), lambda f=f, g=g: f * g
            if not g.is_zero():
                yield "/", (f, g), lambda f=f, g=g: f / g
            yield "TrigPoly *", (f.num, g.num), lambda f=f, g=g: f.num * g.num
            yield "TrigPoly +", (f.num, g.num), lambda f=f, g=g: f.num + g.num
            yield "_cross_reduce", (f.num, g.den), lambda f=f, g=g: _cross_reduce(f.num, g.den)
            yield "_cross_reduce", (f.num, g.num), lambda f=f, g=g: _cross_reduce(f.num, g.num)
    for _ in range(6):
        contribs = []
        for _ in range(8):
            f, g = rng.choice(pool), rng.choice(pool)
            contribs.append((rng.choice("ab"), f, g))
        yield "keyed_sum", contribs, lambda c=contribs: keyed_sum(chart.nvars, c)
        vecs = [GenVec.from_column(chart, [rng.choice(pool) for _ in range(2 * chart.dim)])
                for _ in range(3)]
        terms = [(rng.choice(pool), *rng.sample(vecs, 2)) for _ in range(3)]
        yield "wedge_sum", terms, lambda t=terms: wedge_sum(chart, 2, t)


def test_no_operation_mutates_its_operands():
    """Products with 1 and scales by 1 return their operand's term dict; no
    operation may then write into a dict that a result shares."""
    chart = Chart.flat(2)
    pool = [chart.sc(t) for t in ("x1/(2 + cos(x2))", "sin(x1)*x2 - i", "3*x1^2 + cos(x1)",
                                  "(1 + x1^2)/(x2 - i)", "x2/(1 + x1^2)")]
    pool += [chart.const(c) for c in (*CONSTANTS, 0)]
    pool += [pool[0] * pool[5], pool[2] * pool[5]]  # results that share dicts
    ran = collections.Counter()
    for name, operands, call in _operations(chart, pool):
        before = _snapshot(operands)
        call()
        assert _snapshot(operands) == before, name
        ran[name] += 1
    assert len(ran) == 14 and min(ran.values()) >= 6


def test_qqi_operators_hand_a_scalar_to_its_reflected_operator():
    """QQi arithmetic returns NotImplemented for what it cannot coerce, so a
    ScalarExpr on the right gets its reflected operator; a float still
    raises TypeError."""
    x = S("x1 + 1")
    assert QQi(0, 1) * x == S("i*x1 + i") and QQi(2) + x == S("x1 + 3")
    assert QQi(1) - x == S("-x1") and QQi(1) / x == S("1/(x1 + 1)")
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert getattr(QQi(1), f"__{op.__name__}__")(x) is NotImplemented
        with pytest.raises(TypeError, match="'QQi' and 'float'"):
            op(QQi(1), 1.5)
        with pytest.raises(TypeError, match="'float' and 'QQi'"):
            op(1.5, QQi(1))
    assert QQi(1) - 2 == -1 and 2 - QQi(1) == 1 and 2 / QQi(3) == Fraction(2, 3)


def test_reflected_operators_refuse_what_coerce_refuses():
    x = S("x1 + 1")
    for op in (operator.truediv, operator.sub):
        with pytest.raises(TypeError, match="'float' and 'ScalarExpr'"):
            op(1.5, x)
        with pytest.raises(TypeError, match="'ScalarExpr' and 'float'"):
            op(x, 1.5)
    assert x.__rtruediv__(1.5) is NotImplemented and x.__rsub__(1.5) is NotImplemented
    assert 2 - x == S("1 - x1") and Fraction(1, 2) / x == S("1/(2*x1 + 2)")


# ---------------------------------------------------------------------------
# Factored denominators: the factor-by-factor routes against sympy.cancel and
# against the expanded fraction rebuilt through one gcd
# ---------------------------------------------------------------------------


# Base factors in x1, x2: 1 + x1^2 and its square entered as one polynomial,
# two factors with the proper common factor x1 - 1, a trig factor, x2, and a
# divisor e^{i x2} (x1 + 1) whose exp factor is a unit
FACTOR_LEAVES = [S(t, ("x1", "x2")) for t in (
    "1/(1 + x1^2)", "x2/(1 + 2*x1^2 + x1^4)", "(x1 + 2)/(x1^2 - 1)", "x2/(x1^2 + x1 - 2)",
    "sin(x2)/(2 + cos(x2))", "(x1 - 1)/x2", "(1 + x1^2)/(x2*(x1 + 2))", "x1 - 1",
    "x1/((cos(x2) + i*sin(x2))*(x1 + 1))")]


def _assert_factored(s):
    """s.facs: unit-free factors, pairwise coprime, whose powers multiply out
    to den."""
    m = s.nvars
    product = TrigPoly.const(m, 1)
    for f, e in s.facs:
        assert e >= 1 and not f.is_const()
        assert all(min(k[m + j] for k in f.terms) == 0 for j in range(m))
        assert f.terms[max(f.terms, key=lambda k: (sum(k), k))] == 1
        for _ in range(e):
            product = product * f
    assert product == s.den
    for (f, _), (g, _) in itertools.combinations(s.facs, 2):
        assert poly_gcd(f.terms, g.terms) == {(0,) * 2 * m: 1}


def _sym_scalar(s, xs, zs):
    return _sym_trig(s.num, xs, zs) / _sym_trig(s.den, xs, zs)


def _factored_step(f, g, op, xs, zs):
    """op on f and g three ways: the factored route, sympy, and the expanded
    fraction (num, den) reduced through one gcd by ScalarExpr(nvars, num, den)."""
    nv = f.nvars
    if op in "de":  # d/dx1, d/dx2
        k = "de".index(op)
        got = f.partial(k)
        e = _sym_scalar(f, xs, zs)
        want = sympy.diff(e, xs[k]) + sympy.I * zs[k] * sympy.diff(e, zs[k])
        raw = (f.num.partial(k) * f.den - f.num * f.den.partial(k), f.den * f.den)
    else:
        got = {"+": f + g, "-": f - g, "*": f * g, "/": f / g}[op]
        a, b = _sym_scalar(f, xs, zs), _sym_scalar(g, xs, zs)
        want = {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op]
        raw = {"+": (f.num * g.den + g.num * f.den, f.den * g.den),
               "-": (f.num * g.den - g.num * f.den, f.den * g.den),
               "*": (f.num * g.num, f.den * g.den),
               "/": (f.num * g.den, f.den * g.num)}[op]
    _assert_canonical(got, want, xs, zs)
    _assert_factored(got)
    rebuilt = ScalarExpr(nv, *raw)
    assert got == rebuilt and hash(got) == hash(rebuilt)
    return got


def _factored_walk(steps):
    """Apply (op, i, j) steps to a pool that starts at FACTOR_LEAVES and
    grows by each result of depth 1 (an operation on leaves), so that sympy
    meets fractions of two levels at most; returns the results."""
    xs, zs = sympy.symbols("x1:3"), sympy.symbols("z1:3")
    pool, out = [(f, 0) for f in FACTOR_LEAVES], []
    for op, i, j in steps:
        (f, df), (g, dg) = pool[i % len(pool)], pool[j % len(pool)]
        if op == "/" and g.is_zero():
            continue
        out.append(_factored_step(f, g, op, xs, zs))
        if max(df, dg) == 0 and not out[-1].is_const():
            pool.append((out[-1], 1))
    return out


def test_factored_routes_match_sympy_and_the_one_gcd_route():
    rng = random.Random(21)
    steps = [(rng.choice("+-*/de"), rng.randrange(24), rng.randrange(24)) for _ in range(40)]
    got = _factored_walk([(op, i, i) for op in "de" for i in range(len(FACTOR_LEAVES))] + steps)
    factors = [f for s in got for f, _ in s.facs]
    # refinement ran: 1 + x1^2 meets its square, x1 - 1 splits off x1^2 - 1
    one_plus, shared = S("1/(1 + x1^2)", ("x1", "x2")), S("1/(x1 - 1)", ("x1", "x2"))
    assert one_plus.den in factors and shared.den in factors
    assert any(e >= 2 for s in got for _, e in s.facs)
    assert max(len(s.facs) for s in got) >= 3


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from("+-*/de"), st.integers(0, 12), st.integers(0, 12)),
                min_size=1, max_size=5))
def test_factored_routes_match_sympy_on_generated_walks(steps):
    _factored_walk(steps)


def test_every_scalar_of_the_cp2_curvature_scenes_is_factored(monkeypatch):
    """Every scalar built while fubini_study_cp2 is built and its gric_gr
    runs, and while cp2_three_lines is built and its E+- frame is found,
    carries a coprime, unit-free factor list that multiplies out to its
    denominator. Fubini-Study has the one factor 1 + |x|^2, in powers; the
    three lines add 1 + x1^2 + x2^2 and 1 + x3^2 + x4^2."""
    made = []
    init = ScalarExpr.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ScalarExpr, "__init__", recorded)
    gric_gr(CATALOG["fubini_study_cp2"]().pair())
    assert any(e >= 3 for s in made for _, e in s.facs)
    CATALOG["cp2_three_lines"]().pair().epm_frame()
    monkeypatch.undo()
    seen = {}
    for s in made:
        seen.setdefault((id(s.facs), id(s.den)), s)
    assert len(made) > 1000 and max(len(s.facs) for s in seen.values()) >= 2
    for s in seen.values():
        _assert_factored(s)
