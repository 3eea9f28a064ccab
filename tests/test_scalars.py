import functools
import random
from fractions import Fraction

import pytest
import sympy

from gkcurv import scalars
from gkcurv.errors import DivisionByZero, EvaluationPole
from gkcurv.scalars import (Point, QQi, ScalarExpr, TrigPoly, _p_div_exact,
                            _p_mul, parse_scalar, poly_gcd)

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
    return TrigPoly(nv, {(tuple(rng.randint(0, 2) for _ in range(nv)),
                          tuple(rng.randint(-2, 2) for _ in range(nv))):
                         _rand_qqi(rng) for _ in range(terms)})


def _sym_trig(p, xs, zs):
    return sympy.Add(*[_sym(c) * sympy.Mul(*[x ** e for x, e in zip(xs, mono)])
                       * sympy.Mul(*[z ** f for z, f in zip(zs, freq)])
                       for (mono, freq), c in p.terms.items()])


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
    return out


def test_poly_gcd_matches_monic_sympy_gcd():
    pairs = _gcd_pairs()
    assert sum(len(g) > 1 for *_, g in pairs) >= 12
    for xs, a, b, want in pairs:
        assert poly_gcd(a, b) == want


def test_coprime_pairs_return_from_the_proof_without_prs(monkeypatch):
    pairs = [p for p in _gcd_pairs() if len(p[3]) == 1]
    assert len(pairs) >= 10

    def forbidden(*args):
        raise AssertionError("coprime pair reached division or PRS")

    monkeypatch.setattr(scalars, "_p_div_exact", forbidden)
    monkeypatch.setattr(scalars, "_pseudo_rem", forbidden)
    for xs, a, b, want in pairs:
        assert poly_gcd(a, b) == want


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
    zero = (0,) * s.nvars
    return (s.is_const() and s.den.terms == {(zero, zero): QQi(1)}
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
