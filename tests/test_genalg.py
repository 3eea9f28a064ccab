import itertools
import random
from fractions import Fraction

import pytest

from gkcurv.forms import _perm_sign, keyed_sum
from gkcurv.genalg import (GenVec, PolyVec, ad_b, basis_terms, clifford_act,
                           dorfman, gen_lie_J, genvec_wedge, interior, pair_tt,
                           wedge_sum)
from gkcurv.scalars import ScalarExpr, _acc

from conftest import _basis_act, chart_flat, random_form, random_scalar


def random_genvec(rng, chart, trig=True, mono=True):
    dim = chart.dim
    return GenVec(chart,
                  [random_scalar(rng, chart, trig, mono, 1) for _ in range(dim)],
                  [random_scalar(rng, chart, trig, mono, 1) for _ in range(dim)])


def test_pair_basics(chart2):
    d1 = GenVec.basis(chart2, 0)
    d2 = GenVec.basis(chart2, 1)
    dx1 = GenVec.basis(chart2, 2)
    e = d1 + dx1
    assert pair_tt(e, e) == chart2.one_s()
    assert pair_tt(d1, d2).is_zero()
    assert pair_tt(d1, dx1) == chart2.const(Fraction(1, 2))


def test_clifford_interior_and_wedge(chart2):
    vol = chart2.volume()
    d1 = GenVec.basis(chart2, 0)
    assert clifford_act(d1, vol) == chart2.dx(1)
    dx1 = GenVec.basis(chart2, 2)
    dx2 = GenVec.basis(chart2, 3)
    assert clifford_act(dx1, clifford_act(dx2, chart2.func(1))) == \
        chart2.form({(0, 1): 1})


def test_clifford_square(chart2):
    rng = random.Random(1)
    d1 = GenVec.basis(chart2, 0)
    dx1 = GenVec.basis(chart2, 2)
    e = d1 + dx1
    for _ in range(10):
        a = random_form(rng, chart2)
        assert clifford_act(e, clifford_act(e, a)) == a


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_relation_random(n):
    chart = chart_flat(n)
    rng = random.Random(100 + n)
    reps = 25 if n < 3 else 6
    for _ in range(reps):
        e1 = random_genvec(rng, chart)
        e2 = random_genvec(rng, chart)
        a = random_form(rng, chart, max_terms=1)
        lhs = clifford_act(e1, clifford_act(e2, a)) + \
            clifford_act(e2, clifford_act(e1, a))
        rhs = a.scale(pair_tt(e1, e2) * 2)
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2])
def test_mukai_adjoint_exhaustive(n):
    """<e.a, b> + <a, e.b> = 0 over the whole coordinate basis."""
    chart = chart_flat(n)
    import itertools
    basis_forms = [chart.form({idx: 1}) for k in range(chart.dim + 1)
                   for idx in itertools.combinations(range(chart.dim), k)]
    for a_id in range(2 * chart.dim):
        e = GenVec.basis(chart, a_id)
        for alpha in basis_forms:
            for beta in basis_forms:
                lhs = clifford_act(e, alpha).mukai(beta) + \
                    alpha.mukai(clifford_act(e, beta))
                assert lhs.is_zero()


def test_polarization_calibrated_sign(chart4):
    """<e1.w1, e2.w2> + <e2.w1, e1.w2> = s * 2<e1,e2><w1,w2> with s = -1."""
    rng = random.Random(23)
    for _ in range(30):
        e1 = random_genvec(rng, chart4)
        e2 = random_genvec(rng, chart4)
        w1 = random_form(rng, chart4, max_terms=1)
        w2 = random_form(rng, chart4, max_terms=1)
        lhs = clifford_act(e1, w1).mukai(clifford_act(e2, w2)) + \
            clifford_act(e2, w1).mukai(clifford_act(e1, w2))
        rhs = w1.mukai(w2).scale(pair_tt(e1, e2) * (-2))
        assert lhs == rhs


def _d(chart, f):
    """The differential of a function as a covector section."""
    return GenVec.covector(chart, [f.partial(k) for k in range(chart.dim)])


def test_courant_examples(chart2):
    """Worked Dorfman brackets, and [x, x] = d<x, x>: the symmetric part is
    exact, so the Courant bracket is the Dorfman bracket's antisymmetric
    half."""
    d1 = GenVec.basis(chart2, 0)
    d2 = GenVec.basis(chart2, 1)
    assert dorfman(d1, d2).is_zero()
    assert dorfman(d1, GenVec(chart2, [0, 0], [0, "x1"])) == \
        GenVec.covector(chart2, [0, 1])
    rng = random.Random(3)
    for chart in (chart2, chart_flat(2)):
        for _ in range(10):
            x = random_genvec(rng, chart)
            want = _d(chart, pair_tt(x, x))
            assert not want.is_zero() and dorfman(x, x) == want


def test_courant_antisymmetric_dorfman_leibniz(chart4):
    rng = random.Random(5)
    for _ in range(8):
        a = random_genvec(rng, chart4, trig=False)
        b = random_genvec(rng, chart4, trig=False)
        c = random_genvec(rng, chart4, trig=False)
        sym = dorfman(a, b) + dorfman(b, a)
        assert sym == _d(chart4, pair_tt(a, b) * 2)
        lhs = dorfman(a, dorfman(b, c))
        rhs = dorfman(dorfman(a, b), c) + dorfman(b, dorfman(a, c))
        assert (lhs - rhs).is_zero()


def test_ad_b(chart4):
    rng = random.Random(9)
    b = chart4.form({(0, 1): "x3", (2, 3): 1}).ext_d()  # not closed: make one
    b = chart4.form({(0, 1): 2, (1, 2): "x1"})
    if not b.ext_d().is_zero():
        b = chart4.form({(0, 1): 2, (1, 2): 1})
    d1 = GenVec.basis(chart4, 0)
    got = ad_b(b, d1)
    ivb = interior(chart4, d1.v, b)
    assert got.covector_form() == -ivb
    x = random_genvec(rng, chart4)
    assert ad_b(chart4.zero_form(), x) == x
    for _ in range(10):
        e1 = random_genvec(rng, chart4)
        e2 = random_genvec(rng, chart4)
        assert pair_tt(ad_b(b, e1), ad_b(b, e2)) == pair_tt(e1, e2)


def test_ad_b_composition(chart4):
    rng = random.Random(11)
    b1 = chart4.form({(0, 1): 1, (0, 2): -2})
    b2 = chart4.form({(1, 3): 3, (2, 3): 1})
    e = random_genvec(rng, chart4)
    assert ad_b(b1, ad_b(b2, e)) == ad_b(b1 + b2, e)


def test_ad_b_spin_compatibility(chart4):
    """Ad_{e^b}(x) . (e^b ^ a) = e^b ^ (x . a)."""
    rng = random.Random(13)
    b = chart4.form({(0, 1): "x3", (2, 3): 2})
    b = b if b.ext_d().is_zero() else chart4.form({(0, 1): 1})
    eb = b.exp()
    for _ in range(10):
        x = random_genvec(rng, chart4)
        a = random_form(rng, chart4)
        lhs = clifford_act(ad_b(b, x), eb.wedge(a))
        rhs = eb.wedge(clifford_act(x, a))
        assert lhs == rhs


def test_bivector_ad_basics(chart4):
    d1 = GenVec.basis(chart4, 0)
    d3 = GenVec.basis(chart4, 2)
    beta = genvec_wedge(d1, d3)
    dx1 = GenVec.basis(chart4, 4)
    # [d1 ^ d3, dx1] = 2<d3, dx1>d1 - 2<d1, dx1>d3 = -d3
    assert beta.ad(dx1) == -d3
    assert PolyVec(chart4, 2).ad(GenVec.basis(chart4, 5)).is_zero()


def test_quantize_matches_clifford_product_isotropic(chart4):
    rng = random.Random(19)
    for _ in range(10):
        # two vectors: always isotropic, quantize = composed interior products
        u = GenVec.vector(chart4, [random_scalar(rng, chart4, max_terms=1)
                                   for _ in range(4)])
        w = GenVec.vector(chart4, [random_scalar(rng, chart4, max_terms=1)
                                   for _ in range(4)])
        h = genvec_wedge(u, w)
        a = random_form(rng, chart4)
        lhs = h.spin_act(a)
        rhs = clifford_act(u, clifford_act(w, a))
        assert lhs == rhs


def test_spin_rep_ad_compatibility(chart4):
    """[quantize(h), e.] = (ad_h e) . on forms, for mixed-index bivectors."""
    rng = random.Random(21)
    for _ in range(10):
        h = genvec_wedge(random_genvec(rng, chart4, trig=False),
                         random_genvec(rng, chart4, trig=False))
        e = random_genvec(rng, chart4, trig=False)
        a = random_form(rng, chart4, trig=False, max_terms=1)
        lhs = h.spin_act(clifford_act(e, a)) - clifford_act(e, h.spin_act(a))
        rhs = clifford_act(h.ad(e), a)
        assert lhs == rhs


def test_trivec_action_isotropic(chart4):
    rng = random.Random(23)
    u = GenVec.vector(chart4, ["x2", 0, 1, 0])
    w = GenVec.vector(chart4, [0, 1, 0, 0])
    z = GenVec.vector(chart4, [0, 0, "x1", 2])
    t = genvec_wedge(u, w, z)
    for _ in range(6):
        a = random_form(rng, chart4)
        lhs = t.spin_act(a)
        rhs = clifford_act(u, clifford_act(w, clifford_act(z, a)))
        assert lhs == rhs


def _trivec_act_by_permutations(t, form):
    """(1/6) sum over the 6 orderings s of sign(s) E_s(1) E_s(2) E_s(3) . form."""
    chart = t.chart
    out = chart.zero_form()
    for idx, c in t.coef.items():
        acc = chart.zero_form()
        for perm in itertools.permutations(idx):
            piece = form
            for a in reversed(perm):
                piece = clifford_act(GenVec.basis(chart, a), piece)
            acc = acc + (piece if _perm_sign(perm) > 0 else -piece)
        out = out + acc.scale(c * Fraction(1, 6))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_trivec_action_with_partner_pairs_matches_permutation_sum(n):
    """Mixed trivectors whose index triples hold a pair d/dx_k, dx_k in each
    of the three positions, so every pairing term of the action is used."""
    chart = chart_flat(n)
    dim = chart.dim
    rng = random.Random(31 + n)
    for _ in range(4 if n == 2 else 2):
        coef = {}
        paired = set()  # which of (a, b), (a, c), (b, c) are partners
        while len(coef) < 5 or len(paired) < 3:
            k, j = rng.sample(range(dim), 2)
            idx = tuple(sorted((k, k + dim, rng.choice([j, j + dim]))))
            coef[idx] = random_scalar(rng, chart, max_terms=1)
            paired.add(next(p for p, (x, y) in enumerate(
                itertools.combinations(idx, 2)) if y - x == dim))
        t = PolyVec(chart, 3, coef)
        for _ in range(3):
            a = random_form(rng, chart)
            got = t.spin_act(a)
            ref = _trivec_act_by_permutations(t, a)
            assert list(got.terms.items()) == list(ref.terms.items())


def _wedge_by_minors(vecs):
    chart = vecs[0].chart
    cols = [e.column() for e in vecs]
    coef = {}
    for idx in itertools.combinations(range(2 * chart.dim), len(vecs)):
        s = chart.zero_s()
        for perm in itertools.permutations(range(len(vecs))):
            term = chart.one_s()
            for r, p in enumerate(perm):
                term = term * cols[r][idx[p]]
            s = s + (term if _perm_sign(perm) > 0 else -term)
        if not s.is_zero():
            coef[idx] = s
    return coef


@pytest.mark.parametrize("n", [1, 2, 3])
def test_genvec_wedge_matches_minor_determinants(n):
    chart = chart_flat(n)
    rng = random.Random(41 + n)

    def section():
        keep = rng.choice([0.3, 0.6, 1.0])
        return GenVec.from_column(chart, [
            random_scalar(rng, chart, max_terms=1) if rng.random() < keep else 0
            for _ in range(2 * chart.dim)])

    for k in (2, 3):
        for _ in range(6 if n < 3 else 3):
            vecs = [section() for _ in range(k)]
            if rng.random() < 0.2:
                vecs[-1] = vecs[0].scale(random_scalar(rng, chart))
            got = genvec_wedge(*vecs)
            assert list(got.coef.items()) == list(_wedge_by_minors(vecs).items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_act_matches_clifford_act(n):
    chart = chart_flat(n)
    rng = random.Random(51 + n)
    for _ in range(4):
        a = random_form(rng, chart, max_terms=3)
        for k in range(2 * chart.dim):
            got = _basis_act(chart, k, a)
            ref = clifford_act(GenVec.basis(chart, k), a)
            assert list(got.terms.items()) == list(ref.terms.items())


@pytest.mark.parametrize("n", [1, 2])
def test_basis_terms_match_spin_act(n):
    """E_key . form summed from `basis_terms` index by index equals the
    spin action of the basis section (grade 1), bivector (grade 2, the
    pairing term included where b - a = dim) or trivector (grade 3)."""
    chart = chart_flat(n)
    rng = random.Random(61 + n)
    keys = [(a,) for a in range(2 * chart.dim)]
    keys += [key for grade in (2, 3)
             for key in itertools.combinations(range(2 * chart.dim), grade)]
    for _ in range(3):
        form = random_form(rng, chart, max_terms=4)
        for key in keys:
            got = {}
            for idx, c in form.terms.items():
                for out, f in basis_terms(chart.dim, key, idx):
                    _acc(got, out, c * f)
            ref = (clifford_act(GenVec.basis(chart, key[0]), form) if len(key) == 1
                   else PolyVec(chart, len(key), {key: 1}).spin_act(form))
            assert got == ref.terms, key


# ---------------------------------------------------------------------------
# Keyed sums against the sequential sums they replace
# ---------------------------------------------------------------------------

# Denominators that are equal (D), nested (D, D^2) and coprime (D, E), with
# D and E trig-rational so the sums need real gcds
COEFF_TEXTS = ["x1/(2 + cos(x3))", "(x2 - 1)/(2 + cos(x3))",
               "sin(x4)/(2 + cos(x3))^2", "1/(2 + cos(x3))^2",
               "x3/(1 + x4^2)", "cos(x1)/(1 + x4^2)", "3/7", "i*x2"]


def _spin_act_sequential(h, form):
    """The spin action as each piece scaled, then added to the running form."""
    chart = h.chart
    dim = chart.dim
    half = Fraction(1, 2)
    out = chart.zero_form()
    for idx, c in h.coef.items():
        if h.grade == 2:
            a, b = idx
            piece = _basis_act(chart, a, _basis_act(chart, b, form))
            if b - a == dim:
                piece = piece - form.scale(half)
        else:
            a, b, d = idx
            piece = _basis_act(chart, a, _basis_act(chart, b,
                                                    _basis_act(chart, d, form)))
            if d - b == dim:
                piece = piece - _basis_act(chart, a, form).scale(half)
            elif d - a == dim:
                piece = piece + _basis_act(chart, b, form).scale(half)
            elif b - a == dim:
                piece = piece - _basis_act(chart, d, form).scale(half)
        out = out + piece.scale(c)
    return out


def test_spin_act_cancel_and_reenter_keeps_sequential_order(chart4):
    """The constant term gets c/2, then -c/2 (dropped), then re-enters after
    the dx1^dx2 term, as in the sequential sum."""
    c = chart4.sc(COEFF_TEXTS[0])
    h = PolyVec(chart4, 2, {(0, 4): c, (4, 5): chart4.sc(COEFF_TEXTS[2]),
                            (1, 5): -c, (2, 6): chart4.sc(COEFF_TEXTS[4])})
    one = chart4.func(1)
    got = h.spin_act(one)
    assert list(got.terms) == [(0, 1), ()]
    assert list(got.terms.items()) == list(_spin_act_sequential(h, one).terms.items())


@pytest.mark.parametrize("grade", [2, 3])
def test_spin_act_keyed_sum_matches_sequential_sum(chart4, grade):
    rng = random.Random(61 + grade)
    coeffs = [chart4.sc(t) for t in COEFF_TEXTS]
    idxs = list(itertools.combinations(range(2 * chart4.dim), grade))
    for _ in range(6):
        h = PolyVec(chart4, grade, {idx: rng.choice(coeffs)
                                    for idx in rng.sample(idxs, 6)})
        for _ in range(2):
            a = random_form(rng, chart4, max_terms=3)
            got = h.spin_act(a)
            assert list(got.terms.items()) == \
                list(_spin_act_sequential(h, a).terms.items())


def test_wedge_sum_matches_sequential_sum(chart4):
    """Terms with zero, equal-, nested- and coprime-denominator coefficients,
    one of them cancelling an earlier term."""
    rng = random.Random(67)
    coeffs = [chart4.sc(t) for t in COEFF_TEXTS] + [0]
    for grade in (2, 3):
        for _ in range(4):
            vecs = [GenVec.from_column(chart4, [
                random_scalar(rng, chart4, max_terms=1) if rng.random() < 0.5
                else 0 for _ in range(2 * chart4.dim)]) for _ in range(grade + 1)]
            terms = [(rng.choice(coeffs), *rng.sample(vecs, grade))
                     for _ in range(4)]
            terms.insert(2, (-chart4._as_scalar(terms[0][0]), *terms[0][1:]))
            ref = PolyVec(chart4, grade)
            for c, *xs in terms:
                ref = ref + genvec_wedge(*xs).scale(c)
            got = wedge_sum(chart4, grade, terms)
            assert list(got.coef.items()) == list(ref.coef.items())


# ---------------------------------------------------------------------------
# Keyed sums: one normalization per key, the key order of adding one by one
# ---------------------------------------------------------------------------


def _sequential_sum(contribs):
    """Each product x * y normalized, then added to its key's running sum."""
    out = {}
    for key, x, y in contribs:
        s = out.get(key)
        s = x * y if s is None else s + x * y
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def test_keyed_sum_drops_a_cancelled_key_and_appends_it_again(chart4):
    f, g = chart4.sc("x1/(1 + x2^2)"), chart4.sc("cos(x1)/(2 + sin(x2))")
    one = chart4.one_s()
    contribs = [("a", f, one), ("b", g, one), ("a", -f, one), ("c", f, g),
                ("a", one, g)]
    got = keyed_sum(4, contribs)
    assert list(got) == ["b", "c", "a"]
    assert got == {"a": g, "b": g, "c": f * g}
    assert list(got.items()) == list(_sequential_sum(contribs).items())


def test_keyed_sum_matches_sequential_sums(chart4):
    """Products over equal, nested (D, D^2) and coprime denominators; some
    contributions cancel a key's running sum."""
    rng = random.Random(11)
    pool = [chart4.sc(t) for t in ("x1/(2 + cos(x2))", "(x1 - 1)/(2 + cos(x2))",
                                   "sin(x1)/(2 + cos(x2))^2", "x2/(1 + x1^2)",
                                   "(1 + x1^2)/(2 + cos(x2))", "2/3", "i*x1 + cos(x2)")]
    cancelled = 0
    for _ in range(12):
        contribs, running = [], {}
        for _ in range(14):
            key = rng.choice("abcd")
            f, g = rng.choice(pool), rng.choice(pool)
            if key in running and rng.random() < 0.2:
                f, g = -running[key], ScalarExpr.one(4)
                cancelled += 1
            contribs.append((key, f, g))
            running[key] = running.get(key, ScalarExpr.zero(4)) + f * g
        got = keyed_sum(4, contribs)
        assert list(got.items()) == list(_sequential_sum(contribs).items())
        assert got == {k: v for k, v in running.items() if not v.is_zero()}
    assert cancelled >= 10


def test_gen_lie_translation_invariance(chart2):
    # constant J (flat symplectic block form), constant e -> L_e J = 0
    z, o = chart2.zero_s(), chart2.one_s()
    jmat = [[z, z, z, o], [z, z, -o, z], [z, -o, z, z], [o, z, z, z]]
    # columns: J(d1) = dx2 etc.; exact block values are checked in spinor tests
    e = GenVec.basis(chart2, 0)
    out = gen_lie_J(e, jmat)
    assert all(x.is_zero() for row in out for x in row)
