from fractions import Fraction

import pytest

from gkcurv.forms import Chart, Form, _sort_index
from gkcurv.genalg import GenVec, _move, pair_tt
from gkcurv.linalg import mat_inverse
from gkcurv.scalars import QQi, ScalarExpr, _acc


chart_flat = Chart.flat


@pytest.fixture
def chart2():
    return chart_flat(1)


@pytest.fixture
def chart4():
    return chart_flat(2)


@pytest.fixture
def torus4():
    return chart_flat(2, periodic=True)


def random_scalar(rng, chart, trig=True, mono=True, max_terms=2):
    """Small random exact scalar: rational constants, low-degree monos, 1-freq trig."""
    dim = chart.dim
    out = chart.zero_s()
    for _ in range(rng.randint(1, max_terms)):
        c = QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), 1))
        term = chart.const(c)
        kind = rng.random()
        if kind < 0.4 or not (trig or mono):
            pass
        elif (kind < 0.7 and mono) or not trig:
            k = rng.randrange(dim)
            term = term * chart.coord_s(k) ** rng.randint(1, 2)
        else:
            freq = [0] * dim
            freq[rng.randrange(dim)] = rng.choice([-1, 1])
            fn = ScalarExpr.cos if rng.random() < 0.5 else ScalarExpr.sin
            term = term * fn(dim, tuple(freq))
        out = out + term
    return out


def random_form(rng, chart, degrees=None, trig=True, mono=True, max_terms=2):
    dim = chart.dim
    if degrees is None:
        degrees = range(dim + 1)
    terms = {}
    for k in degrees:
        for _ in range(rng.randint(0, max_terms)):
            idx = tuple(sorted(rng.sample(range(dim), k)))
            c = random_scalar(rng, chart, trig=trig, mono=mono, max_terms=1)
            if c.is_zero():
                continue
            terms[idx] = terms.get(idx, chart.zero_s()) + c
    return chart.form(terms)


def pairing_inverse_duals(chart, es):
    """Oracle for the E+- dual frames, independent of the J matrices: P^-1
    applied to conj(es), for the pairing matrix P_ij = 2<conj e_i, e_j>."""
    ebars = [e.conj() for e in es]
    n = len(es)
    p = [[pair_tt(ebars[i], es[j]) * 2 for j in range(n)] for i in range(n)]
    pinv = mat_inverse(p)
    assert pinv is not None
    duals = []
    for i in range(n):
        d = GenVec.zero(chart)
        for k in range(n):
            d = d + ebars[k].scale(pinv[i][k])
        duals.append(d)
    return duals


def _basis_act(chart, a, form):
    """Oracle for one basis section's Clifford action, E_a . form, by index
    moves (`genalg._move`). Distinct input indices give distinct outputs,
    so the result keeps the input's key order and no coefficient is summed."""
    out = {}
    for idx, c in form.terms.items():
        if (r := _move(chart.dim, a, idx)) is not None:
            out[r[0]] = c if r[1] > 0 else -c
    return Form(chart, out)


def wedge_by_terms(a, b):
    """Oracle for `Form.wedge`: each product of scalars added in turn."""
    out = {}
    for i1, c1 in a.terms.items():
        for i2, c2 in b.terms.items():
            idx, sign = _sort_index(i1 + i2)
            if idx is None:
                continue
            c = c1 * c2
            _acc(out, idx, c if sign > 0 else -c)
    return Form(a.chart, out)


def ext_d_by_terms(a):
    """Oracle for `Form.ext_d`: each `ScalarExpr.partial` added in turn."""
    out = {}
    for idx, c in a.terms.items():
        for k in range(a.chart.dim):
            if k in idx:
                continue
            dc = c.partial(k)
            if dc.is_zero():
                continue
            new, sign = _sort_index((k, *idx))
            _acc(out, new, dc if sign > 0 else -dc)
    return Form(a.chart, out)
