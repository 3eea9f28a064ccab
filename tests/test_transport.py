"""Metamorphic tests: moving a pair moves its curvature the same way."""

from fractions import Fraction

import pytest

from gkcurv.curvature import gric_gr
from gkcurv.errors import NotClosed, SingularMap
from gkcurv.examples import t4_nonintegrable
from gkcurv.transport import transport_affine, transport_b

# I + E_01 - E_32: unimodular, so it keeps the frequency lattice
A_UNIMODULAR = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]
# t = (0, pi, 1/2, 0); pi-parts are (rational, multiple of pi) pairs
T_SHIFT = [0, (0, 1), Fraction(1, 2), 0]


@pytest.fixture(scope="module")
def nonintegrable():
    pair = t4_nonintegrable().pair()
    rep = gric_gr(pair)
    # the invariance checks below are nontrivial on this pair
    assert not rep.gric.is_zero() and not rep.gr.is_const()
    return pair, rep


def test_closed_b_field_leaves_curvature_unchanged(nonintegrable):
    pair, rep = nonintegrable
    chart = pair.chart
    b2 = chart.form({(0, 1): 1, (2, 3): "x3"})
    assert b2.ext_d().is_zero()
    moved = gric_gr(transport_b(pair, b2))
    assert moved.gric == rep.gric
    assert moved.gr == rep.gr


def test_transport_b_refuses_a_b_that_is_not_closed(nonintegrable):
    pair, _ = nonintegrable
    with pytest.raises(NotClosed):
        transport_b(pair, pair.chart.form({(0, 1): "x3"}))


def test_affine_transport_pulls_curvature_back(nonintegrable):
    pair, rep = nonintegrable
    chart = pair.chart
    moved = gric_gr(transport_affine(pair, A_UNIMODULAR, T_SHIFT))
    assert moved.gric == rep.gric.pullback_affine(A_UNIMODULAR, T_SHIFT)
    gr_sub = chart.func(rep.gr).pullback_affine(A_UNIMODULAR, T_SHIFT)
    assert moved.gr == gr_sub.coefficient(())
    assert moved.gr != rep.gr


def test_singular_map_raises(nonintegrable):
    pair, _ = nonintegrable
    singular = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2]]
    with pytest.raises(SingularMap):
        transport_affine(pair, singular)
    with pytest.raises(SingularMap):
        pair.omega.pullback_affine(singular)
