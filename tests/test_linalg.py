import random
from fractions import Fraction

import pytest

from gkcurv import scalars, spinor
from gkcurv.curvature import NilpotentPath
from gkcurv.errors import EngineLimit
from gkcurv.examples import flat_kahler
from gkcurv.linalg import _solve_bareiss, mat_vec, solve_exact
from gkcurv.scalars import QQi, ScalarExpr

from conftest import chart_flat


def _system(chart, rows):
    return [[chart.sc(x) for x in row] for row in rows]


def _permuted(mat, rhs, seed):
    rng = random.Random(seed)
    rp = list(range(len(mat)))
    cp = list(range(len(mat[0])))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return [[mat[i][c] for c in cp] for i in rp], [rhs[i] for i in rp]


def _assert_same_as_monolithic(mat, rhs):
    sol = solve_exact(mat, rhs)
    assert sol is not None
    assert sol == _solve_bareiss(mat, rhs)
    assert mat_vec(mat, sol) == rhs
    return sol


def test_block_diagonal_permuted():
    chart = chart_flat(1, periodic=True)
    blocks = _system(chart, [
        ["cos(x1)", "1", "0", "0", "0"],
        ["sin(x2)", "2 + cos(x2)", "0", "0", "0"],
        ["0", "0", "1/(2 + sin(x1))", "cos(x1)", "0"],
        ["0", "0", "1", "3", "0"],
        ["0", "0", "0", "0", "1 + cos(x1 + x2)"],
    ])
    rhs = [chart.sc(x) for x in ("1", "cos(x1)", "sin(x2)", "1/3", "2")]
    for seed in range(3):
        mat, r = _permuted(blocks, rhs, seed)
        _assert_same_as_monolithic(mat, r)


def test_zero_row_with_nonzero_rhs_is_inconsistent():
    chart = chart_flat(1, periodic=True)
    mat = _system(chart, [["cos(x1)", "0"], ["0", "0"], ["0", "sin(x2)"]])
    rhs = [chart.sc("1"), chart.sc("cos(x2)"), chart.sc("1")]
    assert solve_exact(mat, rhs) is None
    assert _solve_bareiss(mat, rhs) is None
    rhs[1] = chart.zero_s()
    _assert_same_as_monolithic(mat, rhs)


def test_all_zero_column_gets_zero():
    chart = chart_flat(1, periodic=True)
    mat = _system(chart, [["cos(x1)", "0", "1"], ["1", "0", "sin(x1)"]])
    rhs = [chart.sc("1"), chart.sc("2")]
    sol = _assert_same_as_monolithic(mat, rhs)
    assert sol[1].is_zero()


def test_rank_deficient_block_keeps_pivot_columns():
    chart = chart_flat(1, periodic=True)
    # block {0, 1, 2}: column 1 = 2 * column 0 is free; block {3}: one pivot
    mat = _system(chart, [
        ["cos(x1)", "2*cos(x1)", "0", "0"],
        ["1", "2", "1/(2 + cos(x2))", "0"],
        ["sin(x1)", "2*sin(x1)", "0", "0"],
        ["0", "0", "0", "3 + sin(x2)"],
    ])
    rhs = [chart.sc(x) for x in ("cos(x1)", "1 + cos(x2)", "sin(x1)", "1")]
    for seed in range(3):
        sol = _assert_same_as_monolithic(*_permuted(mat, rhs, seed))
        assert sum(x.is_zero() for x in sol) == 1
    sol = _assert_same_as_monolithic(mat, rhs)
    assert sol[1].is_zero() and not sol[0].is_zero()


def test_real_t4_system(monkeypatch):
    pair = flat_kahler(2, periodic=True).pair()
    frame = pair.epm_frame()
    c = ScalarExpr.cos(4, (1, 0, 0, 0))
    moved = NilpotentPath(pair, [(c, frame.eplus[0], frame.eminus[0])]) \
        .pair_at(Fraction(1, 100))
    systems = []

    def capture(mat, rhs):
        systems.append((mat, rhs))
        return solve_exact(mat, rhs)

    monkeypatch.setattr(spinor, "solve_exact", capture)
    spinor.eta_N_extract(moved.j1)
    (mat, rhs), = systems
    assert (len(mat), len(mat[0])) == (8, 8)
    assert sum(not x.is_zero() for row in mat for x in row) == 16
    _assert_same_as_monolithic(mat, rhs)


def test_engine_failure_raises_instead_of_none(monkeypatch):
    chart = chart_flat(1, periodic=True)
    mat = _system(chart, [["cos(x1)", "1"], ["1", "sin(x1)"]])
    rhs = [chart.sc("1"), chart.sc("2")]
    monkeypatch.setattr(scalars, "trig_div_exact", lambda a, b: None)
    with pytest.raises(EngineLimit):
        solve_exact(mat, rhs)


def test_field_entries_use_rref():
    mat = [[QQi(1), QQi(2)], [QQi(2), QQi(4)]]
    assert solve_exact(mat, [QQi(1), QQi(2)]) == [QQi(1), QQi(0)]
    assert solve_exact(mat, [QQi(1), QQi(3)]) is None
