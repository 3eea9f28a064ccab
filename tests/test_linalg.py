import random
from fractions import Fraction

import sympy

from gkcurv import spinor
from gkcurv.curvature import NilpotentPath
from gkcurv.examples import flat_kahler
from gkcurv.linalg import (kernel_basis, mat_inverse, mat_mul, mat_vec, rref,
                           solve_exact)
from gkcurv.scalars import QQi, ScalarExpr

from conftest import chart_flat, random_scalar


def _system(chart, rows):
    return [[chart.sc(x) for x in row] for row in rows]


def _permuted(mat, rhs, seed):
    """Rows and columns shuffled; cp[k] is the old index of new column k."""
    rng = random.Random(seed)
    rp = list(range(len(mat)))
    cp = list(range(len(mat[0])))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return [[mat[i][c] for c in cp] for i in rp], [rhs[i] for i in rp], cp


def _assert_solves(mat, rhs, free=()):
    """A solution exists, solves the system and is zero on the free columns."""
    sol = solve_exact(mat, rhs)
    assert sol is not None
    assert mat_vec(mat, sol) == rhs
    assert all(sol[c].is_zero() for c in free)
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
    sol = _assert_solves(blocks, rhs)
    for seed in range(3):
        mat, r, cp = _permuted(blocks, rhs, seed)
        assert _assert_solves(mat, r) == [sol[c] for c in cp]


def test_zero_row_with_nonzero_rhs_is_inconsistent():
    chart = chart_flat(1, periodic=True)
    mat = _system(chart, [["cos(x1)", "0"], ["0", "0"], ["0", "sin(x2)"]])
    rhs = [chart.sc("1"), chart.sc("cos(x2)"), chart.sc("1")]
    assert solve_exact(mat, rhs) is None
    rhs[1] = chart.zero_s()
    _assert_solves(mat, rhs)


def test_all_zero_column_gets_zero():
    chart = chart_flat(1, periodic=True)
    mat = _system(chart, [["cos(x1)", "0", "1"], ["1", "0", "sin(x1)"]])
    rhs = [chart.sc("1"), chart.sc("2")]
    _assert_solves(mat, rhs, free=(1,))


def test_rank_deficient_block_keeps_pivot_columns():
    chart = chart_flat(1, periodic=True)
    # block {0, 1, 2}: column 1 = 2 * column 0; block {3}: one pivot.  Of
    # columns 0 and 1 the one that comes later is free.
    mat = _system(chart, [
        ["cos(x1)", "2*cos(x1)", "0", "0"],
        ["1", "2", "1/(2 + cos(x2))", "0"],
        ["sin(x1)", "2*sin(x1)", "0", "0"],
        ["0", "0", "0", "3 + sin(x2)"],
    ])
    rhs = [chart.sc(x) for x in ("cos(x1)", "1 + cos(x2)", "sin(x1)", "1")]
    for seed in range(3):
        m, r, cp = _permuted(mat, rhs, seed)
        free = max(cp.index(0), cp.index(1))
        sol = _assert_solves(m, r, free=(free,))
        assert sum(x.is_zero() for x in sol) == 1
    sol = _assert_solves(mat, rhs, free=(1,))
    assert not sol[0].is_zero()


def test_real_t4_system(monkeypatch):
    pair = flat_kahler(2, periodic=True).pair()
    frame = pair.epm_frame()
    c = ScalarExpr.cos(4, (1, 0, 0, 0))
    moved = NilpotentPath(pair, [(c, frame.eplus[0], frame.eminus[0])]).pair_at()
    systems = []

    def capture(mat, rhs):
        systems.append((mat, rhs))
        return solve_exact(mat, rhs)

    monkeypatch.setattr(spinor, "solve_exact", capture)
    spinor.eta_N_extract(moved.j1)
    (mat, rhs), = systems
    assert (len(mat), len(mat[0])) == (8, 8)
    assert sum(not x.is_zero() for row in mat for x in row) == 16
    _assert_solves(mat, rhs)


def test_field_entries_use_rref():
    mat = [[QQi(1), QQi(2)], [QQi(2), QQi(4)]]
    assert solve_exact(mat, [QQi(1), QQi(2)]) == [QQi(1), QQi(0)]
    assert solve_exact(mat, [QQi(1), QQi(3)]) is None


def test_all_zero_matrix_kernel_is_identity():
    chart = chart_flat(1, periodic=True)
    for zero, one in ((QQi(0), QQi(1)), (chart.zero_s(), chart.one_s())):
        ker = kernel_basis([[zero] * 3 for _ in range(2)])
        assert ker == [[one if i == j else zero for j in range(3)]
                       for i in range(3)]


# ---------------------------------------------------------------------------
# sympy oracle on Gaussian-rational matrices
# ---------------------------------------------------------------------------


def _random_qqi(rng):
    if rng.random() < 0.3:
        return QQi(0)
    return QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
               Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def _random_matrix(rng, nrow, ncol):
    mat = [[_random_qqi(rng) for _ in range(ncol)] for _ in range(nrow)]
    if rng.random() < 0.5:
        # a product through a narrower middle is rank-deficient
        k = rng.randint(1, max(1, min(nrow, ncol) - 1))
        mat = mat_mul([row[:k] for row in mat],
                      [[_random_qqi(rng) for _ in range(ncol)]
                       for _ in range(k)])
    return mat


def _to_sympy(mat):
    return sympy.Matrix([[sympy.Rational(x.re.numerator, x.re.denominator)
                          + sympy.I * sympy.Rational(x.im.numerator,
                                                     x.im.denominator)
                          for x in row] for row in mat])


def _from_sympy(m):
    out = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            re, im = sympy.expand(m[i, j]).as_real_imag()
            row.append(QQi(Fraction(int(re.p), int(re.q)),
                           Fraction(int(im.p), int(im.q))))
        out.append(row)
    return out


def _oracle_solve(mat, rhs):
    aug = _to_sympy([row + [b] for row, b in zip(mat, rhs)])
    red, pivots = aug.rref(simplify=True)
    ncol = len(mat[0])
    if ncol in pivots:
        return None
    red = _from_sympy(red)
    sol = [QQi(0)] * ncol
    for r, c in enumerate(pivots):
        sol[c] = red[r][ncol]
    return sol


def test_sympy_oracle_on_random_qqi_matrices():
    rng = random.Random(20161225)
    shapes = [(n, m) for n in range(1, 6) for m in range(1, 6)]
    singular = deficient = 0
    for nrow, ncol in shapes + shapes:
        mat = _random_matrix(rng, nrow, ncol)
        smat = _to_sympy(mat)
        rows, _, pivots = rref(mat)
        sred, spiv = smat.rref(simplify=True)
        assert list(spiv) == pivots
        assert rows == _from_sympy(sred)
        deficient += len(pivots) < min(nrow, ncol)

        ker = kernel_basis(mat)
        assert ker == [[x for row in _from_sympy(v) for x in row]
                       for v in smat.nullspace(simplify=True)]
        assert all(mat_vec(mat, v) == [QQi(0)] * nrow for v in ker)

        x = [_random_qqi(rng) for _ in range(ncol)]
        for rhs in (mat_vec(mat, x), [_random_qqi(rng) for _ in range(nrow)]):
            sol = solve_exact(mat, rhs)
            assert sol == _oracle_solve(mat, rhs)
            assert sol is None or mat_vec(mat, sol) == rhs
        assert solve_exact(mat, mat_vec(mat, x)) is not None

        if nrow == ncol:
            inv = mat_inverse(mat)
            if smat.rank() < nrow:
                singular += 1
                assert inv is None
            else:
                assert inv == _from_sympy(smat.inv())
    assert singular >= 3 and deficient >= 10


def _dense_mat_mul(a, b):
    """The product loop that adds every term, those with a zero factor too."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            s = a[i][0] * b[0][j]
            for t in range(1, len(b)):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def _layout(x):
    """Terms in key order and the factored denominator of a ScalarExpr."""
    return list(x.num.terms.items()), list(x.den.terms.items()), x.facs


def test_zero_skipping_products_build_the_dense_loops_terms():
    """mat_mul and mat_vec skip products with a zero factor; on sparse
    matrices of fractions, with all-zero rows and columns and a sum that
    cancels part way, each entry keeps the dense loop's terms, key order and
    denominator factors."""
    chart = chart_flat(1, periodic=True)
    rng = random.Random(20161226)
    zero, one = chart.zero_s(), chart.one_s()
    dens = [one, chart.sc("1 + x1^2"), chart.sc("2 + cos(x2)"), chart.sc("x1 + x2")]

    def entry():
        if rng.random() < 0.5:
            return zero
        return random_scalar(rng, chart, max_terms=3) / rng.choice(dens)

    skipped = total = longer = 0
    for _ in range(20):
        n, k, m = rng.randint(1, 4), rng.randint(3, 6), rng.randint(1, 4)
        a = [[entry() for _ in range(k)] for _ in range(n)]
        b = [[entry() for _ in range(m)] for _ in range(k)]
        a[rng.randrange(n)] = [zero] * k
        col = rng.randrange(m)
        for row in b:
            row[col] = zero
        b[1] = list(b[0])
        a.append([one, -one] + [entry() for _ in range(k - 2)])
        want = _dense_mat_mul(a, b)
        assert [[_layout(x) for x in r] for r in mat_mul(a, b)] == \
            [[_layout(x) for x in r] for r in want]
        v = [row[0] for row in b]
        assert [_layout(x) for x in mat_vec(a, v)] == \
            [_layout(r[0]) for r in want]
        kept = [sum(not (x.is_zero() or y.is_zero()) for x, y in zip(r, v))
                for r in a]
        skipped += len(a) * len(v) - sum(kept)
        total += len(a) * len(v)
        longer += sum(c >= 3 for c in kept)
    # most products are skipped, and some sums still add three or more terms
    assert 0.5 * total < skipped < total and longer >= 3
