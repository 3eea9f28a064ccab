"""Dense exact linear algebra over any field-like entry type.

Entries must support +, -, *, /, is_zero() and + int; used with ScalarExpr
and QQi.  Every solve and kernel reduces with the one routine rref, whose
pivot selection prefers the structurally simplest nonzero entry, which keeps
symbolic elimination from inflating fractions.  So does every inverse
(`mat_inverse`, for `spinor._jmat_from_frame` and `rational_inverse`) but
those read off closed forms: the Pfaffian one of a 2-form
(`spinor.pfaffian_inverse`) and the E+- dual frames (`gkpair._dual_frame`).  Products skip the terms
with a zero factor, which are most of them for the sparse matrices here.
"""

from __future__ import annotations

from .errors import SingularMap
from .scalars import QQi, ScalarExpr


def complexity(x) -> int:
    if isinstance(x, ScalarExpr):
        return len(x.num.terms) + 3 * (len(x.den.terms) - 1)
    return 1


def _dot(xs, ys):
    """sum x*y over the pairs with no zero factor, in index order; x + 0 and
    0 + x are x itself, so the sum is the one the dense loop builds."""
    s = None
    for x, y in zip(xs, ys):
        if not (x.is_zero() or y.is_zero()):
            s = x * y if s is None else s + x * y
    return xs[0] * ys[0] if s is None else s


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def mat_vec(a, v):
    return [_dot(row, v) for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_trace_product(a, b):
    """tr(a b) = sum_ik a_ik b_ki, without forming the product a b."""
    return _dot([x for row in a for x in row], [x for col in zip(*b) for x in col])


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def _pivot(rows, col, start):
    best, score = -1, None
    for r in range(start, len(rows)):
        x = rows[r][col]
        if not x.is_zero():
            c = complexity(x)
            if score is None or c < score:
                best, score = r, c
                if c <= 1:
                    break
    return best


def rref(mat, rhs=None):
    """Reduced row echelon form; mutates copies. Returns (rows, rhs, pivots)."""
    rows = [list(r) for r in mat]
    rs = [list(r) for r in rhs] if rhs is not None else None
    nrow = len(rows)
    ncol = len(rows[0]) if nrow else 0
    pivots = []
    r = 0
    for c in range(ncol):
        if r >= nrow:
            break
        p = _pivot(rows, c, r)
        if p < 0:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        if rs is not None:
            rs[r], rs[p] = rs[p], rs[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        if rs is not None:
            rs[r] = [x / inv for x in rs[r]]
        for q in range(nrow):
            if q != r and not rows[q][c].is_zero():
                f = rows[q][c]
                rows[q] = [x - f * y for x, y in zip(rows[q], rows[r])]
                if rs is not None:
                    rs[q] = [x - f * y for x, y in zip(rs[q], rs[r])]
        pivots.append(c)
        r += 1
    return rows, rs, pivots


def mat_inverse(a):
    n = len(a)
    zero = a[0][0] - a[0][0]
    rows, inv, pivots = rref(a, mat_identity(n, zero + 1, zero))
    if len(pivots) != n:
        return None
    return inv


def rational_inverse(a):
    """Exact inverse of a rational matrix as QQi rows; raises SingularMap."""
    inv = mat_inverse([[QQi(x) for x in row] for row in a])
    if inv is None:
        raise SingularMap("affine map matrix is singular")
    return inv


def solve_exact(mat, rhs):
    """Solve mat @ x = rhs exactly by rref; rhs is a flat list.

    Returns the solution on the pivot columns with free columns set to zero,
    or None if and only if the system is inconsistent.  rref leaves a row
    alone when its entry in the pivot column is zero, so the rows of one
    block of a block-diagonal system never touch another block's.
    """
    rows, rs, pivots = rref(mat, [[x] for x in rhs])
    ncol = len(mat[0])
    zero = rhs[0] - rhs[0]
    sol = [zero] * ncol
    for r, c in enumerate(pivots):
        sol[c] = rs[r][0]
    # residual rows beyond rank must vanish
    for r in range(len(pivots), len(rows)):
        if not rs[r][0].is_zero():
            return None
    return sol


def kernel_basis(mat):
    """Basis of the right kernel of mat."""
    rows, _, pivots = rref(mat)
    zero = mat[0][0] - mat[0][0]
    one = zero + 1
    ncol = len(mat[0])
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncol
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - rows[r][fc]
        basis.append(vec)
    return basis
