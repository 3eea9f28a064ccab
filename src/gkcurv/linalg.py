"""Dense exact linear algebra over any field-like entry type.

Entries must support +, -, *, /, is_zero(); used with ScalarExpr and QQi.
Pivot selection prefers the structurally simplest nonzero entry, which keeps
symbolic elimination from inflating fractions.
"""

from __future__ import annotations

from .errors import EngineLimit, SingularMap
from .scalars import QQI_ONE, QQI_ZERO, QQi, ScalarExpr


def complexity(x) -> int:
    if isinstance(x, ScalarExpr):
        return len(x.num.terms) + 3 * (len(x.den.terms) - 1)
    return 1


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[i][0] * b[0][j]
            for t in range(1, k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a, v):
    return [sum_entries([a[i][j] * v[j] for j in range(len(v))]) for i in range(len(a))]


def sum_entries(xs):
    s = xs[0]
    for x in xs[1:]:
        s = s + x
    return s


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_trace(a):
    return sum_entries([a[i][i] for i in range(len(a))])


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


def mat_inverse(a, one, zero):
    n = len(a)
    rows, inv, pivots = rref(a, mat_identity(n, one, zero))
    if len(pivots) != n:
        return None
    return inv


def rational_inverse(a):
    """Exact inverse of a rational matrix as QQi rows; raises SingularMap."""
    inv = mat_inverse([[QQi(x) for x in row] for row in a], QQI_ONE, QQI_ZERO)
    if inv is None:
        raise SingularMap("affine map matrix is singular")
    return inv


def solve_exact(mat, rhs):
    """Solve mat @ x = rhs exactly; rhs is a flat list.

    Returns the solution on the pivot columns with free columns set to zero,
    or None if and only if the system is inconsistent.  ScalarExpr systems
    are split into the connected blocks of their row/column nonzero graph,
    and each block goes through fraction-free Bareiss elimination alone, so
    the pivots of one block never multiply into another's entries; the
    result equals the monolithic elimination's.  Other entry types use rref.
    """
    if mat and isinstance(mat[0][0], ScalarExpr):
        return _solve_blocks(mat, rhs)
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


def _solve_blocks(mat, rhs):
    """_solve_bareiss on each block.  A zero row is dropped, or makes the
    system inconsistent if its rhs is not zero; a column in no block is 0."""
    parent = list(range(len(mat[0])))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    row_cols = []
    for i, row in enumerate(mat):
        cols = [c for c, x in enumerate(row) if not x.is_zero()]
        if cols:
            for c in cols[1:]:
                parent[find(c)] = find(cols[0])
            row_cols.append((i, cols[0]))
        elif not rhs[i].is_zero():
            return None
    blocks = {}
    for c in range(len(parent)):
        blocks.setdefault(find(c), ([], []))[0].append(c)
    for i, c in row_cols:
        blocks[find(c)][1].append(i)
    sol = [ScalarExpr.zero(mat[0][0].nvars)] * len(parent)
    for cols, rows in blocks.values():
        if not rows:
            continue
        part = _solve_bareiss([[mat[i][c] for c in cols] for i in rows],
                              [rhs[i] for i in rows])
        if part is None:
            return None
        for c, x in zip(cols, part):
            sol[c] = x
    return sol


def _solve_bareiss(mat, rhs):
    """Fraction-free elimination over the trig-polynomial ring.

    Returns None only for an inconsistent system; a step that exact
    arithmetic guarantees but the engine fails raises EngineLimit.
    """
    from .scalars import TrigPoly, trig_div_exact
    nvars = mat[0][0].nvars
    nrow, ncol = len(mat), len(mat[0])
    rows = []
    for i in range(nrow):
        entries = list(mat[i]) + [rhs[i]]
        den = TrigPoly.const(nvars, 1)
        for x in entries:
            if not x.den.is_const():
                den = den * x.den
        row = []
        for x in entries:
            scaled = x * ScalarExpr(nvars, den, TrigPoly.const(nvars, 1),
                                    _normalized=True)
            if not scaled.den.is_const():
                raise EngineLimit("row denominators did not clear")
            row.append(scaled.num.scale(scaled.den.const_value().inverse()))
        rows.append(row)
    prev = TrigPoly.const(nvars, 1)
    pivots = []
    r = 0
    for c in range(ncol):
        if r >= nrow:
            break
        best, score = -1, None
        for q in range(r, nrow):
            if not rows[q][c].is_zero():
                s = len(rows[q][c].terms)
                if score is None or s < score:
                    best, score = q, s
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        for q in range(r + 1, nrow):
            if all(x.is_zero() for x in rows[q]):
                continue
            qc = rows[q][c]
            new = []
            for j in range(ncol + 1):
                val = rows[q][j] * piv - qc * rows[r][j]
                div = trig_div_exact(val, prev)
                if div is None:
                    raise EngineLimit("Bareiss step did not divide exactly")
                new.append(div)
            rows[q] = new
        pivots.append((r, c))
        prev = piv
        r += 1
    one = ScalarExpr.one(nvars)
    zero_s = ScalarExpr.zero(nvars)
    for q in range(r, nrow):
        if not rows[q][ncol].is_zero():
            return None
    sol = [zero_s] * ncol
    for (pr, pc) in reversed(pivots):
        acc = ScalarExpr(nvars, rows[pr][ncol], TrigPoly.const(nvars, 1),
                         _normalized=True)
        for j in range(pc + 1, ncol):
            if not rows[pr][j].is_zero():
                term = ScalarExpr(nvars, rows[pr][j],
                                  TrigPoly.const(nvars, 1), _normalized=True)
                acc = acc - term * sol[j]
        sol[pc] = acc / ScalarExpr(nvars, rows[pr][pc],
                                   TrigPoly.const(nvars, 1), _normalized=True)
    return sol


def kernel_basis(mat, one, zero):
    """Basis of the right kernel of mat."""
    rows, _, pivots = rref(mat)
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
