"""Moving a pair by closed b-fields and affine diffeomorphisms.

Both act on all pieces at once (spinor, annihilator frame, endomorphism,
symplectic-type data), so invariance statements about the curvature can be
tested by recomputing on the moved pair.
"""

from __future__ import annotations

from .forms import AffineMap, Chart, Form, _scalar_affine_sub
from .genalg import GenVec
from .gkpair import GKPair
from .linalg import mat_mul, mat_vec
from .spinor import FrameGCS, MovedGCS


def transport_b(pair: GKPair, b2: Form) -> GKPair:
    """Act on the whole pair by exp(b2) = prod exp(c_ij dx_i ^ dx_j) for the
    terms c_ij dx_i ^ dx_j of b2; `GKPair` raises NotClosed when b2 is not
    closed."""
    chart = pair.chart
    dx = [GenVec.basis(chart, chart.dim + k) for k in range(chart.dim)]
    pieces = [(c, dx[i], dx[j]) for (i, j), c in b2.terms.items()]
    return GKPair(MovedGCS(pair.j1, pieces), pair.b + b2, pair.omega)


def _block_diag(chart: Chart, p, q):
    """diag(p, q^T) as a 4n x 4n matrix of constants."""
    dim = chart.dim
    out = [[chart.zero_s() for _ in range(2 * dim)] for _ in range(2 * dim)]
    for r in range(dim):
        for c in range(dim):
            out[r][c] = chart.const(p[r][c])
            out[dim + r][dim + c] = chart.const(q[c][r])
    return out


def transport_affine(pair: GKPair, A, t=None) -> GKPair:
    """Pull the whole pair back along the affine map F(x) = Ax + t.

    Sections move by v -> A^{-1} v(F), xi -> A^T xi(F).
    """
    chart = pair.chart
    F = AffineMap(A, t)
    tmat = _block_diag(chart, F.ainv, F.a)
    tinv = _block_diag(chart, F.a, F.ainv)

    def sub(x):
        return _scalar_affine_sub(x, F.a, F.t)

    phi = pair.j1.spinor().pullback(F)
    frame = [GenVec.from_column(chart, mat_vec(tmat, [sub(x) for x in e.column()]))
             for e in pair.j1.annihilator()]
    jsub = [[sub(x) for x in row] for row in pair.j1.j_matrix()]
    jmat = mat_mul(mat_mul(tmat, jsub), tinv)
    j1 = FrameGCS(chart, phi, frame, jmat)
    return GKPair(j1, pair.b.pullback(F), pair.omega.pullback(F))
