import itertools
import math
import random
from fractions import Fraction

import pytest

from gkcurv import linalg, scalars
from gkcurv.curvature import NilpotentPath, gric_gr
from gkcurv.errors import (DecompositionFailed, DegenerateOmega, NotBivector,
                           SceneError, ZeroSpinor)
from gkcurv.examples import (CATALOG, cp2_three_lines, flat_kahler,
                             flat_omega_form, flat_volume_forms,
                             hyperkahler_type00, torus_poisson_deform,
                             type00_perturbed)
from gkcurv.forms import Chart
from gkcurv.genalg import GenVec, PolyVec, clifford_act, genvec_wedge, pair_tt
from gkcurv.linalg import mat_identity, mat_inverse, mat_mul, mat_vec, rref
from gkcurv.scalars import Point, QQi, ScalarExpr
from gkcurv.selftest import _nonintegrable_pair
from gkcurv.spinor import (ComplexVolumeGCS, MovedGCS, SymplecticGCS,
                           _clifford_coeffs, _conj_unit, _eval_form, _hat_matrix,
                           _jmat_from_frame, eta_N_extract, integrability, pfaffian_inverse,
                           type_number)

from conftest import _basis_act
from test_curvature import _moved_flat_t2, _transported_nonintegrable


def clifford_matrix(phi):
    """Matrix of a -> E_a . phi over the 4n coordinate basis; its rows are
    the multi-indices occurring in some image, in (degree, index) order."""
    chart = phi.chart
    cols = [_basis_act(chart, a, phi) for a in range(2 * chart.dim)]
    idxs = sorted({i for c in cols for i in c.terms}, key=lambda i: (len(i), i))
    return [[c.coefficient(i) for c in cols] for i in idxs]


def purity_nondeg(phi, p):
    """Pointwise purity and nondegeneracy of a spinor by exact rank counts:
    an oracle for the closed-form frames that does not use them."""
    dim = phi.chart.dim
    if not _eval_form(phi, p):
        raise ZeroSpinor("spinor vanishes at the point")
    mat = [[x.eval(p) for x in row] for row in clifford_matrix(phi)]
    kers = linalg.kernel_basis(mat)
    pure = len(kers) == dim
    nondeg = False
    if pure:
        both = [list(k) for k in kers] + [[c.conj() for c in k] for k in kers]
        gram = [[b[c] for b in both] for c in range(2 * dim)]
        nondeg = len(linalg.kernel_basis(gram)) == 0
    return {
        "pure": pure,
        "nondegenerate": nondeg,
        "annihilator": [GenVec.from_column(phi.chart, [phi.chart.const(x) for x in k])
                        for k in kers],
    }


def _jmat_apply(jmat, e):
    return GenVec.from_column(e.chart, mat_vec(jmat, e.column()))


def _check_j_squared(chart, jmat):
    sq = mat_mul(jmat, jmat)
    for r in range(2 * chart.dim):
        for c in range(2 * chart.dim):
            expect = chart.const(-1) if r == c else chart.zero_s()
            assert sq[r][c] == expect


def test_symplectic_spinor(chart2):
    J = SymplecticGCS(chart2, chart2.zero_form(), flat_omega_form(chart2))
    psi = J.spinor()
    assert psi == chart2.form({(): 1, (0, 1): QQi(0, 1)})


def test_complex_volume_spinor(chart4):
    J = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    omega = J.spinor()
    # dz1^dz2 expanded
    expect = chart4.form({(0, 2): 1, (0, 3): QQi(0, 1),
                          (1, 2): QQi(0, 1), (1, 3): -1})
    assert omega == expect


def test_symplectic_jmat(chart2):
    J = SymplecticGCS(chart2, chart2.zero_form(), flat_omega_form(chart2))
    jm = J.j_matrix()
    _check_j_squared(chart2, jm)
    # annihilator convention: J e = -i e on ker(spinor)
    for e in J.annihilator():
        assert _jmat_apply(jm, e) == e.scale(QQi(0, -1))
    # the quoted block form lives on the pairing side of a pair
    bm = J.block_matrix()
    d1 = GenVec.basis(chart2, 0)
    assert _jmat_apply(bm, d1) == GenVec.basis(chart2, 3)       # J(d1) = dx2
    dx2 = GenVec.basis(chart2, 3)
    assert _jmat_apply(bm, dx2) == -GenVec.basis(chart2, 0)     # J(dx2) = -d1


def test_complex_volume_jmat(chart2):
    J = ComplexVolumeGCS(chart2, flat_volume_forms(chart2))
    jm = J.j_matrix()
    _check_j_squared(chart2, jm)
    dx, dy = GenVec.basis(chart2, 0), GenVec.basis(chart2, 1)
    assert _jmat_apply(jm, dx) == dy
    cdx, cdy = GenVec.basis(chart2, 2), GenVec.basis(chart2, 3)
    assert _jmat_apply(jm, cdx) == cdy


def test_jmat_orthogonal_pairing(chart4):
    rng = random.Random(3)
    b = chart4.form({(0, 1): "x3"}).ext_d()
    J = SymplecticGCS(chart4, chart4.form({(0, 2): 1}), flat_omega_form(chart4))
    jm = J.j_matrix()
    _check_j_squared(chart4, J.j_matrix())
    for _ in range(6):
        from test_genalg import random_genvec
        a = random_genvec(rng, chart4, trig=False)
        bb = random_genvec(rng, chart4, trig=False)
        assert pair_tt(_jmat_apply(jm, a), _jmat_apply(jm, bb)) == pair_tt(a, bb)


def test_annihilator_kills_spinor(chart4):
    structs = [
        SymplecticGCS(chart4, chart4.form({(0, 2): "x2"}),
                      flat_omega_form(chart4)),
        ComplexVolumeGCS(chart4, flat_volume_forms(chart4)),
    ]
    for J in structs:
        phi = J.spinor()
        for e in J.annihilator():
            assert clifford_act(e, phi).is_zero()


def test_jmat_eigen_annihilator(chart4):
    """J e = -i e for annihilator elements."""
    J = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    jm = J.j_matrix()
    for e in J.annihilator():
        got = _jmat_apply(jm, e)
        assert got == e.scale(QQi(0, -1))


def _jmat_two_products(chart, frame):
    """J = (S D) S^-1 with the dense diagonal D = diag(-i, .., +i, ..)."""
    dim4 = 2 * chart.dim
    cols = [e.column() for e in frame] + [e.conj().column() for e in frame]
    smat = [[cols[c][r] for c in range(dim4)] for r in range(dim4)]
    d = [[chart.const(QQi(0, -1) if r < dim4 // 2 else QQi(0, 1)) if r == c
          else chart.zero_s() for c in range(dim4)] for r in range(dim4)]
    return mat_mul(mat_mul(smat, d), mat_inverse(smat))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_jmat_from_frame_matches_two_product_formula(name):
    j1 = CATALOG[name]().j1
    frame = j1.annihilator()
    assert _jmat_from_frame(j1.chart, frame) == \
        _jmat_two_products(j1.chart, frame)


def _rank(rows):
    return len(rref(rows)[2])


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_closed_forms_match_the_generic_route(name):
    """J1's matrix equals S D S^-1 on its own frame, and that frame at the
    origin spans the Clifford kernel of the spinor there."""
    j1 = CATALOG[name]().j1
    chart = j1.chart
    frame = j1.annihilator()
    assert j1.j_matrix() == _jmat_from_frame(chart, frame)
    origin = Point([0] * chart.dim)
    at0 = [[x.eval(origin) for x in e.column()] for e in frame]
    ann = [[x.eval(origin) for x in e.column()]
           for e in purity_nondeg(j1.spinor(), origin)["annihilator"]]
    assert _rank(at0) == _rank(ann) == _rank(at0 + ann) == chart.dim


def test_beta_deform_spinor(chart4):
    base = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    d1 = GenVec.basis(chart4, 0)
    d3 = GenVec.basis(chart4, 2)
    J = MovedGCS(base, [(1, d1, d3)])
    phi = J.spinor()
    assert phi.degree_part(2) == base.spinor()
    assert not phi.degree_part(0).is_zero()
    for e in J.annihilator():
        assert clifford_act(e, phi).is_zero()
    _check_j_squared(chart4, J.j_matrix())


def test_beta_deform_rejects_covector_components():
    """A torus field with a covector part gives no bivector deformation."""
    base = flat_kahler(2)
    chart = base.chart
    mixed = GenVec(chart, [0, 1, 0, 0], [0, 0, 1, 0])
    v2 = GenVec.vector(chart, [0, 0, 0, 1])
    with pytest.raises(NotBivector, match="covector part"):
        torus_poisson_deform(base, [mixed, v2], [chart.coord_s(0), chart.coord_s(2)],
                             [[0, 1], [-1, 0]])


def test_poisson_lambda_takes_constant_chart_scalars():
    """lam = chart.const(1/3) moves cp2_three_lines as Fraction(1, 3) does:
    the same J1 matrix, spinor and b; an entry that varies is refused."""
    chart = Chart.flat(2)
    a, b = (cp2_three_lines(lam) for lam in (Fraction(1, 3), chart.const(Fraction(1, 3))))
    assert a.j1.j_matrix() == b.j1.j_matrix()
    assert a.j1.spinor() == b.j1.spinor()
    assert a.b == b.b
    with pytest.raises(SceneError, match="varies with a coordinate"):
        cp2_three_lines(chart.coord_s(0))


def test_beta_zero_is_base(chart4):
    base = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    J = MovedGCS(base, [])
    assert J.j_matrix() == base.j_matrix()
    assert J.spinor() == base.spinor()


MOVED = {
    "b_field": _transported_nonintegrable,
    "cp2_three_lines": lambda: CATALOG["cp2_three_lines"]().pair(),
    "t4_translation_poisson": lambda: CATALOG["t4_translation_poisson"]().pair(),
    "nilpotent_path": _moved_flat_t2,
}


@pytest.mark.parametrize("name", MOVED)
def test_moved_frame_annihilates_the_moved_spinor(name):
    """For 2-form, Poisson and path pieces alike, each moved frame vector
    kills the moved spinor and the moved J is -i on it: the frame, spinor
    and matrix are moved by the same spin-group element."""
    j1 = MOVED[name]().j1
    assert isinstance(j1, MovedGCS) and j1.pieces
    phi = j1.spinor()
    jmat = j1.j_matrix()
    for e in j1.annihilator():
        assert clifford_act(e, phi).is_zero()
        assert _jmat_apply(jmat, e) == e.scale(QQi(0, -1))


def test_purity_nondeg(chart2):
    J = SymplecticGCS(chart2, chart2.zero_form(), flat_omega_form(chart2))
    rep = purity_nondeg(J.spinor(), Point([0, 0]))
    assert rep["pure"] and rep["nondegenerate"]
    dx1 = chart2.dx(0)
    rep2 = purity_nondeg(dx1, Point([0, 0]))
    assert rep2["pure"] and not rep2["nondegenerate"]


def test_not_pure(chart4):
    bad = chart4.form({(0, 1): 1, (2, 3): 1})  # no degree-0 part, not decomposable
    rep = purity_nondeg(bad, Point([0, 0, 0, 0]))
    assert not rep["pure"]


def test_generic_frame_matches(chart4):
    """The closed-form frame of exp(b + i omega) with a non-closed b
    annihilates the spinor and spans the kernel of its Clifford matrix."""
    J = SymplecticGCS(chart4, chart4.form({(0, 2): "x4"}),
                      flat_omega_form(chart4))
    phi = J.spinor()
    frame = J.annihilator()
    assert len(frame) == 4
    for e in frame:
        assert clifford_act(e, phi).is_zero()
    kers = linalg.kernel_basis(clifford_matrix(phi))
    cols = [e.column() for e in frame]
    assert len(kers) == 4 and _rank(cols + kers) == 4


def test_type_numbers(chart4):
    Jw = SymplecticGCS(chart4, chart4.zero_form(), flat_omega_form(chart4))
    assert type_number(Jw, Point([1, 2, 3, 4])) == 0
    Jv = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    assert type_number(Jv, Point([1, 2, 3, 4])) == 2
    # z1 z2 d1 ^ d2 deformation of C^2: jumping type
    d_z1 = GenVec(chart4, [Fraction(1, 2), QQi(0, Fraction(-1, 2)), 0, 0],
                  [0, 0, 0, 0])
    d_z2 = GenVec(chart4, [0, 0, Fraction(1, 2), QQi(0, Fraction(-1, 2))],
                  [0, 0, 0, 0])
    z1z2 = chart4.sc("(x1+i*x2)*(x3+i*x4)")
    J = MovedGCS(Jv, [(1, d_z1.scale(z1z2), d_z2),
                      (1, d_z1.scale(z1z2).conj(), d_z2.conj())])
    assert type_number(J, Point([1, 0, 1, 0])) == 0
    assert type_number(J, Point([0, 0, 1, 0])) == 2


def test_eta_n_closed_spinor(chart4):
    J = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    res = eta_N_extract(J)
    assert res.eta.is_zero()
    assert res.n3.is_zero()
    assert integrability(J)


def test_eta_n_symplectic_closed(chart4):
    J = SymplecticGCS(chart4, chart4.zero_form(), flat_omega_form(chart4))
    res = eta_N_extract(J)
    assert res.eta.is_zero() and res.n3.is_zero()


def test_eta_n_nonintegrable(chart4):
    """Non-closed exponential: d(phi) has a Lambda^3 part, N != 0."""
    J = SymplecticGCS(chart4, chart4.form({(0, 1): "x3"}),
                      flat_omega_form(chart4))
    res = eta_N_extract(J)
    phi = J.spinor()
    check = clifford_act(res.eta, phi) + res.n3.spin_act(phi)
    assert (check - phi.ext_d()).is_zero()
    assert res.eta.is_real()
    assert not res.n3.is_zero()
    assert not integrability(J)


def test_eta_n_beta_weights(chart4):
    """Rotation-action deformation of flat C^2: eta from the weight formula."""
    Jv = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    # rotation fields V_k = -y_k d/dx_k + x_k d/dy_k, weights 1
    v1 = GenVec.vector(chart4, ["-x2", "x1", 0, 0])
    v2 = GenVec.vector(chart4, [0, 0, "-x4", "x3"])
    lam = Fraction(1, 1)
    J = MovedGCS(Jv, [(lam, v1, v2)])
    res = eta_N_extract(J)
    assert res.n3.is_zero()
    # engine value cross-checked against J(V) fields: eta = n2 J V1 - n1 J V2
    jm = Jv.j_matrix()
    jv1 = _jmat_apply(jm, v1)
    jv2 = _jmat_apply(jm, v2)
    assert res.eta == (jv1 - jv2).scale(lam) or res.eta == (jv2 - jv1).scale(lam)


def _t_chart_pair():
    """A `NilpotentPath` pair on flat T^4 whose moved J1 has N != 0."""
    pair = flat_kahler(2, periodic=True).pair()
    frame = pair.epm_frame()
    return NilpotentPath(pair, [(ScalarExpr.cos(4, (1, 0, 0, 0)), frame.eplus[0],
                                 frame.eminus[1])]).pair_at()


def _assembly_routes(chart4):
    """(name, structure) over every route into the (eta, N) assembly."""
    rng = random.Random(1)
    cosines = [hyperkahler_type00(chart4, f, g, i1, i2)[0] for f, g, i1, i2 in (
        (chart4.sc("2*cos(x3)"), chart4.sc("-2*cos(x3)"), 0, 2),
        (chart4.sc("cos(x2)"), chart4.sc("cos(x2)"), 1, 0))]
    routes = [("t4_nonintegrable", CATALOG["t4_nonintegrable"]().j1),
              ("cp2_three_lines", CATALOG["cp2_three_lines"]().j1),
              ("transport_b", _transported_nonintegrable().j1),
              ("t_chart", _t_chart_pair().j1),
              # frame and spinor over a denominator 1 + x4^2
              ("rational_frame", SymplecticGCS(
                  chart4, chart4.form({(0, 1): "x3/(1 + x4^2)"}), flat_omega_form(chart4))),
              # a non-closed complex volume form: D is not real up to a unit
              ("complex_den", ComplexVolumeGCS(chart4, [
                  chart4.form({(0,): 1, (1,): "i"}),
                  chart4.form({(2,): 1, (3,): "i/(1 + i*x1)"})]))]
    routes += [(f"cos_{k}", j1) for k, j1 in enumerate(cosines)]
    routes += [(f"draw_{k}", _nonintegrable_pair(rng).j1) for k in range(4)]
    return routes


def test_obstruction_assembly_matches_sequential_sums(chart4):
    """n03, N, eta and the coefficients of the one-denominator assembly equal
    the old sequential sums (PolyVec and GenVec sums of normalized terms, and
    the row-reduced Clifford system) on every route, key order included, and
    the oracle values pass the old residual check.  The stored denominator
    of n03 is real up to a unit u != 1 on the cos draws, and has no such u
    on the complex one (the lcm(D, conj D) route)."""
    for name, J in _assembly_routes(chart4):
        res = eta_N_extract(J)
        phi = J.spinor()
        ebar = J.conj_annihilator()
        m = len(ebar)
        assert res.coeffs == _clifford_coeffs(phi, phi.ext_d(), ebar), name
        eta01 = GenVec.zero(J.chart)
        for e, c in zip(ebar, res.coeffs):
            eta01 = eta01 + e.scale(c)
        n03 = PolyVec(J.chart, 3)
        for (i, j, k), c in zip(itertools.combinations(range(m), 3), res.coeffs[m:]):
            if not c.is_zero():
                n03 = n03 + genvec_wedge(ebar[i], ebar[j], ebar[k]).scale(c)
        n3 = n03 + n03.conj()
        assert res.eta == eta01 + eta01.conj(), name
        assert list(res.n03.coef.items()) == list(n03.coef.items()), name
        assert list(res.n3.coef.items()) == list(n3.coef.items()), name
        assert clifford_act(res.eta, phi) + n3.spin_act(phi) == phi.ext_d(), name
        assert integrability(J) == (name == "cp2_three_lines"), name
        den = res._parts["n03"][1]
        if name.startswith("cos_"):
            assert den.conj() != den and _conj_unit(den) is not None, name
        if name == "complex_den":
            assert _conj_unit(den) is None and res.n3.coef


# gcd calls (`_gcd_cofactors`, behind every reduction and `poly_gcd`) of
# eta_N_extract(j1) plus n3.spin_act(psi) on t4_nonintegrable (the gcd keeps no
# state between calls): 73 with n03 and N over one denominator each, normalized
# on read (25 in the extraction, 48 when N is read), 259 with the closed-form
# coefficients of exp(b + i w) and keyed sums, 274 with the row-reduced
# Clifford system, 680 when every partial product and sum was normalized
T4_NONINTEGRABLE_GCD_CALLS = 73


def test_obstruction_gcd_count_stays_at_one_normalization_per_key(monkeypatch):
    """A count repeats exactly, so this catches a return to per-term
    normalization without timing."""
    pair = CATALOG["t4_nonintegrable"]().pair()
    psi = pair.psi()
    calls = []
    gcd = scalars._gcd_cofactors

    def counted(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(scalars, "_gcd_cofactors", counted)
    res = eta_N_extract(pair.j1)
    assert not res.n3.is_zero()
    assert res.n3.spin_act(psi).is_zero()
    assert 0 < len(calls) <= T4_NONINTEGRABLE_GCD_CALLS


@pytest.mark.parametrize("name", ["t4_nonintegrable", "cp2_three_lines"])
def test_gric_gr_and_integrability_normalize_no_obstruction_key(name, monkeypatch):
    """Neither gric_gr nor integrability reads n03 or N, so no key of theirs
    is normalized: gric_gr takes as many gcds whether or not they were read
    before, and integrability as many as the extraction alone."""
    calls = []
    gcd = scalars._gcd_cofactors

    def spy(a, b):
        calls.append(1)
        return gcd(a, b)

    def count(fn, *args):
        del calls[:]
        fn(*args)
        return len(calls)

    monkeypatch.setattr(scalars, "_gcd_cofactors", spy)
    pairs = [CATALOG[name]().pair() for _ in range(2)]
    ens = [eta_N_extract(pair.j1) for pair in pairs]
    read = count(lambda: (ens[1].n03, ens[1].n3))
    assert (read > 0) == (name == "t4_nonintegrable")
    assert count(gric_gr, pairs[0], ens[0]) == count(gric_gr, pairs[1], ens[1])
    assert not ens[0]._read
    j1s = [CATALOG[name]().j1 for _ in range(2)]
    assert count(integrability, j1s[0]) == count(eta_N_extract, j1s[1])


def _pfaffian_inverse_cases():
    """(chart, 2-form): flat dims 2, 4 and 6 with constant, polynomial and
    trig coefficients, the two CP^2 scenes and complex 2-forms."""
    cases = []
    for n in (1, 2, 3):
        chart = Chart.flat(n)
        pairs = list(itertools.combinations(range(chart.dim), 2))
        cases.append((chart, chart.form({ij: k * k - 3 * k + 1
                                         for k, ij in enumerate(pairs)})))
        poly = {(2 * k, 2 * k + 1): f"1 + x{k + 1}^2" for k in range(n)}
        cases.append((chart, chart.form({**poly, (0, chart.dim - 1): "x2*x1 - 3"})))
        trig = {(2 * k, 2 * k + 1): f"2 + cos(x{2 * k + 2})" for k in range(n)}
        cases.append((chart, chart.form({**trig, (0, chart.dim - 1): "sin(x1)/3"})))
    for name in ("fubini_study_cp2", "cp2_three_lines"):
        pair = CATALOG[name]().pair()
        cases.append((pair.chart, pair.omega))
    scene = type00_perturbed()
    chart = scene.chart
    B, w1 = scene.j1.b, scene.j1.omega
    dz1, dz2 = flat_volume_forms(chart)
    cases.append((chart, w1))
    cases.append((chart, B + w1.scale(QQi(0, 1))))
    cases.append((chart, dz1.wedge(dz2) + dz1.conj().wedge(dz2.conj()).scale(
        chart.sc("x1 + i*x2"))))
    return cases


def test_pfaffian_inverse_matches_rref_inverse():
    """The Pfaffian-cofactor inverse read off exp(w) equals Gauss-Jordan on
    the hat matrix entry by entry and inverts it."""
    cases = _pfaffian_inverse_cases()
    assert {c.dim for c, _ in cases} == {2, 4, 6}
    assert any(not w.is_real() for _, w in cases)
    for chart, w in cases:
        wmat = _hat_matrix(chart, w)
        winv = pfaffian_inverse(chart, w.exp())
        assert winv == mat_inverse(wmat)
        assert mat_mul(wmat, winv) == mat_identity(chart.dim, chart.one_s(),
                                                   chart.zero_s())


def test_degenerate_and_mixed_forms_are_refused(chart4):
    with pytest.raises(DegenerateOmega, match="w1 is not symplectic"):
        pfaffian_inverse(chart4, chart4.form({(0, 1): 1}).exp(), "w1")
    with pytest.raises(DegenerateOmega):
        pfaffian_inverse(chart4, chart4.zero_form().exp())
    # exp of a mixed form would give the wrong cofactors
    with pytest.raises(ValueError, match="must be 2-forms"):
        SymplecticGCS(chart4, chart4.zero_form(),
                      flat_omega_form(chart4) + chart4.volume())


def _count_rref(monkeypatch):
    calls = []
    rref = linalg.rref

    def counted(*args):
        calls.append(1)
        return rref(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    return calls


def test_fubini_study_jpsi_matrix_runs_no_rref(monkeypatch):
    pair = CATALOG["fubini_study_cp2"]().pair()
    calls = _count_rref(monkeypatch)
    jpsi = pair.jpsi_matrix()
    assert not calls
    _check_j_squared(pair.chart, jpsi)


def test_symplectic_eta_n_runs_no_rref(monkeypatch):
    j1 = CATALOG["t4_nonintegrable"]().j1
    calls = _count_rref(monkeypatch)
    res = eta_N_extract(j1)
    assert not calls
    assert not res.n3.is_zero()


CLOSED_SCENES = ("fubini_study_cp2", "flat_kahler_c2", "hyperkahler_t4",
                 "type00_perturbed", "generalized_cy_t4", "t4_translation_poisson")


def test_closed_spinor_splits_as_zero_without_a_solve(monkeypatch):
    """d(phi) = 0 gives eta = N = 0 and m + C(m, 3) zero coefficients, and
    builds no frame product and no Clifford system."""
    structures = [CATALOG[name]().j1 for name in CLOSED_SCENES]
    calls = _count_rref(monkeypatch)
    for j1 in structures:
        res = eta_N_extract(j1)
        m = j1.chart.dim
        assert len(res.coeffs) == m + math.comb(m, 3)
        assert all(c.is_zero() for c in res.coeffs)
        assert res.eta.is_zero() and res.n3.is_zero() and res.n03.is_zero()
    assert not calls


def test_degenerate_omega_keeps_a_typed_failure(chart4):
    """exp(b + i w) with Pf(w) = 0: a non-closed b cannot split, a closed
    one splits as zero."""
    w = chart4.form({(0, 1): 1})
    with pytest.raises(DecompositionFailed):
        eta_N_extract(SymplecticGCS(chart4, chart4.form({(0, 3): "x3"}), w))
    res = eta_N_extract(SymplecticGCS(chart4, chart4.form({(0, 3): 1}), w))
    assert len(res.coeffs) == 4 + 4 and all(c.is_zero() for c in res.coeffs)
    assert res.eta.is_zero() and res.n3.is_zero()


def _symplectic_structures():
    """exp(b + i w) on flat charts of dims 2, 4 and 6: the catalogue's,
    selftest draws (seed 1 has cos coefficients), a non-closed b with
    non-constant w, and two with 3x3 minors of w."""
    out = [make().j1 for make in CATALOG.values()]
    out = [j1 for j1 in out if isinstance(j1, SymplecticGCS)]
    for seed in (1, 7):
        rng = random.Random(seed)
        out += [_nonintegrable_pair(rng).j1 for _ in range(4)]
    c2, c4, c6 = Chart.flat(1), Chart.flat(2), Chart.flat(3)
    out.append(SymplecticGCS(c2, c2.form({(0, 1): "x1*x2"}),
                             c2.form({(0, 1): "1 + x1^2"})))
    out.append(SymplecticGCS(c4, c4.form({(0, 1): "x3", (1, 2): "x1*x4"}),
                             c4.form({(0, 1): 1, (2, 3): "x1"})))
    out.append(SymplecticGCS(c6, c6.form({(0, 1): "x3", (2, 5): "x4"}),
                             c6.form({(0, 1): 1, (2, 3): 1, (4, 5): 1})))
    out.append(SymplecticGCS(c6, c6.form({(0, 3): "x5*x2", (1, 4): "x6"}),
                             c6.form({(0, 1): 1, (2, 3): "1 + x1^2", (4, 5): 1,
                                      (0, 5): "x2"})))
    return out


def test_symplectic_closed_form_matches_the_clifford_solve():
    """`EtaN.coeffs` of exp(b + i w), read in closed form, equals the
    row-reduced Clifford system's solution entry by entry."""
    structures = _symplectic_structures()
    assert any("cos" in str(j1.b) for j1 in structures)
    nonzero = []
    for j1 in structures:
        res = eta_N_extract(j1)
        phi = j1.spinor()
        sol = _clifford_coeffs(phi, phi.ext_d(), j1.conj_annihilator())
        assert len(res.coeffs) == len(sol)
        assert all(a == b for a, b in zip(res.coeffs, sol))
        if not res.n3.is_zero():
            nonzero.append(j1.chart.dim)
    assert len(nonzero) >= 3 and {4, 6} <= set(nonzero)
