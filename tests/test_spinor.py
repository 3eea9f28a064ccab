import itertools
import random
from fractions import Fraction

import pytest

from gkcurv import linalg, scalars
from gkcurv.errors import DegenerateOmega, NotBivector
from gkcurv.examples import (CATALOG, flat_omega_form, flat_volume_forms,
                             type00_perturbed)
from gkcurv.forms import Chart
from gkcurv.genalg import (GenVec, PolyVec, clifford_act, genvec_wedge, pair_tt)
from gkcurv.linalg import mat_identity, mat_inverse, mat_mul, mat_vec, rref
from gkcurv.scalars import Point, QQi
from gkcurv.selftest import _nonintegrable_pair
from gkcurv.spinor import (BetaDeformGCS, ComplexVolumeGCS, SymplecticGCS,
                           _hat_matrix, _jmat_from_frame, clifford_matrix,
                           eta_N_extract, integrability, pfaffian_inverse,
                           purity_nondeg, type_number)


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
    beta = genvec_wedge(d1, d3)
    J = BetaDeformGCS(chart4, beta, base)
    phi = J.spinor()
    assert phi.degree_part(2) == base.spinor()
    assert not phi.degree_part(0).is_zero()
    for e in J.annihilator():
        assert clifford_act(e, phi).is_zero()
    _check_j_squared(chart4, J.j_matrix())


def test_beta_deform_rejects_covector_components(chart4):
    """A beta with a covector leg is not a bivector deformation; the same
    typed error as genalg.ad_beta."""
    base = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    mixed = genvec_wedge(GenVec.basis(chart4, 0), GenVec.basis(chart4, 5))
    with pytest.raises(NotBivector, match="vector components"):
        BetaDeformGCS(chart4, mixed, base)


def test_beta_zero_is_base(chart4):
    base = ComplexVolumeGCS(chart4, flat_volume_forms(chart4))
    from gkcurv.genalg import PolyVec
    J = BetaDeformGCS(chart4, PolyVec(chart4, 2), base)
    assert J.j_matrix() == base.j_matrix()


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
    beta_h = genvec_wedge(d_z1.scale(z1z2), d_z2)
    beta_r = beta_h + beta_h.conj()
    J = BetaDeformGCS(chart4, beta_r, Jv)
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
    beta = genvec_wedge(v1, v2).scale(lam)
    J = BetaDeformGCS(chart4, beta, Jv)
    res = eta_N_extract(J)
    assert res.n3.is_zero()
    # engine value cross-checked against J(V) fields: eta = n2 J V1 - n1 J V2
    jm = Jv.j_matrix()
    jv1 = _jmat_apply(jm, v1)
    jv2 = _jmat_apply(jm, v2)
    assert res.eta == (jv1 - jv2).scale(lam) or res.eta == (jv2 - jv1).scale(lam)


def test_obstruction_assembly_matches_sequential_sums():
    """n03 and n3 of the keyed sums equal the PolyVec sums term by term, key
    order included, on polynomial and trig-rational (D, D^2) coefficients."""
    rng = random.Random(1)
    pairs = [CATALOG["t4_nonintegrable"]().pair()]
    pairs += [_nonintegrable_pair(rng) for _ in range(4)]
    trig_dens = 0
    for pair in pairs:
        res = eta_N_extract(pair.j1)
        ebar = pair.j1.conj_annihilator()
        m = len(ebar)
        n03 = PolyVec(pair.chart, 3)
        for (i, j, k), c in zip(itertools.combinations(range(m), 3), res.coeffs[m:]):
            if not c.is_zero():
                n03 = n03 + genvec_wedge(ebar[i], ebar[j], ebar[k]).scale(c)
        n3 = n03 + n03.conj()
        assert list(res.n03.coef.items()) == list(n03.coef.items())
        assert list(res.n3.coef.items()) == list(n3.coef.items())
        trig_dens += any(any(any(k[c.nvars:]) for k in c.den.terms)
                         for c in n03.coef.values())
    assert trig_dens >= 2


# gcd calls (`_gcd_cofactors`, behind every reduction and `poly_gcd`) of
# eta_N_extract(j1) plus n3.spin_act(psi) on t4_nonintegrable (the gcd keeps no
# state between calls): 357 with one normalization per output coefficient, 680
# when every partial product and sum was normalized
T4_NONINTEGRABLE_GCD_CALLS = 357


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


def test_fubini_study_jpsi_matrix_runs_no_rref(monkeypatch):
    pair = CATALOG["fubini_study_cp2"]().pair()
    calls = []
    rref = linalg.rref

    def counted(*args):
        calls.append(1)
        return rref(*args)

    monkeypatch.setattr(linalg, "rref", counted)
    jpsi = pair.jpsi_matrix()
    assert not calls
    _check_j_squared(pair.chart, jpsi)
