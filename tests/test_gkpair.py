import random
from fractions import Fraction

import pytest

from gkcurv import scalars
from gkcurv.errors import DimensionMismatch
from gkcurv.examples import (CATALOG, flat_kahler, flat_omega_form,
                             fubini_study_chart, hyperkahler_t4)
from gkcurv.genalg import GenVec, PolyVec, genvec_wedge, pair_tt
from gkcurv.gkpair import (GKPair, _jacobi_min_eigenvalue, compatibility_check,
                           ddbar_pm, epm_split, hamiltonian_element, jdot_matrix,
                           random_compat_bivector, trace_pairing, type00_check)
from gkcurv.linalg import (kernel_basis, mat_add, mat_commutator, mat_is_zero,
                           mat_mul, mat_vec)
from gkcurv.scalars import Point, QQi
from gkcurv.spinor import FrameGCS, SymplecticGCS

from conftest import chart_flat, pairing_inverse_duals
from test_curvature import toric_cp2


@pytest.mark.parametrize("name", ["fubini_study_cp2", "cp2_three_lines"])
def test_closedness_checks_take_no_gcd_and_no_division(name, monkeypatch):
    """GKPair checks db = 0 and d omega = 0: each key sums to a zero
    numerator over one denominator and is not normalized (40 gcds and 8
    exact divisions for the two scenes when d added scalar terms one by
    one)."""
    scene = CATALOG[name]()
    calls = []
    for fn in ("_gcd_cofactors", "_p_div_exact"):
        real = getattr(scalars, fn)
        monkeypatch.setattr(scalars, fn, lambda a, b, fn=fn, real=real:
                            calls.append(fn) or real(a, b))
    GKPair(scene.j1, scene.b, scene.omega)
    assert calls == []
    assert all(c.facs for c in scene.omega.terms.values())


def test_flat_kahler_compatibility():
    pair = flat_kahler(2).pair()
    pts = [Point([0, 0, 0, 0]), Point([1, 2, -1, 3])]
    rep = compatibility_check(pair, pts)
    assert rep["commute"] and rep["positive"]
    assert rep["min_eigenvalue"] > 0


@pytest.mark.parametrize("n", [4, 8])
def test_jacobi_min_eigenvalue_matches_numpy(n):
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = rng.standard_normal((n, n))
        a = m @ m.T + 0.1 * np.eye(n)
        want = np.linalg.eigvalsh(a)[0]
        got = _jacobi_min_eigenvalue(a.tolist())
        assert abs(got - want) <= 1e-9 * abs(want)


def test_compatibility_min_eigenvalue_t4_nonintegrable():
    np = pytest.importorskip("numpy")
    pair = CATALOG["t4_nonintegrable"]().pair()
    origin = Point([0, 0, 0, 0])
    rep = compatibility_check(pair, [origin])
    gram = [[float(x.eval(origin).re) for x in row]
            for row in pair.metric_gram()]
    want = np.linalg.eigvalsh(np.array(gram))[0]
    assert rep["positive"]
    assert abs(rep["min_eigenvalue"] - want) <= 1e-9 * want


def test_reversed_omega_not_positive():
    chart = chart_flat(1)
    w = flat_omega_form(chart)
    j1 = SymplecticGCS(chart, chart.zero_form(), w)
    pair = GKPair(j1, chart.zero_form(), -w)
    rep = compatibility_check(pair, [Point([0, 0])])
    assert rep["commute"] and not rep["positive"]


def test_ghat_squares_to_identity():
    pair = flat_kahler(1).pair()
    gh = pair.ghat()
    sq = mat_mul(gh, gh)
    chart = pair.chart
    for r in range(4):
        for c in range(4):
            assert sq[r][c] == (chart.one_s() if r == c else chart.zero_s())


def test_epm_split_flat():
    pair = flat_kahler(2).pair()
    fr = pair.epm_frame()
    assert len(fr.eplus) == 2 and len(fr.eminus) == 2
    # all frame elements annihilate either psi or conj(psi) appropriately
    j1 = pair.j1.j_matrix()
    from gkcurv.linalg import mat_vec
    for e in fr.es:
        got = GenVec.from_column(pair.chart, mat_vec(j1, e.column()))
        assert got == e.scale(QQi(0, -1))
    # duals are normalised within blocks
    for i, d in enumerate(fr.duals):
        for j, e in enumerate(fr.es):
            expect = pair.chart.one_s() if i == j else pair.chart.zero_s()
            assert pair_tt(d, e) * 2 == expect
    # G signs: <e+, conj e+> > 0, <e-, conj e-> < 0 at a point
    p = Point([0, 0, 0, 0])
    for e in fr.eplus:
        v = pair_tt(e, e.conj()).eval(p)
        assert v.im == 0 and v.re > 0
    for e in fr.eminus:
        v = pair_tt(e, e.conj()).eval(p)
        assert v.im == 0 and v.re < 0


def test_epm_failure_on_bad_pair():
    chart = chart_flat(1)
    w = flat_omega_form(chart)
    j1 = SymplecticGCS(chart, chart.zero_form(), w)
    pair = GKPair(j1, chart.zero_form(), -w)
    with pytest.raises(DimensionMismatch):
        epm_split(pair)


def test_epm_failure_on_noncommuting_pair():
    scene = flat_kahler(2)
    chart = scene.chart
    w = chart.form({(0, 1): 1, (2, 3): 1, (0, 2): Fraction(1, 3)})
    pair = GKPair(scene.j1, chart.zero_form(), w)
    assert not mat_is_zero(mat_commutator(pair.j1.j_matrix(),
                                          pair.jpsi_matrix()))
    with pytest.raises(DimensionMismatch):
        epm_split(pair)


def _stacked_epm(pair):
    """E+ and E- as the kernels of (J1 + i) stacked on (J_psi +- i)."""
    chart = pair.chart
    dim4 = 2 * chart.dim

    def meet(s2):
        rows = []
        for block, s in ((pair.j1.j_matrix(), QQi(0, -1)),
                         (pair.jpsi_matrix(), s2)):
            rows += [[block[r][c] - (chart.const(s) if r == c
                                     else chart.zero_s())
                      for c in range(dim4)] for r in range(dim4)]
        return [GenVec.from_column(chart, k) for k in kernel_basis(rows)]

    return meet(QQi(0, -1)), meet(QQi(0, 1))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_epm_split_matches_stacked_kernel(name):
    """Same vectors in the same order as the stacked 8n x 4n kernel."""
    pair = CATALOG[name]().pair()
    eplus, eminus = _stacked_epm(pair)
    fr = epm_split(pair)
    assert fr.eplus == eplus and fr.eminus == eminus
    assert fr.dplus == pairing_inverse_duals(pair.chart, eplus)
    assert fr.dminus == pairing_inverse_duals(pair.chart, eminus)


# every catalogue scene, flat T^6 (n = 3) and the non-Einstein toric CP^2
PAIRS = {**{name: lambda name=name: CATALOG[name]().pair() for name in CATALOG},
         "flat_kahler_c3": lambda: flat_kahler(3).pair(),
         "toric_cp2": lambda: toric_cp2()[0]}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_projector_duals_match_the_pairing_inverse(name):
    """The duals read off rows of the joint eigen-projector equal P^-1
    applied to the conjugate frame, and are joint eigenvectors: J1 d = +i d,
    J_psi d = +i d on conj E+ and -i d on conj E-."""
    pair = PAIRS[name]()
    chart = pair.chart
    fr = pair.epm_frame()
    assert fr.dplus == pairing_inverse_duals(chart, fr.eplus)
    assert fr.dminus == pairing_inverse_duals(chart, fr.eminus)

    def apply(mat, d):
        return GenVec.from_column(chart, mat_vec(mat, d.column()))

    for ds, s in ((fr.dplus, QQi(0, 1)), (fr.dminus, QQi(0, -1))):
        for d in ds:
            assert not d.is_zero()
            assert apply(pair.j1.j_matrix(), d) == d.scale(QQi(0, 1))
            assert apply(pair.jpsi_matrix(), d) == d.scale(s)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_spinor_volume_is_2i_to_the_n_pfaffian(name):
    """<psi, conj psi> = (2i)^n Pf(omega) equals the Mukai product, b != 0
    included (cp2_three_lines, t4_translation_poisson)."""
    pair = PAIRS[name]()
    chart = pair.chart
    vol = pair.spinor_volume()
    assert vol == pair.psi().mukai_scalar(pair.psibar())
    pf = pair.omega.exp().coefficient(tuple(range(chart.dim)))
    assert not pf.is_zero()
    assert vol == pf * {1: QQi(0, 2), 2: QQi(-4), 3: QQi(0, -8)}[chart.n]
    if name == "cp2_three_lines":
        assert not pair.b.is_zero()


def _frame_gcs_duals_or_refusal(scene):
    """A FrameGCS copy of scene.j1 gives the duals of the scene's own pair;
    with its supplied matrix negated it passes the dims check, since the
    meets are taken in its frame, but its projector rows pair to 0 with the
    frame, so epm_split raises instead of returning wrong duals."""
    j1 = scene.j1
    good = FrameGCS(scene.chart, j1.spinor(), j1.annihilator(), j1.j_matrix())
    pair = GKPair(good, scene.b, scene.omega)
    assert epm_split(pair).duals == scene.pair().epm_frame().duals
    bad = FrameGCS(scene.chart, j1.spinor(), j1.annihilator(),
                   [[-x for x in row] for row in j1.j_matrix()])
    with pytest.raises(DimensionMismatch, match="2<d_i, e_j> = delta_ij"):
        epm_split(GKPair(bad, scene.b, scene.omega))


def test_frame_gcs_with_a_negated_matrix_raises():
    """On flat T^4, where every pairing is over the denominator 1."""
    _frame_gcs_duals_or_refusal(flat_kahler(2))


def test_frame_gcs_with_a_negated_matrix_raises_over_a_rational_den():
    """On Fubini-Study CP^2 the frame and duals have denominators, so the
    cross-multiplied check must compare the numerators with their common
    denominator D = (1 + |z|^2)^2, not with 1."""
    scene = fubini_study_chart(2)
    dens = {x.den for d in scene.pair().epm_frame().duals for x in d.column()}
    assert any(not den.is_const() for den in dens)
    _frame_gcs_duals_or_refusal(scene)


def _degenerate_pair():
    chart = chart_flat(1)
    w = flat_omega_form(chart)
    return GKPair(SymplecticGCS(chart, chart.zero_form(), w),
                  chart.zero_form(), -w)


def _noncommuting_pair():
    scene = flat_kahler(2)
    w = scene.chart.form({(0, 1): 1, (2, 3): 1, (0, 2): Fraction(1, 3)})
    return GKPair(scene.j1, scene.chart.zero_form(), w)


@pytest.mark.parametrize("make, dims", [(_degenerate_pair, (2, 0)),
                                        (_noncommuting_pair, (0, 0))])
def test_epm_failure_dims_match_stacked_kernel(make, dims):
    pair = make()
    assert tuple(len(es) for es in _stacked_epm(pair)) == dims
    with pytest.raises(DimensionMismatch,
                       match=rf"eigenspace dims \({dims[0]}, {dims[1]}\)"):
        epm_split(pair)


def test_type00_hyperkahler():
    scene = hyperkahler_t4()
    chart = scene.chart
    B, w1, w2 = scene.j1.b, scene.j1.omega, scene.omega
    pts = [Point([0, 0, 0, 0]), Point([1, 1, 2, 0])]
    rep = type00_check(chart, B, w1, w2, pts)
    assert rep["pass"]
    assert all(rep["four_dim_conditions"].values())
    # B = 0 fails the nondegeneracy condition
    rep2 = type00_check(chart, chart.zero_form(), w1, w2)
    assert not rep2["pass"]
    # w1 ^ w2 != 0 perturbation fails
    rep3 = type00_check(chart, B, w1 + w2.scale(Fraction(1, 3)), w2)
    assert not rep3["pass"]


def test_hyperkahler_pair_is_gk():
    pair = hyperkahler_t4().pair()
    rep = compatibility_check(pair, [Point([0, 0, 0, 0])])
    assert rep["commute"] and rep["positive"]
    fr = pair.epm_frame()
    assert len(fr.eplus) == 2 and len(fr.eminus) == 2


def test_hamiltonian_element():
    pair = flat_kahler(1).pair()
    chart = pair.chart
    e = hamiltonian_element(pair, chart.sc("x1"))
    assert e == -GenVec.basis(chart, 1)
    assert hamiltonian_element(pair, chart.sc("5")).is_zero()


def test_hamiltonian_element_with_b():
    scene = flat_kahler(2)
    chart = scene.chart
    b = chart.form({(0, 2): 1, (1, 3): -2})
    pair = GKPair(scene.j1, b, scene.omega)
    f = chart.sc("x1*x3 + cos(x2)")
    e = hamiltonian_element(pair, f)  # defining identity asserted inside
    assert e.is_real()


def test_ddbar_pm_linear_vanishes():
    pair = flat_kahler(2).pair()
    out = ddbar_pm(pair, pair.chart.sc("x1 - 2*x3"))
    assert not out["mixed"]
    assert not out["pure_minus_residue"]


def test_ddbar_pm_quadratic():
    pair = flat_kahler(2).pair()
    out = ddbar_pm(pair, pair.chart.sc("x1*x2"))
    assert out["mixed"]
    assert not out["pure_minus_residue"]
    # oracle: full differential of the (0,1span) Hamiltonian section equals
    # a constant multiple (+-2i) of the mixed part, and has no pure parts
    n = pair.chart.n
    oracle = out["oracle_full"]
    for (i, j) in oracle:
        assert i < n <= j
    ratios = []
    for k, v in out["mixed"].items():
        ratios.append(oracle[k] / v)
    assert all(r == ratios[0] for r in ratios)
    r0 = ratios[0]
    assert (r0 * r0) == pair.chart.const(-4)


def _anticommutes_with_j(pair, h):
    """{ad h, J1} = 0: ad h swaps the +-i eigenbundles of J1 exactly when h
    lies in Lambda^2 E + Lambda^2 conj(E), with no (1,1) part."""
    ad, j = h.ad_matrix(), pair.j1.j_matrix()
    return mat_is_zero(mat_add(mat_mul(ad, j), mat_mul(j, ad)))


def test_trace_pairing_zero_and_bidegree():
    """The zero direction pairs to zero, and a (1,1) direction e ^ conj(e)
    does not move J1: its ad commutes with J1, so [h, J1] = 0."""
    pair = flat_kahler(2).pair()
    zero_h = PolyVec(pair.chart, 2)
    assert trace_pairing(pair, zero_h, zero_h).is_zero()
    e = pair.epm_frame().es[0]
    h11 = genvec_wedge(e, e.conj())
    assert not _anticommutes_with_j(pair, h11)
    assert mat_is_zero(jdot_matrix(pair, h11))


def test_random_compat_bivector_properties():
    rng = random.Random(31)
    for name, draws in [("flat_kahler_c2", 5), ("fubini_study_cp2", 2),
                        ("cp2_three_lines", 2)]:
        pair = CATALOG[name]().pair()
        for _ in range(draws):
            h = random_compat_bivector(pair, rng)
            assert h.is_real()
            assert _anticommutes_with_j(pair, h)
    # negative control: d/dx1 ^ dx1 on flat C^2 has a (1,1) part
    pair = flat_kahler(2).pair()
    bad = genvec_wedge(GenVec.basis(pair.chart, 0), GenVec.basis(pair.chart, 4))
    assert not _anticommutes_with_j(pair, bad)


def _triple_trace(j, a, b):
    """tr(J A B) through both full products: the oracle of the contraction."""
    p = mat_mul(j, mat_mul(a, b))
    s = p[0][0]
    for k in range(1, len(p)):
        s = s + p[k][k]
    return s


def test_trace_pairing_equals_the_triple_product():
    """The one-contraction trace equals tr(J [h1,J] [h2,J]) with both
    products formed, exactly, on flat and rational-coefficient pairs."""
    rng = random.Random(35)
    nonzero = 0
    for name, draws in [("flat_kahler_c2", 4), ("fubini_study_cp2", 1)]:
        pair = CATALOG[name]().pair()
        for _ in range(draws):
            h1 = random_compat_bivector(pair, rng)
            h2 = random_compat_bivector(pair, rng)
            got = trace_pairing(pair, h1, h2)
            assert got == _triple_trace(pair.j1.j_matrix(), jdot_matrix(pair, h1),
                                        jdot_matrix(pair, h2)), name
            nonzero += not got.is_zero()
    assert nonzero == 5


def test_trace_pairing_antisymmetric_imaginary_part():
    """tr(J Jdot1 Jdot2) has the symmetry used by the deformation 2-form."""
    pair = flat_kahler(2).pair()
    rng = random.Random(33)
    h1 = random_compat_bivector(pair, rng)
    h2 = random_compat_bivector(pair, rng)
    t12 = trace_pairing(pair, h1, h2)
    t21 = trace_pairing(pair, h2, h1)
    # real and exactly antisymmetric: the deformation 2-form integrand
    assert t12.is_real()
    assert (t12 + t21).is_zero()
