"""Ready-made scenes: every worked example, plus internal test fixtures.

Each constructor returns an ExampleScene holding the chart, the defining
structure, the symplectic-type spinor data, a list of the checks that apply
to it (op name and arguments), and notes on the machine-checkable
expectations the test suite enforces. A type-(0,0) scene, a pair
(exp(B + i w1), exp(i w2)), holds B and w1 as `scene.j1.b` and `.omega`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotBivector, SceneError
from .forms import Chart, Form
from .genalg import GenVec, interior
from .gkpair import GKPair
from .scalars import QQi, ScalarExpr
from .spinor import ComplexVolumeGCS, GCStruct, MovedGCS, SymplecticGCS


@dataclass
class ExampleScene:
    name: str
    chart: Chart
    j1: GCStruct
    b: Form
    omega: Form
    tasks: list = field(default_factory=list)
    expected: dict = field(default_factory=dict)

    def pair(self) -> GKPair:
        return GKPair(self.j1, self.b, self.omega)


def flat_volume_forms(chart):
    return [chart.form({(2 * k,): 1, (2 * k + 1,): QQi(0, 1)})
            for k in range(chart.n)]


def flat_omega_form(chart):
    return chart.form({(2 * k, 2 * k + 1): 1 for k in range(chart.n)})


def flat_kahler(n: int, periodic=False) -> ExampleScene:
    """Flat Kahler chart: volume-form structure paired with exp(i w0)."""
    if n > 3:
        raise SceneError("flat_kahler supports n <= 3")
    chart = Chart.flat(n, periodic)
    j1 = ComplexVolumeGCS(chart, flat_volume_forms(chart))
    return ExampleScene(
        name=f"flat_kahler_c{n}",
        chart=chart,
        j1=j1,
        b=chart.zero_form(),
        omega=flat_omega_form(chart),
        tasks=[
            {"op": "compatibility", "points": [[0] * 2 * n, [1] * 2 * n]},
            {"op": "integrability", "expect": True},
            {"op": "gric_gr", "expect": {"gric_zero": True, "gr_zero": True}},
            {"op": "type_number", "point": [0] * 2 * n, "expect": n},
        ],
        expected={"rho": "1" if n % 2 == 0 else "-1",
                  "gric": "0", "gr": "0", "type": n},
    )


def _one_plus_norm_sq(chart) -> ScalarExpr:
    """1 + |z|^2 on the affine chart."""
    return sum((chart.coord_s(k) * chart.coord_s(k) for k in range(chart.dim)),
               chart.one_s())


def fubini_study_omega(chart) -> Form:
    """i ddbar log(1 + |z|^2) on the affine chart, in real coordinates."""
    n = chart.n
    s = _one_plus_norm_sq(chart)
    dz = flat_volume_forms(chart)
    z = [chart.coord_s(2 * k) + chart.i_s() * chart.coord_s(2 * k + 1)
         for k in range(n)]
    out = chart.zero_form()
    for j in range(n):
        for k in range(n):
            g = (s if j == k else chart.zero_s()) - z[j].conj() * z[k]
            out = out + dz[j].wedge(dz[k].conj()).scale(g / (s * s) * QQi(0, 1))
    return out


def fubini_study_chart(n: int) -> ExampleScene:
    """Affine chart of complex projective space with its standard metric."""
    if n not in (1, 2):
        raise SceneError("fubini_study_chart supports n in {1, 2}")
    chart = Chart.flat(n)
    j1 = ComplexVolumeGCS(chart, flat_volume_forms(chart))
    return ExampleScene(
        name=f"fubini_study_cp{n}",
        chart=chart,
        j1=j1,
        b=chart.zero_form(),
        omega=fubini_study_omega(chart),
        tasks=[
            {"op": "compatibility", "points": [[0] * 2 * n,
                                               [1] + [0] * (2 * n - 1)]},
            {"op": "gric_gr", "expect": {"einstein": True, "gric_closed": True,
                                         "gr_constant": True}},
        ],
        expected={"einstein": True, "gr_constant": True},
    )


def hyperkahler_type00(chart, fb=0, fw=0, i1=0, i2=1):
    """(J1, w2) of a type-(0,0) pair on a 4-dimensional chart, from the
    self-dual triple w_i, w_j, w_k and the anti-self-dual triple asd:
    J1 = exp(B + i w1) with B = w_j + fb asd[i1] and
    w1 = (w_i + w_k)/2 + fw asd[i2], and w2 = (w_i - w_k)/2."""
    w_i = chart.form({(0, 1): 1, (2, 3): 1})
    w_j = chart.form({(0, 2): 1, (1, 3): -1})
    w_k = chart.form({(0, 3): 1, (1, 2): 1})
    asd = (chart.form({(0, 1): 1, (2, 3): -1}), chart.form({(0, 2): 1, (1, 3): 1}),
           chart.form({(0, 3): 1, (1, 2): -1}))
    b = w_j + asd[i1].scale(fb)
    w1 = (w_i + w_k).scale(Fraction(1, 2)) + asd[i2].scale(fw)
    return SymplecticGCS(chart, b, w1), (w_i - w_k).scale(Fraction(1, 2))


def hyperkahler_t4() -> ExampleScene:
    """Flat 4-torus with the quaternionic triple arranged as a type-(0,0) pair."""
    chart = Chart.flat(2, periodic=True)
    j1, w2 = hyperkahler_type00(chart)
    return ExampleScene(
        name="hyperkahler_t4",
        chart=chart,
        j1=j1,
        b=chart.zero_form(),
        omega=w2,
        tasks=[
            {"op": "compatibility", "points": [[0, 0, 0, 0]]},
            {"op": "type00_check", "points": [[0, 0, 0, 0]]},
            {"op": "gric_gr", "expect": {"gric_zero": True, "gr_zero": True}},
            {"op": "gr_complex_zero"},
        ],
        expected={"rho": "1", "gric": "0", "gr": "0", "type00": True},
    )


def torus_poisson_deform(base: ExampleScene, fields, moments, lam) -> ExampleScene:
    """Poisson deformation of a Kahler scene by a torus action.

    fields: commuting real vector fields V_i with i_{V_i} omega = d mu_i and
    omega(V_i, V_j) = 0; lam: antisymmetric matrix (upper triangle used) of
    rationals or of chart scalars constant in the coordinates (a chart's
    parameters may enter them); an entry that varies raises SceneError.
    J1 is moved by exp(beta), beta = sum_{i<j} lam_ij V_i ^ V_j, as
    `MovedGCS(base.j1, pieces)`: the pieces commute and square to zero, so
    exp(beta) is the product of their factors.  b moves by
    -sum lam_ij dmu_i ^ dmu_j.  Raises NotBivector for a covector part.
    """
    chart = base.chart
    m = len(fields)
    pieces = []
    bshift = chart.zero_form()
    dmus = [chart.func(mu).ext_d() for mu in moments]
    for i in range(m):
        if not all(c.is_zero() for c in fields[i].xi):
            raise NotBivector(f"field {i} has a covector part")
        iv = interior(chart, fields[i].v, base.omega)
        if iv != dmus[i]:
            raise SceneError(f"i_V omega != d mu for field {i}")
        for j in range(i + 1, m):
            if not interior(chart, fields[j].v, iv).is_zero():
                raise SceneError("omega(V_i, V_j) must vanish")
            lij = lam[i][j]
            lij = chart._as_scalar(lij if isinstance(lij, ScalarExpr) else Fraction(lij))
            if any(not lij.partial(k).is_zero() for k in range(chart.dim)):
                raise SceneError(f"lam[{i}][{j}] varies with a coordinate")
            if lij.is_zero():
                continue
            pieces.append((lij, fields[i], fields[j]))
            bshift = bshift - dmus[i].wedge(dmus[j]).scale(lij)
    return ExampleScene(
        name=base.name + "_poisson",
        chart=chart,
        j1=MovedGCS(base.j1, pieces),
        b=base.b + bshift,
        omega=base.omega,
        tasks=[
            {"op": "compatibility", "points": base.tasks[0]["points"]
             if base.tasks else [[0] * chart.dim]},
            {"op": "integrability", "expect": True},
        ],
        expected=dict(base.expected),
    )


def t4_translation_deform(lam=Fraction(1, 2)) -> ExampleScene:
    """Flat 4-torus deformed along commuting translation fields."""
    base = flat_kahler(2, periodic=True)
    chart = base.chart
    v1 = GenVec.vector(chart, [1, 0, 0, 0])
    v2 = GenVec.vector(chart, [0, 0, 1, 0])
    mu1 = chart.coord_s(1)
    mu2 = chart.coord_s(3)
    scene = torus_poisson_deform(base, [v1, v2], [mu1, mu2],
                                 [[0, lam], [-lam, 0]])
    scene.name = "t4_translation_poisson"
    return scene


def rotation_fields(chart):
    out = []
    for k in range(chart.n):
        comps = [chart.zero_s()] * chart.dim
        comps[2 * k] = -chart.coord_s(2 * k + 1)
        comps[2 * k + 1] = chart.coord_s(2 * k)
        out.append(GenVec.vector(chart, comps))
    return out


def cp2_three_lines(lam=Fraction(1, 1)) -> ExampleScene:
    """Projective-plane chart deformed by the torus action vanishing on the
    three coordinate lines; the structure stays Einstein."""
    base = fubini_study_chart(2)
    chart = base.chart
    fields = rotation_fields(chart)
    s = _one_plus_norm_sq(chart)
    moments = [-(chart.coord_s(2 * k) ** 2 + chart.coord_s(2 * k + 1) ** 2) / s
               for k in range(2)]
    scene = torus_poisson_deform(base, fields, moments,
                                 [[0, lam], [-lam, 0]])
    scene.name = "cp2_three_lines"
    scene.tasks.append({"op": "type_number", "point": [1, 0, 1, 0], "expect": 0})
    scene.tasks.append({"op": "type_number", "point": [0, 0, 1, 0], "expect": 2})
    scene.tasks.append({"op": "gric_gr", "expect": {"einstein": True}})
    return scene


# ---------------------------------------------------------------------------
# Internal fixtures (not part of the published catalogue, used by tests)
# ---------------------------------------------------------------------------


def t4_nonintegrable(amp=Fraction(1, 4)) -> ExampleScene:
    """Almost GK pair on the 4-torus whose first structure has N != 0.

    The self-dual triple is perturbed by a periodic function along two
    anti-self-dual directions; the pointwise pair conditions survive while
    d(phi) acquires a Lambda^3 component.
    """
    chart = Chart.flat(2, periodic=True)
    f = ScalarExpr.cos(chart.dim, (1, 0, 0, 0)) * QQi(amp)
    j1, w2 = hyperkahler_type00(chart, f, f)
    return ExampleScene(
        name="t4_nonintegrable",
        chart=chart,
        j1=j1,
        b=chart.zero_form(),
        omega=w2,
        tasks=[{"op": "compatibility", "points": [[0, 0, 0, 0]]},
               {"op": "integrability", "expect": False}],
        expected={"n_nonzero": True},
    )


def type00_perturbed() -> ExampleScene:
    """Type-(0,0) pair with nonconstant volume ratio (nonzero curvature)."""
    chart = Chart.flat(2)
    dz1, dz2 = flat_volume_forms(chart)
    z1 = chart.sc("x1 + i*x2")
    wplus = dz1.wedge(dz2) + dz1.wedge(dz2.conj()).scale(z1)
    wminus = dz1.wedge(dz2) + dz1.conj().wedge(dz2).scale(z1.conj())
    B = (wplus + wplus.conj()).scale(Fraction(1, 2))
    im_plus = (wplus - wplus.conj()).scale(QQi(0, Fraction(-1, 2)))
    im_minus = (wminus - wminus.conj()).scale(QQi(0, Fraction(-1, 2)))
    w1 = (im_plus + im_minus).scale(Fraction(1, 2))
    w2 = (im_minus - im_plus).scale(Fraction(1, 2))
    return ExampleScene(
        name="type00_perturbed",
        chart=chart,
        j1=SymplecticGCS(chart, B, w1),
        b=chart.zero_form(),
        omega=w2,
        tasks=[{"op": "gric_gr", "expect": {"gric_closed": True}}],
        expected={"gric_nonzero": True},
    )


def generalized_cy() -> ExampleScene:
    """Pair with equal spinor volumes: the complex invariant vanishes."""
    scene = hyperkahler_t4()
    scene.name = "generalized_cy_t4"
    scene.tasks = [{"op": "gr_complex_zero"}]
    scene.expected = {"rho": "1", "gr_complex": "0"}
    return scene


CATALOG = {
    "flat_kahler_c1": lambda: flat_kahler(1),
    "flat_kahler_c2": lambda: flat_kahler(2),
    "fubini_study_cp1": lambda: fubini_study_chart(1),
    "fubini_study_cp2": lambda: fubini_study_chart(2),
    "hyperkahler_t4": hyperkahler_t4,
    "t4_translation_poisson": t4_translation_deform,
    "cp2_three_lines": cp2_three_lines,
    "t4_nonintegrable": t4_nonintegrable,
    "type00_perturbed": type00_perturbed,
    "generalized_cy_t4": generalized_cy,
}
