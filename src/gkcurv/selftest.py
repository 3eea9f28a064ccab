"""Seeded exact property suite for the structural identities.

Each check runs a batch of randomized instances in dimensions 2 and 4 (the
obstruction family in dimension 4 only) and demands zero canonical
difference; the calibrated constants come from the committed fixture.
`run_suite` runs every family; the benchmark's selftest_suite workload times
each one.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from .calibration import load_fixture, saisho_sides
from .curvature import rho
from .examples import flat_kahler, hyperkahler_type00
from .forms import Chart
from .genalg import GenVec, clifford_act, pair_tt, wedge_sum
from .gkpair import GKPair, jdot_matrix, random_compat_bivector
from .linalg import mat_vec
from .scalars import QQi, ScalarExpr
from .spinor import eta_N_extract


def _rand_coeff(rng, chart, trig=True):
    c = QQi(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            Fraction(rng.randint(-2, 2), 1))
    out = chart.const(c)
    if trig and rng.random() < 0.3:
        freq = [0] * chart.dim
        freq[rng.randrange(chart.dim)] = rng.choice([-1, 1])
        fn = ScalarExpr.cos if rng.random() < 0.5 else ScalarExpr.sin
        out = out * fn(chart.dim, tuple(freq))
    return out


def _rand_genvec(rng, chart, trig=True):
    return GenVec(chart, [_rand_coeff(rng, chart, trig) for _ in range(chart.dim)],
                  [_rand_coeff(rng, chart, trig) for _ in range(chart.dim)])


def _rand_real_genvec(rng, chart, trig=True):
    e = _rand_genvec(rng, chart, trig)
    half = chart.const(Fraction(1, 2))
    return GenVec(chart, [(a + a.conj()) * half for a in e.v],
                  [(a + a.conj()) * half for a in e.xi])


def _rand_form(rng, chart, trig=True):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(chart.dim + 1)
        idx = tuple(sorted(rng.sample(range(chart.dim), k)))
        terms[idx] = _rand_coeff(rng, chart, trig)
    return chart.form(terms)


def check_clifford_relation(seed, instances) -> dict:
    """e1.(e2.a) + e2.(e1.a) = 2 <e1, e2> a."""
    rng = random.Random(seed)
    count = 0
    for n in (1, 2):
        chart = Chart.flat(n)
        for _ in range(instances):
            e1 = _rand_genvec(rng, chart)
            e2 = _rand_genvec(rng, chart)
            a = _rand_form(rng, chart)
            lhs = clifford_act(e1, clifford_act(e2, a)) + \
                clifford_act(e2, clifford_act(e1, a))
            if lhs != a.scale(pair_tt(e1, e2) * 2):
                return {"passed": False, "instances": count}
            count += 1
    return {"passed": True, "instances": count}


def check_sigma_d(seed, instances) -> dict:
    """d(sigma a) = sigma(d a) on even forms and its negative on odd forms."""
    rng = random.Random(seed)
    count = 0
    for n in (1, 2):
        chart = Chart.flat(n)
        for _ in range(instances):
            k = rng.randrange(chart.dim + 1)
            terms = {tuple(sorted(rng.sample(range(chart.dim), k))):
                     _rand_coeff(rng, chart)}
            a = chart.form(terms)
            lhs = a.sigma().ext_d()
            rhs = a.ext_d().sigma()
            if lhs != (rhs if k % 2 == 0 else -rhs):
                return {"passed": False, "instances": count}
            count += 1
    return {"passed": True, "instances": count}


def _e_projections(pair, x: GenVec):
    """Split along E and conj(E) of the first structure: P = (1 +- iJ)/2."""
    chart = pair.chart
    jx = GenVec.from_column(chart, mat_vec(pair.j1.j_matrix(), x.column()))
    half = chart.const(Fraction(1, 2))
    ihalf = chart.const(QQi(0, Fraction(1, 2)))
    x10 = GenVec(chart, [(a * half + b * ihalf) for a, b in zip(x.v, jx.v)],
                 [(a * half + b * ihalf) for a, b in zip(x.xi, jx.xi)])
    x01 = x - x10
    return x10, x01


def check_hjtheta(seed, instances) -> dict:
    """[[h,J], theta].conj(psi) = 2i([h20, theta01] - [h02, theta10]).conj(psi)."""
    rng = random.Random(seed)
    count = 0
    for n in (1, 2):
        pair = flat_kahler(n).pair()
        chart = pair.chart
        psibar = pair.psibar()
        fr = pair.epm_frame()
        es = fr.es
        for _ in range(instances):
            pieces = []
            for i, j in itertools.combinations(range(len(es)), 2):
                if rng.random() < 0.5:
                    pieces.append((_rand_coeff(rng, chart), es[i], es[j]))
            h20 = wedge_sum(chart, 2, pieces)
            h = h20 + h20.conj()
            theta = _rand_real_genvec(rng, chart)
            t10, t01 = _e_projections(pair, theta)
            jd = jdot_matrix(pair, h)
            u = GenVec.from_column(chart, mat_vec(jd, theta.column()))
            lhs = clifford_act(u, psibar)
            w = h20.ad(t01) - h20.conj().ad(t10)
            rhs = clifford_act(w, psibar).scale(QQi(0, 2))
            if (lhs - rhs) != chart.zero_form():
                return {"passed": False, "instances": count}
            count += 1
    return {"passed": True, "instances": count}


def check_psi_lemma(seed, instances) -> dict:
    """Two-sided pairing identity moving a deformation from phi to psi."""
    rng = random.Random(seed)
    count = 0
    for n in (1, 2):
        pair = flat_kahler(n).pair()
        chart = pair.chart
        phi = pair.j1.spinor()
        phibar = phi.conj()
        psi, psibar = pair.psi(), pair.psibar()
        rho_val = rho(pair)
        for _ in range(instances):
            h = random_compat_bivector(pair, rng)
            e = _rand_real_genvec(rng, chart, trig=False)
            th = _rand_real_genvec(rng, chart, trig=False)
            lhs = clifford_act(e, phi).mukai(
                clifford_act(th, h.spin_act(phibar))).scale(2 / rho_val) \
                - clifford_act(th, h.spin_act(phi)).mukai(
                    clifford_act(e, phibar)).scale(2 / rho_val)
            jd = jdot_matrix(pair, h)
            u = GenVec.from_column(chart, mat_vec(jd, th.column()))
            rhs = clifford_act(e, psi).mukai(
                clifford_act(u, psibar)).scale(QQi(0, 1)) \
                + clifford_act(u, psi).mukai(
                    clifford_act(e, psibar)).scale(QQi(0, 1))
            if lhs != rhs:
                return {"passed": False, "instances": count}
            count += 1
    return {"passed": True, "instances": count}


def _nonintegrable_pair(rng) -> GKPair:
    """Almost GK pair on a flat chart whose obstruction tensor is nonzero."""
    chart = Chart.flat(2)
    i1, i2 = rng.sample(range(3), 2)
    k = rng.randrange(4)
    if rng.random() < 0.1:
        freq = [0] * 4
        freq[k] = 1
        f = ScalarExpr.cos(4, tuple(freq)) * QQi(rng.randint(1, 2))
    else:
        f = chart.coord_s(k) * QQi(rng.choice([-2, -1, 1, 2]))
    sign = rng.choice([1, -1])
    j1, w2 = hyperkahler_type00(chart, f, f * QQi(sign), i1, i2)
    return GKPair(j1, chart.zero_form(), w2)


def check_n_psi(seed, instances) -> dict:
    """The Lambda^3 obstruction of a compatible pair annihilates psi."""
    rng = random.Random(seed)
    count = 0
    nontrivial = 0
    for _ in range(instances):
        pair = _nonintegrable_pair(rng)
        res = eta_N_extract(pair.j1)
        if not res.n3.is_zero():
            nontrivial += 1
        if not res.n3.spin_act(pair.psi()).is_zero():
            return {"passed": False, "instances": count}
        count += 1
    return {"passed": nontrivial > 0, "instances": count,
            "nonzero_obstruction_instances": nontrivial}


def check_saisho(seed, instances) -> dict:
    """Trace identity against the frozen constant kappa."""
    fixture = load_fixture()
    rng = random.Random(seed)
    count = 0
    for n in (1, 2):
        pair = flat_kahler(n).pair()
        kappa = pair.chart.sc(fixture["saisho_constant"][str(n)])
        for lhs, rhs in itertools.islice(saisho_sides(pair, rng), instances):
            if lhs != rhs.scale(kappa):
                return {"passed": False, "instances": count}
            count += 1
    return {"passed": True, "instances": count}


SUITE = (
    ("clifford_relation", check_clifford_relation),
    ("sigma_d_identity", check_sigma_d),
    ("deformation_bracket_on_psi", check_hjtheta),
    ("two_sided_pairing", check_psi_lemma),
    ("obstruction_kills_psi", check_n_psi),
    ("trace_identity", check_saisho),
)


def run_suite(seed=2024, instances=100) -> list:
    """Run every lemma family with >= `instances` instances each.

    Families running in both dimensions split the count between them; the
    obstruction family lives in dimension 4 only (the rank-3 bundle is zero
    on a 2-dimensional chart) and runs the full count there.
    """
    out = []
    for name, fn in SUITE:
        t0 = time.perf_counter()
        if fn is check_n_psi:
            res = fn(seed, instances)
        else:
            res = fn(seed, (instances + 1) // 2)
        res["name"] = name
        res["elapsed_s"] = round(time.perf_counter() - t0, 2)
        out.append(res)
    return out
