"""Sign and constant calibration, frozen as a committed fixture.

The spin-representation conventions (interior product + wedge, the
degree-mod-4 involution) force every global sign and prefactor in the
curvature identities.  Rather than trusting any stated constant, this
module measures them exhaustively (small dimensions) or on seeded exact
instances, and the committed JSON fixture pins the result; `calibrate`
recomputes everything and must reproduce the fixture bit for bit.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from .curvature import (GR_COMPLEX_CONSTANT, MOMENT_FORM_CONSTANT,
                        gr_two_term_forms, gric_gr, proportionality, rho)
from .examples import flat_kahler, flat_omega_form, fubini_study_chart
from .forms import Chart
from .genalg import GenVec, clifford_act, pair_tt
from .gkpair import ddbar_pm, random_compat_bivector, trace_pairing
from .scalars import QQi, format_qqi, ipow

FIXTURE_PATH = Path(__file__).with_name("data") / "calibration.json"


def _basis_forms(chart):
    out = []
    for k in range(chart.dim + 1):
        for idx in itertools.combinations(range(chart.dim), k):
            out.append((k, chart.form({idx: 1})))
    return out


def mukai_swap_table(n: int) -> dict:
    """Signs eps(a, b) with <alpha, beta> = eps <beta, alpha>, exhaustively."""
    chart = Chart.flat(n)
    forms = _basis_forms(chart)
    table = {}
    for (da, alpha) in forms:
        for (db, beta) in forms:
            ab = alpha.mukai(beta)
            ba = beta.mukai(alpha)
            if ab.is_zero() and ba.is_zero():
                continue
            if ab == ba:
                sign = 1
            elif ab == -ba:
                sign = -1
            else:
                raise AssertionError("swap is not a sign on basis pairs")
            key = (da, db)
            if key in table and table[key] != sign:
                raise AssertionError(f"inconsistent swap sign at degrees {key}")
            table[key] = sign
    return {f"{a},{b}": s for (a, b), s in sorted(table.items())}


def mukai_adjoint_sign(n: int) -> int:
    """Sign s with <e.alpha, beta> = s <alpha, e.beta>, exhaustively."""
    chart = Chart.flat(n)
    forms = _basis_forms(chart)
    sign = None
    for a in range(2 * chart.dim):
        e = GenVec.basis(chart, a)
        for (_, alpha) in forms:
            left = clifford_act(e, alpha)
            for (_, beta) in forms:
                lhs = left.mukai(beta)
                rhs = alpha.mukai(clifford_act(e, beta))
                if lhs.is_zero() and rhs.is_zero():
                    continue
                if lhs == rhs:
                    s = 1
                elif lhs == -rhs:
                    s = -1
                else:
                    raise AssertionError("adjoint relation is not a sign")
                if sign is None:
                    sign = s
                elif sign != s:
                    raise AssertionError("adjoint sign is not uniform")
    return sign


def polarization_sign(n: int) -> int:
    """Sign s in <e1.w1, e2.w2> + <e2.w1, e1.w2> = 2 s <e1,e2><w1,w2>, on
    25 seeded instances with a nonzero right side."""
    chart = Chart.flat(n)
    rng = random.Random(2024 + n)
    sign = None
    checked = 0
    while checked < 25:
        e1 = _random_basisish(rng, chart)
        e2 = _random_basisish(rng, chart)
        w1 = _random_form(rng, chart)
        w2 = _random_form(rng, chart)
        lhs = clifford_act(e1, w1).mukai(clifford_act(e2, w2)) + \
            clifford_act(e2, w1).mukai(clifford_act(e1, w2))
        base = w1.mukai(w2).scale(pair_tt(e1, e2) * 2)
        if base.is_zero():
            if not lhs.is_zero():
                raise AssertionError("polarization identity violated")
            continue
        if lhs == base:
            s = 1
        elif lhs == -base:
            s = -1
        else:
            raise AssertionError("polarization defect is not a sign")
        if sign is None:
            sign = s
        elif sign != s:
            raise AssertionError("polarization sign is not uniform")
        checked += 1
    return sign


def _random_basisish(rng, chart):
    out = GenVec.zero(chart)
    for _ in range(rng.randint(1, 2)):
        c = QQi(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1)))
        out = out + GenVec.basis(chart, rng.randrange(2 * chart.dim)).scale(c)
    return out


def _random_form(rng, chart):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(chart.dim + 1)
        idx = tuple(sorted(rng.sample(range(chart.dim), k)))
        terms[idx] = QQi(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1)))
    return chart.form(terms)


def flat_volume_pairing_check(n: int) -> bool:
    """<exp(i w), exp(-i w)> = (2i)^n w^n / n! for the flat symplectic form."""
    chart = Chart.flat(n)
    w = flat_omega_form(chart)
    psi = w.scale(QQi(0, 1)).exp()
    top = psi.mukai(psi.conj())
    expect = chart.func(1)
    c = QQi(1)
    fact = 1
    for k in range(n):
        expect = expect.wedge(w)
        c = c * QQi(0, 2)
        fact *= (k + 1)
    return top == expect.scale(c * QQi(Fraction(1, fact)))


def flat_rho(n: int) -> str:
    pair = flat_kahler(n).pair()
    return rho(pair).to_string(pair.chart.coords)


def saisho_sides(pair, rng):
    """Endless seeded instances (lhs, rhs / kappa) of the trace identity
    tr(J [h1,J] [h2,J]) <psi,psi_bar> = kappa rho^{-1}(<h1.phi, conj(h2.phi)> - <h2.phi, conj(h1.phi)>),
    drawing h1 then h2 from `rng` for each."""
    phi = pair.j1.spinor()
    vol = pair.psi().mukai(pair.psibar())
    inv_rho = 1 / rho(pair)
    while True:
        h1 = random_compat_bivector(pair, rng)
        h2 = random_compat_bivector(pair, rng)
        lhs = vol.scale(trace_pairing(pair, h1, h2))
        p1 = h1.spin_act(phi)
        p2 = h2.spin_act(phi)
        yield lhs, (p1.mukai(p2.conj()) - p2.mukai(p1.conj())).scale(inv_rho)


def saisho_constant(n: int) -> str:
    """kappa of the trace identity (`saisho_sides`), on 3 seeded instances
    with a nonzero right side."""
    pair = flat_kahler(n).pair()
    kappa = None
    done = 0
    for lhs, rhs in saisho_sides(pair, random.Random(2024 + 10 * n)):
        if rhs.is_zero():
            if not lhs.is_zero():
                raise AssertionError("trace identity violated")
            continue
        k = proportionality(lhs, rhs)
        if k is None:
            raise AssertionError("trace identity is not proportional")
        if kappa is None:
            kappa = k
        elif kappa != k:
            raise AssertionError("trace constant is not uniform")
        done += 1
        if done == 3:
            return kappa.to_string(pair.chart.coords)


def two_term_constant(n: int) -> str:
    """c with c (A - B) = i^{-n} gr <psi, psi_bar> on the projective chart."""
    pair = fubini_study_chart(n).pair()
    rep = gric_gr(pair)
    a, b, vol = gr_two_term_forms(pair)
    target = vol.scale(rep.gr * ipow(-n))
    lam = proportionality(target, a - b)
    if lam is None or not lam.is_const():
        raise AssertionError("two-term identity is not proportional")
    return lam.to_string(pair.chart.coords)


def fs_einstein_constant(n: int) -> str:
    pair = fubini_study_chart(n).pair()
    rep = gric_gr(pair)
    lam = proportionality(rep.gric, pair.omega)
    if lam is None:
        raise AssertionError("projective-space curvature is not Einstein")
    return lam.to_string(pair.chart.coords)


def ddbar_oracle_constant() -> str:
    """Ratio between the full algebroid differential of the Hamiltonian
    section and the mixed second derivative (measured on the flat chart)."""
    pair = flat_kahler(2).pair()
    out = ddbar_pm(pair, pair.chart.sc("x1*x2"))
    ratios = {out["oracle_full"][k] / v for k, v in out["mixed"].items()}
    if len(ratios) != 1:
        raise AssertionError("mixed-derivative ratio is not constant")
    return ratios.pop().to_string(pair.chart.coords)


def gr_complex_constant() -> str:
    """Normalizer making Re(gr_complex) = gr; fixed in the implementation."""
    return format_qqi(GR_COMPLEX_CONSTANT)


def moment_form_constant() -> str:
    """Normalizer of the deformation 2-form against the quoted trace
    integral; confirmed by the exact moment-map identity lhs == rhs and
    asserted by the acceptance suite."""
    return format_qqi(MOMENT_FORM_CONSTANT)


def compute_calibration() -> dict:
    return {
        "mukai_swap_signs": {str(2 * n): mukai_swap_table(n) for n in (1, 2)},
        "mukai_adjoint_sign": {str(2 * n): mukai_adjoint_sign(n) for n in (1, 2)},
        "polarization_sign": {str(2 * n): polarization_sign(n) for n in (1, 2)},
        "volume_pairing_is_(2i)^n_w^n/n!": {
            str(2 * n): flat_volume_pairing_check(n) for n in (1, 2, 3)},
        "flat_rho": {str(n): flat_rho(n) for n in (1, 2)},
        "saisho_constant": {str(n): saisho_constant(n) for n in (1, 2)},
        "ddbar_oracle_constant": ddbar_oracle_constant(),
        "gr_complex_constant": gr_complex_constant(),
        "moment_form_constant": moment_form_constant(),
        "two_term_constant": {str(n): two_term_constant(n) for n in (1, 2)},
        "fs_einstein_constant": {str(n): fs_einstein_constant(n)
                                 for n in (1, 2)},
    }


def fixture_bytes(data: dict) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def load_fixture() -> dict:
    with open(FIXTURE_PATH, "rb") as fh:
        return json.load(fh)


def write_fixture(data: dict):
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    with open(FIXTURE_PATH, "wb") as fh:
        fh.write(fixture_bytes(data))


def calibrate(write=False) -> dict:
    """Recompute every constant (the exhaustive sign tables, the flat-chart
    and the projective-space constants) and compare bit-exactly against the
    fixture; write=True regenerates the fixture instead."""
    data = compute_calibration()
    if write:
        write_fixture(data)
        return {"status": "written", "data": data}
    match = FIXTURE_PATH.read_bytes() == fixture_bytes(data)
    return {"status": "match" if match else "drift", "data": data}
