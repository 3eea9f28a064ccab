"""Seeded inputs, timed bodies and correctness items of the three workloads.

`make_inputs(workload, seed, index)` turns the benchmark seed and the sample
index into a plain JSON spec; only what the spec names reaches gkcurv.
`run(workload, spec, stages)` builds the inputs (the set-up phase), then runs
the timed phase and returns every item's output.  `grade` compares outputs
with the committed reference: an item fails when its output differs from
the reference, and an item that raised carries an error output, which never
matches.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

WORKLOADS = ("cp2_curvature", "torus_moment", "selftest_suite")

# torus_moment family.  f = s * g(k x_j) and the path velocity is
# h = c e+ ^ e- + conj with c = g(k x_j): f and c share the function and
# frequency, since every other pairing in the family is vacuous (0 = 0).
# The rational scale s sits on f, which enters lhs and rhs linearly; a scale
# on c would change the path's nonlinearity and so the finite-difference
# error.  Over the family the relative error is 1.50e-11 to 1.65e-11.
TORUS_SCALES = ("1", "-1", "1/2", "-1/2", "2", "3/2")
TORUS_FUNCS = ("cos", "sin")
T4_INSTANCE = {"n": 2, "j": 0, "fn": "cos", "k": 1, "scale": "1"}
MOMENT_REL_TOL = 1e-10

SELFTEST_INSTANCES = 4
CP2_SCENES = ("fubini_study_cp2", "cp2_three_lines")


def torus_key(inst) -> str:
    return (f"T{2 * inst['n']}:x{inst['j'] + 1}:{inst['fn']}:{inst['k']}:"
            f"{inst['scale']}")


def torus_family():
    """Every T^2 member the generator can draw."""
    return [{"n": 1, "j": j, "fn": fn, "k": k, "scale": s}
            for j in (0, 1) for fn in TORUS_FUNCS for k in (1, 2)
            for s in TORUS_SCALES]


def _rational(rng) -> str:
    return str(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def make_inputs(workload: str, seed: int, index: int) -> dict:
    """Deterministic input spec for sample `index` of a run with `seed`."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "cp2_curvature":
        return {"points": [[_rational(rng) for _ in range(4)]
                           for _ in range(2)]}
    if workload == "torus_moment":
        # one cos and one sin instance, one with k = 1 and one with k = 2,
        # so every sample carries the same cost classes
        ks = [1, 2]
        rng.shuffle(ks)
        t2 = [{"n": 1, "j": rng.randrange(2), "fn": fn, "k": k,
               "scale": rng.choice(TORUS_SCALES)}
              for fn, k in zip(TORUS_FUNCS, ks)]
        return {"instances": t2 + [dict(T4_INSTANCE)]}
    if workload == "selftest_suite":
        return {"suite_seed": rng.randrange(2 ** 31),
                "instances": SELFTEST_INSTANCES}
    raise ValueError(f"unknown workload {workload!r}")


class Stages:
    """Accumulating stage timers; `wrap` may add a span around each stage."""

    def __init__(self):
        self.times = {}
        self.wrap = None

    def __call__(self, name, fn, *args):
        call = fn if self.wrap is None else self.wrap(f"stage.{name}", fn)
        t0 = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.times[name] = self.times.get(name, 0.0) + \
                time.perf_counter() - t0


def _item(outputs, key, fn):
    """Record one item's output, or the error it raised."""
    try:
        outputs[key] = fn()
    except Exception as exc:  # an item that raises is a failed item
        outputs[key] = {"error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# cp2_curvature
# ---------------------------------------------------------------------------


def _cp2_build(spec, stages):
    from gkcurv.examples import CATALOG
    from gkcurv.scalars import Point

    def build():
        out = {}
        for name in CP2_SCENES:
            scene = CATALOG[name]()
            out[name] = (scene, scene.pair())
        return out
    built = stages("build", build)
    return built, [Point([Fraction(x) for x in p]) for p in spec["points"]]


def _cp2_timed(built, pts, stages):
    from gkcurv.curvature import gric_gr, rho
    from gkcurv.gkpair import compatibility_check
    from gkcurv.scalars import Point
    from gkcurv.spinor import eta_N_extract, integrability, type_number

    outputs = {}

    def matrices(pair):
        pair.j1.j_matrix()
        pair.jpsi_matrix()

    def compat(pair, pts):
        stages("j_matrix", matrices, pair)
        r = stages("pointwise", compatibility_check, pair, pts)
        return {"commute": r["commute"], "positive": r["positive"]}

    scene, pair = built["fubini_study_cp2"]
    name = scene.name
    _item(outputs, f"{name}/compatibility", lambda: compat(pair, pts))

    def epm():
        fr = stages("epm_frame", pair.epm_frame)
        return {"eplus": len(fr.eplus), "eminus": len(fr.eminus)}
    _item(outputs, f"{name}/epm_frame", epm)

    def curvature():
        en = stages("eta_N_extract", eta_N_extract, pair.j1)
        rv = stages("rho", rho, pair)
        rep = stages("gric_gr", gric_gr, pair, en, rv)
        flags = rep.flags
        return {"report": rep.to_dict(),
                "expect": {"einstein": flags["gric_proportional_to_omega"],
                           "gric_closed": flags["gric_closed"],
                           "gr_constant": flags["gr_constant"]}}
    _item(outputs, f"{name}/gric_gr", curvature)

    scene, pair = built["cp2_three_lines"]
    name = scene.name
    _item(outputs, f"{name}/integrability",
          lambda: stages("eta_N_extract", integrability, pair.j1))
    for task in scene.tasks:
        if task["op"] == "type_number":
            p = task["point"]
            _item(outputs, f"{name}/type_number@{p}",
                  lambda p=p: stages("pointwise", type_number, pair.j1,
                                     Point(p)))
    return outputs, {}


# ---------------------------------------------------------------------------
# torus_moment
# ---------------------------------------------------------------------------


def torus_instance(inst):
    """Pair, f and path pieces of one family member."""
    from gkcurv.examples import flat_kahler
    from gkcurv.scalars import QQi, ScalarExpr

    n, dim = inst["n"], 2 * inst["n"]
    pair = flat_kahler(n, periodic=True).pair()
    frame = pair.epm_frame()
    freq = [0] * dim
    freq[inst["j"]] = inst["k"]
    g = getattr(ScalarExpr, inst["fn"])(dim, tuple(freq))
    f = g * QQi(Fraction(inst["scale"]))
    return pair, f, [(g, frame.eplus[0], frame.eminus[0])]


def _torus_build(spec, stages):
    return stages("build", lambda: [(inst, torus_instance(inst))
                                    for inst in spec["instances"]])


def moment_output(res) -> dict:
    rhs = res["rhs"]
    return {"rhs": str(rhs), "rhs_nonzero": rhs != 0,
            "within_tol": res["relative_error"] <= MOMENT_REL_TOL}


def _torus_timed(built, stages):
    from gkcurv.curvature import moment_derivative_check

    outputs, errors = {}, []

    def one(pair, f, pieces):
        res = stages("moment_derivative_check", moment_derivative_check,
                     pair, f, pieces)
        errors.append(res["relative_error"])
        return moment_output(res)

    for inst, (pair, f, pieces) in built:
        _item(outputs, torus_key(inst), lambda: one(pair, f, pieces))
    return outputs, {"moment_rel_error": max(errors) if errors else None}


# ---------------------------------------------------------------------------
# selftest_suite
# ---------------------------------------------------------------------------


def suite_calls(suite, instances):
    """The families and instance counts that `selftest.run_suite` uses."""
    from gkcurv.selftest import check_n_psi
    return [(name, fn, instances if fn is check_n_psi
             else (instances + 1) // 2) for name, fn in suite]


def _selftest_timed(spec, stages):
    from gkcurv.selftest import SUITE

    seed, instances = spec["suite_seed"], spec["instances"]
    outputs = {}
    for name, fn, count in suite_calls(SUITE, instances):
        _item(outputs, f"selftest/{name}", lambda: {
            "passed": stages(f"selftest.{name}", fn, seed, count)["passed"]})
    return outputs, {}


def run(workload: str, spec: dict, stages: Stages, before_timed=None):
    """Build, then run the timed phase.

    Returns (setup_end, wall_s, outputs, extra) where setup_end is the
    perf_counter reading when the inputs were built.  `before_timed` runs
    untimed between the two phases (the traced run installs its wrappers
    there).
    """
    if workload == "cp2_curvature":
        built, pts = _cp2_build(spec, stages)
        body = lambda: _cp2_timed(built, pts, stages)
    elif workload == "torus_moment":
        built = _torus_build(spec, stages)
        body = lambda: _torus_timed(built, stages)
    elif workload == "selftest_suite":
        # nothing to build: the suite draws its instances from the seed
        body = lambda: _selftest_timed(spec, stages)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    setup_end = time.perf_counter()
    if before_timed is not None:
        before_timed()
    t0 = time.perf_counter()
    outputs, extra = body()
    wall = time.perf_counter() - t0
    return setup_end, wall, outputs, extra


def expected_items(workload: str, spec: dict, reference: dict) -> dict:
    """Reference output of every item the spec produces."""
    ref = reference[workload]
    if workload == "cp2_curvature":
        return dict(ref["items"])
    if workload == "torus_moment":
        return {torus_key(i): ref["instances"][torus_key(i)]
                for i in spec["instances"]}
    return {f"selftest/{name}": v for name, v in ref["families"].items()}


def grade(outputs: dict, expected: dict) -> list:
    """Keys of the failed items: missing, extra, raised or mismatching."""
    return sorted(k for k in set(outputs) | set(expected)
                  if outputs.get(k) != expected.get(k))
