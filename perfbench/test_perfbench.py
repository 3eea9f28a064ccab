"""Tests of the benchmark itself: span arithmetic, grading, seeded inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _span(name, start, end, parent, scalar_s=0.0, ops=(0, 0, 0), note=None):
    return [name, start, end, parent, scalar_s, list(ops), note]


def test_self_time_nested_and_recursive_spans():
    recs = [
        _span("stage.rho", 0.0, 10.0, -1, scalar_s=1.0, ops=(2, 1, 0)),
        _span("scalars.poly_gcd", 1.0, 5.0, 0, note=True),
        _span("scalars.poly_gcd", 2.0, 4.0, 1, scalar_s=0.5, note=False),
        _span("forms.Form.wedge", 6.0, 9.0, 0, scalar_s=0.5, ops=(0, 3, 1)),
        _span("scalars.poly_gcd", 7.0, 8.0, 3, note=False),
    ]
    out = spans.summarize(recs, root_ops=(1, 0, 0), root_scalar_s=0.25)
    assert out["stage.rho"] == {"calls": 1, "total_s": 10.0, "self_s": 2.0}
    # the recursive call is inside the outer one: counted once in total_s
    assert out["scalars.poly_gcd"] == {"calls": 3, "total_s": 5.0,
                                       "self_s": 4.5}
    assert out["forms.Form.wedge"] == {"calls": 1, "total_s": 3.0,
                                       "self_s": 1.5}
    assert out["scalars.ScalarExpr"] == {"self_s": 2.25, "add.calls": 3,
                                         "mul.calls": 4, "truediv.calls": 1}
    # two top-level gcds, one of them nontrivial
    assert out["scalars.poly_gcd.nontrivial_ratio"] == 0.5
    self_sum = sum(v["self_s"] for k, v in out.items()
                   if isinstance(v, dict) and k != "scalars.ScalarExpr")
    assert self_sum + out["scalars.ScalarExpr"]["self_s"] - 0.25 == 10.0


def test_tracer_sees_nested_calls_and_restores():
    from gkcurv import curvature, gkpair, linalg, spinor
    from gkcurv.examples import flat_kahler

    originals = (linalg.kernel_basis, gkpair.kernel_basis,
                 spinor.kernel_basis, linalg.rref)
    tracer = spans.Tracer("test")
    restore = tracer.install()
    try:
        # gkpair binds kernel_basis by `from .linalg import`; that binding
        # and rref, called from inside kernel_basis, must both be seen
        assert gkpair.kernel_basis is not originals[1]
        pair = flat_kahler(1).pair()
        tracer.span_wrapper("stage.test", lambda: (pair.epm_frame(),
                                                   curvature.rho(pair)))()
    finally:
        restore()
    assert (linalg.kernel_basis, gkpair.kernel_basis, spinor.kernel_basis,
            linalg.rref) == originals
    out = spans.summarize(tracer.spans, tracer.root_ops, tracer.root_scalar_s)
    assert out["gkpair.epm_split"]["calls"] == 1
    assert out["curvature.rho"]["calls"] == 1
    parent_name = {}
    for rec in tracer.spans:
        parent = tracer.spans[rec[spans.PARENT]][spans.NAME] \
            if rec[spans.PARENT] >= 0 else None
        parent_name.setdefault(rec[spans.NAME], set()).add(parent)
    assert "gkpair.epm_split" in parent_name["linalg.kernel_basis"]
    assert "linalg.kernel_basis" in parent_name["linalg.rref"]
    # self times and scalar time partition the stage span
    total = out["stage.test"]["total_s"]
    parts = sum(v["self_s"] for k, v in out.items() if isinstance(v, dict))
    assert abs(parts - tracer.root_scalar_s - total) < 1e-6


def test_wrong_reference_string_is_one_failed_item():
    ref = _reference()
    spec = workloads.make_inputs("cp2_curvature", 1, 0)
    expected = workloads.expected_items("cp2_curvature", spec, ref)
    outputs = copy.deepcopy(expected)
    assert workloads.grade(outputs, expected) == []
    bad = copy.deepcopy(expected)
    bad["fubini_study_cp2/gric_gr"]["report"]["gr"] = "13"
    assert workloads.grade(outputs, bad) == ["fubini_study_cp2/gric_gr"]
    # an item that raised, or one that is missing, fails as well
    outputs["cp2_three_lines/integrability"] = {"error": "DecompositionFailed"}
    del outputs["fubini_study_cp2/epm_frame"]
    assert workloads.grade(outputs, expected) == [
        "cp2_three_lines/integrability", "fubini_study_cp2/epm_frame"]


def test_torus_rhs_reference_is_exact_and_nonzero():
    ref = _reference()["torus_moment"]["instances"]
    for inst in workloads.torus_family() + [workloads.T4_INSTANCE]:
        got = ref[workloads.torus_key(inst)]
        assert got["rhs_nonzero"] and got["within_tol"]
        assert got["rhs"] not in ("0", "-0")


def _specs_in_subprocess(hash_seed):
    code = ("import json, sys; sys.path.insert(0, %r); import workloads; "
            "print(json.dumps([workloads.make_inputs(w, s, i) "
            "for w in workloads.WORKLOADS for s in (1, 2, 77) "
            "for i in range(4)]))" % HERE)
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_inputs_depend_only_on_seed_and_index():
    assert _specs_in_subprocess(1) == _specs_in_subprocess(2)
    for w in workloads.WORKLOADS:
        specs = {json.dumps(workloads.make_inputs(w, s, 0)) for s in range(8)}
        assert len(specs) > 1, w


def test_torus_samples_carry_the_same_cost_classes():
    family = {workloads.torus_key(i) for i in workloads.torus_family()}
    for seed in range(20):
        insts = workloads.make_inputs("torus_moment", seed, 0)["instances"]
        t2 = [i for i in insts if i["n"] == 1]
        assert {(i["fn"]) for i in t2} == {"cos", "sin"}
        assert sorted(i["k"] for i in t2) == [1, 2]
        assert all(workloads.torus_key(i) in family for i in t2)
        assert insts[-1] == workloads.T4_INSTANCE


def test_suite_calls_match_run_suite(monkeypatch):
    from gkcurv import selftest

    calls = []

    def family(name):
        def fn(seed, instances):
            calls.append((name, seed, instances))
            return {"passed": True, "instances": instances}
        return fn

    suite = tuple((name, family(name)) for name, _ in selftest.SUITE)
    obstruction = dict(suite)["obstruction_kills_psi"]
    monkeypatch.setattr(selftest, "SUITE", suite)
    monkeypatch.setattr(selftest, "check_n_psi", obstruction)
    selftest.run_suite(seed=5, instances=7)
    ours = [(name, 5, count)
            for name, _, count in workloads.suite_calls(suite, 7)]
    assert calls == ours


def test_times_are_scaled_by_the_unit_times_measured_with_them():
    ref = hostspeed.REF_UNIT_S
    rec = {"setup_s": 1.0, "wall_s": 3.0, "stages": {"rho": 1.5},
           "unit_s": {"before": 2 * ref, "after": 4 * ref,
                      "setup_probes": [ref, 3 * ref],
                      "timed_probes": [ref, 5 * ref]}}
    # set-up: the loop before it and its probes; the timed phase: its probes
    got = run.timings(rec)
    assert got["stages"] == {"rho": pytest.approx(0.5)}
    assert (got["setup_s"], got["wall_s"]) == pytest.approx((0.5, 1.0))
    # without probes: the loop before set-up, the loops around the sample
    rec["unit_s"]["setup_probes"] = rec["unit_s"]["timed_probes"] = []
    got = run.timings(rec)
    assert (got["setup_s"], got["wall_s"]) == pytest.approx((0.5, 1.0))
    with hostspeed.Probe() as probe:
        for _ in range(2):
            end = time.monotonic() + 3 * hostspeed.PROBE_EVERY_S
            while time.monotonic() < end:
                pass
            probe.mark()
    assert len(probe.phases) == 3
    assert all(phase and min(phase) > 0 for phase in probe.phases[:2])


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_names()
    traced = {f"{mod}.{attr}" for mod, attr in spans.SPAN_TARGETS}
    assert {name for name, _ in run.LAYERS} - traced == {"scalars.ScalarExpr"}
