"""Regenerate perfbench/reference.json, the outputs every sample is graded on.

    python3 perfbench/make_reference.py

Each reference output is computed here and asserted against what the
program states for it: the scenes' `expected` and task `expect` values, a
nonzero exact rhs with a relative error within MOMENT_REL_TOL for every
torus family member, and `passed` for every self-test family.  Regenerate
only when a change is meant to alter a canonical output, and say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def cp2_items() -> dict:
    from gkcurv.examples import CATALOG

    spec = workloads.make_inputs("cp2_curvature", 0, 0)
    _, _, outputs, _ = workloads.run("cp2_curvature", spec, workloads.Stages())
    for key, out in outputs.items():
        if isinstance(out, dict) and "error" in out:
            raise SystemExit(f"{key} raised: {out['error']}")
    for name in workloads.CP2_SCENES:
        scene = CATALOG[name]()
        for task in scene.tasks:
            op = task["op"]
            key = f"{name}/{op}"
            if op == "type_number":
                key += f"@{task['point']}"
            if key not in outputs:
                continue  # a task this workload leaves out
            got = outputs[key]
            if op == "compatibility":
                assert got == {"commute": True, "positive": True}, (key, got)
            elif op == "gric_gr":
                for k, v in {**task["expect"], **scene.expected}.items():
                    assert got["expect"][k] == v, (key, k, got)
            else:
                assert got == task["expect"], (key, got)
    return outputs


def torus_instances() -> dict:
    from gkcurv.curvature import moment_derivative_check

    out = {}
    for inst in workloads.torus_family() + [dict(workloads.T4_INSTANCE)]:
        pair, f, pieces = workloads.torus_instance(inst)
        res = moment_derivative_check(pair, f, pieces)
        got = workloads.moment_output(res)
        assert got["rhs_nonzero"] and got["within_tol"], (inst, res)
        out[workloads.torus_key(inst)] = got
        print(workloads.torus_key(inst), got["rhs"],
              f"{res['relative_error']:.3e}", flush=True)
    return out


def selftest_families() -> dict:
    from gkcurv.selftest import run_suite

    res = run_suite(seed=2024, instances=workloads.SELFTEST_INSTANCES)
    assert all(r["passed"] for r in res), res
    return {r["name"]: {"passed": True} for r in res}


def main():
    ref = {
        "cp2_curvature": {"items": cp2_items()},
        "torus_moment": {"rel_error_tolerance": workloads.MOMENT_REL_TOL,
                         "instances": torus_instances()},
        "selftest_suite": {"families": selftest_families()},
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
