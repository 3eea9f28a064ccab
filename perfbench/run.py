"""gkcurv benchmark: one command, three workloads, cold samples.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample runs in a fresh interpreter (perfbench/sample.py), one at a
time, so the lazy GCStruct/GKPair caches and the process-global gcd factor
registry in gkcurv.scalars start empty each time; in one long process later
samples would get cheaper than the first.  Samples run until S seconds have
passed (at least MIN_SAMPLES); sample i of seed N always gets the same
inputs.

--trace 0 reports the end-to-end metrics: medians over the samples of
set-up time, timed-phase wall time and peak resident memory, and the share
of items that passed.  Times are in reference seconds
(perfbench/hostspeed.py): each sample times a fixed unit of pure-Python
work before its set-up, while set-up and the timed phase run, and after
them, and its times are scaled by the host speed so measured, so that a
slow spell of the shared host does not read as a slower program.  The
summary line also prints the unscaled medians.

--trace 1 alternates untraced and traced samples on the inputs of sample 0
and reports the per-layer metrics: stage timers from the untraced samples,
span counts and times from the traced ones (which must repeat exactly),
and the traced over untraced wall-time ratio, all times scaled the same
way.  The spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import mean, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (no gkcurv import)

MIN_SAMPLES = 3
DEADLINE_S = 170  # a run must end well within 180 s

STAGES = ("build", "j_matrix", "pointwise", "epm_frame", "eta_N_extract",
          "rho", "gric_gr", "moment_derivative_check")

# (span name, fields) reported from the traced sample
LAYERS = (
    ("gkpair.epm_split", ("calls", "total_s")),
    ("linalg.kernel_basis", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.mat_inverse", ("calls", "self_s")),
    ("spinor.eta_N_extract", ("calls", "total_s")),
    ("linalg.solve_exact", ("calls", "self_s")),
    ("forms.Form.wedge", ("calls", "self_s")),
    ("genalg.clifford_act", ("calls", "self_s")),
    ("spinor.GCStruct.j_matrix", ("total_s",)),
    ("forms.Form.exp", ("total_s",)),
    ("forms.Form.mukai_scalar", ("self_s",)),
    ("curvature.rho", ("total_s",)),
    ("curvature.theta_form", ("total_s",)),
    ("curvature.gric_gr", ("total_s",)),
    ("curvature.moment_pairing", ("calls", "total_s")),
    ("curvature.scalar_torus_mean_certified", ("calls", "self_s")),
    ("curvature.NilpotentPath.pair_at", ("total_s",)),
    ("curvature.moment_form", ("total_s",)),
    ("scalars.poly_gcd", ("calls", "self_s")),
    ("scalars.ScalarExpr", ("add.calls", "mul.calls", "truediv.calls",
                            "self_s")),
)


class SampleError(RuntimeError):
    pass


def selftest_families():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return sorted(json.load(fh)["selftest_suite"]["families"])


def per_layer_names():
    """Every per-layer metric as (name, unit, better)."""
    out = [(f"stage.{s}_s", "s", "lower") for s in STAGES]
    out += [(f"stage.selftest.{f}_s", "s", "lower")
            for f in selftest_families()]
    for span, fields in LAYERS:
        for field in fields:
            unit = "count" if field.endswith("calls") else "s"
            out.append((f"{span}.{field}", unit, "lower"))
    out.append(("scalars.poly_gcd.nontrivial_ratio", "ratio", "higher"))
    out.append(("moment_rel_error", "ratio", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_ratio", "ratio"))


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(argv, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise SampleError("out of time before the next sample")
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise SampleError(f"sample did not finish within {left:.0f} s: {argv}")
    if proc.returncode != 0:
        raise SampleError(f"{argv} exited with {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return proc.stdout


def warm_up(deadline):
    """Import the package once untimed; fails when there is no gkcurv."""
    run_child(["-c", "import gkcurv.curvature, gkcurv.examples, "
               "gkcurv.selftest"], deadline)


def sample(workload, seed, index, deadline, trace_out=None):
    argv = [os.path.join(HERE, "sample.py"), "--workload", workload,
            "--seed", str(seed), "--index", str(index)]
    if trace_out:
        argv += ["--trace-out", trace_out]
    out = run_child(argv, deadline)
    return json.loads(out.strip().splitlines()[-1])


def repeat(step, seconds, minimum):
    """Call step(i) for i = 0, 1, ... until another call would end late.

    Returns the concatenated results of at least `minimum` calls.  The
    median duration of the calls so far predicts the next one, so a run
    ends before `seconds` have passed rather than up to one call later.
    """
    start = time.monotonic()
    out, took = [], []
    while True:
        t0 = time.monotonic()
        out += step(len(took))
        took.append(time.monotonic() - t0)
        if len(took) >= minimum and (time.monotonic() - start
                                     + statistics.median(took) > seconds):
            return out


def timings(r):
    """Set-up, wall and stage times of a sample in reference seconds.

    Set-up directly follows the first loop of units and is probed while it
    runs; the timed phase is probed while it runs (perfbench/hostspeed.py).
    """
    u = r["unit_s"]
    setup_units = [u["before"]]
    if u["setup_probes"]:
        setup_units.append(mean(u["setup_probes"]))
    timed_units = u["timed_probes"] or [u["before"], u["after"]]
    return {"setup_s": scaled(r["setup_s"], setup_units),
            "wall_s": scaled(r["wall_s"], timed_units),
            "stages": {k: scaled(v, timed_units)
                       for k, v in r["stages"].items()}}


def tally(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failed"]) for r in records)
    for r in records:
        for key in r["failed"]:
            print(f"FAILED {key}: {json.dumps(r['outputs'].get(key))[:300]}")
    return attempted, failed


def untraced(workload, seed, seconds, deadline):
    records = repeat(lambda i: [sample(workload, seed, i, deadline)],
                     seconds, MIN_SAMPLES)
    attempted, failed = tally(records)
    med = lambda key, rows=records: statistics.median(r[key] for r in rows)
    times = [timings(r) for r in records]
    metrics = {
        "setup_s": med("setup_s", times),
        "wall_s": med("wall_s", times),
        "peak_rss_mb": med("peak_rss_mb"),
        "pass_ratio": 1 - failed / attempted,
    }
    errors = [r["moment_rel_error"] for r in records
              if r.get("moment_rel_error") is not None]
    summary = " ".join(f"{k}={v:.6g} {u}" for (k, u), v in
                       zip(END_TO_END, metrics.values()))
    loops = [r["unit_s"][k] for r in records for k in ("before", "after")]
    summary += (f" unscaled: setup_s={med('setup_s'):.4g} "
                f"wall_s={med('wall_s'):.4g} "
                f"unit_s={statistics.median(loops):.4g}")
    summary += f" fail_ratio={failed}/{attempted}"
    if errors:
        summary += f" moment_rel_error={max(errors):.4g}"
    print(f"{workload} seed={seed} samples={len(records)} {summary}")
    units = dict(END_TO_END)
    return failed == 0, attempted, failed, {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def _counts(layers):
    """Every count in a traced summary, for the repeat check."""
    return {f"{name}.{k}": v for name, row in layers.items()
            if isinstance(row, dict) for k, v in row.items()
            if k.endswith("calls")}


def traced(workload, seed, seconds, deadline):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    trace_out = os.path.join(HERE, "out", f"trace_{workload}_seed{seed}.jsonl")

    def pair(i):
        # alternate which of the two goes first, so drift favours neither
        order = (None, trace_out) if i % 2 == 0 else (trace_out, None)
        recs = {t: sample(workload, seed, 0, deadline, t) for t in order}
        return [(recs[None], recs[trace_out])]

    pairs = repeat(pair, seconds, 1)
    plain = [p for p, _ in pairs]
    traced_recs = [t for _, t in pairs]
    attempted, failed = tally(plain + traced_recs)
    layers = traced_recs[0]["layers"]
    same_counts = all(_counts(r["layers"]) == _counts(layers)
                      for r in traced_recs)
    if not same_counts:
        print("FAILED trace: call counts differ between traced samples")

    plain_t = [timings(r) for r in plain]
    traced_t = [timings(r) for r in traced_recs]
    values = {}
    for name, _, _ in per_layer_names():
        if name.startswith("stage."):
            key = name[len("stage."):-len("_s")]
            values[name] = statistics.median(t["stages"].get(key, 0.0)
                                             for t in plain_t)
    for span, fields in LAYERS:
        for field in fields:
            rows = [r["layers"].get(span, {}) for r in traced_recs]
            if field.endswith("calls"):
                values[f"{span}.{field}"] = rows[0].get(field, 0)
            else:
                # span times scale like the sample's timed phase
                values[f"{span}.{field}"] = statistics.median(
                    row.get(field, 0.0) * t["wall_s"] / r["wall_s"]
                    for row, t, r in zip(rows, traced_t, traced_recs))
    values["scalars.poly_gcd.nontrivial_ratio"] = \
        layers["scalars.poly_gcd.nontrivial_ratio"]
    values["moment_rel_error"] = plain[0].get("moment_rel_error") or 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traced_t)
        / statistics.median(t["wall_s"] for t in plain_t))
    print(f"{workload} seed={seed} traced pairs={len(traced_recs)} "
          f"overhead_ratio={values['trace.overhead_ratio']:.4g} "
          f"spans written to {trace_out}")
    units = {n: u for n, u, _ in per_layer_names()}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return failed == 0 and same_counts, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        warm_up(deadline)
        body = traced if args.trace else untraced
        correct, attempted, failed, metrics = body(
            args.workload, args.seed, args.seconds, deadline)
    except SampleError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
