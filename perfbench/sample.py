"""One cold sample of one workload, in the interpreter that runs this file.

    python3 perfbench/sample.py --workload NAME --seed N --index I [--trace-out PATH]

Prints one JSON record as its last line: set-up and timed-phase seconds,
the host-speed unit times measured around and during them
(perfbench/hostspeed.py), stage timers, peak resident memory, the failed
items and, when traced, the per-layer summary of the spans (which it also
writes to PATH).
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (imports gkcurv only inside set-up)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    spec = workloads.make_inputs(args.workload, args.seed, args.index)
    with open(os.path.join(HERE, "reference.json")) as fh:
        expected = workloads.expected_items(args.workload, spec, json.load(fh))

    stages = workloads.Stages()
    tracer = restore = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer(f"{args.workload}/{args.seed}/{args.index}")

    def between_phases():
        nonlocal restore
        probe.mark()
        if tracer is not None:
            restore = tracer.install()
            stages.wrap = tracer.span_wrapper

    unit_before = hostspeed.loop_s()
    probe = hostspeed.Probe()
    try:
        with probe:
            # set-up: from the first gkcurv import until the inputs are built
            t_import = time.perf_counter()
            import gkcurv
            import gkcurv.curvature  # noqa: F401
            import gkcurv.examples  # noqa: F401
            import gkcurv.selftest  # noqa: F401
            src = os.path.realpath(os.path.join(ROOT, "src"))
            if not all(os.path.realpath(p).startswith(src)
                       for p in gkcurv.__path__):
                raise SystemExit(f"gkcurv imported from "
                                 f"{list(gkcurv.__path__)}, not from {src}")
            setup_end, wall, outputs, extra = workloads.run(
                args.workload, spec, stages, before_timed=between_phases)
    finally:
        if restore is not None:
            restore()
    unit_after = hostspeed.loop_s()
    setup_probes, timed_probes = probe.phases
    record = {
        "unit_s": {"before": unit_before, "after": unit_after,
                   "setup_probes": setup_probes,
                   "timed_probes": timed_probes},
        "setup_s": setup_end - t_import,
        "wall_s": wall,
        "stages": stages.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(expected),
        "failed": workloads.grade(outputs, expected),
        "outputs": outputs,
        **extra,
    }
    if tracer is not None:
        tracer.dump(args.trace_out)
        record["layers"] = spans.summarize(tracer.spans, tracer.root_ops,
                                           tracer.root_scalar_s)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
