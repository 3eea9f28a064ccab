"""Span tracing for the benchmark's traced run.

The tracer records one span per call at the layer boundaries of gkcurv:
name, start, end and parent span, all under one run id.  The spans stay in
memory and are written out when the run ends.  The very frequent
ScalarExpr operators get no span of their own: each call adds its count and
its time (less the spans it opened) to the enclosing span, so the trace
stays small and a span's self time is its duration minus its child spans
minus that aggregated scalar time.

Wrappers are installed by replacing attributes at run time.  A module-level
function is replaced in every gkcurv module that binds it, because
`from .linalg import kernel_basis` makes a second binding in the importing
module that patching `linalg` alone would miss.  `install` returns the
function that puts every original back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

PACKAGE = "gkcurv"

# (module, attribute) pairs that get a span per call.
SPAN_TARGETS = (
    ("gkpair", "epm_split"),
    ("linalg", "kernel_basis"),
    ("linalg", "rref"),
    ("linalg", "mat_inverse"),
    ("linalg", "solve_exact"),
    ("spinor", "eta_N_extract"),
    ("spinor", "GCStruct.j_matrix"),
    ("forms", "Form.wedge"),
    ("forms", "Form.exp"),
    ("forms", "Form.mukai_scalar"),
    ("genalg", "clifford_act"),
    ("curvature", "rho"),
    ("curvature", "theta_form"),
    ("curvature", "gric_gr"),
    ("curvature", "moment_pairing"),
    ("curvature", "scalar_torus_mean_certified"),
    ("curvature", "NilpotentPath.pair_at"),
    ("curvature", "moment_form"),
    ("scalars", "poly_gcd"),
)

# ScalarExpr operator methods aggregated into the enclosing span, by op name.
SCALAR_OPS = (
    ("__add__", "add"), ("__radd__", "add"),
    ("__mul__", "mul"), ("__rmul__", "mul"),
    ("__truediv__", "truediv"),
)
OP_NAMES = ("add", "mul", "truediv")

# Span record fields, kept as lists to stay small.
NAME, START, END, PARENT, SCALAR_S, OPS, NOTE = range(7)


def _poly_gcd_note(result):
    """A gcd is useful work when it is not a bare monomial."""
    return len(result) > 1


NOTES = {"scalars.poly_gcd": _poly_gcd_note}


class Tracer:
    """In-memory span recorder for one traced sample."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.root_ops = [0] * len(OP_NAMES)
        self.root_scalar_s = 0.0
        self._open = []     # indices of the open spans, innermost last
        self._frames = []   # [start, child time] of open spans and ops

    def span_wrapper(self, name, fn):
        spans, open_, frames = self.spans, self._open, self._frames
        note = NOTES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0.0,
                   [0] * len(OP_NAMES), None]
            spans.append(rec)
            open_.append(idx)
            frame = [clock(), 0.0]
            frames.append(frame)
            rec[START] = frame[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_.pop()
                rec[END] = end
                if frames:
                    frames[-1][1] += end - frame[0]
            if note is not None:
                rec[NOTE] = note(result)
            return result

        return wrapper

    def op_wrapper(self, op_index, fn):
        spans, open_, frames = self.spans, self._open, self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            owner = spans[open_[-1]] if open_ else None
            if owner is None:
                self.root_ops[op_index] += 1
            else:
                owner[OPS][op_index] += 1
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - frame[0]
                if owner is None:
                    self.root_scalar_s += dur - frame[1]
                else:
                    owner[SCALAR_S] += dur - frame[1]
                if frames:
                    frames[-1][1] += dur

        return wrapper

    def install(self):
        """Wrap every target; return a function that restores the originals."""
        saved = []
        modules = {}
        for mod_name, _ in SPAN_TARGETS:
            modules[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr in SPAN_TARGETS:
            mod = modules[mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth, self.span_wrapper(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self.span_wrapper(name, orig)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        saved.append((m, key, orig))
                        setattr(m, key, wrapper)
        scalar_cls = importlib.import_module(f"{PACKAGE}.scalars").ScalarExpr
        for meth, op in SCALAR_OPS:
            orig = scalar_cls.__dict__[meth]
            saved.append((scalar_cls, meth, orig))
            setattr(scalar_cls, meth, self.op_wrapper(OP_NAMES.index(op), orig))

        def restore():
            for owner, key, orig in reversed(saved):
                setattr(owner, key, orig)
        return restore

    def dump(self, path):
        """Write the spans as JSON lines: one header, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": [
                "name", "start", "end", "parent", "scalar_s",
                "ops:" + ",".join(OP_NAMES), "note"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans, root_ops=None, root_scalar_s=0.0) -> dict:
    """Per-name calls, inclusive and self time, derived from span records.

    total_s counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice.  self_s is the span's duration
    minus its direct child spans and the scalar time aggregated into it.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out = {}
    ops = list(root_ops) if root_ops is not None else [0] * len(OP_NAMES)
    scalar_s = root_scalar_s
    gcd_top = gcd_useful = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur - child_time[i] - rec[SCALAR_S]
        scalar_s += rec[SCALAR_S]
        for k, n in enumerate(rec[OPS]):
            ops[k] += n
        outermost = True
        p = rec[PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                outermost = False
                break
            p = spans[p][PARENT]
        if outermost:
            row["total_s"] += dur
            if name == "scalars.poly_gcd":
                gcd_top += 1
                gcd_useful += bool(rec[NOTE])
    out["scalars.ScalarExpr"] = {
        "self_s": scalar_s,
        **{f"{op}.calls": n for op, n in zip(OP_NAMES, ops)},
    }
    out["scalars.poly_gcd.nontrivial_ratio"] = (gcd_useful / gcd_top
                                                if gcd_top else 0.0)
    return out
