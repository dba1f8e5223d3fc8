"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the ``conewarp`` modules from outside
the package: each target is replaced in its own module (or class) and in every
``conewarp`` module that imported it by name, so calls made through either
name are recorded.  ``uninstall`` puts every original object back.

A span is ``(name, start, end, parent, meta)``; ``parent`` is the index of the
enclosing span (-1 at the top) and ``meta`` is the number of points in the
call's argument array, or the node's group name for ``assemble_atlas``.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _points(i):
    """Meta extractor: number of points in positional argument ``i``."""
    def count(args, kwargs):
        x = args[i]
        return int(np.shape(x)[0]) if np.ndim(x) else 1
    return count


def _node_key(args, kwargs):
    """Meta extractor for assemble_atlas: the node's group, None for leaves."""
    group = args[0]
    return None if group.is_trivial else group.name()


# (module, attribute, metric prefix, meta extractor, reported statistics).
# An attribute "A.b" is method b of class A in that module.  Statistics:
# "s" self seconds, "calls" calls, "pts" points per second of the call's own
# (inclusive) time, "distinct" distinct node keys; all per traced pass.  The
# jets layer is deliberately absent: its arithmetic runs once per expression
# node, and wrapping it would swamp the run; warpfn.jet and the curvature
# rates measure it instead.
TARGETS = [
    ("construct", "build_f_kappa", "construct.build_f_kappa", None, ("s", "calls")),
    ("construct", "build_edge_profile", "construct.build_edge_profile", None, ("s",)),
    ("construct", "build_glue_field", "construct.build_glue_field", None, ("s",)),
    ("construct", "build_conical_cap", "construct.build_conical_cap", None, ("s",)),
    ("construct", "build_interpolation_family", "construct.build_interpolation_family",
     None, ("s",)),
    ("construct", "build_general_profiles", "construct.build_general_profiles", None, ("s",)),
    ("construct", "cap_link_ricci_margin", "construct.cap_link_ricci_margin", None,
     ("s", "calls")),
    ("warpfn", "WarpFunction.jet", "warpfn.jet", _points(1), ("s", "calls", "pts")),
    ("warpfn", "WarpFunction.deserialize", "warpfn.deserialize", None, ("s",)),
    ("expr", "parse_expr", "expr.parse_expr", None, ("s",)),
    ("curvature", "ricci_cone_berger", "curvature.ricci_cone_berger", _points(3), ("s", "pts")),
    ("curvature", "ricci_local_glue", "curvature.ricci_local_glue", _points(1), ("s", "pts")),
    ("curvature", "ricci_torus_invariant", "curvature.ricci_torus_invariant", _points(3),
     ("s", "pts")),
    ("curvature", "ricci_berger_general", "curvature.ricci_berger_general", _points(2),
     ("s", "pts")),
    ("curvature", "ricci_fd_batch", "curvature.ricci_fd_batch", _points(1), ("s", "pts")),
    ("certify", "certify_psd", "certify.certify_psd", None, ("s", "calls")),
    ("certify", "certify_inequality", "certify.certify_inequality", None, ("s", "calls")),
    ("certify", "certify_interface", "certify.certify_interface", None, ("s", "calls")),
    ("certify", "certify_oracle_agreement", "certify.certify_oracle_agreement", None,
     ("s", "calls")),
    ("certify", "certify_gluing", "certify.certify_gluing", None, ("s", "calls")),
    ("groups", "acts_freely", "groups.acts_freely", None, ("s",)),
    ("groups", "generate_elements", "groups.generate_elements", None, ("s",)),
    ("groups", "resolution_tree", "groups.resolution_tree", None, ("s",)),
    # calls and distinct nodes count non-trivial nodes only, as the atlases
    # do; a node is distinct within one operation (one resolution run)
    ("pipeline", "assemble_atlas", "pipeline.assemble_atlas", _node_key,
     ("s", "calls", "distinct")),
    ("pipeline", "SurgeryAtlas.to_json", "pipeline.atlas_to_json", None, ("s",)),
    ("cli", "cmd_resolve", "cli.cmd_resolve", None, ("s",)),
    ("cli", "cmd_certify", "cli.cmd_certify", None, ("s",)),
]

# Span name of one benchmark operation; its self time is time spent outside
# every wrapped function (argument parsing, stdout capture, plain file I/O
# that no target covers).
OP = "bench.op"


class SpanRecorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, meta]
        self._stack = []
        self._undo = []          # (owner, attribute, original object)

    # -- recording -----------------------------------------------------------

    def _open(self, name, meta):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, meta])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        self._open(name, None)
        try:
            return fn(*args)
        finally:
            self._close()

    def wrap(self, name, fn, meta_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name, meta_of(args, kwargs) if meta_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it wherever conewarp imported it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "conewarp" or k.startswith("conewarp.")]
        for mod_name, attr, name, meta_of, _ in TARGETS:
            owner = sys.modules[f"conewarp.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, meta_of))
                else:
                    new = self.wrap(name, raw, meta_of)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self.wrap(name, orig, meta_of)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction -----------------------------------------------------------

    def aggregate(self):
        """Per-name totals: self and inclusive seconds, calls, points, and
        node keys paired with the top-level span they ran under."""
        child = defaultdict(float)
        root = []
        for i, (name, t0, t1, parent, meta) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0,
                                   "points": 0, "keys": []})
        for i, (name, t0, t1, parent, meta) in enumerate(self.spans):
            row = out[name]
            row["incl_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
            row["calls"] += 1
            if isinstance(meta, int):
                row["points"] += meta
            elif meta is not None:
                row["keys"].append((root[i], meta))
        return out

    def dump(self, path):
        """Write every span as JSON (times relative to the first span)."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(a - t_ref, 9), round(b - t_ref, 9), p, m]
                for n, a, b, p, m in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "meta"],
                                    "spans": rows}))


# name suffix and unit of each statistic
_STATS = {"s": ("_s", "s"), "calls": ("_calls", "count"), "pts": ("_pts_per_s", "1/s")}


def layer_metrics(recorder, passes):
    """Per-layer metrics of the traced passes, and their units.

    ``passes`` are the run's pass records; the recorder holds spans of the
    traced ones only.  Besides the layers, ``trace.*`` gives the mean traced
    and untraced pass, their difference (the tracing overhead) and the self
    time of the operations themselves (``bench.op``: work outside every
    wrapped function).  The self times of all spans sum to the traced pass.
    """
    traced = [sum(p["op_s"]) for p in passes if p["traced"]]
    untraced = [sum(p["op_s"]) for p in passes if not p["traced"]]
    n = len(traced)
    agg = recorder.aggregate()
    metrics, units = {}, {}
    for _, _, name, _, stats in TARGETS:
        row = agg.get(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "points": 0,
                             "keys": []})
        for stat in stats:
            if stat == "distinct":
                metrics["pipeline.distinct_nodes"] = len(set(row["keys"])) / n
                units["pipeline.distinct_nodes"] = "count"
                continue
            suffix, unit = _STATS[stat]
            if stat == "s":
                val = row["self_s"] / n
            elif stat == "calls":
                val = (len(row["keys"]) if "distinct" in stats else row["calls"]) / n
            else:
                val = row["points"] / row["incl_s"] if row["incl_s"] > 0 else 0.0
            metrics[name + suffix] = val
            units[name + suffix] = unit
    trace = {
        "trace.pass_s": sum(traced) / n,
        "trace.untraced_pass_s": sum(untraced) / len(untraced),
        "trace.unattributed_s": agg[OP]["self_s"] / n,
    }
    trace["trace.overhead_s"] = trace["trace.pass_s"] - trace["trace.untraced_pass_s"]
    metrics.update(trace)
    units.update(dict.fromkeys(trace, "s"))
    return metrics, units
