"""Runtime tracing of the program's layer entry points.

`Tracer.install` replaces each entry point with a wrapper that records one
span per call (name, start, end, parent span) plus a few counters, and
`uninstall` puts the originals back; nothing in the program is edited.
Spans stay in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans, query spans included, add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

QUERY = "query"
# the layers' self times; with trace.gap_s they add up to trace.wall_s
SELF_TIME_METRICS = (
    "curve.pointmap_s", "curve.subdivide_s", "models.build_s", "models.lookup_s",
    "models.diameter_s", "kernel.s", "rank.self_s", "bn.self_s",
    "transport.self_s", "experiment.self_s", "cli.self_s")


class Tracer:
    """Spans and counters of one traced pass, and the wrappers that make them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = Counter()
        self.maxima = Counter()
        self._undo = []

    def _id(self, name):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def open(self, name):
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """fn recorded as span `name`; hooks run inside the span."""
        sid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        # open/close inlined: this runs on every call of a wrapped entry point
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                if before is not None:
                    before(args)
                res = fn(*args, **kwargs)
                if after is not None:
                    after(args, res)
                return res
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    # -- installing ------------------------------------------------------------

    def _patch_function(self, module, attr, name, **hooks):
        """Rebind every tropbn module's reference to module.attr."""
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, **hooks)
        for mod in [m for k, m in sys.modules.items()
                    if (k == "tropbn" or k.startswith("tropbn.")) and m is not None]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def _patch_method(self, cls, attr, name, **hooks):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, **hooks))
        self._undo.append((cls, attr, orig))

    def install(self):
        import tropbn.brill_noether as bn
        import tropbn.cli as cli
        import tropbn.curve as curve
        import tropbn.kernel as kernel
        import tropbn.models as models
        import tropbn.rank as rank
        import tropbn.transport as transport

        c, m = self.counters, self.maxima

        def kernel_in(args):
            indptr, _, div, q = args
            n = len(indptr) - 1
            c["kernel.n_sum"] += n
            m["kernel.n_max"] = max(m["kernel.n_max"], n)
            if min(div[:q], default=0) < 0 or min(div[q + 1:], default=0) < 0:
                c["kernel.debt_calls"] += 1

        def kernel_out(args, res):
            c["kernel.firings"] += sum(map(abs, res[1]))

        def model_out(args, res):
            model = args[0]
            c["models.n_sum"] += model.n
            m["models.n_max"] = max(m["models.n_max"], model.n)
            m["models.lam_max"] = max(m["models.lam_max"], model.lam)

        def minfail_in(args):
            if args[1] in args[0].memo:
                c["rank.memo_hits"] += 1

        def experiment_out(args, res):
            c["experiment.steps"] += len(res["steps"])

        self._patch_function(kernel, "reduce_divisor", "kernel",
                             before=kernel_in, after=kernel_out)
        self._patch_function(curve, "subdivide", "curve.subdivide")
        for cls in (curve.PointMap, curve._ComposedMap, curve._PartialBack):
            self._patch_method(cls, "__call__", "curve.pointmap")
        self._patch_method(models.IntegerModel, "__init__", "models.build",
                           after=model_out)
        for attr in ("vertex_index", "point_of_index", "indices_in"):
            self._patch_method(models.IntegerModel, attr, "models.lookup")
        self._patch_function(models, "subcurve_diameter", "models.diameter")
        self._patch_method(rank._RankEngine, "rank_vector", "rank.rank_vector")
        self._patch_method(rank._RankEngine, "rank_at_least", "rank.rank_at_least")
        self._patch_method(rank._RankEngine, "_minfail", "rank._minfail",
                           before=minfail_in)
        for attr in ("first_failure", "extendable", "_class_ok"):
            self._patch_method(bn._BNEngine, attr, f"bn.{attr}")
        for attr in ("run_usc_experiment", "run_closedness_experiment"):
            self._patch_function(bn, attr, f"experiment.{attr}",
                                 after=experiment_out)
        for attr in ("push_single", "concentrate", "dilute", "confinement_search",
                     "arrange_multi", "check_push", "check_concentrate",
                     "check_dilute", "check_arrange"):
            self._patch_function(transport, attr, f"transport.{attr}")
        self._patch_function(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def self_times(self):
        return self_times(self.parent, self.start, self.end)

    def dump(self, path):
        """Write spans and counters as one gzipped JSON object.

        Columns are written in chunks, so a run with millions of spans
        never holds them all as Python objects at once.
        """
        t0 = self.start[0] if self.start else 0.0
        columns = {
            "span_name": lambda a, b: self.name[a:b],
            "parent": lambda a, b: self.parent[a:b],
            "start_ns": lambda a, b: (round((t - t0) * 1e9) for t in self.start[a:b]),
            "end_ns": lambda a, b: (round((t - t0) * 1e9) for t in self.end[a:b]),
        }
        head = {"names": self.names, "counters": dict(self.counters),
                "maxima": dict(self.maxima)}
        n, step = len(self.name), 1 << 16
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1])
            for key, chunk in columns.items():
                fh.write(f', "{key}": [')
                for a in range(0, n, step):
                    fh.write(("," if a else "") + ",".join(map(str, chunk(a, a + step))))
                fh.write("]")
            fh.write("}")


def self_times(parent, start, end):
    """Per-span duration minus its direct children's durations.

    Children are recorded after their parent, so one pass suffices.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def layer_metrics(tr: Tracer):
    """Per-layer counts and self times from the spans and counters."""
    own = tr.self_times()
    names = tr.names
    calls = Counter()
    secs = Counter()
    for sid, s in zip(tr.name, own):
        calls[names[sid]] += 1
        secs[names[sid]] += s

    def group(prefix):
        return (sum(v for k, v in calls.items() if k.startswith(prefix)),
                sum(v for k, v in secs.items() if k.startswith(prefix)))

    # kernel calls under a rank span, and rank checks made by a BN class test
    ids = {n: i for i, n in enumerate(names)}
    rank_ids = {ids[n] for n in names if n.startswith("rank.")}
    kernel_id = ids.get("kernel", -1)
    atleast_id = ids.get("rank.rank_at_least", -1)
    classok_id = ids.get("bn._class_ok", -1)
    in_rank = bytearray(len(tr.name))
    rank_reductions = class_misses = 0
    for i, (sid, p) in enumerate(zip(tr.name, tr.parent)):
        in_rank[i] = sid in rank_ids or (p >= 0 and in_rank[p])
        if sid == kernel_id and p >= 0 and in_rank[p]:
            rank_reductions += 1
        if sid == atleast_id and p >= 0 and tr.name[p] == classok_id:
            class_misses += 1

    c, m = tr.counters, tr.maxima
    rank_queries = calls["rank.rank_vector"] + calls["rank.rank_at_least"]
    nodes = calls["rank._minfail"]
    f_tried = calls["bn._class_ok"]
    transport_calls, transport_s = group("transport.")
    _, experiment_s = group("experiment.")
    _, rank_s = group("rank.")
    _, bn_s = group("bn.")
    return {
        "curve.pointmap_calls": calls["curve.pointmap"],
        "curve.pointmap_s": secs["curve.pointmap"],
        "curve.subdivide_s": secs["curve.subdivide"],
        "models.builds": calls["models.build"],
        "models.build_s": secs["models.build"],
        "models.n_max": m["models.n_max"],
        "models.n_sum": c["models.n_sum"],
        "models.lam_max": m["models.lam_max"],
        "models.lookup_calls": calls["models.lookup"],
        "models.lookup_s": secs["models.lookup"],
        "models.diameter_s": secs["models.diameter"],
        "kernel.calls": calls["kernel"],
        "kernel.s": secs["kernel"],
        "kernel.n_sum": c["kernel.n_sum"],
        "kernel.n_max": m["kernel.n_max"],
        "kernel.debt_calls": c["kernel.debt_calls"],
        "kernel.firings": c["kernel.firings"],
        "rank.queries": rank_queries,
        "rank.nodes": nodes,
        "rank.memo_hit_ratio": c["rank.memo_hits"] / nodes if nodes else 0.0,
        "rank.reductions_per_query":
            rank_reductions / rank_queries if rank_queries else 0.0,
        "rank.self_s": rank_s,
        "bn.queries": calls["bn.first_failure"],
        "bn.E_tried": calls["bn.extendable"],
        "bn.F_tried": f_tried,
        "bn.class_hit_ratio": 1 - class_misses / f_tried if f_tried else 0.0,
        "bn.rank_checks": calls["rank.rank_at_least"],
        "bn.self_s": bn_s,
        "transport.calls": transport_calls,
        "transport.self_s": transport_s,
        "experiment.steps": c["experiment.steps"],
        "experiment.self_s": experiment_s,
        "cli.calls": calls["cli.main"],
        "cli.self_s": secs["cli.main"],
        "cli.bytes_out": c["cli.bytes_out"],
        "trace.wall_s": sum(e - s for s, e, p in zip(tr.start, tr.end, tr.parent)
                            if p < 0),
        "trace.gap_s": secs[QUERY],
        "trace.spans": len(tr.name),
    }
