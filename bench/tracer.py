"""Spans around the calls into each layer of toricsing, for the traced run.

The tracer replaces module attributes from outside the program: every
public function of a toricsing module is wrapped under the name each module
binds it to (``toricsing.enumerators.is_canonical_blowup``,
``toricsing.blowup.normalize``, ``toricsing.quotient.reid_tai_profile``, ...),
so calls made inside a module are seen as well as calls across modules.  A
few private helpers that other modules call (``chain._star_surface``,
``surfaces._canonical_rows``) and the enumerators' ``_filter`` are wrapped
too, because their work belongs to a layer the metrics report.

A span is (name, start, end, parent span, operation id); spans stay in
memory until the run ends.  The layer of a span is the module that defines
the function, and its self time is its duration minus that of its child
spans (calls on one thread nest, so the children never overlap).
"""
from __future__ import annotations

import csv
import gzip
import types
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("lattice", "quotient", "blowup", "surfaces", "enumerators", "chain", "cli")
# frac is called three times per group element inside the age profile; a
# span around it would cost more than the work it measures.
SKIP = frozenset({"frac"})
PRIVATE = frozenset({"_filter", "_star_surface", "_canonical_rows"})


class Tracer:
    def __init__(self):
        self.names = []  # (qualified name, attribute, layer) per name id
        self._ids = {}
        self.nid = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters = Counter()
        self._patched = []

    def _name_id(self, qual, attr, layer):
        key = (qual, attr, layer)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _wrap(self, fn, qual, attr, layer, hook=None):
        nid = self._name_id(qual, attr, layer)
        nids, parent, ops, start, end, stack = (
            self.nid, self.parent, self.op, self.start, self.end, self.stack
        )
        tracer = self

        def traced(*args, **kwargs):
            sid = len(nids)
            nids.append(nid)
            parent.append(stack[-1])
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap the functions of every toricsing module (see module doc)."""
        hooks = {
            "reid_tai_profile": self._on_profile,
            "_filter": self._on_filter,
        }
        for short in MODULES:
            mod = getattr(package, short)
            for attr, obj in list(vars(mod).items()):
                if attr in SKIP or (attr.startswith("_") and attr not in PRIVATE):
                    continue
                if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith(
                    "toricsing."
                ):
                    continue
                layer = obj.__module__.split(".")[-1]
                qual = "toricsing.%s.%s" % (short, attr)
                wrapped = self._wrap(obj, qual, attr, layer, hooks.get(attr))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def root(self, op_id):
        """Open the benchmark's own span around one operation."""
        self.op_id = op_id
        sid = len(self.nid)
        self.nid.append(self._name_id("bench.op", "op", "bench"))
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = perf_counter()
        self.stack.pop()

    # counters recorded at the layer boundaries

    def _on_profile(self, args, result):
        self.counters["profile_terms"] += max(0, args[0].r - 1)

    def _on_filter(self, args, result):
        self.counters["candidates"] += len(args[1])
        self.counters["hits"] += len(result)
        # plt scans test ampleness on surfaces, not blow-up charts
        pred = getattr(args[0], "func", args[0])
        if pred.__name__ != "_plt_ample":
            self.counters["blowup_candidates"] += len(args[1])

    # summaries

    def layer_times(self):
        """Self seconds per layer, and (seconds, calls) per name id."""
        n = len(self.nid)
        start, end, parent, nid = self.start, self.end, self.parent, self.nid
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        self_time = Counter()
        for i in range(n):
            d = end[i] - start[i]
            k = nid[i]
            total[k] += d
            calls[k] += 1
            self_time[self.names[k][2]] += d - child[i]
        return self_time, total, calls

    def write(self, path):
        """All spans as gzip'd CSV, times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "layer", "start_us", "end_us", "parent", "op"])
            for i in range(len(self.nid)):
                qual, _, layer = self.names[self.nid[i]]
                w.writerow([
                    i, qual, layer,
                    "%.1f" % ((self.start[i] - t0) * 1e6),
                    "%.1f" % ((self.end[i] - t0) * 1e6),
                    self.parent[i], self.op[i],
                ])


def per_layer_metrics(tracer, ops, elapsed, stdout_bytes):
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    self_time, total, calls = tracer.layer_times()
    c = tracer.counters

    def mean_us(*attrs, layer):
        ids = [i for i, (_, attr, lay) in enumerate(tracer.names)
               if lay == layer and attr in attrs]
        n = sum(calls[i] for i in ids)
        return 1e6 * sum(total[i] for i in ids) / n if n else 0.0

    def per_op(x):
        return x / ops

    out = {
        "%s.self_ms_per_op" % layer: (1e3 * per_op(self_time[layer]), "ms")
        for layer in MODULES
    }
    cand, blowup_cand = c["candidates"], c["blowup_candidates"]
    normalize_calls = sum(
        calls[i] for i, name in enumerate(tracer.names) if name[0] == "toricsing.blowup.normalize"
    )
    out.update({
        "quotient.normalize_us": (mean_us("normalize", layer="quotient"), "us"),
        "quotient.is_canonical_us": (mean_us("is_canonical", layer="quotient"), "us"),
        "quotient.profile_terms_per_op": (per_op(c["profile_terms"]), "count"),
        "blowup.predicate_us": (
            mean_us("is_canonical_blowup", "is_terminal_blowup", layer="blowup"),
            "us",
        ),
        "blowup.normalize_calls_per_candidate": (
            normalize_calls / blowup_cand if blowup_cand else 0.0,
            "count",
        ),
        "enumerators.candidates_per_op": (per_op(cand), "count"),
        "enumerators.hit_ratio": (c["hits"] / cand if cand else 0.0, "ratio"),
        "chain.step_us": (mean_us("step", layer="chain"), "us"),
        "cli.stdout_bytes_per_op": (per_op(stdout_bytes), "count"),
        "trace.ops_per_s": (ops / elapsed, "1/s"),
        "trace.spans_per_op": (per_op(len(tracer.nid)), "count"),
    })
    return out
