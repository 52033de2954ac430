"""Span tracing from outside the program.

``Tracer.install`` wraps the public functions listed in ``TRACED`` at every
quivertau module attribute that holds them, so by-name imports such as
``classify.has_quotient`` or ``catalog.quotient`` are traced too, and wraps
the methods ``SparseSpace.add`` and ``SparseSpace.contains``.  Each call
records a span (name, start, end, parent span) in flat in-memory arrays;
``write`` stores them when the run ends and ``summary`` derives self times,
call counts and the counters the benchmark reports.
"""

from __future__ import annotations

import array
import json
import sys
import time

# Layer boundaries: the public functions recorded as spans, per module.
TRACED = {
    "presentation": (
        "parse_presentation", "serialize_presentation",
        "validate_presentation", "require_valid", "all_paths",
        "dimension_table", "ideal_membership_spaces", "path_is_zero",
        "opposite", "quotient", "structural_profile", "homology_rank"),
    "linalg": ("SparseSpace.add", "SparseSpace.contains"),
    "tensor": ("tensor_product", "rad_square_quotient"),
    "sepgraph": (
        "classify_graph", "separated_quiver", "is_rad_square_zero",
        "minimal_bad_single_subquiver", "adachi_decide",
        "find_oriented_cycle", "cycle_witness"),
    "catalog": ("catalog_get", "has_quotient", "is_iso"),
    "strings": ("special_biserial_check", "band_search"),
    "classify": ("classify_single", "classify_tensor",
                 "classify_self_tensor", "line_class"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)
CLASSIFY_ENTRIES = ("classify.classify_single", "classify.classify_tensor",
                    "classify.classify_self_tensor")


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.counts = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, qualname, fn, after=None, on_error=None):
        nid = len(self.names)
        self.names.append(qualname)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _outermost_classify(self):
        """True when the span just closed was not called from classify."""
        parent = self.stack[-1]
        return parent < 0 or not \
            self.names[self.name[parent]].startswith("classify.")

    def _hooks(self, qualname, fn):
        """Counters read from return values, per traced function."""
        if qualname in ("catalog.has_quotient", "catalog.is_iso"):
            return (lambda r: self._count(qualname + ".hits", r is not None),
                    None)
        if qualname == "linalg.SparseSpace.add":
            return lambda r: self._count("linalg.add_rank_grew", bool(r)), None
        if qualname == "presentation.all_paths":
            seen = [fn.cache_info().misses]

            def after(result):
                misses = fn.cache_info().misses
                if misses > seen[0]:
                    self._count("presentation.paths_enumerated",
                                sum(len(ps) for ps in result.values()))
                seen[0] = misses
            return after, None
        if qualname == "sepgraph.minimal_bad_single_subquiver":
            return (lambda r: self._count(
                "sepgraph.witness_vertices",
                len(r.vertices) if r is not None else 0)), None
        if qualname in CLASSIFY_ENTRIES:
            def after(result):
                if self._outermost_classify():
                    self._count("classify.status." + result.status)

            def on_error(exc):
                if self._outermost_classify() and \
                        _is_typed_error(exc):
                    self._count("classify.typed_errors")
            return after, on_error
        return None, None

    def install(self):
        """Wrap every traced function at every module attribute holding it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "quivertau" or name.startswith("quivertau."))
                   and m is not None]
        for module, funcs in TRACED.items():
            home = sys.modules[f"quivertau.{module}"]
            for func in funcs:
                qualname = f"{module}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    owner = getattr(home, cls_name)
                    fn = owner.__dict__[meth]
                    self._patch(owner, meth, fn,
                                self._wrap(qualname, fn,
                                           *self._hooks(qualname, fn)))
                    continue
                fn = getattr(home, func)
                traced = self._wrap(qualname, fn, *self._hooks(qualname, fn))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, fn, traced)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def write(self, path):
        """Store the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": ["name:i", "parent:i", "start:q", "end:q"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)

    def summary(self):
        """Per-function calls and self seconds, layer self seconds, counts.

        A span's self time is its duration minus the durations of its
        direct children; calls nest strictly in one thread, so children
        never overlap each other.
        """
        n = len(self.name)
        self_ns = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_ns[p] -= self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_by_name = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_by_name[nid] += self_ns[i]
        functions = {name: {"calls": calls[k], "self_s": self_by_name[k] / 1e9}
                     for k, name in enumerate(self.names)}
        layers = {layer: 0.0 for layer in LAYERS}
        for name, stats in functions.items():
            layers[name.split(".")[0]] += stats["self_s"]
        return {"functions": functions, "layers": layers,
                "counts": dict(self.counts), "spans": n,
                "negative_self": sum(1 for s in self_ns if s < 0)}


def _is_typed_error(exc):
    # imported late: run.py imports this module without quivertau on its path
    from quivertau.presentation import QuivertauError
    return isinstance(exc, QuivertauError)
