"""Traced mode: wrap dgtrace's layer functions from outside the package.

`Tracer(layers)` reads the layer table (layers.json) and, on `install()`,
patches every wrapped function at every module that binds it (a name
imported into another module is a second binding of the same object) and
every wrapped method once on its class.  Each call of a span layer records
a span `(id, parent id, op index, name index, start ns, end ns)` in memory;
the op index is the trace id shared by all spans of one op.  Calls of a
leaf layer (the hot `DgAlgebra.multiply`, `AlgebraElement.__mul__` and
`AlgebraElement.is_zero`) only add to a count and a total time.

Self time is computed as spans close: a span's duration minus the time of
its child spans and of the leaf calls made directly inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter_ns
from typing import Dict, List, Optional

LINALG_CELLS = {
    "rref": lambda m: m.rows * m.cols,
    "rank_kernel_image": lambda m: m.rows * m.cols,
    "rank_of": lambda m: m.rows * m.cols,
    "solve": lambda m, b: m.rows * m.cols,
    "solve_matrix": lambda m, rhs: m.rows * m.cols + rhs.rows * rhs.cols,
    "quotient_presentation": lambda ambient_dim, sub: ambient_dim * len(sub.basis),
    "span_dim": lambda vectors, ambient_dim: ambient_dim * len(vectors),
}


def _resolve(target: str):
    """'pkg.mod:Class.attr' -> (module, owner, attribute name, function)."""
    modname, qual = target.split(":")
    module = importlib.import_module(modname)
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return module, owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self, layers: List[dict]):
        self.layers = layers
        self.names: List[str] = ["op"]       # span name index -> target
        self.calls = [0] * len(layers)
        self.self_ns = [0] * len(layers)
        self.spans: List[tuple] = []
        self.cells = 0
        self.op = -1
        self._stack = [[0, 0]]               # frames: [span id, child ns]
        self._next_id = 1
        self._in_leaf = False
        self._linalg_depth = 0
        self._undo: List[tuple] = []

    # -- patching -----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Patch every wrapped callable; `extra_modules` are searched for
        bindings too (the benchmark's own modules)."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dgtrace" or name.startswith("dgtrace.")]
        modules.extend(extra_modules)
        for li, layer in enumerate(self.layers):
            for target in layer["wraps"]:
                module, owner, attr, orig = _resolve(target)
                if layer.get("leaf"):
                    wrapper = self._leaf_wrapper(orig, li)
                else:
                    wrapper = self._span_wrapper(orig, li, target, attr)
                if owner is not module:  # a method: patch it on its class
                    self._patch(owner, attr, orig, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, name, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _span_wrapper(self, orig, li: int, target: str, attr: str):
        ni = len(self.names)
        self.names.append(target)
        cells_of = (LINALG_CELLS.get(attr)
                    if target.startswith("dgtrace.linalg:") else None)
        stack, spans, calls, self_ns = (self._stack, self.spans, self.calls,
                                        self.self_ns)
        tracer = self

        def traced(*args, **kwargs):
            if cells_of is not None:
                if attr == "span_dim" and not isinstance(args[0], (list, tuple)):
                    args = (list(args[0]),) + args[1:]
                if tracer._linalg_depth == 0:
                    tracer.cells += cells_of(*args, **kwargs)
                tracer._linalg_depth += 1
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if cells_of is not None:
                    tracer._linalg_depth -= 1
                dur = t1 - t0
                parent[1] += dur
                calls[li] += 1
                self_ns[li] += dur - frame[1]
                spans.append((sid, parent[0], tracer.op, ni, t0, t1))

        traced.__wrapped__ = orig
        return traced

    def _leaf_wrapper(self, orig, li: int):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        tracer = self

        def leaf(*args, **kwargs):
            calls[li] += 1
            if tracer._in_leaf:  # time already counted by the outer leaf
                return orig(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                tracer._in_leaf = False
                self_ns[li] += dur
                stack[-1][1] += dur

        leaf.__wrapped__ = orig
        return leaf

    def run_op(self, i: int, fn):
        """fn(i) under a root span named "op"; every span inside it carries
        op index i as its trace id."""
        self.op = i
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(i)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, i, 0, t0, t1))

    # -- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics in layers.json order."""
        out: Dict[str, float] = {}
        hh0_call = self.names.index("dgtrace.hochschild:hh0_space")
        hh0_init = self.names.index("dgtrace.hochschild:HH0Space.__init__")
        hh0_spans = {s[0] for s in self.spans if s[3] == hh0_call}
        built_by_call = sum(1 for s in self.spans
                            if s[3] == hh0_init and s[1] in hh0_spans)
        for li, layer in enumerate(self.layers):
            name = layer["metric"]
            calls = self.calls[li]
            if name == "hochschild.hh0":
                calls = len(hh0_spans)
                out[name + ".calls"] = calls
                out[name + ".builds"] = sum(1 for s in self.spans
                                            if s[3] == hh0_init)
                out[name + ".hit_ratio"] = ((calls - built_by_call) / calls
                                            if calls else 0.0)
            else:
                out[name + ".calls"] = calls
            if name == "linalg":
                out[name + ".cells"] = self.cells
            out[name + ".self_s"] = self.self_ns[li] / 1e9
        return out

    def write_spans(self, path: str, meta: Optional[dict] = None) -> None:
        """Spans as JSON: a name table and rows
        [id, parent, op, name index, start ns, end ns]."""
        with open(path, "w") as fh:
            json.dump({"meta": meta or {}, "names": self.names,
                       "spans": self.spans}, fh, separators=(",", ":"))
