"""Spans around the calls into each fiedlertrees module, for the traced pass.

``Tracer.install`` wraps every public function of each layer module, and
``Tree.__init__`` / ``RootedBoundaryTree.__init__``, at every name under
which the package's modules look them up, so calls between modules and
inside one module are both seen.  No file of the program changes.

A span is (name, start, end, parent).  Spans are kept in memory, one
compact array set per pass, and written out when the run ends.  A layer's
self time is the sum over its spans of the span's length minus the
lengths of its child spans; calls nest on one thread, so the children of
a span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

LAYERS = ("search", "enumeration", "trees", "spectral", "nodal", "perturb", "cli")
CLASSES = ("Tree", "RootedBoundaryTree")  # in trees; their constructors count as trees.built

# per-layer metrics: name -> unit, in the order they are reported
LAYER_METRICS = {
    "search.s": "s",
    "search.candidates": "count",
    "search.tie_band": "count",
    "enumeration.s": "s",
    "enumeration.words": "count",
    "enumeration.trees": "count",
    "enumeration.yield": "trees/word",
    "enumeration.rooted_keys": "count",
    "trees.s": "s",
    "trees.built": "count",
    "spectral.s": "s",
    "spectral.solves": "count",
    "spectral.order_max": "rows",
    "spectral.dense_mb_max": "MB-computed",
    "nodal.s": "s",
    "nodal.calls": "count",
    "perturb.s": "s",
    "perturb.calls": "count",
    "cli.s": "s",
    "cli.out_kb": "KB",
    "trace.overhead_s": "s",
}

_SEARCHES = ("search.min_alpha_tree", "search.min_alpha_caterpillar", "search.min_nu_rooted")
_YIELD_COUNTS = {"enumeration.enumerate_rooted_trees": "enumeration.rooted_keys"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._spans: list = []  # open pass: (name_id, start, end, parent)
        self._stack = [-1]
        self._counts: dict[str, float] = {}
        self.passes: list[dict] = []  # closed passes: span arrays and counters

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, layer: str, name: str, fn, on_result=None):
        nid = self._name_id(name, layer)
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            counts = self._counts
            key = _YIELD_COUNTS.get(name)

            # each resume of the generator is one span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans[idx] = (nid, t0, t1, parent)
                    if key:
                        counts[key] = counts.get(key, 0) + 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self._counts[key] = self._counts.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self._counts[key] = max(self._counts.get(key, 0), value)

    def _result_hooks(self) -> dict:
        def report(_args, result):
            self._add("search.candidates", getattr(result, "instance_count", 0))
            self._add("search.tie_band", len(getattr(result, "minimizers", ())))

        def solve(args, _result):
            order = int(np.shape(args[0])[0])
            self._max("spectral.order_max", order)
            # a dense float64 matrix and its eigenvector matrix
            self._max("spectral.dense_mb_max", 2 * 8 * order * order / 1e6)

        hooks = {name: report for name in _SEARCHES}
        hooks["search.explore_partitions"] = lambda _a, rows: self._add("search.candidates", len(rows))
        hooks["enumeration.canonical_tree_codes"] = lambda _a, codes: self._add("enumeration.trees", len(codes))
        hooks["spectral.eig_smallest"] = solve
        return hooks

    def install(self) -> None:
        """Replace the public functions of every layer module by recording
        wrappers, wherever a module of the package holds a reference."""
        modules = {layer: importlib.import_module(f"fiedlertrees.{layer}") for layer in LAYERS}
        hooks = self._result_hooks()
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    qualname = f"{layer}.{name}"
                    wrapped[obj] = self._wrap(layer, qualname, obj, hooks.get(qualname))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        for cls_name in CLASSES:
            cls = getattr(modules["trees"], cls_name)
            cls.__init__ = self._wrap("trees", f"trees.{cls_name}.__init__", cls.__init__)

    def end_pass(self, out_bytes: int) -> None:
        """Close the current pass: move its spans into arrays."""
        spans = self._spans
        if any(s is None for s in spans) or len(self._stack) != 1:
            raise RuntimeError("a span is still open at the end of a pass")
        arr = np.array(spans, dtype=float).reshape(-1, 4)
        counts = dict(self._counts)
        counts["cli.out_kb"] = out_bytes / 1024
        self.passes.append({
            "name": arr[:, 0].astype(np.int32),
            "start": arr[:, 1].copy(),
            "end": arr[:, 2].copy(),
            "parent": arr[:, 3].astype(np.int64),
            "counts": counts,
        })
        spans.clear()
        self._counts.clear()

    # -- results ---------------------------------------------------------

    def pass_metrics(self, p: dict) -> dict[str, float]:
        """Per-layer metrics of one closed pass (trace.overhead_s aside)."""
        name = p["name"]
        layer = np.array(self.layer_of, dtype=np.int64)[name]
        self_s = self_times(p["start"], p["end"], p["parent"])
        busy = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        per_name = np.bincount(name, minlength=len(self.names))

        def spans_of(qualname: str) -> int:
            return int(per_name[self.names.index(qualname)]) if qualname in self.names else 0

        counts = p["counts"]
        words = spans_of("enumeration.prufer_decode")
        trees = counts.get("enumeration.trees", 0)
        out = {f"{layer}.s": float(busy[i]) for i, layer in enumerate(LAYERS)}
        out.update({
            "search.candidates": counts.get("search.candidates", 0),
            "search.tie_band": counts.get("search.tie_band", 0),
            "enumeration.words": words,
            "enumeration.trees": trees,
            "enumeration.yield": trees / words if words else 0.0,
            "enumeration.rooted_keys": counts.get("enumeration.rooted_keys", 0),
            "trees.built": sum(spans_of(f"trees.{c}.__init__") for c in CLASSES),
            "spectral.solves": spans_of("spectral.eig_smallest"),
            "spectral.order_max": counts.get("spectral.order_max", 0),
            "spectral.dense_mb_max": counts.get("spectral.dense_mb_max", 0.0),
            "nodal.calls": int(calls[LAYERS.index("nodal")]),
            "perturb.calls": int(calls[LAYERS.index("perturb")]),
            "cli.out_kb": counts["cli.out_kb"],
        })
        return out

    def write(self, path: Path) -> None:
        """All spans of all traced passes, with the name table."""
        arrays = {}
        for i, p in enumerate(self.passes):
            for key in ("name", "start", "end", "parent"):
                arrays[f"pass{i}_{key}"] = p[key]
        np.savez(path, **arrays)
        path.with_suffix(".names.json").write_text(
            json.dumps({"names": self.names, "layers": [LAYERS[i] for i in self.layer_of]}),
            encoding="utf-8",
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's length minus the lengths of its direct children."""
    length = end - start
    child = np.zeros_like(length)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], length[has_parent])
    return length - child
