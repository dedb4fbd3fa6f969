"""Spans around the calls into each usigns layer, recorded from outside src/.

A layer is one module of the package. ``instrument`` rebinds every public
module-level function of every layer, in every module namespace that refers
to it, to a wrapper that records a span; it also wraps the cached table
properties of the public classes (``Polygon.chords`` and friends), because
that is where the per-n tables are rebuilt. Calls between layers therefore
show up as nested spans even though the package itself is unchanged.
Methods other than those properties run in their caller's layer.

Spans are kept in memory as columns (name, start, end, parent, op) and are
only recorded inside an op, so that set-up and checks never enter the
accounting. A layer's self time is the duration of its spans minus the part
covered by their direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import types
from array import array
from functools import cached_property
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("ngon", "patterns", "relations", "monomial", "signs", "solver", "points", "cli")

# Public methods the benchmark calls directly inside an op; without a span
# their time would land in the benchmark's own share.
DIRECT_METHODS = (("points", "PointConfig", "permuted"),)

BENCH = "bench"
RESUME = "#next"


class Tracer:
    """In-memory span store for one traced phase of a run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_kinds: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span; returns its index, or -1 outside an op."""
        if self._op < 0:
            return -1
        k = len(self.start)
        self.name.append(nid)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self._stack.append(k)
        self.start.append(perf_counter_ns())
        return k

    def finish(self, k: int) -> None:
        if k >= 0:
            self.end[k] = perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def in_op(self, kind: str):
        """Root span of one benchmark op; spans are recorded only inside it."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        k = self.begin(self.name_id(f"{BENCH}:{kind}"))
        try:
            yield
        finally:
            self.finish(k)
            self._op = -1

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op_kinds=np.array(self.op_kinds),
            **self.columns(),
        )

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time (s) and share of the traced op wall time.

        Generator resumptions add self time but not calls. Root op spans are
        the benchmark's own layer, so the shares of all layers plus
        ``bench`` sum to one.
        """
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child
        layer_names = (BENCH,) + LAYERS
        layer_of = np.array(
            [layer_names.index(n.split(":", 1)[0]) for n in self.names], dtype=np.int64
        )
        is_call = np.array([not n.endswith(RESUME) for n in self.names], dtype=bool)
        span_layer = layer_of[cols["name"]] if len(dur) else np.zeros(0, dtype=np.int64)
        self_by_layer = np.bincount(span_layer, weights=self_ns, minlength=len(layer_names))
        calls_by_layer = np.bincount(
            span_layer[is_call[cols["name"]]] if len(dur) else span_layer,
            minlength=len(layer_names),
        )
        wall = float(dur[~nested].sum())
        return {
            layer: {
                "calls": int(calls_by_layer[i]),
                "self_s": float(self_by_layer[i]) / 1e9,
                "share": float(self_by_layer[i]) / wall if wall else 0.0,
            }
            for i, layer in enumerate(layer_names)
        }

    def per_op(self, kind: str, outer: str, inner: str) -> list[tuple[float, float]]:
        """For each op of ``kind``: seconds in spans named ``outer`` and in
        spans named ``inner``, generator resumptions included."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]

        def ids(name):
            return [self._ids[n] for n in (name, name + RESUME) if n in self._ids]

        outer_ids, inner_ids = ids(outer), ids(inner)
        out = []
        for op_id, op_kind in enumerate(self.op_kinds):
            if op_kind == kind:
                in_op = cols["op"] == op_id
                out.append((
                    float(dur[in_op & np.isin(cols["name"], outer_ids)].sum()) / 1e9,
                    float(dur[in_op & np.isin(cols["name"], inner_ids)].sum()) / 1e9,
                ))
        return out


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)

    def resumed(gen):
        resume = tracer.name_id(name + RESUME)
        while True:
            k = tracer.begin(resume)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.finish(k)
            yield item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        k = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(k)
        if k >= 0 and isinstance(result, types.GeneratorType):
            return resumed(result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call into a usigns layer through ``tracer`` while active."""
    import usigns

    modules = {layer: importlib.import_module(f"usigns.{layer}") for layer in LAYERS}
    wrappers = {}
    undo = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = _wrap(tracer, obj, f"{layer}:{attr}")
            elif inspect.isclass(obj):
                for prop, desc in list(vars(obj).items()):
                    if isinstance(desc, cached_property) and not prop.startswith("_"):
                        new = cached_property(_wrap(tracer, desc.func, f"{layer}:{attr}.{prop}"))
                        new.__set_name__(obj, prop)
                        undo.append((obj, prop, desc))
                        setattr(obj, prop, new)
    for layer, cls_name, meth in DIRECT_METHODS:
        cls = getattr(modules[layer], cls_name)
        orig = vars(cls)[meth]
        undo.append((cls, meth, orig))
        setattr(cls, meth, _wrap(tracer, orig, f"{layer}:{cls_name}.{meth}"))
    for ns in (usigns, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])
    try:
        yield tracer
    finally:
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)
