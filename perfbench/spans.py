"""Span tracing of destpass from outside its sources.

The tracer replaces module-level bindings that callers go through with
wrappers that record spans, and puts the originals back afterwards:

* ``destpass.region.{alloc_hollow, write_field, read_value}``, which the
  builder calls as ``_region.*``: spans of the ``region`` layer;
* the builder names bound in ``destpass.{dlist, bfs, sexpr}`` and in the
  harness's own call namespace: spans of the ``builder`` layer, with both
  ``from_incomplete`` and ``from_incomplete_`` named ``builder.release``;
* the case-study entry points the harness calls: spans of that case study;
* ``ShapeRegistry.resolve``: counted, not spanned.

A callback passed to ``map_b`` or ``with_region`` becomes a span of the
layer that passed it (``dlist.callback``, ``harness.body``, ...), so
case-study loop code is not charged to the builder. A span records its
name, start, end and parent; spans stay in memory until :meth:`Tracer.take`
reduces one run's spans to self time per name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

BUILDER_SPANS = {
    "alloc": "builder.alloc",
    "fill": "builder.fill",
    "fill_comp": "builder.fill_comp",
    "fill_leaf": "builder.fill_leaf",
    "from_incomplete": "builder.release",
    "from_incomplete_": "builder.release",
    "map_b": "builder.map_b",
    "token_dup2": "builder.token_dup2",
    "with_region": "builder.with_region",
}
REGION_FUNCS = ("alloc_hollow", "write_field", "read_value")
CASE_MODULES = ("dlist", "bfs", "sexpr")
# Position of the callback argument of the builder functions that take one.
CALLBACK_ARG = {"map_b": 1, "with_region": 0}


@dataclass(frozen=True)
class Binding:
    owner: Any  # module, class or namespace holding the binding
    attr: str
    span: str  # span or counter name
    callback_span: str | None = None  # span name for the callback argument
    count_only: bool = False


def bindings(dp, calls) -> list[Binding]:
    """Every binding the tracer patches. Call before any tracer is installed."""
    out = [Binding(dp.region, f, f"region.{f}") for f in REGION_FUNCS]
    for layer in CASE_MODULES:
        mod = getattr(dp, layer)
        for attr, span in BUILDER_SPANS.items():
            if getattr(mod, attr, None) is getattr(dp.builder, attr):
                cb = f"{layer}.callback" if attr in CALLBACK_ARG else None
                out.append(Binding(mod, attr, span, cb))
    for attr, fn in vars(calls).items():
        if attr in BUILDER_SPANS:
            cb = "harness.body" if attr in CALLBACK_ARG else None
            out.append(Binding(calls, attr, BUILDER_SPANS[attr], cb))
        else:
            layer = fn.__module__.rsplit(".", 1)[-1]
            out.append(Binding(calls, attr, f"{layer}.{attr}"))
    out.append(Binding(dp.shapes.ShapeRegistry, "resolve", "shapes.resolve", count_only=True))
    return out


def snapshot(binds: list[Binding]) -> dict:
    """The function object behind each binding, keyed by (owner id, attr)."""
    return {(id(b.owner), b.attr): getattr(b.owner, b.attr) for b in binds}


def assert_untouched(binds: list[Binding], originals: dict) -> None:
    """Raise unless every binding is its original, unwrapped function."""
    for b in binds:
        fn = getattr(b.owner, b.attr)
        if fn is not originals[(id(b.owner), b.attr)] or hasattr(fn, "__wrapped__"):
            raise RuntimeError(f"{b.attr} on {b.owner!r} is patched outside a traced run")


@dataclass
class RunTrace:
    """One run's spans reduced to per-name totals."""

    calls: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    root_ns: int = 0  # summed duration of spans without a parent


class Tracer:
    def __init__(self, binds: list[Binding]) -> None:
        self._binds = binds
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._counts: dict[str, list[int]] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        # (name id, start ns, end ns, parent index); None while open.
        self.spans: list = []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _with_callback(self, name: str, fn: Callable, cb_name: str, pos: int) -> Callable:
        inner = self._spanned(name, fn)

        def traced(*args, **kwargs):
            args = list(args)
            args[pos] = self._spanned(cb_name, args[pos])
            return inner(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        cell = self._counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        for b in self._binds:
            fn = getattr(b.owner, b.attr)
            if b.count_only:
                wrapped = self._counted(b.span, fn)
            elif b.callback_span is not None:
                wrapped = self._with_callback(b.span, fn, b.callback_span, CALLBACK_ARG[b.attr])
            else:
                wrapped = self._spanned(b.span, fn)
            self._saved.append((b.owner, b.attr, fn))
            setattr(b.owner, b.attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def take(self) -> RunTrace:
        """Reduce and clear the spans and counts recorded since the last take."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        run = RunTrace()
        for (nid, t0, t1, parent), inner in zip(spans, child_ns):
            own = t1 - t0 - inner
            if own < 0:
                raise RuntimeError(f"span {self._names[nid]} is shorter than its children")
            name = self._names[nid]
            run.calls[name] = run.calls.get(name, 0) + 1
            run.self_ns[name] = run.self_ns.get(name, 0) + own
            if parent < 0:
                run.root_ns += t1 - t0
        for name, cell in self._counts.items():
            run.counts[name] = cell[0]
            cell[0] = 0
        spans.clear()
        return run
