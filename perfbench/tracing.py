"""Spans around calls into arbolist's layers, recorded from outside.

``install`` wraps every public function of the layer modules and rebinds
the wrapper wherever an arbolist module holds the function, so calls
between modules and inside a module are both seen.  A span is
``[name, start, end, parent, info]``: ``parent`` is the index of the
enclosing span or -1, ``info`` a few numbers taken from the result (the
lister's stats, a graph's n and m, an ordering's degeneracy).  A
lister's ``sink`` argument is wrapped too, so the time spent in the
caller's callback shows as ``sink`` spans under the lister.  Spans stay
in memory and are written once, when the traced process ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Optional

LAYERS = ("graphio", "core", "listing", "zeroclique", "primes", "generators")
# Helpers called once per record; a span each would dominate the cost.
PER_RECORD = frozenset({"edge_key", "pair_order", "triangle_record",
                        "four_cycle_record", "clique_record"})


def _info(result):
    if hasattr(result, "emitted_count"):
        return [result.preprocess_time, result.emit_time,
                result.emitted_count, result.steps]
    if hasattr(result, "degeneracy"):
        return result.degeneracy
    if hasattr(result, "buckets_examined"):
        return [result.buckets_examined, result.cliques_listed_total,
                result.p, result.s]
    base = getattr(result, "base", result)
    if hasattr(base, "n") and hasattr(base, "m"):
        return [base.n, base.m]
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, sink_at: Optional[int] = None):
        """``fn`` recording one span per call (per item for a generator).

        ``sink_at`` is the position of a ``sink`` parameter; the callable
        passed there is wrapped too, recording ``sink`` spans.
        """
        open_, close = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            def traced_iter(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = open_(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(span)
                    yield item
            return traced_iter

        wrap_sink = self.wrap

        def traced(*args, **kwargs):
            if sink_at is not None:
                if len(args) > sink_at:
                    args = (*args[:sink_at], wrap_sink("sink", args[sink_at]),
                            *args[sink_at + 1:])
                elif "sink" in kwargs:
                    kwargs["sink"] = wrap_sink("sink", kwargs["sink"])
            span = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            span[4] = _info(result)
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module of arbolist."""
        for layer in LAYERS:
            importlib.import_module(f"arbolist.{layer}")
        importlib.import_module("arbolist.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "arbolist" or name.startswith("arbolist.")]
        for layer in LAYERS:
            mod = sys.modules[f"arbolist.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in PER_RECORD
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                params = list(inspect.signature(fn).parameters)
                traced = self.wrap(f"{layer}.{attr}", fn, params.index("sink")
                                   if "sink" in params else None)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, traced)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def dump(self, path: str, **marks: float) -> None:
        """Write the spans, then the time the write itself took."""
        t0 = perf_counter()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"marks": marks, "spans": self.spans}))
            fh.write("\n")
            fh.flush()
            fh.write(json.dumps({"dump_s": perf_counter() - t0}))
            fh.write("\n")


def load(path: str) -> dict:
    """Read a dump: ``marks``, ``spans`` and ``dump_s``."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.loads(fh.readline())
        doc.update(json.loads(fh.readline()))
    return doc


class SpanTree:
    """Queries over the spans of one traced process."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def top(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] < 0]

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def find(self, name: str, under: int = -1,
             outermost: bool = False) -> list[int]:
        """Spans called ``name`` below span ``under`` (-1: anywhere).

        With ``outermost``, spans nested in a match are not searched, so
        recursive calls are not counted twice.
        """
        found, todo = [], list(self.top() if under < 0 else self.children[under])
        while todo:
            i = todo.pop()
            matched = self.spans[i][0] == name
            if matched:
                found.append(i)
            if not (matched and outermost):
                todo.extend(self.children[i])
        return sorted(found)

    def total(self, name: str, under: int = -1) -> float:
        """Time inside outermost spans called ``name`` below ``under``."""
        return sum(self.duration(i)
                   for i in self.find(name, under, outermost=True))

    def nesting_errors(self) -> list[str]:
        """Children outside their parent, or overlapping top-level spans."""
        errors = []
        for name, start, end, parent, _ in self.spans:
            if end < start:
                errors.append(f"{name} ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    errors.append(f"{name} lies outside its parent {p[0]}")
        top = sorted(self.spans[i][1:3] for i in self.top())
        for (_, end), (start, _) in zip(top, top[1:]):
            if start < end:
                errors.append("top-level spans overlap")
        return errors
