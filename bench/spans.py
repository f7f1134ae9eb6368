"""In-memory span recorder for the benchmark's traced run.

A span is one call: its name, start, end and the span that was open when it
began. The benchmark opens spans around its own phases in every run; only
the traced run also wraps the public functions of the ``eitprobe`` modules
(``install``), so each library call inside a phase becomes a child span.

Spans stay in memory until the run ends and are then written out. A span's
self time is its duration minus the part of that interval covered by its
child spans; a layer's self time is the sum over the spans of its module.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int        # -1 for a root span
    name: str          # "<module>.<function>" or "bench.<phase>"
    start: float
    end: float = float("nan")

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one thread, kept in a list until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(sid, parent, name, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield self.spans[sid]
        finally:
            self.close(sid)

    # --- queries -------------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s.sid)
        return kids

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the union of its children's intervals."""
        kids = self.children()
        out = np.empty(len(self.spans))
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for k in sorted(kids.get(s.sid, ()), key=lambda i: self.spans[i].start):
                c = self.spans[k]
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.sid] = s.duration - covered
        return out

    def ancestors(self, sid: int):
        p = self.spans[sid].parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent

    def within(self, sid: int, phase: str) -> bool:
        """True when span ``sid`` runs inside a span named ``phase``."""
        return any(a.name == phase for a in self.ancestors(sid))

    def phase_of(self, sid: int) -> str:
        """Name of the innermost enclosing ``bench.*`` span."""
        for a in self.ancestors(sid):
            if a.layer == "bench":
                return a.name
        return ""

    def to_rows(self) -> list:
        return [[s.sid, s.parent, s.name, s.start, s.end] for s in self.spans]


def _wrap(fn, name: str, rec: SpanRecorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)
    return traced


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds to the call it wraps, measured on a
    function that does nothing."""
    def noop():
        return None
    traced = _wrap(noop, "bench.noop", SpanRecorder())
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


@contextmanager
def install(package: str, rec: SpanRecorder):
    """Wrap every public function of every module of ``package`` for the
    duration of the block.

    The name is replaced in each module that holds it, not only where it
    is defined, because callers look functions up in their own module's
    globals: ``gen_dataset`` reaches ``make_sample`` as
    ``eitprobe.datagen.make_sample`` and ``build_reconstruction_matrix``
    reaches the TV operator as ``eitprobe.gn.build_tv_operator``.
    """
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{m.name}")
               for m in pkgutil.iter_modules(pkg.__path__)]
    wrappers: dict[int, object] = {}
    replaced: list[tuple] = []
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                    or not fn.__module__.startswith(package + ".")):
                continue
            if id(fn) not in wrappers:
                layer = fn.__module__.rsplit(".", 1)[1]
                wrappers[id(fn)] = _wrap(fn, f"{layer}.{fn.__name__}", rec)
            setattr(mod, attr, wrappers[id(fn)])
            replaced.append((mod, attr, fn))
    try:
        yield len(wrappers)
    finally:
        for mod, attr, fn in replaced:
            setattr(mod, attr, fn)
