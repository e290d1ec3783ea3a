"""In-memory spans around the benchmark's calls into the library.

A span is ``[id, parent, op, name, start_ns, end_ns]``.  Spans of one
benchmark op share ``op``; ``parent`` is the enclosing span (0 at the root).
Names are ``<layer>.<call>``, with the layers named after the package
modules (``ordering``, ``rate_region``, ``codec``, ``gaussian_md``,
``cli``) and ``op`` for the benchmark's own op spans.

With recording off, :meth:`Tracer.call` is a plain call and
:meth:`Tracer.span` a shared no-op context, so untraced runs pay one extra
Python call per library call and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()
_ns = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0

    def new_op(self) -> int:
        self._op += 1
        return self._op

    def _open(self, name: str) -> list:
        rec = [len(self.spans) + 1,
               self._stack[-1] if self._stack else 0,
               self._op, name, _ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = _ns()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        if not self.recording:
            return fn(*args)
        rec = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def span(self, name: str):
        return self._span(name) if self.recording else _NULL

    def durations(self, factor=None) -> dict[str, list[float]]:
        """Span durations in seconds, by name.

        `factor(start_s)`, if given, scales each duration (see speed.py).
        """
        out: dict[str, list[float]] = {}
        for rec in self.spans:
            dt = (rec[5] - rec[4]) * 1e-9
            if factor:
                dt *= factor(rec[4] * 1e-9)
            out.setdefault(rec[3], []).append(dt)
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds of self time (span minus its children), by layer."""
        child = [0] * (len(self.spans) + 1)
        for rec in self.spans:
            if rec[1]:
                child[rec[1]] += rec[5] - rec[4]
        out: dict[str, float] = {}
        for rec in self.spans:
            layer = rec[3].split(".", 1)[0]
            own = rec[5] - rec[4] - child[rec[0]]
            out[layer] = out.get(layer, 0.0) + own * 1e-9
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
