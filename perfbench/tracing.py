"""Spans around the benchmark's calls into skewstone's public functions.

The program itself is not instrumented: a span covers one call the
benchmark makes, so it measures a layer from outside.  Spans are kept in
memory and written once, when the run ends.
"""

from __future__ import annotations

import json
import resource
import time


def cpu_now():
    """CPU seconds (user + system) of this process and its waited children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tracer:
    """Records spans while ``enabled``; otherwise ``call`` is a plain call."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._parent = None
        self._op = None
        self._t0 = time.perf_counter()

    def _open(self, name, **attrs):
        span = {"id": len(self.spans), "name": name, "op": self._op, "parent": self._parent,
                "start": time.perf_counter() - self._t0, "cpu": -cpu_now(), **attrs}
        self.spans.append(span)
        return span

    def _close(self, span):
        span["cpu"] += cpu_now()
        span["end"] = time.perf_counter() - self._t0

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``; spans opened
        while fn runs get this one as their parent."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        outer, self._parent = self._parent, span["id"]
        try:
            return fn(*args, **kwargs)
        finally:
            self._parent = outer
            self._close(span)

    def begin_op(self, op_id, label):
        """Root span of one operation; later spans point to it as parent."""
        self._op = op_id
        self._parent = None
        if self.enabled:
            self._parent = self._open("op", label=label)["id"]

    def end_op(self):
        if self._parent is not None:
            self._close(self.spans[self._parent])
        self._parent = self._op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
