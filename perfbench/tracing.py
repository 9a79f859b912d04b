"""Spans around the benchmark's own calls into the package.

A span records name, start, end, parent span and op id.  Spans live in
memory and are written out once, when the run ends.  The untraced run uses
:data:`OFF`, whose ``span`` is a no-op, so the same op code serves both.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent, "op": self.op_id}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class _Off:
    op_id = None

    def span(self, name):
        return contextlib.nullcontext()


OFF = _Off()
