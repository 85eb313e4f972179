"""In-memory spans recorded by the benchmark around calls into the program.

A span is (name, start, end, parent, scale): times are
``time.perf_counter()`` seconds, ``parent`` is the index of the enclosing
span, or None, and ``scale`` is the machine-speed factor of the pass the span
belongs to (see ``speed.py``). Spans are kept in a list and written out once,
when the run ends.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, 1.0])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def adopt(self, spans):
        """Append spans recorded elsewhere (a child process), re-basing their
        parent indices and hanging their roots under the open span."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else None
        for name, start, end, par, scale in spans:
            self.spans.append([name, start, end, parent if par is None else base + par, scale])

    def rescale(self, since, factor):
        """Set the speed factor of the spans from index ``since`` on."""
        for sp in self.spans[since:]:
            sp[4] = factor

    def seconds(self, name, since=0):
        """Scaled total duration of the spans called ``name`` from ``since`` on."""
        return sum((end - start) * scale
                   for n, start, end, _, scale in self.spans[since:] if n == name)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "scale": f}
                       for n, s, e, p, f in self.spans], fh)
