"""In-memory span tracer for the benchmark.

A span is one call into a powerpaint layer: its name, the unit of work
it belongs to (one game, one corpus pass or one verdict-list pass;
negative ids are set-up rounds), its parent span, start and end, and an
optional count taken from the call's arguments or result. Spans are
recorded from outside the program: ``install`` swaps module attributes
for recording wrappers, so calls between modules are seen too, and
``TracedPainter`` / ``TracedLister`` wrap the strategy objects handed to
``play_game``. The clock is the process CPU clock, the same one the
end-to-end timings use. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array

clock_ns = time.process_time_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.unit_of = array("q")
        self.parent = array("q")
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self._stack: list[int] = []
        self.unit = 0
        self.colored = 0
        self.revealed = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args=(), kwargs=None, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``count(args,
        result)`` fills the span's count."""
        i = len(self.start)
        self.unit_of.append(self.unit)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_of.append(name_id)
        self.count.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(clock_ns())
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self.end[i] = clock_ns()
            self._stack.pop()
        if count is not None:
            self.count[i] = count(args, result)
        return result

    def wrap(self, name: str, fn, count=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs, count)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def install(self, patches):
        """Replace ``(owner, attribute, span name, count)`` targets with
        recording wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self):
        """Rows (unit, parent, name, start_ns, end_ns, count)."""
        for i in range(len(self.start)):
            yield (self.unit_of[i], self.parent[i], self.names[self.name_of[i]],
                   self.start[i], self.end[i], self.count[i])

    def write(self, path: str):
        """Write every span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tunit\tparent\tname\tstart_ns\tend_ns\tcount\n")
            for i, row in enumerate(self.spans()):
                fh.write(f"{i}\t" + "\t".join(map(str, row)) + "\n")


class TracedPainter:
    """Proxy recording a span per ``choose_colors`` call and the
    colored/revealed totals."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.name = getattr(inner, "name", type(inner).__name__)
        self._tracer = tracer
        self._nid = tracer.name_id("painters.choose_colors")

    def reset(self):
        self.inner.reset()

    def choose_colors(self, state, game_graph, revealed):
        colored = self._tracer.call(self._nid, self.inner.choose_colors,
                                    (state, game_graph, revealed))
        self._tracer.colored += len(colored)
        self._tracer.revealed += len(revealed)
        return colored


class TracedLister:
    """Proxy recording a span per ``choose_reveal`` call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.name = getattr(inner, "name", type(inner).__name__)
        self._tracer = tracer
        self._nid = tracer.name_id("game.choose_reveal")

    def reset(self):
        self.inner.reset()

    def choose_reveal(self, state, game_graph):
        return self._tracer.call(self._nid, self.inner.choose_reveal,
                                 (state, game_graph))
