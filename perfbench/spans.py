"""In-memory span recorder for the benchmark's own calls into siegelkit.

A span is (name, start, end, parent, param): ``parent`` is the index of the
enclosing span (-1 at the root) and ``param`` names the parameter the call
worked on.  Spans stay in memory and are written out once, at the end.
"""

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, param]
        self.counts = Counter()  # (root span index, counter name) -> n
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, param=""):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, str(param)])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name, n=1):
        root = self._stack[0] if self._stack else -1
        self.counts[(root, name)] += n

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, param in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "param": param}) + "\n")

    # -- summaries ---------------------------------------------------------

    def _root(self, idx):
        while self.spans[idx][3] != -1:
            idx = self.spans[idx][3]
        return idx

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s[3] == -1 and s[0] == name]

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def per_root(self, name, roots):
        """Total seconds of ``name`` spans under each root, one value per root."""
        sums = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[0] == name:
                sums[self._root(i)] += s[2] - s[1]
        return [sums[r] for r in roots]

    def count_per_root(self, name, roots):
        return [self.counts[(r, name)] for r in roots]

    def calls_per_root(self, name, roots):
        calls = Counter(self._root(i) for i, s in enumerate(self.spans) if s[0] == name)
        return [calls[r] for r in roots]


class NullTracer:
    """Same interface, records nothing: the untraced path."""

    _null = contextlib.nullcontext()

    def span(self, name, param=""):
        return self._null

    def count(self, name, n=1):
        pass


NULL = NullTracer()


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it; (0, 0.0) when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return 0, 0.0
    return round(100.0 * (n - 10) / n), sorted(values)[n - 11]
