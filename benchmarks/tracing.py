"""In-memory spans around the benchmark's calls into each feaslab layer.

A span is (id, parent id, item id, name, start, end).  All spans of one
item share the item id.  Spans stay in a list until the worker writes them
out once, at the end of its pass.  With tracing off, `call` runs the
function and records nothing.
"""

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []  # [span id, name, start] of the spans not yet closed
        self._item = None

    def begin(self, name: str, item=None):
        if not self.enabled:
            return
        if item is not None:
            self._item = item
        self._open.append([len(self.spans) + len(self._open), name, perf_counter()])

    def end(self):
        if not self.enabled:
            return
        end = perf_counter()
        sid, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else None
        self.spans.append((sid, parent, self._item, name, start, end))

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()


def busy_and_self(spans) -> tuple:
    """Per span name: total duration, and duration minus the child spans.

    The worker runs one call at a time, so child spans never overlap and
    the covered part of a parent is the sum of its children.
    """
    busy = defaultdict(float)
    covered = defaultdict(float)
    for _sid, parent, _item, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    self_time = defaultdict(float)
    for sid, _parent, _item, name, start, end in spans:
        busy[name] += end - start
        self_time[name] += end - start - covered[sid]
    return dict(busy), dict(self_time)
