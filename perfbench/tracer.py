"""Call tracing for the benchmark, applied from outside the package.

The tracer wraps functions of the ``hurwitz`` package from outside: it
replaces a public function in every ``hurwitz`` module that holds it
under its name, so ``hurwitz.orbits.serialize`` is wrapped together
with ``hurwitz.systems.serialize``.  Wrapped functions return exactly
what the originals return.

Three kinds of wrapper:

* ``span``: coarse calls.  Each call appends a span record (name,
  start, end, parent span) and adds to the call's inclusive and self
  time.  Self time is the span's duration minus the time its traced
  children cover, where children are nested spans and nested timed calls.
* ``timed``: hot calls.  Count and cumulative inclusive time only.
* ``counted``: the cheapest primitives.  Count only, because a timer
  would cost more than the call it measures.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, busy seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.tallies: dict[str, int] = defaultdict(int)
        # one frame per active traced call: [seconds covered by children, enclosing span]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, name: str, fn, tally=None):
        """tally(tracer, args, result, enclosing span name) adds exact
        counts read off the call's arguments and result."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = stack[-1][1] if stack else -1
            stack.append([0.0, span])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.seconds[name] += dt
                if stack:
                    stack[-1][0] += dt
            if tally is not None:
                tally(self, args, result, self.spans[span][0] if span >= 0 else None)
            return result
        return wrapper

    def span(self, name: str, fn, tally=None):
        """tally as for timed."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent, 0.0]
            self.spans.append(record)
            frame = [0.0, index]
            stack.append(frame)
            t0 = record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = record[2] = clock()
                stack.pop()
                dt = record[4] = t1 - t0
                self.calls[name] += 1
                self.seconds[name] += dt
                self.self_seconds[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if tally is not None:
                tally(self, args, result, self.spans[parent][0] if parent >= 0 else None)
            return result
        return wrapper

    def generator_span(self, name: str, fn, item_counter: str):
        """A span around a generator function.  Only time spent inside
        the generator counts as busy; the consumer's work between items
        stays with the consumer."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(self.spans)
            record = [name, clock(), 0.0, parent, 0.0]
            self.spans.append(record)
            busy = covered = 0.0
            try:
                while True:
                    frame = [0.0, index]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        busy += dt
                        covered += frame[0]
                        if stack:
                            stack[-1][0] += dt
                    self.calls[item_counter] += 1
                    yield item
            finally:
                record[2] = clock()
                record[4] = busy
                self.calls[name] += 1
                self.seconds[name] += busy
                self.self_seconds[name] += busy - covered
        return wrapper

    # ------------------------------------------------------------------
    # installing and removing wrappers

    def patch_function(self, package: str, original, wrapped) -> None:
        """Replace original under its own name in every module of the
        package that holds it."""
        attr = original.__name__
        patched = False
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            if module.__dict__.get(attr) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped)
                patched = True
        if not patched:
            raise LookupError("%s is not bound in any %s module" % (attr, package))

    def patch_attribute(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "busy": busy}
                for name, start, end, parent, busy in self.spans]

    def exact_counts(self) -> dict[str, int]:
        out = {"calls." + k: v for k, v in self.calls.items()}
        out.update(("tally." + k, v) for k, v in self.tallies.items())
        return dict(sorted(out.items()))
