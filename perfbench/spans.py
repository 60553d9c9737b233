"""In-memory spans around calls into the program's modules.

The benchmark swaps a module attribute for a wrapper that records a
span (name, start, end, parent) while the tracer is installed, and puts
the original back when it closes.  Callers that look the attribute up
at call time, which is how the program's modules call each other, then
pass through the wrapper.  A span's layer is its name up to the first
dot; its self time is its duration minus that of its direct children.
"""

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count]
        self.counts = defaultdict(int)
        self._stack = []
        self._wrappers = []  # (module, attr, original, wrapper)

    def span(self, module, attr, name, count=None):
        """Record a span for every call of ``module.attr`` while installed.

        ``count(args, result)`` may return a number stored with the span,
        such as the number of cycles a call enumerated.
        """
        fn = getattr(module, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec = spans[sid]
                rec[1] = start
                rec[2] = end
            if count is not None:
                rec[4] = count(args, out)
            return out

        self._wrappers.append((module, attr, fn, traced))

    def counter(self, module, attr, name):
        """Count calls of ``module.attr`` while installed, without a span."""
        fn = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._wrappers.append((module, attr, fn, counted))

    def install(self):
        for module, attr, _fn, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def close(self):
        for module, attr, fn, _wrapper in reversed(self._wrappers):
            setattr(module, attr, fn)

    def totals(self):
        """Per span name: (calls, summed duration in s, summed count)."""
        out = defaultdict(lambda: [0, 0.0, 0])
        for name, start, end, _parent, count in self.spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += count
        return out

    def self_times(self):
        """Per layer: summed self time in s."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _parent, _count), inner in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - inner
        return out

    def dump(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p, c] for n, s, e, p, c in self.spans]
