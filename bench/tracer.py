"""In-memory call tracer for the hnn modules, used only by bench/run.py.

While a :class:`Tracer` is active, every public function of the traced
modules is replaced by a wrapper that records one span per call. hnn
modules call each other through module attributes (``ring.ntt_forward``)
or module globals, so the wrappers see internal calls as well as the
benchmark's own. Nothing in hnn is edited; the original functions are
put back when the ``active`` block ends.

A span is a tuple

    (name, tag, dur_ns, self_ns, outer, work)

``tag`` groups the spans of one request (a batch, or one set-up);
``self_ns`` is the span's duration minus the durations of the spans it
directly encloses; ``outer`` is False for a call nested inside another
call of the same function, so inclusive time never counts twice;
``work`` is an optional per-call work count (NTT butterflies).
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import defaultdict

class Tracer:
    """Wraps public functions of ``modules``; spans stay in memory.

    skip: qualified names ("ring.mulmod") left unwrapped because they are
    called so often that a wrapper would distort the time around them;
    their time shows up in the caller's self time.
    work: qualified name -> function of the call's arguments returning a
    work count stored on the span.
    """

    def __init__(self, modules, skip=(), work=None):
        self.modules = list(modules)
        self.skip = set(skip)
        self.work = dict(work or {})
        self.spans = []
        self._stack = []  # [child_ns] of each open span
        self._depth = defaultdict(int)  # open calls per name
        self._tag = None

    def _functions(self):
        """(qualified name, function) for every public function defined
        in a traced module."""
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(val, types.FunctionType)
                    and val.__module__ == mod.__name__
                    and f"{short}.{attr}" not in self.skip
                ):
                    yield f"{short}.{attr}", val

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns
        work_fn = self.work.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = work_fn(*args, **kwargs) if work_fn is not None else 0
            outer = depth[name] == 0
            depth[name] += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                spans.append((name, tracer._tag, dur, dur - frame[0], outer, work))

        return wrapper

    @contextlib.contextmanager
    def active(self, tag):
        """Trace every call made inside the block under ``tag``."""
        originals = dict(self._functions())
        wrappers = {fn: self._wrap(name, fn) for name, fn in originals.items()}
        replaced = []
        # replace the function wherever a traced module holds it, which
        # covers `from .x import f` aliases as well as the defining module
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    replaced.append((mod, attr, val))
        self._tag = tag
        try:
            yield self
        finally:
            for mod, attr, val in replaced:
                setattr(mod, attr, val)
            self._tag = None
            self._stack.clear()
            self._depth.clear()

    def summary(self, tags) -> dict:
        """Per function name over the spans of ``tags``: calls, inclusive
        ns (outermost calls only), self ns and work, summed."""
        tags = set(tags)
        out = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "work": 0})
        for name, tag, dur, self_ns, outer, work in self.spans:
            if tag not in tags:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_ns"] += self_ns
            row["work"] += work
            if outer:
                row["incl_ns"] += dur
        return dict(out)

    def call_counts(self, tag) -> dict:
        return {name: row["calls"] for name, row in self.summary([tag]).items()}
