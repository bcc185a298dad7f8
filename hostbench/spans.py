"""Spans around calls into the program's public functions, installed from outside.

The program's code is not modified: :meth:`SpanTracer.install` swaps class attributes
and module globals for timing wrappers, and :meth:`SpanTracer.uninstall` puts the
originals back.  A name in the plan that the program no longer defines is skipped and
reported in :attr:`SpanTracer.absent`, so planned deletions of public functions do not
break the benchmark.

Every call through a wrapper appends one span ``(name, layer, start, end, parent,
ident)``: ``parent`` is the index of the enclosing span (-1 for a call made by the
benchmark itself) and ``ident`` a request or sweep-cell id where the call carries one.
Spans stay in memory and are written at the end as gzipped Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, str, float, float, int, Optional[int]]


class SpanTracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ wrappers
    def _wrap(self, fn: Callable, name: str, layer: str,
              ident: Optional[Callable] = None, hook: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent,
                                ident(args) if ident is not None else None)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install_method(self, cls: type, attr: str, layer: str,
                       ident: Optional[Callable] = None,
                       hook: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it (not an inherited copy)."""
        name = f"{cls.__name__}.{attr}"
        raw = cls.__dict__.get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, layer, ident, hook))
        elif callable(raw):
            wrapped = self._wrap(raw, name, layer, ident, hook)
        else:
            self.absent.append(f"{cls.__module__}.{name}")
            return
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw))

    def install_function(self, module, attr: str, layer: str,
                         ident: Optional[Callable] = None,
                         hook: Optional[Callable] = None) -> None:
        """Wrap a module-level function and every ``repro`` module global bound to it."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        wrapped = self._wrap(fn, attr, layer, ident, hook)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ analysis
    def finished(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return [s for s in self.spans if s is not None]

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the durations of its direct children."""
        spans = self.finished()
        own = [end - start for _, _, start, end, _, _ in spans]
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_self_time(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.finished(), self.self_times()):
            totals[span[1]] += own
        return dict(totals)

    def write_chrome_trace(self, path: str) -> None:
        """Gzipped Chrome trace-event JSON (opens in Perfetto and chrome://tracing)."""
        spans = self.finished()
        origin = min((s[2] for s in spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for index, (name, layer, start, end, parent, ident) in enumerate(spans):
                args = {"span": index, "parent": parent}
                if ident is not None:
                    args["id"] = ident
                event = {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                         "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                         "args": args}
                fh.write(("," if index else "") + json.dumps(event) + "\n")
            fh.write("]}\n")
