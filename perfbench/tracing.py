"""In-memory span tracing applied from outside the traced package.

A ``Tracer`` replaces functions and methods with wrappers that record a
span per call: name, parent span, thread, start and end. Nothing in the
traced package is edited; ``restore()`` puts every original back.

Parentage follows the calling thread's stack of open spans. A span that
opens on a worker thread with an empty stack (an episode running in the
evaluation thread pool) takes the innermost open span of the thread that
created the tracer as its parent, which is the call that started the pool.
A span that opens directly inside an open span of the same name is folded
into it, so ``input_space_baseline -> evaluate`` counts as one protocol call.

A span's self time is its duration minus the union of its children's
intervals, clipped to the span; children on two threads may overlap.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "attrs")

    def __init__(self, id, parent, name, thread, start, end=None, attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.attrs = attrs or {}


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(s.start, s.end, children[s.id]) for s in spans
    }


class Tracer:
    """Records spans for wrapped callables until ``restore()``."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        if stack and stack[-1].name == name:
            span = stack[-1]
            for key, value in (attrs or {}).items():
                span.attrs[key] = span.attrs.get(key, 0) + value
            stack.append(span)
            return span
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1].id  # a pool worker: the call that started the pool
        else:
            parent = None
        ident = threading.get_ident()
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            span = Span(next(self._ids), parent, name, thread, time.perf_counter(), attrs=dict(attrs or {}))
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        stack = self._stack()
        stack.pop()
        if not stack or stack[-1] is not span:
            span.end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _wrapper(self, original, name, attrs):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = tracer.open(span_name, attrs(args, kwargs) if attrs else None)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def wrap_function(self, module, attr: str, name, attrs=None) -> int:
        """Wrap ``module.attr`` in every package module that binds it.

        Returns the number of bindings replaced. ``name`` and ``attrs`` may
        be callables of ``(args, kwargs)``.
        """
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, attrs)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    bound += 1
        return bound

    def wrap_method(self, cls, attr: str, name, attrs=None) -> None:
        """Wrap a method on the class that defines it."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, attrs))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
