"""In-memory spans recorded around calls into holobind, from the outside.

The benchmark never edits the package: it replaces the module attributes
through which the program calls (for example ``protocol.bind``) with
wrappers that record a span, and puts the originals back afterwards. A span
holds its name, start and end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so client and worker spans share one
time base), its parent span, a request id shared by the spans of one
operation, and a few scalar attributes. Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_SCALARS = (int, float, str, bool, type(None))


class TraceError(RuntimeError):
    """A span attribute held something other than a scalar."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "attrs", "child")

    def __init__(self, name, parent, rid, attrs=None):
        self.name = name
        self.parent = parent
        self.rid = rid
        self.attrs = attrs or {}
        self.child = 0.0  # time covered by this span's children
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def closed_span(name, start, end, **attrs) -> Span:
    """A span for an interval the benchmark timed itself (no wrapped call)."""
    span = Span(name, None, None, check_attrs(attrs))
    span.start, span.end = start, end
    return span


def check_attrs(attrs: dict) -> dict:
    """Refuse tensors or byte strings in span attributes (secret hygiene)."""
    for key, value in attrs.items():
        if not isinstance(value, _SCALARS) or isinstance(value, np.ndarray):
            raise TraceError(f"span attribute {key!r} holds a {type(value).__name__}")
    return attrs


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.local = threading.local()   # per-thread span stack and request id
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _open(self, name) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, getattr(self.local, "rid", None))
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.duration
        self.spans.append(span)

    def set_request(self, rid) -> None:
        """Request id given to the spans this thread opens from now on."""
        self.local.rid = rid

    def call(self, name, fn, args=(), kwargs=None, attrs_fn=None):
        span = self._open(name)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self._close(span)
        if attrs_fn is not None:
            span.attrs = check_attrs(attrs_fn(args, result))
        return result

    @contextmanager
    def span(self, name, rid=None):
        """A span around the benchmark's own code; ``rid`` starts a request."""
        if rid is not None:
            self.set_request(rid)
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr, name, attrs_fn=None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs_fn)

        return self.patch(owner, attr, traced)

    def patch(self, owner, attr, replacement):
        """Install a hand-written wrapper; ``restore`` undoes it."""
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        return original

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write spans as JSON lines; parents are referenced by line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "self": s.self_time,
                    "parent": index.get(id(s.parent)), "rid": s.rid, "attrs": s.attrs,
                }) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def by_name(spans) -> dict:
    """Group span records (Span objects or dumped dicts) by name."""
    groups = defaultdict(list)
    for s in spans:
        groups[s.name if isinstance(s, Span) else s["name"]].append(s)
    return groups


def durations(spans) -> list[float]:
    return [s.duration if isinstance(s, Span) else s["end"] - s["start"] for s in spans]
