"""In-memory spans around calls into the program's public functions.

Used inside the benchmark's own worker processes (``fit_worker.py``,
``ingest_worker.py``).  :meth:`Tracer.wrap` replaces an attribute with a
timing wrapper for the duration of one traced op and restores it afterwards,
so untraced ops run the program's code untouched.  Spans nest: a layer's
self time is its duration minus the time of the spans it caused, so the self
times of one op never count a nanosecond twice and ``op wall - sum(self)``
is the op's unattributed time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple


class Tracer:
    """Collects per-layer self time (seconds) for one op."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []  # child seconds of each open span
        self._restore: List[Tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                self.self_seconds[name] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed

        return traced

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Trace ``owner.attribute`` until :meth:`unwrap_all`.

        A classmethod is re-wrapped as one, so the patched attribute keeps
        the original's binding behaviour.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self.span(name, raw.__func__))
        else:
            patched = self.span(name, raw)
        self._restore.append((owner, attribute, raw))
        setattr(owner, attribute, patched)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attribute, raw = self._restore.pop()
            setattr(owner, attribute, raw)

    @contextmanager
    def active(self, targets: List[Tuple[Any, str, str]]) -> Iterator["Tracer"]:
        """Wrap every ``(owner, attribute, span name)`` for the block."""
        try:
            for owner, attribute, name in targets:
                self.wrap(owner, attribute, name)
            yield self
        finally:
            self.unwrap_all()

    def report(self, wall_seconds: float, unattributed: str) -> Dict[str, float]:
        """Self ms per span plus ``unattributed`` = wall - sum of self times."""
        spans = {name: seconds * 1000.0 for name, seconds in self.self_seconds.items()}
        spans[unattributed] = wall_seconds * 1000.0 - sum(spans.values())
        return spans
