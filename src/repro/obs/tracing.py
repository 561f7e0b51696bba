"""Request ids and per-request span timing for the serving stack.

Every HTTP request gets a request id — taken from the client's
``X-Request-Id`` header when it passes :func:`sanitize_request_id`,
generated otherwise — that travels with the request through the
micro-batcher, the model registry, and batched fold-in, and is returned in
the ``X-Request-Id`` response header (plus the ``/v1/infer`` JSON body).

Along the way each hop records its span into a :class:`RequestTrace`:
``request_read`` (request line → validated ``/v1/infer`` request),
``queue_wait`` (submit → batch execution start), ``batch_assembly``
(partition + seed derivation), ``model_load`` (registry fetch, usually a
cache hit), ``segmentation`` and ``fold_in`` (the two halves of
``infer_texts_grouped``) and ``reply`` (encoding the ``/v1/infer`` reply
and writing it to the socket).  Span durations feed per-span histograms in the
metrics shards — keyed by span name only, never by request id, so metric
cardinality stays fixed — while the per-request breakdown goes to a
structured JSON log line when the request exceeds the configured
slow-request threshold.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Canonical span names, in pipeline order (the docs' span glossary table
#: and the bench serving stage iterate this).
SPAN_NAMES = ("request_read", "queue_wait", "batch_assembly", "model_load",
              "segmentation", "fold_in", "reply")

#: Metric name for one span's histogram family.
SPAN_METRIC_TEMPLATE = "span_{name}_seconds"

_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def span_metric(name: str) -> str:
    """Return the shard/registry metric name for span ``name``."""
    return SPAN_METRIC_TEMPLATE.format(name=name)


def new_request_id() -> str:
    """Generate a fresh request id (32 hex chars, collision-safe)."""
    return os.urandom(16).hex()


def sanitize_request_id(raw: Optional[str]) -> Optional[str]:
    """Return a client-supplied id if it is safe to echo, else ``None``.

    Ids are capped at 128 chars of ``[A-Za-z0-9._-]`` so a hostile header
    can neither inject log/header content nor blow up metric labels.
    """
    if raw is None:
        return None
    raw = raw.strip()
    if _REQUEST_ID_RE.match(raw):
        return raw
    return None


@dataclass
class RequestTrace:
    """Span timings for one request, carried from HTTP accept to response.

    ``spans`` accumulates seconds per span name; a span recorded twice
    (e.g. model_load across a retried batch) adds up, mirroring
    :class:`~repro.utils.timing.Stopwatch` semantics.
    """

    request_id: str
    route: str = ""
    started: float = field(default_factory=time.perf_counter)
    spans: Dict[str, float] = field(default_factory=dict)

    def record(self, span: str, seconds: float) -> None:
        """Add ``seconds`` to ``span``'s accumulated time."""
        self.spans[span] = self.spans.get(span, 0.0) + float(seconds)

    def elapsed(self) -> float:
        """Seconds since the trace was created."""
        return time.perf_counter() - self.started

    def as_dict(self) -> Dict[str, object]:
        """Loggable view: id, route, total, and per-span milliseconds."""
        return {
            "request_id": self.request_id,
            "route": self.route,
            "total_ms": round(self.elapsed() * 1000.0, 3),
            "spans_ms": {name: round(seconds * 1000.0, 3)
                         for name, seconds in self.spans.items()},
        }
