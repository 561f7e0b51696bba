"""Typed request/response schemas of the ``/v1/*`` serving API.

One source of truth for the JSON shapes that used to live as ad-hoc dict
literals inside ``serve/http.py`` (building responses) and
``serve/client.py`` (building requests).  With a fleet of worker
processes answering one port, every worker **must** serialize identically
— so both sides now go through the frozen dataclasses here:

* the HTTP handlers parse bodies with ``*.from_payload`` (validation
  errors surface as :class:`SchemaError`, rendered as HTTP 400) and
  serialize replies with ``*.to_payload`` — except ``/v1/infer``, the hot
  path, whose :meth:`InferResponse.encode` writes the same bytes
  ``json.dumps`` would without building the payload;
* :class:`~repro.serve.client.ServeClient` builds its POST bodies from
  the same request dataclasses, so a client request can never drift from
  what the handlers validate.

The wire format is unchanged from PR 3–5 (plain JSON objects); these
types only pin it.  ``/v1/models`` and ``/healthz`` replies additionally
carry the answering worker's ``worker_id`` plus per-entry
resident-version info (``resident_signature``/``resident_version``), so a
fleet observer can tell *which* worker answered and which bundle version
that worker currently has swapped in.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.config import DEFAULT_ITERATIONS, DEFAULT_SEED

SEED_RANGE = (0, 2**63 - 1)
ITERATIONS_RANGE = (1, 10_000)
TOP_RANGE = (1, 1_000)


class SchemaError(ValueError):
    """A request payload that does not match the API schema.

    Attributes
    ----------
    status:
        The HTTP status the server answers with (always in the 4xx range).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def int_field(payload: Dict[str, Any], name: str, default: int,
              bounds: Tuple[int, int]) -> int:
    """Read an optional bounded integer field, rejecting bools and floats."""
    value = payload.get(name, default)
    minimum, maximum = bounds
    if not isinstance(value, int) or isinstance(value, bool) \
            or not minimum <= value <= maximum:
        raise SchemaError(
            f"{name!r} must be an integer in [{minimum}, {maximum}]")
    return value


def documents_field(payload: Dict[str, Any]) -> Tuple[str, ...]:
    """Read the mandatory ``documents`` list-of-strings field."""
    documents = payload.get("documents")
    if not isinstance(documents, list) or not documents \
            or not all(isinstance(doc, str) for doc in documents):
        raise SchemaError("'documents' must be a non-empty list of strings")
    return tuple(documents)


def model_field(payload: Dict[str, Any]) -> Optional[str]:
    """Read the optional ``model`` field (``None`` = server default)."""
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise SchemaError("'model' must be a string")
    return model


# -- requests --------------------------------------------------------------------------
@dataclass(frozen=True)
class InferRequest:
    """``POST /v1/infer`` body: fold documents into a model."""

    documents: Tuple[str, ...]
    model: Optional[str] = None
    seed: int = DEFAULT_SEED
    iterations: Optional[int] = None
    top: int = 3

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     default_iterations: int = DEFAULT_ITERATIONS) \
            -> "InferRequest":
        """Validate a decoded JSON body into a request (or raise
        :class:`SchemaError`); absent ``iterations`` resolves to the
        server's ``default_iterations``."""
        return cls(
            documents=documents_field(payload),
            model=model_field(payload),
            seed=int_field(payload, "seed", DEFAULT_SEED, SEED_RANGE),
            iterations=int_field(payload, "iterations", default_iterations,
                                 ITERATIONS_RANGE),
            top=int_field(payload, "top", 3, TOP_RANGE))

    def to_payload(self) -> Dict[str, Any]:
        """The JSON body the client POSTs (omits unset optionals)."""
        payload: Dict[str, Any] = {"documents": list(self.documents),
                                   "seed": self.seed, "top": self.top}
        if self.model is not None:
            payload["model"] = self.model
        if self.iterations is not None:
            payload["iterations"] = self.iterations
        return payload


@dataclass(frozen=True)
class SegmentRequest:
    """``POST /v1/segment`` body: frozen-table segmentation, no fold-in."""

    documents: Tuple[str, ...]
    model: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SegmentRequest":
        """Validate a decoded JSON body (or raise :class:`SchemaError`)."""
        return cls(documents=documents_field(payload),
                   model=model_field(payload))

    def to_payload(self) -> Dict[str, Any]:
        """The JSON body the client POSTs (omits unset optionals)."""
        payload: Dict[str, Any] = {"documents": list(self.documents)}
        if self.model is not None:
            payload["model"] = self.model
        return payload


# -- responses -------------------------------------------------------------------------
_INFINITY = float("inf")


class FloatTexts:
    """A bounded memo from a float to the text ``json.dumps`` writes for it.

    θ̂ entries are ratios of small integer counts plus the prior, so few
    distinct values recur across replies, and ``float.__repr__`` (most of
    the cost of encoding a reply) runs once per distinct value.  The memo
    resets after :attr:`MEMO_LIMIT` distinct values, so unusual replies
    cannot grow it without bound.  Zeros are never memoised: ``0.0 ==
    -0.0`` would share an entry, but they print differently.
    """

    #: Distinct floats memoised before the memo resets.
    MEMO_LIMIT = 1024

    def __init__(self) -> None:
        self._memo: Dict[float, str] = {}

    def texts(self, values: Sequence[float]) -> List[str]:
        """Each of ``values`` as ``json.dumps`` writes it."""
        memo = self._memo
        return [memo.get(value) or self._miss(value) for value in values]

    def _miss(self, value: float) -> str:
        if value != value:
            text = "NaN"
        elif value in (_INFINITY, -_INFINITY):
            text = "Infinity" if value > 0 else "-Infinity"
        else:
            text = float.__repr__(value)
        if value:
            if len(self._memo) >= self.MEMO_LIMIT:
                self._memo.clear()
            self._memo[value] = text
        return text


@dataclass(frozen=True, eq=False)
class InferResponse:
    """``POST /v1/infer`` reply: per-document topic mixtures.

    Row ``d`` of ``theta`` and entry ``d`` of ``n_phrases`` and
    ``n_unknown_tokens`` describe document ``d``; each document's
    ``top_topics`` are its ``top`` most probable ``[topic, probability]``
    pairs.  ``request_id`` mirrors the ``X-Request-Id`` response header
    into the body, so a client that logs replies (rather than headers)
    still has the handle to correlate with server-side span metrics and
    logs.
    """

    model: str
    n_topics: int
    iterations: int
    seed: int
    theta: np.ndarray
    n_phrases: Sequence[int]
    n_unknown_tokens: Sequence[int]
    top: int = 3
    request_id: Optional[str] = None

    @classmethod
    def from_result(cls, model: str, result: Any, request: InferRequest,
                    request_id: Optional[str] = None) -> "InferResponse":
        """Build from a batcher :class:`~repro.core.infer.InferenceResult`."""
        iterations = request.iterations if request.iterations is not None \
            else DEFAULT_ITERATIONS
        return cls(model=model, n_topics=result.n_topics,
                   iterations=iterations, seed=request.seed,
                   theta=result.theta, n_phrases=result.n_phrases,
                   n_unknown_tokens=result.n_unknown_tokens,
                   top=request.top, request_id=request_id)

    def encode(self, floats: FloatTexts) -> bytes:
        """The reply body: the bytes ``json.dumps(payload) + "\\n"`` gives
        for the JSON object below, written directly, its floats through
        the memo ``floats``.

        ``{"model", "n_topics", "iterations", "seed", "documents": [{"theta",
        "top_topics", "n_phrases", "n_unknown_tokens"}, ...]}``, plus
        ``"request_id"`` when set.  ``top_topics`` lists topics by
        descending probability, ties in ``numpy.argsort`` order.
        """
        texts = [floats.texts(row) for row in self.theta.tolist()]
        best = np.argsort(-self.theta, axis=1)[:, :self.top].tolist()
        documents = ", ".join([
            '{"theta": [%s], "top_topics": [%s], "n_phrases": %d, '
            '"n_unknown_tokens": %d}' % (
                ", ".join(row), ", ".join(["[%d, %s]" % (k, row[k])
                                           for k in topics]),
                n_phrases, n_unknown)
            for row, topics, n_phrases, n_unknown in zip(
                texts, best, self.n_phrases, self.n_unknown_tokens)])
        request_id = "" if self.request_id is None else \
            ', "request_id": ' + encode_basestring_ascii(self.request_id)
        return ('{"model": %s, "n_topics": %d, "iterations": %d, "seed": %d, '
                '"documents": [%s]%s}\n' % (
                    encode_basestring_ascii(self.model), self.n_topics,
                    self.iterations, self.seed, documents,
                    request_id)).encode("ascii")


@dataclass(frozen=True)
class SegmentedDocument:
    """One document's entry in a :class:`SegmentResponse`."""

    phrases: Tuple[str, ...]
    surface_phrases: Tuple[str, ...]
    n_unknown_tokens: int

    def to_payload(self) -> Dict[str, Any]:
        """The JSON object serialized into the response."""
        return {"phrases": list(self.phrases),
                "surface_phrases": list(self.surface_phrases),
                "n_unknown_tokens": self.n_unknown_tokens}


@dataclass(frozen=True)
class SegmentResponse:
    """``POST /v1/segment`` reply: phrase segmentations per document."""

    model: str
    documents: Tuple[SegmentedDocument, ...]

    def to_payload(self) -> Dict[str, Any]:
        """The JSON object serialized onto the wire."""
        return {"model": self.model,
                "documents": [doc.to_payload() for doc in self.documents]}


@dataclass(frozen=True)
class TopicEntry:
    """One topic's row in a :class:`TopicsResponse`."""

    topic: int
    unigrams: Tuple[Any, ...]
    phrases: Tuple[Any, ...]

    def to_payload(self) -> Dict[str, Any]:
        """The JSON object serialized into the response."""
        return {"topic": self.topic, "unigrams": list(self.unigrams),
                "phrases": list(self.phrases)}


@dataclass(frozen=True)
class TopicsResponse:
    """``GET /v1/topics`` reply: per-topic unigram/phrase tables."""

    model: str
    n_topics: int
    topics: Tuple[TopicEntry, ...]

    def to_payload(self) -> Dict[str, Any]:
        """The JSON object serialized onto the wire."""
        return {"model": self.model, "n_topics": self.n_topics,
                "topics": [entry.to_payload() for entry in self.topics]}


@dataclass(frozen=True)
class HealthResponse:
    """``GET /healthz`` reply: liveness plus the answering worker's id.

    ``slo`` (present once metrics history exists) lists one verdict dict
    per declared SLO (:class:`~repro.obs.slo.SLOVerdict`), so degradation
    *reasons* travel with the liveness answer — the status stays ``ok``
    even mid-breach; consumers such as the rollout health gate decide
    whether a breach blocks them.
    """

    status: str
    models: Tuple[str, ...]
    loaded: Tuple[str, ...]
    uptime_seconds: float
    worker_id: int = 0
    slo: Optional[Tuple[Dict[str, Any], ...]] = None

    def to_payload(self) -> Dict[str, Any]:
        """The JSON object serialized onto the wire."""
        payload: Dict[str, Any] = {
            "status": self.status, "models": list(self.models),
            "loaded": list(self.loaded),
            "uptime_seconds": self.uptime_seconds,
            "worker_id": self.worker_id}
        if self.slo is not None:
            payload["slo"] = [dict(verdict) for verdict in self.slo]
        return payload


@dataclass(frozen=True)
class ModelsResponse:
    """``GET /v1/models`` reply: registry descriptions from one worker.

    Each entry is a registry description dict
    (:meth:`~repro.serve.registry.ModelRegistry.describe_all`) stamped
    with the answering worker's ``worker_id``; resident entries carry
    ``resident_signature``/``resident_version`` so observers can watch a
    published bundle land on every worker of a fleet independently.

    ``log`` (present only when the server publishes a document log over
    ``/v1/log/*``) reports the log's ``n_documents``/``n_shards`` so a
    replication observer can compute follower lag from ``/v1/models``
    alone.
    """

    models: Tuple[Dict[str, Any], ...]
    worker_id: int = 0
    log: Optional[Dict[str, Any]] = None

    def to_payload(self) -> Dict[str, Any]:
        """The JSON object serialized onto the wire."""
        payload: Dict[str, Any] = {
            "models": [dict(entry, worker_id=self.worker_id)
                       for entry in self.models],
            "worker_id": self.worker_id}
        if self.log is not None:
            payload["log"] = dict(self.log)
        return payload


__all__ = [
    "FloatTexts",
    "HealthResponse",
    "InferRequest",
    "InferResponse",
    "ITERATIONS_RANGE",
    "ModelsResponse",
    "SchemaError",
    "SEED_RANGE",
    "SegmentRequest",
    "SegmentResponse",
    "SegmentedDocument",
    "TOP_RANGE",
    "TopicEntry",
    "TopicsResponse",
    "documents_field",
    "int_field",
    "model_field",
]
