"""``repro.serve`` — a batched-inference model server over artifact bundles.

The query path of the reproduction: where :mod:`repro.cli` trains models
and writes ``.npz`` bundles (the train-once half), this package serves
them to many concurrent clients (the apply-many half at traffic):

* :mod:`repro.serve.config` — one frozen :class:`ServeConfig` consumed
  uniformly by the CLI, the server, the batcher, and the fleet;
* :mod:`repro.serve.api` — the typed request/response schemas of the
  ``/v1/*`` endpoints, shared by the HTTP handlers and the client;
* :mod:`repro.serve.registry` — a :class:`ModelRegistry` that loads
  versioned bundles into immutable, shareable read-only
  :class:`LoadedModel` state, with hot-reload on file change and an LRU
  capacity cap;
* :mod:`repro.serve.batching` — a :class:`MicroBatcher` that coalesces
  concurrent inference requests into one grouped fold-in call, run by
  the submitting thread that leads the batch (no scheduler thread;
  per-request results stay bit-identical to solo runs under fixed
  per-request seeds);
* :mod:`repro.serve.http` — a dependency-free JSON-over-HTTP server
  (stdlib ``ThreadingHTTPServer``) exposing ``/healthz``, ``/metrics``,
  ``/v1/models``, ``/v1/infer``, ``/v1/segment``, and ``/v1/topics``;
* :mod:`repro.serve.fleet` — a :class:`ServeFleet` supervisor running N
  worker processes behind one ``SO_REUSEPORT`` address, sharing model
  memory through read-only mmaps of the same bundles;
* :mod:`repro.serve.client` — a thin stdlib client for those endpoints.

Start one from the shell with ``python -m repro serve --model model.npz``
(add ``--workers N`` for a fleet; see ``docs/serving.md`` for the full
endpoint reference).
"""

from repro.serve.api import SchemaError
from repro.serve.batching import MicroBatcher
from repro.serve.client import ServeClient, ServeError
from repro.serve.config import ServeConfig
from repro.serve.fleet import ServeFleet
from repro.serve.http import ENDPOINTS, ReproServer
from repro.serve.registry import LoadedModel, ModelRegistry

__all__ = [
    "ENDPOINTS",
    "LoadedModel",
    "MicroBatcher",
    "ModelRegistry",
    "ReproServer",
    "SchemaError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeFleet",
]
