"""``repro.stream`` — incremental corpus ingestion with online model refresh.

The continuous half of the reproduction: where :mod:`repro.cli` trains
once and :mod:`repro.serve` applies many, this package absorbs a document
*stream* and keeps the served model fresh — ingest → incremental
statistics merge → deterministic refresh → versioned bundle → atomic
publish → registry hot-reload, with no server restart:

* :mod:`repro.stream.log` — an append-only, sharded JSONL
  :class:`DocumentLog` with a manifest (doc ids, byte offsets, content
  hashes) giving O(delta), deduplicated, replayable ingestion;
* :mod:`repro.stream.counters` — mergeable per-shard Algorithm-1
  statistics (:class:`ShardStats`, :class:`AccumulatedCounts`): each shard
  is tokenized and counted exactly once at ingest and written to its own
  stats file, and a refresh merges the shard counters in log order and
  filters them into a result bit-identical to mining the whole snapshot;
* :mod:`repro.stream.updater` — :class:`TopicStream`, the on-disk state
  machine whose :meth:`~TopicStream.ingest` writes only the delta's files
  and whose :meth:`~TopicStream.refresh` re-fits segmentation + PhraseLDA
  deterministically over the snapshot (loading only the stats files its
  process has not cached yet) and atomically publishes a versioned bundle
  at ``models/current.npz``;
* :mod:`repro.stream.supervisor` — :class:`StreamSupervisor`, the
  background worker that watches the log and runs refreshes off the
  request path while a live server keeps answering from the previous
  version.

Drive it from the shell with ``repro ingest`` / ``repro refresh`` /
``repro serve --stream`` (see ``docs/streaming.md``).
"""

from repro.stream.counters import AccumulatedCounts, ShardStats, replay_iterations
from repro.stream.log import AppendResult, DocumentLog, StreamLogError
from repro.stream.supervisor import StreamSupervisor
from repro.stream.updater import (
    IngestReport,
    RefreshReport,
    StatsCache,
    StreamConfig,
    StreamError,
    TopicStream,
)

__all__ = [
    "AccumulatedCounts",
    "AppendResult",
    "DocumentLog",
    "IngestReport",
    "RefreshReport",
    "ShardStats",
    "StatsCache",
    "StreamConfig",
    "StreamError",
    "StreamLogError",
    "StreamSupervisor",
    "TopicStream",
    "replay_iterations",
]
