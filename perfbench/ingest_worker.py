"""System-under-test ingester of the ``ingest-serve`` workload.

Usage: ``python ingest_worker.py INPUTS.json STREAM_DIR`` with ``src/`` on
``PYTHONPATH``.  A long-lived writer process, as a deployment feeding
``repro serve --stream`` would run one.  Commands arrive as JSON lines on
stdin and each is answered with one JSON line on stdout:

``{"op": "create"}``
    ``TopicStream.create`` + ``ingest`` of the base documents.
``{"op": "ingest", "batch": i, "trace": bool}``
    ``TopicStream.ingest`` of batch ``i``; the reply carries the call's wall
    time (the write acknowledgement), the bytes the process wrote, and with
    ``trace`` the self time of the stream layers it went through.
``{"op": "refresh_copy", "repeats": n}``
    Copy the stream and force ``n`` refreshes on the copy, returning their
    ``RefreshReport`` stage timings: the in-server refreshes do not export
    stage timings, so this measures them at the final corpus size.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from pathlib import Path

from repro.stream import StreamConfig, TopicStream
from repro.stream import updater
from repro.stream.counters import AccumulatedCounts, ShardStats
from repro.stream.log import DocumentLog

from tracer import Tracer

INGEST_SPANS = [
    (DocumentLog, "append", "stream.log.append"),
    (DocumentLog, "read_shard", "stream.log.read_shard"),
    (updater, "encode_texts", "text.preprocess"),
    (ShardStats, "compute", "stream.counters.compute"),
    (ShardStats, "save", "stream.counters.save"),
    (AccumulatedCounts, "save", "stream.counters.save"),
    (updater, "write_json_atomic", "stream.counters.save"),
]


def bytes_written() -> int:
    """Bytes this process has passed to ``write``-family syscalls."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("no wchar in /proc/self/io")


def ingest(stream: TopicStream, texts, trace: bool) -> dict:
    tracer = Tracer()
    written = bytes_written()
    start = time.perf_counter()
    with tracer.active(INGEST_SPANS if trace else []):
        report = stream.ingest(texts, source="perfbench")
    wall = time.perf_counter() - start
    reply = {"wall_s": wall, "bytes_written": bytes_written() - written,
             "n_documents": report.n_documents, "n_duplicates": report.n_duplicates,
             "n_tokens": report.n_tokens}
    if trace:
        reply["spans_ms"] = tracer.report(wall, "stream.ingest.unattributed")
    return reply


def refresh_copy(root: Path, repeats: int) -> dict:
    copy = root.with_name(root.name + "-refresh-copy")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(root, copy)
    try:
        reports = [TopicStream.open(copy).refresh(force=True) for _ in range(repeats)]
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return {"refreshes": [{"seconds": r.seconds, "timings": r.timings,
                           "n_documents": r.n_documents} for r in reports]}


def main() -> int:
    inputs_path, root = sys.argv[1], Path(sys.argv[2])
    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    protocol = sys.stdout
    sys.stdout = sys.stderr  # only protocol replies go to the real stdout
    stream = None
    for line in sys.stdin:
        command = json.loads(line)
        try:
            if command["op"] == "create":
                stream = TopicStream.create(root, StreamConfig(**inputs["config"]))
                reply = ingest(stream, inputs["base"], False)
            elif command["op"] == "ingest":
                reply = ingest(stream, inputs["batches"][command["batch"]], command["trace"])
            elif command["op"] == "refresh_copy":
                reply = refresh_copy(root, command["repeats"])
            else:
                reply = {"error": f"unknown op {command['op']!r}"}
        except Exception:
            reply = {"error": traceback.format_exc()}
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
