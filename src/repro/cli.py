"""The ``repro`` command line: the full ToPMine workflow from the shell.

The train-once / apply-many pipeline::

    python -m repro mine   --dataset dblp-titles --n-docs 400 --output seg.npz
    python -m repro fit    --segmentation seg.npz --topics 5 --output model.npz
    python -m repro topics --model model.npz
    python -m repro infer  --model model.npz --dataset dblp-titles --n-docs 20
    python -m repro serve  --model model.npz --port 8765
    python -m repro bench  --smoke

and the continuous counterpart (:mod:`repro.stream`)::

    python -m repro ingest  --stream stream/ --input docs.txt --topics 5
    python -m repro refresh --stream stream/
    python -m repro serve   --stream stream/ --port 8765
    python -m repro models  stream/models

and the replication / rollout layer on top (:mod:`repro.replicate`)::

    python -m repro replicate --primary http://127.0.0.1:8765 --root replica/
    python -m repro rollout --version stream/models/model-v00002.npz \\
        --target a=http://127.0.0.1:8765=srv-a/current.npz \\
        --target b=http://127.0.0.1:8766=srv-b/current.npz

``mine`` runs the phrase-mining half (Algorithm 1 + significance-guided
segmentation) and writes a segmentation bundle; ``fit`` runs PhraseLDA over
a saved segmentation (or mines inline when given a dataset) and writes a
model bundle; ``topics`` renders a saved model's topic tables; ``infer``
folds unseen documents into a saved model and reports their topic mixtures;
``serve`` exposes saved bundles over batched JSON-over-HTTP
(:mod:`repro.serve`) — with ``--stream`` it also watches a stream and
hot-swaps each newly published version in with zero downtime, and
publishes the stream's document log over ``/v1/log/*`` for replicas;
``ingest`` appends documents to a stream's log and absorbs their mining
statistics incrementally; ``refresh`` re-fits over the accumulated
snapshot and publishes a versioned bundle; ``models`` lists the bundles
in a directory; ``replicate`` tails a primary's log into a local
byte-identical replica; ``rollout`` promotes a published version across
a serve fleet canary-first with health-gated rollback; ``status``
renders a one-shot fleet health table from a live scrape; ``slo``
renders the declared SLOs' burn-rate verdicts from a live server;
``bench`` forwards to :mod:`repro.bench`.

Every subcommand accepts ``--smoke`` for a seconds-scale CI configuration,
and either ``--dataset`` (a registered synthetic corpus) or ``--input``
(a UTF-8 text file, one document per line; ``--input -`` reads JSONL
documents from stdin, so ``repro`` composes with the serve client and
shell pipelines).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.frequent_phrases import MINING_ENGINES
from repro.core.infer import InferenceConfig
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig
from repro.core.topmine import ToPMine, ToPMineConfig
from repro.datasets.registry import available_datasets, load_dataset
from repro.io.artifacts import (
    ArtifactError,
    ModelBundle,
    SegmentationBundle,
    load_model,
    load_segmentation,
    save_bundle,
)
from repro.serve.config import ServeConfig
from repro.stream import StreamConfig, StreamError
from repro.topicmodel.gibbs import ENGINES, resolve_engine

# Smallest dblp-titles size at which the significance threshold produces a
# healthy number of multi-word phrase instances (so smoke runs exercise real
# cliques), while the whole mine→fit→infer chain stays seconds-scale.
_SMOKE_DOCS = 600
_SMOKE_TOPICS = 5
_SMOKE_ITERATIONS = 20
_SMOKE_INFER_DOCS = 20
_SMOKE_INFER_ITERATIONS = 10


def _error(message: object) -> int:
    """Report a user-facing failure on stderr; returns exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _smoke_default(value, smoke: bool, smoke_value, default=None):
    """Explicit values always win; ``--smoke`` only shrinks unset defaults."""
    if value is not None:
        return value
    return smoke_value if smoke else default


def _explicit(**values) -> dict:
    """Drop unset (``None``) values so a config dataclass's defaults apply."""
    return {key: value for key, value in values.items() if value is not None}


def _given(args: argparse.Namespace, actions: List[argparse.Action]) -> List[str]:
    """The flags among ``actions`` that were set on the command line."""
    return [action.option_strings[0] for action in actions
            if getattr(args, action.dest) is not None]


def _parse_jsonl_documents(lines: List[str], source: str) -> List[str]:
    """Decode JSONL document lines: each a JSON string or ``{"text": ...}``."""
    texts: List[str] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"error: {source} line {number} is not valid JSON ({exc}); "
                f"expected JSONL — one JSON string or object with a "
                f"\"text\" field per line")
        if isinstance(record, str):
            texts.append(record)
        elif isinstance(record, dict) and isinstance(record.get("text"), str):
            texts.append(record["text"])
        else:
            raise SystemExit(
                f"error: {source} line {number} must be a JSON string or an "
                f"object with a string \"text\" field, got: {line.strip()[:80]}")
    return texts


def _read_texts(args: argparse.Namespace, default_docs: int,
                seed_offset: int = 0) -> tuple[List[str], str]:
    """Resolve ``--input``/``--dataset`` into raw texts plus a source name."""
    if args.input:
        if args.input == "-":
            texts = _parse_jsonl_documents(sys.stdin.read().splitlines(),
                                           "stdin")
            if not texts:
                raise SystemExit("error: stdin contained no documents")
            return texts, "stdin"
        path = Path(args.input)
        if not path.exists():
            raise SystemExit(f"error: input file not found: {path}")
        texts = [line.strip() for line in
                 path.read_text(encoding="utf-8").splitlines() if line.strip()]
        if not texts:
            raise SystemExit(f"error: {path} contains no documents")
        return texts, path.stem
    dataset = args.dataset or "dblp-titles"
    generated = load_dataset(
        dataset, n_documents=_smoke_default(args.n_docs, args.smoke,
                                            default_docs),
        seed=args.seed + seed_offset)
    return generated.texts, dataset


# -- shared option groups -------------------------------------------------------------
# Each shared flag is declared once, here.  Flags a command resolves against
# a config dataclass stay None when unset (so explicit values can be told
# apart); their help quotes the dataclass the command falls back to.
def _add_source_options(parser: argparse.ArgumentParser) -> List[argparse.Action]:
    """Attach the shared text-source options (dataset or file)."""
    source = parser.add_argument_group("text source")
    return [
        source.add_argument("--dataset", choices=available_datasets(),
                            help="registered synthetic dataset "
                                 "(default: dblp-titles)"),
        source.add_argument("--input", metavar="FILE",
                            help="read raw documents from FILE instead "
                                 "(UTF-8, one document per line); pass '-' "
                                 "to read JSONL from stdin — one JSON string "
                                 "or object with a \"text\" field per line"),
        source.add_argument("--n-docs", type=int,
                            help="number of documents to generate "
                                 "(default: the dataset's own size)"),
    ]


def _add_mining_options(group, defaults) -> List[argparse.Action]:
    """Attach the phrase-mining flags of ``mine``, ``fit`` and ``ingest``."""
    return [
        group.add_argument("--min-support", type=int,
                           help="minimum phrase support ε (default: scaled "
                                "to the corpus size)"),
        group.add_argument("--threshold", type=float,
                           help=f"merge-significance threshold α "
                                f"(default: {defaults.significance_threshold})"),
        group.add_argument("--max-phrase-length", type=int,
                           help="cap on mined/constructed phrase length"),
    ]


def _mining_settings(args: argparse.Namespace) -> dict:
    """Config keywords of the mining flags.  An unset ``--min-support``
    stays ``None`` (scaled to the corpus), never ``ToPMineConfig``'s 10."""
    return dict(min_support=args.min_support,
                max_phrase_length=args.max_phrase_length,
                **_explicit(significance_threshold=args.threshold))


def _add_model_options(group, defaults) -> List[argparse.Action]:
    """Attach the PhraseLDA flags of ``fit`` and ``ingest``."""
    return [
        group.add_argument("--topics", "-k", type=int,
                           help=f"number of topics K (default: {defaults.n_topics}"
                                f"; {_SMOKE_TOPICS} with --smoke)"),
        group.add_argument("--iterations", type=int,
                           help=f"Gibbs sweeps (default: {defaults.n_iterations}"
                                f"; {_SMOKE_ITERATIONS} with --smoke)"),
        group.add_argument("--alpha", type=float,
                           help="document-topic prior (default: 50/K)"),
        group.add_argument("--beta", type=float,
                           help=f"topic-word prior (default: {defaults.beta})"),
    ]


def _model_flags_error(args: argparse.Namespace) -> Optional[str]:
    """The usage error in the model flags, if any: no version of a model
    with ``--topics`` < 1 or a non-finite or non-positive prior could be
    served, and a sweep count cannot be negative."""
    if args.topics is not None and args.topics < 1:
        return "--topics must be >= 1"
    if args.iterations is not None and args.iterations < 0:
        return "--iterations must be >= 0"
    for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        if value is not None and not (math.isfinite(value) and value > 0):
            return f"{flag} must be finite and > 0 (got {value})"
    return None


def _model_settings(args: argparse.Namespace) -> dict:
    """Config keywords of the model flags (``--smoke`` shrinks the model)."""
    return _explicit(
        n_topics=_smoke_default(args.topics, args.smoke, _SMOKE_TOPICS),
        n_iterations=_smoke_default(args.iterations, args.smoke,
                                    _SMOKE_ITERATIONS),
        alpha=args.alpha, beta=args.beta)


def _add_smoke_option(parser: argparse.ArgumentParser, scale: str) -> None:
    """Attach ``--smoke``: a seconds-scale CI configuration."""
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny CI configuration ({scale})")


def _add_remote_options(parser: argparse.ArgumentParser) -> None:
    """Attach the live-server query flags of ``status`` and ``slo``."""
    parser.add_argument("--url", default=f"http://{ServeConfig.host}:{ServeConfig.port}",
                        help="server base URL (default: %(default)s)")
    parser.add_argument("--timeout", type=float, default=5.0,
                        help="per-request timeout in seconds (default: %(default)g)")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of tables")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ToPMine end to end: mine phrases, fit PhraseLDA, "
                    "save model bundles, and fold in unseen documents.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    mine = sub.add_parser(
        "mine", help="run phrase mining + segmentation, save a segmentation bundle",
        description="Run the phrase-mining half of ToPMine (Algorithm 1 and "
                    "significance-guided segmentation) and save the result "
                    "as a reusable segmentation bundle.")
    _add_source_options(mine)
    _add_mining_options(mine, ToPMineConfig)
    mine.add_argument("--engine", dest="mining_engine",
                      default=ToPMineConfig.mining_engine,
                      choices=MINING_ENGINES,
                      help="mining/segmentation engine (default: %(default)s "
                           "— the numpy miner with the C segmenter, or with "
                           "the reference segmenter without a compiler; "
                           "numpy selects the same pair; all engines are "
                           "bit-identical)")
    mine.add_argument("--seed", type=int, default=7,
                      help="dataset generation seed (default: 7)")
    mine.add_argument("--output", "-o", metavar="PATH", required=True,
                      help="where to write the segmentation bundle (.npz)")
    _add_smoke_option(mine, f"{_SMOKE_DOCS} documents")
    mine.set_defaults(func=cmd_mine)

    fit = sub.add_parser(
        "fit", help="fit PhraseLDA over a segmentation, save a model bundle",
        description="Fit PhraseLDA (collapsed Gibbs with phrase cliques) "
                    "over a saved segmentation bundle — or mine inline from "
                    "a dataset/file — and save the fitted model bundle.")
    fit.add_argument("--segmentation", metavar="PATH",
                     help="segmentation bundle written by `repro mine` "
                          "(omit to mine inline from the text source)")
    inline = _add_source_options(fit) + _add_mining_options(
        fit.add_argument_group("inline mining (without --segmentation)"),
        ToPMineConfig)
    _add_model_options(fit, PhraseLDAConfig)
    fit.add_argument("--engine", default="auto", choices=ENGINES,
                     help="sampling engine (default: auto — c, the compiled "
                          "kernel, or reference without a compiler)")
    fit.add_argument("--optimize-hyperparameters", action="store_true",
                     help="enable Minka fixed-point hyper-parameter updates")
    fit.add_argument("--seed", type=int, default=7,
                     help="sampler (and inline-mining) seed (default: 7)")
    fit.add_argument("--output", "-o", metavar="PATH", required=True,
                     help="where to write the model bundle (.npz)")
    _add_smoke_option(fit, f"{_SMOKE_DOCS} documents, {_SMOKE_TOPICS} "
                           f"topics, {_SMOKE_ITERATIONS} sweeps")
    fit.set_defaults(func=cmd_fit, inline_mining_flags=inline)

    topics = sub.add_parser(
        "topics", help="render a saved model's topic tables",
        description="Load a model bundle and print the per-topic unigram "
                    "and topical-phrase tables (paper Tables 1, 4-6).")
    topics.add_argument("--model", metavar="PATH", required=True,
                        help="model bundle written by `repro fit`")
    topics.add_argument("--n", type=int, default=10,
                        help="rows per topic (default: 10)")
    topics.add_argument("--title", default=None, help="table title")
    topics.set_defaults(func=cmd_topics)

    infer = sub.add_parser(
        "infer", help="fold unseen documents into a saved model",
        description="Segment unseen documents with the model's frozen "
                    "phrase table and Gibbs-fold them in to estimate topic "
                    "mixtures, without retraining.")
    infer.add_argument("--model", metavar="PATH", default=None,
                       help="model bundle written by `repro fit` (with "
                            "--url: the server-side model NAME instead; "
                            "optional when the server hosts exactly one)")
    infer.add_argument("--url", metavar="URL", default=None,
                       help="fold in through a running `repro serve` at "
                            "URL instead of loading the bundle locally; "
                            "failures print the server's request id")
    _add_source_options(infer)
    infer.add_argument("--iterations", type=int, default=None,
                       help=f"fold-in Gibbs sweeps (default: "
                            f"{InferenceConfig.n_iterations}; "
                            f"{_SMOKE_INFER_ITERATIONS} with --smoke)")
    infer.add_argument("--engine", default="auto", choices=ENGINES,
                       help="fold-in engine: c (the compiled kernel; what "
                            "auto picks when it builds) or reference (the "
                            "readable loop)")
    infer.add_argument("--seed", type=int, default=7,
                       help="fold-in seed (default: 7)")
    infer.add_argument("--top", type=int, default=3,
                       help="top topics reported per document (default: 3)")
    infer.add_argument("--show", type=int, default=5,
                       help="documents echoed to stdout (default: 5)")
    infer.add_argument("--output", "-o", metavar="PATH", default=None,
                       help="write full topic mixtures as JSON to PATH")
    _add_smoke_option(infer, f"{_SMOKE_INFER_DOCS} documents, "
                             f"{_SMOKE_INFER_ITERATIONS} sweeps")
    infer.set_defaults(func=cmd_infer)

    ingest = sub.add_parser(
        "ingest", help="append documents to a topic stream (incremental)",
        description="Append a document batch to a stream's append-only "
                    "log (deduplicated by content hash) and absorb its "
                    "mining statistics incrementally — old documents are "
                    "never re-read. The first ingest creates the stream "
                    "and freezes its model configuration.")
    ingest.add_argument("--stream", metavar="DIR", required=True,
                        help="stream directory (created on first ingest)")
    _add_source_options(ingest)
    ingest.add_argument("--source", default=None,
                        help="provenance label stored on the shard "
                             "(default: the dataset/file name)")
    ingest.add_argument("--seed", type=int, default=7,
                        help="dataset generation seed (default: 7); vary it "
                             "per batch to ingest distinct documents")
    creation = ingest.add_argument_group(
        "stream configuration (first ingest only — frozen afterwards)")
    frozen = _add_model_options(creation, StreamConfig) + \
        _add_mining_options(creation, StreamConfig) + [
            creation.add_argument(
                "--engine", choices=MINING_ENGINES,
                help=f"mining/segmentation engine (default: "
                     f"{StreamConfig.mining_engine})"),
            creation.add_argument(
                "--lda-engine", choices=ENGINES,
                help=f"PhraseLDA engine for refreshes (default: "
                     f"{StreamConfig.lda_engine} — c, or reference without "
                     f"a compiler)"),
            creation.add_argument(
                "--model-seed", type=int,
                help=f"seed every refresh runs with (default: "
                     f"{StreamConfig.seed})"),
            creation.add_argument(
                "--refresh-every", type=int,
                help=f"refresh policy: minimum pending documents before a "
                     f"(non-forced) refresh (default: "
                     f"{StreamConfig.refresh_min_documents})"),
        ]
    ingest.add_argument("--refresh", action="store_true",
                        help="run a refresh after ingesting (honours the "
                             "refresh policy)")
    _add_smoke_option(ingest, f"{_SMOKE_DOCS} documents, {_SMOKE_TOPICS} "
                              f"topics, {_SMOKE_ITERATIONS} sweeps")
    ingest.set_defaults(func=cmd_ingest, frozen_flags=frozen)

    refresh = sub.add_parser(
        "refresh", help="re-fit a topic stream and publish a new version",
        description="Re-run segmentation + PhraseLDA deterministically over "
                    "the stream's accumulated snapshot (reusing the merged "
                    "mining statistics) and publish the fitted bundle as a "
                    "new version — models/current.npz is replaced "
                    "atomically, so live servers hot-swap with no restart.")
    refresh.add_argument("--stream", metavar="DIR", required=True,
                         help="stream directory")
    refresh.add_argument("--force", action="store_true",
                         help="refresh even when the policy is not "
                              "satisfied (still requires ingested documents)")
    refresh.set_defaults(func=cmd_refresh)

    models = sub.add_parser(
        "models", help="list the artifact bundles in a directory",
        description="Describe every *.npz bundle in DIRECTORY from its "
                    "embedded manifest (kind, schema version, size, mtime) "
                    "without loading any array payloads — e.g. to watch a "
                    "stream's models/ directory fill with published "
                    "versions.")
    models.add_argument("directory", nargs="?", default=".",
                        help="directory to scan (default: current)")
    models.add_argument("--json", action="store_true",
                        help="emit the listing as JSON instead of a table")
    models.set_defaults(func=cmd_models)

    # The serve flags keep their historical names; every default is read
    # from ServeConfig (--batch-delay-ms is ServeConfig.batch_delay in ms).
    serve = sub.add_parser(
        "serve", help="serve saved bundles over batched JSON-over-HTTP",
        description="Start the repro.serve model server: load bundle(s) "
                    "into a hot-reloading registry and answer /healthz, "
                    "/metrics, /v1/models, /v1/infer (micro-batched "
                    "fold-in), /v1/segment, and /v1/topics. With --stream, "
                    "also watch a topic stream and hot-swap each newly "
                    "published version in with zero downtime. With "
                    "--workers N, run a fleet of N worker processes behind "
                    "one SO_REUSEPORT address, sharing model memory "
                    "through read-only mmaps. Runs until interrupted "
                    "(Ctrl-C stops it cleanly).")
    serve.add_argument("--model", metavar="[NAME=]PATH", action="append",
                       default=[],
                       help="bundle to serve; repeatable. NAME defaults to "
                            "the file stem")
    serve.add_argument("--models-dir", metavar="DIR", default=None,
                       help="also serve every *.npz bundle in DIR "
                            "(named by file stem)")
    serve.add_argument("--stream", metavar="DIR", default=None,
                       help="serve a topic stream's published model "
                            "(DIR/models/current.npz, named after DIR) and "
                            "auto-refresh it in the background as new "
                            "documents are ingested")
    serve.add_argument("--stream-poll", type=float, metavar="SECONDS",
                       default=ServeConfig.stream_poll,
                       help="how often the stream supervisor polls for "
                            "newly ingested documents (default: %(default)g)")
    serve.add_argument("--host", default=ServeConfig.host,
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=ServeConfig.port,
                       help="bind port; 0 picks a free one "
                            "(default: %(default)s)")
    serve.add_argument("--capacity", type=int,
                       default=ServeConfig.registry_capacity,
                       help="max bundles resident at once; least-recently "
                            "used are evicted (default: %(default)s)")
    serve.add_argument("--max-batch", type=int,
                       default=ServeConfig.max_batch_size,
                       help="micro-batch size cap for /v1/infer "
                            "(default: %(default)s)")
    serve.add_argument("--batch-delay-ms", type=float,
                       default=ServeConfig.batch_delay * 1000.0,
                       help="micro-batch accumulation window in "
                            "milliseconds; 0 dispatches at once when idle "
                            "(default: %(default)g)")
    serve.add_argument("--iterations", type=int,
                       default=ServeConfig.default_iterations,
                       help="default fold-in sweeps per /v1/infer request "
                            "(default: %(default)s)")
    serve.add_argument("--workers", type=int, default=ServeConfig.workers,
                       help="worker processes serving the port via "
                            "SO_REUSEPORT; model arrays are mmap-shared "
                            "across them (default: %(default)s — "
                            "in-process server)")
    serve.add_argument("--metrics-dir", metavar="DIR",
                       default=ServeConfig.metrics_dir,
                       help="directory for per-worker metric shard files; "
                            "a fleet provisions a temporary one when unset, "
                            "pin it to survive supervisor restarts or to "
                            "scrape from other tooling")
    serve.add_argument("--slow-request-seconds", type=float,
                       metavar="SECONDS",
                       default=ServeConfig.slow_request_seconds,
                       help="log a structured JSON event (with request id "
                            "and per-span timings) for any request slower "
                            "than SECONDS (default: off)")
    serve.add_argument("--history-interval", type=float, metavar="SECONDS",
                       default=ServeConfig.history_interval_seconds,
                       help="seconds between metrics-history samples (the "
                            "frames SLO burn rates and `repro slo` are "
                            "evaluated over; default: %(default)g)")
    serve.add_argument("--profile-dir", metavar="DIR", default=None,
                       help="with --stream: profile every background "
                            "refresh and write its collapsed-stack "
                            "flamegraph text to DIR")
    serve.set_defaults(func=cmd_serve)

    status = sub.add_parser(
        "status", help="one-shot fleet + stream health from a live server",
        description="Scrape a running `repro serve` once (/healthz, "
                    "/metrics, /v1/models) and render a fleet health "
                    "table: per-worker and fleet-total request counters, "
                    "per-span latency, model publish/swap lag, and stream "
                    "ingest/refresh counters. Works against a single "
                    "server or a --workers fleet — any worker's scrape "
                    "describes the whole fleet.")
    _add_remote_options(status)
    status.add_argument("--slo", action="store_true",
                        help="include the SLO burn-rate table (requires "
                             "the server to record metrics history)")
    status.set_defaults(func=cmd_status)

    slo = sub.add_parser(
        "slo", help="burn-rate verdicts of the declared SLOs, from a live "
                    "server",
        description="Fetch /healthz from a running `repro serve` and "
                    "render each declared SLO's observed value, fast/slow "
                    "burn rates, and status — evaluated server-side over "
                    "the metrics history, so the server must run with a "
                    "metrics directory (any --workers fleet does) and "
                    "have recorded at least two history frames. Exits 1 "
                    "when any SLO is in breach.")
    _add_remote_options(slo)
    slo.add_argument("--watch", action="store_true",
                     help="re-render every --interval seconds until Ctrl-C")
    slo.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="refresh period with --watch (default: 2)")
    slo.set_defaults(func=cmd_slo)

    replicate = sub.add_parser(
        "replicate", help="tail a primary's document log into a local replica",
        description="Run a log follower against a `repro serve` primary "
                    "that publishes its log (serve --stream does): fetch "
                    "the shard manifest over HTTP, ship every missing "
                    "shard as SHA-256-verified byte ranges, and commit "
                    "them into a local byte-identical document log. "
                    "Resumes from partial files after any interruption. "
                    "With --once, runs a single sync cycle and exits; "
                    "otherwise follows until Ctrl-C or SIGTERM.")
    replicate.add_argument("--primary", metavar="URL", required=True,
                           help="base URL of the primary server")
    replicate.add_argument("--root", metavar="DIR", required=True,
                           help="local replica log directory (created when "
                                "missing)")
    replicate.add_argument("--once", action="store_true",
                           help="run one sync cycle and exit (exit code 1 "
                                "when not yet converged)")
    replicate.add_argument("--poll", type=float, default=1.0,
                           metavar="SECONDS",
                           help="seconds between sync cycles when "
                                "following (default: 1)")
    replicate.add_argument("--timeout", type=float, default=10.0,
                           metavar="SECONDS",
                           help="per-attempt HTTP timeout (default: 10)")
    replicate.add_argument("--chunk-bytes", type=int, default=1 << 18,
                           metavar="BYTES",
                           help="max bytes per shard-range fetch "
                                "(default: %(default)s)")
    replicate.add_argument("--json", action="store_true",
                           help="with --once: emit the sync report as JSON")
    replicate.set_defaults(func=cmd_replicate)

    rollout = sub.add_parser(
        "rollout", help="promote a model version across a fleet, canary-first",
        description="Promote a published model-vNNNNN.npz across serve "
                    "targets: publish to the canary first, gate on its "
                    "health (/healthz + /v1/models + a live /v1/infer "
                    "probe), then fan out to the rest. Any failure rolls "
                    "every promoted target back to its previous bundle "
                    "and re-verifies the fleet. Exits nonzero unless "
                    "every target ended healthy on the new version.")
    rollout.add_argument("--version", metavar="PATH", required=True,
                         help="the version bundle to promote")
    rollout.add_argument("--target", metavar="NAME=URL=PUBLISH_PATH",
                         action="append", required=True,
                         help="a serve target: its label, base URL, and "
                              "the bundle path its registry watches; "
                              "repeatable")
    rollout.add_argument("--canary", metavar="NAME", default=None,
                         help="target promoted and verified first "
                              "(default: the first --target)")
    rollout.add_argument("--health-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="per-target budget to pass the health gate "
                              "(default: 30)")
    rollout.add_argument("--poll-interval", type=float, default=0.1,
                         metavar="SECONDS",
                         help="delay between health probes (default: 0.1)")
    rollout.add_argument("--slo-gate", action="store_true",
                         help="also fail a target's health gate while its "
                              "/healthz reports an SLO in breach (targets "
                              "without metrics history pass unchanged)")
    rollout.add_argument("--json", action="store_true",
                         help="emit the rollout report as JSON")
    rollout.set_defaults(func=cmd_rollout)

    # `bench` is listed here purely for --help discoverability; main()
    # intercepts it before parsing and forwards the raw argument tail to
    # repro.bench (whose parser owns all bench options, including --help).
    sub.add_parser(
        "bench", help="run the benchmark harness (repro.bench)",
        description="Forward all remaining arguments to `python -m repro.bench`.",
        add_help=False)

    return parser


# -- subcommand implementations -------------------------------------------------------
@contextlib.contextmanager
def _until_interrupted():
    """Leave the block quietly on Ctrl-C *or* SIGTERM (raised as
    :class:`KeyboardInterrupt` inside it): background jobs of
    non-interactive shells ignore SIGINT, so ``kill`` must stop cleanly too."""
    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _interrupt)
    try:
        yield
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)


def _mine_segmentation(args: argparse.Namespace) -> SegmentationBundle:
    """Shared mining path of ``mine`` and ``fit``'s inline-mining branch:
    read the text source, run Algorithm 1 + segmentation, bundle the result."""
    texts, source = _read_texts(args, default_docs=_SMOKE_DOCS)
    config = ToPMineConfig(seed=args.seed, **_mining_settings(args), **_explicit(
        mining_engine=getattr(args, "mining_engine", None)))
    pipeline = ToPMine(config)
    corpus = pipeline.preprocess(texts, name=source)
    mining = pipeline.mine_phrases(corpus)
    segmented = pipeline.segment(corpus, mining)
    print(f"mined {source}: {len(corpus)} documents, {corpus.num_tokens} tokens, "
          f"vocabulary {corpus.vocabulary_size}")
    print(f"frequent phrases (>=2 words): {mining.num_frequent_phrases()} "
          f"at min_support={mining.min_support}")
    print(f"segmentation: {segmented.num_phrases} phrase instances "
          f"({sum(d.num_multiword_phrases for d in segmented)} multi-word)")
    return SegmentationBundle(mining=mining, segmented=segmented,
                              construction=config.construction_config(),
                              preprocess=config.preprocess,
                              metadata={"source": source, "seed": args.seed})


def cmd_mine(args: argparse.Namespace) -> int:
    """``repro mine``: phrase mining + segmentation → segmentation bundle."""
    bundle = _mine_segmentation(args)
    path = save_bundle(args.output, bundle)
    print(f"wrote segmentation bundle to {path}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    """``repro fit``: PhraseLDA over a (saved or inline) segmentation → model."""
    problem = _model_flags_error(args)
    if problem:
        return _error(problem)
    if args.segmentation:
        conflicting = _given(args, args.inline_mining_flags)
        if conflicting:
            return _error(f"--segmentation already provides the mined "
                          f"corpus; remove {', '.join(conflicting)} (those "
                          f"only apply to inline mining)")
        seg = load_segmentation(args.segmentation)
    else:
        seg = _mine_segmentation(args)
    source = seg.segmented.name

    try:
        engine = resolve_engine(args.engine)
    except RuntimeError as exc:  # e.g. --engine c without a working compiler
        return _error(exc)
    lda_config = PhraseLDAConfig(
        optimize_hyperparameters=args.optimize_hyperparameters,
        seed=args.seed, engine=engine, **_model_settings(args))
    model = PhraseLDA(lda_config)
    state = model.fit(seg.segmented)

    n_iterations = lda_config.n_iterations
    bundle = ModelBundle.from_fit(
        seg.segmented, state, seg.mining,
        construction=seg.construction, preprocess=seg.preprocess,
        metadata={"source": source, "seed": args.seed,
                  "engine": engine, "n_iterations": n_iterations})
    path = save_bundle(args.output, bundle)
    print(f"fitted PhraseLDA: K={lda_config.n_topics}, {n_iterations} sweeps, "
          f"engine={engine}, corpus={source}")
    print(bundle.render_topics(n_rows=5, title=source))
    print(f"wrote model bundle to {path}")
    return 0


def cmd_topics(args: argparse.Namespace) -> int:
    """``repro topics``: print a saved model's topic tables."""
    bundle = load_model(args.model)
    print(bundle.render_topics(n_rows=args.n, title=args.title))
    return 0


def _report_fold_in(args: argparse.Namespace, headline: str,
                    documents: List[dict], payload: dict) -> int:
    """Shared output of local and remote ``repro infer``: the headline, the
    first ``--show`` documents' top topics, and ``payload`` to ``--output``."""
    print(headline)
    show = max(0, args.show)
    for d, doc in enumerate(documents[:show]):
        tops = ", ".join(f"topic {k}: {p:.2f}" for k, p in doc["top_topics"])
        print(f"  doc {d}: {tops}  [{doc['n_phrases']} phrases, "
              f"{doc['n_unknown_tokens']} unknown tokens]")
    if len(documents) > show:
        print(f"  ... ({len(documents) - show} more)")
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote topic mixtures to {out}")
    return 0


def _infer_remote(args: argparse.Namespace, n_iterations: int) -> int:
    """``repro infer --url``: fold in through a running ``repro serve``."""
    from repro.serve.client import ServeClient, ServeError

    texts, source = _read_texts(args, default_docs=_SMOKE_INFER_DOCS,
                                seed_offset=1)
    try:
        reply = ServeClient(args.url).infer(
            texts, model=args.model, seed=args.seed,
            iterations=n_iterations, top=args.top)
    except ServeError as exc:
        # The message already carries the server's X-Request-Id when one
        # was answered — the handle into server-side metrics and logs.
        return _error(exc)
    request_id = reply.get("request_id")
    handle = f", request {request_id}" if request_id else ""
    return _report_fold_in(
        args, f"folded in {len(reply['documents'])} documents from {source} "
              f"via {args.url} (model {reply['model']}, "
              f"{reply['iterations']} sweeps, K={reply['n_topics']}{handle})",
        reply["documents"], reply)


def cmd_infer(args: argparse.Namespace) -> int:
    """``repro infer``: fold unseen documents into a saved model."""
    n_iterations = _smoke_default(args.iterations, args.smoke,
                                  _SMOKE_INFER_ITERATIONS,
                                  InferenceConfig.n_iterations)
    if args.url:
        return _infer_remote(args, n_iterations)
    if not args.model:
        return _error("--model is required without --url")
    bundle = load_model(args.model)
    texts, source = _read_texts(args, default_docs=_SMOKE_INFER_DOCS,
                                seed_offset=1)
    config = InferenceConfig(n_iterations=n_iterations, seed=args.seed,
                             engine=args.engine)
    result = bundle.inferencer().infer_texts(texts, config)
    documents = [{"top_topics": doc.top_topics(args.top),
                  "n_phrases": len(doc.phrases),
                  "n_unknown_tokens": doc.n_unknown_tokens}
                 for doc in result.documents]
    payload = {
        "model": str(args.model),
        "source": source,
        "n_topics": result.n_topics,
        "n_iterations": n_iterations,
        "documents": [
            {"theta": [round(float(p), 6) for p in doc.theta],
             "top_topics": [[k, round(p, 6)] for k, p in row["top_topics"]],
             "n_phrases": row["n_phrases"],
             "n_unknown_tokens": row["n_unknown_tokens"]}
            for doc, row in zip(result.documents, documents)],
    }
    return _report_fold_in(
        args, f"folded in {result.n_documents} documents from {source} "
              f"({n_iterations} sweeps, K={result.n_topics})",
        documents, payload)


def cmd_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: append a document batch to a topic stream."""
    from repro.stream import TopicStream

    texts, source = _read_texts(args, default_docs=_SMOKE_DOCS)
    if TopicStream.exists(args.stream):
        conflicting = _given(args, args.frozen_flags)
        if conflicting:
            return _error(f"stream {args.stream} already exists and its "
                          f"configuration is frozen; remove "
                          f"{', '.join(conflicting)} (they only apply to the "
                          f"first ingest)")
        stream = TopicStream.open(args.stream)
    else:
        # The flags given, over StreamConfig's defaults: frozen from here on.
        config = StreamConfig(
            source=args.source or source, **_model_settings(args),
            **_mining_settings(args), **_explicit(
                seed=args.model_seed, mining_engine=args.engine,
                lda_engine=args.lda_engine,
                refresh_min_documents=args.refresh_every))
        try:
            stream = TopicStream.create(args.stream, config)
        except StreamError as exc:  # e.g. --refresh-every 0 or --topics 0
            return _error(exc)
        print(f"created stream at {args.stream} "
              f"(K={config.n_topics}, {config.n_iterations} sweeps, "
              f"seed={config.seed})")

    report = stream.ingest(texts, source=args.source or source)
    if report.shard is None:
        print(f"ingested nothing: all {report.n_duplicates} document(s) "
              f"were already logged")
    else:
        print(f"ingested {report.n_documents} document(s) from {source} "
              f"into {report.shard} ({report.n_tokens} tokens, "
              f"{report.n_duplicates} duplicate(s) dropped, "
              f"vocabulary {report.vocabulary_size})")
    print(f"stream holds {stream.n_documents} document(s); "
          f"{report.pending_documents} pending since version "
          f"{stream.published_version}")
    if args.refresh:
        return _run_refresh(stream, force=False)
    return 0


def _run_refresh(stream, force: bool) -> int:
    """Shared refresh driver of ``repro refresh`` and ``ingest --refresh``."""
    report = stream.refresh(force=force)
    if report is None:
        print(f"refresh policy not satisfied: {stream.pending_documents} "
              f"pending document(s) < "
              f"{stream.config.refresh_min_documents} required "
              f"(use `repro refresh --force`)")
        return 0
    stages = ", ".join(f"{stage} {seconds:.2f}s"
                       for stage, seconds in report.timings.items())
    print(f"published version {report.version} over "
          f"{report.n_documents} document(s) in {report.seconds:.2f}s "
          f"({stages})")
    print(f"wrote {report.path}")
    print(f"published atomically to {report.current_path} "
          f"(live servers hot-swap on their next request)")
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    """``repro refresh``: re-fit a stream's model and publish a version."""
    from repro.stream import TopicStream

    return _run_refresh(TopicStream.open(args.stream), force=args.force)


def cmd_models(args: argparse.Namespace) -> int:
    """``repro models``: list the bundles in a directory from manifests."""
    import datetime

    from repro.io.artifacts import describe_directory

    entries = describe_directory(args.directory)
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"no .npz bundles in {args.directory}")
        return 0
    header = f"{'NAME':<24} {'KIND':<13} {'VER':>3} {'TOPICS':>6} " \
             f"{'SIZE':>9} {'MODIFIED':<19}"
    print(header)
    for entry in entries:
        if "error" in entry:
            print(f"{entry['name']:<24} !! {entry['error']}")
            continue
        mtime = datetime.datetime.fromtimestamp(entry["mtime"])
        topics = entry.get("n_topics")
        print(f"{entry['name']:<24} {entry['kind']:<13} "
              f"{entry['schema_version']:>3} "
              f"{'-' if topics is None else topics:>6} "
              f"{entry['size_bytes'] / 1024:>8.1f}K "
              f"{mtime:%Y-%m-%d %H:%M:%S}")
    return 0


def _serve_sources(args: argparse.Namespace) -> "dict[str, Path]":
    """Resolve the ``serve`` flags into an ordered name → bundle-path map.

    One resolution shared by the in-process server and the fleet (which
    ships paths — never loaded arrays — to its workers): stream first,
    then ``--models-dir``, then explicit ``--model`` specs, later names
    overriding earlier ones exactly like registry re-registration did.
    """
    sources: "dict[str, Path]" = {}
    if args.stream:
        from repro.stream import TopicStream

        stream = TopicStream.open(args.stream)
        if not stream.current_model_path.exists():
            if stream.n_documents == 0:
                raise ArtifactError(
                    f"stream {args.stream} has no documents yet; "
                    f"`repro ingest` some first")
            print("stream has no published model yet; "
                  "running the initial refresh...")
            _run_refresh(stream, force=True)
        stream_name = Path(args.stream).resolve().name or "stream"
        sources[stream_name] = stream.current_model_path
    if args.models_dir:
        root = Path(args.models_dir)
        if not root.is_dir():
            raise ArtifactError(f"model directory not found: {root}")
        for path in sorted(root.glob("*.npz")):
            sources[path.stem] = path
    for spec in args.model:
        # NAME=PATH only when the whole spec is not itself a file and the
        # prefix looks like a name — paths may legitimately contain '='
        # (e.g. sweep directories like runs/lr=0.1/model.npz).
        name, separator, path = spec.partition("=")
        if separator and not Path(spec).exists() and "/" not in name \
                and os.sep not in name:
            sources[name or Path(path).stem] = Path(path)
        else:
            sources[Path(spec).stem] = Path(spec)
    return sources


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the batched-inference model server until stopped.

    Stops cleanly on SIGINT (Ctrl-C) *and* SIGTERM.  With ``--workers N``
    (N > 1) the serving side runs as a
    :class:`~repro.serve.fleet.ServeFleet` of N processes behind one
    SO_REUSEPORT address; the stream supervisor (``--stream``) always
    stays in this parent process — the single writer of the fleet.
    """
    from repro.serve import ModelRegistry, ReproServer, ServeFleet

    # A stream primary publishes its document log so `repro replicate`
    # followers can tail it over /v1/log/*.
    log_root = str(Path(args.stream) / "log") if args.stream else None
    try:
        config = ServeConfig(host=args.host, port=args.port,
                             workers=max(1, args.workers),
                             max_batch_size=args.max_batch,
                             batch_delay=args.batch_delay_ms / 1000.0,
                             default_iterations=args.iterations,
                             registry_capacity=args.capacity,
                             stream_poll=args.stream_poll,
                             metrics_dir=args.metrics_dir,
                             history_interval_seconds=args.history_interval,
                             slow_request_seconds=args.slow_request_seconds,
                             log_root=log_root)
    except ValueError as exc:  # e.g. --port 70000, --max-batch 0
        return _error(exc)
    try:
        sources = _serve_sources(args)
    except StreamError as exc:
        return _error(exc)
    if not sources:
        return _error("nothing to serve; pass --model PATH and/or "
                      "--models-dir DIR")

    with contextlib.ExitStack() as running:
        if config.workers > 1:
            fleet = ServeFleet(config, sources)
            fleet.start()
            running.callback(fleet.stop)
            url = fleet.url
            metrics = None
            if args.stream:
                # The supervisor runs in this parent process, outside every
                # worker — give it a file-backed shard in the fleet's metrics
                # directory so its ingest/refresh series still appear in any
                # worker's /metrics scrape (labeled worker_id="stream").
                from repro.obs import ShardWriter, shard_path

                metrics = ShardWriter(
                    shard_path(fleet.config.metrics_dir, "stream"))
        else:
            fleet = None
            registry = ModelRegistry(capacity=config.registry_capacity)
            for name, path in sources.items():
                registry.register(name, path)
            server = ReproServer(registry, config)
            running.callback(server.close)
            url = server.url
            metrics = server.metrics
        if args.stream:
            from repro.stream import StreamSupervisor

            supervisor = StreamSupervisor(args.stream,
                                          poll_interval=config.stream_poll,
                                          metrics=metrics,
                                          profile_dir=args.profile_dir)
            supervisor.start()
            running.callback(supervisor.stop)
            print(f"watching stream {args.stream}: new ingests auto-refresh "
                  f"and hot-swap (poll every {config.stream_poll:g}s)")
        # Up before the "serving" line: whoever waits for it may SIGTERM next.
        running.enter_context(_until_interrupted())
        names = ", ".join(sorted(sources))
        if fleet is not None:
            print(f"serving {names} on {url} with {config.workers} workers "
                  f"(SO_REUSEPORT, mmap-shared bundles; max batch "
                  f"{config.max_batch_size}, window {args.batch_delay_ms}ms)")
        else:
            print(f"serving {names} on {url} "
                  f"(max batch {config.max_batch_size}, "
                  f"window {args.batch_delay_ms}ms)")
        endpoints = ("/healthz /metrics /debug/profile /v1/models /v1/infer "
                     "/v1/segment /v1/topics")
        if config.log_root:
            endpoints += " /v1/log/manifest /v1/log/shard/<name>"
        print(f"endpoints: {endpoints} — Ctrl-C (or SIGTERM) to stop")
        if fleet is not None:
            fleet.wait_until_ready()
            print(f"fleet ready: workers {fleet.alive_workers()} listening")
            threading.Event().wait()
        else:
            server.serve_forever()
    print("server stopped cleanly")
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    """``repro replicate``: tail a primary's log into a local replica."""
    from repro.replicate import LogFollower, ReplicationError
    from repro.serve.client import ServeError

    def on_shard(shard) -> None:
        print(f"shipped {shard.name}: {shard.n_documents} document(s) "
              f"starting at doc {shard.first_doc_id}")

    follower = LogFollower(args.primary, args.root,
                           chunk_bytes=args.chunk_bytes,
                           timeout=args.timeout, on_shard=on_shard)
    if args.once:
        try:
            report = follower.sync_once()
        except (ReplicationError, ServeError) as exc:
            return _error(exc)
        if args.json:
            print(json.dumps({"primary": args.primary, "root": str(args.root),
                              **dataclasses.asdict(report)},
                             indent=2, sort_keys=True))
        else:
            print(f"synced {args.root} from {args.primary}: "
                  f"+{report.n_shards_fetched} shard(s), "
                  f"+{report.n_documents_fetched} document(s) "
                  f"({report.n_bytes_fetched} bytes); "
                  f"lag {report.lag_documents} of "
                  f"{report.primary_documents} document(s), "
                  f"{'converged' if report.converged else 'NOT converged'}")
        return 0 if report.converged else 1

    def on_cycle(report) -> None:
        if report.n_shards_fetched:
            print(f"caught up: +{report.n_documents_fetched} document(s), "
                  f"lag {report.lag_documents}")

    with _until_interrupted():
        print(f"replicating {args.primary} -> {args.root} "
              f"(poll every {args.poll:g}s) — Ctrl-C (or SIGTERM) to stop")
        follower.follow(poll_interval=args.poll, on_cycle=on_cycle)
    print("replica stopped cleanly")
    return 0


def cmd_rollout(args: argparse.Namespace) -> int:
    """``repro rollout``: canary-first, health-gated fleet promotion."""
    from repro.replicate import (
        RolloutCoordinator,
        RolloutError,
        RolloutTarget,
    )

    try:
        targets = [RolloutTarget.parse(spec) for spec in args.target]
        coordinator = RolloutCoordinator(
            targets, canary=args.canary,
            health_timeout=args.health_timeout,
            poll_interval=args.poll_interval,
            slo_gate=args.slo_gate)
    except ValueError as exc:
        return _error(exc)
    try:
        report = coordinator.rollout(args.version)
    except RolloutError as exc:
        return _error(exc)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.succeeded else 1
    for entry in report.targets:
        outcome = "healthy" if entry.healthy else f"FAILED: {entry.error}"
        rolled = " (rolled back)" if entry.rolled_back else ""
        print(f"  {entry.name}: {outcome} in {entry.seconds:.2f}s{rolled}")
    print(f"rollout {report.state}: {args.version}")
    return 0 if report.succeeded else 1


def _status_report(health: dict, families: dict, models: list) -> dict:
    """Digest one scrape (+/v1/models) into the ``repro status`` report."""
    from repro.obs import SPAN_NAMES, sample_value, span_metric

    def fleet_total(name: str) -> float:
        value = sample_value(families, f"repro_{name}")
        return 0.0 if value is None else value

    build = next((labels for labels, _ in
                  families.get("repro_build_info", [])), {})
    worker_ids = sorted(
        {labels["worker_id"]
         for labels, _ in families.get("repro_http_requests_total", [])
         if "worker_id" in labels},
        key=lambda wid: (not wid.isdigit(), int(wid) if wid.isdigit() else 0,
                         wid))
    workers = []
    for wid in worker_ids:
        label = {"worker_id": wid}
        row = {"worker_id": wid}
        for field, metric in (("requests", "repro_http_requests_total"),
                              ("errors", "repro_http_errors_total"),
                              ("slow", "repro_slow_requests_total")):
            value = sample_value(families, metric, label)
            row[field] = 0.0 if value is None else value
        workers.append(row)
    spans = []
    for span in SPAN_NAMES:
        metric = f"repro_{span_metric(span)}"
        count = sample_value(families, f"{metric}_count")
        total = sample_value(families, f"{metric}_sum")
        if not count:
            continue
        spans.append({"span": span, "calls": count,
                      "mean_ms": 1000.0 * (total or 0.0) / count})
    stream = None
    if "repro_stream_refreshes_total" in families \
            or "repro_stream_ingested_documents_total" in families:
        stream = {
            "ingested_documents":
                fleet_total("stream_ingested_documents_total"),
            "refreshes": fleet_total("stream_refreshes_total"),
            "refresh_errors": fleet_total("stream_refresh_errors_total"),
        }
    replication = None
    if "repro_replica_lag_docs" in families \
            or "repro_shipping_shards_total" in families:
        replication = {
            "lag_documents": fleet_total("replica_lag_docs"),
            "shards_shipped": fleet_total("shipping_shards_total"),
            "bytes_shipped": fleet_total("shipping_bytes_total"),
            "retries": fleet_total("shipping_retries_total"),
            "verify_failures": fleet_total("shipping_verify_failures_total"),
        }
    rollout = None
    if "repro_rollout_state" in families:
        from repro.replicate import ROLLOUT_STATES

        state_value = fleet_total("rollout_state")
        state_name = next((name for name, value in ROLLOUT_STATES.items()
                           if value == state_value), str(state_value))
        rollout = {
            "state": state_name,
            "promotions": fleet_total("rollout_promotions_total"),
            "rollbacks": fleet_total("rollout_rollbacks_total"),
        }
    return {
        "answered_by_worker": health.get("worker_id"),
        "uptime_seconds": health.get("uptime_seconds"),
        "slo": health.get("slo"),
        "build": build,
        "fleet": {"requests": fleet_total("http_requests_total"),
                  "errors": fleet_total("http_errors_total"),
                  "slow": fleet_total("slow_requests_total")},
        "workers": workers,
        "spans": spans,
        "models": [
            {"name": entry.get("name"),
             "loaded": entry.get("loaded"),
             "published_at": entry.get("published_at"),
             "swap_lag_seconds": entry.get("swap_lag_seconds")}
            for entry in models],
        "stream": stream,
        "replication": replication,
        "rollout": rollout,
    }


def _ask_server(args: argparse.Namespace, request):
    """The one client path of ``status`` and ``slo``: ``request(client)``
    against ``--url``, one attempt per call within ``--timeout`` seconds.
    A bad timeout or a client error prints ``error: ...`` and gives None."""
    from repro.serve.client import ServeClient, ServeError

    if not 0 <= args.timeout < math.inf:  # the socket layer would raise
        _error(f"--timeout must be a finite number of seconds >= 0, "
               f"got {args.timeout}")
        return None
    try:
        return request(ServeClient(args.url, timeout=args.timeout, retries=0))
    except ServeError as exc:
        _error(exc)
        return None


def cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: one-shot fleet + stream health table."""
    import datetime

    from repro.obs import parse_prometheus

    scrape = _ask_server(args, lambda client: (
        client.health(), parse_prometheus(client.metrics_text()),
        client.models()))
    if scrape is None:
        return 2
    report = _status_report(*scrape)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    build = report["build"]
    engines = ", ".join(f"{key}={build[key]}" for key in sorted(build)
                        if key != "worker_id")
    print(f"{args.url} — answered by worker "
          f"{report['answered_by_worker']}, up "
          f"{report['uptime_seconds']:.0f}s" if report["uptime_seconds"]
          is not None else f"{args.url}")
    if engines:
        print(f"build: {engines}")
    print(f"\n{'WORKER':<8} {'REQUESTS':>9} {'ERRORS':>7} {'SLOW':>5}")
    for row in report["workers"]:
        print(f"{row['worker_id']:<8} {row['requests']:>9.0f} "
              f"{row['errors']:>7.0f} {row['slow']:>5.0f}")
    fleet = report["fleet"]
    print(f"{'fleet':<8} {fleet['requests']:>9.0f} "
          f"{fleet['errors']:>7.0f} {fleet['slow']:>5.0f}")
    if report["spans"]:
        print(f"\n{'SPAN':<16} {'CALLS':>7} {'MEAN_MS':>8}")
        for row in report["spans"]:
            print(f"{row['span']:<16} {row['calls']:>7.0f} "
                  f"{row['mean_ms']:>8.2f}")
    print(f"\n{'MODEL':<24} {'LOADED':<7} {'PUBLISHED':<19} {'SWAP_LAG':>8}")
    for entry in report["models"]:
        published = entry["published_at"]
        stamp = datetime.datetime.fromtimestamp(published) \
            .strftime("%Y-%m-%d %H:%M:%S") \
            if isinstance(published, (int, float)) else "-"
        lag = entry["swap_lag_seconds"]
        print(f"{str(entry['name']):<24} "
              f"{('yes' if entry['loaded'] else 'no'):<7} {stamp:<19} "
              f"{(f'{lag:.2f}s' if isinstance(lag, (int, float)) else '-'):>8}")
    stream = report["stream"]
    if stream is not None:
        print(f"\nstream: {stream['ingested_documents']:.0f} ingested "
              f"document(s), {stream['refreshes']:.0f} refresh(es), "
              f"{stream['refresh_errors']:.0f} error(s)")
    replication = report["replication"]
    if replication is not None:
        print(f"\nreplication: lag {replication['lag_documents']:.0f} "
              f"document(s), {replication['shards_shipped']:.0f} shard(s) "
              f"shipped ({replication['bytes_shipped']:.0f} bytes), "
              f"{replication['retries']:.0f} retry(ies), "
              f"{replication['verify_failures']:.0f} verify failure(s)")
    rollout = report["rollout"]
    if rollout is not None:
        print(f"\nrollout: {rollout['state']}, "
              f"{rollout['promotions']:.0f} promotion(s), "
              f"{rollout['rollbacks']:.0f} rollback(s)")
    if args.slo:
        verdicts = report["slo"]
        if verdicts:
            print("\n" + _render_slo_table(verdicts))
        else:
            print("\nslo: no verdicts — the server records no metrics "
                  "history (run it with --metrics-dir or --workers > 1)")
    return 0


def _render_slo_table(verdicts: List[dict]) -> str:
    """Render SLO verdict dicts (the ``/healthz`` ``slo`` field) as a table."""
    lines = [f"{'SLO':<24} {'VALUE':>10} {'OBJECTIVE':>10} "
             f"{'FAST':>7} {'SLOW':>7} {'FRAMES':>6} STATUS"]
    for verdict in verdicts:
        value = verdict.get("value")
        lines.append(
            f"{str(verdict.get('name', '?')):<24} "
            f"{('-' if value is None else format(value, '.4g')):>10} "
            f"{verdict.get('objective', 0.0):>10.4g} "
            f"{verdict.get('fast_burn', 0.0):>7.2f} "
            f"{verdict.get('slow_burn', 0.0):>7.2f} "
            f"{verdict.get('frames', 0):>6d} "
            f"{verdict.get('status', '?')}")
    return "\n".join(lines)


def cmd_slo(args: argparse.Namespace) -> int:
    """``repro slo``: burn-rate verdicts of the declared SLOs.

    The verdicts are evaluated server-side (over the fleet's metrics
    history) and travel in the ``/healthz`` reply, so this command works
    against any worker of a fleet.  Exits 1 when any SLO is breaching,
    2 when the server is unreachable or records no history.
    """
    import time

    try:
        while True:
            health = _ask_server(args, lambda client: client.health())
            if health is None:
                return 2
            verdicts = health.get("slo")
            if verdicts is None:
                return _error(f"{args.url} reports no SLO verdicts — the "
                              f"server records no metrics history (run it "
                              f"with --metrics-dir or --workers > 1)")
            if args.json:
                print(json.dumps(verdicts, indent=2, sort_keys=True))
            else:
                print(_render_slo_table(verdicts))
            if not args.watch:
                breaching = any(verdict.get("status") == "breach"
                                for verdict in verdicts)
                return 1 if breaching else 0
            time.sleep(max(0.05, args.interval))
            print()
    except KeyboardInterrupt:
        return 0


def cmd_bench(bench_argv: List[str]) -> int:
    """``repro bench``: forward the raw argument tail to the bench CLI."""
    from repro.bench.__main__ import main as bench_main
    return bench_main(bench_argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # `bench` forwards everything after it verbatim (including --help).
    if argv and argv[0] == "bench":
        return cmd_bench(argv[1:])
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except ArtifactError as exc:
        return _error(exc)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: exit quietly,
        # pointing stdout at devnull so interpreter shutdown can't re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
