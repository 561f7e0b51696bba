"""System-under-test process of the ``fit-abstracts`` workload.

Usage: ``python fit_worker.py INPUTS.json BUNDLE.npz`` with ``src/`` on
``PYTHONPATH``.  Reads JSON-line commands on stdin, one ``{"trace": bool}``
per op, and answers each with one JSON line on stdout once the op is done.
One op is the public training path: ``ToPMine.fit`` over the raw texts,
``ModelBundle.from_fit`` and ``save_bundle``.  With ``trace`` the op's
public stages are wrapped in :class:`tracer.Tracer` spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from repro import ToPMine, ToPMineConfig
from repro.core import topmine as topmine_module
from repro.io.artifacts import ModelBundle, save_bundle

from tracer import Tracer


def fit_once(texts, config: ToPMineConfig, path: str, trace: bool) -> dict:
    tracer = Tracer()
    topmine = ToPMine(config)
    targets = [
        (topmine, "preprocess", "text.preprocess"),
        (topmine, "mine_phrases", "core.mining"),
        (topmine, "segment", "core.segmentation"),
        (topmine, "model_topics", "core.phrase_lda"),
        (topmine_module.TopicVisualizer, "build", "core.visualization"),
    ] if trace else []
    save = tracer.span("io.save_bundle", save_bundle) if trace else save_bundle
    start = time.perf_counter()
    with tracer.active(targets):
        result = topmine.fit(texts, name="dblp-abstracts")
        bundle = ModelBundle.from_fit(
            result.segmented_corpus, result.topic_model, result.mining_result,
            construction=config.construction_config(), preprocess=config.preprocess,
            metadata={"source": "dblp-abstracts", "seed": config.seed,
                      "n_iterations": config.n_iterations})
        save(path, bundle)
    wall = time.perf_counter() - start
    reply = {"wall_s": wall}
    if trace:
        reply["spans_ms"] = tracer.report(wall, "fit.unattributed")
        reply["tokens"] = result.corpus.num_tokens
        reply["frequent_phrases"] = len(result.mining_result.counter)
        reply["bundle_bytes"] = os.path.getsize(path)
    return reply


def main() -> int:
    inputs_path, bundle_path = sys.argv[1], sys.argv[2]
    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    config = ToPMineConfig(**inputs["config"])
    protocol = sys.stdout
    sys.stdout = sys.stderr  # only protocol replies go to the real stdout
    for line in sys.stdin:
        command = json.loads(line)
        try:
            reply = fit_once(inputs["texts"], config, bundle_path, command["trace"])
        except Exception:
            reply = {"error": traceback.format_exc()}
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
