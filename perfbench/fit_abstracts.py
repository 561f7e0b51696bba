"""``fit-abstracts``: closed-loop training runs, one op at a time.

One op is ``ToPMine.fit`` + ``save_bundle`` over 2000 synthetic DBLP
abstracts (K=20, 100 Gibbs sweeps) in a separate fit process
(``fit_worker.py``).  Long documents make the PhraseLDA sampler dominate;
there is no HTTP or stream on this path.  The window is split across
``SETUPS`` fit processes started one after another: each one's first op is
both its set-up sample and its warm-up, the rest are measured.
"""

from __future__ import annotations

import hashlib
import json
import time

from common import Context, Outcome, StealWindow, median, start_worker

N_DOCUMENTS = 2000
SETUPS = 3
CONFIG = {"n_topics": 20, "min_support": None, "n_iterations": 100}


def bundle_digest(path) -> str:
    """SHA-256 over the fitted topic-assignment counts of a saved bundle."""
    from repro.io.artifacts import load_bundle

    bundle = load_bundle(path, mapped=False)
    digest = hashlib.sha256()
    for array in (bundle.topic_word_counts, bundle.doc_topic_counts, bundle.topic_counts):
        digest.update(array.tobytes())
    return digest.hexdigest()


def run(ctx: Context) -> Outcome:
    from repro.datasets.registry import load_dataset

    texts = load_dataset("dblp-abstracts", n_documents=N_DOCUMENTS, seed=ctx.seed).texts
    inputs = ctx.work / "inputs.json"
    inputs.write_text(json.dumps({"texts": texts, "config": dict(CONFIG, seed=ctx.seed)}))
    bundle = ctx.work / "model.npz"

    reference = None
    attempted = failed = 0
    setups, latencies, rss, traced, untraced, replies = [], [], [], [], [], []
    setups_wall, latencies_wall, steal = [], [], []
    cpu = 0.0

    def check() -> None:
        nonlocal reference, failed
        digest = bundle_digest(bundle)
        reference = reference or digest
        failed += digest != reference

    share = ctx.seconds / SETUPS
    for index in range(SETUPS):
        window = StealWindow()
        worker = start_worker(ctx.repo, ctx.work / f"fit-{index}.log", "fit_worker.py",
                              str(inputs), str(bundle))
        try:
            worker.call({"trace": False}, timeout=170)
            wall, unstolen = window.seconds()
            setups_wall.append(wall)
            setups.append(unstolen)
            attempted += 1
            check()
            cpu_start = worker.cpu()
            deadline = time.perf_counter() + share
            while time.perf_counter() < deadline:
                trace = ctx.trace and len(latencies) % 2 == 1
                window = StealWindow()
                reply = worker.call({"trace": trace}, timeout=170)
                wall, unstolen = window.seconds()
                elapsed = unstolen * 1000.0
                latencies.append(elapsed)
                latencies_wall.append(wall * 1000.0)
                steal.append(1.0 - unstolen / wall)
                (traced if trace else untraced).append(elapsed)
                if trace:
                    replies.append(reply)
                attempted += 1
                check()
            cpu += worker.cpu() - cpu_start
            rss.append(worker.peak_rss())
        finally:
            worker.stop()

    metrics = {"setup_s": median(setups), "op_p50_ms": median(latencies),
               "cpu_ms_per_op": 1000.0 * cpu / len(latencies),
               "peak_rss_mb": median(rss)}
    detail = {"ops": len(latencies), "op_ms": latencies, "op_wall_ms": latencies_wall,
              "setup_s": setups, "setup_wall_s": setups_wall, "steal_share": median(steal),
              "op_tail": "omitted: fewer than 10 ops beyond any tail percentile"}
    layers = fit_layers(replies, traced, untraced) if ctx.trace else {}
    return Outcome(attempted, failed, metrics, layers, detail)


def fit_layers(replies, traced, untraced) -> dict:
    """Mean self time per traced op of each fit stage, plus derived rates."""
    names = {name for reply in replies for name in reply["spans_ms"]}
    mean = {name: sum(r["spans_ms"].get(name, 0.0) for r in replies) / len(replies)
            for name in names}
    tokens = median([r["tokens"] for r in replies])
    return {
        "text.preprocess.ms": mean["text.preprocess"],
        "text.preprocess.tokens_per_s": tokens / (mean["text.preprocess"] / 1000.0),
        "core.mining.ms": mean["core.mining"],
        "core.mining.frequent_phrases": median([r["frequent_phrases"] for r in replies]),
        "core.segmentation.ms": mean["core.segmentation"],
        "core.phrase_lda.ms": mean["core.phrase_lda"],
        "core.phrase_lda.ms_per_sweep": mean["core.phrase_lda"] / CONFIG["n_iterations"],
        "core.visualization.ms": mean["core.visualization"],
        "io.save_bundle.ms": mean["io.save_bundle"],
        "io.bundle_bytes": median([r["bundle_bytes"] for r in replies]),
        "fit.unattributed_ms": mean["fit.unattributed"],
        "bench.tracing_overhead_pct": 100.0 * (median(traced) / median(untraced) - 1.0),
    }
