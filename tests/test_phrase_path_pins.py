"""Fixed-seed ToPMine on multi-word phrases, pinned to digests.

``tests/test_lda.py`` pins the all-singleton (LDA) path.  These pins cover
the phrase path end to end: segmentation into multi-word cliques, the
PhraseLDA fit over them, the Eq. 8 topical-frequency tables a saved bundle
carries, and one grouped fold-in reply against that bundle.  The digests
were computed with the tuple-per-phrase pipeline that preceded the flat
phrase partition, so they prove the partition reproduces it bit for bit, on
the ``reference`` engines (whose tuples enter through
``FlatPhraseCorpus.from_phrases``) and the ``c`` engines alike.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro import ModelBundle, ToPMine, ToPMineConfig
from repro.core.infer import InferenceConfig
from repro.core.phrase_lda import PhraseLDA
from repro.datasets.registry import load_dataset
from repro.io.artifacts import save_bundle
from repro.topicmodel import ckernel

requires_c_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason=f"C kernel unavailable: {ckernel.load_error()}")

ENGINES = ["reference", pytest.param("c", marks=requires_c_kernel)]

GROUPS = [["frequent pattern mining over data streams",
           "query processing in relational database systems"],
          ["support vector machines for text classification"],
          ["mining association rules", "", "unknownword zzz database"]]
SEEDS = [3, 11, 2**40]

PINS = {
    "segmentation": "ef1e8cb001f402e8",
    "counts": "20474ad67cb8aebd",
    "cliques": "0b9b211a920c469a",
    "tokens": "8a0d778df9c493a3",
    "topics": "cd502fcef76ef270",
    "topical": "a25b569d88aea65e",
    "inference": "96f8b9033c3d712d",
}


def _digest(*parts) -> str:
    """Short SHA-256 over arrays (shape + ``int64``/``float64`` bytes) and
    the ``repr`` of anything else."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.shape, part.dtype.kind)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _concat(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays]
                          or [np.zeros(0, dtype=np.int64)])


def pipeline_digests(engine: str, directory) -> dict:
    """Fit ToPMine with every stage on ``engine`` and digest its outputs."""
    texts = load_dataset("dblp-titles", n_documents=400, seed=11).texts
    config = ToPMineConfig(
        n_topics=4, min_support=4, significance_threshold=3.0,
        n_iterations=15, seed=5,
        mining_engine="reference" if engine == "reference" else "auto")
    topmine = ToPMine(config)
    lda_config = replace(config.phrase_lda_config(), engine=engine)
    topmine.model_topics = lambda segmented: PhraseLDA(lda_config).fit(segmented)
    result = topmine.fit(texts, name="pins")
    state = result.topic_model
    bundle = ModelBundle.from_result(result, config)
    path = save_bundle(directory / f"model-{engine}.npz", bundle)
    with np.load(path) as saved:
        topical = [saved[name] for name in
                   ("topical_tokens", "topical_offsets", "topical_counts")]
    replies = bundle.inferencer().infer_texts_grouped(
        GROUPS, SEEDS, InferenceConfig(n_iterations=12, engine=engine))
    inference = [(reply.theta, _concat(doc.clique_topics for doc in reply.documents),
                  [(doc.phrases, doc.n_unknown_tokens) for doc in reply.documents])
                 for reply in replies]
    return {
        "segmentation": _digest([doc.phrases for doc in result.segmented_corpus]),
        "counts": _digest(state.topic_word_counts, state.doc_topic_counts,
                          state.topic_counts),
        "cliques": _digest(_concat(state.clique_assignments)),
        "tokens": _digest(_concat(state.assignments)),
        "topics": _digest(result.render_topics(n_rows=8)),
        "topical": _digest(*topical),
        "inference": _digest(*[part for reply in inference for part in reply]),
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_phrase_path_matches_pins(engine, tmp_path):
    assert pipeline_digests(engine, tmp_path) == PINS
