"""Generic synthetic corpus generator with topical phrase structure.

The generator follows an LDA-style generative story extended with phrase
emissions:

1. every document draws a topic mixture ``θ_d ~ Dir(α)``;
2. tokens are emitted in *slots*: each slot picks a topic from ``θ_d`` and
   then either a whole collocation (multi-word phrase) or a single unigram
   from that topic's vocabulary, or a background word;
3. sentence punctuation is inserted between groups of slots so the generated
   text exercises the phrase-invariant chunk splitting of the real pipeline.

Because phrases are emitted atomically, their corpus frequency exceeds what
the independence null model predicts — they are true collocations — while
background words and cross-topic noise keep the mining problem non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.text.corpus import Corpus
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.utils.rng import SeedLike, new_rng

# A compact pool of filler words used as background noise in every dataset.
DEFAULT_BACKGROUND_WORDS = (
    "approach results based new using study work case large small method "
    "general open good time people way day year part number point world "
    "area form end state group high level order line need place"
).split()

# Connector words re-inserted between slots so that stop-word removal has
# something realistic to strip out.
DEFAULT_CONNECTORS = ("the of and for with in on a an to from by".split())


@dataclass
class TopicSpec:
    """Specification of one latent topic of a synthetic dataset.

    Parameters
    ----------
    name:
        Human-readable topic label (e.g. ``"information retrieval"``).
    unigrams:
        Characteristic single words of the topic.
    phrases:
        Characteristic multi-word collocations of the topic (each a string of
        space-separated words).  These are emitted atomically.
    phrase_weight:
        Probability that a slot assigned to this topic emits a phrase rather
        than a unigram.
    """

    name: str
    unigrams: Sequence[str]
    phrases: Sequence[str]
    phrase_weight: float = 0.4

    def __post_init__(self) -> None:
        if not self.unigrams:
            raise ValueError(f"topic {self.name!r} needs at least one unigram")
        if not 0.0 <= self.phrase_weight <= 1.0:
            raise ValueError("phrase_weight must be in [0, 1]")


@dataclass
class DatasetSpec:
    """Specification of a full synthetic dataset.

    Parameters
    ----------
    name:
        Dataset name (e.g. ``"dblp-titles"``).
    topics:
        The latent topics.
    n_documents:
        Default number of documents to generate.
    mean_document_slots:
        Average number of emission slots per document (a slot produces one
        unigram or one phrase); documents lengths are Poisson around this.
    background_weight:
        Probability that a slot emits a background word instead of topical
        content.
    connector_weight:
        Probability of inserting a connector (stop) word after a slot.
    sentence_slots:
        Approximate number of slots per sentence before a period is emitted.
    doc_topic_alpha:
        Dirichlet concentration of the per-document topic mixture; small
        values make documents topically focused (titles), larger values make
        them mixed (abstracts, reviews).
    background_words, connectors:
        Vocabulary pools for noise; defaults shared across datasets.
    """

    name: str
    topics: Sequence[TopicSpec]
    n_documents: int = 1000
    mean_document_slots: float = 12.0
    background_weight: float = 0.15
    connector_weight: float = 0.35
    sentence_slots: int = 6
    doc_topic_alpha: float = 0.2
    background_words: Sequence[str] = field(default_factory=lambda: list(DEFAULT_BACKGROUND_WORDS))
    connectors: Sequence[str] = field(default_factory=lambda: list(DEFAULT_CONNECTORS))

    @property
    def n_topics(self) -> int:
        """Number of latent topics in the specification."""
        return len(self.topics)


@dataclass
class GeneratedCorpus:
    """A generated dataset: raw texts plus ground-truth bookkeeping.

    Attributes
    ----------
    texts:
        Raw document strings (input to the real preprocessing pipeline).
    document_topics:
        Ground-truth dominant topic index of every document.
    spec:
        The generating :class:`DatasetSpec`.
    """

    texts: List[str]
    document_topics: List[int]
    spec: DatasetSpec

    def __len__(self) -> int:
        return len(self.texts)

    def to_corpus(self, config: Optional[PreprocessConfig] = None) -> Corpus:
        """Run the standard preprocessing pipeline over the raw texts."""
        preprocessor = Preprocessor(config or PreprocessConfig())
        return preprocessor.build_corpus(self.texts, name=self.spec.name)


class SyntheticCorpusGenerator:
    """Generates documents from a :class:`DatasetSpec`."""

    def __init__(self, spec: DatasetSpec, seed: SeedLike = None) -> None:
        self.spec = spec
        self._rng = new_rng(seed)

    # -- public API ------------------------------------------------------------------
    def generate(self, n_documents: Optional[int] = None,
                 seed: SeedLike = None) -> GeneratedCorpus:
        """Generate ``n_documents`` raw documents (defaults to the spec's size).

        When ``seed`` is given the call uses a fresh generator derived from
        it, leaving the instance's own stream untouched — so one
        :class:`SyntheticCorpusGenerator` can produce several corpus sizes
        that are each independently reproducible (the benchmark harness
        relies on this).
        """
        spec = self.spec
        n_documents = n_documents or spec.n_documents
        alpha = np.full(spec.n_topics, spec.doc_topic_alpha)
        rng = self._rng if seed is None else new_rng(seed)

        texts: List[str] = []
        dominant_topics: List[int] = []
        for _ in range(n_documents):
            theta = rng.dirichlet(alpha)
            dominant_topics.append(int(np.argmax(theta)))
            texts.append(self._generate_document(theta, rng))
        return GeneratedCorpus(texts=texts, document_topics=dominant_topics, spec=spec)

    # -- internals --------------------------------------------------------------------
    def _generate_document(self, theta: np.ndarray, rng: np.random.Generator) -> str:
        spec = self.spec
        n_slots = max(2, int(rng.poisson(spec.mean_document_slots)))

        words: List[str] = []
        slots_in_sentence = 0
        for _ in range(n_slots):
            roll = rng.random()
            if roll < spec.background_weight:
                words.append(str(rng.choice(spec.background_words)))
            else:
                topic = spec.topics[self._sample_topic(theta, rng)]
                if rng.random() < topic.phrase_weight and topic.phrases:
                    phrase = str(rng.choice(topic.phrases))
                    words.extend(phrase.split())
                else:
                    words.append(str(rng.choice(topic.unigrams)))
            # optional connector (stop word) between slots
            if rng.random() < spec.connector_weight:
                words.append(str(rng.choice(spec.connectors)))
            slots_in_sentence += 1
            if slots_in_sentence >= spec.sentence_slots:
                if words:
                    words[-1] = words[-1] + "."
                slots_in_sentence = 0
        text = " ".join(words).strip()
        if not text.endswith("."):
            text += "."
        return text

    def _sample_topic(self, theta: np.ndarray, rng: np.random.Generator) -> int:
        return int(rng.choice(len(theta), p=theta))
