"""Topic visualisation: topical frequency ranking and table rendering.

Paper Section 5.4 visualises a topic by listing (a) the most probable
unigrams under the inferred ``φ_k`` and (b) the most frequent phrases by
*topical frequency* (Eq. 8)::

    TF(phr, k) = Σ_{d,g} I(PI_{d,g} = phr, C_{d,g} = k)

i.e. the number of phrase instances equal to ``phr`` whose clique was
assigned to topic ``k`` in the final Gibbs iteration.  Unstemming is applied
as a post-processing step so phrases read naturally (Section 7.1/7.4).

The rendering mirrors the layout of Tables 1, 4, 5 and 6: one column per
topic, unigrams on top, phrases below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.phrase_lda import PhraseLDAState
from repro.core.segmentation import SegmentedCorpus
from repro.text.vocabulary import Vocabulary
from repro.topicmodel.gibbs import FlatPhraseCorpus
from repro.topicmodel.lda import TopicModelState
from repro.utils.tables import render_topic_columns

Phrase = Tuple[int, ...]


@dataclass
class TopicVisualization:
    """Ranked unigrams and phrases for every topic.

    Attributes
    ----------
    top_unigrams:
        ``top_unigrams[k]`` is the ranked list of unigram strings for topic k.
    top_phrases:
        ``top_phrases[k]`` is the ranked list of phrase strings (multi-word,
        by topical frequency) for topic k.
    phrase_frequencies:
        ``phrase_frequencies[k]`` maps phrase string → topical frequency.
    """

    top_unigrams: List[List[str]] = field(default_factory=list)
    top_phrases: List[List[str]] = field(default_factory=list)
    phrase_frequencies: List[Dict[str, int]] = field(default_factory=list)

    @property
    def n_topics(self) -> int:
        """Number of topics."""
        return len(self.top_unigrams)

    def render(self, n_rows: int = 10, title: Optional[str] = None) -> str:
        """Render the visualisation as a paper-style table (Tables 1, 4-6)."""
        blocks: List[str] = []
        unigram_table = render_topic_columns(
            [lst[:n_rows] for lst in self.top_unigrams],
            title=(title + " — 1-grams") if title else "1-grams")
        phrase_table = render_topic_columns(
            [lst[:n_rows] for lst in self.top_phrases],
            title=(title + " — n-grams") if title else "n-grams")
        blocks.append(unigram_table)
        blocks.append("")
        blocks.append(phrase_table)
        return "\n".join(blocks)


class TopicVisualizer:
    """Builds :class:`TopicVisualization` objects from a fitted PhraseLDA state."""

    def __init__(self, segmented_corpus: SegmentedCorpus, state: PhraseLDAState,
                 unstem: bool = True) -> None:
        self.segmented_corpus = segmented_corpus
        self.state = state
        self.unstem = unstem

    # -- topical frequency (Eq. 8) -----------------------------------------------------
    def topical_frequencies(self, min_phrase_length: int = 2) -> List[Dict[Phrase, int]]:
        """Return per-topic counts of phrase instances assigned to the topic.

        Only phrases of at least ``min_phrase_length`` words are counted by
        default, matching the paper's n-gram lists; pass 1 to include
        single-word phrases.
        """
        cliques = self.state.clique_assignments
        clique_topics = (np.concatenate(cliques) if len(cliques)
                         else np.zeros(0, dtype=np.int64))
        return topical_frequencies(self.segmented_corpus.partition,
                                   clique_topics, self.state.n_topics,
                                   min_phrase_length)

    def top_phrases(self, n: int = 10, min_phrase_length: int = 2) -> List[List[Phrase]]:
        """Return, per topic, the ``n`` phrases with highest topical frequency."""
        ranked: List[List[Phrase]] = []
        for topic_counts in self.topical_frequencies(min_phrase_length):
            order = sorted(topic_counts.items(), key=lambda item: (-item[1], item[0]))
            ranked.append([phrase for phrase, _count in order[:n]])
        return ranked

    def top_unigrams(self, n: int = 10) -> List[List[int]]:
        """Return, per topic, the ``n`` most probable word ids under ``φ̂_k``."""
        return top_unigram_ids(self.state, n)

    # -- rendering ----------------------------------------------------------------------
    def build(self, n_unigrams: int = 10, n_phrases: int = 10,
              min_phrase_length: int = 2) -> TopicVisualization:
        """Assemble the full visualisation with decoded, unstemmed strings."""
        return build_visualization(
            self.state, self.topical_frequencies(min_phrase_length),
            self.segmented_corpus.vocabulary,
            n_unigrams=n_unigrams, n_phrases=n_phrases,
            min_phrase_length=min_phrase_length, unstem=self.unstem)


def topical_frequencies(partition: FlatPhraseCorpus, clique_topics: np.ndarray,
                        n_topics: int, min_phrase_length: int = 2,
                        ) -> List[Dict[Phrase, int]]:
    """Eq. 8 over a phrase partition: per topic, phrase → instance count.

    One ``bincount`` over (phrase, topic) cells counts every clique; each
    distinct phrase is then decoded to its word-id tuple once, from one of
    its cliques.

    Parameters
    ----------
    partition:
        The segmentation the topics were sampled on.
    clique_topics:
        The topic of every clique of ``partition``, in clique order.
    n_topics:
        Number of topics ``K``.
    min_phrase_length:
        Phrases shorter than this many words are left out.

    Raises
    ------
    ValueError
        If ``clique_topics`` does not hold one topic per clique.
    """
    clique_topics = np.asarray(clique_topics, dtype=np.int64)
    if clique_topics.shape != (partition.n_cliques,):
        raise ValueError(f"got {clique_topics.shape} clique topics for "
                         f"{partition.n_cliques} cliques")
    frequencies: List[Dict[Phrase, int]] = [{} for _ in range(n_topics)]
    keys = partition.keys
    if not keys.size:
        return frequencies
    # Rank the keys that occur (keys are small non-negative ints, so no
    # sort is needed): one row per distinct phrase, in key order.
    row_of_key = np.cumsum(np.bincount(keys) > 0) - 1
    row_of = row_of_key[keys]
    n_rows = int(row_of_key[-1]) + 1
    counts = np.bincount(row_of * n_topics + clique_topics,
                         minlength=n_rows * n_topics).reshape(n_rows, n_topics)
    # Any clique of a row holds its phrase; decode that one.
    example = np.empty(n_rows, dtype=np.int64)
    example[row_of] = np.arange(partition.n_cliques)
    starts = partition.offsets[example]
    ends = partition.offsets[example + 1]
    keep = np.flatnonzero(ends - starts >= min_phrase_length)
    token_list = partition.tokens.tolist()
    phrases = [tuple(token_list[a:b])
               for a, b in zip(starts[keep].tolist(), ends[keep].tolist())]
    rows, topics = np.nonzero(counts[keep])
    for row, topic, count in zip(rows.tolist(), topics.tolist(),
                                 counts[keep[rows], topics].tolist()):
        frequencies[topic][phrases[row]] = count
    return frequencies


def top_unigram_ids(state: TopicModelState, n: int) -> List[List[int]]:
    """Per topic, the ids of the ``n`` most probable words under ``φ̂_k``.

    The single ranking used by both the corpus-backed
    :class:`TopicVisualizer` and the bundle-backed
    :func:`build_visualization` path, so the two can never diverge.
    """
    phi = state.phi()
    return [list(np.argsort(-phi[k])[:n]) for k in range(state.n_topics)]


def build_visualization(state: TopicModelState,
                        topical_frequencies: Sequence[Dict[Phrase, int]],
                        vocabulary: Optional[Vocabulary],
                        n_unigrams: int = 10, n_phrases: int = 10,
                        min_phrase_length: int = 2,
                        unstem: bool = True) -> TopicVisualization:
    """Build a :class:`TopicVisualization` from state plus topical frequencies.

    This is the corpus-free assembly path: given a fitted model's counts and
    the (precomputed) Eq. 8 topical-frequency tables, it decodes and ranks
    without touching the segmented corpus — which is what lets a saved model
    bundle reproduce the training run's topic tables exactly after reload.

    Parameters
    ----------
    state:
        Fitted topic-model counts (``φ̂`` is derived from
        ``topic_word_counts``).
    topical_frequencies:
        Per-topic mapping of phrase (tuple of word ids) to topical frequency,
        as produced by :meth:`TopicVisualizer.topical_frequencies`.
    vocabulary:
        Vocabulary for decoding word ids; ``None`` renders raw ids.
    n_unigrams, n_phrases:
        List lengths per topic.
    min_phrase_length:
        Minimum phrase length (in words) for the n-gram lists.
    unstem:
        Decode through the most frequent surface form (Section 7.1).

    Returns
    -------
    TopicVisualization
        Ranked, decoded unigram and phrase lists per topic.
    """
    visualization = TopicVisualization()

    def decode_word(word_id: int) -> str:
        if vocabulary is None:
            return str(word_id)
        if unstem:
            return vocabulary.unstem_id(word_id)
        return vocabulary.word_of(word_id)

    def decode_phrase(phrase: Phrase) -> str:
        if vocabulary is None:
            return " ".join(str(w) for w in phrase)
        if unstem:
            return vocabulary.unstem_phrase(phrase)
        return " ".join(vocabulary.word_of(w) for w in phrase)

    unigram_ids = top_unigram_ids(state, n_unigrams)
    for k in range(state.n_topics):
        visualization.top_unigrams.append([decode_word(w) for w in unigram_ids[k]])
        kept = {phrase: count for phrase, count in topical_frequencies[k].items()
                if len(phrase) >= min_phrase_length}
        order = sorted(kept.items(), key=lambda item: (-item[1], item[0]))
        visualization.top_phrases.append(
            [decode_phrase(phrase) for phrase, _ in order[:n_phrases]])
        visualization.phrase_frequencies.append(
            {decode_phrase(phrase): count for phrase, count in order})
    return visualization
