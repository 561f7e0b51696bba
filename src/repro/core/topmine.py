"""The end-to-end ToPMine pipeline (paper Section 3).

:class:`ToPMine` chains the full framework:

1. (optionally) preprocess raw text into a :class:`~repro.text.corpus.Corpus`
   (tokenise, split on phrase-invariant punctuation, remove stop words,
   Porter-stem),
2. mine frequent contiguous phrases (Algorithm 1),
3. segment every document into a bag of phrases via bottom-up construction
   guided by the significance score (Algorithm 2),
4. run PhraseLDA over the segmented corpus (Section 5),
5. rank phrases per topic by topical frequency (Eq. 8) and build the
   visualisation.

Timings of the two framework halves (phrase mining vs. topic modeling) are
recorded, matching the decomposition reported in Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.frequent_phrases import (
    FrequentPhraseMiner,
    FrequentPhraseMiningResult,
    PhraseMiningConfig,
)
from repro.core.phrase_construction import PhraseConstructionConfig
from repro.core.phrase_lda import PhraseLDA, PhraseLDAConfig, PhraseLDAState
from repro.core.segmentation import CorpusSegmenter, SegmentedCorpus
from repro.core.visualization import TopicVisualization, TopicVisualizer
from repro.text.corpus import Corpus
from repro.text.preprocess import PreprocessConfig, Preprocessor
from repro.utils.timing import Stopwatch


@dataclass
class ToPMineConfig:
    """Configuration for the full ToPMine pipeline.

    Parameters
    ----------
    n_topics:
        Number of topics ``K`` for PhraseLDA.
    min_support:
        Minimum support ε for frequent phrase mining; when ``None`` it is
        scaled linearly with corpus size (see
        :meth:`PhraseMiningConfig.scaled_to_corpus`).
    significance_threshold:
        α, the merge-significance threshold of the phrase constructor.
    max_phrase_length:
        Optional cap on mined/constructed phrase length.
    n_iterations:
        Gibbs iterations for PhraseLDA.
    alpha, beta:
        Dirichlet priors for PhraseLDA (``alpha=None`` → 50/K).
    optimize_hyperparameters:
        Enable Minka fixed-point hyper-parameter optimisation.
    preprocess:
        Preprocessing options applied when raw texts are supplied.
    seed:
        Random seed threaded through PhraseLDA.
    mining_engine:
        Engine for the phrase-mining front end (Algorithm 1 **and**
        Algorithm 2): ``"auto"``, ``"numpy"``, or ``"reference"``.  All
        engines are bit-identical; ``"auto"`` and ``"numpy"`` pick the
        vectorized miner and the ``"auto"`` segmenter (compiled, or the
        reference one without a compiler); ``"reference"`` picks both
        reference loops.
    """

    n_topics: int = 10
    min_support: Optional[int] = 10
    significance_threshold: float = 5.0
    max_phrase_length: Optional[int] = None
    n_iterations: int = 100
    alpha: Optional[float] = None
    beta: float = 0.01
    optimize_hyperparameters: bool = False
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    seed: Optional[int] = None
    mining_engine: str = "auto"

    def mining_config(self, corpus: Corpus) -> PhraseMiningConfig:
        """Resolve the phrase-mining configuration for ``corpus``."""
        if self.min_support is not None:
            return PhraseMiningConfig(min_support=self.min_support,
                                      max_phrase_length=self.max_phrase_length,
                                      engine=self.mining_engine)
        return PhraseMiningConfig.scaled_to_corpus(
            corpus, max_phrase_length=self.max_phrase_length,
            engine=self.mining_engine)

    def construction_config(self) -> PhraseConstructionConfig:
        """Resolve the phrase-construction configuration."""
        return PhraseConstructionConfig(
            significance_threshold=self.significance_threshold,
            max_phrase_words=self.max_phrase_length,
            engine="reference" if self.mining_engine == "reference" else "auto")

    def phrase_lda_config(self) -> PhraseLDAConfig:
        """Resolve the PhraseLDA configuration."""
        return PhraseLDAConfig(n_topics=self.n_topics,
                               alpha=self.alpha,
                               beta=self.beta,
                               n_iterations=self.n_iterations,
                               optimize_hyperparameters=self.optimize_hyperparameters,
                               seed=self.seed)


@dataclass
class ToPMineResult:
    """Everything produced by one ToPMine run.

    Attributes
    ----------
    corpus:
        The (preprocessed) corpus the pipeline ran on.
    mining_result:
        Frequent phrases and their counts.
    segmented_corpus:
        The bag-of-phrases representation.
    topic_model:
        The fitted :class:`~repro.core.phrase_lda.PhraseLDAState`.
    visualization:
        Per-topic ranked unigrams and phrases.
    timings:
        Stage name → seconds, with stages ``"phrase_mining"`` (Algorithm 1 +
        segmentation) and ``"topic_modeling"`` (PhraseLDA), matching the
        decomposition in Figure 8.
    """

    corpus: Corpus
    mining_result: FrequentPhraseMiningResult
    segmented_corpus: SegmentedCorpus
    topic_model: PhraseLDAState
    visualization: TopicVisualization
    timings: Dict[str, float] = field(default_factory=dict)

    def top_phrases(self, topic: int, n: int = 10) -> List[str]:
        """Convenience accessor for a topic's top phrases."""
        return self.visualization.top_phrases[topic][:n]

    def top_unigrams(self, topic: int, n: int = 10) -> List[str]:
        """Convenience accessor for a topic's top unigrams."""
        return self.visualization.top_unigrams[topic][:n]

    def render_topics(self, n_rows: int = 10, title: Optional[str] = None) -> str:
        """Render the topic table (paper Tables 1, 4, 5, 6 layout)."""
        return self.visualization.render(n_rows=n_rows, title=title)


class ToPMine:
    """Public entry point for the ToPMine framework.

    Example
    -------
    >>> texts = ["frequent pattern mining algorithms"] * 30
    >>> topmine = ToPMine(ToPMineConfig(n_topics=2, min_support=5,
    ...                                 n_iterations=20, seed=7))
    >>> result = topmine.fit(texts)
    >>> result.topic_model.n_topics
    2
    """

    def __init__(self, config: Optional[ToPMineConfig] = None) -> None:
        self.config = config or ToPMineConfig()

    # -- pipeline stages -----------------------------------------------------------
    def preprocess(self, texts: Sequence[str], name: str = "corpus") -> Corpus:
        """Preprocess raw ``texts`` into a corpus (stage 0).

        Parameters
        ----------
        texts:
            Raw document strings.
        name:
            Dataset name carried on the corpus (shows up in benchmark and
            bundle metadata).

        Returns
        -------
        Corpus
            Tokenised, chunked, stop-word-filtered, stemmed documents over
            a fresh vocabulary.
        """
        preprocessor = Preprocessor(self.config.preprocess)
        return preprocessor.build_corpus(texts, name=name)

    def mine_phrases(self, corpus: Corpus) -> FrequentPhraseMiningResult:
        """Run frequent phrase mining (Algorithm 1).

        Parameters
        ----------
        corpus:
            The (preprocessed) corpus to mine.

        Returns
        -------
        FrequentPhraseMiningResult
            Counts of every contiguous phrase meeting the minimum support.
        """
        miner = FrequentPhraseMiner(self.config.mining_config(corpus))
        return miner.mine(corpus)

    def segment(self, corpus: Corpus,
                mining_result: FrequentPhraseMiningResult) -> SegmentedCorpus:
        """Segment the corpus into a bag of phrases (Algorithm 2).

        Parameters
        ----------
        corpus:
            The corpus to partition.
        mining_result:
            Aggregate phrase counts driving the significance score.

        Returns
        -------
        SegmentedCorpus
            One phrase partition per document.
        """
        segmenter = CorpusSegmenter(mining_result, self.config.construction_config())
        return segmenter.segment(corpus)

    def model_topics(self, segmented_corpus: SegmentedCorpus) -> PhraseLDAState:
        """Fit PhraseLDA over the segmented corpus (Section 5).

        Parameters
        ----------
        segmented_corpus:
            The bag-of-phrases representation from :meth:`segment`.

        Returns
        -------
        PhraseLDAState
            Final count matrices, hyper-parameters, and clique assignments.
        """
        model = PhraseLDA(self.config.phrase_lda_config())
        return model.fit(segmented_corpus)

    # -- end-to-end ------------------------------------------------------------------
    def fit(self, documents: Union[Corpus, Sequence[str]],
            name: str = "corpus") -> ToPMineResult:
        """Run the full pipeline on raw texts or a preprocessed corpus.

        Parameters
        ----------
        documents:
            Either raw document strings (preprocessed first) or an existing
            :class:`~repro.text.corpus.Corpus`.
        name:
            Dataset name used when preprocessing raw texts.

        Returns
        -------
        ToPMineResult
            Corpus, mining result, segmentation, fitted topic model,
            visualisation, and the Figure-8 stage timings.
        """
        watch = Stopwatch()
        if isinstance(documents, Corpus):
            corpus = documents
        else:
            with watch.measure("preprocessing"):
                corpus = self.preprocess(documents, name=name)

        with watch.measure("phrase_mining"):
            mining_result = self.mine_phrases(corpus)
            segmented_corpus = self.segment(corpus, mining_result)

        with watch.measure("topic_modeling"):
            topic_model = self.model_topics(segmented_corpus)

        visualizer = TopicVisualizer(segmented_corpus, topic_model)
        visualization = visualizer.build()
        return ToPMineResult(corpus=corpus,
                             mining_result=mining_result,
                             segmented_corpus=segmented_corpus,
                             topic_model=topic_model,
                             visualization=visualization,
                             timings=watch.as_dict())
