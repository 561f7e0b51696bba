"""Topic-modeling substrate: LDA, hyper-parameter optimisation, perplexity.

PhraseLDA (the paper's Section 5 contribution, in :mod:`repro.core.phrase_lda`)
generalises Latent Dirichlet Allocation: when every phrase is a single word it
reduces exactly to collapsed-Gibbs LDA.  This subpackage holds the shared
machinery:

* :mod:`repro.topicmodel.lda` — collapsed Gibbs LDA (the paper's main
  baseline and the topic-model component of KERT and Turbo Topics), fitted
  as PhraseLDA on the all-singleton segmentation; also the sampler
  configuration and model state both models share.
* :mod:`repro.topicmodel.gibbs` — the flat-buffer C training engine.
* :mod:`repro.topicmodel.hyperopt` — Minka's fixed-point Dirichlet
  hyper-parameter updates (the paper optimises α, β this way, citing [22]).
* :mod:`repro.topicmodel.perplexity` — held-out perplexity used in Figures
  6-7, folding documents in through the serving fold-in engines.
* :mod:`repro.topicmodel.dirichlet` — small Dirichlet/multinomial utilities.
"""

from repro.topicmodel.dirichlet import (
    log_multinomial_beta,
    sample_dirichlet,
    normalize_rows,
)
from repro.topicmodel.hyperopt import (
    optimize_asymmetric_alpha,
    optimize_symmetric_beta,
)
from repro.topicmodel.gibbs import (
    ENGINES,
    FlatPhraseCorpus,
    resolve_engine,
)
from repro.topicmodel.lda import LDAConfig, LatentDirichletAllocation, TopicModelState
from repro.topicmodel.perplexity import (
    held_out_perplexity,
    perplexity_from_likelihood,
    training_perplexity,
)

__all__ = [
    "log_multinomial_beta",
    "sample_dirichlet",
    "normalize_rows",
    "optimize_asymmetric_alpha",
    "optimize_symmetric_beta",
    "ENGINES",
    "FlatPhraseCorpus",
    "resolve_engine",
    "LDAConfig",
    "LatentDirichletAllocation",
    "TopicModelState",
    "held_out_perplexity",
    "perplexity_from_likelihood",
    "training_perplexity",
]
