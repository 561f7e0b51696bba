"""The Beta-function helpers behind the collapsed joint ``P(Z, W)``.

Pinned against a plain ``math.lgamma`` loop on a tiny count matrix, so the
``scipy.special.gammaln`` they import on first call is checked too.
"""

import math

import numpy as np
import pytest

from repro.topicmodel.dirichlet import collapsed_log_likelihood, log_multinomial_beta

# D = 3 documents × K = 2 topics, and V = 4 words × K = 2 topics.
DOC_TOPIC = np.array([[3, 0], [1, 2], [0, 4]])
TOPIC_WORD = np.array([[2, 1], [0, 3], [1, 2], [1, 0]])
ALPHA = np.array([0.5, 1.5])
BETA = np.full(4, 0.1)


def log_beta(values):
    return sum(math.lgamma(v) for v in values) - math.lgamma(sum(values))


def test_log_multinomial_beta_without_axis():
    value = log_multinomial_beta(ALPHA)
    assert isinstance(value, float)
    assert value == pytest.approx(log_beta([0.5, 1.5]), rel=1e-12)


@pytest.mark.parametrize("axis", [0, 1])
def test_log_multinomial_beta_along_an_axis(axis):
    matrix = DOC_TOPIC + ALPHA
    lines = matrix.T if axis == 0 else matrix
    expected = [log_beta(list(line)) for line in lines]
    np.testing.assert_allclose(log_multinomial_beta(matrix, axis=axis),
                               expected, rtol=1e-12)


def test_collapsed_log_likelihood_matches_the_appendix_product():
    expected = sum(log_beta(list(row + ALPHA)) - log_beta(list(ALPHA))
                   for row in DOC_TOPIC)
    expected += sum(log_beta(list(column + BETA)) - log_beta(list(BETA))
                    for column in TOPIC_WORD.T)
    value = collapsed_log_likelihood(TOPIC_WORD, DOC_TOPIC, ALPHA, BETA)
    assert isinstance(value, float)
    assert value == pytest.approx(expected, rel=1e-12)


def test_fitted_state_log_likelihood_is_finite(fitted_pipeline):
    _, result = fitted_pipeline
    value = result.topic_model.log_likelihood()
    assert math.isfinite(value)
    assert value < 0
