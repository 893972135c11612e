"""The G-GCN gate ``sigma(gate_n[u] + gate_s[v]) * h_u`` in its exp form.

The layers compute ``h / (1 + exp(-logit))`` from negated gate projections;
``scipy.special.expit`` serves only as the oracle here.  At extreme logits the
gate must reach its limits (``0`` and ``h``) without a NaN or a warning.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from repro.models.ggcn import _gate, _gated_messages

pytestmark = pytest.mark.filterwarnings("error")


def test_extreme_logits_reach_the_limits_without_warnings():
    h = np.array([[1.5, -2.0, 3.0e300, 0.0]])
    closed = _gate(np.full(h.shape, 800.0), h)     # logit -800
    open_ = _gate(np.full(h.shape, -800.0), h)     # logit +800
    assert np.array_equal(closed, np.zeros_like(h))
    assert np.array_equal(open_, h)


def test_extreme_per_edge_logits_through_the_message_sweep():
    """Each half of the logit is moderate; their per-edge sum is +-800."""
    features = np.array([[1.0, -4.0], [2.0, 0.5]])
    neg_n = np.array([[400.0, -400.0], [-400.0, 400.0]])
    neg_s = neg_n.copy()
    messages = _gated_messages(neg_n, neg_s, features, np.array([0, 1]), np.array([0, 1]))(
        np.array([0, 1])
    )
    assert not np.isnan(messages).any()
    assert np.array_equal(messages, [[0.0, -4.0], [2.0, 0.0]])


def test_matches_expit_oracle_on_random_data():
    rng = np.random.default_rng(0)
    gate_n, gate_s, features = (rng.standard_normal((40, 16)) * 6.0 for _ in range(3))
    src = rng.integers(0, 40, size=300)
    dst = rng.integers(0, 40, size=300)
    edges = rng.permutation(300)
    messages = _gated_messages(-gate_n, -gate_s, features, src, dst)(edges)
    expected = expit(gate_n[src[edges]] + gate_s[dst[edges]]) * features[src[edges]]
    np.testing.assert_allclose(messages, expected, rtol=1e-14, atol=0)
