from __future__ import annotations

import numpy as np
import pytest

from sermtl.elm import ELMConfig, ELMFitError, ELMModel, elm_fit, elm_predict
from sermtl.nn import one_hot
from sermtl.seeding import derive_seed


def _hidden_oracle(x, config):
    rng = np.random.default_rng(derive_seed(config.seed, "elm"))
    a = rng.uniform(-1.0, 1.0, (config.n_hidden, x.shape[1]))
    bias = rng.uniform(-1.0, 1.0, config.n_hidden)
    return 1.0 / (1.0 + np.exp(-(x @ a.T + bias)))


def _normal_equation_oracle(x, y, config):
    """Independent dense solve of (H^T H + ridge I) B^T = H^T Y."""
    h = _hidden_oracle(x, config)
    gram = h.T @ h + config.ridge * np.eye(config.n_hidden)
    return np.linalg.solve(gram, h.T @ y).T


def test_fit_matches_normal_equation_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        m = int(rng.integers(8, 40))
        config = ELMConfig(n_hidden=int(rng.integers(4, 32)), ridge=1e-3, seed=trial)
        if trial % 5 == 0:
            # rank-deficient H: duplicated inputs
            base = rng.normal(size=(max(m // 3, 2), 16))
            x = np.concatenate([base] * 3, axis=0)[:m]
            m = x.shape[0]
        else:
            x = rng.normal(size=(m, 16))
        y = one_hot(rng.integers(0, 4, m), 4)
        model = elm_fit(x, y, config)
        oracle = _normal_equation_oracle(x, y, config)
        assert np.max(np.abs(model.output_weights - oracle)) < 1e-6


def test_heavy_ridge_shrinks_weights():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 16))
    y = one_hot(rng.integers(0, 4, 30), 4)
    small = elm_fit(x, y, ELMConfig(n_hidden=20, ridge=1e-3, seed=0))
    huge = elm_fit(x, y, ELMConfig(n_hidden=20, ridge=1e9, seed=0))
    assert np.linalg.norm(huge.output_weights) < 1e-4
    assert np.linalg.norm(huge.output_weights) < 1e-6 * np.linalg.norm(small.output_weights) * 1e6


def test_xor_toy_training_accuracy():
    rng = np.random.default_rng(2)
    corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    labels = np.array([0, 1, 1, 0])
    x = np.zeros((40, 16))
    y = np.zeros(40, dtype=np.int64)
    for i in range(40):
        corner = i % 4
        x[i, :2] = corners[corner] + rng.normal(0, 0.02, 2)
        y[i] = labels[corner]
    model = elm_fit(x, one_hot(y, 2), ELMConfig(n_hidden=64, ridge=1e-3, seed=3))
    _, predictions = elm_predict(model, x)
    assert np.all(predictions == y)


def test_predict_consistency_and_determinism():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 16))
    y = one_hot(rng.integers(0, 4, 20), 4)
    config = ELMConfig(n_hidden=32, seed=9)
    scores_1, labels_1 = elm_predict(elm_fit(x, y, config), x)
    scores_2, labels_2 = elm_predict(elm_fit(x, y, config), x)
    assert np.array_equal(scores_1, scores_2)
    assert np.array_equal(labels_1, labels_2)


def test_duplicating_a_training_row_keeps_its_prediction():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 16))
    labels = rng.integers(0, 4, 16)
    config = ELMConfig(n_hidden=24, seed=6)
    base = elm_fit(x, one_hot(labels, 4), config)
    _, before = elm_predict(base, x[:1])
    x_dup = np.concatenate([x, x[:1]], axis=0)
    labels_dup = np.concatenate([labels, labels[:1]])
    refit = elm_fit(x_dup, one_hot(labels_dup, 4), config)
    _, after = elm_predict(refit, x[:1])
    assert before[0] == after[0]


def test_tie_break_prefers_lowest_class():
    model = ELMModel(
        input_weights=np.zeros((4, 16)),
        input_bias=np.zeros(4),
        output_weights=np.ones((4, 4)),  # all scores identical
        config=ELMConfig(n_hidden=4),
    )
    _, labels = elm_predict(model, np.random.default_rng(0).normal(size=(5, 16)))
    assert np.all(labels == 0)


def test_width_mismatch():
    rng = np.random.default_rng(6)
    model = elm_fit(rng.normal(size=(10, 16)), one_hot(rng.integers(0, 4, 10), 4), ELMConfig())
    with pytest.raises(ValueError, match="expected"):
        elm_predict(model, rng.normal(size=(3, 8)))


def test_too_few_rows():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="at least 4"):
        elm_fit(rng.normal(size=(3, 16)), one_hot(np.array([0, 1, 2]), 4), ELMConfig())


def test_degenerate_solve_reported():
    # ridge 0 with duplicated rows and more hidden units than samples
    rng = np.random.default_rng(8)
    x = np.tile(rng.normal(size=(2, 16)), (4, 1))
    y = one_hot(rng.integers(0, 4, 8), 4)
    with pytest.raises(ELMFitError):
        elm_fit(x, y, ELMConfig(n_hidden=32, ridge=0.0, seed=1))
