"""Extreme learning machine over utterance-level features: a frozen random
sigmoid hidden layer plus ridge-regularized least-squares output weights.
A model is fitted and scored in one run, and is never saved."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed


class ELMFitError(RuntimeError):
    """Raised when the output-weight solve is degenerate."""


@dataclass(frozen=True)
class ELMConfig:
    n_hidden: int = 120
    ridge: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")


@dataclass
class ELMModel:
    input_weights: np.ndarray  # (n_hidden, n_in), random and frozen
    input_bias: np.ndarray  # (n_hidden,)
    output_weights: np.ndarray  # (n_classes, n_hidden), learned
    config: ELMConfig

    @property
    def n_in(self) -> int:
        return self.input_weights.shape[1]


def _hidden(model_or_weights, bias, x):
    z = x @ model_or_weights.T + bias
    return 1.0 / (1.0 + np.exp(-z))


def elm_fit(x: np.ndarray, y_onehot: np.ndarray, config: ELMConfig) -> ELMModel:
    """Fit output weights by ridge-regularized normal equations.

    Solves (H^T H + ridge I) B^T = H^T Y by its Cholesky factor L, one solve
    against L and one against L^T, where H is the random sigmoid hidden
    activation of X.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y_onehot, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("X and Y must be 2-D with matching row counts")
    if x.shape[0] < 4:
        raise ValueError(f"need at least 4 training rows, got {x.shape[0]}")
    rng = np.random.default_rng(derive_seed(config.seed, "elm"))
    a = rng.uniform(-1.0, 1.0, (config.n_hidden, x.shape[1]))
    bias = rng.uniform(-1.0, 1.0, config.n_hidden)
    h = _hidden(a, bias, x)
    gram = h.T @ h + config.ridge * np.eye(config.n_hidden)
    try:
        factor = np.linalg.cholesky(gram)
        b_t = np.linalg.solve(factor.T, np.linalg.solve(factor, h.T @ y))
    except np.linalg.LinAlgError as exc:
        raise ELMFitError(f"degenerate output-weight solve: {exc}") from exc
    if not np.all(np.isfinite(b_t)):
        raise ELMFitError("degenerate output-weight solve: non-finite weights")
    return ELMModel(input_weights=a, input_bias=bias, output_weights=b_t.T, config=config)


def elm_predict(model: ELMModel, x: np.ndarray):
    """Scores and argmax labels; score ties break toward the lowest class index."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_in:
        raise ValueError(f"expected (m, {model.n_in}) inputs, got {x.shape}")
    scores = _hidden(model.input_weights, model.input_bias, x) @ model.output_weights.T
    return scores, np.argmax(scores, axis=1)
