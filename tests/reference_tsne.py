"""t-SNE's bandwidth search as `sermtl.tsne` ran it one row at a time, with
`np.delete` per row. Kept verbatim as the oracle for test_tsne.py, which checks
that the lockstep search gives the same affinities byte for byte. Not a test
module itself."""
from __future__ import annotations

import numpy as np

from sermtl.tsne import _BANDWIDTH_STEPS, _MIN_BANDWIDTH, _PERPLEXITY_TOL, _pairwise_sq_dists


def conditional_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    d = _pairwise_sq_dists(x)
    beta_cap = 1.0 / (2.0 * _MIN_BANDWIDTH)
    conditional = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d[i], i)
        beta = 1.0
        lo, hi = 0.0, np.inf
        p_row = None
        for _ in range(_BANDWIDTH_STEPS):
            w = np.exp(-row * beta)
            s = w.sum()
            if s <= 0.0:
                hi = beta
                beta = (lo + hi) / 2.0
                continue
            p_row = w / s
            nz = p_row[p_row > 0.0]
            entropy = -np.sum(nz * np.log(nz))
            achieved = np.exp(entropy)
            if abs(achieved - perplexity) <= _PERPLEXITY_TOL:
                break
            if achieved > perplexity:  # too flat: widen beta
                lo = beta
                beta = beta * 2.0 if not np.isfinite(hi) else (lo + hi) / 2.0
            else:
                hi = beta
                beta = (lo + hi) / 2.0
            if beta >= beta_cap:
                beta = beta_cap
                w = np.exp(-row * beta)
                s = w.sum()
                p_row = w / s if s > 0 else np.full(n - 1, 1.0 / (n - 1))
                break
        if p_row is None:
            p_row = np.full(n - 1, 1.0 / (n - 1))
        conditional[i, np.arange(n) != i] = p_row
    return conditional


def compute_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    conditional = conditional_affinities(x, perplexity)
    n = conditional.shape[0]
    joint = (conditional + conditional.T) / (2.0 * n)
    return np.maximum(joint, 0.0)
