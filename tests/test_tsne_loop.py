"""t-SNE's optimizer workspace and lockstep bandwidth search against the
formulas and the per-row search they replaced."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sermtl import tsne
from sermtl.tsne import KlWorkspace, TsneConfig, compute_affinities, kl_and_gradient, tsne_embed

import reference_tsne as reference


def _textbook(p, y):
    """w, q, KL(P||Q) and its gradient straight from their definitions."""
    diff = y[:, None, :] - y[None, :, :]
    w = 1.0 / (1.0 + np.sum(diff**2, axis=2))
    np.fill_diagonal(w, 0.0)
    q = np.maximum(w / w.sum(), tsne._Q_FLOOR)
    mask = p > 0.0
    kl = np.sum(p[mask] * np.log(p[mask] / q[mask]))
    grad = 4.0 * np.sum(((p - q) * w)[:, :, None] * diff, axis=1)
    return w, q, kl, grad


def _sparse_joint(n, rng):
    """A symmetric joint P with exact zeros off the diagonal."""
    a = rng.random((n, n))
    a[a < 0.4] = 0.0
    p = a + a.T
    np.fill_diagonal(p, 0.0)
    return p / p.sum()


def test_workspace_matches_the_textbook_formulas():
    rng = np.random.default_rng(18)
    n = 40
    p = _sparse_joint(n, rng)
    y = rng.normal(size=(n, 2))
    y[5] = y[6] = y[4]  # duplicate rows
    y[7] = (1e5, 0.0)  # far enough that q takes its floor
    y[8] = (0.0, -3e5)
    ws = KlWorkspace(p)
    assert np.any(p[~np.eye(n, dtype=bool)] == 0.0)
    for p_grad in (None, p * tsne._EARLY_EXAGGERATION):
        kl, grad = kl_and_gradient(p, y, ws, p_grad)
        w, q, kl_ref, _ = _textbook(p, y)
        grad_ref = _textbook(p if p_grad is None else p_grad, y)[3]
        assert np.any(w / w.sum() < tsne._Q_FLOOR)
        np.testing.assert_allclose(ws.w, w, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ws.q, q, rtol=1e-12, atol=0.0)
        assert abs(kl - kl_ref) <= 1e-12 * abs(kl_ref)
        np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=0.0)


def test_workspace_of_another_p_is_refused():
    rng = np.random.default_rng(20)
    p = _sparse_joint(10, rng)
    with pytest.raises(ValueError, match="another P"):
        kl_and_gradient(p.copy(), rng.normal(size=(10, 2)), KlWorkspace(p))


def _search_inputs():
    rng = np.random.default_rng(21)
    stacks = np.zeros((30, 4))
    stacks[15:] = 1.0  # two stacks of identical points: every row hits the bandwidth cap
    mixed = rng.normal(size=(90, 5))
    mixed[10:20] = mixed[10]  # duplicates
    mixed[40] = 1e3  # every weight of its row underflows at the first beta
    mixed[60:75] += 40.0  # a far cluster: rows whose affinities underflow in part
    return [(stacks, 5.0), (mixed, 8.0), (rng.normal(size=(300, 16)), 30.0)]


@pytest.mark.parametrize("block", [None, 7])
def test_lockstep_search_equals_the_per_row_search_bytewise(block, monkeypatch):
    for x, perplexity in _search_inputs():
        if block is not None:  # blocks of `block` rows, the last one short
            monkeypatch.setattr(tsne, "_SEARCH_BLOCK", block * x.shape[0])
        got = compute_affinities(x, perplexity)
        assert got.tobytes() == reference.compute_affinities(x, perplexity).tobytes()


def test_loop_allocates_no_n_by_n_array(monkeypatch):
    """After the affinities, the optimizer holds the exaggerated P and the
    workspace's three buffers, and allocates no other n x n array."""
    n = 200
    x = np.random.default_rng(22).normal(size=(n, 8))
    affinities = tsne.compute_affinities
    base = {}

    def marked(*args):
        p = affinities(*args)
        base["bytes"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return p

    monkeypatch.setattr(tsne, "compute_affinities", marked)
    tracemalloc.start()
    try:
        _, trace = tsne_embed(x, TsneConfig(perplexity=10.0, n_iter=80, exaggeration_iters=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pair = 8 * n * n
    assert np.all(np.isfinite(trace))
    # four float64 n x n arrays and KlWorkspace's one-off n x n bool mask; one
    # more n x n float64 array would cross the bound
    assert peak - base["bytes"] < 4.5 * pair


def test_row_entropies_round_as_each_row_alone():
    rng = np.random.default_rng(23)
    p = rng.random((50, 257)) * (rng.random((50, 257)) < rng.random((50, 1)))
    p[3] = 0.0
    p[3, 9] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    got = tsne._row_entropies(p)
    for row, entropy in zip(p, got):
        nz = row[row > 0.0]
        assert entropy == -np.sum(nz * np.log(nz))


@pytest.mark.parametrize("poisoned_iterations", [1, 2])
def test_loop_stops_at_the_second_rejection_in_a_row(monkeypatch, poisoned_iterations):
    """From the first iteration after exaggeration, every point tried reports a
    higher KL for ``poisoned_iterations`` iterations (one main step and 20
    retries each). One rejection leaves the loop running; a second in a row
    freezes the embedding, so the loop stops evaluating and the rest of the
    trace repeats the last accepted KL."""
    x = np.random.default_rng(24).normal(size=(30, 5))
    config = TsneConfig(perplexity=5.0, n_iter=60, exaggeration_iters=20, seed=4)
    honest = 1 + config.exaggeration_iters  # the first evaluation and one per iteration
    poisoned = 21 * poisoned_iterations
    evaluate = tsne.kl_and_gradient
    calls, last_accepted = [], {}

    def spy(p, y, workspace, p_grad=None):
        kl, grad = evaluate(p, y, workspace, p_grad)
        calls.append(kl)
        if len(calls) <= honest:
            last_accepted.update(y=y.copy(), kl=kl)
        elif len(calls) <= honest + poisoned:
            kl += 1.0
        return kl, grad

    monkeypatch.setattr(tsne, "kl_and_gradient", spy)
    y, trace = tsne_embed(x, config)
    start = config.exaggeration_iters
    if poisoned_iterations == 1:
        assert len(calls) > honest + poisoned + 1  # the loop went on
        assert trace[start] == last_accepted["kl"]
        assert not np.array_equal(y, last_accepted["y"])
    else:
        assert len(calls) == honest + poisoned
        assert np.all(trace[start - 1:] == last_accepted["kl"])
        assert np.array_equal(y, last_accepted["y"])
