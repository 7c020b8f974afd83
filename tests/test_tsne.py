from __future__ import annotations

import numpy as np
import pytest

from sermtl.seeding import derive_seed
from sermtl.tsne import (
    TsneConfig,
    compute_affinities,
    conditional_affinities,
    kl_and_gradient,
    kl_divergence,
    tsne_embed,
    write_embedding_csv,
    write_embedding_svg,
)


def _clusters(n_per=20, d=16, seed=0, spread=0.3, sep=6.0):
    rng = np.random.default_rng(seed)
    centers = np.zeros((3, d))
    centers[0, 0] = -sep
    centers[1, 0] = sep
    centers[2, 1] = sep
    x = np.concatenate([rng.normal(0, spread, (n_per, d)) + c for c in centers])
    labels = np.repeat(np.arange(3), n_per)
    return x, labels


class TestAffinities:
    def test_conditional_rows_sum_to_one(self):
        x, _ = _clusters(seed=1)
        p = compute_affinities(x, perplexity=12.0)
        # joint matrix sums to 1; implied conditionals were normalized per row
        assert abs(p.sum() - 1.0) < 1e-8
        assert np.all(p >= 0.0)
        assert np.allclose(np.diag(p), 0.0)

    def test_symmetry(self):
        x, _ = _clusters(seed=2)
        p = compute_affinities(x, perplexity=10.0)
        assert np.allclose(p, p.T, atol=1e-15)

    def test_conditional_rows_sum_to_one_exactly(self):
        rng = np.random.default_rng(30)
        cond = conditional_affinities(rng.normal(size=(60, 8)), perplexity=12.0)
        assert np.all(np.abs(cond.sum(axis=1) - 1.0) < 1e-8)
        assert np.all(np.diag(cond) == 0.0)

    def test_achieved_perplexity(self):
        # oracle: recompute 2^entropy for every conditional row
        rng = np.random.default_rng(3)
        x = rng.normal(size=(90, 8))
        target = 14.0
        cond = conditional_affinities(x, perplexity=target)
        for row in cond:
            nz = row[row > 0.0]
            achieved = float(np.exp(-np.sum(nz * np.log(nz))))
            assert abs(achieved - target) <= 1e-4

    def test_duplicate_points_floored(self):
        x = np.zeros((30, 4))
        x[15:] = 1.0  # two stacks of identical points
        p = compute_affinities(x, perplexity=5.0)
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-8

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3\\*perplexity"):
            compute_affinities(np.zeros((10, 3)), perplexity=10.0)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 5))
        p = compute_affinities(x, perplexity=3.0)
        y = rng.normal(size=(10, 2))
        _, grad = kl_and_gradient(p, y)
        h = 1e-6
        worst = 0.0
        for i in range(10):
            for j in range(2):
                y[i, j] += h
                kl_plus = kl_divergence(p, y)
                y[i, j] -= 2 * h
                kl_minus = kl_divergence(p, y)
                y[i, j] += h
                fd = (kl_plus - kl_minus) / (2 * h)
                rel = abs(fd - grad[i, j]) / max(abs(fd) + abs(grad[i, j]), 1e-12)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_translation_invariance_of_affinities(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        shift = x + rng.normal(size=(1, 6))
        assert np.allclose(compute_affinities(x, 8.0), compute_affinities(shift, 8.0), atol=1e-10)


class TestEmbedding:
    def test_kl_trace_properties(self):
        x, _ = _clusters(seed=6)
        config = TsneConfig(perplexity=10.0, n_iter=400, exaggeration_iters=100, seed=1)
        _, trace = tsne_embed(x, config)
        assert trace.shape == (400,)
        assert np.all(trace >= 0.0)
        assert trace[-1] < trace[config.exaggeration_iters - 1]
        tail = trace[-100:]
        assert np.all(np.diff(tail) <= 0.0)

    def test_cluster_neighborhood_agreement(self):
        x, labels = _clusters(seed=7)
        config = TsneConfig(perplexity=10.0, n_iter=500, exaggeration_iters=120, seed=2)
        y, _ = tsne_embed(x, config)
        d = np.sum((y[:, None] - y[None, :]) ** 2, axis=2)
        np.fill_diagonal(d, np.inf)
        nearest = np.argmin(d, axis=1)
        agreement = np.mean(labels[nearest] == labels)
        assert agreement >= 0.9

    def test_deterministic(self):
        x, _ = _clusters(n_per=12, seed=8)
        config = TsneConfig(perplexity=6.0, n_iter=120, exaggeration_iters=40, seed=3)
        y1, t1 = tsne_embed(x, config)
        y2, t2 = tsne_embed(x, config)
        assert np.array_equal(y1, y2)
        assert np.array_equal(t1, t2)

    def test_matches_two_kernel_loop_bitwise(self):
        """`tsne_embed` evaluates one kernel per point tried; this reference loop
        evaluates the kernel twice per iteration (gradient at the current point,
        KL at the next) through the public functions. Both must agree bit for
        bit, safeguard retries included."""
        x = np.random.default_rng(0).normal(size=(30, 4))
        config = TsneConfig(perplexity=5.0, n_iter=150, exaggeration_iters=30, seed=0)
        p = compute_affinities(x, config.perplexity, min_bandwidth=config.min_bandwidth)
        rng = np.random.default_rng(derive_seed(config.seed, "tsne"))
        y = rng.normal(0.0, config.init_std, (x.shape[0], config.out_dims))
        velocity = np.zeros_like(y)
        trace = np.empty(config.n_iter)
        retries = 0
        for it in range(config.n_iter):
            exaggerating = it < config.exaggeration_iters
            _, grad = kl_and_gradient(p * config.early_exaggeration if exaggerating else p, y)
            momentum = config.momentum_early if exaggerating else config.momentum_late
            velocity = momentum * velocity - config.learning_rate * grad
            y_next = y + velocity
            y_next = y_next - y_next.mean(axis=0)
            kl_next = kl_divergence(p, y_next)
            if not exaggerating and it > 0 and kl_next > trace[it - 1]:
                retries += 1
                y_next, kl_next = y, trace[it - 1]
                for shrink in range(1, 21):
                    candidate = y - (config.learning_rate * 0.5**shrink) * grad
                    candidate = candidate - candidate.mean(axis=0)
                    kl_candidate = kl_divergence(p, candidate)
                    if kl_candidate <= trace[it - 1]:
                        y_next, kl_next = candidate, kl_candidate
                        break
                velocity = np.zeros_like(y)
            y = y_next
            trace[it] = kl_next
        assert retries >= 1
        got_y, got_trace = tsne_embed(x, config)
        assert np.array_equal(got_y, y)
        assert np.array_equal(got_trace, trace)

    def test_out_dims_validation(self):
        with pytest.raises(ValueError):
            TsneConfig(out_dims=4)


class TestExports:
    def test_embedding_csv(self, tmp_path):
        ids = ["a", "b", "c"]
        y = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        labels = {
            "emotion": ["happy", "sad", "angry"],
            "gender": ["male_adult"] * 3,
            "naturalness": ["acted"] * 3,
            "corpus_id": ["c0"] * 3,
        }
        path = write_embedding_csv(tmp_path / "e.csv", ids, y, labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "utterance_id,x,y,emotion,gender,naturalness,corpus_id"
        assert lines[1].startswith("a,0.0,1.0,happy")

    def test_svg_scatter(self, tmp_path):
        y = np.random.default_rng(0).normal(size=(20, 2))
        emotions = ["neutral", "happy", "sad", "angry"] * 5
        path = write_embedding_svg(tmp_path / "e.svg", y, emotions)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 20
        for color in ("#2ca02c", "#ff7f0e", "#1f77b4", "#d62728"):
            assert color in text
