"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
(under plain `pytest` the prints are captured but the asserts still gate).
"""
from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gradcheck import grad_check
from sermtl import nn
from sermtl.cli import main as cli_main
from sermtl.corpus import SynthConfig, generate_synthetic
from sermtl.elm import ELMConfig, elm_fit
from sermtl.features import FEATURE_COLUMNS, extract_features
from sermtl.hlf import HLF_DIM, compute_hlf
from sermtl.metrics import _average_ranks, unweighted_accuracy, wilcoxon_signed_rank
from sermtl.mtl import MTLNetworkConfig, MultiTaskModel, TrainConfig, total_loss
from sermtl.seeding import derive_seed
from sermtl.tsne import TsneConfig, compute_affinities, kl_and_gradient, tsne_embed


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {title}")
        raise
    elapsed = time.time() - start
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"[criterion {number:02d}] PASS  {title}  ({elapsed:.1f}s)")


# -- criterion 1 -------------------------------------------------------------

def _counts_with_recalls(recalls, row_total=100):
    cm = np.zeros((4, 4), dtype=np.int64)
    for i, recall in enumerate(recalls):
        diag = int(round(recall * row_total))
        cm[i, i] = diag
        rest = row_total - diag
        others = [j for j in range(4) if j != i]
        for k, j in enumerate(others):
            cm[i, j] = rest // 3 + (1 if k < rest % 3 else 0)
    return cm


def test_criterion_01_ua_recomputation():
    reference = [
        ((0.99, 0.01, 0.18, 0.26), 0.359),
        ((0.94, 0.02, 0.70, 0.47), 0.534),
        ((0.90, 0.12, 0.65, 0.60), 0.565),
        ((0.91, 0.15, 0.84, 0.61), 0.628),
    ]
    with criterion(1, "UA recovers the rounded reference values from recall matrices", 1.0):
        for recalls, expected in reference:
            ua = unweighted_accuracy(_counts_with_recalls(recalls))
            assert abs(ua - expected) <= 0.003, (recalls, ua, expected)


# -- criterion 2 -------------------------------------------------------------

def _seeded_lstm_batch(rng, batch=4, time_steps=6):
    x = rng.normal(size=(batch, time_steps, 32))
    mask = np.ones((batch, time_steps), dtype=bool)
    mask[-1, time_steps - 2 :] = False
    targets = {
        "emotion": rng.integers(0, 4, batch),
        "gender": rng.integers(0, 4, batch),
        "naturalness": rng.integers(0, 2, batch),
    }
    return {"x": x, "mask": mask, "targets": targets}


def test_criterion_02_weighted_loss_reduction():
    with criterion(2, "weighted-total-loss reduction and bitwise STL equivalence", 10.0):
        rng = np.random.default_rng(7)
        batch = _seeded_lstm_batch(rng)

        # lambda = 0: training gradients of the shared parameters match the
        # single-task model bitwise, dropout masks included
        mtl = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8),
                                              subtask_mode="all", subtask_weight=0.0), seed=3)
        stl = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8),
                                              subtask_mode="none"), seed=3)
        stl_batch = {"x": batch["x"], "mask": batch["mask"],
                     "targets": {"emotion": batch["targets"]["emotion"]}}
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        _, _, grads_mtl = mtl.loss_and_grads(batch, dropout_p=0.5, rng=rng_a, train=True)
        _, _, grads_stl = stl.loss_and_grads(stl_batch, dropout_p=0.5, rng=rng_b, train=True)
        for name, grad in grads_stl.items():
            assert grads_mtl[name].tobytes() == grad.tobytes(), name

        # lambda = 0.1: the total equals main + 0.1 * (gender + naturalness)
        weighted = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8),
                                                   subtask_mode="all", subtask_weight=0.1), seed=3)
        losses, total, _ = weighted.loss_and_grads(batch, train=False)
        same_order = losses["emotion"] + 0.1 * losses["gender"] + 0.1 * losses["naturalness"]
        assert total == same_order
        algebraic = losses["emotion"] + 0.1 * (losses["gender"] + losses["naturalness"])
        assert abs(total - algebraic) <= 4 * np.finfo(float).eps * abs(total)
        assert total == total_loss(losses, weighted.config.heads)


# -- criterion 3 -------------------------------------------------------------

def test_criterion_03_gradient_suite():
    with criterion(3, "finite-difference agreement for every gradient path", 60.0):
        tol = 1e-4
        rng = np.random.default_rng(13)

        # dense layer
        dense = nn.DenseLayer(4, 3, "relu", rng)
        x = rng.normal(size=(5, 4))
        t = nn.one_hot(rng.integers(0, 3, 5), 3)

        def dense_loss():
            y, _ = dense.forward(x)
            return nn.softmax_xent(y, t)[0]

        y, cache = dense.forward(x)
        _, _, dlogits = nn.softmax_xent(y, t)
        _, dense_grads = dense.backward(dlogits, cache)
        assert grad_check(dense_loss, dense.parameters(), dense_grads,
                             n_samples=15, seed=1).max_rel_err < tol

        # LSTM through time, T = 7
        lstm = nn.LSTMLayer(3, 4, rng)
        head = nn.DenseLayer(4, 2, "linear", rng)
        xs = rng.normal(size=(2, 7, 3))
        ts = nn.one_hot(rng.integers(0, 2, 14), 2)

        def lstm_loss():
            h, _ = lstm.forward(xs)
            logits, _ = head.forward(h.reshape(-1, 4))
            return nn.softmax_xent(logits, ts)[0]

        h, lstm_cache = lstm.forward(xs)
        logits, head_cache = head.forward(h.reshape(-1, 4))
        _, _, dlogits = nn.softmax_xent(logits, ts)
        dh, _ = head.backward(dlogits, head_cache)
        _, lstm_grads = lstm.backward(dh.reshape(2, 7, 4), lstm_cache)
        assert grad_check(lstm_loss, lstm.parameters(), lstm_grads,
                             n_samples=40, seed=2).max_rel_err < tol

        # softmax cross-entropy with respect to its logits
        logits0 = rng.normal(size=(6, 4))
        targets0 = nn.one_hot(rng.integers(0, 4, 6), 4)
        _, _, analytic = nn.softmax_xent(logits0, targets0)
        params = {"logits": logits0}
        assert grad_check(lambda: nn.softmax_xent(logits0, targets0)[0],
                             params, {"logits": analytic},
                             n_samples=20, seed=3).max_rel_err < tol

        # full multi-task mini-models, both trunks
        for trunk, batch in (
            ("lstm", _seeded_lstm_batch(np.random.default_rng(5))),
            ("dnn", None),
        ):
            if trunk == "dnn":
                r2 = np.random.default_rng(6)
                batch = {
                    "x": r2.normal(size=(5, 800)),
                    "targets": {
                        "emotion": r2.integers(0, 4, 5),
                        "gender": r2.integers(0, 4, 5),
                        "naturalness": r2.integers(0, 2, 5),
                    },
                }
            model = MultiTaskModel(MTLNetworkConfig(trunk=trunk, layer_sizes=(8, 8),
                                                    subtask_mode="all"), seed=4, dtype=np.float64)
            _, _, grads = model.loss_and_grads(batch, train=False)
            report = grad_check(
                lambda: model.loss_and_grads(batch, train=False)[1],
                model.parameters(), grads, n_samples=60, seed=5,
            )
            assert report.max_rel_err < tol, trunk

        # t-SNE gradient of KL with respect to the embedding
        pts = np.random.default_rng(8).normal(size=(10, 5))
        p = compute_affinities(pts, perplexity=3.0)
        ys = np.random.default_rng(9).normal(size=(10, 2))
        _, grad = kl_and_gradient(p, ys)
        h = 1e-6
        worst = 0.0
        for i in range(10):
            for j in range(2):
                ys[i, j] += h
                up = kl_and_gradient(p, ys)[0]
                ys[i, j] -= 2 * h
                down = kl_and_gradient(p, ys)[0]
                ys[i, j] += h
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - grad[i, j]) / max(abs(fd) + abs(grad[i, j]), 1e-12))
        assert worst < tol


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_dimensional_contract():
    with criterion(4, "dimensional contract (32 / 800 / 16 / trunk shapes)", 1.0):
        assert len(FEATURE_COLUMNS) == 32
        tone = 0.3 * np.sin(2 * np.pi * 180 * np.arange(16000) / 16000)
        assert extract_features(tone).shape == (98, 32)

        dnn = MultiTaskModel(MTLNetworkConfig(trunk="dnn", subtask_mode="all"), seed=0)
        assert dnn.config.input_width == 800
        assert [layer.n_in for layer in dnn.trunk_layers] == [800, 256, 256]
        assert [layer.n_out for layer in dnn.trunk_layers] == [256, 256, 256]

        lstm = MultiTaskModel(MTLNetworkConfig(trunk="lstm", subtask_mode="all"), seed=0)
        assert [layer.n_hidden for layer in lstm.trunk_layers] == [256, 256]
        assert lstm.trunk_layers[0].n_in == 32

        post = np.full((9, 4), 0.25)
        assert compute_hlf(post).shape == (HLF_DIM,) == (16,)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_05_elm_oracle():
    with criterion(5, "ELM weights match an independent normal-equation solve", 10.0):
        rng = np.random.default_rng(17)
        for trial in range(20):
            config = ELMConfig(n_hidden=int(rng.integers(6, 40)), ridge=1e-3, seed=trial)
            m = int(rng.integers(10, 50))
            if trial % 4 == 0:
                base = rng.normal(size=(max(m // 3, 2), 16))
                x = np.concatenate([base] * 3, axis=0)[:m]
            else:
                x = rng.normal(size=(m, 16))
            y = nn.one_hot(rng.integers(0, 4, x.shape[0]), 4)
            model = elm_fit(x, y, config)
            # independent route: rebuild H from the same seed, plain dense solve
            orng = np.random.default_rng(derive_seed(config.seed, "elm"))
            a = orng.uniform(-1.0, 1.0, (config.n_hidden, 16))
            bias = orng.uniform(-1.0, 1.0, config.n_hidden)
            hidden = 1.0 / (1.0 + np.exp(-(x @ a.T + bias)))
            gram = hidden.T @ hidden + config.ridge * np.eye(config.n_hidden)
            oracle = np.linalg.solve(gram, hidden.T @ y).T
            assert np.max(np.abs(model.output_weights - oracle)) < 1e-6, trial


# -- criterion 6 -------------------------------------------------------------

def _enumerated_two_sided_p(diffs):
    diffs = np.asarray(diffs, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    ranks = _average_ranks(np.abs(diffs))
    w_obs = ranks[diffs > 0].sum()
    center = ranks.sum() / 2.0
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if abs(w - center) >= abs(w_obs - center) - 1e-12:
            hits += 1
    return hits / 2.0 ** len(ranks)


def test_criterion_06_wilcoxon_oracle():
    with criterion(6, "exact Wilcoxon p-values match full sign enumeration", 30.0):
        result = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert result.p_value == 0.0625

        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 13))
            diffs = rng.integers(-6, 7, n).astype(float)
            if np.all(diffs == 0.0):
                continue
            got = wilcoxon_signed_rank(diffs, np.zeros(n))
            expected = _enumerated_two_sided_p(diffs)
            assert got.p_value == pytest.approx(expected, abs=1e-12), diffs
            checked += 1


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_end_to_end_cross_corpus(tmp_path):
    with criterion(7, "synthetic cross-corpus xval reaches mean UA >= 0.70", 900.0):
        data = tmp_path / "data"
        rc = cli_main([
            "synth", "--out", str(data), "--seed", "11",
            "--corpora", "6", "--speakers", "10", "--utts", "20", "--duration", "0.8",
        ])
        assert rc == 0
        out = tmp_path / "xval"
        rc = cli_main([
            "xval", "--manifest", str(data / "manifest.csv"), "--out", str(out),
            "--protocol", "cross", "--subtasks", "all", "--trunk", "lstm",
            "--layer-sizes", "32,32", "--max-epochs", "15", "--patience", "4",
            "--seed", "0",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 6
        assert all(fold["error"] is None for fold in report["folds"])
        assert report["mean_ua"] >= 0.70, report["mean_ua"]


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_configuration_grid(tmp_path):
    with criterion(8, "all eight trunk/subtask configurations over six folds", 2700.0):
        data = tmp_path / "data"
        rc = cli_main([
            "synth", "--out", str(data), "--seed", "5",
            "--corpora", "6", "--speakers", "3", "--utts", "8", "--duration", "0.6",
        ])
        assert rc == 0
        out = tmp_path / "grid"
        rc = cli_main([
            "xval", "--manifest", str(data / "manifest.csv"), "--out", str(out),
            "--protocol", "cross", "--grid", "--trunk", "lstm",
            "--layer-sizes", "16,16", "--max-epochs", "8", "--patience", "3",
            "--window-stride", "2", "--seed", "0",
        ])
        assert rc == 0
        grid = json.loads((out / "grid_report.json").read_text())
        assert len(grid["config_names"]) == 8
        assert len(grid["test_groups"]) == 6
        assert grid["errors"] == {}
        for name in grid["config_names"]:
            assert grid["mean_ua"][name] is not None
            for group in grid["test_groups"]:
                assert grid["ua_table"][name][group] is not None
        csv_lines = (out / "grid_report.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 6 + 1  # header, six groups, mean row


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_tsne_sanity():
    with criterion(9, "t-SNE separates three clusters with a descending KL tail", 60.0):
        rng = np.random.default_rng(31)
        centers = np.zeros((3, 16))
        centers[0, 0], centers[1, 1], centers[2, 2] = 8.0, 8.0, 8.0
        x = np.concatenate([rng.normal(0, 0.4, (20, 16)) + c for c in centers])
        labels = np.repeat(np.arange(3), 20)
        config = TsneConfig(perplexity=10.0, n_iter=1000, seed=2)
        y, trace = tsne_embed(x, config)
        d = np.sum((y[:, None] - y[None, :]) ** 2, axis=2)
        np.fill_diagonal(d, np.inf)
        agreement = float(np.mean(labels[np.argmin(d, axis=1)] == labels))
        assert agreement >= 0.9, agreement
        assert np.all(np.diff(trace[-100:]) <= 0.0)
        assert trace[-1] < trace[config.exaggeration_iters - 1]


# -- criterion 10 ------------------------------------------------------------

def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical seeds reproduce every artifact byte for byte", 600.0):
        synth_args = ["--seed", "3", "--corpora", "2", "--speakers", "2",
                      "--utts", "8", "--duration", "0.6"]
        for name in ("d1", "d2"):
            assert cli_main(["synth", "--out", str(tmp_path / name)] + synth_args) == 0
        assert _tree_bytes(tmp_path / "d1") == _tree_bytes(tmp_path / "d2")

        manifest = str(tmp_path / "d1" / "manifest.csv")
        train_args = ["--manifest", manifest, "--trunk", "lstm", "--layer-sizes", "8,8",
                      "--subtasks", "all", "--max-epochs", "2", "--patience", "1",
                      "--seed", "7"]
        for name in ("t1", "t2"):
            assert cli_main(["train", "--out", str(tmp_path / name)] + train_args) == 0
        assert sorted(_tree_bytes(tmp_path / "t1")) == [
            "config.json", "features.npy", "features_index.csv", "history.csv", "model.ckpt"]
        assert _tree_bytes(tmp_path / "t1") == _tree_bytes(tmp_path / "t2")

        xval_args = ["--manifest", manifest, "--protocol", "cross", "--trunk", "lstm",
                     "--subtasks", "all", "--layer-sizes", "8,8", "--max-epochs", "2",
                     "--patience", "1", "--seed", "5"]
        for name in ("x1", "x2"):
            assert cli_main(["xval", "--out", str(tmp_path / name)] + xval_args) == 0
        assert _tree_bytes(tmp_path / "x1") == _tree_bytes(tmp_path / "x2")

        for name in ("h1.csv", "h2.csv"):
            assert cli_main(["hlf", "--model", str(tmp_path / "t1" / "model.ckpt"),
                             "--manifest", manifest, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()

        hlf_csv = tmp_path / "h1.csv"
        for name in ("elm1.json", "elm2.json"):
            assert cli_main(["elm", "--hlf", str(hlf_csv), "--eval", str(tmp_path / "h2.csv"),
                             "--out", str(tmp_path / name), "--seed", "4"]) == 0
        assert (tmp_path / "elm1.json").read_bytes() == (tmp_path / "elm2.json").read_bytes()

        for name in ("e1.csv", "e2.csv"):
            assert cli_main(["embed", "--input", str(hlf_csv), "--out", str(tmp_path / name),
                             "--seed", "2", "--perplexity", "6", "--iters", "150"]) == 0
        assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()
