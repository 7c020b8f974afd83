from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_batches as reference
from sermtl import nn
from sermtl.features import FeatureStore
from sermtl.mtl import (
    POSTERIOR_BLOCK_ROWS,
    MTLNetworkConfig,
    MultiTaskModel,
    TrainConfig,
    TrainingDivergedError,
    _batches,
    _sample_index,
    save_model,
    load_model,
    total_loss,
    train,
    write_history_csv,
)


def _blob_dataset(n_utts=24, n_frames=30, seed=0, scale=2.0):
    """Features whose class structure is trivially separable: each task label
    shifts a disjoint block of feature dimensions."""
    rng = np.random.default_rng(seed)
    matrices = []
    labels = {"emotion": [], "gender": [], "naturalness": []}
    for i in range(n_utts):
        emotion, gender, nat = i % 4, (i // 4) % 4, (i // 2) % 2
        mean = np.zeros(32)
        mean[emotion] = scale
        mean[8 + gender] = scale
        mean[16 + nat] = scale
        matrices.append(rng.normal(0.0, 0.3, (n_frames, 32)) + mean)
        for task, value in zip(labels, (emotion, gender, nat)):
            labels[task].append(value)
    return FeatureStore.pack([f"u{i:03d}" for i in range(n_utts)], matrices, labels)


def _split(data, k):
    """The first ``k`` utterances of ``data`` and the rest."""
    return data.select(range(k)), data.select(range(k, len(data)))


def _one(model, x):
    """The posteriors of one utterance, scored as a block of one."""
    return model.emotion_posteriors(x, [len(x)])[0]


def _per_utterance(model, x):
    """Reference posteriors of one utterance from the layers' own forward passes in
    float64: the LSTM trunk over it as one (1, T, n) sequence, the DNN trunk over
    all its context windows at once, then the emotion head and a softmax."""
    trunk = [nn.with_dtype(layer, np.float64) for layer in model.trunk_layers]
    head = nn.with_dtype(model.heads["emotion"], np.float64)
    if model.config.trunk == "lstm":
        h = x[None]
        for layer in trunk:
            h, _ = layer.forward(h)
        h = h[0]
    else:
        h = np.lib.stride_tricks.sliding_window_view(x, (model.config.context_frames, x.shape[1]))
        h = h[:, 0].reshape(-1, model.config.input_width)
        for layer in trunk:
            h, _ = layer.forward(h)
    logits, _ = head.forward(h)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestBuildModel:
    def test_lstm_all_topology(self):
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", subtask_mode="all"), seed=0)
        assert len(model.trunk_layers) == 2
        assert all(layer.n_hidden == 256 for layer in model.trunk_layers)
        assert {name: head.n_out for name, head in model.heads.items()} == {
            "emotion": 4, "gender": 4, "naturalness": 2,
        }

    def test_dnn_input_width(self):
        model = MultiTaskModel(MTLNetworkConfig(trunk="dnn", subtask_mode="all"), seed=0)
        assert model.config.input_width == 800
        assert model.trunk_layers[0].n_in == 800
        assert [l.n_out for l in model.trunk_layers] == [256, 256, 256]

    def test_stl_single_head(self):
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", subtask_mode="none"), seed=0)
        assert list(model.heads) == ["emotion"]

    def test_unknown_trunk(self):
        with pytest.raises(ValueError, match="trunk"):
            MTLNetworkConfig(trunk="cnn")


class TestTotalLoss:
    HEADS = MTLNetworkConfig(trunk="lstm", subtask_mode="all", subtask_weight=0.1).heads

    def test_weighted_sum(self):
        value = total_loss({"emotion": 1.0, "gender": 2.0, "naturalness": 3.0}, self.HEADS)
        assert value == pytest.approx(1.5, abs=1e-15)

    def test_zero_weights_reduce_to_main(self):
        heads = MTLNetworkConfig(trunk="lstm", subtask_mode="all", subtask_weight=0.0).heads
        value = total_loss({"emotion": 0.73, "gender": 9.0, "naturalness": 4.0}, heads)
        assert value == 0.73

    def test_monotone_in_subtask_losses(self):
        base = total_loss({"emotion": 1.0, "gender": 2.0, "naturalness": 3.0}, self.HEADS)
        bumped = total_loss({"emotion": 1.0, "gender": 2.5, "naturalness": 3.0}, self.HEADS)
        assert bumped > base

    def test_missing_task_error(self):
        with pytest.raises(ValueError, match="missing loss"):
            total_loss({"emotion": 1.0}, self.HEADS)


def _lstm_batch(rng, batch=3, time=6):
    x = rng.normal(size=(batch, time, 32))
    mask = np.ones((batch, time), dtype=bool)
    mask[-1, time - 2 :] = False
    targets = {
        "emotion": rng.integers(0, 4, batch),
        "gender": rng.integers(0, 4, batch),
        "naturalness": rng.integers(0, 2, batch),
    }
    return {"x": x, "mask": mask, "targets": targets}


class TestSTLEquivalence:
    def test_zero_lambda_gradients_match_stl_bitwise(self):
        rng = np.random.default_rng(42)
        batch = _lstm_batch(rng)
        mtl = MultiTaskModel(
            MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8), subtask_mode="all", subtask_weight=0.0),
            seed=5,
        )
        stl = MultiTaskModel(
            MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8), subtask_mode="none"),
            seed=5,
        )
        stl_batch = {"x": batch["x"], "mask": batch["mask"],
                     "targets": {"emotion": batch["targets"]["emotion"]}}
        losses_mtl, _, grads_mtl = mtl.loss_and_grads(batch, train=False)
        losses_stl, _, grads_stl = stl.loss_and_grads(stl_batch, train=False)
        assert losses_mtl["emotion"] == losses_stl["emotion"]
        for name, grad in grads_stl.items():
            assert grads_mtl[name].tobytes() == grad.tobytes(), name

    def test_shared_initialization(self):
        mtl = MultiTaskModel(MTLNetworkConfig(trunk="dnn", layer_sizes=(8,), subtask_mode="all"), seed=3)
        stl = MultiTaskModel(MTLNetworkConfig(trunk="dnn", layer_sizes=(8,), subtask_mode="none"), seed=3)
        shared = stl.parameters()
        for name, arr in shared.items():
            assert np.array_equal(mtl.parameters()[name], arr)

    def test_eval_mode_ignores_dropout(self):
        batch = _lstm_batch(np.random.default_rng(3))
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8)), seed=5)
        losses_a, total_a, grads_a = model.loss_and_grads(batch, dropout_p=0.5, train=False)
        losses_b, total_b, grads_b = model.loss_and_grads(batch, dropout_p=0.0, train=False)
        assert losses_a == losses_b and total_a == total_b
        for name, grad in grads_b.items():
            assert grads_a[name].tobytes() == grad.tobytes(), name

    def test_lambda_linearity(self):
        rng = np.random.default_rng(1)
        batch = _lstm_batch(rng)
        losses = None
        totals = {}
        for weight in (0.0, 0.1, 0.2):
            model = MultiTaskModel(
                MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8), subtask_mode="all",
                                 subtask_weight=weight),
                seed=5,
            )
            got, total, _ = model.loss_and_grads(batch, train=False)
            losses = got
            totals[weight] = total
        slope = losses["gender"] + losses["naturalness"]
        assert totals[0.1] == pytest.approx(totals[0.0] + 0.1 * slope, rel=1e-12)
        assert totals[0.2] == pytest.approx(totals[0.0] + 0.2 * slope, rel=1e-12)


def _dnn_batch(rng, batch=5):
    targets = {
        "emotion": rng.integers(0, 4, batch),
        "gender": rng.integers(0, 4, batch),
        "naturalness": rng.integers(0, 2, batch),
    }
    return {"x": rng.normal(size=(batch, 800)), "targets": targets}


def _mini_batch(trunk, rng):
    return _lstm_batch(rng) if trunk == "lstm" else _dnn_batch(rng)


class TestDtypes:
    CONFIGS = {trunk: MTLNetworkConfig(trunk=trunk, layer_sizes=(8, 8), subtask_mode="all")
               for trunk in ("lstm", "dnn")}

    @pytest.mark.parametrize("trunk", ["lstm", "dnn"])
    def test_float32_training_stays_float32(self, trunk):
        model = MultiTaskModel(self.CONFIGS[trunk], seed=2)
        assert model.dtype == np.float32
        params = model.parameters()
        assert all(arr.dtype == np.float32 for arr in params.values())
        batch = _mini_batch(trunk, np.random.default_rng(7))
        batch["x"] = batch["x"].astype(np.float32)
        with model.gradient_vector() as grad:
            _, _, grads = model.loss_and_grads(batch, dropout_p=0.5, rng=np.random.default_rng(8))
            assert set(grads) == set(params)
            for name, g in grads.items():
                assert g.dtype == np.float32, name
            adam = nn.AdamState(np.zeros_like(grad), np.zeros_like(grad))
            nn.clip_global_norm(grads, 1e-3)
            nn.adam_step(adam, model.vector, grad)
        assert model.vector.dtype == adam.m.dtype == adam.v.dtype == np.float32
        for name, arr in model.parameters().items():
            assert arr.dtype == np.float32, name

    @pytest.mark.parametrize("trunk", ["lstm", "dnn"])
    def test_float32_gradients_match_float64(self, trunk):
        small = MultiTaskModel(self.CONFIGS[trunk], seed=2)
        wide = MultiTaskModel(self.CONFIGS[trunk], seed=2, dtype=np.float64)
        for name, arr in wide.parameters().items():
            assert np.array_equal(arr.astype(np.float32), small.parameters()[name]), name
            arr[...] = small.parameters()[name]
        batch = _mini_batch(trunk, np.random.default_rng(9))
        batch["x"] = batch["x"].astype(np.float32).astype(np.float64)
        _, _, got = small.loss_and_grads(batch, dropout_p=0.5, rng=np.random.default_rng(10))
        _, _, want = wide.loss_and_grads(batch, dropout_p=0.5, rng=np.random.default_rng(10))
        for name, grad in want.items():
            scale = np.max(np.abs(grad))
            if scale == 0.0:
                assert not np.any(got[name]), name
                continue
            assert np.max(np.abs(got[name] - grad)) / scale < 1e-4, name

    @pytest.mark.parametrize("trunk", ["lstm", "dnn"])
    def test_float32_model_scores_in_float64(self, trunk):
        config = MTLNetworkConfig(trunk=trunk, layer_sizes=(8,), context_frames=0 if trunk == "lstm" else 5)
        model = MultiTaskModel(config, seed=4)
        wide = MultiTaskModel(config, seed=4, dtype=np.float64)
        for name, arr in wide.parameters().items():
            arr[...] = model.parameters()[name]
        feats = np.random.default_rng(11).normal(size=(12, 32))
        got = _one(model, feats)
        assert got.dtype == np.float64
        assert np.array_equal(got, _one(wide, feats))
        assert all(arr.dtype == np.float32 for arr in model.parameters().values())


class TestBatchLosses:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trunk", ["lstm", "dnn"])
    def test_equal_eval_mode_loss_and_grads(self, trunk, dtype):
        model = MultiTaskModel(TestDtypes.CONFIGS[trunk], seed=3, dtype=dtype)
        batch = _mini_batch(trunk, np.random.default_rng(12))
        batch["x"] = batch["x"].astype(dtype)
        want, _, _ = model.loss_and_grads(batch, dropout_p=0.5, rng=None, train=False)
        assert model.batch_losses(batch) == want


class TestTrainConfig:
    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1])
    def test_dropout_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="dropout_p"):
            TrainConfig(dropout_p=p)

    def test_dropout_bounds_accepted(self):
        assert TrainConfig(dropout_p=0.0).dropout_p == 0.0
        assert TrainConfig(dropout_p=0.99).dropout_p == 0.99


class TestTraining:
    def _quick_tc(self, seed=11, **kwargs):
        defaults = dict(batch_size=16, max_epochs=4, patience=2, seed=seed,
                        dropout_p=0.5, lr=3e-3)
        defaults.update(kwargs)
        return TrainConfig(**defaults)

    def test_deterministic_runs(self, tmp_path):
        data = _blob_dataset()
        cfg = MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8), subtask_mode="all")
        outputs = []
        for run in range(2):
            model = MultiTaskModel(cfg, seed=11)
            trained = train(model, *_split(data, 18), self._quick_tc(seed=11))
            path = save_model(tmp_path / f"m{run}.ckpt", trained)
            hist = write_history_csv(tmp_path / f"h{run}.csv", trained.history, cfg.heads)
            outputs.append((path.read_bytes(), hist.read_text()))
        assert outputs[0] == outputs[1]

    def test_best_epoch_restoration(self):
        data = _blob_dataset()
        cfg = MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8), subtask_mode="all")
        model = MultiTaskModel(cfg, seed=2)
        trained = train(model, *_split(data, 18), self._quick_tc(seed=2, max_epochs=6, patience=3))
        vals = [row.val_total for row in trained.history]
        assert trained.best_val_total == min(vals)
        assert vals[trained.best_epoch] == trained.best_val_total
        for later in vals[trained.best_epoch + 1 :]:
            assert trained.best_val_total <= later

    def test_learns_separable_set(self):
        data = _blob_dataset(n_utts=32, seed=4)
        cfg = MTLNetworkConfig(trunk="lstm", layer_sizes=(32, 32), subtask_mode="all")
        model = MultiTaskModel(cfg, seed=4)
        tc = TrainConfig(batch_size=16, max_epochs=30, patience=29, seed=4, dropout_p=0.2)
        trained = train(model, *_split(data, 24), tc)
        hits = total = 0
        for i in range(24):
            post = _one(trained.model, data.rows(i))
            hits += int(np.sum(post.argmax(axis=1) == data.labels["emotion"][i]))
            total += post.shape[0]
        assert hits / total >= 0.95

    def test_divergence_aborts_with_diagnostic(self):
        data = _blob_dataset()
        cfg = MTLNetworkConfig(trunk="dnn", layer_sizes=(8, 8), subtask_mode="none", context_frames=5)
        model = MultiTaskModel(cfg, seed=1)
        tc = TrainConfig(batch_size=16, max_epochs=5, patience=2, seed=1,
                         lr=1e150, clip_norm=0.0, dropout_p=0.0)
        with np.errstate(all="ignore"), pytest.raises((TrainingDivergedError, nn.NumericsError)):
            train(model, *_split(data, 18), tc)

    def test_empty_sets_rejected(self):
        data = _blob_dataset()
        cfg = MTLNetworkConfig(trunk="lstm", layer_sizes=(4,), subtask_mode="none")
        model = MultiTaskModel(cfg, seed=0)
        with pytest.raises(ValueError):
            train(model, data, data.select([]), self._quick_tc())


class TestPosteriors:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8)), seed=6)
        post = _one(model, rng.normal(size=(40, 32)))
        assert post.shape == (40, 4)
        assert np.all(np.abs(post.sum(axis=1) - 1.0) < 1e-6)

    def test_dnn_window_count(self):
        rng = np.random.default_rng(7)
        model = MultiTaskModel(MTLNetworkConfig(trunk="dnn", layer_sizes=(8,)), seed=7)
        post = _one(model, rng.normal(size=(98, 32)))
        assert post.shape == (74, 4)

    def test_dnn_too_few_frames(self):
        model = MultiTaskModel(MTLNetworkConfig(trunk="dnn", layer_sizes=(8,)), seed=7)
        with pytest.raises(ValueError, match="too few frames"):
            _one(model, np.zeros((10, 32)))

    def test_zero_head_gives_uniform(self):
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8)), seed=8)
        model.heads["emotion"].w[:] = 0.0
        model.heads["emotion"].b[:] = 0.0
        post = _one(model, np.random.default_rng(0).normal(size=(12, 32)))
        assert np.allclose(post, 0.25)

    def test_subtask_heads_do_not_touch_inference(self):
        rng = np.random.default_rng(9)
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8), subtask_mode="all"), seed=9)
        feats = rng.normal(size=(20, 32))
        before = _one(model, feats).tobytes()
        model.heads["gender"].w[:] = 0.0
        model.heads["naturalness"].b[:] = 123.0
        after = _one(model, feats).tobytes()
        assert before == after


_BLOCK_MODELS = {
    "lstm": MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 6)), seed=12),
    "dnn": MultiTaskModel(MTLNetworkConfig(trunk="dnn", layer_sizes=(8,), context_frames=5), seed=13),
}
_MIN_FRAMES = {"lstm": 1, "dnn": 5}


def _block_lengths(trunk):
    low = _MIN_FRAMES[trunk]
    lengths = st.integers(low, low + 39)
    if trunk == "dnn":  # blocks that cross POSTERIOR_BLOCK_ROWS windows, and utterances that alone exceed it
        lengths |= st.integers(low + POSTERIOR_BLOCK_ROWS - 8, low + POSTERIOR_BLOCK_ROWS + 8)
    return st.lists(lengths, min_size=1, max_size=9)


def _utterances(seed, lengths):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, 32)) for n in lengths]


class TestBlockPosteriors:
    @pytest.mark.parametrize("trunk", ["lstm", "dnn"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_block_equals_per_utterance(self, trunk, data, seed):
        model = _BLOCK_MODELS[trunk]
        lengths = data.draw(_block_lengths(trunk))
        utts = _utterances(seed, lengths)
        block = model.emotion_posteriors(np.concatenate(utts), lengths)
        assert len(block) == len(utts)
        for got, utt in zip(block, utts):
            np.testing.assert_allclose(got, _per_utterance(model, utt), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trunk", ["lstm", "dnn"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_block_order_does_not_matter(self, trunk, data, seed):
        model = _BLOCK_MODELS[trunk]
        lengths = data.draw(_block_lengths(trunk))
        perm = data.draw(st.permutations(range(len(lengths))))
        utts = _utterances(seed, lengths)
        block = model.emotion_posteriors(np.concatenate(utts), lengths)
        permuted = model.emotion_posteriors(np.concatenate([utts[i] for i in perm]),
                                            [lengths[i] for i in perm])
        for got, i in zip(permuted, perm):
            np.testing.assert_allclose(got, block[i], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("windows", [
        [POSTERIOR_BLOCK_ROWS], [POSTERIOR_BLOCK_ROWS + 1], [POSTERIOR_BLOCK_ROWS - 1, 1, 1],
        [30] * 10, [3, 2 * POSTERIOR_BLOCK_ROWS, 3],
    ])
    def test_dnn_blocks_at_the_row_limit(self, windows):
        model = _BLOCK_MODELS["dnn"]
        lengths = [w + _MIN_FRAMES["dnn"] - 1 for w in windows]
        utts = _utterances(len(windows), lengths)
        block = model.emotion_posteriors(np.concatenate(utts), lengths)
        assert [len(p) for p in block] == windows
        for got, utt in zip(block, utts):
            np.testing.assert_allclose(got, _per_utterance(model, utt), rtol=0, atol=1e-12)

    def test_dnn_block_with_short_utterance_raises(self):
        utts = _utterances(0, [30, 4, 12])
        with pytest.raises(ValueError, match="too few frames for DNN context"):
            _BLOCK_MODELS["dnn"].emotion_posteriors(np.concatenate(utts), [30, 4, 12])

    @pytest.mark.parametrize("lengths, named", [
        ([], "non-empty"), ([0, 10], "positive"), ([4, 5], "sum to 9, features have 10 rows"),
    ])
    def test_bad_lengths_rejected(self, lengths, named):
        with pytest.raises(ValueError, match=named):
            _BLOCK_MODELS["lstm"].emotion_posteriors(np.zeros((10, 32)), lengths)


class TestModelCheckpoint:
    def test_round_trip(self, tmp_path):
        data = _blob_dataset(n_utts=12, n_frames=10)
        cfg = MTLNetworkConfig(trunk="lstm", layer_sizes=(6, 6), subtask_mode="gender")
        model = MultiTaskModel(cfg, seed=3)
        tc = TrainConfig(batch_size=8, max_epochs=2, patience=1, seed=3)
        trained = train(model, *_split(data, 9), tc)
        extra = {"standardizer.mean": np.arange(32.0), "standardizer.std": np.ones(32)}
        path = save_model(tmp_path / "m.ckpt", trained, extra_params=extra)
        loaded, header, extras = load_model(path)
        assert header["network"]["trunk"] == "lstm"
        assert header["best_epoch"] == trained.best_epoch
        assert set(extras) == {"standardizer.mean", "standardizer.std"}
        for name, arr in trained.model.parameters().items():
            assert np.array_equal(loaded.parameters()[name], arr.astype(np.float32))
        # float32 round trip keeps posteriors close
        feats = np.random.default_rng(0).normal(size=(15, 32))
        a = _one(trained.model, feats)
        b = _one(loaded, feats)
        assert np.allclose(a, b, atol=1e-5)

    @pytest.mark.parametrize("config", [
        MTLNetworkConfig(trunk="lstm", layer_sizes=(6, 6), subtask_mode="all"),
        MTLNetworkConfig(trunk="dnn", layer_sizes=(8, 8), context_frames=5, subtask_mode="all"),
    ], ids=["lstm", "dnn"])
    def test_reloaded_model_scores_exactly(self, tmp_path, config):
        data = _blob_dataset(n_utts=12, n_frames=10)
        trained = train(MultiTaskModel(config, seed=3), *_split(data, 9),
                        TrainConfig(batch_size=8, max_epochs=2, patience=1, seed=3))
        loaded, _, _ = load_model(save_model(tmp_path / "m.ckpt", trained))
        assert loaded.dtype == np.float64
        rng = np.random.default_rng(1)
        utts = [rng.normal(size=(n, 32)) for n in (15, 9, 12)]
        for utt in utts:
            assert np.array_equal(_one(loaded, utt), _one(trained.model, utt))
        lengths = [u.shape[0] for u in utts]
        block = np.concatenate(utts)
        for got, want in zip(loaded.emotion_posteriors(block, lengths),
                             trained.model.emotion_posteriors(block, lengths)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("edit, named", [
        (lambda net: net.update(context_frame=11), "unknown key 'context_frame'"),
        (lambda net: net.pop("n_features"), "missing key 'n_features'"),
    ])
    def test_network_header_keys_checked(self, tmp_path, edit, named):
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(4,)), seed=1)
        trained = train(model, *_split(_blob_dataset(n_utts=6, n_frames=8), 4),
                        TrainConfig(batch_size=8, max_epochs=2, patience=1))
        params, header = nn.load_checkpoint(save_model(tmp_path / "m.ckpt", trained))
        edit(header["network"])
        nn.save_checkpoint(tmp_path / "bad.ckpt", params, header)
        with pytest.raises(ValueError, match=named):
            load_model(tmp_path / "bad.ckpt")


# ---------------------------------------------------------------------------
# Gather batching against the per-item batching it replaced (tests/reference_batches.py)
# ---------------------------------------------------------------------------

@st.composite
def _batching_case(draw):
    trunk = draw(st.sampled_from(["dnn", "lstm"]))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    context = draw(st.integers(1, 12)) if trunk == "dnn" else 0
    tc = TrainConfig(batch_size=draw(st.integers(1, 20)), lstm_chunk_frames=draw(st.integers(1, 15)),
                     dnn_window_stride=draw(st.integers(1, 4)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [rng.normal(size=(n, 32)) for n in lengths]
    labels = {"emotion": rng.integers(0, 4, len(lengths)), "gender": rng.integers(0, 4, len(lengths)),
              "naturalness": rng.integers(0, 2, len(lengths))}
    store = FeatureStore.pack([f"u{i}" for i in range(len(lengths))], matrices, labels)
    # a subset in another order, as a fold selects from the whole store
    positions = draw(st.permutations(range(len(lengths))))
    items = [reference.LabeledFeatures(f"u{i}", matrices[i], {t: int(v[i]) for t, v in labels.items()})
             for i in positions]
    config = MTLNetworkConfig(trunk=trunk, layer_sizes=(4,), context_frames=context, subtask_mode="all")
    return MultiTaskModel(config, seed=0, dtype=dtype), store.select(positions), items, tc, rng


class TestGatherBatching:
    @settings(max_examples=60, deadline=None)
    @given(case=_batching_case())
    def test_batches_equal_the_per_item_batches(self, case):
        model, dataset, items, tc, rng = case
        index = _sample_index(model.config, dataset, tc)
        old_index = reference._sample_index(model.config, items, tc)
        assert index[0].size == len(old_index)
        order = rng.permutation(len(old_index))
        got = list(_batches(model, dataset, index, order, tc.batch_size))
        want = list(reference._batches(model, items, old_index, order, tc.batch_size))
        assert len(got) == len(want)
        for (start, batch), (old_start, old_batch) in zip(got, want):
            assert start == old_start
            assert batch.keys() == old_batch.keys()
            assert batch["x"].dtype == old_batch["x"].dtype == model.dtype
            assert batch["x"].shape == old_batch["x"].shape
            assert batch["x"].tobytes() == old_batch["x"].tobytes()
            if "mask" in batch:
                assert np.array_equal(batch["mask"], old_batch["mask"])
            for task, targets in old_batch["targets"].items():
                assert batch["targets"][task].dtype == targets.dtype
                assert np.array_equal(batch["targets"][task], targets)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 700), min_size=1, max_size=6),
           chunk=st.integers(1, 400))
    def test_lstm_chunks_cover_every_frame_once(self, lengths, chunk):
        store = FeatureStore.pack([f"u{i}" for i in range(len(lengths))],
                                  [np.zeros((n, 32)) for n in lengths])
        config = MTLNetworkConfig(trunk="lstm", layer_sizes=(4,))
        utterance, first_row, frames = _sample_index(config, store, TrainConfig(lstm_chunk_frames=chunk))
        assert np.all((frames >= 1) & (frames <= chunk))
        covered = np.zeros(store.matrix.shape[0], dtype=np.int64)
        for u, row, n in zip(utterance, first_row, frames):
            assert store.starts[u] <= row and row + n <= store.starts[u] + store.lengths[u]
            covered[row : row + n] += 1
        assert np.all(covered == 1)
