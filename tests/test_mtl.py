from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_batches as reference
from sermtl import mtl, nn
from sermtl.features import FeatureStore, Standardizer, apply_standardizer, standardized
from sermtl.mtl import (
    POSTERIOR_BLOCK_ROWS,
    MTLNetworkConfig,
    MultiTaskModel,
    TrainConfig,
    TrainedModel,
    TrainingDivergedError,
    _batches,
    _sample_index,
    save_model,
    load_model,
    posteriors_in_blocks,
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


# standardizes every value to itself, bit for bit
_IDENTITY = Standardizer(np.zeros(32), np.ones(32))


def _one(model, x):
    """The posteriors of one utterance, scored as a block of one."""
    return model.emotion_posteriors(x, [len(x)], _IDENTITY)[0]


def _padded(x, rows):
    """``x`` followed by copies of its last row, up to ``rows`` rows."""
    return np.concatenate([x, np.repeat(x[-1:], max(0, rows - len(x)), axis=0)])


def _per_utterance(model, x):
    """Reference posteriors of one utterance in the model's dtype, from inputs
    rounded once to it (the identity standardizer's values). Every product is
    padded with copies of its last row to the rows scoring pads it to: the
    LSTM trunk advances one time step at a time, each row a copy of the
    utterance's, through `nn.LSTMLayer.step` on states of its own; the DNN
    trunk runs over all the context windows at once; then the emotion head
    and a softmax."""
    x = x.astype(model.dtype)
    trunk, head = model.trunk_layers, model.heads["emotion"]
    if model.config.trunk == "lstm":
        rows = max(mtl._product_rows(4 * layer.n_hidden) for layer in trunk)
        state = [(np.zeros((rows, layer.n_hidden), model.dtype), np.zeros((rows, layer.n_hidden), model.dtype))
                 for layer in trunk]
        h = np.empty((len(x), trunk[-1].n_hidden), model.dtype)
        for t in range(len(x)):
            ht = _padded(x[t : t + 1], rows)
            for layer, (hs, cs) in zip(trunk, state):
                a = ht @ layer.w_x.T
                layer.step(a, hs, cs, np.empty_like(a), (cs, np.empty_like(cs), hs))
                ht = hs
            h[t] = ht[0]
    else:
        h = np.lib.stride_tricks.sliding_window_view(x, (model.config.context_frames, x.shape[1]))
        h = h[:, 0].reshape(-1, model.config.input_width)
        n = len(h)
        h = _padded(h, max(mtl._product_rows(layer.n_out) for layer in trunk))
        for layer in trunk:
            h, _ = layer.forward(h)
        h = h[:n]
    logits, _ = head.forward(_padded(h, mtl._product_rows(head.n_out)))
    logits = logits[: len(h)]
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
        grad = np.empty_like(model.vector)
        _, _, grads = model.loss_and_grads(batch, dropout_p=0.5, rng=np.random.default_rng(8), grad=grad)
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
    def test_model_scores_in_its_own_dtype(self, trunk):
        """A float32 model scores in float32 and a float64 one in float64, each
        on its own parameters, bit for bit as the padded reference does."""
        config = MTLNetworkConfig(trunk=trunk, layer_sizes=(8,), context_frames=0 if trunk == "lstm" else 5)
        feats = np.random.default_rng(11).normal(size=(12, 32))
        for dtype in (np.float32, np.float64):
            model = MultiTaskModel(config, seed=4, dtype=dtype)
            got = _one(model, feats)
            assert got.dtype == dtype
            assert np.array_equal(got, _per_utterance(model, feats))
            assert all(arr.dtype == dtype for arr in model.parameters().values())


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
            path = save_model(tmp_path / f"m{run}.ckpt", trained, _IDENTITY)
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

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        monkeypatch.setattr(mtl, "CLIP_NORM", 0.0)  # no clipping
        data = _blob_dataset()
        cfg = MTLNetworkConfig(trunk="dnn", layer_sizes=(8, 8), subtask_mode="none", context_frames=5)
        model = MultiTaskModel(cfg, seed=1)
        tc = TrainConfig(batch_size=16, max_epochs=5, patience=2, seed=1, lr=1e150, dropout_p=0.0)
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
        block = model.emotion_posteriors(np.concatenate(utts), lengths, _IDENTITY)
        assert len(block) == len(utts)
        for got, utt in zip(block, utts):
            assert np.array_equal(got, _per_utterance(model, utt))

    @pytest.mark.parametrize("trunk", ["lstm", "dnn"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_block_order_does_not_matter(self, trunk, data, seed):
        model = _BLOCK_MODELS[trunk]
        lengths = data.draw(_block_lengths(trunk))
        perm = data.draw(st.permutations(range(len(lengths))))
        utts = _utterances(seed, lengths)
        block = model.emotion_posteriors(np.concatenate(utts), lengths, _IDENTITY)
        permuted = model.emotion_posteriors(np.concatenate([utts[i] for i in perm]),
                                            [lengths[i] for i in perm], _IDENTITY)
        for got, i in zip(permuted, perm):
            assert got.tobytes() == block[i].tobytes()

    @pytest.mark.parametrize("windows", [
        [POSTERIOR_BLOCK_ROWS], [POSTERIOR_BLOCK_ROWS + 1], [POSTERIOR_BLOCK_ROWS - 1, 1, 1],
        [30] * 10, [3, 2 * POSTERIOR_BLOCK_ROWS, 3],
        [100, 100], [POSTERIOR_BLOCK_ROWS - 1, 2, POSTERIOR_BLOCK_ROWS - 1],  # a chunk edge inside an utterance
    ])
    def test_dnn_blocks_at_the_row_limit(self, windows):
        model = _BLOCK_MODELS["dnn"]
        lengths = [w + _MIN_FRAMES["dnn"] - 1 for w in windows]
        utts = _utterances(len(windows), lengths)
        block = model.emotion_posteriors(np.concatenate(utts), lengths, _IDENTITY)
        assert [len(p) for p in block] == windows
        for got, utt in zip(block, utts):
            assert np.array_equal(got, _per_utterance(model, utt))

    def test_dnn_standardizes_one_chunk_of_frames_at_a_time(self, monkeypatch):
        """A long utterance is scored in chunks of POSTERIOR_BLOCK_ROWS windows:
        no call standardizes more than the frames such a chunk spans."""
        model = _BLOCK_MODELS["dnn"]
        rows = []

        def recording(standardizer, x, out=None):
            result = apply_standardizer(standardizer, x, out=out)
            rows.append(result.shape[0])
            return result

        monkeypatch.setattr(mtl, "apply_standardizer", recording)
        utt = _utterances(0, [1000])[0]
        got = model.emotion_posteriors(utt, [1000], _IDENTITY)[0]
        assert sum(rows) >= 1000 and max(rows) <= POSTERIOR_BLOCK_ROWS * _MIN_FRAMES["dnn"]
        assert np.array_equal(got, _per_utterance(model, utt))

    def test_dnn_block_with_short_utterance_raises(self):
        utts = _utterances(0, [30, 4, 12])
        with pytest.raises(ValueError, match="too few frames for DNN context"):
            _BLOCK_MODELS["dnn"].emotion_posteriors(np.concatenate(utts), [30, 4, 12], _IDENTITY)

    @pytest.mark.parametrize("lengths, named", [
        ([], "non-empty"), ([0, 10], "positive"), ([4, 5], "sum to 9, features have 10 rows"),
    ])
    def test_bad_lengths_rejected(self, lengths, named):
        with pytest.raises(ValueError, match=named):
            _BLOCK_MODELS["lstm"].emotion_posteriors(np.zeros((10, 32)), lengths, _IDENTITY)


@pytest.mark.parametrize("trunk, lengths", [
    ("lstm", [40, 6, 40, 5]),  # from step 6 on, two utterances run alone
    ("lstm", [3]),
    ("dnn", [8, 10]),  # one block of 10 windows
    ("dnn", [130, 10]),  # a block of 126 windows, then one of 6
])
def test_scoring_standardizes_as_training_does(trunk, lengths):
    """Scoring a store's raw float32 rows with a standardizer gives the bits of
    scoring training's standardized copy of them with the identity."""
    model = _BLOCK_MODELS[trunk]
    rng = np.random.default_rng(len(lengths))
    store = FeatureStore.pack([f"u{i}" for i in range(len(lengths))],
                              [rng.normal(1.0, 3.0, size=(n, 32)).astype(np.float32) for n in lengths])
    standardizer = Standardizer(rng.normal(size=32), rng.uniform(0.5, 2.0, 32))
    got = model.emotion_posteriors(store.matrix, store.lengths, standardizer)
    want = model.emotion_posteriors(standardized(store, standardizer).matrix, store.lengths, _IDENTITY)
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


def _scoring_products(config):
    """(inputs, outputs) of every product that scoring runs for ``config``."""
    widths = (config.input_width,) + config.layer_sizes
    if config.trunk == "lstm":
        trunk = [(n_in, 4 * n) for n_in, n in zip(widths, widths[1:])] + [(n, 4 * n) for n in widths[1:]]
    else:
        trunk = list(zip(widths, widths[1:]))
    return trunk + [(widths[-1], 4)]


# the models these tests and test_training_oracle.py build, and the paper's 2x256
# LSTM and 3x256 DNN
_TEST_MODELS = [
    MTLNetworkConfig(trunk="lstm", layer_sizes=sizes) for sizes in [(8,), (6,), (8, 6), (6, 5), (6, 6), (8, 8),
                                                                    (4, 9, 3), (4, 4), (256, 256)]
] + [
    MTLNetworkConfig(trunk="dnn", layer_sizes=sizes, context_frames=context)
    for sizes, context in [((8,), 5), ((8, 8), 5), ((8,), 3), ((8, 6), 3), ((8,), 11), ((256, 256, 256), 25)]
]
_SCORING_SHAPES = sorted({shape for config in _TEST_MODELS for shape in _scoring_products(config)})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_in, n_out", _SCORING_SHAPES)
def test_padded_products_keep_row_bits(n_in, n_out, dtype):
    """The premise of scoring's padding, on this BLAS: a product padded with
    copies of real rows to `mtl._product_rows` rows gives each real row, at any
    block size from 1 row up and at any position, the bits that row gets in
    a product of 1024 rows."""
    rng = np.random.default_rng(n_in * 1000 + n_out)
    w = rng.normal(size=(n_out, n_in)).astype(dtype)
    x = rng.normal(size=(1024, n_in)).astype(dtype)
    want = x @ w.T
    rows = mtl._product_rows(n_out)
    for m in list(range(1, 17)) + [rows - 1, rows, 256]:
        for first in (0, 5, 1024 - m):
            real = x[first : first + m]
            for at in {0, (max(m, rows) - m) // 2, max(m, rows) - m}:
                block = np.repeat(real[:1], max(m, rows), axis=0)
                block[at : at + m] = real
                got = (block @ w.T)[at : at + m]
                assert got.tobytes() == want[first : first + m].tobytes(), (m, first, at)


class TestModelCheckpoint:
    def test_round_trip(self, tmp_path):
        data = _blob_dataset(n_utts=12, n_frames=10)
        cfg = MTLNetworkConfig(trunk="lstm", layer_sizes=(6, 6), subtask_mode="gender")
        model = MultiTaskModel(cfg, seed=3)
        tc = TrainConfig(batch_size=8, max_epochs=2, patience=1, seed=3)
        trained = train(model, *_split(data, 9), tc)
        saved = Standardizer(np.arange(32.0), np.ones(32))
        path = save_model(tmp_path / "m.ckpt", trained, saved)
        loaded, training, standardizer = load_model(path)
        assert loaded.config == cfg
        assert training == tc
        assert nn.load_checkpoint(path)[1]["best_epoch"] == trained.best_epoch
        assert standardizer.mean.dtype == standardizer.std.dtype == np.float64
        assert standardizer.mean.tobytes() == saved.mean.tobytes()
        assert standardizer.std.tobytes() == saved.std.tobytes()
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
        loaded, _, _ = load_model(save_model(tmp_path / "m.ckpt", trained, _IDENTITY))
        assert loaded.dtype == loaded.vector.dtype == np.float32
        rng = np.random.default_rng(1)
        utts = [rng.normal(size=(n, 32)) for n in (15, 9, 12)]
        for utt in utts:
            assert np.array_equal(_one(loaded, utt), _one(trained.model, utt))
        lengths = [u.shape[0] for u in utts]
        block = np.concatenate(utts)
        for got, want in zip(loaded.emotion_posteriors(block, lengths, _IDENTITY),
                             trained.model.emotion_posteriors(block, lengths, _IDENTITY)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("edit, named", [
        (lambda header: header["network"].update(context_frame=11), "unknown key 'context_frame'"),
        (lambda header: header["network"].update(n_features=32), "unknown key 'n_features'"),
        (lambda header: header["training"].update(batch=8), "unknown key 'batch'"),
        (lambda header: header["training"].update(clip_norm=5.0), "unknown key 'clip_norm'"),
        (lambda header: header["training"].pop("batch_size"), "missing key 'batch_size'"),
    ])
    def test_network_header_keys_checked(self, tmp_path, edit, named):
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(4,)), seed=1)
        trained = train(model, *_split(_blob_dataset(n_utts=6, n_frames=8), 4),
                        TrainConfig(batch_size=8, max_epochs=2, patience=1))
        params, header = nn.load_checkpoint(save_model(tmp_path / "m.ckpt", trained, _IDENTITY))
        edit(header)
        nn.save_checkpoint(tmp_path / "bad.ckpt", params, header)
        with pytest.raises(ValueError, match=named) as raised:
            load_model(tmp_path / "bad.ckpt")
        assert str(raised.value).startswith(f"{tmp_path / 'bad.ckpt'}: ")

    @pytest.mark.parametrize("edit, named", [
        (lambda params: params.pop("trunk.1.w_h"), "has no parameter 'trunk.1.w_h'"),
        (lambda params: params.update({"head.emotion.b": np.zeros(1)}),
         r"parameter 'head.emotion.b' has shape \(1,\), the model's is \(4,\)"),
        (lambda params: [params.pop(name) for name in ("standardizer.mean", "standardizer.std")],
         "has no parameter 'standardizer.mean'"),
        (lambda params: params.update({"stray.w": np.zeros((1000, 100))}),
         "parameter 'stray.w' is not the model's"),
    ], ids=["missing", "shape", "no_statistics", "stray"])
    def test_parameters_checked(self, tmp_path, edit, named):
        """A checkpoint that lacks one of the model's parameters or standardizer
        statistics, holds one of another shape, or holds a parameter that is
        neither, is rejected: neither an initial value nor a broadcast stands in
        for a parameter, and none is dropped."""
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(4, 4)), seed=1)
        trained = train(model, *_split(_blob_dataset(n_utts=6, n_frames=8), 4),
                        TrainConfig(batch_size=8, max_epochs=2, patience=1))
        params, header = nn.load_checkpoint(save_model(tmp_path / "m.ckpt", trained, _IDENTITY))
        edit(params)
        bad = nn.save_checkpoint(tmp_path / "bad.ckpt", params, header)
        with pytest.raises(ValueError, match=named) as raised:
            load_model(bad)
        assert str(bad) in str(raised.value)

    @staticmethod
    def _saved(tmp_path, layer_sizes=(6, 5)):
        """A checkpoint of an untrained LSTM model, with standardizer statistics."""
        model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=layer_sizes), seed=2)
        standardizer = Standardizer(np.linspace(-1.0, 1.0, 32), np.full(32, 0.5))
        return save_model(tmp_path / "m.ckpt", TrainedModel(model, TrainConfig(), [], 0, 0.0), standardizer)

    def test_parameters_in_another_order_load_alike(self, tmp_path):
        """The blob is read in the file's order: parameters stored in another
        order than the model's vector load to the identical vector."""
        path = self._saved(tmp_path)
        params, header = nn.load_checkpoint(path)
        assert list(params)[-2:] == ["standardizer.mean", "standardizer.std"]
        reordered = nn.save_checkpoint(tmp_path / "reversed.ckpt", dict(reversed(params.items())), header)
        assert list(nn.load_checkpoint(reordered)[0])[:2] == ["standardizer.std", "standardizer.mean"]
        want, want_training, want_standardizer = load_model(path)
        got, training, standardizer = load_model(reordered)
        assert got.vector.dtype == np.float32
        assert got.vector.tobytes() == want.vector.tobytes()
        assert training == want_training
        for values, wanted in ((standardizer.mean, want_standardizer.mean),
                               (standardizer.std, want_standardizer.std)):
            assert values.dtype == np.float64
            assert values.tobytes() == wanted.tobytes()

    @pytest.mark.parametrize("damage, named", [
        (lambda data: data[:-4], "truncated checkpoint"),
        (lambda data: data + b"\x00", "trailing bytes after the parameter blob"),
        (lambda data: b"\x02\x00\x00\x00{}", "not a PMTL-CKPT-1 checkpoint"),
        (lambda data: struct.pack("<I", len(data)) + data[4:], "exceeds the file size"),
    ], ids=["truncated", "overlong", "foreign", "header_past_end"])
    def test_damaged_file_rejected(self, tmp_path, damage, named):
        path = self._saved(tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=named) as raised:
            load_model(path)
        assert str(path) in str(raised.value)

    def test_load_makes_no_float32_copy(self, tmp_path):
        """The checkpoint is read into the model's vector through a small buffer:
        the load allocates less than a float32 copy of the parameters."""
        path = self._saved(tmp_path, layer_sizes=(128, 128))
        tracemalloc.start()
        try:
            model, _, _ = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * model.vector.size


def test_lstm_scoring_makes_no_standardized_copy():
    """The LSTM pass reads a packed store's float32 rows and standardizes each
    time step's rows as it reads them: it allocates less than one (frames, 32)
    float64 copy of the block."""
    rng = np.random.default_rng(0)
    model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8,)), seed=0, dtype=np.float64)
    store = FeatureStore.pack([f"u{i}" for i in range(64)],
                              [rng.normal(size=(50, 32)).astype(np.float32) for _ in range(64)])
    standardizer = Standardizer(rng.normal(size=32), rng.uniform(0.5, 2.0, 32))
    tracemalloc.start()
    try:
        posteriors = list(posteriors_in_blocks(model, [store], standardizer))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(posteriors) == 64
    assert peak < store.matrix.shape[0] * 32 * 8


def _softmax_out_of_place(logits):
    """The formula `_stable_softmax` computed before it worked in place."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@st.composite
def _logits(draw):
    """Finite logits of any magnitude, with some entries tied to their row's maximum."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 1e3, 1e150, 1e300]))
    values = draw(st.lists(st.floats(-1.0, 1.0).map(lambda v: v * scale)
                           | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * k, max_size=n * k))
    logits = np.array(values, dtype=np.float64).reshape(n, k)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), max_size=4)):
        logits[i, j] = logits[i].max()
    return logits


@settings(max_examples=200, deadline=None)
@given(logits=_logits())
def test_in_place_softmax_matches_out_of_place(logits):
    with np.errstate(over="ignore"):
        want = _softmax_out_of_place(logits)
        got = mtl._stable_softmax(logits.copy())
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trunk", ["lstm", "dnn"])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_posteriors_match_the_out_of_place_softmax(trunk, data, seed):
    """Both posterior routes give the bits they gave with the out-of-place softmax."""
    model = _BLOCK_MODELS[trunk]
    lengths = data.draw(_block_lengths(trunk))
    features = np.concatenate(_utterances(seed, lengths))
    got = model.emotion_posteriors(features, lengths, _IDENTITY)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mtl, "_stable_softmax", _softmax_out_of_place)
        want = model.emotion_posteriors(features, lengths, _IDENTITY)
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


def test_lstm_softmax_makes_no_logits_copies():
    """The LSTM pass frees its scoring buffers and runs the softmax in place on
    the logits: at a shape where the (frames, 4) float32 logits outweigh every
    buffer, one call allocates less than two logits arrays (the out-of-place
    softmax held four)."""
    rng = np.random.default_rng(0)
    model = MultiTaskModel(MTLNetworkConfig(trunk="lstm", layer_sizes=(8,)), seed=0)
    lengths = [500] * 64
    features = rng.normal(size=(sum(lengths), 32)).astype(np.float32)
    tracemalloc.start()
    try:
        posteriors = model.emotion_posteriors(features, lengths, _IDENTITY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(posteriors) == 64
    assert peak < 2 * features.shape[0] * 4 * model.dtype.itemsize


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
