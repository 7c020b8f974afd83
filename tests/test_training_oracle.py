"""The flat-vector trainer against the per-array trainer it replaced
(tests/reference_training.py): the same parameters, Adam moments, losses and
gradient norms, byte for byte."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_training as reference
from sermtl import nn
from sermtl.features import FeatureStore
from sermtl.mtl import (
    MTLNetworkConfig,
    MultiTaskModel,
    TrainConfig,
    _batches,
    _sample_index,
    load_model,
    save_model,
    train,
    write_history_csv,
)


def _by_name(model: MultiTaskModel, vector: np.ndarray) -> dict[str, np.ndarray]:
    """``vector``'s views keyed like `parameters()`."""
    trunk, heads = model.layer_views(vector)
    views = {f"trunk.{i}.{k}": v for i, layer in enumerate(trunk) for k, v in layer.items()}
    views.update({f"head.{h}.{k}": v for h, layer in heads.items() for k, v in layer.items()})
    return views


def _store(rng, lengths, dtype) -> FeatureStore:
    n = len(lengths)
    labels = {"emotion": rng.integers(0, 4, n), "gender": rng.integers(0, 4, n),
              "naturalness": rng.integers(0, 2, n)}
    return FeatureStore.pack([f"u{i}" for i in range(n)],
                             [rng.normal(size=(k, 32)).astype(dtype) for k in lengths], labels)


@st.composite
def _training_case(draw):
    trunk = draw(st.sampled_from(["dnn", "lstm"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    sizes = (12, 10) if trunk == "dnn" else (6, 5)
    config = MTLNetworkConfig(trunk=trunk, layer_sizes=sizes, context_frames=3 if trunk == "dnn" else 0,
                              subtask_mode=draw(st.sampled_from(["all", "none"])))
    # clip_norm 0 never clips, 0.01 clips every step, 1.0 some steps
    tc = TrainConfig(batch_size=draw(st.integers(2, 9)), dropout_p=draw(st.sampled_from([0.0, 0.5])),
                     clip_norm=draw(st.sampled_from([0.0, 0.01, 1.0])), lstm_chunk_frames=5,
                     max_epochs=3, patience=2, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    store = _store(rng, draw(st.lists(st.integers(3, 14), min_size=2, max_size=5)), dtype)
    return MultiTaskModel(config, seed=draw(st.integers(0, 2**16)), dtype=dtype), store, tc, rng


@settings(max_examples=40, deadline=None)
@given(case=_training_case())
def test_steps_equal_the_reference(case):
    """Each step of `train`'s loop (`loss_and_grads` into the gradient vector,
    clip, Adam on the flat vectors) leaves what the old step left."""
    model, store, tc, rng = case
    old = reference.MultiTaskModel(model)
    old_adam = reference.AdamState.for_params(old.parameters(), lr=tc.lr)
    index = _sample_index(model.config, store, tc)
    order = rng.permutation(index[0].size)
    old_batches = list(_batches(model, store, index, order, tc.batch_size))
    new_rng, old_rng = np.random.default_rng(tc.seed), np.random.default_rng(tc.seed)
    with model.gradient_vector() as grad:
        adam = nn.AdamState(np.zeros_like(grad), np.zeros_like(grad), lr=tc.lr)
        for _, batch in old_batches:
            losses, total, grads = model.loss_and_grads(batch, tc.dropout_p, new_rng, True)
            assert all(g.base is grad for g in grads.values())
            norm = nn.clip_global_norm(grads, tc.clip_norm)
            nn.adam_step(adam, model.vector, grad)

            old_losses, old_total, old_grads = old.loss_and_grads(batch, tc.dropout_p, old_rng, True)
            old_norm = reference.clip_global_norm(old_grads, tc.clip_norm)
            reference.adam_step(old_adam, old.parameters(), old_grads)

            assert (losses, total, norm) == (old_losses, old_total, old_norm)
            assert list(grads) == list(old_grads)
            for name, old_grad in old_grads.items():
                assert grads[name].tobytes() == old_grad.tobytes(), name
            for mine, theirs in ((model.parameters(), old.parameters()),
                                 (_by_name(model, adam.m), old_adam.m),
                                 (_by_name(model, adam.v), old_adam.v)):
                for name, arr in theirs.items():
                    assert mine[name].tobytes() == arr.tobytes(), name
    assert len(old_batches) == -(-index[0].size // tc.batch_size)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("trunk", ["dnn", "lstm"])
def test_train_equals_the_reference(trunk, dtype, monkeypatch):
    """`train` as a whole: history, best epoch, restored parameters, and the
    per-epoch gradient norms the old loop computed and discarded."""
    rng = np.random.default_rng(5)
    store = _store(rng, [9, 14, 7, 12, 11, 8, 13, 10], dtype)
    config = MTLNetworkConfig(trunk=trunk, layer_sizes=(12, 10) if trunk == "dnn" else (6, 5),
                              context_frames=3 if trunk == "dnn" else 0)
    tc = TrainConfig(batch_size=7, max_epochs=4, patience=3, seed=9, lstm_chunk_frames=5, clip_norm=1.0)
    train_set, val_set = store.select(range(6)), store.select([6, 7])
    model = MultiTaskModel(config, seed=4, dtype=dtype)
    old = reference.MultiTaskModel(model)

    norms = []
    old_clip = reference.clip_global_norm
    monkeypatch.setattr(reference, "clip_global_norm", lambda g, c: norms.append(old_clip(g, c)) or norms[-1])
    want = reference.train(old, train_set, val_set, tc)
    got = train(model, train_set, val_set, tc)

    assert (got.best_epoch, got.best_val_total) == (want.best_epoch, want.best_val_total)
    for name, arr in old.parameters().items():
        assert model.parameters()[name].tobytes() == arr.tobytes(), name
    steps = -(-_sample_index(config, train_set, tc)[0].size // tc.batch_size)
    for epoch, (row, old_row) in enumerate(zip(got.history, want.history, strict=True)):
        assert (row.train_losses, row.train_total, row.val_losses, row.val_total) == (
            old_row.train_losses, old_row.train_total, old_row.val_losses, old_row.val_total)
        epoch_norms = norms[epoch * steps : (epoch + 1) * steps]
        assert row.grad_norm_mean == sum(epoch_norms) / steps
        assert row.grad_norm_max == max(epoch_norms)
        assert row.clip_frac == sum(n > tc.clip_norm for n in epoch_norms) / steps


@pytest.mark.parametrize("clip_norm, clip_frac", [(1e-6, 1.0), (1e6, 0.0), (0.0, 0.0)])
def test_clip_fraction(clip_norm, clip_frac, tmp_path):
    store = _store(np.random.default_rng(2), [10, 12, 9, 11], np.float32)
    model = MultiTaskModel(MTLNetworkConfig(trunk="dnn", layer_sizes=(8,), context_frames=3), seed=1)
    tc = TrainConfig(batch_size=8, max_epochs=2, patience=1, clip_norm=clip_norm)
    trained = train(model, store.select([0, 1, 2]), store.select([3]), tc)
    for row in trained.history:
        assert row.clip_frac == clip_frac
        assert 0.0 < row.grad_norm_mean <= row.grad_norm_max
    lines = write_history_csv(tmp_path / "history.csv", trained.history, model.config.heads).read_text().split()
    assert lines[0].endswith(",val_total,grad_norm_mean,grad_norm_max,clip_frac")
    assert lines[1].endswith(f",{trained.history[0].grad_norm_max!r},{clip_frac!r}")


@pytest.mark.parametrize("trunk", ["dnn", "lstm"])
def test_parameters_are_views_of_one_vector(trunk, tmp_path):
    config = MTLNetworkConfig(trunk=trunk, layer_sizes=(8, 6), context_frames=3 if trunk == "dnn" else 0)
    model = MultiTaskModel(config, seed=3)
    params = model.parameters()
    assert model.vector.size == sum(arr.size for arr in params.values())
    start = 0
    for name, arr in params.items():  # consecutive slices, in parameters() order
        assert arr.base is not None and np.shares_memory(arr, model.vector), name
        assert arr.reshape(-1).tobytes() == model.vector[start : start + arr.size].tobytes(), name
        start += arr.size
    model.vector[:] = np.arange(model.vector.size)
    assert all(np.shares_memory(a, model.vector) for a in model.parameters().values())
    assert list(model.parameters().values())[-1][-1] == model.vector.size - 1
    # a checkpoint round trip is exact
    store = _store(np.random.default_rng(0), [8, 9, 7], np.float32)
    trained = train(MultiTaskModel(config, seed=3), store.select([0, 1]), store.select([2]),
                    TrainConfig(batch_size=4, max_epochs=2, patience=1))
    loaded, _, _ = load_model(save_model(tmp_path / "m.ckpt", trained))
    assert loaded.vector.dtype == np.float64
    assert np.array_equal(loaded.vector, trained.model.vector.astype(np.float64))
    for name, arr in loaded.parameters().items():
        assert np.shares_memory(arr, loaded.vector), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_glorot_rows_drawn_in_blocks_equal_one_draw(dtype):
    """Layers write their weights into the model's vector a block of rows at a
    time; the values and the rest of the stream are those of one draw each."""
    rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    layers = [nn.DenseLayer(800, 256, "relu", rng, dtype), nn.LSTMLayer(300, 40, rng, dtype=dtype)]
    for layer, arrays in zip(layers, (("w",), ("w_x", "w_h"))):
        for name in arrays:
            w = getattr(layer, name)
            limit = np.sqrt(6.0 / sum(w.shape))
            assert w.tobytes() == want_rng.uniform(-limit, limit, w.shape).astype(dtype).tobytes(), name
