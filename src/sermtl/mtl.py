"""Shared-trunk multi-task model: assembly, weighted total loss, training loop
with early stopping, and emotion posterior extraction (subtask heads are kept
in checkpoints but never used at inference).

A model trains and scores in its dtype (float32 by default), so a model
reloaded from its float32 checkpoint scores exactly like the model that wrote
it. `load_model` reads the checkpoint into a float32 model's vector in place,
and scoring reads raw feature rows and standardizes them into the model's dtype
as it reads them: a time step's rows for the LSTM, the frames of a fixed-size
chunk of context windows for the DNN. Small products are padded, so a row's
posteriors do not depend on the block or chunk it is scored in.
"""
from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import nn
from .codec import from_dict
from .corpus import TASK_CLASSES
from .features import N_FEATURES, FeatureStore, Standardizer, apply_standardizer, mapped_array
from .seeding import derive_seed

TASK_EMOTION = "emotion"

SUBTASK_MODES = ("all", "gender", "naturalness", "none")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


class ContextError(ValueError):
    """Raised when an utterance has fewer frames than the DNN context;
    ``position`` is its index among the utterances scored."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class TaskHead:
    name: str
    n_classes: int
    loss_weight: float

    def __post_init__(self):
        if self.loss_weight < 0:
            raise ValueError("task loss weight must be non-negative")


def default_layer_sizes(trunk: str) -> tuple[int, ...]:
    """The paper's trunk sizes: DNN 3x256, LSTM 2x256."""
    return (256, 256, 256) if trunk == "dnn" else (256, 256)


@dataclass(frozen=True)
class MTLNetworkConfig:
    trunk: str = "lstm"
    layer_sizes: tuple[int, ...] = ()
    context_frames: int = 0
    subtask_mode: str = "all"
    subtask_weight: float = 0.1

    def __post_init__(self):
        if self.trunk not in ("dnn", "lstm"):
            raise ValueError(f"unknown trunk type: {self.trunk!r}")
        if self.subtask_mode not in SUBTASK_MODES:
            raise ValueError(f"unknown subtask_mode: {self.subtask_mode!r}")
        if not self.layer_sizes:
            object.__setattr__(self, "layer_sizes", default_layer_sizes(self.trunk))
        else:
            object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if self.context_frames <= 0:
            object.__setattr__(self, "context_frames", 25 if self.trunk == "dnn" else 1)
        if self.trunk == "lstm" and self.context_frames != 1:
            raise ValueError("LSTM trunk uses context_frames = 1")

    def with_trunk(self, trunk: str) -> MTLNetworkConfig:
        """This network on ``trunk``: another trunk gets its own context width, and its
        own default sizes in place of the old trunk's (``replace(trunk=)`` keeps both)."""
        if trunk == self.trunk:
            return self
        sizes = () if self.layer_sizes == default_layer_sizes(self.trunk) else self.layer_sizes
        return replace(self, trunk=trunk, layer_sizes=sizes, context_frames=0)

    @property
    def input_width(self) -> int:
        return self.context_frames * N_FEATURES  # context_frames is 1 for an LSTM

    @property
    def heads(self) -> tuple[TaskHead, ...]:
        """The emotion head, then each subtask head that ``subtask_mode`` keeps,
        in `corpus.TASK_CLASSES` order."""
        return tuple(TaskHead(task, len(classes), 1.0 if task == TASK_EMOTION else self.subtask_weight)
                     for task, classes in TASK_CLASSES.items()
                     if task == TASK_EMOTION or self.subtask_mode in ("all", task))


# `train` scales each step's gradients to at most this global L2 norm
CLIP_NORM = 5.0


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    lr: float = 3e-3
    dropout_p: float = 0.5
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    lstm_chunk_frames: int = 300
    dnn_window_stride: int = 1

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 <= self.patience < self.max_epochs):
            raise ValueError("require 0 <= patience < max_epochs")
        if self.lstm_chunk_frames < 1 or self.dnn_window_stride < 1:
            raise ValueError("chunk length and window stride must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")


def total_loss(per_task_losses: dict[str, float], heads: tuple[TaskHead, ...]) -> float:
    """Weighted multi-task cost: main loss plus lambda-weighted subtask losses."""
    main = [h for h in heads if h.name == TASK_EMOTION]
    if len(main) != 1:
        raise ValueError("exactly one main (emotion) head required")
    try:
        value = per_task_losses[TASK_EMOTION]
        for head in heads:
            if head.name != TASK_EMOTION:
                value = value + head.loss_weight * per_task_losses[head.name]
    except KeyError as exc:
        raise ValueError(f"missing loss for task {exc.args[0]!r}") from None
    return value


# DNN posteriors score the windows of consecutive utterances this many rows at
# a time, across utterance boundaries: the few windows of one short utterance
# (24 of 0.5 s) make GEMMs of about half the throughput
POSTERIOR_BLOCK_ROWS = 128


def _product_rows(n_out: int) -> int:
    """The fewest rows that scoring runs a product ``x @ w.T`` with ``n_out``
    outputs on. OpenBLAS (0.3.31, AVX-512 x86-64) runs a product of at most 1200
    outputs, with 32 or more inputs, on a small-matrix kernel, and one row on
    GEMV; each rounds a row otherwise than a larger product does. From 16 rows
    and 1201 outputs on, a row's bits do not depend on how many rows share the
    product or where it sits (tests/test_mtl.py checks every scoring shape)."""
    return max(16, 1200 // n_out + 1)


def _layer_sizes(config: MTLNetworkConfig) -> list[int]:
    """The parameter count of each trunk layer, then of each head."""
    widths = (config.input_width,) + config.layer_sizes
    trunk = nn.DenseLayer if config.trunk == "dnn" else nn.LSTMLayer
    sizes = [trunk.size(n_in, n_out) for n_in, n_out in zip(widths, widths[1:])]
    return sizes + [nn.DenseLayer.size(widths[-1], head.n_classes) for head in config.heads]


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    """The row softmax of ``logits``, written over them and returned: each step
    is the out-of-place formula's ufunc on the same values, so the bits match."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


class MultiTaskModel:
    """Shared trunk (dense stack or LSTM stack) with one linear softmax head per task.

    Heads are created in a fixed order (emotion first, then subtasks), so a
    subtask-free model shares its trunk and emotion-head initialization with
    the multi-task variants built from the same seed.

    ``dtype`` is the model's one dtype: parameters, activations, caches,
    dropout masks, gradients, Adam moments and `emotion_posteriors`' buffers
    and posteriors all use it. Losses are computed in float64.

    Every parameter is a view into one 1-D vector, ``vector``, in `parameters()`
    order; gradients and Adam moments are vectors of the same layout.
    """

    def __init__(self, config: MTLNetworkConfig, seed: int = 0, dtype=np.float32,
                 vector: np.ndarray | None = None):
        """``vector``, if given, is the 1-D ``dtype`` array that holds the
        parameters, one element per parameter, for the caller to fill (as
        `load_model` does): no initial values are drawn into it."""
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        widths = (config.input_width,) + config.layer_sizes
        sizes = _layer_sizes(config)
        rng = None
        if vector is None:
            rng = np.random.default_rng(derive_seed(seed, "init"))
            vector = np.zeros(sum(sizes), self.dtype)
        self.vector = vector
        slices = iter(np.split(self.vector, np.cumsum(sizes)[:-1]))
        self.trunk_layers = [
            nn.DenseLayer(n_in, n_out, "relu", rng, dtype, next(slices)) if config.trunk == "dnn"
            else nn.LSTMLayer(n_in, n_out, rng, dtype=dtype, vector=next(slices))
            for n_in, n_out in zip(widths, widths[1:])]
        self.heads = {head.name: nn.DenseLayer(widths[-1], head.n_classes, "linear", rng, dtype, next(slices))
                      for head in config.heads}

    def parameters(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.trunk_layers):
            for key, arr in layer.parameters().items():
                params[f"trunk.{i}.{key}"] = arr
        for head in self.config.heads:
            for key, arr in self.heads[head.name].parameters().items():
                params[f"head.{head.name}.{key}"] = arr
        return params

    def layer_views(self, vector: np.ndarray) -> tuple[list[dict], dict[str, dict]]:
        """Views into ``vector``, a 1-D array laid out as `vector`, shaped as each
        layer's parameters: one dict per trunk layer, and one per head by name."""
        views, start = [], 0
        for layer in self.trunk_layers + [self.heads[h.name] for h in self.config.heads]:
            views.append({})
            for key, arr in layer.parameters().items():
                views[-1][key] = vector[start : start + arr.size].reshape(arr.shape)
                start += arr.size
        n = len(self.trunk_layers)
        return views[:n], {h.name: v for h, v in zip(self.config.heads, views[n:])}

    # -- forward/backward -------------------------------------------------

    def _trunk_forward(self, x, dropout_p: float, rng, train: bool):
        """The trunk output and one (layer cache, dropout keep mask) per layer."""
        p = dropout_p if train else 0.0
        caches = []
        h = x
        for layer in self.trunk_layers:
            h, cache = layer.forward(h)
            h, keep = nn.dropout(h, p, rng)
            caches.append((cache, keep))
        return h, caches

    def _trunk_backward(self, dh, caches, views: list[dict], dropout_p: float) -> dict[str, np.ndarray]:
        """Trunk parameter gradients, written into ``views`` (one dict per layer);
        the gradient of the input is never formed. Each layer's dropout scale is
        rebuilt from its keep mask as it is needed."""
        grads: dict[str, np.ndarray] = {}
        for i in range(len(self.trunk_layers) - 1, -1, -1):
            layer = self.trunk_layers[i]
            cache, keep = caches[i]
            if keep is not None:
                dh = dh * nn.dropout_scale(keep, dropout_p, dh.dtype)
            dh, layer_grads = layer.backward(dh, cache, i > 0, views[i])
            for key, g in layer_grads.items():
                grads[f"trunk.{i}.{key}"] = g
        return grads

    def loss_and_grads(self, batch: dict, dropout_p: float = 0.0,
                       rng: np.random.Generator | None = None, train: bool = True,
                       grad: np.ndarray | None = None):
        """Per-task losses, the weighted total, and gradients for one mini-batch.

        DNN batches: {"x": (B, input_width), "targets": {task: (B,) ints}}.
        LSTM batches: {"x": (B, T, N_FEATURES), "mask": (B, T) bool,
        "targets": {task: (B,) ints}} with frame-broadcast chunk labels and
        padding excluded from every per-frame loss mean.

        The gradients are views into ``grad``, a 1-D array laid out as `vector`,
        which they overwrite, or into a new such vector if ``grad`` is None (as
        numpy's ``out=``; `train` passes one vector to every step, so a step
        takes no fresh pages). They are keyed like `parameters()` and ordered as
        they are computed: heads, then the trunk from the top.
        """
        trunk_views, head_views = self.layer_views(np.empty_like(self.vector) if grad is None else grad)
        h, caches = self._trunk_forward(batch["x"], dropout_p, rng, train)
        rows, targets = self._scored_rows(h, batch)
        losses, dh, grads = self._head_pass(rows, targets, head_views)
        if "mask" in batch and batch["mask"].all():  # `_scored_rows` gave h's rows in order
            dh = dh.reshape(h.shape)
        elif "mask" in batch:
            # scatter the row gradients back over the padded (B, T, H) trunk output
            dh_rows, dh = dh, np.zeros(h.shape, h.dtype)
            dh[batch["mask"]] = dh_rows
        grads.update(self._trunk_backward(dh, caches, trunk_views, dropout_p))
        return losses, total_loss(losses, self.config.heads), grads

    def batch_losses(self, batch: dict) -> dict[str, float]:
        """Per-task losses of one mini-batch in eval mode (no dropout), forward
        only: equal to those of ``loss_and_grads(batch, train=False)``."""
        h, _ = self._trunk_forward(batch["x"], 0.0, None, False)
        losses, _, _ = self._head_pass(*self._scored_rows(h, batch))
        return losses

    def _scored_rows(self, h, batch):
        """The trunk output as one row per scored sample, and the matching targets:
        LSTM chunk labels are broadcast to every valid (unpadded) frame. When no
        chunk is padded the rows are a view of ``h``, not a copy, unless ``h``
        is an LSTM layer's time-major output that no dropout copied."""
        if "mask" not in batch:
            return h, batch["targets"]
        mask = batch["mask"]
        targets = {name: np.repeat(np.asarray(t, dtype=np.int64), mask.shape[1])[mask.reshape(-1)]
                   for name, t in batch["targets"].items()}
        return (h.reshape(-1, h.shape[2]) if mask.all() else h[mask]), targets

    def _head_pass(self, h_rows, targets_rows, views=None):
        """(per-task losses, dh, gradients) over trunk output rows. With ``views``,
        the heads' gradient views by name, the head gradients are written into
        them and returned keyed like `parameters()`, with dh, the gradient of
        ``h_rows``; without, dh is None and the gradients are empty."""
        losses: dict[str, float] = {}
        grads: dict[str, np.ndarray] = {}
        dh = None if views is None else np.zeros_like(h_rows)
        for head_spec in self.config.heads:
            head = self.heads[head_spec.name]
            logits, cache = head.forward(h_rows)
            onehot = nn.one_hot(targets_rows[head_spec.name], head_spec.n_classes)
            loss, _, dlogits = nn.softmax_xent(logits, onehot)
            losses[head_spec.name] = loss
            if views is None:
                continue
            head_grads = views[head_spec.name]
            if head_spec.loss_weight != 0.0:
                dh += head.backward(dlogits * head_spec.loss_weight, cache, grads=head_grads)[0]
            else:
                for g in head_grads.values():
                    g[...] = 0.0
            for key, g in head_grads.items():
                grads[f"head.{head_spec.name}.{key}"] = g
        return losses, dh, grads

    # -- inference ---------------------------------------------------------

    def emotion_posteriors(self, features: np.ndarray, lengths: Sequence[int],
                           standardizer: Standardizer):
        """Emotion posteriors from raw features and the standardizer that maps them
        to the model's inputs. Subtask heads produce no output here.

        ``features`` holds ``len(lengths)`` utterances of ``lengths`` frames
        stacked along the frame axis, in any dtype (a store's float32 rows are
        read as they are); one utterance is a block of one. The result is the
        list of their posterior sequences: LSTM trunks emit one row per frame,
        DNN trunks one row per context window.

        Scoring runs in the model's dtype, on the parameters as they are. Rows
        are standardized as they are read, one time step's (LSTM) or one chunk
        of windows' frames (DNN) at a time, into an input buffer of that dtype:
        `apply_standardizer`'s float64 values, each rounded once, as training's
        `features.standardized` copy holds them. Every product runs on at least
        `_product_rows` rows, so a row's posteriors have the same bits whichever
        block or chunk it is scored in and wherever it sits in it. Either trunk
        fills one logits array for the whole block, which one in-place softmax
        turns into the posteriors.
        """
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != N_FEATURES:
            raise nn.ShapeError(f"features must be (n, {N_FEATURES})")
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0 or np.any(lengths < 1):
            raise ValueError("lengths must be a non-empty list of positive frame counts")
        if int(lengths.sum()) != features.shape[0]:
            raise ValueError(f"lengths sum to {int(lengths.sum())}, features have {features.shape[0]} rows")
        context = self.config.context_frames  # 1 for an LSTM trunk
        short = np.flatnonzero(lengths < context)
        if short.size:
            raise ContextError(f"too few frames for DNN context: {lengths[short[0]]} < {context}",
                               int(short[0]))
        counts = lengths - context + 1
        logits = np.empty((int(counts.sum()), self.heads[TASK_EMOTION].n_out), self.dtype)
        if self.config.trunk == "lstm":
            self._lstm_block_posteriors(features, lengths, standardizer, logits)
        else:
            self._dnn_block_posteriors(features, counts, standardizer, logits)
        return np.split(_stable_softmax(logits), np.cumsum(counts)[:-1])

    def _dnn_block_posteriors(self, features, counts, standardizer, logits):
        """DNN pass over the context windows of stacked utterances, ``counts`` of
        them per utterance, into ``logits``: one GEMM chain per chunk of
        POSTERIOR_BLOCK_ROWS consecutive windows, across utterances. A chunk's
        frames are standardized once into one frame buffer, allocated once per
        call, and its windows gathered from them with one fancy index, padded
        with copies of the last window to the trunk's `_product_rows`."""
        trunk, head = self.trunk_layers, self.heads[TASK_EMOTION]
        context = self.config.context_frames
        # window k of the stack starts context - 1 frames later per utterance before its own
        first_row = np.arange(logits.shape[0]) + (context - 1) * np.repeat(np.arange(counts.size), counts)
        # a chunk's windows span at most `context` frames each
        frame_buf = np.empty((min(features.shape[0], POSTERIOR_BLOCK_ROWS * context), features.shape[1]),
                             self.dtype)
        trunk_rows = max(_product_rows(layer.n_out) for layer in trunk)
        head_in = np.zeros((_product_rows(head.n_out), head.n_in), self.dtype)
        for lo in range(0, logits.shape[0], POSTERIOR_BLOCK_ROWS):
            picks = first_row[lo : lo + POSTERIOR_BLOCK_ROWS] - first_row[lo]
            span = picks[-1] + context
            frames = apply_standardizer(standardizer, features[first_row[lo] : first_row[lo] + span],
                                        out=frame_buf[:span])
            windows = np.lib.stride_tricks.sliding_window_view(frames, (context, frames.shape[1]))[:, 0]
            h = windows[np.pad(picks, (0, max(0, trunk_rows - picks.size)), "edge")].reshape(-1, windows[0].size)
            for layer in trunk:
                h, _ = layer.forward(h)
            if h.shape[0] < head_in.shape[0]:
                head_in[: h.shape[0]] = h
                h = head_in
            logits[lo : lo + picks.size] = head.forward(h)[0][: picks.size]

    def _lstm_block_posteriors(self, features, lengths, standardizer, logits):
        """Time-major LSTM pass over a block of stacked utterances, into ``logits``.

        Utterances are ordered by length (descending, stable), so those still
        running at step t are a prefix of that order: each step standardizes
        that prefix's rows into one input buffer, then advances every layer and
        the emotion head on it. No training cache is kept: each layer's state
        (h, c) is updated in place, and every `nn.LSTMLayer.step` runs on one
        gate buffer and one product buffer, allocated once per call and freed
        on return.

        A product of fewer than `_product_rows` rows runs on that many: the rows
        past the running ones are those of finished utterances, or zeros past
        the block, and only the running rows are kept.
        """
        trunk, head = self.trunk_layers, self.heads[TASK_EMOTION]
        order = np.argsort(-lengths, kind="stable")
        starts = (np.cumsum(lengths) - lengths)[order]
        by_length = lengths[order]
        trunk_rows = max(_product_rows(4 * layer.n_hidden) for layer in trunk)
        head_rows = _product_rows(head.n_out)
        size = max(order.size, trunk_rows, head_rows)
        widest = size * max(layer.n_hidden for layer in trunk)
        gate_buf, product_buf = np.empty(4 * widest, self.dtype), np.empty(4 * widest, self.dtype)
        cell_tanh = np.empty(widest, self.dtype)
        inputs = np.zeros((size, features.shape[1]), self.dtype)
        state = [(np.zeros((size, layer.n_hidden), self.dtype), np.zeros((size, layer.n_hidden), self.dtype))
                 for layer in trunk]
        for t in range(int(by_length[0])):
            active = int(np.count_nonzero(by_length > t))
            rows = starts[:active] + t
            if not np.all(np.isfinite(apply_standardizer(standardizer, features[rows], out=inputs[:active]))):
                raise nn.NumericsError("non-finite input to LSTM")
            m = max(active, trunk_rows)
            x = inputs[:m]
            for layer, (h, c) in zip(trunk, state):
                a, hw = (buf[: m * 4 * layer.n_hidden].reshape(m, -1) for buf in (gate_buf, product_buf))
                np.matmul(x, layer.w_x.T, out=a)
                x, c = h[:m], c[:m]
                layer.step(a, x, c, hw, (c, cell_tanh[: c.size].reshape(c.shape), x))
            logits[rows] = head.forward(h[: max(active, head_rows)])[0][:active]


def posteriors_in_blocks(model: MultiTaskModel, blocks, standardizer: Standardizer):
    """Yield the emotion posteriors of every utterance of each store in ``blocks``,
    in order. Each store is scored in one `emotion_posteriors` call on its raw
    rows, a view of its matrix when the store is packed (`FeatureStore.gather`),
    which standardizes them as it reads them. ``blocks`` may be a generator: it
    is consumed one store at a time, and a store it alone holds is freed once
    scored. A `ContextError` names the utterance, and its WAV if the store has
    paths."""
    for block in blocks:
        try:
            posteriors = model.emotion_posteriors(block.gather(range(len(block))), block.lengths,
                                                  standardizer)
        except ContextError as exc:
            k = exc.position
            uid = block.ids[k]
            raise ContextError(f"{uid} ({block.paths[k]}): {exc}" if block.paths else f"{uid}: {exc}",
                               k) from None
        del block
        yield from posteriors


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    """One epoch's losses, and the global gradient norm of its training steps
    before clipping: mean, max, and the fraction of steps that were clipped."""
    epoch: int
    train_losses: dict[str, float]
    train_total: float
    val_losses: dict[str, float]
    val_total: float
    grad_norm_mean: float
    grad_norm_max: float
    clip_frac: float


@dataclass
class TrainedModel:
    model: MultiTaskModel
    train_config: TrainConfig
    history: list[EpochStats]
    best_epoch: int
    best_val_total: float


def _sample_index(config: MTLNetworkConfig, dataset: FeatureStore, tc: TrainConfig):
    """(utterance position, first row in ``dataset.matrix``, frame count) of every
    sample in ``dataset``, as three arrays ordered by utterance, then by first
    row: DNN context windows every ``dnn_window_stride`` frames, or LSTM chunks
    of up to ``lstm_chunk_frames`` frames."""
    n = dataset.lengths
    if config.trunk == "dnn":
        step = tc.dnn_window_stride
        counts = np.where(n >= config.context_frames, (n - config.context_frames) // step + 1, 0)
    else:
        step = tc.lstm_chunk_frames
        counts = -(-n // step)
    utterance = np.repeat(np.arange(n.size), counts)
    offset = step * (np.arange(utterance.size) - np.repeat(np.cumsum(counts) - counts, counts))
    if config.trunk == "dnn":
        frames = np.full(utterance.size, config.context_frames, dtype=np.int64)
    else:
        frames = np.minimum(step, n[utterance] - offset)
    return utterance, dataset.starts[utterance] + offset, frames


def _batches(model: MultiTaskModel, dataset: FeatureStore, index, order, batch_size: int):
    """Yield (position in ``order``, batch) over consecutive slices of ``order``,
    each gathered from ``dataset.matrix`` by index straight into the model's dtype.

    DNN batches are rows of context windows, flattened; LSTM batches zero-pad
    chunks to the longest one and carry a (B, T) validity mask.
    """
    config = model.config
    utterance, first_row, frames = index
    order = np.asarray(order)
    for start in range(0, len(order), batch_size):
        samples = order[start : start + batch_size]
        batch = {"targets": {h.name: dataset.labels[h.name][utterance[samples]] for h in config.heads}}
        rows = first_row[samples]
        if config.trunk == "dnn":
            windows = np.lib.stride_tricks.sliding_window_view(
                dataset.matrix, (config.context_frames, N_FEATURES))[:, 0]
            batch["x"] = windows[rows].reshape(rows.size, -1).astype(model.dtype, copy=False)
        else:
            steps = np.arange(frames[samples].max())
            mask = steps < frames[samples][:, None]
            x = np.zeros(mask.shape + (N_FEATURES,), model.dtype)
            x[mask] = dataset.matrix[(rows[:, None] + steps)[mask]]
            batch["x"], batch["mask"] = x, mask
        yield start, batch


def _batch_weight(batch) -> int:
    if "mask" in batch:
        return int(batch["mask"].sum())
    return int(batch["x"].shape[0])


def _mean_losses(weighted, heads) -> dict[str, float]:
    """Per-task losses averaged over (losses, weight) pairs, one per batch."""
    sums = {h.name: 0.0 for h in heads}
    weight_total = 0
    for losses, w in weighted:
        weight_total += w
        for name, value in losses.items():
            sums[name] += value * w
    return {name: value / weight_total for name, value in sums.items()}


def _dataset_losses(model, dataset, index, tc: TrainConfig):
    """Weighted per-task losses over a dataset in eval mode (no dropout), forward only."""
    weighted = []
    for _, batch in _batches(model, dataset, index, np.arange(index[0].size), tc.batch_size):
        weighted.append((model.batch_losses(batch), _batch_weight(batch)))
    mean_losses = _mean_losses(weighted, model.config.heads)
    return mean_losses, total_loss(mean_losses, model.config.heads)


def train(model: MultiTaskModel, train_set, val_set, tc: TrainConfig) -> TrainedModel:
    """Mini-batch Adam training with validation-based early stopping.

    ``train_set`` and ``val_set`` hold standardized features; batches are
    gathered from their matrices by index. Stops after ``patience`` consecutive epochs without improving the
    validation total loss and restores the best epoch's parameters.
    """
    if not len(train_set) or not len(val_set):
        raise ValueError("train and validation sets must both be non-empty")
    overlap = set(train_set.ids) & set(val_set.ids)
    if overlap:
        raise ValueError(f"train/validation overlap: {sorted(overlap)[:3]}")

    config = model.config
    heads = config.heads
    rng = np.random.default_rng(derive_seed(tc.seed, "train"))

    index = _sample_index(config, train_set, tc)
    if not index[0].size:
        raise ValueError("training set produced no samples (all utterances too short?)")
    val_index = _sample_index(config, val_set, tc)
    if not val_index[0].size:
        raise ValueError("dataset produced no evaluation samples")

    history: list[EpochStats] = []
    best_val = np.inf
    best_epoch = -1
    best_vector = np.empty_like(model.vector)
    since_best = 0

    grad = np.empty_like(model.vector)
    adam = nn.AdamState(np.zeros_like(grad), np.zeros_like(grad), lr=tc.lr)
    for epoch in range(tc.max_epochs):
        weighted, norms = [], []
        for start, batch in _batches(model, train_set, index, rng.permutation(index[0].size),
                                     tc.batch_size):
            losses, batch_total, step_grads = model.loss_and_grads(
                batch, dropout_p=tc.dropout_p, rng=rng, train=True, grad=grad
            )
            if not np.isfinite(batch_total):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}, sample {start}"
                )
            norms.append(nn.clip_global_norm(step_grads, CLIP_NORM))
            nn.adam_step(adam, model.vector, grad)
            weighted.append((losses, _batch_weight(batch)))
        train_losses = _mean_losses(weighted, heads)
        val_losses, val_total = _dataset_losses(model, val_set, val_index, tc)
        clipped = sum(1 for norm in norms if 0 < CLIP_NORM < norm)  # as `clip_global_norm` scales
        history.append(
            EpochStats(
                epoch=epoch,
                train_losses=train_losses,
                train_total=total_loss(train_losses, heads),
                val_losses=val_losses,
                val_total=val_total,
                grad_norm_mean=sum(norms) / len(norms),
                grad_norm_max=max(norms),
                clip_frac=clipped / len(norms),
            )
        )
        if val_total < best_val:
            best_val = val_total
            best_epoch = epoch
            best_vector[...] = model.vector
            since_best = 0
        else:
            since_best += 1
            if since_best >= tc.patience:
                break

    if best_epoch < 0:
        raise TrainingDivergedError("the validation loss was not finite in any epoch")
    model.vector[...] = best_vector
    return TrainedModel(
        model=model,
        train_config=tc,
        history=history,
        best_epoch=best_epoch,
        best_val_total=float(best_val),
    )


# ---------------------------------------------------------------------------
# Run-directory artifacts
# ---------------------------------------------------------------------------

def save_model(path: str | Path, trained: TrainedModel, standardizer: Standardizer) -> Path:
    """Write ``model.ckpt``: the model's parameters, then the statistics its
    inputs are standardized with (``standardizer.mean``, ``standardizer.std``),
    all as float32, under a header holding the network and training configs."""
    params = dict(trained.model.parameters())
    params["standardizer.mean"] = standardizer.mean
    params["standardizer.std"] = standardizer.std
    config = trained.model.config
    header = {
        "network": asdict(config),
        "training": asdict(trained.train_config),
        "model_seed": trained.model.seed,
        "best_epoch": trained.best_epoch,
        "best_val_total": trained.best_val_total,
        "heads": [asdict(h) for h in config.heads],
    }
    return nn.save_checkpoint(path, params, header)


def load_model(path: str | Path) -> tuple[MultiTaskModel, TrainConfig, Standardizer]:
    """Load a `save_model` checkpoint. Returns (model, training config, standardizer).

    The model is float32, as it trained, and scores as the model that wrote
    the checkpoint does. Its vector is a mapping of its own
    (`features.mapped_array`), so freeing it leaves malloc's thresholds alone,
    and `nn.load_checkpoint` reads the checkpoint's float32 values into it in
    place, in the file's order; no initial values are drawn. The standardizer's
    statistics are read in the same pass into new float64 arrays, exactly.
    It is the program's one reader of a checkpoint. The header's ``network``
    and ``training`` are decoded with `from_dict`.
    Raises ValueError naming ``path`` (as `nn.load_checkpoint` does) for a
    header it cannot decode, and naming the parameter as well when one of the
    model's parameters or statistics is missing or has another shape, or when
    the file holds a parameter that is neither."""
    loaded = []

    def into(header):
        config = from_dict(MTLNetworkConfig, header["network"])
        training = from_dict(TrainConfig, header["training"])
        vector = mapped_array((sum(_layer_sizes(config)),), np.float32)
        model = MultiTaskModel(config, header["model_seed"], np.float32, vector)
        mean, std = np.empty(N_FEATURES), np.empty(N_FEATURES)
        loaded.extend((model, training, mean, std))
        return {**model.parameters(), "standardizer.mean": mean, "standardizer.std": std}

    nn.load_checkpoint(path, into)
    model, training, mean, std = loaded
    return model, training, Standardizer(mean=mean, std=std)


def write_history_csv(path: str | Path, history: list[EpochStats],
                      heads: tuple[TaskHead, ...]) -> Path:
    path = Path(path)
    names = [h.name for h in heads]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch"]
            + [f"train_{n}" for n in names] + ["train_total"]
            + [f"val_{n}" for n in names] + ["val_total"]
            + ["grad_norm_mean", "grad_norm_max", "clip_frac"]
        )
        for row in history:
            writer.writerow(
                [row.epoch]
                + [repr(row.train_losses[n]) for n in names] + [repr(row.train_total)]
                + [repr(row.val_losses[n]) for n in names] + [repr(row.val_total)]
                + [repr(row.grad_norm_mean), repr(row.grad_norm_max), repr(row.clip_frac)]
            )
    return path
