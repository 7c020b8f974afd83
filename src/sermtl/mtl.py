"""Shared-trunk multi-task model: assembly, weighted total loss, training loop
with early stopping, and emotion posterior extraction (subtask heads are kept
in checkpoints but never used at inference).

A model trains in its dtype (float32 by default) and scores in float64 from
those same weights, so a model reloaded from its float32 checkpoint scores
exactly like the model that wrote it.
"""
from __future__ import annotations

import csv
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .codec import from_dict
from .features import FeatureStore, Standardizer, apply_standardizer
from .seeding import derive_seed

TASK_EMOTION = "emotion"
TASK_GENDER = "gender"
TASK_NATURALNESS = "naturalness"

_TASK_CLASSES = {TASK_EMOTION: 4, TASK_GENDER: 4, TASK_NATURALNESS: 2}

SUBTASK_MODES = ("all", "gender", "naturalness", "none")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


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
    n_features: int = 32

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

    @property
    def input_width(self) -> int:
        if self.trunk == "dnn":
            return self.context_frames * self.n_features
        return self.n_features

    @property
    def heads(self) -> tuple[TaskHead, ...]:
        heads = [TaskHead(TASK_EMOTION, _TASK_CLASSES[TASK_EMOTION], 1.0)]
        if self.subtask_mode in ("all", "gender"):
            heads.append(TaskHead(TASK_GENDER, _TASK_CLASSES[TASK_GENDER], self.subtask_weight))
        if self.subtask_mode in ("all", "naturalness"):
            heads.append(TaskHead(TASK_NATURALNESS, _TASK_CLASSES[TASK_NATURALNESS], self.subtask_weight))
        return tuple(heads)


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
    clip_norm: float = 5.0

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


# DNN posteriors score the windows of consecutive utterances up to this many
# rows at a time: the few windows of one short utterance (24 of 0.5 s) make
# GEMMs of about half the throughput
POSTERIOR_BLOCK_ROWS = 128


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class MultiTaskModel:
    """Shared trunk (dense stack or LSTM stack) with one linear softmax head per task.

    Heads are created in a fixed order (emotion first, then subtasks), so a
    subtask-free model shares its trunk and emotion-head initialization with
    the multi-task variants built from the same seed.

    ``dtype`` is the training dtype: parameters, activations, caches, dropout
    masks, gradients and Adam moments all use it. Losses are computed in
    float64, and `emotion_posteriors` always scores in float64.

    Every parameter is a view into one 1-D vector, ``vector``, in `parameters()`
    order; gradients and Adam moments are vectors of the same layout.
    """

    def __init__(self, config: MTLNetworkConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(derive_seed(seed, "init"))
        widths = (config.input_width,) + config.layer_sizes
        trunk = nn.DenseLayer if config.trunk == "dnn" else nn.LSTMLayer
        sizes = [trunk.size(n_in, n_out) for n_in, n_out in zip(widths, widths[1:])]
        sizes += [nn.DenseLayer.size(widths[-1], head.n_classes) for head in config.heads]
        self.vector = np.zeros(sum(sizes), self.dtype)
        slices = iter(np.split(self.vector, np.cumsum(sizes)[:-1]))
        self.trunk_layers = [
            nn.DenseLayer(n_in, n_out, "relu", rng, dtype, next(slices)) if config.trunk == "dnn"
            else nn.LSTMLayer(n_in, n_out, rng, dtype=dtype, vector=next(slices))
            for n_in, n_out in zip(widths, widths[1:])]
        self.heads = {head.name: nn.DenseLayer(widths[-1], head.n_classes, "linear", rng, dtype, next(slices))
                      for head in config.heads}
        self._grad_views = None

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

    @contextmanager
    def gradient_vector(self):
        """While open, `loss_and_grads` writes its gradients into the vector this
        yields, laid out as `vector`; each call overwrites the last one's. (A
        new vector per training step would take fresh pages at every step.)"""
        grad = np.empty_like(self.vector)
        self._grad_views = self.layer_views(grad)
        try:
            yield grad
        finally:
            self._grad_views = None

    # -- forward/backward -------------------------------------------------

    def _trunk_forward(self, x, dropout_p: float, rng, train: bool):
        p = dropout_p if train else 0.0
        caches = []
        h = x
        for layer in self.trunk_layers:
            h, cache = layer.forward(h)
            h, mask = nn.dropout(h, p, rng)
            caches.append((cache, mask))
        return h, caches

    def _trunk_backward(self, dh, caches, views: list[dict]) -> dict[str, np.ndarray]:
        """Trunk parameter gradients, written into ``views`` (one dict per layer);
        the gradient of the input is never formed."""
        grads: dict[str, np.ndarray] = {}
        for i in range(len(self.trunk_layers) - 1, -1, -1):
            layer = self.trunk_layers[i]
            cache, mask = caches[i]
            if mask is not None:
                dh = dh * mask
            dh, layer_grads = layer.backward(dh, cache, i > 0, views[i])
            for key, g in layer_grads.items():
                grads[f"trunk.{i}.{key}"] = g
        return grads

    def loss_and_grads(self, batch: dict, dropout_p: float = 0.0,
                       rng: np.random.Generator | None = None, train: bool = True):
        """Per-task losses, the weighted total, and gradients for one mini-batch.

        DNN batches: {"x": (B, input_width), "targets": {task: (B,) ints}}.
        LSTM batches: {"x": (B, T, n_features), "mask": (B, T) bool,
        "targets": {task: (B,) ints}} with frame-broadcast chunk labels and
        padding excluded from every per-frame loss mean.

        The gradients are views into a vector laid out as `vector`: a new one, or
        the open `gradient_vector`. They are keyed like `parameters()` and ordered
        as they are computed: heads, then the trunk from the top.
        """
        trunk_views, head_views = self._grad_views or self.layer_views(np.empty_like(self.vector))
        h, caches = self._trunk_forward(batch["x"], dropout_p, rng, train)
        rows, targets = self._scored_rows(h, batch)
        losses, dh, grads = self._head_pass(rows, targets, head_views)
        if "mask" in batch:
            # scatter the row gradients back over the padded (B, T, H) trunk output
            dh_rows, dh = dh, np.zeros(h.shape, h.dtype)
            dh[batch["mask"]] = dh_rows
        grads.update(self._trunk_backward(dh, caches, trunk_views))
        return losses, total_loss(losses, self.config.heads), grads

    def batch_losses(self, batch: dict) -> dict[str, float]:
        """Per-task losses of one mini-batch in eval mode (no dropout), forward
        only: equal to those of ``loss_and_grads(batch, train=False)``."""
        h, _ = self._trunk_forward(batch["x"], 0.0, None, False)
        losses, _, _ = self._head_pass(*self._scored_rows(h, batch))
        return losses

    def _scored_rows(self, h, batch):
        """The trunk output as one row per scored sample, and the matching targets:
        LSTM chunk labels are broadcast to every valid (unpadded) frame."""
        if "mask" not in batch:
            return h, batch["targets"]
        mask = batch["mask"]
        targets = {name: np.repeat(np.asarray(t, dtype=np.int64), mask.shape[1])[mask.reshape(-1)]
                   for name, t in batch["targets"].items()}
        return h[mask], targets

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

    def emotion_posteriors(self, features: np.ndarray, lengths: Sequence[int]):
        """Emotion posteriors from standardized features. Subtask heads produce no
        output here.

        ``features`` holds ``len(lengths)`` utterances of ``lengths`` frames
        stacked along the frame axis; one utterance is a block of one. The result
        is the list of their posterior sequences: LSTM trunks emit one row per
        frame, DNN trunks one row per context window.

        Scoring runs in float64 whatever the model's dtype: the trunk and the
        emotion head are upcast once per call (exactly), not at every product.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.config.n_features:
            raise nn.ShapeError(f"features must be (n, {self.config.n_features})")
        trunk = [nn.with_dtype(layer, np.float64) for layer in self.trunk_layers]
        head = nn.with_dtype(self.heads[TASK_EMOTION], np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or lengths.size == 0 or np.any(lengths < 1):
            raise ValueError("lengths must be a non-empty list of positive frame counts")
        if int(lengths.sum()) != features.shape[0]:
            raise ValueError(f"lengths sum to {int(lengths.sum())}, features have {features.shape[0]} rows")
        if self.config.trunk == "lstm":
            return self._lstm_block_posteriors(trunk, head, features, lengths)
        return self._dnn_block_posteriors(trunk, head, features, lengths)

    def _dnn_block_posteriors(self, trunk, head, features, lengths):
        """DNN pass over stacked utterances, one GEMM chain per block of rows: the
        context windows of consecutive utterances, up to POSTERIOR_BLOCK_ROWS of
        them (or one utterance's, if it has more), gathered with one fancy index."""
        context = self.config.context_frames
        short = lengths < context
        if np.any(short):
            raise ValueError(f"too few frames for DNN context: {lengths[short][0]} < {context}")
        windows = np.lib.stride_tricks.sliding_window_view(features, (context, features.shape[1]))[:, 0]
        counts = lengths - context + 1
        ends = np.cumsum(counts)
        # window k of the stack starts context - 1 frames later per utterance before its own
        first_row = np.arange(ends[-1]) + (context - 1) * np.repeat(np.arange(lengths.size), counts)
        posteriors = []
        u = 0
        while u < lengths.size:
            lo = ends[u] - counts[u]
            v = max(u + 1, int(np.searchsorted(ends, lo + POSTERIOR_BLOCK_ROWS, side="right")))
            h = windows[first_row[lo : ends[v - 1]]].reshape(ends[v - 1] - lo, -1)
            for layer in trunk:
                h, _ = layer.forward(h)
            logits, _ = head.forward(h)
            posteriors.extend(np.split(_stable_softmax(logits), ends[u : v - 1] - lo))
            u = v
        return posteriors

    def _lstm_block_posteriors(self, trunk, head, features, lengths):
        """Time-major LSTM pass over a block of stacked utterances.

        Utterances are ordered by length (descending, stable), so those still
        running at step t are a prefix of that order: each step advances every
        layer, then the emotion head, on that prefix alone. Nothing is padded and
        no training cache is kept; the state is (block, hidden) per layer.
        """
        if not np.all(np.isfinite(features)):
            raise nn.NumericsError("non-finite input to LSTM")
        order = np.argsort(-lengths, kind="stable")
        starts = (np.cumsum(lengths) - lengths)[order]
        by_length = lengths[order]
        state = [(np.zeros((order.size, layer.n_hidden)), np.zeros((order.size, layer.n_hidden)))
                 for layer in trunk]
        logits = np.empty((features.shape[0], head.n_out))
        for t in range(int(by_length[0])):
            active = int(np.count_nonzero(by_length > t))
            rows = starts[:active] + t
            x = features[rows]
            for k, layer in enumerate(trunk):
                h, c = state[k]
                _, _, _, _, c, _, x = layer.step(x @ layer.w_x.T, h[:active], c[:active])
                state[k] = (x, c)
            logits[rows] = x @ head.w.T + head.b
        return np.split(_stable_softmax(logits), np.cumsum(lengths)[:-1])


def posteriors_in_blocks(model: MultiTaskModel, blocks, standardizer: Standardizer):
    """Yield the emotion posteriors of every utterance of each store in ``blocks``,
    in order. Each store is standardized in float64 and scored in one
    `emotion_posteriors` call. ``blocks`` may be a generator: it is consumed one
    store at a time, and a store it alone holds is freed before scoring."""
    for block in blocks:
        features = apply_standardizer(standardizer, block.gather(range(len(block))))
        lengths = block.lengths
        del block
        yield from model.emotion_posteriors(features, lengths)


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
                dataset.matrix, (config.context_frames, config.n_features))[:, 0]
            batch["x"] = windows[rows].reshape(rows.size, -1).astype(model.dtype, copy=False)
        else:
            steps = np.arange(frames[samples].max())
            mask = steps < frames[samples][:, None]
            x = np.zeros(mask.shape + (config.n_features,), model.dtype)
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

    with model.gradient_vector() as grad:
        adam = nn.AdamState(np.zeros_like(grad), np.zeros_like(grad), lr=tc.lr)
        for epoch in range(tc.max_epochs):
            weighted, norms = [], []
            for start, batch in _batches(model, train_set, index, rng.permutation(index[0].size),
                                         tc.batch_size):
                losses, batch_total, step_grads = model.loss_and_grads(
                    batch, dropout_p=tc.dropout_p, rng=rng, train=True
                )
                if not np.isfinite(batch_total):
                    raise TrainingDivergedError(
                        f"non-finite training loss at epoch {epoch}, sample {start}"
                    )
                norms.append(nn.clip_global_norm(step_grads, tc.clip_norm))
                nn.adam_step(adam, model.vector, grad)
                weighted.append((losses, _batch_weight(batch)))
            train_losses = _mean_losses(weighted, heads)
            val_losses, val_total = _dataset_losses(model, val_set, val_index, tc)
            clipped = sum(1 for norm in norms if tc.clip_norm > 0 and norm > tc.clip_norm)
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

def save_model(path: str | Path, trained: TrainedModel,
               extra_params: dict[str, np.ndarray] | None = None) -> Path:
    params = dict(trained.model.parameters())
    if extra_params:
        params.update(extra_params)
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


def load_model(path: str | Path):
    """Load a model checkpoint. Returns (MultiTaskModel, header, extra_params).

    The model is float64: it only scores, and a float64 model needs no upcast
    copy to do so. Its weights are the checkpoint's float32 values."""
    params, header = nn.load_checkpoint(path)
    model = MultiTaskModel(from_dict(MTLNetworkConfig, header["network"]), seed=header["model_seed"],
                           dtype=np.float64)
    own = model.parameters()
    extras: dict[str, np.ndarray] = {}
    for name, values in params.items():
        if name in own:
            own[name][...] = values
        else:
            extras[name] = values
    return model, header, extras


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
