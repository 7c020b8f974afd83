"""The training step as `sermtl` ran it before its models kept their parameters,
gradients and Adam moments in flat vectors: layers with parameter arrays of
their own, `DenseLayer.forward`/`backward`, `LSTMLayer.step`/`forward`/`backward`,
`dropout`, `MultiTaskModel.loss_and_grads` with its helpers, `batch_losses`,
`AdamState`, `adam_step`, `clip_global_norm`, `EpochStats` and `train`; and
the LSTM scoring loop as it ran before `LSTMLayer.step` updated its gates in
place, `lstm_block_posteriors`, now in the model's dtype with its small
products padded. The other method and function bodies are kept verbatim
(``nn.`` prefixes dropped; `train` clips to ``mtl.CLIP_NORM``, read at each
step so a test can patch it, where it read ``TrainConfig.clip_norm``) as the
oracle for test_training_oracle.py.
Not a test module itself."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sermtl import mtl
from sermtl.mtl import (TrainConfig, TrainingDivergedError, _batch_weight, _batches, _dataset_losses,
                        _mean_losses, _product_rows, _sample_index, _stable_softmax, total_loss)
from sermtl.nn import NumericsError, ShapeError, one_hot, softmax_xent
from sermtl.seeding import derive_seed


class DenseLayer:
    """A dense layer over the given parameter arrays."""

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str):
        self.n_out, self.n_in = w.shape
        self.activation = activation
        self.w, self.b = w, b

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=self.w.dtype)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(f"expected (batch, {self.n_in}), got {x.shape}")
        z = x @ self.w.T + self.b
        if self.activation == "relu":
            y = np.maximum(z, 0.0)
        elif self.activation == "sigmoid":
            y = 1.0 / (1.0 + np.exp(-z))
        else:
            y = z
        return y, (x, z, y)

    def backward(self, dy: np.ndarray, cache, input_grad: bool = True):
        """(dX, parameter gradients); dX is None when ``input_grad`` is false."""
        x, z, y = cache
        if self.activation == "relu":
            dz = dy * (z > 0.0)
        elif self.activation == "sigmoid":
            dz = dy * y * (1.0 - y)
        else:
            dz = dy
        grads = {"w": dz.T @ x, "b": dz.sum(axis=0)}
        return (dz @ self.w if input_grad else None), grads


class LSTMLayer:
    """An LSTM layer over the given parameter arrays."""

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray):
        self.n_in = w_x.shape[1]
        self.n_hidden = w_h.shape[1]
        self.w_x, self.w_h, self.b = w_x, w_h, b

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b}

    def step(self, xw_t: np.ndarray, h: np.ndarray, c: np.ndarray):
        """One cell update for a block of rows: the gate pre-activations from the
        input projection ``xw_t = x_t @ w_x.T`` (rows, 4H) and the previous state
        (h, c), then the new state. Returns (i, f, g, o, c, tanh(c), h)."""
        hsz = self.n_hidden
        a = xw_t + h @ self.w_h.T + self.b
        i = 1.0 / (1.0 + np.exp(-a[:, :hsz]))
        f = 1.0 / (1.0 + np.exp(-a[:, hsz : 2 * hsz]))
        g = np.tanh(a[:, 2 * hsz : 3 * hsz])
        o = 1.0 / (1.0 + np.exp(-a[:, 3 * hsz :]))
        c = f * c + i * g
        tc = np.tanh(c)
        return i, f, g, o, c, tc, o * tc

    def forward(self, x: np.ndarray):
        """The hidden sequence (batch, time, H) from a zero initial state, and the cache."""
        dtype = self.w_x.dtype
        x = np.asarray(x, dtype=dtype)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"expected (batch, time, {self.n_in}), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise NumericsError("non-finite input to LSTM")
        batch, time, _ = x.shape
        hsz = self.n_hidden
        h = np.zeros((batch, hsz), dtype)
        c = np.zeros((batch, hsz), dtype)

        xw = x @ self.w_x.T  # (batch, time, 4H), hoisted out of the loop
        gates = np.empty((batch, time, 4 * hsz), dtype)
        cells = np.empty((batch, time, hsz), dtype)
        cell_tanh = np.empty((batch, time, hsz), dtype)
        hidden = np.empty((batch, time, hsz), dtype)

        for t in range(time):
            i, f, g, o, c, tc, h = self.step(xw[:, t], h, c)
            gates[:, t, :hsz] = i
            gates[:, t, hsz : 2 * hsz] = f
            gates[:, t, 2 * hsz : 3 * hsz] = g
            gates[:, t, 3 * hsz :] = o
            cells[:, t] = c
            cell_tanh[:, t] = tc
            hidden[:, t] = h
        # `hidden` is also the recurrent input of the next step; `backward` shifts it
        cache = (x, gates, cells, cell_tanh, hidden)
        return hidden, cache

    def backward(self, dh_seq: np.ndarray, cache, input_grad: bool = True):
        """(dX, parameter gradients); dX is None when ``input_grad`` is false."""
        x, gates, cells, cell_tanh, hidden = cache
        batch, time, hsz = cells.shape
        dtype = cells.dtype
        zero_state = np.zeros((batch, hsz), dtype)
        da_all = np.empty((batch, time, 4 * hsz), dtype)
        dh = np.zeros((batch, hsz), dtype)
        dc = np.zeros((batch, hsz), dtype)
        for t in range(time - 1, -1, -1):
            i = gates[:, t, :hsz]
            f = gates[:, t, hsz : 2 * hsz]
            g = gates[:, t, 2 * hsz : 3 * hsz]
            o = gates[:, t, 3 * hsz :]
            tc = cell_tanh[:, t]
            c_before = cells[:, t - 1] if t > 0 else zero_state
            dh = dh + dh_seq[:, t]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_before
            dg = dc * i
            da = da_all[:, t]
            da[:, :hsz] = di * i * (1.0 - i)
            da[:, hsz : 2 * hsz] = df * f * (1.0 - f)
            da[:, 2 * hsz : 3 * hsz] = dg * (1.0 - g * g)
            da[:, 3 * hsz :] = do * o * (1.0 - o)
            if t > 0:  # the gradients of the zero initial state are never used
                dh = da @ self.w_h
                dc = dc * f
        flat_da = da_all.reshape(-1, 4 * hsz)
        h_prev = np.concatenate([zero_state[:, None], hidden[:, :-1]], axis=1)
        grads = {
            "w_x": flat_da.T @ x.reshape(-1, self.n_in),
            "w_h": flat_da.T @ h_prev.reshape(-1, hsz),
            "b": flat_da.sum(axis=0),
        }
        dx = da_all @ self.w_x if input_grad else None
        return dx, grads


def lstm_block_posteriors(trunk, head, features, lengths):
    """`MultiTaskModel._lstm_block_posteriors` over `LSTMLayer`s and a `DenseLayer`
    head, in the dtype of their parameters, on ``features`` rounded once to it.
    Each product is padded with copies of its last row to `_product_rows` rows,
    and only the running rows are kept."""
    if not np.all(np.isfinite(features)):
        raise NumericsError("non-finite input to LSTM")
    dtype = head.w.dtype
    features = features.astype(dtype)
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    by_length = lengths[order]
    state = [(np.zeros((order.size, layer.n_hidden), dtype), np.zeros((order.size, layer.n_hidden), dtype))
             for layer in trunk]
    logits = np.empty((features.shape[0], head.n_out), dtype)
    for t in range(int(by_length[0])):
        active = int(np.count_nonzero(by_length > t))
        rows = starts[:active] + t
        x = features[rows]
        for k, layer in enumerate(trunk):
            h, c = state[k]
            m = _product_rows(4 * layer.n_hidden)
            _, _, _, _, c, _, x = layer.step(_padded(x, m) @ layer.w_x.T, _padded(h[:active], m),
                                             _padded(c[:active], m))
            x, c = x[:active], c[:active]
            state[k] = (x, c)
        logits[rows] = (_padded(x, _product_rows(head.n_out)) @ head.w.T)[:active] + head.b
    return np.split(_stable_softmax(logits), np.cumsum(lengths)[:-1])


def _padded(x, rows):
    """``x`` followed by copies of its last row, up to ``rows`` rows."""
    return np.concatenate([x, np.repeat(x[-1:], max(0, rows - len(x)), axis=0)])


def dropout(x: np.ndarray, p: float, rng: np.random.Generator | None = None):
    """Inverted dropout with drop probability ``p``. Returns (output, scale_mask),
    the mask in the dtype of ``x`` (float64 for non-float ``x``); at ``p == 0``
    (evaluation) the input passes through and the mask is None."""
    if not 0.0 <= p < 1.0:
        raise ValueError("drop probability must be in [0, 1)")
    if p == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout needs an rng")
    keep = rng.random(x.shape) >= p
    mask = keep / np.asarray(1.0 - p, dtype=np.result_type(x.dtype, np.float32))
    return x * mask, mask


class MultiTaskModel:
    """A copy of a `sermtl.mtl.MultiTaskModel`, each parameter an array of its own."""

    def __init__(self, model):
        self.config = model.config
        self.dtype = model.dtype
        params = {name: arr.copy() for name, arr in model.parameters().items()}
        self.trunk_layers = []
        for i in range(len(model.trunk_layers)):
            if model.config.trunk == "dnn":
                self.trunk_layers.append(DenseLayer(params[f"trunk.{i}.w"], params[f"trunk.{i}.b"], "relu"))
            else:
                self.trunk_layers.append(LSTMLayer(*(params[f"trunk.{i}.{k}"] for k in ("w_x", "w_h", "b"))))
        self.heads = {h.name: DenseLayer(params[f"head.{h.name}.w"], params[f"head.{h.name}.b"], "linear")
                      for h in model.config.heads}

    def parameters(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.trunk_layers):
            for key, arr in layer.parameters().items():
                params[f"trunk.{i}.{key}"] = arr
        for head in self.config.heads:
            for key, arr in self.heads[head.name].parameters().items():
                params[f"head.{head.name}.{key}"] = arr
        return params

    def _trunk_forward(self, x, dropout_p: float, rng, train: bool):
        p = dropout_p if train else 0.0
        caches = []
        h = x
        for layer in self.trunk_layers:
            h, cache = layer.forward(h)
            h, mask = dropout(h, p, rng)
            caches.append((cache, mask))
        return h, caches

    def _trunk_backward(self, dh, caches) -> dict[str, np.ndarray]:
        """Trunk parameter gradients; the gradient of the input is never formed."""
        grads: dict[str, np.ndarray] = {}
        for i in range(len(self.trunk_layers) - 1, -1, -1):
            layer = self.trunk_layers[i]
            cache, mask = caches[i]
            if mask is not None:
                dh = dh * mask
            dh, layer_grads = layer.backward(dh, cache, input_grad=i > 0)
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
        """
        h, caches = self._trunk_forward(batch["x"], dropout_p, rng, train)
        rows, targets = self._scored_rows(h, batch)
        grads: dict[str, np.ndarray] = {}
        losses, dh = self._head_pass(rows, targets, grads)
        if "mask" in batch:
            # scatter the row gradients back over the padded (B, T, H) trunk output
            dh_rows, dh = dh, np.zeros(h.shape, h.dtype)
            dh[batch["mask"]] = dh_rows
        grads.update(self._trunk_backward(dh, caches))
        return losses, total_loss(losses, self.config.heads), grads

    def batch_losses(self, batch: dict) -> dict[str, float]:
        """Per-task losses of one mini-batch in eval mode (no dropout), forward
        only: equal to those of ``loss_and_grads(batch, train=False)``."""
        h, _ = self._trunk_forward(batch["x"], 0.0, None, False)
        losses, _ = self._head_pass(*self._scored_rows(h, batch))
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

    def _head_pass(self, h_rows, targets_rows, grads=None):
        """Per-task losses over trunk output rows. With a ``grads`` dict, also
        stores the head gradients in it and returns the gradient of ``h_rows``
        (None otherwise)."""
        losses: dict[str, float] = {}
        dh = None if grads is None else np.zeros_like(h_rows)
        for head_spec in self.config.heads:
            head = self.heads[head_spec.name]
            logits, cache = head.forward(h_rows)
            onehot = one_hot(targets_rows[head_spec.name], head_spec.n_classes)
            loss, _, dlogits = softmax_xent(logits, onehot)
            losses[head_spec.name] = loss
            if grads is None:
                continue
            if head_spec.loss_weight != 0.0:
                dx, head_grads = head.backward(dlogits * head_spec.loss_weight, cache)
                dh += dx
            else:
                head_grads = {k: np.zeros_like(v) for k, v in head.parameters().items()}
            for key, g in head_grads.items():
                grads[f"head.{head_spec.name}.{key}"] = g
        return losses, dh


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float = 3e-3) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            lr=lr,
        )


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
    """One bias-corrected Adam update, in place. Returns the params dict."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for {name!r}")
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm. Returns the raw norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm  # a Python float, so each gradient is scaled in its own dtype
        for g in grads.values():
            g *= scale
    return norm


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_losses: dict[str, float]
    train_total: float
    val_losses: dict[str, float]
    val_total: float


@dataclass
class TrainedModel:
    model: "MultiTaskModel"
    train_config: TrainConfig
    history: list[EpochStats]
    best_epoch: int
    best_val_total: float


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
    params = model.parameters()
    adam = AdamState.for_params(params, lr=tc.lr)
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
    best_params: dict[str, np.ndarray] | None = None
    since_best = 0

    for epoch in range(tc.max_epochs):
        weighted = []
        for start, batch in _batches(model, train_set, index, rng.permutation(index[0].size),
                                     tc.batch_size):
            losses, batch_total, grads = model.loss_and_grads(
                batch, dropout_p=tc.dropout_p, rng=rng, train=True
            )
            if not np.isfinite(batch_total):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}, sample {start}"
                )
            clip_global_norm(grads, mtl.CLIP_NORM)
            adam_step(adam, params, grads)
            weighted.append((losses, _batch_weight(batch)))
        train_losses = _mean_losses(weighted, heads)
        val_losses, val_total = _dataset_losses(model, val_set, val_index, tc)
        history.append(
            EpochStats(
                epoch=epoch,
                train_losses=train_losses,
                train_total=total_loss(train_losses, heads),
                val_losses=val_losses,
                val_total=val_total,
            )
        )
        if val_total < best_val:
            best_val = val_total
            best_epoch = epoch
            best_params = {name: arr.copy() for name, arr in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= tc.patience:
                break

    assert best_params is not None
    for name, arr in params.items():
        arr[...] = best_params[name]
    return TrainedModel(
        model=model,
        train_config=tc,
        history=history,
        best_epoch=best_epoch,
        best_val_total=float(best_val),
    )
