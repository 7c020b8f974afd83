"""Minimal trainable neural core: dense and LSTM layers, softmax cross-entropy,
inverted dropout, Adam, gradient clipping, and checkpoint I/O.

Layers compute in the dtype of their parameters (float64 unless built with
another ``dtype``); the multi-task model trains in float32 and scores in
float64, see `mtl.MultiTaskModel`. A layer's parameters are views into one 1-D
vector, its own or a slice of its model's. Softmax cross-entropy computes its
loss in float64 and returns its gradient in the dtype of the logits.
Checkpoints serialize parameters as float32 LE.

`LSTMLayer.step` is the one home of the LSTM gate math: the training `forward`
(which caches every step for BPTT) and the cache-free, time-major inference
pass in `mtl.MultiTaskModel.emotion_posteriors` both advance the cell with it.
"""
from __future__ import annotations

import copy
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = "PMTL-CKPT-1"


class ShapeError(ValueError):
    """Raised on inconsistent array shapes."""


class NumericsError(FloatingPointError):
    """Raised on non-finite inputs or gradients."""


def _param_views(vector: np.ndarray | None, shapes, dtype) -> list[np.ndarray]:
    """Views of consecutive slices of ``vector``, one per shape; a zero vector of
    the right size is allocated when ``vector`` is None."""
    sizes = [math.prod(shape) for shape in shapes]
    if vector is None:
        vector = np.zeros(sum(sizes), dtype)
    ends = np.cumsum(sizes)
    return [vector[end - size : end].reshape(shape) for end, size, shape in zip(ends, sizes, shapes)]


def _glorot(out: np.ndarray, rng: np.random.Generator | None) -> None:
    """Glorot-uniform values written into ``out``; it is left as it is (zeros) without an rng."""
    if rng is None:
        return
    fan_out, fan_in = out.shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    # the same float64 draws for every dtype, so a float32 layer is the rounded float64 one;
    # drawn a block of rows at a time (the same stream) to keep the temporary small
    step = max(1, (1 << 16) // fan_in)
    for start in range(0, fan_out, step):
        out[start : start + step] = rng.uniform(-limit, limit, out[start : start + step].shape)


def with_dtype(layer, dtype):
    """``layer`` itself if its parameters are already ``dtype``, else a shallow
    copy whose parameters are cast to ``dtype``."""
    params = layer.parameters()
    if all(arr.dtype == dtype for arr in params.values()):
        return layer
    out = copy.copy(layer)
    for name, arr in params.items():
        setattr(out, name, arr.astype(dtype))
    return out


class DenseLayer:
    """Fully connected layer Y = act(X W^T + b) with a relu or linear activation."""

    ACTIVATIONS = ("relu", "linear")

    def __init__(self, n_in: int, n_out: int, activation: str = "linear",
                 rng: np.random.Generator | None = None, dtype=np.float64,
                 vector: np.ndarray | None = None):
        """``vector``, if given, is the 1-D array of `size` elements that holds the
        parameters (``w``, then ``b``)."""
        if activation not in self.ACTIVATIONS:
            raise ValueError(f"unknown activation: {activation!r}")
        self.n_in = n_in
        self.n_out = n_out
        self.activation = activation
        self.w, self.b = _param_views(vector, ((n_out, n_in), (n_out,)), dtype)
        _glorot(self.w, rng)

    @staticmethod
    def size(n_in: int, n_out: int) -> int:
        """The number of parameters of a layer of this shape."""
        return n_out * (n_in + 1)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=self.w.dtype)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(f"expected (batch, {self.n_in}), got {x.shape}")
        z = x @ self.w.T + self.b
        y = np.maximum(z, 0.0) if self.activation == "relu" else z
        return y, (x, z)

    def backward(self, dy: np.ndarray, cache, input_grad: bool = True,
                 grads: dict[str, np.ndarray] | None = None):
        """(dX, parameter gradients); dX is None when ``input_grad`` is false.
        ``grads`` (arrays shaped like the parameters) receives the gradients;
        without it they are allocated."""
        x, z = cache
        dz = dy * (z > 0.0) if self.activation == "relu" else dy
        out = grads or {}
        grads = {"w": np.matmul(dz.T, x, out=out.get("w")), "b": np.sum(dz, axis=0, out=out.get("b"))}
        return (dz @ self.w if input_grad else None), grads


class LSTMLayer:
    """Single-direction LSTM over (batch, time, features) sequences.

    Gate parameters are stored stacked in (i, f, g, o) order: ``w_x`` maps the
    input, ``w_h`` the previous hidden state. The forget-gate bias slice is
    initialized to 1.0.
    """

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator | None = None,
                 dtype=np.float64, vector: np.ndarray | None = None):
        """``vector``, if given, is the 1-D array of `size` elements that holds the
        parameters (``w_x``, ``w_h``, then ``b``)."""
        self.n_in = n_in
        self.n_hidden = n_hidden
        gates = 4 * n_hidden
        self.w_x, self.w_h, self.b = _param_views(
            vector, ((gates, n_in), (gates, n_hidden), (gates,)), dtype)
        _glorot(self.w_x, rng)
        _glorot(self.w_h, rng)
        self.b[n_hidden : 2 * n_hidden] = 1.0

    @staticmethod
    def size(n_in: int, n_hidden: int) -> int:
        """The number of parameters of a layer of this shape."""
        return 4 * n_hidden * (n_in + n_hidden + 1)

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

    def backward(self, dh_seq: np.ndarray, cache, input_grad: bool = True,
                 grads: dict[str, np.ndarray] | None = None):
        """(dX, parameter gradients); dX is None when ``input_grad`` is false.
        ``grads`` (arrays shaped like the parameters) receives the gradients;
        without it they are allocated."""
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
        out = grads or {}
        grads = {
            "w_x": np.matmul(flat_da.T, x.reshape(-1, self.n_in), out=out.get("w_x")),
            "w_h": np.matmul(flat_da.T, h_prev.reshape(-1, hsz), out=out.get("w_h")),
            "b": np.sum(flat_da, axis=0, out=out.get("b")),
        }
        dx = da_all @ self.w_x if input_grad else None
        return dx, grads


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or np.any(labels < 0) or np.any(labels >= n_classes):
        raise ShapeError("labels must be a 1-D vector of class indices")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def softmax_xent(logits: np.ndarray, targets: np.ndarray):
    """Mean categorical cross-entropy with a log-sum-exp-stabilized softmax,
    computed in float64.

    Returns (loss, probs, dlogits) where dlogits = (probs - targets) / batch,
    in the dtype of ``logits`` (float64 for non-float logits).
    """
    logits = np.asarray(logits)
    grad_dtype = np.result_type(logits.dtype, np.float32)
    logits = logits.astype(np.float64, copy=False)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError("logits must be (batch, K) with K >= 2")
    if targets.shape != logits.shape:
        raise ShapeError("targets shape must match logits")
    is_binary = (targets == 0.0) | (targets == 1.0)
    if not np.all(is_binary) or not np.all(targets.sum(axis=1) == 1.0):
        raise ValueError("target rows must be one-hot")
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)
    loss = float(-np.sum(targets * log_probs) / batch)
    dlogits = ((probs - targets) / batch).astype(grad_dtype, copy=False)
    return loss, probs, dlogits


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


# Adam updates this many elements at a time, through two chunk-sized temporaries
ADAM_CHUNK = 1 << 16


@dataclass
class AdamState:
    """Adam's moments, arrays shaped like the parameter array they update."""
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(state: AdamState, p: np.ndarray, g: np.ndarray) -> None:
    """One bias-corrected Adam update of ``p`` with gradient ``g``, in place.

    ``ADAM_CHUNK`` elements are updated at a time, in the element-wise order of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; p -= lr*(m/b1c)/(sqrt(v/b2c)+eps)``."""
    if g.shape != p.shape:
        raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    if not (p.flags.c_contiguous and g.flags.c_contiguous):
        raise ShapeError("parameter and gradient must be C-contiguous")
    if not np.all(np.isfinite(g)):
        raise NumericsError("non-finite gradient")
    state.t += 1
    b1c = 1.0 - state.beta1 ** state.t
    b2c = 1.0 - state.beta2 ** state.t
    p, g, m, v = (arr.reshape(-1) for arr in (p, g, state.m, state.v))
    a_buf, b_buf = (np.empty(min(p.size, ADAM_CHUNK), p.dtype) for _ in range(2))
    for start in range(0, p.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        gc, mc, vc = g[chunk], m[chunk], v[chunk]
        a, b = a_buf[: gc.size], b_buf[: gc.size]
        mc *= state.beta1
        mc += np.multiply(gc, 1.0 - state.beta1, out=a)
        vc *= state.beta2
        vc += np.multiply(np.multiply(gc, gc, out=a), 1.0 - state.beta2, out=a)
        np.multiply(np.divide(mc, b1c, out=a), state.lr, out=a)
        np.add(np.sqrt(np.divide(vc, b2c, out=b), out=b), state.eps, out=b)
        p[chunk] -= np.divide(a, b, out=a)


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


# ---------------------------------------------------------------------------
# Checkpoints: u32 LE header length, JSON header, float32 LE parameter blob
# in the header's documented parameter order.
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], header: dict) -> Path:
    entries = [{"name": name, "shape": list(np.asarray(arr).shape)} for name, arr in params.items()]
    full_header = dict(header)
    full_header["format"] = CHECKPOINT_FORMAT
    full_header["dtype"] = "<f4"
    full_header["params"] = entries
    blob = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in params.values())
    head = json.dumps(full_header, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(blob)
    return path


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (params, header), the header as it was given to `save_checkpoint`.

    Raises ValueError naming ``path`` for a foreign, truncated or overlong file:
    a header length past the end of the file, or bytes after the parameter blob.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(4)
        if len(raw) < 4:
            raise ValueError(f"truncated checkpoint: {path}")
        (head_len,) = struct.unpack("<I", raw)
        if 4 + head_len > size:
            raise ValueError(f"checkpoint header length {head_len} exceeds the file size {size}: {path}")
        header = json.loads(fh.read(head_len).decode("utf-8"))
        if header.pop("format", None) != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint: {path}")
        del header["dtype"]
        params: dict[str, np.ndarray] = {}
        for entry in header.pop("params"):
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(4 * count), dtype="<f4")
            if data.size != count:
                raise ValueError(f"truncated checkpoint: {path}")
            params[entry["name"]] = data.reshape(shape).astype(np.float64)
        if fh.read(1):
            raise ValueError(f"trailing bytes after the parameter blob: {path}")
    return params, header
