"""Minimal trainable neural core: dense and LSTM layers, softmax cross-entropy,
inverted dropout, Adam, gradient clipping, and checkpoint I/O.

Layers compute in the dtype of their parameters (float64 unless built with
another ``dtype``); the multi-task model trains and scores in float32, see
`mtl.MultiTaskModel`. A layer's parameters are views into one 1-D vector, its
own or a slice of its model's. Softmax cross-entropy computes its loss in
float64 and returns its gradient in the dtype of the logits. Dropout keeps a
bool mask of the units it keeps; `dropout_scale` rebuilds the scale from it.

Checkpoints serialize parameters as float32 LE. `load_checkpoint` reads the
blob in the file's order through one small float32 buffer, straight into the
arrays its caller gives (a loaded model's float32 vector and its
standardizer's statistics).

`LSTMLayer.step` is the one home of the LSTM gate math, computed in place in a
gate buffer: the training `forward` (which copies each step's gates from and
back into the (batch, time, 4H) gate cache that BPTT reads) and the cache-free,
time-major inference pass in `mtl.MultiTaskModel.emotion_posteriors` both
advance the cell with it.

The weight-gradient products, whose inner dimension is batch x time, run on one
BLAS thread wherever they are computed (`blas.one_thread`), so a model trains
to the same bits on any thread count.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas

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
        with blas.one_thread():
            grads = {"w": np.matmul(dz.T, x, out=out.get("w"))}
        grads["b"] = np.sum(dz, axis=0, out=out.get("b"))
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

    def step(self, a: np.ndarray, h: np.ndarray, c: np.ndarray, hw: np.ndarray, out) -> None:
        """One cell update of a block of rows, in place.

        On entry ``a`` (rows, 4H) holds the input projection ``x_t @ w_x.T`` and
        (``h``, ``c``) the previous state; ``hw`` (rows, 4H) takes ``h @ w_h.T``,
        then serves as scratch.
        The recurrent product and the bias are added into ``a``, whose slices
        then become the gates (i, f, g, o). ``out`` = (c, tanh(c), h) of the new
        state, arrays (rows, H) written here; the new c may be ``c`` itself and
        the new h ``h`` itself."""
        hsz = self.n_hidden
        c_new, tc, h_new = out
        np.matmul(h, self.w_h.T, out=hw)
        a += hw
        a += self.b
        for s in (a[:, : 2 * hsz], a[:, 3 * hsz :]):  # sigmoid: 1 / (1 + exp(-s))
            # on a contiguous scratch in the spent ``hw``: on the row-strided
            # gate slices themselves it took about 1.5x as long
            tmp = hw.reshape(-1)[: s.size].reshape(s.shape)
            np.negative(s, out=tmp)
            np.exp(tmp, out=tmp)
            tmp += 1.0
            np.divide(1.0, tmp, out=s)
        i, f, g, o = (a[:, k * hsz : (k + 1) * hsz] for k in range(4))
        np.tanh(g, out=g)
        np.multiply(f, c, out=c_new)
        c_new += i * g
        np.tanh(c_new, out=tc)
        np.multiply(o, tc, out=h_new)

    def forward(self, x: np.ndarray):
        """The hidden sequence (batch, time, H) from a zero initial state, and the cache.

        The sequence is a view of the time-major hidden cache (time, batch, H),
        whose step rows are contiguous, as are the cell cache's. The gate cache
        stays batch-major (batch, time, 4H), the row order in which the weight
        gradients sum: each step's gates are computed in one contiguous
        (batch, 4H) buffer and copied back."""
        dtype = self.w_x.dtype
        x = np.asarray(x, dtype=dtype)
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ShapeError(f"expected (batch, time, {self.n_in}), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise NumericsError("non-finite input to LSTM")
        batch, time, _ = x.shape
        hsz = self.n_hidden
        zero_state = np.zeros((batch, hsz), dtype)
        a, hw = (np.empty((batch, 4 * hsz), dtype) for _ in range(2))
        cell_tanh = np.empty((batch, hsz), dtype)  # not cached: `backward` recomputes it

        # the input projection, then the gates; one product per sequence, as one
        # over batch x time rows would round some small shapes' rows otherwise
        gates = np.matmul(x, self.w_x.T)
        cells = np.empty((time, batch, hsz), dtype)
        hidden = np.empty((time, batch, hsz), dtype)

        for t in range(time):
            h, c = (hidden[t - 1], cells[t - 1]) if t else (zero_state, zero_state)
            a[...] = gates[:, t]
            self.step(a, h, c, hw, (cells[t], cell_tanh, hidden[t]))
            gates[:, t] = a
        # `hidden` is also the recurrent input of the next step; `backward` shifts it
        cache = [x, gates, cells, hidden]
        return hidden.transpose(1, 0, 2), cache

    def backward(self, dh_seq: np.ndarray, cache, input_grad: bool = True,
                 grads: dict[str, np.ndarray] | None = None):
        """(dX, parameter gradients); dX is None when ``input_grad`` is false.
        ``grads`` (arrays shaped like the parameters) receives the gradients;
        without it they are allocated.

        The cache is consumed: it is emptied, each step's gates are overwritten
        with their gradient once read, and the cell states and the hidden
        sequence are dropped once read (freed where no one else holds them),
        so a second backward needs a new `forward`."""
        x, gates, cells, hidden = cache
        cache.clear()
        time, batch, hsz = cells.shape
        dtype = cells.dtype
        zero_state = np.zeros((batch, hsz), dtype)
        da = np.empty((batch, 4 * hsz), dtype)
        tc = np.empty((batch, hsz), dtype)
        i, f, g, o = (da[:, k * hsz : (k + 1) * hsz] for k in range(4))
        dh = np.zeros((batch, hsz), dtype)
        dc = np.zeros((batch, hsz), dtype)
        for t in range(time - 1, -1, -1):
            da[...] = gates[:, t]
            np.tanh(cells[t], out=tc)  # the bits `step` computed
            c_before = cells[t - 1] if t > 0 else zero_state
            dh = dh + dh_seq[:, t]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_before
            dg = dc * i
            if t > 0:  # the gradients of the zero initial state are never used
                dc = dc * f  # before f's slot is overwritten with its gradient
            i[...] = di * i * (1.0 - i)
            f[...] = df * f * (1.0 - f)
            g[...] = dg * (1.0 - g * g)
            o[...] = do * o * (1.0 - o)
            gates[:, t] = da
            if t > 0:
                dh = da @ self.w_h
        del cells
        flat_da = gates.reshape(-1, 4 * hsz)
        # batch-major, as the gates
        h_prev = np.concatenate([zero_state[:, None], hidden[:-1].transpose(1, 0, 2)], axis=1)
        del hidden
        out = grads or {}
        with blas.one_thread():
            grads = {
                "w_x": np.matmul(flat_da.T, x.reshape(-1, self.n_in), out=out.get("w_x")),
                "w_h": np.matmul(flat_da.T, h_prev.reshape(-1, hsz), out=out.get("w_h")),
            }
        grads["b"] = np.sum(flat_da, axis=0, out=out.get("b"))
        del h_prev
        dx = gates @ self.w_x if input_grad else None
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
    """Inverted dropout with drop probability ``p``. Returns (output, keep): the
    output is ``x * dropout_scale(keep, p, x.dtype)``, and ``keep`` the bool mask
    of the units kept. At ``p == 0`` (evaluation) the input passes through and
    ``keep`` is None."""
    if not 0.0 <= p < 1.0:
        raise ValueError("drop probability must be in [0, 1)")
    if p == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout needs an rng")
    keep = rng.random(x.shape) >= p
    return x * dropout_scale(keep, p, x.dtype), keep


def dropout_scale(keep: np.ndarray, p: float, dtype) -> np.ndarray:
    """The scale mask ``keep / (1 - p)`` of `dropout`, in ``dtype`` (float64 for a
    non-float ``dtype``): 0 where a unit was dropped. Built again for the
    gradient, it gives the same bits as in the forward pass."""
    return keep / np.asarray(1.0 - p, dtype=np.result_type(dtype, np.float32))


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


# The blob is read through a float32 buffer of this many elements (64 KiB): below
# malloc's default mmap threshold, so freeing it leaves the thresholds alone
_READ_CHUNK = 1 << 14


def load_checkpoint(path: str | Path, into) -> None:
    """Read the checkpoint at ``path`` into the arrays that ``into`` gives.

    ``into`` is called with the header as it was given to `save_checkpoint`
    and returns C-contiguous arrays keyed by parameter name (`mtl.load_model`'s
    are views of a float32 vector and two float64 arrays), one for each of the
    file's parameters. The blob is read into them in place, in the file's
    order, through one fixed-size float32 buffer, so no float32 copy of it is
    made; its values are exact in any float dtype.

    Raises ValueError naming ``path`` for a foreign, truncated or overlong file
    (a header length past the end of the file, a header that is not the JSON
    object `save_checkpoint` writes or that ``into`` cannot take, a blob
    shorter than its header says, or bytes after it), for a parameter of
    ``into`` that the file lacks or holds in another shape, and for a
    parameter of the file that ``into`` lacks.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(4)
        if len(raw) < 4:
            raise ValueError(f"truncated checkpoint: {path}")
        (head_len,) = struct.unpack("<I", raw)
        if 4 + head_len > size:
            raise ValueError(f"checkpoint header length {head_len} exceeds the file size {size}: {path}")
        try:
            header = json.loads(fh.read(head_len).decode("utf-8"))
            if header.pop("format", None) != CHECKPOINT_FORMAT:
                raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint")
            del header["dtype"]
            shapes = {entry["name"]: tuple(int(n) for n in entry["shape"]) for entry in header.pop("params")}
            targets = into(header)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {f'no key {exc}' if isinstance(exc, KeyError) else exc}") from None
        blob_end = 4 + head_len + 4 * sum(math.prod(shape) for shape in shapes.values())
        if blob_end > size:
            raise ValueError(f"truncated checkpoint: {path}")
        if blob_end < size:
            raise ValueError(f"trailing bytes after the parameter blob: {path}")
        for name, target in targets.items():
            if name not in shapes:
                raise ValueError(f"checkpoint has no parameter {name!r}: {path}")
            if shapes[name] != target.shape:
                raise ValueError(f"checkpoint parameter {name!r} has shape {shapes[name]}, "
                                 f"the model's is {target.shape}: {path}")
        stray = [name for name in shapes if name not in targets]
        if stray:
            raise ValueError(f"checkpoint parameter {stray[0]!r} is not the model's: {path}")
        buffer = np.empty(_READ_CHUNK, "<f4")
        for name in shapes:
            flat = targets[name].reshape(-1)
            for start in range(0, flat.size, _READ_CHUNK):
                chunk = buffer[: min(_READ_CHUNK, flat.size - start)]
                if fh.readinto(chunk) != chunk.nbytes:
                    raise ValueError(f"truncated checkpoint: {path}")
                flat[start : start + chunk.size] = chunk
