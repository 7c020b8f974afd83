"""Exact O(n^2) t-SNE for projecting utterance-level features to 2-D.

Per-point Gaussian bandwidths are found by binary search to hit the target
perplexity; the embedding minimizes KL(P||Q) with a Student-t low-dimensional
kernel, momentum, and early exaggeration, on the schedule of van der Maaten &
Hinton 2008. After the exaggeration phase a descent safeguard keeps the
recorded KL trace non-increasing: a step that would raise the KL is retried
with damped plain-gradient steps and rejected outright if none of them
improves.

Each point the optimizer tries costs one O(n^2) kernel evaluation: the KL of a
step is taken from its Student-t kernel, and an accepted point's kernel is kept
for the next gradient.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import derive_seed

_Q_FLOOR = 1e-12
# Bandwidth search: each row's perplexity is met within this tolerance, in at
# most this many steps
_PERPLEXITY_TOL = 1e-4
_BANDWIDTH_STEPS = 50
_MIN_BANDWIDTH = 1e-12  # where duplicate points make a row's perplexity unattainable
# The optimizer (van der Maaten & Hinton 2008)
_OUT_DIMS = 2
_INIT_STD = 1e-4  # of the initial points
_LEARNING_RATE = 200.0
_EARLY_EXAGGERATION = 12.0  # P's factor during the first `exaggeration_iters` iterations
_MOMENTUM_EARLY = 0.5  # during those iterations
_MOMENTUM_LATE = 0.8


class TsneError(RuntimeError):
    """Raised when the optimization encounters non-finite values."""


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    n_iter: int = 1000
    exaggeration_iters: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.perplexity <= 1:
            raise ValueError("perplexity must exceed 1")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def conditional_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-normalized conditional affinities with per-row perplexity within
    ``_PERPLEXITY_TOL``.

    Duplicate points can make a row's perplexity unattainable; the bandwidth
    is then floored at ``_MIN_BANDWIDTH`` and the row kept as-is.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 3 * perplexity:
        raise ValueError(f"need at least 3*perplexity={3 * perplexity:.0f} points, got {n}")
    d = _pairwise_sq_dists(x)
    beta_cap = 1.0 / (2.0 * _MIN_BANDWIDTH)
    conditional = np.zeros((n, n))
    for i in range(n):
        row = np.delete(d[i], i)
        beta = 1.0
        lo, hi = 0.0, np.inf
        p_row = None
        for _ in range(_BANDWIDTH_STEPS):
            w = np.exp(-row * beta)
            s = w.sum()
            if s <= 0.0:
                hi = beta
                beta = (lo + hi) / 2.0
                continue
            p_row = w / s
            nz = p_row[p_row > 0.0]
            entropy = -np.sum(nz * np.log(nz))
            achieved = np.exp(entropy)
            if abs(achieved - perplexity) <= _PERPLEXITY_TOL:
                break
            if achieved > perplexity:  # too flat: widen beta
                lo = beta
                beta = beta * 2.0 if not np.isfinite(hi) else (lo + hi) / 2.0
            else:
                hi = beta
                beta = (lo + hi) / 2.0
            if beta >= beta_cap:
                beta = beta_cap
                w = np.exp(-row * beta)
                s = w.sum()
                p_row = w / s if s > 0 else np.full(n - 1, 1.0 / (n - 1))
                break
        if p_row is None:
            p_row = np.full(n - 1, 1.0 / (n - 1))
        conditional[i, np.arange(n) != i] = p_row
    return conditional


def compute_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint affinities: P = (P_cond + P_cond^T) / (2n)."""
    conditional = conditional_affinities(x, perplexity)
    n = conditional.shape[0]
    joint = (conditional + conditional.T) / (2.0 * n)
    return np.maximum(joint, 0.0)


def _kernel(y: np.ndarray):
    """Student-t kernel ``w`` (zero diagonal) of embedding ``y`` and the floored
    joint ``q = max(w / sum(w), floor)``."""
    d = _pairwise_sq_dists(y)
    w = 1.0 / (1.0 + d)
    np.fill_diagonal(w, 0.0)
    z = w.sum()
    return w, np.maximum(w / z, _Q_FLOOR)


def _kl(p_pos: np.ndarray, mask: np.ndarray, q: np.ndarray) -> float:
    """KL(P||Q) from ``mask = p > 0`` and ``p_pos = p[mask]``."""
    return float(np.sum(p_pos * np.log(p_pos / q[mask])))


def _gradient(p: np.ndarray, y: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    m = (p - q) * w
    return 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)


def kl_and_gradient(p: np.ndarray, y: np.ndarray):
    """KL(P||Q) and its gradient with respect to the embedding rows."""
    w, q = _kernel(y)
    mask = p > 0.0
    return _kl(p[mask], mask, q), _gradient(p, y, w, q)


def tsne_embed(x: np.ndarray, config: TsneConfig | None = None):
    """Embed rows of ``x`` in 2-D. Returns (embedding, per-iteration KL trace).

    The trace records KL(P||Q) against the unexaggerated P after every
    iteration; from the end of the exaggeration phase onward it is
    non-increasing by construction.
    """
    if config is None:
        config = TsneConfig()
    x = np.asarray(x, dtype=np.float64)
    p = compute_affinities(x, config.perplexity)
    n = x.shape[0]
    rng = np.random.default_rng(derive_seed(config.seed, "tsne"))
    y = rng.normal(0.0, _INIT_STD, (n, _OUT_DIMS))
    velocity = np.zeros_like(y)
    p_ex = p * _EARLY_EXAGGERATION
    mask = p > 0.0
    p_pos = p[mask]
    trace = np.empty(config.n_iter)
    w, q = _kernel(y)  # kernel of the current point, kept until a step is accepted

    for it in range(config.n_iter):
        exaggerating = it < config.exaggeration_iters
        p_used = p_ex if exaggerating else p
        grad = _gradient(p_used, y, w, q)
        momentum = _MOMENTUM_EARLY if exaggerating else _MOMENTUM_LATE
        velocity = momentum * velocity - _LEARNING_RATE * grad
        y_next = y + velocity
        y_next = y_next - y_next.mean(axis=0)
        w_next, q_next = _kernel(y_next)
        kl_next = _kl(p_pos, mask, q_next)

        if not exaggerating and it > 0 and kl_next > trace[it - 1]:
            # Descent safeguard: damped plain-gradient retries, else reject.
            for shrink in range(1, 21):
                candidate = y - (_LEARNING_RATE * 0.5**shrink) * grad
                candidate = candidate - candidate.mean(axis=0)
                w_next, q_next = _kernel(candidate)
                kl_candidate = _kl(p_pos, mask, q_next)
                if kl_candidate <= trace[it - 1]:
                    y_next, kl_next = candidate, kl_candidate
                    break
            else:
                y_next, kl_next, w_next, q_next = y, trace[it - 1], w, q
            velocity = np.zeros_like(y)

        if not np.isfinite(kl_next):
            raise TsneError(f"non-finite KL at iteration {it}")
        y, w, q = y_next, w_next, q_next
        trace[it] = kl_next
    return y, trace


# ---------------------------------------------------------------------------
# Plot-ready exports
# ---------------------------------------------------------------------------

EMOTION_COLORS = {
    "neutral": "#2ca02c",  # green
    "happy": "#ff7f0e",  # orange
    "sad": "#1f77b4",  # blue
    "angry": "#d62728",  # red
}


def write_embedding_csv(path: str | Path, ids, embedding: np.ndarray,
                        labels: dict[str, list[str]]) -> Path:
    """Write utterance_id,x,y[,z],emotion,gender,naturalness,corpus_id rows.

    ``labels`` maps each of the four label columns to a per-row string list.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    coords = ("x", "y", "z")[: embedding.shape[1]]
    label_cols = ("emotion", "gender", "naturalness", "corpus_id")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("utterance_id",) + coords + label_cols)
        for i, (uid, row) in enumerate(zip(ids, embedding)):
            writer.writerow(
                [uid]
                + [repr(float(v)) for v in row]
                + [labels[col][i] for col in label_cols]
            )
    return path


def write_embedding_svg(path: str | Path, embedding: np.ndarray, emotion_values,
                        size: int = 640, margin: int = 40, radius: float = 3.0) -> Path:
    """Minimal static scatter of a 2-D embedding, colored by emotion."""
    y = np.asarray(embedding, dtype=np.float64)[:, :2]
    lo = y.min(axis=0)
    span = np.maximum(y.max(axis=0) - lo, 1e-12)
    scale = (size - 2 * margin) / span
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for row, emo in zip(y, emotion_values):
        cx = margin + (row[0] - lo[0]) * scale[0]
        cy = size - margin - (row[1] - lo[1]) * scale[1]
        color = EMOTION_COLORS.get(str(emo), "#000000")
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius}" fill="{color}" fill-opacity="0.8"/>')
    lines.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
