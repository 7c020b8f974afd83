"""Exact O(n^2) t-SNE for projecting utterance-level features to 2-D.

Per-point Gaussian bandwidths are found by binary search to hit the target
perplexity, a block of rows at a time in lockstep; the embedding minimizes
KL(P||Q) with a Student-t low-dimensional kernel, momentum, and early
exaggeration, on the schedule of van der Maaten & Hinton 2008. After the
exaggeration phase a descent safeguard keeps the recorded KL trace
non-increasing: a step that would raise the KL is retried with damped
plain-gradient steps and rejected outright if none of them improves. A second
rejection in a row leaves the embedding frozen, as every later iteration would
retry the same points: the loop stops there and the trace repeats its last KL.

Each point the optimizer tries costs one `kl_and_gradient` call on n x n
buffers allocated once: the KL of the point and the gradient there, which
serves the next iteration if the point is accepted.
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
_SEARCH_BLOCK = 1 << 16  # elements of one block of rows searched in lockstep
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


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """-sum(nz * log(nz)) over the positive entries nz of each row of ``p``,
    rounded as `np.sum` rounds it over that row alone.

    Rows with zeros (underflowed weights) are summed as one `np.add.reduceat`
    segment each, over their positive entries after a 0.0 term
    (1.0 * log(1.0)); such a segment rounds as `np.sum` of the entries does.
    """
    entropy = np.empty(p.shape[0])
    whole = p.min(axis=1) > 0.0
    dense = p if whole.all() else p[whole]
    terms = np.log(dense)
    terms *= dense
    entropy[whole] = -terms.sum(axis=1)
    part = p[~whole]
    if part.size:
        rows, m = part.shape
        keep = np.empty((rows, m + 1), dtype=bool)
        keep[:, 0] = True
        np.greater(part, 0.0, out=keep[:, 1:])
        padded = np.empty((rows, m + 1))
        padded[:, 0] = 1.0
        padded[:, 1:] = part
        nz = padded[keep]
        starts = np.zeros(rows, dtype=np.intp)
        np.cumsum(keep.sum(axis=1)[:-1], out=starts[1:])
        entropy[~whole] = -np.add.reduceat(nz * np.log(nz), starts)
    return entropy


def _row_affinities(d: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """exp(-d * beta) over its row sums, or uniform rows where every weight
    underflows."""
    w = d * -beta[:, None]
    np.exp(w, out=w)
    s = w.sum(axis=1)[:, None]
    np.divide(w, s, out=w, where=s > 0.0)
    w[s[:, 0] <= 0.0] = 1.0 / d.shape[1]
    return w


def _bandwidth_search(d: np.ndarray, perplexity: float) -> np.ndarray:
    """Conditional affinities of rows ``d`` of squared distances to every other
    point, all rows bisecting their Gaussian precision beta in lockstep.

    Each row takes the steps it would take alone, so its result is the same
    bit for bit: up to ``_BANDWIDTH_STEPS`` steps, each ending at the target
    perplexity, at the precision cap ``1 / (2 * _MIN_BANDWIDTH)``, or with a new
    beta. A row that runs out of steps keeps the affinities of the last beta
    whose weights did not all underflow, or uniform ones if there was none.
    """
    rows, m = d.shape
    out = np.full((rows, m), 1.0 / m)
    beta, lo, hi = np.ones(rows), np.zeros(rows), np.full(rows, np.inf)
    last = np.full(rows, np.nan)  # the last beta whose weights did not all underflow
    beta_cap = 1.0 / (2.0 * _MIN_BANDWIDTH)
    searching = np.ones(rows, dtype=bool)
    for _ in range(_BANDWIDTH_STEPS):
        active = np.flatnonzero(searching)
        if active.size == 0:
            break
        w = d[active] if active.size < rows else d.copy()
        w *= -beta[active, None]
        np.exp(w, out=w)
        s = w.sum(axis=1)
        positive = s > 0.0
        empty = active[~positive]  # every weight underflowed: a smaller beta
        hi[empty] = beta[empty]
        beta[empty] = (lo[empty] + hi[empty]) / 2.0

        rows_ok = active[positive]
        p = w if positive.all() else w[positive]
        p /= s[positive, None]
        last[rows_ok] = beta[rows_ok]
        achieved = np.exp(_row_entropies(p))
        met = np.abs(achieved - perplexity) <= _PERPLEXITY_TOL
        out[rows_ok[met]] = p[met]
        searching[rows_ok[met]] = False
        wide = achieved > perplexity
        flat = rows_ok[~met & wide]  # too flat: widen beta
        lo[flat] = beta[flat]
        beta[flat] = np.where(np.isinf(hi[flat]), beta[flat] * 2.0, (lo[flat] + hi[flat]) / 2.0)
        steep = rows_ok[~met & ~wide]
        hi[steep] = beta[steep]
        beta[steep] = (lo[steep] + hi[steep]) / 2.0

        capped = rows_ok[~met & (beta[rows_ok] >= beta_cap)]
        beta[capped] = beta_cap
        out[capped] = _row_affinities(d[capped], beta[capped])
        searching[capped] = False
    spent = np.flatnonzero(searching & ~np.isnan(last))
    out[spent] = _row_affinities(d[spent], last[spent])
    return out


def conditional_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-normalized conditional affinities with per-row perplexity within
    ``_PERPLEXITY_TOL``.

    Duplicate points can make a row's perplexity unattainable; the bandwidth
    is then floored at ``_MIN_BANDWIDTH`` and the row kept as-is. Rows are
    searched in blocks of about ``_SEARCH_BLOCK`` distances, so the search's
    temporaries are O(block * n).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 3 * perplexity:
        hint = (f"a perplexity of at most {n // 3} fits them" if n // 3 > 1
                else "no perplexity above 1 fits fewer than 6")
        raise ValueError(f"need at least 3*perplexity={3 * perplexity:.0f} points, got {n}; {hint}")
    d = _pairwise_sq_dists(x)
    conditional = np.zeros((n, n))
    block = max(1, _SEARCH_BLOCK // n)
    for start in range(0, n, block):
        rows = min(block, n - start)
        off_diagonal = np.ones((rows, n), dtype=bool)
        off_diagonal[np.arange(rows), start + np.arange(rows)] = False
        d_rows = d[start:start + rows][off_diagonal].reshape(rows, n - 1)
        conditional[start:start + rows][off_diagonal] = _bandwidth_search(d_rows, perplexity).ravel()
    return conditional


def compute_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint affinities: P = (P_cond + P_cond^T) / (2n)."""
    conditional = conditional_affinities(x, perplexity)
    n = conditional.shape[0]
    joint = (conditional + conditional.T) / (2.0 * n)
    return np.maximum(joint, 0.0)


class KlWorkspace:
    """What repeated `kl_and_gradient` calls against one P reuse: three n x n
    buffers, and P's constant term of the KL, the sum of p log p over p > 0.

    After a call, ``w`` holds the Student-t kernel 1 / (1 + |y_i - y_j|^2) of
    its embedding (zero diagonal) and ``q`` the floored joint
    max(w / sum(w), 1e-12).
    """

    def __init__(self, p: np.ndarray):
        n = p.shape[0]
        self.p = p
        self.scratch = np.zeros((n, n))
        np.log(p, out=self.scratch, where=p > 0.0)
        self.p_log_p = float(np.dot(p.ravel(), self.scratch.ravel()))
        self.w = np.empty((n, n))
        self.q = np.empty((n, n))


def kl_and_gradient(p: np.ndarray, y: np.ndarray, workspace: KlWorkspace | None = None,
                    p_grad: np.ndarray | None = None):
    """KL(P||Q) of embedding ``y``, and the gradient with respect to its rows
    of KL(P_grad||Q), where P_grad is ``p_grad`` (the exaggerated P early in
    the optimization) or else P.

    ``workspace`` (made for this ``p``) holds the n x n buffers; without one,
    the call makes its own. Each term is one numpy pass over them: the squared
    distances by one GEMM, the KL as sum(p log p) - sum(p log q) over the whole
    matrix, and the gradient's row sums with m @ y in one product, where
    m = (P_grad - Q) * w.
    """
    ws = KlWorkspace(p) if workspace is None else workspace
    if ws.p is not p:
        raise ValueError("the workspace was made for another P")
    w, q, scratch = ws.w, ws.q, ws.scratch
    # 1 + |y_i - y_j|^2 = [-2 y, 1 + |y|^2, 1] @ [y, 1, |y|^2]^T
    n, dims = y.shape
    left, right = np.empty((n, dims + 2)), np.empty((n, dims + 2))
    np.multiply(y, -2.0, out=left[:, :dims])
    right[:, :dims] = y
    right[:, dims] = 1.0
    sq = right[:, dims + 1]
    np.einsum("ij,ij->i", y, y, out=sq)
    np.add(sq, 1.0, out=left[:, dims])
    left[:, dims + 1] = 1.0
    np.matmul(left, right.T, out=w)
    np.maximum(w, 1.0, out=w)  # cancellation can take a squared distance below 0
    np.reciprocal(w, out=w)
    np.fill_diagonal(w, 0.0)
    np.multiply(w, 1.0 / w.sum(), out=q)
    np.maximum(q, _Q_FLOOR, out=q)
    np.log(q, out=scratch)
    kl = ws.p_log_p - float(np.dot(p.ravel(), scratch.ravel()))
    np.subtract(p if p_grad is None else p_grad, q, out=scratch)
    scratch *= w
    m_y = scratch @ right[:, :dims + 1]  # m @ y, then m's row sums
    return kl, 4.0 * (m_y[:, -1:] * y - m_y[:, :-1])


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
    workspace = KlWorkspace(p)

    def p_grad(it):  # the P of iteration ``it``'s gradient
        return p_ex if it < config.exaggeration_iters else p

    trace = np.empty(config.n_iter)
    _, grad = kl_and_gradient(p, y, workspace, p_grad(0))  # kept until a step is accepted
    rejected = False  # whether the previous iteration rejected its step
    for it in range(config.n_iter):
        exaggerating = it < config.exaggeration_iters
        momentum = _MOMENTUM_EARLY if exaggerating else _MOMENTUM_LATE
        velocity = momentum * velocity - _LEARNING_RATE * grad
        y_next = y + velocity
        y_next = y_next - y_next.mean(axis=0)
        p_next = p_grad(it + 1)
        kl_next, grad_next = kl_and_gradient(p, y_next, workspace, p_next)

        if not exaggerating and it > 0 and kl_next > trace[it - 1]:
            # Descent safeguard: damped plain-gradient retries, else reject.
            for shrink in range(1, 21):
                candidate = y - (_LEARNING_RATE * 0.5**shrink) * grad
                candidate = candidate - candidate.mean(axis=0)
                kl_candidate, grad_candidate = kl_and_gradient(p, candidate, workspace, p_next)
                if kl_candidate <= trace[it - 1]:
                    y_next, kl_next, grad_next = candidate, kl_candidate, grad_candidate
                    break
            else:
                y_next, kl_next, grad_next = y, trace[it - 1], grad
            velocity = np.zeros_like(y)
        if y_next is y and rejected:  # frozen: y, grad and velocity are as one iteration ago
            trace[it:] = trace[it - 1]
            break
        rejected = y_next is y

        if not np.isfinite(kl_next):
            raise TsneError(f"non-finite KL at iteration {it}")
        y, grad = y_next, grad_next
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
