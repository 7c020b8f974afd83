"""Evaluation metrics: confusion matrices, unweighted accuracy, and the
Wilcoxon signed-rank paired test with an exact p-value for every n."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHA = 0.05  # the significance level of `wilcoxon_signed_rank`


def confusion_matrix(true_labels, predicted_labels, n_classes: int = 4) -> np.ndarray:
    """Counts[i, j] = number of samples with true class i predicted as class j."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")
    if t.size and (t.min() < 0 or t.max() >= n_classes or p.min() < 0 or p.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts


def per_class_recall(cm: np.ndarray) -> list[float | None]:
    """Diagonal over row sums; None for classes absent from the test set."""
    cm = np.asarray(cm)
    out: list[float | None] = []
    for i in range(cm.shape[0]):
        row = cm[i].sum()
        out.append(float(cm[i, i] / row) if row > 0 else None)
    return out


def unweighted_accuracy(cm: np.ndarray) -> float:
    """Mean recall over the classes present in the test set."""
    recalls = [r for r in per_class_recall(cm) if r is not None]
    if not recalls:
        raise ValueError("confusion matrix has no populated rows")
    return float(np.mean(recalls))


@dataclass(frozen=True)
class WilcoxonResult:
    w_plus: float
    w_minus: float
    n: int
    p_value: float
    significant: bool


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0  # mean of 1-based positions
        i = j + 1
    return ranks


def wilcoxon_signed_rank(scores_a, scores_b) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired scores, significant below `ALPHA`.

    Zero differences are dropped and tied absolute differences receive
    averaged ranks. The p-value is exact over all 2^n sign assignments of the
    ranks: dynamic programming over doubled ranks (ties give half-integer
    ranks, so doubling keeps everything integral) gives the distribution of
    full enumeration. Halving it after each rank is exact (a power of two) and
    cannot overflow; no rank (equal scores throughout) leaves p = 1.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired score vectors must be 1-D and of equal length")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    ranks = _average_ranks(np.abs(diffs))
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    probs = np.zeros(total + 1)
    probs[0] = 1.0
    for r in doubled:
        probs[r:] += probs[: total + 1 - r].copy()
        probs *= 0.5
    w_plus = float(ranks[diffs > 0].sum())
    deviation = abs(2 * int(round(2.0 * w_plus)) - total)
    p = float(probs[np.abs(2 * np.arange(total + 1) - total) >= deviation].sum())
    return WilcoxonResult(w_plus=w_plus, w_minus=float(ranks[diffs < 0].sum()), n=diffs.size,
                          p_value=p, significant=bool(p < ALPHA))
