"""High-level utterance features: 4 functionals over each emotion posterior channel."""
from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .corpus import EMOTION_CLASSES, TASK_CLASSES, UtteranceRecord, parse_label

HLF_DIM = 16
FUNCTIONALS = ("min", "max", "mean", "frac")
THETA = 0.2  # the "frac" functional counts the steps whose posterior exceeds this

HLF_FEATURE_NAMES = tuple(
    f"{label.value}_{func}" for label in EMOTION_CLASSES for func in FUNCTIONALS
)

_LABEL_COLUMNS = tuple(TASK_CLASSES) + ("speaker_id", "corpus_id")


def compute_hlf(posteriors: np.ndarray) -> np.ndarray:
    """Collapse an (n, 4) posterior sequence to 16 values.

    Per class, in order: min, max, mean, and the fraction of steps whose
    posterior exceeds `THETA`. The result is invariant to the time order
    of the rows.
    """
    post = np.asarray(posteriors, dtype=np.float64)
    if post.ndim != 2 or post.shape[0] < 1:
        raise ValueError("empty posterior sequence")
    if post.shape[1] != len(EMOTION_CLASSES):
        raise ValueError(f"expected {len(EMOTION_CLASSES)} posterior channels, got {post.shape[1]}")
    if np.any(np.abs(post.sum(axis=1) - 1.0) > 1e-6) or np.any(post < -1e-9):
        raise ValueError("malformed posterior rows (must be distributions)")
    out = np.empty(HLF_DIM)
    for k in range(post.shape[1]):
        channel = post[:, k]
        out[4 * k : 4 * k + 4] = (
            channel.min(),
            channel.max(),
            channel.mean(),
            float(np.count_nonzero(channel > THETA)) / channel.size,
        )
    return out


def write_hlf_csv(path: str | Path, rows) -> Path:
    """Write an HLF table: utterance_id, 16 feature columns, then label columns.

    ``rows`` is an iterable of (utterance_id, vector, UtteranceRecord).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("utterance_id",) + HLF_FEATURE_NAMES + _LABEL_COLUMNS)
        for uid, vector, rec in rows:
            vector = np.asarray(vector, dtype=np.float64)
            if vector.shape != (HLF_DIM,):
                raise ValueError(f"HLF vector for {uid!r} must have {HLF_DIM} values")
            writer.writerow(
                [uid]
                + [repr(float(v)) for v in vector]
                + [getattr(rec, task).value for task in TASK_CLASSES]
                + [rec.speaker_id, rec.corpus_id]
            )
    return path


def read_hlf_csv(path: str | Path):
    """Read an HLF table back as (ids, matrix, labels dict of column lists).

    Raises ValueError naming ``path`` for an empty table, and naming the line
    too for another header, bytes that are not UTF-8 or text that is not CSV,
    a row of another length, a feature that is not a number, or a task label
    that is not one of its `TASK_CLASSES`."""
    expected = ("utterance_id",) + HLF_FEATURE_NAMES + _LABEL_COLUMNS
    ids: list[str] = []
    vectors: list[list[float]] = []
    labels: dict[str, list[str]] = {name: [] for name in _LABEL_COLUMNS}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty HLF table: {path}")
        if tuple(header) != expected:
            raise ValueError(f"{path}, line 1: unexpected HLF header")
        for row in reader:
            if not row:
                continue
            if len(row) != len(expected):
                raise ValueError(f"{path}, line {reader.line_num}: "
                                 f"expected {len(expected)} fields, got {len(row)}")
            values = dict(zip(_LABEL_COLUMNS, row[1 + HLF_DIM :]))
            try:
                vectors.append([float(v) for v in row[1 : 1 + HLF_DIM]])
                for task in TASK_CLASSES:
                    parse_label(task, values[task])
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            ids.append(row[0])
            for name, value in values.items():
                labels[name].append(value)
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not ids:
        raise ValueError(f"empty HLF table: {path}")
    return ids, np.array(vectors), labels
