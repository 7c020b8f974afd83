"""Training batches as `sermtl.mtl` built them before it gathered them from a
feature store by index: per-utterance feature matrices, a list of
(utterance, first frame, frame count) samples and per-item list comprehensions.
Kept verbatim as the oracle for test_mtl.py. Not a test module itself."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sermtl.features import N_FEATURES
from sermtl.mtl import MTLNetworkConfig, MultiTaskModel, TrainConfig


@dataclass(frozen=True)
class LabeledFeatures:
    """One utterance ready for training: standardized features + integer labels."""

    utterance_id: str
    features: np.ndarray  # (n_frames, n_features)
    labels: dict[str, int]


def _sample_index(config: MTLNetworkConfig, dataset, tc: TrainConfig) -> list[tuple[int, int, int]]:
    """(utterance, first frame, frame count) of every sample in ``dataset``: DNN
    context windows every ``dnn_window_stride`` frames, or LSTM chunks of up to
    ``lstm_chunk_frames`` frames."""
    index = []
    for u, item in enumerate(dataset):
        n = item.features.shape[0]
        if config.trunk == "dnn":
            context = config.context_frames
            index += [(u, s, context) for s in range(0, n - context + 1, tc.dnn_window_stride)]
        else:
            chunk = tc.lstm_chunk_frames
            index += [(u, s, min(chunk, n - s)) for s in range(0, n, chunk)]
    return index


def _batches(model: MultiTaskModel, dataset, index, order, batch_size: int):
    """Yield (position in ``order``, batch) over consecutive slices of ``order``,
    the inputs gathered straight into the model's dtype.

    DNN batches flatten each context window into one input row; LSTM batches
    zero-pad chunks to the longest one and carry a (B, T) validity mask.
    """
    config = model.config
    for start in range(0, len(order), batch_size):
        items = [index[i] for i in order[start : start + batch_size]]
        batch = {"targets": {
            h.name: np.array([dataset[u].labels[h.name] for u, _, _ in items], dtype=np.int64)
            for h in config.heads
        }}
        if config.trunk == "dnn":
            batch["x"] = np.stack([dataset[u].features[s : s + n].reshape(-1) for u, s, n in items],
                                  dtype=model.dtype)
        else:
            x = np.zeros((len(items), max(n for _, _, n in items), N_FEATURES), model.dtype)
            mask = np.zeros(x.shape[:2], dtype=bool)
            for row, (u, s, n) in enumerate(items):
                x[row, :n] = dataset[u].features[s : s + n]
                mask[row, :n] = True
            batch["x"], batch["mask"] = x, mask
        yield start, batch
