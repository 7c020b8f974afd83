"""The feature front-end as it was before its workspace kernel, kept verbatim as
the oracle that `sermtl.features.extract_features` must match byte for byte
(see test_features.py). Not a test module itself.

Its settings and its mel and DCT tables are built here, as they were when the
front-end took them from a config, so the oracle also checks the constants that
replaced them."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sermtl.features import _LOG_FLOOR, FeatureError


@dataclass(frozen=True)
class FeatureConfig:
    window_ms: float = 25.0
    hop_ms: float = 10.0
    n_mfcc: int = 12
    n_mel_filters: int = 26
    fft_size: int = 512
    pre_emphasis: float = 0.97
    f0_min_hz: float = 50.0
    f0_max_hz: float = 500.0
    delta_window: int = 2
    voicing_threshold: float = 0.3
    mel_low_hz: float = 0.0
    mel_high_hz: float = 8000.0

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))


def _mel_from_hz(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _hz_from_mel(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FeatureConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filters on FFT bins, shape (n_mel_filters, fft_size//2 + 1)."""
    high = min(config.mel_high_hz, sample_rate / 2.0)
    mels = np.linspace(_mel_from_hz(config.mel_low_hz), _mel_from_hz(high), config.n_mel_filters + 2)
    bins = np.floor((config.fft_size + 1) * _hz_from_mel(mels) / sample_rate).astype(int)
    bank = np.zeros((config.n_mel_filters, config.fft_size // 2 + 1))
    for j in range(config.n_mel_filters):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for i in range(left, center):
            bank[j, i] = (i - left) / max(center - left, 1)
        for i in range(center, right):
            bank[j, i] = (right - i) / max(right - center, 1)
    return bank


def _dct_rows(n_mfcc: int, n_filters: int) -> np.ndarray:
    # Orthonormal DCT-II rows k = 1..n_mfcc (k = 0 is dropped with energy kept separately).
    k = np.arange(1, n_mfcc + 1)[:, None]
    m = np.arange(n_filters)[None, :]
    return math.sqrt(2.0 / n_filters) * np.cos(np.pi * k * (2 * m + 1) / (2.0 * n_filters))


def normalize_gain(samples: np.ndarray) -> np.ndarray:
    """Peak-normalize to max |x| = 1; an all-zero signal passes through."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise FeatureError("empty sample vector")
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return x.copy()
    return x / peak


def frame_signal(samples: np.ndarray, sample_rate: int, config: FeatureConfig) -> np.ndarray:
    """Slice into overlapping analysis frames; the tail is dropped, never padded."""
    x = np.asarray(samples, dtype=np.float64)
    win = config.window_samples(sample_rate)
    hop = config.hop_samples(sample_rate)
    if config.fft_size < win:
        raise FeatureError(f"fft_size {config.fft_size} < window of {win} samples")
    if x.size < win:
        raise FeatureError(f"utterance too short: {x.size} samples < one {win}-sample window")
    windows = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    return np.ascontiguousarray(windows)


def _descriptor_matrix(frames: np.ndarray, sample_rate: int, config: FeatureConfig) -> np.ndarray:
    """Static 16-dim descriptors for a stack of frames, shape (n_frames, 16)."""
    m, win = frames.shape

    prod = frames[:, 1:] * frames[:, :-1]
    zcr = np.count_nonzero(prod < 0, axis=1) / (win - 1)

    energy = np.sum(frames * frames, axis=1)
    log_e = np.log(np.maximum(energy, _LOG_FLOOR))

    # F0 / voicing via normalized autocorrelation over the configured lag band.
    y = frames - frames.mean(axis=1, keepdims=True)
    lag_min = int(math.ceil(sample_rate / config.f0_max_hz))
    lag_max = min(int(math.floor(sample_rate / config.f0_min_hz)), win - 1)
    if lag_min > lag_max:
        raise FeatureError("F0 search band is empty for this window length")
    nfft = 1 << (2 * win - 1).bit_length()
    spec = np.fft.rfft(y, nfft, axis=1)
    raw = np.fft.irfft(spec * np.conj(spec), nfft, axis=1)[:, : win]
    sq = np.cumsum(y * y, axis=1)
    total = sq[:, -1]
    lags = np.arange(lag_min, lag_max + 1)
    head = sq[:, win - lags - 1]
    tail = total[:, None] - sq[:, lags - 1]
    denom = np.sqrt(np.maximum(head * tail, 0.0))
    voiced_rows = total > _LOG_FLOOR
    corr = np.zeros((m, lags.size))
    np.divide(raw[:, lags], np.maximum(denom, _LOG_FLOOR), out=corr, where=voiced_rows[:, None])
    rows = np.arange(m)
    argmax_idx = np.argmax(corr, axis=1)
    peak = np.clip(corr[rows, argmax_idx], 0.0, 1.0)
    # Periodic signals correlate equally at every multiple of the true period,
    # so the argmax may land on a subharmonic; snap to the smallest integer
    # sub-multiple of the argmax lag whose correlation is within a small slack.
    argmax_lag = argmax_idx + lag_min
    best_lag = argmax_lag.copy()
    for k in range(2, 9):
        cand_lag = np.rint(argmax_lag / k).astype(np.int64)
        idx = np.clip(cand_lag - lag_min, 0, corr.shape[1] - 1)
        take = (cand_lag >= lag_min) & (corr[rows, idx] >= peak - 0.02) & (cand_lag < best_lag)
        best_lag = np.where(take, cand_lag, best_lag)
    voice_prob = np.where(voiced_rows, peak, 0.0)
    f0 = np.where(voice_prob >= config.voicing_threshold, sample_rate / best_lag, 0.0)

    # MFCC: pre-emphasis -> Hamming -> power spectrum -> mel -> log -> DCT-II (1..12).
    pre = np.concatenate([frames[:, :1], frames[:, 1:] - config.pre_emphasis * frames[:, :-1]], axis=1)
    window = np.hamming(win)
    power = np.abs(np.fft.rfft(pre * window, config.fft_size, axis=1)) ** 2
    mel = power @ mel_filterbank(config, sample_rate).T
    log_mel = np.log(np.maximum(mel, _LOG_FLOOR))
    mfcc = log_mel @ _dct_rows(config.n_mfcc, config.n_mel_filters).T

    return np.column_stack([f0, voice_prob, zcr, log_e, mfcc])


def compute_deltas(static: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Regression deltas over +/- delta_window frames with edge replication."""
    static = np.asarray(static, dtype=np.float64)
    if static.ndim != 2 or static.shape[0] < 1:
        raise FeatureError("need a non-empty 2-D matrix")
    w = config.delta_window
    denom = 2.0 * sum(k * k for k in range(1, w + 1))
    padded = np.pad(static, ((w, w), (0, 0)), mode="edge")
    n = static.shape[0]
    out = np.zeros_like(static)
    for k in range(1, w + 1):
        out += k * (padded[w + k : w + k + n] - padded[w - k : w - k + n])
    return out / denom


def extract_features(samples: np.ndarray, sample_rate: int, config: FeatureConfig | None = None) -> np.ndarray:
    """Full front-end: gain-normalize, frame, describe, append deltas.

    Returns a float32 matrix of shape (n_frames, 32) with no NaN/Inf entries.
    """
    if config is None:
        config = FeatureConfig()
    gained = normalize_gain(samples)
    frames = frame_signal(gained, sample_rate, config)
    static = _descriptor_matrix(frames, sample_rate, config)
    deltas = compute_deltas(static, config)
    matrix = np.hstack([static, deltas]).astype(np.float32)
    if not np.all(np.isfinite(matrix)):
        raise FeatureError("non-finite feature values")
    return matrix
