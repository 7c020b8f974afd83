"""Frame-level acoustic front-end: 32 features per 25 ms frame at a 10 ms hop.

Column order of the feature matrix:
    [f0, voice_prob, zcr, log_energy, mfcc01..mfcc12,
     d_f0, d_voice_prob, d_zcr, d_log_energy, d_mfcc01..d_mfcc12]

F0 and voicing come from the normalized autocorrelation peak over the lag
range implied by the configured F0 band; MFCCs use a 26-filter mel bank over
0-8 kHz with an orthonormal DCT-II, keeping coefficients 1..12.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_LOG_FLOOR = 1e-10
_STD_FLOOR = 1e-8

FEATURE_MAGIC = b"PMTL1"

_STATIC_COLUMNS = ("f0", "voice_prob", "zcr", "log_energy") + tuple(
    f"mfcc{i:02d}" for i in range(1, 13)
)
FEATURE_COLUMNS = _STATIC_COLUMNS + tuple("d_" + name for name in _STATIC_COLUMNS)
N_FEATURES = len(FEATURE_COLUMNS)


class FeatureError(ValueError):
    """Raised when audio cannot be converted to a feature matrix."""


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

    def __post_init__(self):
        if not (self.window_ms > self.hop_ms > 0):
            raise ValueError("require window_ms > hop_ms > 0")
        if not (0 < self.f0_min_hz < self.f0_max_hz):
            raise ValueError("require 0 < f0_min_hz < f0_max_hz")
        if self.delta_window < 1:
            raise ValueError("delta_window must be >= 1")

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))


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


def _mel_from_hz(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _hz_from_mel(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(config: FeatureConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filters on FFT bins, shape (n_mel_filters, fft_size//2 + 1).

    Built once per (config, sample rate); the shared array is read-only."""
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
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=16)
def _dct_rows(n_mfcc: int, n_filters: int) -> np.ndarray:
    # Orthonormal DCT-II rows k = 1..n_mfcc (k = 0 is dropped with energy kept separately);
    # cached and shared, so read-only.
    k = np.arange(1, n_mfcc + 1)[:, None]
    m = np.arange(n_filters)[None, :]
    rows = math.sqrt(2.0 / n_filters) * np.cos(np.pi * k * (2 * m + 1) / (2.0 * n_filters))
    rows.flags.writeable = False
    return rows


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


def frame_descriptors(frame: np.ndarray, sample_rate: int, config: FeatureConfig) -> np.ndarray:
    """16 static descriptors [f0, voice_prob, zcr, log_energy, mfcc1..12] of one frame."""
    frame = np.asarray(frame, dtype=np.float64)
    win = config.window_samples(sample_rate)
    if frame.shape != (win,):
        raise FeatureError(f"frame must have {win} samples, got {frame.shape}")
    return _descriptor_matrix(frame[None, :], sample_rate, config)[0]


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


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or np.any(self.std <= 0):
            raise ValueError("inconsistent standardizer statistics")


def fit_standardizer(matrices) -> Standardizer:
    """Per-column z-statistics over the training-fold frames only."""
    stacked = [np.asarray(m, dtype=np.float64) for m in matrices]
    if not stacked:
        raise ValueError("empty training set")
    data = np.concatenate(stacked, axis=0)
    if data.shape[0] < 2:
        raise ValueError("need at least 2 training frames")
    mean = data.mean(axis=0)
    std = np.maximum(data.std(axis=0), _STD_FLOOR)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(standardizer: Standardizer, matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[1] != standardizer.mean.shape[0]:
        raise ValueError("column count does not match standardizer")
    return (matrix - standardizer.mean) / standardizer.std


# ---------------------------------------------------------------------------
# Feature file format: magic, u32 n_frames, u32 width, row-major float32 LE.
# ---------------------------------------------------------------------------

def write_feature_file(path: str | Path, matrix: np.ndarray) -> Path:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise FeatureError("feature matrix must be 2-D")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.tobytes())
    return path


def read_feature_file(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(len(FEATURE_MAGIC))
        if magic != FEATURE_MAGIC:
            raise FeatureError(f"bad feature file magic in {path}")
        n_frames, width = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(4 * n_frames * width), dtype="<f4")
    if data.size != n_frames * width:
        raise FeatureError(f"truncated feature file: {path}")
    return data.reshape(n_frames, width).copy()


def write_feature_csv(path: str | Path, matrix: np.ndarray) -> Path:
    matrix = np.asarray(matrix)
    if matrix.shape[1] != N_FEATURES:
        raise FeatureError(f"expected {N_FEATURES} columns")
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(FEATURE_COLUMNS) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path
