"""Frame-level acoustic front-end: 32 features per 25 ms frame at a 10 ms hop.

Column order of the feature matrix:
    [f0, voice_prob, zcr, log_energy, mfcc01..mfcc12,
     d_f0, d_voice_prob, d_zcr, d_log_energy, d_mfcc01..d_mfcc12]

The settings are fixed, those of Han, Yu & Tashev 2014 on 16 kHz audio. F0 and
voicing come from the normalized autocorrelation peak over the lags of a
50-500 Hz band; MFCCs use a 26-filter mel bank over 0-8 kHz with an orthonormal
DCT-II, keeping coefficients 1..12.
"""
from __future__ import annotations

import math
import mmap
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import SAMPLE_RATE, WAV_DIGEST_BYTES

_LOG_FLOOR = 1e-10
_STD_FLOOR = 1e-8

# The front-end's settings, at SAMPLE_RATE
WINDOW = SAMPLE_RATE * 25 // 1000  # samples per frame: 25 ms
HOP = SAMPLE_RATE * 10 // 1000  # 10 ms
FFT_SIZE = 512
N_MEL_FILTERS = 26
MEL_HIGH_HZ = SAMPLE_RATE / 2.0  # the mel bank spans 0 Hz to the Nyquist frequency
N_MFCC = 12
F0_MIN_HZ = 50.0
F0_MAX_HZ = 500.0
VOICING_THRESHOLD = 0.3  # frames whose voicing is below it get F0 = 0
PRE_EMPHASIS = 0.97
DELTA_WINDOW = 2  # deltas regress over +/- this many frames

# The autocorrelation lags of the F0 band
_LAG_MIN = math.ceil(SAMPLE_RATE / F0_MAX_HZ)
_LAG_MAX = min(math.floor(SAMPLE_RATE / F0_MIN_HZ), WINDOW - 1)

_STATIC_COLUMNS = ("f0", "voice_prob", "zcr", "log_energy") + tuple(
    f"mfcc{i:02d}" for i in range(1, N_MFCC + 1)
)
FEATURE_COLUMNS = _STATIC_COLUMNS + tuple("d_" + name for name in _STATIC_COLUMNS)
N_FEATURES = len(FEATURE_COLUMNS)


class FeatureError(ValueError):
    """Raised when audio cannot be converted to a feature matrix."""


class Workspace:
    """Scratch arrays for `extract_features`, reused from one utterance to the next.

    Each array is allocated once, at the largest size asked for, so after the
    first (or longest) utterance the front-end takes no fresh pages from the
    kernel. Create one per extraction call over a group of utterances and drop
    it afterwards: kept for a whole process, it would only raise the peak
    resident set of whatever runs later."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of ``shape`` over buffer ``name``; its contents are undefined."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def normalize_gain(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Peak-normalize to max |x| = 1; an all-zero signal passes through.
    The result goes to ``out`` (same length) when given."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise FeatureError("empty sample vector")
    if out is None:
        out = np.empty_like(x)
    peak = float(np.abs(x, out=out).max())
    if peak == 0.0:
        out[...] = x
        return out
    return np.divide(x, peak, out=out)


def frame_count(n_samples: int) -> int:
    """Analysis frames in a signal of ``n_samples``: 1 + (n - WINDOW) // HOP."""
    if n_samples < WINDOW:
        raise FeatureError(f"utterance too short: {n_samples} samples < one {WINDOW}-sample window")
    return 1 + (n_samples - WINDOW) // HOP


def frame_signal(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Slice into overlapping analysis frames; the tail is dropped, never padded.
    The frames are copied into ``out`` when given."""
    x = np.asarray(samples, dtype=np.float64)
    frame_count(x.size)
    windows = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]
    if out is None:
        return np.ascontiguousarray(windows)
    out[...] = windows
    return out


def _mel_from_hz(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _hz_from_mel(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _mel_filterbank() -> np.ndarray:
    """Triangular mel filters on FFT bins, shape (N_MEL_FILTERS, FFT_SIZE//2 + 1)."""
    mels = np.linspace(_mel_from_hz(0.0), _mel_from_hz(MEL_HIGH_HZ), N_MEL_FILTERS + 2)
    bins = np.floor((FFT_SIZE + 1) * _hz_from_mel(mels) / SAMPLE_RATE).astype(int)
    bank = np.zeros((N_MEL_FILTERS, FFT_SIZE // 2 + 1))
    for j in range(N_MEL_FILTERS):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for i in range(left, center):
            bank[j, i] = (i - left) / max(center - left, 1)
        for i in range(center, right):
            bank[j, i] = (right - i) / max(right - center, 1)
    return bank


def _dct_rows() -> np.ndarray:
    """Orthonormal DCT-II rows k = 1..N_MFCC over the mel filters (k = 0 is
    dropped, with the energy kept separately)."""
    k = np.arange(1, N_MFCC + 1)[:, None]
    m = np.arange(N_MEL_FILTERS)[None, :]
    return math.sqrt(2.0 / N_MEL_FILTERS) * np.cos(np.pi * k * (2 * m + 1) / (2.0 * N_MEL_FILTERS))


# Built once and shared, so read-only
MEL_BANK = _read_only(_mel_filterbank())
DCT_ROWS = _read_only(_dct_rows())
HAMMING = _read_only(np.hamming(WINDOW))

# Candidate divisors of the autocorrelation argmax lag when snapping subharmonics.
_SUBHARMONICS = np.arange(2, 9)


def _static_descriptors(frames: np.ndarray, ws: Workspace, out: np.ndarray) -> None:
    """The 16 static descriptors of each frame into ``out`` (n_frames, 16):
    [f0, voice_prob, zcr, log_energy, mfcc1..12]. Every intermediate the size of
    the frames lives in ``ws``."""
    m, win = frames.shape
    lag_min, lag_max = _LAG_MIN, _LAG_MAX
    scratch = ws.array("scratch", (m, win))

    # zero-crossing rate: sign changes between neighbouring samples
    prod = np.multiply(frames[:, 1:], frames[:, :-1], out=scratch[:, :-1])
    out[:, 2] = np.count_nonzero(np.less(prod, 0, out=ws.array("negative", prod.shape, bool)),
                                 axis=1) / (win - 1)
    out[:, 3] = np.log(np.maximum(np.sum(np.multiply(frames, frames, out=scratch), axis=1),
                                  _LOG_FLOOR))

    # F0 / voicing via normalized autocorrelation over the lags of the F0 band.
    y = np.subtract(frames, frames.mean(axis=1, keepdims=True), out=ws.array("centered", (m, win)))
    nfft = 1 << (2 * win - 1).bit_length()
    spec = np.fft.rfft(y, nfft, axis=1, out=ws.array("spec", (m, nfft // 2 + 1), np.complex128))
    power = np.conj(spec, out=ws.array("power", spec.shape, np.complex128))
    # The imaginary part of a complex product depends on the operand order (FMA).
    # This keeps the order of `spec * np.conj(spec)`, in which numpy reuses a
    # temporary conj(spec) of 256 KiB or more as the output and so swaps the operands.
    if power.nbytes >= 256 * 1024:
        np.multiply(power, spec, out=power)
    else:
        np.multiply(spec, power, out=power)
    raw = np.fft.irfft(power, nfft, axis=1, out=ws.array("autocorr", (m, nfft)))
    sq = np.cumsum(np.multiply(y, y, out=scratch), axis=1, out=scratch)
    total = sq[:, -1]
    band = slice(lag_min, lag_max + 1)
    # energy of the leading (win - lag) and trailing samples, for lag = lag_min..lag_max
    head = sq[:, win - lag_max - 1 : win - lag_min][:, ::-1]
    denom = np.subtract(total[:, None], sq[:, lag_min - 1 : lag_max],
                        out=ws.array("denom", (m, lag_max - lag_min + 1)))
    np.multiply(head, denom, out=denom)
    np.sqrt(np.maximum(denom, 0.0, out=denom), out=denom)
    voiced_rows = total > _LOG_FLOOR
    corr = ws.array("corr", denom.shape)
    corr.fill(0.0)
    np.divide(raw[:, band], np.maximum(denom, _LOG_FLOOR, out=denom), out=corr,
              where=voiced_rows[:, None])
    rows = np.arange(m)
    argmax_idx = np.argmax(corr, axis=1)
    peak = np.clip(corr[rows, argmax_idx], 0.0, 1.0)
    # Periodic signals correlate equally at every multiple of the true period,
    # so the argmax may land on a subharmonic; snap to the smallest integer
    # sub-multiple of the argmax lag whose correlation is within a small slack.
    argmax_lag = argmax_idx + lag_min
    cand_lag = np.rint(argmax_lag[:, None] / _SUBHARMONICS).astype(np.int64)
    cand_corr = corr[rows[:, None], np.clip(cand_lag - lag_min, 0, corr.shape[1] - 1)]
    valid = (cand_lag >= lag_min) & (cand_corr >= (peak - 0.02)[:, None])
    best_lag = np.where(valid, cand_lag, argmax_lag[:, None]).min(axis=1)
    voice_prob = np.where(voiced_rows, peak, 0.0)
    out[:, 0] = np.where(voice_prob >= VOICING_THRESHOLD, SAMPLE_RATE / best_lag, 0.0)
    out[:, 1] = voice_prob

    # MFCC: pre-emphasis -> Hamming -> power spectrum -> mel -> log -> DCT-II (1..12).
    pre = ws.array("centered", (m, win))
    pre[:, 0] = frames[:, 0]
    np.subtract(frames[:, 1:], np.multiply(frames[:, :-1], PRE_EMPHASIS, out=pre[:, 1:]),
                out=pre[:, 1:])
    np.multiply(pre, HAMMING, out=pre)
    spec = np.fft.rfft(pre, FFT_SIZE, axis=1,
                       out=ws.array("spec", (m, FFT_SIZE // 2 + 1), np.complex128))
    power = np.abs(spec, out=ws.array("mel_power", spec.shape))
    np.square(power, out=power)
    mel = power @ MEL_BANK.T
    log_mel = np.log(np.maximum(mel, _LOG_FLOOR))
    out[:, 4:] = log_mel @ DCT_ROWS.T


def _deltas(padded: np.ndarray, ws: Workspace, out: np.ndarray) -> None:
    """Regression deltas over +/- w = DELTA_WINDOW frames into ``out`` (n, d),
    from ``padded`` (n + 2w, d): the static rows with w copies of the first and
    last row on either side (edge replication)."""
    n, w = out.shape[0], DELTA_WINDOW
    acc = ws.array("delta", out.shape)
    acc.fill(0.0)
    diff = ws.array("delta_diff", out.shape)
    for k in range(1, w + 1):
        np.subtract(padded[w + k : w + k + n], padded[w - k : w - k + n], out=diff)
        acc += np.multiply(diff, k, out=diff)
    np.divide(acc, 2.0 * sum(k * k for k in range(1, w + 1)), out=out)


def extract_features(samples: np.ndarray, workspace: Workspace | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Full front-end: gain-normalize, frame, describe, append deltas.

    Returns a float32 matrix of shape (n_frames, 32) with no NaN/Inf entries,
    written into ``out`` when given. Intermediates live in ``workspace``; pass
    one workspace to every utterance of a group so they are allocated once.
    """
    ws = Workspace() if workspace is None else workspace
    x = np.asarray(samples, dtype=np.float64)
    gained = normalize_gain(x, out=ws.array("signal", x.shape))
    m = frame_count(x.size)
    frames = frame_signal(gained, out=ws.array("frames", (m, WINDOW)))
    w = DELTA_WINDOW
    n_static = N_FEATURES // 2
    # static columns with w edge-replicated rows either side (the deltas' padding), then the deltas
    full = ws.array("full", (m + 2 * w, N_FEATURES))
    _static_descriptors(frames, ws, full[w : w + m, :n_static])
    full[:w, :n_static] = full[w, :n_static]
    full[w + m :, :n_static] = full[w + m - 1, :n_static]
    _deltas(full[:, :n_static], ws, full[w : w + m, n_static:])
    if out is None:
        out = np.empty((m, N_FEATURES), np.float32)
    elif out.shape != (m, N_FEATURES) or out.dtype != np.float32:
        raise FeatureError(f"output must be float32 ({m}, {N_FEATURES}), got {out.dtype} {out.shape}")
    out[...] = full[w : w + m]
    if not np.all(np.isfinite(out)):
        raise FeatureError("non-finite feature values")
    return out


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or np.any(self.std <= 0):
            raise ValueError("inconsistent standardizer statistics")


def fit_standardizer(matrices) -> Standardizer:
    """Per-column z-statistics over the training-fold frames only.

    The mean and std are bit-identical to ``np.mean``/``np.std`` over the frames
    stacked into one float64 matrix, but only one input matrix at a time is
    held in float64."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("empty training set")
    n = sum(m.shape[0] for m in matrices)
    if n < 2:
        raise ValueError("need at least 2 training frames")
    mean = _column_sum(matrices) / n
    std = np.sqrt(_column_sum(matrices, mean) / n)
    return Standardizer(mean=mean, std=np.maximum(std, _STD_FLOOR))


def _column_sum(matrices, center: np.ndarray | None = None) -> np.ndarray:
    """The float64 column sums of the rows of ``matrices`` (of their squared
    deviations from ``center``, if given), added one row after another as an
    axis-0 reduction over their stack adds them: each matrix is reduced with the
    running sum as its first row."""
    total = None
    for matrix in filter(len, matrices):
        block = np.empty((matrix.shape[0] + 1, matrix.shape[1]))
        rows = block[1:]
        rows[...] = matrix
        if center is not None:
            np.square(np.subtract(rows, center, out=rows), out=rows)
        if total is None:
            total = rows.sum(axis=0)
        else:
            block[0] = total
            total = block.sum(axis=0)
    return total


def apply_standardizer(standardizer: Standardizer, matrix: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """``(matrix - mean) / std`` per column, computed in float64 element by
    element, so the rows of the result do not depend on which other rows are
    standardized with them. Written into a float32 ``out`` (``matrix``'s shape)
    when given, each float64 value rounded once, as a model's float32 inputs
    are in training and in scoring."""
    matrix = np.asarray(matrix)
    if matrix.shape[1] != standardizer.mean.shape[0]:
        raise ValueError("column count does not match standardizer")
    centred = np.subtract(matrix, standardizer.mean, dtype=np.float64)
    return np.divide(centred, standardizer.std, out=centred if out is None else out)


def mapped_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zero-filled array in an anonymous shared memory mapping of its own,
    unmapped when the array is freed.

    A forked child's writes to it land in its parent's array: that is how the
    front-end children fill `experiment.extract_feature_cache`'s store. The
    other callers' arrays, `standardized`'s and `mtl.load_model`'s, live within
    one fold or one command, never across a fork. Unlike ``np.empty``, it
    leaves malloc's adaptive thresholds alone: freeing a malloc'd array of up
    to 32 MiB raises them so far that the heap then keeps up to twice that much
    freed memory resident, as it would for an array made and freed once per
    fold or once per command."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_SHARED)
    return np.frombuffer(buffer, dtype, count=math.prod(shape)).reshape(shape)


def standardized(store: FeatureStore, standardizer: Standardizer, block_rows: int = 1 << 14
                 ) -> FeatureStore:
    """``store`` with its matrix standardized into float32: the float64 values of
    `apply_standardizer`, each rounded to float32, computed a block of rows at a
    time so no float64 copy of the whole matrix is made."""
    out = mapped_array(store.matrix.shape, np.float32)
    for start in range(0, out.shape[0], block_rows):
        block = slice(start, start + block_rows)
        apply_standardizer(standardizer, store.matrix[block], out=out[block])
    return replace(store, matrix=out)


# ---------------------------------------------------------------------------
# Feature store: utterances as row ranges of one matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FeatureStore:
    """Utterances as row ranges of one (frames, width) matrix, with one label
    array (an index per utterance) per task.

    An extracted store is packed: utterance i holds rows ``starts[i]`` to
    ``starts[i] + lengths[i]``, in order and without gaps. `select` takes a
    subset that shares the matrix."""

    ids: tuple[str, ...]
    matrix: np.ndarray  # (frames, width)
    starts: np.ndarray  # (utterances,) int64
    lengths: np.ndarray  # (utterances,) int64
    labels: dict[str, np.ndarray] = field(default_factory=dict)  # task -> (utterances,) int64
    paths: tuple[Path, ...] = ()  # the WAV of each utterance, for an extracted store
    # each utterance's WAV as (byte count, blake2b hex digest), for an extracted or a
    # saved store; a `select`ed one has none
    wavs: tuple[tuple[int, str], ...] = ()

    @classmethod
    def pack(cls, ids, matrices, labels: dict | None = None, wavs=()) -> FeatureStore:
        """A packed store of ``matrices`` in order; ``labels`` maps each task to one index per matrix."""
        lengths = np.array([m.shape[0] for m in matrices], dtype=np.int64)
        return cls(tuple(ids), np.concatenate(matrices), np.cumsum(lengths) - lengths, lengths,
                   {task: np.asarray(v, dtype=np.int64) for task, v in (labels or {}).items()},
                   wavs=tuple(wavs))

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, i: int) -> np.ndarray:
        """Utterance ``i``'s rows: a view of the matrix."""
        return self.matrix[self.starts[i] : self.starts[i] + self.lengths[i]]

    def gather(self, positions) -> np.ndarray:
        """The rows of the utterances at ``positions``, stacked in that order: a
        view of the matrix when they follow one another in it (a packed store's
        utterances in order), else a copy."""
        positions = np.asarray(positions, dtype=np.int64)
        starts, ends = self.starts[positions], self.starts[positions] + self.lengths[positions]
        if positions.size and np.array_equal(starts[1:], ends[:-1]):
            return self.matrix[starts[0] : ends[-1]]
        return np.concatenate([self.rows(i) for i in positions])

    def positions(self, ids) -> np.ndarray:
        """The position of each utterance id in ``ids``."""
        where = {uid: i for i, uid in enumerate(self.ids)}
        return np.array([where[uid] for uid in ids], dtype=np.int64)

    def select(self, positions) -> FeatureStore:
        """The utterances at ``positions``, in that order, over the same matrix."""
        positions = np.asarray(positions, dtype=np.int64)
        return FeatureStore(tuple(self.ids[i] for i in positions), self.matrix,
                            self.starts[positions], self.lengths[positions],
                            {task: v[positions] for task, v in self.labels.items()},
                            tuple(self.paths[i] for i in positions) if self.paths else ())


# On disk: the matrix as a little-endian float32 .npy and a CSV index of each
# utterance's row range and WAV
STORE_MATRIX = "features.npy"
STORE_INDEX = "features_index.csv"
_INDEX_HEADER = "utterance_id,offset,n_frames,wav_bytes,wav_blake2b"
_DIGEST_CHARS = 2 * WAV_DIGEST_BYTES
_HEX_DIGITS = set("0123456789abcdef")


def save_store(directory: str | Path, store: FeatureStore) -> Path:
    """Write ``features.npy`` and ``features_index.csv`` (utterance_id, offset,
    n_frames, and the byte count and blake2b digest of the utterance's WAV)."""
    if len(store.wavs) != len(store):
        raise ValueError("a store is saved with the WAV of each utterance")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / STORE_MATRIX, np.ascontiguousarray(store.matrix, dtype="<f4"))
    lines = [_INDEX_HEADER] + [f"{uid},{start},{n},{size},{digest}" for uid, start, n, (size, digest)
                               in zip(store.ids, store.starts.tolist(), store.lengths.tolist(), store.wavs)]
    (directory / STORE_INDEX).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory / STORE_MATRIX


def load_store(directory: str | Path) -> FeatureStore:
    """Map a store written by `save_store` read-only (without labels). Raises
    `FeatureError` naming the file, and the index line, of what is malformed."""
    directory = Path(directory)
    matrix_path, index_path = directory / STORE_MATRIX, directory / STORE_INDEX
    try:
        matrix = np.load(matrix_path, mmap_mode="r", allow_pickle=False)
    except (EOFError, OSError, TypeError, ValueError, tokenize.TokenError) as exc:  # numpy's header parser
        raise FeatureError(f"unreadable feature matrix ({exc}): {matrix_path}") from None
    try:
        lines = index_path.read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        raise FeatureError(f"unreadable feature index ({exc}): {index_path}") from None
    if (matrix.ndim != 2 or matrix.dtype != np.float32 or matrix.shape[1] != N_FEATURES
            or not matrix.flags.c_contiguous):
        raise FeatureError(f"{matrix_path}: expected a float32 (frames, {N_FEATURES}) matrix in C order, "
                           f"got {matrix.dtype} {matrix.shape}")
    if not lines or lines[0] != _INDEX_HEADER:
        raise FeatureError(f"{index_path}, line 1: header must be {_INDEX_HEADER!r}")
    ids, starts, lengths, wavs, seen = [], [], [], [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.rsplit(",", 4)
        if (len(fields) != 5 or not fields[0] or not all(f.isascii() and f.isdigit() for f in fields[1:4])
                or len(fields[4]) != _DIGEST_CHARS or not set(fields[4]) <= _HEX_DIGITS):
            raise FeatureError(f"{index_path}, line {lineno}: expected {_INDEX_HEADER}, "
                               f"with a {_DIGEST_CHARS}-digit hex digest, got {line!r}")
        uid, start, n, size, digest = fields
        start, n = int(start), int(n)
        if n < 1 or start + n > matrix.shape[0]:
            raise FeatureError(f"{index_path}, line {lineno}: row range {start}..{start + n} does "
                               f"not fit the {matrix.shape[0]}-row matrix of {matrix_path.name}")
        if uid in seen:
            raise FeatureError(f"{index_path}, line {lineno}: utterance_id {uid!r} appears twice")
        seen.add(uid)
        ids.append(uid)
        starts.append(start)
        lengths.append(n)
        wavs.append((int(size), digest))
    starts = np.array(starts, dtype=np.int64)
    lengths = np.array(lengths, dtype=np.int64)
    return FeatureStore(tuple(ids), matrix, starts, lengths, wavs=tuple(wavs))
