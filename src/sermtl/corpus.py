"""Corpus data model: tasks and their labels, manifests, synthetic audio generation, and folds."""
from __future__ import annotations

import csv
import io
import math
import os
import wave
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

# hashlib's blake2b is this builtin; importing hashlib would also map OpenSSL's libcrypto
from _blake2 import blake2b

import numpy as np

from .seeding import derive_seed

SAMPLE_RATE = 16000
WAV_DIGEST_BYTES = 32  # of a WAV's blake2b digest (`WavFile.digest`)

MANIFEST_HEADER = (
    "utterance_id",
    "audio_path",
    "emotion",
    "gender",
    "naturalness",
    "speaker_id",
    "corpus_id",
)


class ManifestError(ValueError):
    """Malformed or inconsistent manifest content."""


class FoldError(ValueError):
    """Invalid fold construction request."""


class EmotionLabel(Enum):
    NEUTRAL = "neutral"
    HAPPY = "happy"
    SAD = "sad"
    ANGRY = "angry"


class GenderLabel(Enum):
    FEMALE_ADULT = "female_adult"
    MALE_ADULT = "male_adult"
    FEMALE_CHILD = "female_child"
    MALE_CHILD = "male_child"


class NaturalnessLabel(Enum):
    NATURAL = "natural"
    ACTED = "acted"


EMOTION_CLASSES = tuple(EmotionLabel)
GENDER_CLASSES = tuple(GenderLabel)
NATURALNESS_CLASSES = tuple(NaturalnessLabel)

# Each task's classes in class-index order, keyed by the record field that holds
# its label: emotion is the main task, gender and naturalness the auxiliary ones.
TASK_CLASSES = {
    "emotion": EMOTION_CLASSES,
    "gender": GENDER_CLASSES,
    "naturalness": NATURALNESS_CLASSES,
}


def parse_label(task: str, token: str):
    """The class of ``task`` whose value is ``token``."""
    for label in TASK_CLASSES[task]:
        if label.value == token:
            return label
    raise ManifestError(f"unknown {task} label: {token!r}")


@dataclass(frozen=True)
class UtteranceRecord:
    """One labeled utterance; every label field is mandatory."""

    utterance_id: str
    audio_path: Path
    emotion: EmotionLabel
    gender: GenderLabel
    naturalness: NaturalnessLabel
    speaker_id: str
    corpus_id: str


def record_labels(rec: UtteranceRecord) -> dict[str, int]:
    """The class index of each task's label of ``rec``."""
    return {task: classes.index(getattr(rec, task)) for task, classes in TASK_CLASSES.items()}


@dataclass(frozen=True)
class CorpusManifest:
    records: tuple[UtteranceRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise ManifestError("manifest has no records")
        seen = set()
        for rec in self.records:
            if rec.utterance_id in seen:
                raise ManifestError(f"duplicate utterance_id: {rec.utterance_id!r}")
            seen.add(rec.utterance_id)

    def __len__(self) -> int:
        return len(self.records)

    def corpora(self) -> tuple[str, ...]:
        return tuple(sorted({r.corpus_id for r in self.records}))


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read a manifest CSV. Relative audio paths resolve against the CSV's
    directory, and every audio file must exist. A malformed manifest is
    refused by its path, and by the line of the fault where there is one."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(f"{path}, line {line}: {exc}") from None
    records = []
    # `first`: the line a row starts on
    reader, first, seen = csv.reader(io.StringIO(text, newline="")), 1, set()
    try:
        header = tuple(next(reader, ()))
        if header != MANIFEST_HEADER:
            missing = sorted(set(MANIFEST_HEADER) - set(header))
            raise ManifestError("empty manifest file" if not header else
                                f"missing column(s): {missing}" if missing else
                                f"bad manifest header: {header}")
        first = reader.line_num + 1
        for row in reader:
            if row:
                records.append(_manifest_record(row, path.parent))
                if records[-1].utterance_id in seen:
                    raise ManifestError(f"duplicate utterance_id: {records[-1].utterance_id!r}")
                seen.add(records[-1].utterance_id)
            first = reader.line_num + 1
    except (ManifestError, csv.Error) as exc:
        line = f", line {first}" if reader.line_num else ""
        raise ManifestError(f"{path}{line}: {exc}") from None
    try:
        return CorpusManifest(records=tuple(records))
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _manifest_record(row: list[str], base: Path) -> UtteranceRecord:
    """The record of one manifest row; relative audio paths resolve against ``base``."""
    if len(row) != len(MANIFEST_HEADER):
        raise ManifestError(f"expected {len(MANIFEST_HEADER)} fields, got {len(row)}")
    uid, audio, emo, gen, nat, spk, corp = (field.strip() for field in row)
    if not all((uid, audio, emo, gen, nat, spk, corp)):
        raise ManifestError("empty field")
    # a speaker or corpus id names a fold's confusion CSV; an utterance id is
    # held to the same rule, so no id from a manifest can be a path
    for column, value in (("utterance_id", uid), ("speaker_id", spk), ("corpus_id", corp)):
        if value in (".", "..") or "/" in value or "\\" in value:
            raise ManifestError(f"{column} {value!r} is not a file name")
    audio_path = Path(audio)
    if not audio_path.is_absolute():
        audio_path = (base / audio_path).resolve()
    if not audio_path.exists():
        raise ManifestError(f"audio file not found: {audio_path}")
    return UtteranceRecord(uid, audio_path, parse_label("emotion", emo), parse_label("gender", gen),
                           parse_label("naturalness", nat), spk, corp)


def write_manifest(manifest: CorpusManifest, path: str | Path) -> Path:
    """Write a manifest CSV; audio paths are stored relative to the CSV when possible."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    base = path.parent.resolve()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for rec in manifest.records:
            audio = rec.audio_path
            try:
                audio_out = os.path.relpath(audio, base)
            except ValueError:
                audio_out = str(audio)
            writer.writerow(
                [
                    rec.utterance_id,
                    audio_out,
                    rec.emotion.value,
                    rec.gender.value,
                    rec.naturalness.value,
                    rec.speaker_id,
                    rec.corpus_id,
                ]
            )
    return path


@dataclass(frozen=True, eq=False)
class WavFile:
    """A mono PCM16 WAV read whole, once: its bytes, sample rate and samples."""

    data: bytes
    rate: int
    n_samples: int
    start: int  # byte offset of the first sample

    def samples(self) -> np.ndarray:
        """The samples as float64 in [-1, 1)."""
        pcm = np.frombuffer(self.data, dtype="<i2", count=self.n_samples, offset=self.start)
        return pcm.astype(np.float64) / 32768.0

    def digest(self) -> str:
        """The blake2b digest of the file's bytes, in hex."""
        return blake2b(self.data, digest_size=WAV_DIGEST_BYTES).hexdigest()


def read_wav_file(path: str | Path) -> WavFile:
    """Read the WAV at ``path`` in one read; its header check and samples come
    from those bytes. Raises `ManifestError` naming ``path`` when it is not a
    mono PCM16 WAV or its data chunk holds fewer samples than its header gives."""
    data = Path(path).read_bytes()
    stream = io.BytesIO(data)
    try:
        wf = wave.open(stream, "rb")
    except (wave.Error, EOFError) as exc:
        raise ManifestError(f"not a readable WAV ({str(exc) or 'file ends early'}): {path}") from None
    with wf:
        if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
            raise ManifestError(f"expected mono PCM16 WAV: {path}")
        wav = WavFile(data, wf.getframerate(), wf.getnframes(),
                      stream.tell())  # `wave` leaves the stream at the first sample
    held = (len(data) - wav.start) // 2
    if held < wav.n_samples:
        raise ManifestError(f"data chunk holds {held} of the {wav.n_samples} samples "
                            f"its header gives: {path}")
    return wav


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a mono PCM16 WAV into float64 samples in [-1, 1)."""
    wav = read_wav_file(path)
    return wav.samples(), wav.rate


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.rint(x * 32767.0).astype("<i2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    n_corpora: int = 2
    speakers_per_corpus: int = 4
    utterances_per_speaker: int = 8
    duration_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_corpora", "speakers_per_corpus", "utterances_per_speaker"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.duration_s < 0.5:
            raise ValueError("duration_s must be >= 0.5")


# Voice registers by gender (Hz); children sit above the adult registers.
_REGISTER_HZ = {
    GenderLabel.FEMALE_ADULT: 205.0,
    GenderLabel.MALE_ADULT: 115.0,
    GenderLabel.FEMALE_CHILD: 320.0,
    GenderLabel.MALE_CHILD: 265.0,
}

# Per-emotion synthesis profile:
# (f0_scale, f0_slope, am_rate_hz, am_depth, spectral_tilt, vibrato_depth, attack_s)
_EMOTION_PROFILE = {
    EmotionLabel.NEUTRAL: (1.00, 0.00, 2.0, 0.12, 1.30, 0.020, 0.050),
    EmotionLabel.HAPPY: (1.35, 0.06, 5.5, 0.40, 0.90, 0.070, 0.030),
    EmotionLabel.SAD: (0.76, -0.10, 1.3, 0.22, 1.90, 0.040, 0.150),
    EmotionLabel.ANGRY: (1.15, 0.02, 8.0, 0.60, 0.55, 0.090, 0.010),
}

_F0_FLOOR_HZ = 70.0
_F0_CEIL_HZ = 460.0


def _largest_remainder(n: int, ideal: Sequence[float]) -> list[int]:
    """``n`` apportioned by largest remainder: each share is the floor of its
    ``ideal`` value, and the units left go one each to the largest fractional
    parts, ties to the lower index."""
    shares = [int(math.floor(x)) for x in ideal]
    order = sorted(range(len(ideal)), key=lambda k: (-(ideal[k] - shares[k]), k))
    for k in order[: n - sum(shares)]:
        shares[k] += 1
    return shares


def synthesize_utterance(
    emotion: EmotionLabel,
    gender: GenderLabel,
    naturalness: NaturalnessLabel,
    rng: np.random.Generator,
    duration_s: float,
    speaker_f0_factor: float = 1.0,
    speaker_tilt: float = 0.0,
    channel_tilt: float = 0.0,
    noise_level: float = 0.004,
) -> np.ndarray:
    """Render one harmonic-plus-noise utterance whose acoustics encode its labels.

    Gender fixes the F0 register, emotion sets the F0 scale/contour, amplitude
    modulation and spectral tilt, and naturalness sets contour regularity
    (acted contours are exaggerated and clean, natural ones carry jitter).
    """
    f0_scale, slope, am_rate, am_depth, tilt, vib_depth, attack_s = _EMOTION_PROFILE[emotion]
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE

    base_hz = _REGISTER_HZ[gender] * speaker_f0_factor * f0_scale
    acted = naturalness is NaturalnessLabel.ACTED
    contour_gain = 1.5 if acted else 0.9

    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    vibrato = vib_depth * np.sin(2.0 * np.pi * (am_rate * 0.8) * t + vib_phase)
    drift = slope * (t / duration_s - 0.5) * 2.0
    if acted:
        jitter = rng.normal(0.0, 0.002, n)
    else:
        jitter = np.cumsum(rng.normal(0.0, 1.0, n)) * (0.015 / math.sqrt(n))
    f0 = np.clip(base_hz * (1.0 + contour_gain * (drift + vibrato)) * np.exp(jitter),
                 _F0_FLOOR_HZ, _F0_CEIL_HZ)

    phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    k_max = max(3, min(10, int(0.45 * SAMPLE_RATE / float(f0.max()))))
    tilt_total = max(0.2, tilt + speaker_tilt + channel_tilt)
    harmonic_phases = rng.uniform(0.0, 2.0 * np.pi, k_max)
    sig = np.zeros(n)
    for k in range(1, k_max + 1):
        sig += (k ** -tilt_total) * np.sin(k * phase + harmonic_phases[k - 1])

    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    am = 1.0 - 0.5 * am_depth * (1.0 + np.sin(2.0 * np.pi * am_rate * t + am_phase))
    attack = np.minimum(t / attack_s, 1.0)
    release = np.minimum((duration_s - t) / 0.05, 1.0)
    sig *= am * attack * np.clip(release, 0.0, 1.0)

    sig += rng.normal(0.0, noise_level, n)
    peak = float(np.max(np.abs(sig)))
    if peak > 0:
        sig = 0.9 * sig / peak
    return sig


def generate_synthetic(config: SynthConfig, out_dir: str | Path) -> CorpusManifest:
    """Write a seeded synthetic corpus set (WAVs + manifest.csv) under ``out_dir``.

    The whole tree is a pure function of ``config``: rerunning with the same
    config produces byte-identical files. Utterance ids carry the seed, so the
    manifests of sets made with different seeds can be merged.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc

    records = []
    for ci in range(config.n_corpora):
        corpus_id = f"c{ci:02d}"
        channel_rng = np.random.default_rng(derive_seed(config.seed, "corpus", corpus_id))
        channel_tilt = float(channel_rng.uniform(-0.2, 0.2))
        noise_level = float(channel_rng.uniform(0.002, 0.012))
        # Corpora alternate naturalness style so LOCO folds face a real shift.
        corpus_nat = NATURALNESS_CLASSES[ci % 2]
        for si in range(config.speakers_per_corpus):
            speaker_id = f"{corpus_id}s{si:02d}"
            gender = GENDER_CLASSES[si % len(GENDER_CLASSES)]
            voice_rng = np.random.default_rng(derive_seed(config.seed, "speaker", corpus_id, speaker_id))
            f0_factor = float(2.0 ** voice_rng.uniform(-0.12, 0.12))
            speaker_tilt = float(voice_rng.uniform(-0.15, 0.15))
            for ui in range(config.utterances_per_speaker):
                emotion = EMOTION_CLASSES[ui % len(EMOTION_CLASSES)]
                naturalness = NATURALNESS_CLASSES[(ui // 4 + ci) % 2] if config.utterances_per_speaker >= 8 else corpus_nat
                utt_rng = np.random.default_rng(derive_seed(config.seed, "utt", corpus_id, speaker_id, ui))
                samples = synthesize_utterance(
                    emotion,
                    gender,
                    naturalness,
                    utt_rng,
                    config.duration_s,
                    speaker_f0_factor=f0_factor,
                    speaker_tilt=speaker_tilt,
                    channel_tilt=channel_tilt,
                    noise_level=noise_level,
                )
                rel = Path(corpus_id) / speaker_id / f"u{ui:03d}.wav"
                write_wav(out_dir / rel, samples)
                records.append(
                    UtteranceRecord(
                        utterance_id=f"seed{config.seed}_{corpus_id}_{speaker_id}_u{ui:03d}",
                        audio_path=(out_dir / rel).resolve(),
                        emotion=emotion,
                        gender=gender,
                        naturalness=naturalness,
                        speaker_id=speaker_id,
                        corpus_id=corpus_id,
                    )
                )
    manifest = CorpusManifest(records=tuple(records))
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest


# ---------------------------------------------------------------------------
# Fold construction
# ---------------------------------------------------------------------------

# within-corpus (leave one speaker out), cross-corpus (leave one corpus out), and
# one aggregated split of every corpus into train/validation/test by these fractions
PROTOCOLS = ("within", "cross", "aggregated")
AGGREGATED_FRACTIONS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class Fold:
    train_ids: tuple[str, ...]
    validation_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    test_group: str

    def __post_init__(self):
        tr, va, te = set(self.train_ids), set(self.validation_ids), set(self.test_ids)
        if tr & va or tr & te or va & te:
            raise FoldError("fold id sets overlap")


def merge_records(manifests: Sequence[CorpusManifest]) -> list[UtteranceRecord]:
    if not manifests:
        raise FoldError("no manifests given")
    records: list[UtteranceRecord] = []
    seen_ids: set[str] = set()
    speaker_corpus: dict[str, str] = {}
    for manifest in manifests:
        for rec in manifest.records:
            if rec.utterance_id in seen_ids:
                raise ManifestError(f"duplicate utterance_id across manifests: {rec.utterance_id!r}")
            seen_ids.add(rec.utterance_id)
            prior = speaker_corpus.setdefault(rec.speaker_id, rec.corpus_id)
            if prior != rec.corpus_id:
                raise FoldError(f"speaker {rec.speaker_id!r} appears in corpora {prior!r} and {rec.corpus_id!r}")
            records.append(rec)
    return records


def _carve_validation(pool: list[str], seed: int,
                      fold_index: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Move a seeded uniform 10% sample of the training pool into validation."""
    n_val = int(round(0.1 * len(pool)))
    if len(pool) >= 2:
        n_val = min(max(n_val, 1), len(pool) - 1)
    else:
        n_val = 0
    rng = np.random.default_rng(derive_seed(seed, "validation", fold_index))
    ordered = sorted(pool)
    picks = rng.choice(len(ordered), size=n_val, replace=False)
    val = {ordered[int(i)] for i in picks}
    train = tuple(u for u in ordered if u not in val)
    return train, tuple(sorted(val))


def make_folds(
    manifests: Sequence[CorpusManifest],
    protocol: str,
    group_key: str = "corpus",
    seed: int = 0,
) -> tuple[Fold, ...]:
    """The folds of ``protocol``, one of `PROTOCOLS`. ``within`` leaves one
    speaker of a single corpus out per fold (LOSO), ``cross`` one group by
    ``group_key``, ``"corpus"`` or ``"corpus_naturalness"`` (LOCO), each with a
    seeded 10% validation carve-out; ``aggregated`` is `stratified_split`'s one
    fold."""
    if protocol == "aggregated":
        return stratified_split(manifests, seed=seed)
    if protocol not in PROTOCOLS:
        raise FoldError(f"unknown protocol: {protocol!r}")
    records = merge_records(manifests)
    if protocol == "within":
        if len(manifests) != 1:
            raise FoldError("LOSO takes exactly one manifest")
        corpora = {r.corpus_id for r in records}
        if len(corpora) != 1:
            raise FoldError(f"LOSO expects a single corpus, got {sorted(corpora)}")
        group_of = lambda rec: rec.speaker_id
    elif group_key == "corpus":
        group_of = lambda rec: rec.corpus_id
    elif group_key == "corpus_naturalness":
        group_of = lambda rec: f"{rec.corpus_id}:{rec.naturalness.value}"
    else:
        raise FoldError(f"unknown group_key: {group_key!r}")

    groups: dict[str, list[str]] = {}
    for rec in records:
        groups.setdefault(group_of(rec), []).append(rec.utterance_id)
    if protocol == "cross" and len(groups) < 2:
        raise FoldError(f"LOCO needs at least two groups, got {len(groups)}")

    folds = []
    for fold_index, group in enumerate(sorted(groups)):
        test_ids = tuple(sorted(groups[group]))
        pool = [r.utterance_id for r in records if group_of(r) != group]
        train_ids, val_ids = _carve_validation(pool, seed, fold_index)
        folds.append(Fold(train_ids=train_ids, validation_ids=val_ids, test_ids=test_ids, test_group=group))
    return tuple(folds)


def stratified_split(manifests: Sequence[CorpusManifest], seed: int = 0) -> tuple[Fold]:
    """The single aggregated train/validation/test fold, stratified by emotion.

    Partition sizes follow `AGGREGATED_FRACTIONS` exactly (largest-remainder
    rounding); per-emotion proportions in each partition stay within 2
    percentage points of the global proportions for any non-degenerate corpus.
    """
    records = merge_records(manifests)
    n = len(records)
    if n < 10:
        raise FoldError(f"need at least 10 utterances to split, got {n}")

    sizes = _largest_remainder(n, [n * f for f in AGGREGATED_FRACTIONS])

    rng = np.random.default_rng(derive_seed(seed, "stratified"))
    by_class: dict[EmotionLabel, list[str]] = {}
    for rec in sorted(records, key=lambda r: r.utterance_id):
        by_class.setdefault(rec.emotion, []).append(rec.utterance_id)

    parts: list[list[str]] = [[], [], []]
    for label in EMOTION_CLASSES:
        ids = by_class.get(label, [])
        if not ids:
            continue
        ids = [ids[int(i)] for i in rng.permutation(len(ids))]
        quota = _largest_remainder(len(ids), [len(ids) * f for f in AGGREGATED_FRACTIONS])
        start = 0
        for part, q in zip(parts, quota):
            part.extend(ids[start:start + q])
            start += q

    # Rebalance to the exact global sizes, moving from the class currently
    # most over-represented in the oversized partition.
    def class_of(uid: str) -> EmotionLabel:
        return rec_by_id[uid].emotion

    rec_by_id = {r.utterance_id: r for r in records}
    for _ in range(4 * 3):
        over = next((i for i in range(3) if len(parts[i]) > sizes[i]), None)
        under = next((i for i in range(3) if len(parts[i]) < sizes[i]), None)
        if over is None or under is None:
            break
        counts = Counter(class_of(u) for u in parts[over])
        donor_class = max(counts, key=lambda c: (counts[c], c.value))
        uid = next(u for u in parts[over] if class_of(u) is donor_class)
        parts[over].remove(uid)
        parts[under].append(uid)

    fold = Fold(
        train_ids=tuple(parts[0]),
        validation_ids=tuple(parts[1]),
        test_ids=tuple(parts[2]),
        test_group="aggregated",
    )
    return (fold,)
