"""Corpus data model: labels, manifests, synthetic audio generation, and fold plans."""
from __future__ import annotations

import csv
import math
import os
import wave
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .seeding import derive_seed

SAMPLE_RATE = 16000

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

_EMOTION_INDEX = {label: i for i, label in enumerate(EMOTION_CLASSES)}
_GENDER_INDEX = {label: i for i, label in enumerate(GENDER_CLASSES)}
_NATURALNESS_INDEX = {label: i for i, label in enumerate(NATURALNESS_CLASSES)}


def emotion_index(label: EmotionLabel) -> int:
    return _EMOTION_INDEX[label]


def gender_index(label: GenderLabel) -> int:
    return _GENDER_INDEX[label]


def naturalness_index(label: NaturalnessLabel) -> int:
    return _NATURALNESS_INDEX[label]


def _parse_label(enum_cls, token: str, kind: str):
    try:
        return enum_cls(token)
    except ValueError:
        raise ManifestError(f"unknown {kind} label: {token!r}") from None


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


@dataclass(frozen=True)
class CorpusManifest:
    records: tuple[UtteranceRecord, ...]
    sample_rate: int = SAMPLE_RATE

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

    def speakers(self) -> tuple[str, ...]:
        return tuple(sorted({r.speaker_id for r in self.records}))

    def label_counts(self) -> dict[str, dict[str, Counter]]:
        """Per-corpus counts of emotion/gender/naturalness values and speakers."""
        table: dict[str, dict[str, Counter]] = {}
        for rec in self.records:
            slot = table.setdefault(
                rec.corpus_id,
                {"emotion": Counter(), "gender": Counter(), "naturalness": Counter(), "speakers": Counter()},
            )
            slot["emotion"][rec.emotion.value] += 1
            slot["gender"][rec.gender.value] += 1
            slot["naturalness"][rec.naturalness.value] += 1
            slot["speakers"][rec.speaker_id] += 1
        return table


def load_manifest(path: str | Path) -> CorpusManifest:
    """Read a manifest CSV. Relative audio paths resolve against the CSV's
    directory, and every audio file must exist."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    base = path.parent
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ManifestError("empty manifest file") from None
        if header != MANIFEST_HEADER:
            missing = set(MANIFEST_HEADER) - set(header)
            if missing:
                raise ManifestError(f"missing column(s): {sorted(missing)}")
            raise ManifestError(f"bad manifest header: {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(MANIFEST_HEADER):
                raise ManifestError(f"line {lineno}: expected {len(MANIFEST_HEADER)} fields, got {len(row)}")
            uid, audio, emo, gen, nat, spk, corp = (field.strip() for field in row)
            if not all((uid, audio, emo, gen, nat, spk, corp)):
                raise ManifestError(f"line {lineno}: empty field")
            audio_path = Path(audio)
            if not audio_path.is_absolute():
                audio_path = (base / audio_path).resolve()
            if not audio_path.exists():
                raise ManifestError(f"line {lineno}: audio file not found: {audio_path}")
            records.append(
                UtteranceRecord(
                    utterance_id=uid,
                    audio_path=audio_path,
                    emotion=_parse_label(EmotionLabel, emo, "emotion"),
                    gender=_parse_label(GenderLabel, gen, "gender"),
                    naturalness=_parse_label(NaturalnessLabel, nat, "naturalness"),
                    speaker_id=spk,
                    corpus_id=corp,
                )
            )
    return CorpusManifest(records=tuple(records))


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


def _open_pcm16(path: str | Path) -> wave.Wave_read:
    wf = wave.open(str(path), "rb")
    if wf.getnchannels() != 1 or wf.getsampwidth() != 2:
        wf.close()
        raise ManifestError(f"expected mono PCM16 WAV: {path}")
    return wf


def read_wav_length(path: str | Path) -> tuple[int, int]:
    """(sample count, sample rate) of a mono PCM16 WAV, from its header alone."""
    with _open_pcm16(path) as wf:
        return wf.getnframes(), wf.getframerate()


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a mono PCM16 WAV into float64 samples in [-1, 1)."""
    with _open_pcm16(path) as wf:
        sr = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples, sr


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
    class_balance: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        for name in ("n_corpora", "speakers_per_corpus", "utterances_per_speaker"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.duration_s < 0.5:
            raise ValueError("duration_s must be >= 0.5")
        if self.class_balance is not None:
            props = tuple(float(p) for p in self.class_balance)
            if len(props) != 4 or any(p < 0 for p in props) or sum(props) <= 0:
                raise ValueError("class_balance must be 4 non-negative proportions")
            object.__setattr__(self, "class_balance", props)


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


def _emotion_sequence(n: int, balance: tuple[float, ...] | None) -> list[EmotionLabel]:
    """Deterministic per-speaker emotion assignment honoring the requested balance."""
    if balance is None:
        return [EMOTION_CLASSES[i % 4] for i in range(n)]
    total = sum(balance)
    ideal = [n * p / total for p in balance]
    counts = [int(math.floor(x)) for x in ideal]
    remainders = sorted(range(4), key=lambda k: (-(ideal[k] - counts[k]), k))
    for k in remainders[: n - sum(counts)]:
        counts[k] += 1
    seq: list[EmotionLabel] = []
    for label, count in zip(EMOTION_CLASSES, counts):
        seq.extend([label] * count)
    return seq


def synthesize_utterance(
    emotion: EmotionLabel,
    gender: GenderLabel,
    naturalness: NaturalnessLabel,
    rng: np.random.Generator,
    duration_s: float,
    sample_rate: int = SAMPLE_RATE,
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
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate

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

    phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
    k_max = max(3, min(10, int(0.45 * sample_rate / float(f0.max()))))
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
    config produces byte-identical files.
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
            gender = GENDER_CLASSES[si % 4]
            voice_rng = np.random.default_rng(derive_seed(config.seed, "speaker", corpus_id, speaker_id))
            f0_factor = float(2.0 ** voice_rng.uniform(-0.12, 0.12))
            speaker_tilt = float(voice_rng.uniform(-0.15, 0.15))
            emotions = _emotion_sequence(config.utterances_per_speaker, config.class_balance)
            for ui in range(config.utterances_per_speaker):
                emotion = emotions[ui]
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
                        utterance_id=f"{corpus_id}_{speaker_id}_u{ui:03d}",
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

class SplitMode(Enum):
    LOSO = "LOSO"
    LOCO = "LOCO"
    STRATIFIED = "STRATIFIED"


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


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[Fold, ...]
    mode: SplitMode


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
    mode: SplitMode,
    group_key: str = "corpus",
    seed: int = 0,
) -> FoldPlan:
    """Build LOSO or LOCO folds with a seeded 10% validation carve-out per fold.
    LOCO groups by ``group_key``: ``"corpus"`` or ``"corpus_naturalness"``."""
    records = merge_records(manifests)
    if mode is SplitMode.LOSO:
        if len(manifests) != 1:
            raise FoldError("LOSO takes exactly one manifest")
        corpora = {r.corpus_id for r in records}
        if len(corpora) != 1:
            raise FoldError(f"LOSO expects a single corpus, got {sorted(corpora)}")
        group_of = lambda rec: rec.speaker_id
    elif mode is SplitMode.LOCO and group_key == "corpus":
        group_of = lambda rec: rec.corpus_id
    elif mode is SplitMode.LOCO and group_key == "corpus_naturalness":
        group_of = lambda rec: f"{rec.corpus_id}:{rec.naturalness.value}"
    elif mode is SplitMode.LOCO:
        raise FoldError(f"unknown group_key: {group_key!r}")
    else:
        raise FoldError("make_folds handles LOSO and LOCO; use stratified_split for STRATIFIED")

    groups: dict[str, list[str]] = {}
    for rec in records:
        groups.setdefault(group_of(rec), []).append(rec.utterance_id)
    if mode is SplitMode.LOCO and len(groups) < 2:
        raise FoldError(f"LOCO needs at least two groups, got {len(groups)}")

    folds = []
    for fold_index, group in enumerate(sorted(groups)):
        test_ids = tuple(sorted(groups[group]))
        pool = [r.utterance_id for r in records if group_of(r) != group]
        train_ids, val_ids = _carve_validation(pool, seed, fold_index)
        folds.append(Fold(train_ids=train_ids, validation_ids=val_ids, test_ids=test_ids, test_group=group))
    return FoldPlan(folds=tuple(folds), mode=mode)


def stratified_split(
    manifests: Sequence[CorpusManifest],
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> FoldPlan:
    """Single aggregated train/validation/test split, stratified by emotion.

    Partition sizes follow the fractions exactly (largest-remainder rounding);
    per-emotion proportions in each partition stay within 2 percentage points
    of the global proportions for any non-degenerate corpus.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise FoldError("fractions must sum to 1")
    records = merge_records(manifests)
    n = len(records)
    if n < 10:
        raise FoldError(f"need at least 10 utterances to split, got {n}")

    ideal = [n * f for f in fractions]
    sizes = [int(math.floor(x)) for x in ideal]
    order = sorted(range(3), key=lambda k: (-(ideal[k] - sizes[k]), k))
    for k in order[: n - sum(sizes)]:
        sizes[k] += 1

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
        n_c = len(ids)
        ideal_c = [n_c * f for f in fractions]
        quota = [int(math.floor(x)) for x in ideal_c]
        order_c = sorted(range(3), key=lambda k: (-(ideal_c[k] - quota[k]), k))
        for k in order_c[: n_c - sum(quota)]:
            quota[k] += 1
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
    return FoldPlan(folds=(fold,), mode=SplitMode.STRATIFIED)
