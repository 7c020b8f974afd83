from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest

from sermtl.corpus import (
    CorpusManifest,
    EmotionLabel,
    GenderLabel,
    NaturalnessLabel,
    SynthConfig,
    UtteranceRecord,
    generate_synthetic,
)

# each CLI command's required flags, with placeholder values
COMMAND_REQUIRED_FLAGS = {
    "synth": ["--out", "o"],
    "train": ["--manifest", "m", "--out", "o"],
    "hlf": ["--model", "c", "--manifest", "m", "--out", "o"],
    "elm": ["--hlf", "h", "--out", "o"],
    "xval": ["--manifest", "m", "--out", "o"],
    "embed": ["--input", "h", "--out", "o"],
    "report": ["--run", "r"],
}

EMOTIONS = list(EmotionLabel)
GENDERS = list(GenderLabel)
NATURALNESS = list(NaturalnessLabel)


def make_records(n, emotions=None, genders=None, naturalness=None, speakers=4,
                 corpus_id="test", prefix="u"):
    """Build in-memory records with cycled labels and dummy audio paths."""
    records = []
    for i in range(n):
        records.append(
            UtteranceRecord(
                utterance_id=f"{prefix}{i:04d}",
                audio_path=Path(f"/nonexistent/{prefix}{i:04d}.wav"),
                emotion=emotions[i] if emotions else EMOTIONS[i % 4],
                gender=genders[i] if genders else GENDERS[i % 4],
                naturalness=naturalness[i] if naturalness else NATURALNESS[i % 2],
                speaker_id=f"{corpus_id}s{i % speakers:02d}",
                corpus_id=corpus_id,
            )
        )
    return records


def make_manifest(n=40, **kwargs) -> CorpusManifest:
    return CorpusManifest(records=tuple(make_records(n, **kwargs)))


def with_list_chunk(wav: bytes, size: int) -> bytes:
    """A canonical 44-byte-header WAV's bytes with a ``size``-byte LIST chunk
    (``size`` even) between its fmt and data chunks, and the RIFF size updated."""
    body = wav[12:36] + b"LIST" + struct.pack("<I", size) + bytes(size) + wav[36:]
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    """A small deterministic corpus set reused across tests: 2 corpora x 3 speakers x 8 utts."""
    out = tmp_path_factory.mktemp("synth_small")
    config = SynthConfig(n_corpora=2, speakers_per_corpus=3, utterances_per_speaker=8,
                         duration_s=0.8, seed=21)
    manifest = generate_synthetic(config, out)
    return manifest, out, config
