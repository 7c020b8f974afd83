from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

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
    "elm": ["--hlf", "h", "--eval", "e", "--out", "o"],
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


TEXT_DAMAGE = ("truncate", "drop_line", "add_line", "drop_field", "add_field", "edit_header")


def damage_text(draw, data: bytes, kinds=TEXT_DAMAGE) -> tuple[bytes, int | None]:
    """The ASCII text ``data`` damaged by one of ``kinds``, and the line (1-based)
    whose contents it changed, if one: cut short, a line dropped or repeated
    elsewhere, a comma-separated field of a line dropped or repeated, a byte of
    the first line replaced, or (``non_utf8``) a byte that is not UTF-8 inserted."""
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))], None
    if kind == "non_utf8":
        at = draw(st.integers(0, len(data)))
        return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:], data.count(b"\n", 0, at) + 1
    lines = data.decode("utf-8").splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop_line":
        del lines[i]
    elif kind == "add_line":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind == "edit_header":
        at = draw(st.integers(0, len(lines[0]) - 1))
        lines[0] = lines[0][:at] + draw(st.characters(min_codepoint=32, max_codepoint=126)) + lines[0][at + 1 :]
        i = 0
    else:
        fields = lines[i].split(",")
        k = draw(st.integers(0, len(fields) - 1))
        if kind == "drop_field":
            del fields[k]
        else:
            fields.insert(k, fields[k])
        lines[i] = ",".join(fields)
    changed = i + 1 if kind in ("drop_field", "add_field", "edit_header") else None
    return ("\n".join(lines) + "\n").encode("utf-8"), changed


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    """A small deterministic corpus set reused across tests: 2 corpora x 3 speakers x 8 utts."""
    out = tmp_path_factory.mktemp("synth_small")
    config = SynthConfig(n_corpora=2, speakers_per_corpus=3, utterances_per_speaker=8,
                         duration_s=0.8, seed=21)
    manifest = generate_synthetic(config, out)
    return manifest, out, config
