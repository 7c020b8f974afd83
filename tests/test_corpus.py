from __future__ import annotations

import collections
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sermtl.corpus import (
    AGGREGATED_FRACTIONS,
    EMOTION_CLASSES,
    MANIFEST_HEADER,
    CorpusManifest,
    EmotionLabel,
    FoldError,
    GenderLabel,
    ManifestError,
    NaturalnessLabel,
    SynthConfig,
    UtteranceRecord,
    generate_synthetic,
    load_manifest,
    make_folds,
    merge_records,
    read_wav,
    read_wav_file,
    stratified_split,
    write_manifest,
    write_wav,
)
from sermtl.features import extract_features

from conftest import make_manifest, make_records, with_list_chunk


def _write_rows(path: Path, rows, header=None):
    lines = [",".join(header or MANIFEST_HEADER)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@st.composite
def _corpora(draw, max_corpora=4):
    """Manifests of 1 to ``max_corpora`` corpora of 1-4 speakers with 1-6
    utterances each, every label drawn."""
    manifests = []
    for c in range(draw(st.integers(1, max_corpora))):
        records = [
            UtteranceRecord(
                utterance_id=f"c{c}s{s}u{u}", audio_path=Path("/nonexistent.wav"),
                emotion=draw(st.sampled_from(EmotionLabel)), gender=draw(st.sampled_from(GenderLabel)),
                naturalness=draw(st.sampled_from(NaturalnessLabel)), speaker_id=f"c{c}s{s}", corpus_id=f"c{c}",
            )
            for s in range(draw(st.integers(1, 4))) for u in range(draw(st.integers(1, 6)))
        ]
        manifests.append(CorpusManifest(records=tuple(records)))
    return manifests


def _assert_partitions(folds, records):
    """Each fold's train, validation and test ids partition ``records``, the
    validation set is the 10% carve-out of the non-test pool, and across the
    folds every utterance is tested exactly once."""
    ids = sorted(r.utterance_id for r in records)
    for fold in folds:
        parts = fold.train_ids + fold.validation_ids + fold.test_ids
        assert sorted(parts) == ids
        pool = len(ids) - len(fold.test_ids)
        n_val = min(max(round(0.1 * pool), 1), pool - 1) if pool >= 2 else 0
        assert len(fold.validation_ids) == n_val
    assert sorted(uid for fold in folds for uid in fold.test_ids) == ids


def _touch_wavs(base: Path, names):
    for name in names:
        p = base / name
        p.parent.mkdir(parents=True, exist_ok=True)
        p.touch()


class TestManifest:
    def test_emodb_like_counts(self, tmp_path):
        # 293 utterances: 77/61/58/97 emotions, 160 female / 133 male, all acted, 10 speakers
        emotions = (
            ["neutral"] * 77 + ["happy"] * 61 + ["sad"] * 58 + ["angry"] * 97
        )
        rows = []
        for i, emo in enumerate(emotions):
            gender = "female_adult" if i < 160 else "male_adult"
            rows.append(
                (f"e{i:03d}", f"wav/e{i:03d}.wav", emo, gender, "acted", f"spk{i % 10}", "E")
            )
        _touch_wavs(tmp_path, [r[1] for r in rows])
        _write_rows(tmp_path / "manifest.csv", rows)
        manifest = load_manifest(tmp_path / "manifest.csv")
        records = manifest.records
        assert len(manifest) == 293
        assert manifest.corpora() == ("E",)
        assert collections.Counter(r.emotion.value for r in records) == {
            "neutral": 77, "happy": 61, "sad": 58, "angry": 97}
        assert collections.Counter(r.gender.value for r in records) == {
            "female_adult": 160, "male_adult": 133}
        assert collections.Counter(r.naturalness.value for r in records) == {"acted": 293}
        assert len({r.speaker_id for r in manifest.records}) == 10

    def test_unknown_emotion_label(self, tmp_path):
        _touch_wavs(tmp_path, ["a.wav"])
        _write_rows(tmp_path / "m.csv", [("u1", "a.wav", "bored", "male_adult", "acted", "s1", "c")])
        with pytest.raises(ManifestError, match="unknown emotion label"):
            load_manifest(tmp_path / "m.csv")

    @pytest.mark.parametrize("column", [0, 5, 6])  # utterance_id, speaker_id, corpus_id
    @pytest.mark.parametrize("value", [".", "..", "../x", "a/b", "a\\b"])
    def test_ids_that_name_paths_rejected(self, tmp_path, column, value):
        _touch_wavs(tmp_path, ["a.wav", "b.wav"])
        rows = [["u1", "a.wav", "happy", "male_adult", "acted", "s1", "c"],
                ["u2", "b.wav", "sad", "male_adult", "acted", "s1", "c"]]
        rows[1][column] = value
        _write_rows(tmp_path / "m.csv", rows)
        with pytest.raises(ManifestError, match=f"line 3: {MANIFEST_HEADER[column]} "):
            load_manifest(tmp_path / "m.csv")

    def test_duplicate_utterance_id(self, tmp_path):
        _touch_wavs(tmp_path, ["a.wav", "b.wav"])
        _write_rows(
            tmp_path / "m.csv",
            [
                ("u1", "a.wav", "happy", "male_adult", "acted", "s1", "c"),
                ("u1", "b.wav", "sad", "male_adult", "acted", "s1", "c"),
            ],
        )
        with pytest.raises(ManifestError, match="duplicate utterance_id"):
            load_manifest(tmp_path / "m.csv")

    def test_missing_column(self, tmp_path):
        (tmp_path / "m.csv").write_text(
            "utterance_id,audio_path,emotion,gender,naturalness,speaker_id\nu1,a.wav,happy,male_adult,acted,s1\n"
        )
        with pytest.raises(ManifestError, match="missing column"):
            load_manifest(tmp_path / "m.csv")

    def test_missing_audio_file(self, tmp_path):
        _write_rows(tmp_path / "m.csv", [("u1", "gone.wav", "happy", "male_adult", "acted", "s1", "c")])
        with pytest.raises(ManifestError, match="audio file not found"):
            load_manifest(tmp_path / "m.csv")

    def test_empty_manifest(self, tmp_path):
        _write_rows(tmp_path / "m.csv", [])
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "m.csv")

    @pytest.mark.parametrize("n_rows, line", [(5, 3), (300, 180)], ids=["under_8kb", "over_8kb"])
    def test_byte_that_is_not_utf8_named_by_its_line(self, tmp_path, n_rows, line):
        """A byte that is not UTF-8 is refused by the path and the line that
        holds it, in a manifest shorter than a text reader's 8 KB chunk and
        past the first chunk of a longer one."""
        rows = [(f"u{i:03d}", f"wav/u{i:03d}.wav", "happy", "male_adult", "acted", "s1", "c")
                for i in range(n_rows)]
        _touch_wavs(tmp_path, [r[1] for r in rows])
        path = tmp_path / "m.csv"
        _write_rows(path, rows)
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
        path.write_bytes(b"\n".join(lines))
        assert (path.read_bytes().index(b"\xff") > 8192) == (n_rows == 300)
        with pytest.raises(ManifestError) as raised:
            load_manifest(path)
        assert str(raised.value).startswith(f"{path}, line {line}: 'utf-8' codec can't decode byte 0xff")

    def test_write_then_load_is_identity(self, tmp_path):
        _touch_wavs(tmp_path, [f"w{i}.wav" for i in range(8)])
        records = [
            UtteranceRecord(
                utterance_id=f"u{i}",
                audio_path=(tmp_path / f"w{i}.wav").resolve(),
                emotion=list(EmotionLabel)[i % 4],
                gender=list(GenderLabel)[i % 4],
                naturalness=list(NaturalnessLabel)[i % 2],
                speaker_id=f"s{i % 3}",
                corpus_id="c",
            )
            for i in range(8)
        ]
        manifest = CorpusManifest(records=tuple(records))
        write_manifest(manifest, tmp_path / "m.csv")
        loaded = load_manifest(tmp_path / "m.csv")
        assert loaded.records == manifest.records


class TestSynthetic:
    def test_seeded_determinism(self, tmp_path):
        config = SynthConfig(n_corpora=1, speakers_per_corpus=2, utterances_per_speaker=4,
                             duration_s=0.5, seed=7)
        m1 = generate_synthetic(config, tmp_path / "a")
        m2 = generate_synthetic(config, tmp_path / "b")
        for r1, r2 in zip(m1.records, m2.records):
            assert r1.audio_path.read_bytes() == r2.audio_path.read_bytes()
        text_a = (tmp_path / "a" / "manifest.csv").read_text()
        text_b = (tmp_path / "b" / "manifest.csv").read_text()
        assert text_a == text_b

    def test_two_seeds_merge(self, tmp_path):
        """Utterance ids carry the seed, so two seeds' sets merge; corpus and
        speaker ids do not, and ids within a set stay in generation order."""
        config = SynthConfig(n_corpora=2, speakers_per_corpus=2, utterances_per_speaker=2,
                             duration_s=0.5, seed=7)
        sets = [generate_synthetic(replace(config, seed=seed), tmp_path / str(seed)) for seed in (7, 8)]
        merged = merge_records(sets)
        assert len({r.utterance_id for r in merged}) == 16
        for manifest in sets:
            ids = [r.utterance_id for r in manifest.records]
            assert ids == sorted(ids)
        assert sets[0].records[0].utterance_id == "seed7_c00_c00s00_u000"
        assert [(r.corpus_id, r.speaker_id) for r in sets[0].records] == [
            (r.corpus_id, r.speaker_id) for r in sets[1].records]

    def test_counting(self, tmp_path):
        config = SynthConfig(n_corpora=2, speakers_per_corpus=5, utterances_per_speaker=10,
                             duration_s=0.5, seed=1)
        manifest = generate_synthetic(config, tmp_path)
        assert len(manifest) == 100
        assert len(manifest.corpora()) == 2
        assert len({r.speaker_id for r in manifest.records}) == 10
        # each speaker's emotions go round-robin
        for speaker in {r.speaker_id for r in manifest.records}:
            emotions = [r.emotion for r in manifest.records if r.speaker_id == speaker]
            assert emotions == [EMOTION_CLASSES[i % 4] for i in range(10)]

    def test_f0_ordering_oracle(self, tmp_path):
        # extracted F0 of happy+angry exceeds neutral+sad within each speaker
        for seed in (3, 17):
            config = SynthConfig(n_corpora=1, speakers_per_corpus=4, utterances_per_speaker=8,
                                 duration_s=0.8, seed=seed)
            manifest = generate_synthetic(config, tmp_path / f"s{seed}")
            per_speaker = collections.defaultdict(dict)
            for rec in manifest.records:
                samples, _ = read_wav(rec.audio_path)
                matrix = extract_features(samples)
                voiced = matrix[:, 0] > 0
                per_speaker[rec.speaker_id].setdefault(rec.emotion.value, []).append(
                    float(matrix[voiced, 0].mean())
                )
            for speaker, means in per_speaker.items():
                mean = {k: np.mean(v) for k, v in means.items()}
                high = (mean["happy"] + mean["angry"]) / 2
                low = (mean["neutral"] + mean["sad"]) / 2
                assert high > low, (seed, speaker, mean)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_corpora=0)
        with pytest.raises(ValueError):
            SynthConfig(duration_s=0.4)


class TestFolds:
    @settings(max_examples=50, deadline=None)
    @given(manifests=_corpora(max_corpora=1), seed=st.integers(0, 2**32 - 1))
    def test_loso_fold_count_and_coverage(self, manifests, seed):
        folds = make_folds(manifests, "within", seed=seed)
        records = manifests[0].records
        assert [f.test_group for f in folds] == sorted({r.speaker_id for r in records})
        for fold in folds:
            assert sorted(fold.test_ids) == sorted(r.utterance_id for r in records
                                                   if r.speaker_id == fold.test_group)
        _assert_partitions(folds, records)

    def test_fold_disjointness_and_validation_source(self):
        manifest = make_manifest(40, speakers=5)
        folds = make_folds([manifest], "within", seed=3)
        _assert_partitions(folds, manifest.records)
        assert all(fold.validation_ids for fold in folds)

    @settings(max_examples=50, deadline=None)
    @given(manifests=_corpora(), seed=st.integers(0, 2**32 - 1),
           group_key=st.sampled_from(["corpus", "corpus_naturalness"]))
    def test_loco_never_leaks_the_test_group(self, manifests, seed, group_key):
        records = [r for m in manifests for r in m.records]
        group_of = {r.utterance_id: r.corpus_id if group_key == "corpus"
                    else f"{r.corpus_id}:{r.naturalness.value}" for r in records}
        groups = sorted(set(group_of.values()))
        if len(groups) < 2:
            with pytest.raises(FoldError, match="at least two groups"):
                make_folds(manifests, "cross", group_key=group_key, seed=seed)
            return
        folds = make_folds(manifests, "cross", group_key=group_key, seed=seed)
        assert [f.test_group for f in folds] == groups
        for fold in folds:
            assert {group_of[uid] for uid in fold.test_ids} == {fold.test_group}
            assert fold.test_group not in {group_of[uid] for uid in fold.train_ids + fold.validation_ids}
        _assert_partitions(folds, records)

    def test_loco_six_groups(self):
        # four acted-only corpora plus one mixed corpus that splits by
        # naturalness: six test groups in total
        acted = [NaturalnessLabel.ACTED] * 12
        manifests = [
            make_manifest(12, corpus_id=c, prefix=f"{c}_", naturalness=acted)
            for c in ("A", "E", "F", "L")
        ]
        nat = [NaturalnessLabel.NATURAL] * 6 + [NaturalnessLabel.ACTED] * 6
        manifests.append(make_manifest(12, corpus_id="I", prefix="I_", naturalness=nat))
        folds = make_folds(manifests, "cross", group_key="corpus_naturalness", seed=0)
        groups = {fold.test_group for fold in folds}
        assert len(folds) == 6
        assert groups == {"A:acted", "E:acted", "F:acted", "L:acted", "I:natural", "I:acted"}

    def test_loco_plain_corpus_groups(self):
        manifests = [make_manifest(10, corpus_id=c, prefix=f"{c}_") for c in ("A", "B", "C")]
        folds = make_folds(manifests, "cross", seed=0)
        assert [f.test_group for f in folds] == ["A", "B", "C"]
        union = sorted(uid for f in folds for uid in f.test_ids)
        assert union == sorted(r.utterance_id for m in manifests for r in m.records)

    def test_loco_single_group_error(self):
        with pytest.raises(FoldError, match="at least two groups"):
            make_folds([make_manifest(10)], "cross", seed=0)
        with pytest.raises(FoldError, match="unknown group_key: 'speaker'"):
            make_folds([make_manifest(10)], "cross", group_key="speaker", seed=0)

    def test_protocols(self):
        manifest = make_manifest(40, speakers=5)
        assert make_folds([manifest], "aggregated", seed=4) == stratified_split([manifest], seed=4)
        with pytest.raises(FoldError, match="unknown protocol: 'loso'"):
            make_folds([manifest], "loso", seed=0)

    def test_speaker_in_two_corpora_error(self):
        import dataclasses

        a = make_records(4, corpus_id="A", prefix="a")
        b = make_records(4, corpus_id="B", prefix="b")
        shared = dataclasses.replace(b[0], speaker_id=a[0].speaker_id)
        manifest_a = CorpusManifest(records=tuple(a))
        manifest_b = CorpusManifest(records=(shared,) + tuple(b[1:]))
        with pytest.raises(FoldError, match="appears in corpora"):
            make_folds([manifest_a, manifest_b], "cross", seed=0)

    def test_loso_requires_single_manifest(self):
        manifests = [make_manifest(8, corpus_id="A", prefix="a"), make_manifest(8, corpus_id="B", prefix="b")]
        with pytest.raises(FoldError, match="exactly one manifest"):
            make_folds(manifests, "within", seed=0)


class TestStratifiedSplit:
    @settings(max_examples=60, deadline=None)
    @given(emotions=st.lists(st.sampled_from(EmotionLabel), min_size=10, max_size=400),
           seed=st.integers(0, 2**32 - 1))
    @example(emotions=list(EmotionLabel) * 250, seed=0)
    def test_sizes_exact(self, emotions, seed):
        """Partition sizes are the largest-remainder rounding of n *
        `AGGREGATED_FRACTIONS`: within one of n * fraction each, summing to n,
        the ids partitioned."""
        n = len(emotions)
        manifest = make_manifest(n, emotions=emotions, speakers=7)
        fold = stratified_split([manifest], seed=seed)[0]
        sizes = (len(fold.train_ids), len(fold.validation_ids), len(fold.test_ids))
        assert sum(sizes) == n
        assert all(abs(size - n * f) < 1 for size, f in zip(sizes, AGGREGATED_FRACTIONS))
        assert sorted(fold.train_ids + fold.validation_ids + fold.test_ids) == sorted(
            r.utterance_id for r in manifest.records)

    def test_seeded_determinism(self):
        manifest = make_manifest(200, speakers=10)
        a = stratified_split([manifest], seed=5)[0]
        b = stratified_split([manifest], seed=5)[0]
        assert a == b
        c = stratified_split([manifest], seed=6)[0]
        assert a != c

    def test_emotion_histogram_within_two_points(self):
        # unbalanced class mix: proportions per partition stay within 2pp of global
        emotions = (
            [EmotionLabel.NEUTRAL] * 430 + [EmotionLabel.HAPPY] * 260
            + [EmotionLabel.SAD] * 190 + [EmotionLabel.ANGRY] * 120
        )
        manifest = make_manifest(1000, emotions=emotions, speakers=25)
        by_id = {r.utterance_id: r.emotion for r in manifest.records}
        global_hist = np.array([430, 260, 190, 120]) / 1000.0
        fold = stratified_split([manifest], seed=9)[0]
        for ids in (fold.train_ids, fold.validation_ids, fold.test_ids):
            counts = collections.Counter(by_id[u] for u in ids)
            hist = np.array([counts[e] for e in EmotionLabel]) / len(ids)
            assert np.max(np.abs(hist - global_hist)) <= 0.02 + 1e-12

    def test_too_few_utterances(self):
        with pytest.raises(FoldError, match="at least 10"):
            stratified_split([make_manifest(9)], seed=0)


class TestWavFile:
    @pytest.fixture()
    def wav(self, tmp_path):
        samples = np.sin(np.arange(1000) / 7.0) * 0.5
        write_wav(tmp_path / "a.wav", samples)
        return tmp_path / "a.wav"

    def test_samples_and_digest_come_from_the_bytes(self, wav):
        data = wav.read_bytes()
        read = read_wav_file(wav)
        assert (read.data, read.rate, read.n_samples, read.start) == (data, 16000, 1000, 44)
        assert read.digest() == hashlib.blake2b(data, digest_size=32).hexdigest()
        samples, _ = read_wav(wav)
        assert read.samples().tobytes() == samples.tobytes()
        assert samples.tobytes() == (np.frombuffer(data[44:], "<i2") / 32768.0).tobytes()

    def test_a_chunk_before_the_data_moves_the_samples(self, wav, tmp_path):
        (tmp_path / "b.wav").write_bytes(with_list_chunk(wav.read_bytes(), 10))
        read = read_wav_file(tmp_path / "b.wav")
        assert (read.n_samples, read.start) == (1000, 62)
        assert read.samples().tobytes() == read_wav_file(wav).samples().tobytes()

    @pytest.mark.parametrize("damage, named", [
        (lambda data: b"RIFX" + data[4:], "not a readable WAV (file does not start with RIFF id)"),
        (lambda data: data[:20], "not a readable WAV (file ends early)"),
        (lambda data: b"", "not a readable WAV (file ends early)"),
        (lambda data: data[:-2], "data chunk holds 999 of the 1000 samples its header gives"),
        (lambda data: data[:22] + b"\x02" + data[23:], "expected mono PCM16 WAV"),
    ], ids=["not_riff", "cut_header", "empty", "cut_data", "stereo"])
    def test_refused_by_path(self, wav, damage, named):
        wav.write_bytes(damage(wav.read_bytes()))
        with pytest.raises(ManifestError) as refused:
            read_wav_file(wav)
        assert str(refused.value) == f"{named}: {wav}"
