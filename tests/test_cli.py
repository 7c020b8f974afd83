from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from sermtl import experiment, nn
from sermtl.cli import build_parser, main
from sermtl.codec import from_dict
from sermtl.corpus import (
    CorpusManifest,
    ManifestError,
    SynthConfig,
    load_manifest,
    read_wav,
    stratified_split,
    write_manifest,
    write_wav,
)
from sermtl.elm import ELMConfig
from sermtl.experiment import (
    ExperimentReport,
    FoldResult,
    PipelineConfig,
    extract_feature_cache,
    fit_fold,
    record_features,
)
from sermtl.features import apply_standardizer, load_store
from sermtl.hlf import HLF_DIM, compute_hlf, read_hlf_csv, write_hlf_csv
from sermtl.mtl import MTLNetworkConfig, TrainConfig, load_model, posteriors_in_blocks
from sermtl.tsne import TsneConfig

from checkpoint_file import read_checkpoint
from conftest import COMMAND_REQUIRED_FLAGS, make_records


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One synthetic corpus + a trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main([
        "synth", "--out", str(data), "--seed", "9",
        "--corpora", "2", "--speakers", "3", "--utts", "8", "--duration", "0.8",
    ])
    assert rc == 0
    run = root / "train_run"
    rc = main([
        "train", "--manifest", str(data / "manifest.csv"), "--out", str(run),
        "--trunk", "lstm", "--layer-sizes", "8,8", "--subtasks", "all",
        "--max-epochs", "3", "--patience", "2", "--seed", "3",
    ])
    assert rc == 0
    hlf_csv = root / "hlf.csv"
    rc = main([
        "hlf", "--model", str(run / "model.ckpt"),
        "--manifest", str(data / "manifest.csv"), "--out", str(hlf_csv),
    ])
    assert rc == 0
    return root, data, run, hlf_csv


class TestSynth:
    def test_outputs_and_determinism(self, tmp_path):
        args = ["--seed", "5", "--corpora", "1", "--speakers", "2", "--utts", "4",
                "--duration", "0.5"]
        assert main(["synth", "--out", str(tmp_path / "a")] + args) == 0
        assert main(["synth", "--out", str(tmp_path / "b")] + args) == 0
        tree_a = _tree_bytes(tmp_path / "a")
        tree_b = _tree_bytes(tmp_path / "b")
        assert tree_a == tree_b
        manifest = load_manifest(tmp_path / "a" / "manifest.csv")
        assert len(manifest) == 8
        assert (tmp_path / "a" / "config.json").exists()

    def test_config_decodes_as_synth_config(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "3", "--corpora", "1",
                     "--speakers", "1", "--utts", "1", "--duration", "0.5"]) == 0
        payload = json.loads((tmp_path / "config.json").read_text())
        assert payload.pop("command") == "synth"
        assert from_dict(SynthConfig, payload) == SynthConfig(
            n_corpora=1, speakers_per_corpus=1, utterances_per_speaker=1, duration_s=0.5, seed=3)


class TestFeatures:
    """The feature store `train --out` writes, the one writer of the format."""

    def test_extracts_and_indexes(self, cli_workspace):
        _, data, run, _ = cli_workspace
        assert sorted(p.name for p in run.iterdir()) == [
            "config.json", "features.npy", "features_index.csv", "history.csv", "model.ckpt"]
        manifest = load_manifest(data / "manifest.csv")
        (fold,) = stratified_split([manifest], seed=3)
        used = set(fold.train_ids) | set(fold.validation_ids)
        records = [r for r in manifest.records if r.utterance_id in used]
        index = (run / "features_index.csv").read_text().splitlines()
        assert index[0] == "utterance_id,offset,n_frames,wav_bytes,wav_blake2b"
        assert len(index) == 1 + len(records) == 44  # header + the 43 training and validation utterances
        store = load_store(run)
        assert store.ids == tuple(r.utterance_id for r in records)
        assert store.matrix.shape == (int(store.lengths.sum()), 32)
        assert np.array_equal(store.starts, np.cumsum(store.lengths) - store.lengths)
        wavs = [r.audio_path.read_bytes() for r in records]
        assert store.wavs == tuple((len(b), hashlib.blake2b(b, digest_size=32).hexdigest()) for b in wavs)
        for i in (0, len(records) - 1):
            want = record_features(records[i])
            assert store.rows(i).tobytes() == want.tobytes()

    def test_ids_cannot_name_files_outside_out(self, cli_workspace, tmp_path, capsys):
        """An utterance id that climbs out of --out is refused before anything is written."""
        _, data, _, _ = cli_workspace
        manifest = load_manifest(data / "manifest.csv")
        records = (replace(manifest.records[0], utterance_id="../../escaped"),) + manifest.records[1:]
        path = write_manifest(CorpusManifest(records=records), tmp_path / "m" / "manifest.csv")
        out = tmp_path / "a" / "b" / "out"
        rc = main(["train", "--manifest", str(path), "--out", str(out), "--layer-sizes", "4,4",
                   "--max-epochs", "2", "--patience", "1"])
        assert rc == 1
        assert "line 2: utterance_id '../../escaped'" in capsys.readouterr().err
        written = [p for p in tmp_path.rglob("*") if p.is_file() and p != path]
        assert all(out in p.parents for p in written), written


class TestTrainAndHlf:
    def test_artifacts(self, cli_workspace):
        root, _, run, hlf_csv = cli_workspace
        assert (run / "model.ckpt").exists()
        assert (run / "history.csv").read_text().startswith("epoch,train_emotion")
        assert (run / "config.json").exists()
        ids, matrix, labels = read_hlf_csv(hlf_csv)
        assert len(ids) == 48
        assert matrix.shape == (48, 16)

    def test_training_is_reproducible(self, cli_workspace, tmp_path):
        _, data, run, _ = cli_workspace
        rerun = tmp_path / "train_again"
        rc = main([
            "train", "--manifest", str(data / "manifest.csv"), "--out", str(rerun),
            "--trunk", "lstm", "--layer-sizes", "8,8", "--subtasks", "all",
            "--max-epochs", "3", "--patience", "2", "--seed", "3",
        ])
        assert rc == 0
        assert (rerun / "model.ckpt").read_bytes() == (run / "model.ckpt").read_bytes()
        assert (rerun / "history.csv").read_text() == (run / "history.csv").read_text()


    def test_reads_no_test_split_audio(self, cli_workspace, tmp_path):
        _, data, run, _ = cli_workspace
        manifest = load_manifest(data / "manifest.csv")
        test_ids = set(stratified_split([manifest], seed=3)[0].test_ids)
        samples, sr = read_wav(manifest.records[0].audio_path)
        write_wav(tmp_path / "slow.wav", samples[::2], sample_rate=sr // 2)  # fails the rate check
        records = tuple(replace(r, audio_path=tmp_path / "slow.wav") if r.utterance_id in test_ids
                        else r for r in manifest.records)
        path = write_manifest(CorpusManifest(records=records), tmp_path / "manifest.csv")
        rc = main([
            "train", "--manifest", str(path), "--out", str(tmp_path / "run"),
            "--trunk", "lstm", "--layer-sizes", "8,8", "--subtasks", "all",
            "--max-epochs", "3", "--patience", "2", "--seed", "3",
        ])
        assert rc == 0
        assert (tmp_path / "run" / "model.ckpt").read_bytes() == (run / "model.ckpt").read_bytes()
        split = json.loads((tmp_path / "run" / "config.json").read_text())["split"]
        assert split["test"] == len(test_ids)


    def test_dnn_default_layer_sizes(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        out = tmp_path / "dnn_run"
        rc = main(["train", "--manifest", str(data / "manifest.csv"), "--out", str(out),
                   "--trunk", "dnn", "--max-epochs", "2", "--patience", "1", "--seed", "3"])
        assert rc == 0
        network = json.loads((out / "config.json").read_text())["network"]
        assert network["layer_sizes"] == [256, 256, 256]
        assert network["context_frames"] == 25

    def test_hlf_blocks_match_per_utterance(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        run = tmp_path / "run"
        rc = main(["train", "--manifest", str(data / "manifest.csv"), "--out", str(run),
                   "--trunk", "lstm", "--layer-sizes", "8,8", "--batch-size", "4",
                   "--max-epochs", "2", "--patience", "1", "--seed", "3"])
        assert rc == 0
        manifest = CorpusManifest(records=load_manifest(data / "manifest.csv").records[:10])
        manifest_path = write_manifest(manifest, tmp_path / "manifest.csv")
        rc = main(["hlf", "--model", str(run / "model.ckpt"), "--manifest", str(manifest_path),
                   "--out", str(tmp_path / "hlf.csv")])  # blocks of 4, 4 and 2 utterances
        assert rc == 0
        ids, matrix, _ = read_hlf_csv(tmp_path / "hlf.csv")
        model, _, standardizer = load_model(run / "model.ckpt")
        assert ids == [r.utterance_id for r in manifest.records]
        for rec, row in zip(manifest.records, matrix):
            feats = record_features(rec)
            post = model.emotion_posteriors(feats, [len(feats)], standardizer)[0]
            np.testing.assert_allclose(row, compute_hlf(post), rtol=0, atol=1e-12)


    def test_hlf_scores_like_the_trained_model(self, cli_workspace, monkeypatch):
        """`hlf` standardizes with the checkpoint's statistics exactly as the fold that
        trained the model did, so its posteriors are the in-memory model's, bit for bit."""
        _, data, run, hlf_csv = cli_workspace
        manifest = load_manifest(data / "manifest.csv")
        saved = json.loads((run / "config.json").read_text())
        training = from_dict(TrainConfig, saved["training"])
        trained_on, train = [], experiment.train

        def recording_train(model, train_data, *rest):
            trained_on.append(train_data)  # its matrix is the whole standardized store
            return train(model, train_data, *rest)

        monkeypatch.setattr(experiment, "train", recording_train)
        # the fold `train` fit, refit in memory; every utterance is standardized with its statistics
        (fold,) = stratified_split([manifest], seed=saved["seed"])
        store = extract_feature_cache(manifest.records)
        trained, fold_standardizer = fit_fold(fold, store, from_dict(MTLNetworkConfig, saved["network"]),
                                              training)
        [fold_data] = trained_on
        model, training_read, standardizer = load_model(run / "model.ckpt")
        assert training_read == training
        assert np.array_equal(standardizer.mean, fold_standardizer.mean)
        assert np.array_equal(standardizer.std, fold_standardizer.std)
        # the fold trained on float64 standardization rounded to float32
        want = apply_standardizer(standardizer, store.matrix).astype(np.float32)
        assert fold_data.matrix.tobytes() == want.tobytes()
        ids = [r.utterance_id for r in manifest.records]
        size = training.batch_size
        blocks = [store.select(range(i, min(i + size, len(store)))) for i in range(0, len(store), size)]
        in_memory = list(posteriors_in_blocks(trained.model, blocks, fold_standardizer))
        reloaded = posteriors_in_blocks(model, blocks, standardizer)
        for uid, want, got in zip(ids, in_memory, reloaded):
            assert np.array_equal(got, want), uid
        csv_ids, matrix, _ = read_hlf_csv(hlf_csv)
        assert csv_ids == ids
        assert np.array_equal(matrix, np.stack([compute_hlf(p) for p in in_memory]))


class TestStoreBesideTheModel:
    """`train` writes the store it trained from beside its model, and `hlf`
    copies from it the rows of every utterance whose WAV is unchanged, so its
    table is the one it writes without the store."""

    @pytest.fixture(scope="class", params=["lstm", "dnn"])
    def trained(self, request, cli_workspace, tmp_path_factory):
        """A copy of the corpus, a model trained on it with its store, and a
        directory holding the model alone."""
        _, data, _, _ = cli_workspace
        root = tmp_path_factory.mktemp(f"store_{request.param}")
        shutil.copytree(data, root / "data")
        manifest, run, bare = root / "data" / "manifest.csv", root / "run", root / "bare"
        assert main(["train", "--manifest", str(manifest), "--out", str(run), "--trunk", request.param,
                     "--layer-sizes", "8,8", "--max-epochs", "2", "--patience", "1", "--seed", "3"]) == 0
        bare.mkdir()
        shutil.copy(run / "model.ckpt", bare / "model.ckpt")
        return manifest, run, bare

    @staticmethod
    def _hlf(model, manifest, out, monkeypatch) -> list[str]:
        """Run `hlf` and return the ids of the utterances it extracted."""
        extracted, record_features = [], experiment.record_features

        def counting(rec, *args, **kwargs):
            extracted.append(rec.utterance_id)
            return record_features(rec, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(experiment, "record_features", counting)
            assert main(["hlf", "--model", str(model), "--manifest", str(manifest), "--out", str(out)]) == 0
        return extracted

    def test_train_writes_the_store_it_trained_from(self, trained):
        manifest, run, _ = trained
        (fold,) = stratified_split([load_manifest(manifest)], seed=3)
        records = [r for r in load_manifest(manifest).records
                   if r.utterance_id in set(fold.train_ids) | set(fold.validation_ids)]
        saved = load_store(run)
        store = extract_feature_cache(records)
        assert saved.ids == store.ids and saved.wavs == store.wavs
        assert saved.matrix.tobytes() == store.matrix.tobytes()

    def test_hlf_takes_the_rows_of_unchanged_wavs(self, trained, tmp_path, capsys, monkeypatch):
        manifest, run, bare = trained
        test_ids = stratified_split([load_manifest(manifest)], seed=3)[0].test_ids
        with_store = self._hlf(run / "model.ckpt", manifest, tmp_path / "with.csv", monkeypatch)
        assert (f"took the feature rows of {48 - len(test_ids)} of 48 utterances from "
                f"{run / 'features.npy'}") in capsys.readouterr().out
        without = self._hlf(bare / "model.ckpt", manifest, tmp_path / "without.csv", monkeypatch)
        assert "took" not in capsys.readouterr().out
        assert sorted(with_store) == sorted(test_ids)  # the test split is extracted
        assert len(without) == 48
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()

    def test_a_wav_rewritten_after_train_is_extracted_again(self, trained, tmp_path, monkeypatch):
        """One training WAV keeps its length and changes its samples, another
        loses its last 0.1 s: both are extracted again."""
        manifest, run, bare = trained
        shutil.copytree(manifest.parent, tmp_path / "data")
        records = load_manifest(tmp_path / "data" / "manifest.csv").records
        train_ids = stratified_split([load_manifest(manifest)], seed=3)[0].train_ids
        same_size, shorter = (r for r in records if r.utterance_id in train_ids[:2])
        samples, sr = read_wav(same_size.audio_path)
        write_wav(same_size.audio_path, samples * 0.5, sample_rate=sr)
        samples, sr = read_wav(shorter.audio_path)
        write_wav(shorter.audio_path, samples[:-1600], sample_rate=sr)
        path = tmp_path / "data" / "manifest.csv"
        extracted = self._hlf(run / "model.ckpt", path, tmp_path / "with.csv", monkeypatch)
        test_ids = stratified_split([load_manifest(manifest)], seed=3)[0].test_ids
        assert sorted(extracted) == sorted([*test_ids, same_size.utterance_id, shorter.utterance_id])
        self._hlf(bare / "model.ckpt", path, tmp_path / "without.csv", monkeypatch)
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()

    @pytest.mark.parametrize("damage", ["truncated_matrix", "bad_index_line", "no_index"])
    def test_a_malformed_store_is_refused_by_name(self, trained, tmp_path, capsys, damage):
        manifest, run, _ = trained
        shutil.copytree(run, tmp_path / "run")
        matrix, index = tmp_path / "run" / "features.npy", tmp_path / "run" / "features_index.csv"
        if damage == "truncated_matrix":
            matrix.write_bytes(matrix.read_bytes()[:-1000])
            named = matrix
        elif damage == "bad_index_line":
            lines = index.read_text().splitlines()
            lines[3] = lines[3].rsplit(",", 1)[0]
            index.write_text("\n".join(lines) + "\n")
            named = f"{index}, line 4"
        else:
            index.unlink()
            named = index
        out = tmp_path / "hlf.csv"
        assert main(["hlf", "--model", str(tmp_path / "run" / "model.ckpt"), "--manifest", str(manifest),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err
        assert not out.exists()


class TestElm:
    def test_fit_and_eval(self, cli_workspace, tmp_path, capsys):
        """`elm` fits on ``--hlf``, scores ``--eval`` and writes one JSON record
        of its settings and scores to ``--out``, and no other file."""
        _, _, _, hlf_csv = cli_workspace
        out = tmp_path / "elm.json"
        rc = main(["elm", "--hlf", str(hlf_csv), "--out", str(out),
                   "--eval", str(hlf_csv), "--n-hidden", "32", "--seed", "1"])
        assert rc == 0
        captured = capsys.readouterr().out
        record = json.loads(out.read_text())
        assert record == {"command": "elm", "hlf": str(hlf_csv.resolve()), "eval": str(hlf_csv.resolve()),
                          **asdict(ELMConfig(n_hidden=32, seed=1)), "n_eval": 48, "ua": record["ua"],
                          "confusion": record["confusion"]}
        assert captured.splitlines()[1:] == [
            f"eval UA over 48 utterances: {record['ua']:.4f}", "confusion (rows true, cols predicted):",
            *("  " + " ".join(f"{v:5d}" for v in row) for row in record["confusion"])]
        assert sum(map(sum, record["confusion"])) == 48
        assert list(tmp_path.iterdir()) == [out]

    def test_needs_an_eval_table(self, cli_workspace, tmp_path, capsys):
        _, _, _, hlf_csv = cli_workspace
        out = tmp_path / "elm.json"
        assert main(["elm", "--hlf", str(hlf_csv), "--out", str(out)]) == 2
        assert "the following arguments are required: --eval" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_fit_leaves_no_out(self, cli_workspace, tmp_path, capsys):
        _, _, _, hlf_csv = cli_workspace
        table = tmp_path / "three.csv"
        table.write_text("".join(hlf_csv.read_text().splitlines(keepends=True)[:4]))
        out = tmp_path / "elm.json"
        assert main(["elm", "--hlf", str(table), "--eval", str(hlf_csv), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {table}: need at least 4 training rows, got 3\n"
        assert not out.exists()


class TestTrunkSwitch:
    """`xval --config` with another `--trunk`, `xval --grid` and
    `MTLNetworkConfig.with_trunk` switch a network's trunk by one rule: the
    new trunk's context width, and its default sizes only in place of the old
    trunk's defaults."""

    @pytest.mark.parametrize("sizes, want", [((), {"dnn": (256, 256, 256), "lstm": (256, 256)}),
                                             ((32, 32), {"dnn": (32, 32), "lstm": (32, 32)})],
                             ids=["default", "custom"])
    @pytest.mark.parametrize("trunk", ["dnn", "lstm"])
    def test_every_route_gives_the_same_network(self, cli_workspace, tmp_path, monkeypatch,
                                                sizes, want, trunk):
        _, data, _, _ = cli_workspace
        base = MTLNetworkConfig(trunk="lstm", layer_sizes=sizes)
        config_path = tmp_path / "run" / "config.json"
        config_path.parent.mkdir()
        config_path.write_text(json.dumps({"pipeline": asdict(PipelineConfig(network=base))}))

        def stop(*args, **kwargs):
            raise RuntimeError("stopped before training")

        monkeypatch.setattr(experiment, "run_experiment", stop)
        out = tmp_path / "replayed"
        assert main(["xval", "--manifest", str(data / "manifest.csv"), "--config", str(config_path),
                     "--trunk", trunk, "--out", str(out)]) == 1
        replayed = from_dict(MTLNetworkConfig, json.loads((out / "config.json").read_text())["pipeline"]["network"])
        in_grid = experiment.grid_networks(base)[experiment.grid_config_name(trunk, base.subtask_mode)]
        assert replayed == in_grid == base.with_trunk(trunk)
        assert replayed.layer_sizes == want[trunk]
        assert replayed.context_frames == (25 if trunk == "dnn" else 1)
        assert (base.with_trunk(trunk) is base) == (trunk == base.trunk)


class TestXval:
    def test_cross_run_and_config_replay(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        out1 = tmp_path / "xval1"
        base_args = [
            "xval", "--manifest", str(data / "manifest.csv"),
            "--protocol", "cross", "--trunk", "lstm", "--subtasks", "all",
            "--layer-sizes", "8,8", "--max-epochs", "2", "--patience", "1",
            "--seed", "4",
        ]
        rc = main(base_args + ["--out", str(out1)])
        assert rc == 0
        report = json.loads((out1 / "report.json").read_text())
        assert len(report["folds"]) == 2
        assert report["mean_ua"] is not None
        # replay from the emitted config file alone
        out2 = tmp_path / "xval2"
        rc = main(["xval", "--manifest", str(data / "manifest.csv"),
                   "--config", str(out1 / "config.json"), "--out", str(out2)])
        assert rc == 0
        assert (out2 / "report.json").read_bytes() == (out1 / "report.json").read_bytes()

    def test_two_seeds_sets_run_together(self, tmp_path):
        """A training set and a held-out set made with different seeds (as
        for `hlf` on held-out data) run as one `xval` over both manifests."""
        synth = ["--corpora", "2", "--speakers", "2", "--utts", "4", "--duration", "0.5"]
        for name, seed in (("train", "1"), ("heldout", "2")):
            assert main(["synth", "--out", str(tmp_path / name), "--seed", seed, *synth]) == 0
        out = tmp_path / "xval"
        assert main(["xval", "--manifest", str(tmp_path / "train" / "manifest.csv"),
                     "--manifest", str(tmp_path / "heldout" / "manifest.csv"), "--out", str(out),
                     "--protocol", "cross", "--trunk", "dnn", "--layer-sizes", "8", "--subtasks", "none",
                     "--max-epochs", "2", "--patience", "1", "--window-stride", "3"]) == 0
        folds = json.loads((out / "report.json").read_text())["folds"]
        assert [(f["test_group"], f["n_test"], f["error"]) for f in folds] == [("c00", 16, None), ("c01", 16, None)]

    def test_config_replay_keeps_every_field(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        saved = PipelineConfig(
            protocol="aggregated",
            network=MTLNetworkConfig(trunk="dnn", layer_sizes=(8,), context_frames=11),
            training=TrainConfig(max_epochs=2, patience=1, dnn_window_stride=4),
        )
        config_path = tmp_path / "saved.json"
        config_path.write_text(json.dumps({"pipeline": asdict(saved)}))
        out = tmp_path / "replayed"
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--config", str(config_path),
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        pipeline = json.loads((out / "config.json").read_text())["pipeline"]
        assert pipeline["protocol"] == "aggregated"
        assert pipeline["network"]["context_frames"] == 11
        # a given flag overrides its field alone
        assert pipeline["seed"] == 5 and pipeline["training"]["seed"] == 5
        assert pipeline["training"]["dnn_window_stride"] == 4
        report = json.loads((out / "report.json").read_text())
        assert report["folds"][0]["n_train"] == 38  # 0.8 of 48 utterances

    @pytest.mark.parametrize("section, key", [(None, "hlf_thetta"), ("network", "context_frame"),
                                              (None, "features"), (None, "hlf_theta"),
                                              (None, "fractions"), ("network", "n_features"),
                                              ("training", "clip_norm")])
    def test_config_unknown_key_rejected(self, cli_workspace, tmp_path, capsys, section, key):
        _, data, _, _ = cli_workspace
        pipeline = asdict(PipelineConfig())
        (pipeline if section is None else pipeline[section])[key] = 1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"pipeline": pipeline}))
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: ") and f"unknown key {key!r}" in err

    def test_config_without_pipeline_named(self, cli_workspace, tmp_path, capsys):
        _, data, run, _ = cli_workspace
        config_path = run / "config.json"  # written by train: no pipeline section
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{config_path} has no 'pipeline' section" in capsys.readouterr().err

    def test_dropout_one_rejected_before_extraction(self, cli_workspace, tmp_path, capsys):
        _, data, _, _ = cli_workspace
        out = tmp_path / "out"
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--out", str(out),
                   "--dropout", "1.0"])
        assert rc == 1
        assert "dropout_p must be in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_grid_exits_one_and_names_each_failed_fold(self, cli_workspace, tmp_path, capsys):
        _, data, _, _ = cli_workspace
        out = tmp_path / "grid"
        with np.errstate(all="ignore"):
            rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--out", str(out), "--grid",
                       "--layer-sizes", "4,4", "--max-epochs", "2", "--patience", "1", "--lr", "1e150"])
        assert rc == 1
        errors = json.loads((out / "grid_report.json").read_text())["errors"]
        failed = [f"{name} {line}" for name, lines in errors.items() for line in lines]
        assert len(failed) == 16  # every fold of all 8 configurations diverges
        assert sorted(capsys.readouterr().err.splitlines()) == sorted(f"  FAILED {line}" for line in failed)

    def test_within_with_corpus_filter(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        out = tmp_path / "within"
        rc = main([
            "xval", "--manifest", str(data / "manifest.csv"), "--out", str(out),
            "--protocol", "within", "--corpus", "c00", "--trunk", "lstm",
            "--subtasks", "none", "--layer-sizes", "8,8",
            "--max-epochs", "2", "--patience", "1", "--seed", "4",
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 3

    @pytest.mark.parametrize("protocol", ["cross", "aggregated", "saved cross"])
    def test_corpus_outside_within_rejected(self, cli_workspace, tmp_path, capsys, protocol):
        """--corpus restricts the within protocol only; with another protocol,
        given by flag or by --config, it is refused by name before anything is
        written."""
        _, data, _, _ = cli_workspace
        if protocol == "saved cross":
            config_path = tmp_path / "saved.json"
            config_path.write_text(json.dumps({"pipeline": asdict(PipelineConfig(protocol="cross"))}))
            args, protocol = ["--config", str(config_path)], "cross"
        else:
            args = ["--protocol", protocol]
        out = tmp_path / "out"
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--out", str(out),
                   "--corpus", "c00", *args])
        assert rc == 1
        assert f"--corpus applies to --protocol within only, not {protocol!r}" in capsys.readouterr().err
        assert not out.exists()


class TestEmbedAndReport:
    def test_embed_csv_and_svg(self, cli_workspace, tmp_path):
        _, _, _, hlf_csv = cli_workspace
        out_csv = tmp_path / "embedding.csv"
        out_svg = tmp_path / "embedding.svg"
        rc = main(["embed", "--input", str(hlf_csv), "--out", str(out_csv),
                   "--seed", "3", "--perplexity", "8", "--iters", "150",
                   "--svg", str(out_svg)])
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "utterance_id,x,y,emotion,gender,naturalness,corpus_id"
        assert len(lines) == 49
        assert out_svg.read_text().count("<circle") == 48

    def test_embed_deterministic(self, cli_workspace, tmp_path):
        _, _, _, hlf_csv = cli_workspace
        outs = []
        for name in ("e1.csv", "e2.csv"):
            out = tmp_path / name
            rc = main(["embed", "--input", str(hlf_csv), "--out", str(out),
                       "--seed", "3", "--perplexity", "8", "--iters", "120"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_too_few_points_names_the_largest_perplexity(self, tmp_path, capsys):
        """`synth`'s default corpus (64 utterances) is too small for `embed`'s
        default perplexity (30); the refusal names the largest that fits, which works."""
        records = make_records(64)
        vectors = np.random.default_rng(0).normal(size=(len(records), HLF_DIM))
        table = write_hlf_csv(tmp_path / "hlf.csv", ((r.utterance_id, v, r) for r, v in zip(records, vectors)))
        assert main(["embed", "--input", str(table), "--out", str(tmp_path / "e.csv")]) == 1
        assert capsys.readouterr().err == (f"error: {table}: need at least 3*perplexity=90 points, got 64; "
                                           "a perplexity of at most 21 fits them\n")
        assert main(["embed", "--input", str(table), "--out", str(tmp_path / "e.csv"),
                     "--perplexity", "21", "--iters", "50"]) == 0

    def test_report_rendering(self, cli_workspace, tmp_path, capsys):
        _, data, _, _ = cli_workspace
        out = tmp_path / "small_xval"
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--out", str(out),
                   "--protocol", "cross", "--trunk", "dnn", "--subtasks", "none",
                   "--layer-sizes", "8", "--max-epochs", "2", "--patience", "1",
                   "--window-stride", "3", "--seed", "2"])
        assert rc == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "mean UA" in rendered
        assert main(["report", "--compare", str(out / "report.json"), str(out / "report.json")]) == 0
        compared = json.loads(capsys.readouterr().out)
        assert compared == {"w_plus": 0.0, "w_minus": 0.0, "n": 0, "p_value": 1.0, "significant": False}


class TestSidecarConfigs:
    """`hlf` and `embed` record their settings in ``<out>.config.json``, and
    `elm` in its ``--out`` record; a rerun from those settings alone
    reproduces the output."""

    @staticmethod
    def _sidecar(out: Path) -> dict:
        return json.loads(out.with_name(out.name + ".config.json").read_text())

    def test_hlf_and_elm_replay(self, cli_workspace, tmp_path):
        _, data, run, hlf_csv = cli_workspace
        saved = self._sidecar(hlf_csv)
        assert saved == {"command": "hlf", "model": str((run / "model.ckpt").resolve()),
                         "manifest": str((data / "manifest.csv").resolve())}
        again = tmp_path / "hlf.csv"
        assert main(["hlf", "--model", saved["model"], "--manifest", saved["manifest"],
                     "--out", str(again)]) == 0
        assert again.read_bytes() == hlf_csv.read_bytes()

        first = tmp_path / "a" / "elm.json"
        assert main(["elm", "--hlf", str(hlf_csv), "--eval", str(hlf_csv), "--out", str(first),
                     "--n-hidden", "32", "--ridge", "0.01", "--seed", "1"]) == 0
        saved = json.loads(first.read_text())
        assert saved["command"] == "elm" and saved["eval"] == str(hlf_csv.resolve())
        assert list(first.parent.iterdir()) == [first]  # the record is its own settings file
        second = tmp_path / "b" / "elm.json"
        assert main(["elm", "--hlf", saved["hlf"], "--eval", saved["eval"], "--out", str(second),
                     "--n-hidden", str(saved["n_hidden"]), "--ridge", str(saved["ridge"]),
                     "--seed", str(saved["seed"])]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_embed_replay(self, cli_workspace, tmp_path):
        _, _, _, hlf_csv = cli_workspace
        first = tmp_path / "a.csv"
        assert main(["embed", "--input", str(hlf_csv), "--out", str(first), "--perplexity", "7",
                     "--iters", "40", "--seed", "2"]) == 0
        saved = self._sidecar(first)
        assert saved == {"command": "embed", "input": str(hlf_csv.resolve()), "svg": None,
                         **asdict(TsneConfig(perplexity=7.0, n_iter=40, seed=2))}
        second = tmp_path / "b.csv"
        assert main(["embed", "--input", saved["input"], "--out", str(second),
                     "--perplexity", str(saved["perplexity"]), "--iters", str(saved["n_iter"]),
                     "--seed", str(saved["seed"])]) == 0
        assert second.read_bytes() == first.read_bytes()


def _assert_no_children():
    """Every child process this test process started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDeadWorkers:
    """A forked child that dies (SIGKILL, as an out-of-memory kill ends it) fails
    its own task only; no child outlives the run."""

    XVAL = ["--layer-sizes", "4,4", "--max-epochs", "2", "--patience", "1", "--seed", "4",
            "--jobs", "2"]

    @pytest.fixture()
    def kill_fold_one(self, monkeypatch):
        run_fold, parent = experiment._run_fold, os.getpid()

        def run_or_die(fold_index, *args):
            if fold_index == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_fold(fold_index, *args)

        monkeypatch.setattr(experiment, "_run_fold", run_or_die)

    def _xval(self, data, out, *extra):
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--out", str(out),
                   *self.XVAL, *extra])
        _assert_no_children()
        return rc

    def test_dead_fold_fails_alone(self, cli_workspace, tmp_path, capsys, request):
        _, data, _, _ = cli_workspace
        assert self._xval(data, tmp_path / "clean") == 0
        clean = json.loads((tmp_path / "clean" / "report.json").read_text())["folds"]
        capsys.readouterr()
        request.getfixturevalue("kill_fold_one")
        assert self._xval(data, tmp_path / "killed") == 1
        folds = json.loads((tmp_path / "killed" / "report.json").read_text())["folds"]
        assert folds[1]["error"] == "worker died: signal 9" and folds[1]["ua"] is None
        assert folds[0]["error"] is None and folds[0]["ua"] == clean[0]["ua"]
        group = folds[1]["test_group"]
        assert capsys.readouterr().err == f"  FAILED fold 1 ({group}): worker died: signal 9\n"

    def test_dead_grid_folds_fail_alone(self, cli_workspace, tmp_path, capsys, request):
        _, data, _, _ = cli_workspace
        assert self._xval(data, tmp_path / "clean", "--grid") == 0
        clean = json.loads((tmp_path / "clean" / "grid_report.json").read_text())["ua_table"]
        capsys.readouterr()
        request.getfixturevalue("kill_fold_one")
        assert self._xval(data, tmp_path / "killed", "--grid") == 1
        grid = json.loads((tmp_path / "killed" / "grid_report.json").read_text())
        group_0, group_1 = grid["test_groups"]
        for name, uas in grid["ua_table"].items():
            assert uas == {group_0: clean[name][group_0], group_1: None}, name
            assert grid["errors"][name] == [f"fold 1 ({group_1}): worker died: signal 9"]
        assert sorted(capsys.readouterr().err.splitlines()) == sorted(
            f"  FAILED {name} fold 1 ({group_1}): worker died: signal 9" for name in grid["errors"])

    def test_dead_front_end_task_fails_the_run(self, cli_workspace, tmp_path, capsys, monkeypatch):
        _, data, _, _ = cli_workspace
        records = load_manifest(data / "manifest.csv").records
        half = len(records) // 2  # 48 utterances on 2 jobs: two tasks of 24
        victim, parent = records[half + 4].utterance_id, os.getpid()
        record_features = experiment.record_features

        def extract_or_die(rec, *args, **kwargs):
            if rec.utterance_id == victim and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return record_features(rec, *args, **kwargs)

        monkeypatch.setattr(experiment, "record_features", extract_or_die)
        assert self._xval(data, tmp_path / "killed") == 1
        first = records[half].utterance_id
        assert (f"error: front-end task from utterance {first}: worker died: signal 9"
                in capsys.readouterr().err)
        assert not (tmp_path / "killed" / "report.json").exists()


class TestShortUtterance:
    """An utterance shorter than one analysis window fails the run, and the
    error names it."""

    @pytest.fixture()
    def short_manifest(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        records = list(load_manifest(data / "manifest.csv").records)
        samples, sr = read_wav(records[5].audio_path)
        write_wav(tmp_path / "short.wav", samples[:300], sample_rate=sr)
        records[5] = replace(records[5], audio_path=tmp_path / "short.wav")
        path = write_manifest(CorpusManifest(records=tuple(records)), tmp_path / "manifest.csv")
        named = f"{records[5].utterance_id} ({tmp_path / 'short.wav'}): utterance too short: 300 samples"
        return path, named

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_xval(self, short_manifest, tmp_path, capsys, jobs):
        path, named = short_manifest
        rc = main(["xval", "--manifest", str(path), "--out", str(tmp_path / "out"),
                   "--layer-sizes", "4,4", "--max-epochs", "2", "--patience", "1", "--jobs", jobs])
        assert rc == 1
        assert named in capsys.readouterr().err

    def test_hlf(self, cli_workspace, short_manifest, tmp_path, capsys):
        _, _, run, _ = cli_workspace
        path, named = short_manifest
        rc = main(["hlf", "--model", str(run / "model.ckpt"), "--manifest", str(path),
                   "--out", str(tmp_path / "hlf.csv")])
        assert rc == 1
        assert named in capsys.readouterr().err


class TestShortForDnnContext:
    """An utterance of fewer frames than the DNN context (21 < 25) cannot be
    scored: the error names it and its WAV."""

    @pytest.fixture(scope="class")
    def dnn_case(self, cli_workspace, tmp_path_factory):
        _, data, _, _ = cli_workspace
        root = tmp_path_factory.mktemp("dnn_context")
        records = list(load_manifest(data / "manifest.csv").records)
        samples, sr = read_wav(records[5].audio_path)
        write_wav(root / "short.wav", samples[:3600], sample_rate=sr)
        records[5] = replace(records[5], audio_path=root / "short.wav")
        path = write_manifest(CorpusManifest(records=tuple(records)), root / "manifest.csv")
        run = root / "run"
        assert main(["train", "--manifest", str(data / "manifest.csv"), "--out", str(run), "--trunk", "dnn",
                     "--layer-sizes", "4", "--max-epochs", "2", "--patience", "1"]) == 0
        named = (f"{records[5].utterance_id} ({root / 'short.wav'}): "
                 "too few frames for DNN context: 21 < 25")
        return path, run, named

    def test_hlf(self, dnn_case, tmp_path, capsys):
        path, run, named = dnn_case
        rc = main(["hlf", "--model", str(run / "model.ckpt"), "--manifest", str(path),
                   "--out", str(tmp_path / "hlf.csv")])
        assert rc == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_xval_fold_error(self, dnn_case, tmp_path, jobs):
        path, _, named = dnn_case
        out = tmp_path / "out"
        rc = main(["xval", "--manifest", str(path), "--out", str(out), "--trunk", "dnn",
                   "--layer-sizes", "4", "--max-epochs", "2", "--patience", "1", "--jobs", jobs])
        assert rc == 1
        errors = [fold["error"] for fold in json.loads((out / "report.json").read_text())["folds"]]
        assert any(named in error for error in errors if error)


class TestSampleRateCheck:
    @pytest.fixture()
    def mixed_rate_manifest(self, cli_workspace, tmp_path):
        """A 16 kHz manifest whose first utterance is stored at 8 kHz."""
        _, data, _, _ = cli_workspace
        records = list(load_manifest(data / "manifest.csv").records[:4])
        samples, sr = read_wav(records[0].audio_path)
        write_wav(tmp_path / "slow.wav", samples[::2], sample_rate=sr // 2)
        records[0] = replace(records[0], audio_path=tmp_path / "slow.wav")
        return write_manifest(CorpusManifest(records=tuple(records)), tmp_path / "manifest.csv")

    def test_xval_rejects_mismatch(self, mixed_rate_manifest, tmp_path, capsys):
        rc = main(["xval", "--manifest", str(mixed_rate_manifest), "--out", str(tmp_path / "x"),
                   "--protocol", "within", "--layer-sizes", "4,4", "--max-epochs", "2", "--patience", "1"])
        assert rc == 1
        assert "sample rate 8000 != manifest 16000" in capsys.readouterr().err

    def test_hlf_rejects_mismatch(self, cli_workspace, mixed_rate_manifest, tmp_path, capsys):
        _, _, run, _ = cli_workspace
        rc = main(["hlf", "--model", str(run / "model.ckpt"), "--manifest", str(mixed_rate_manifest),
                   "--out", str(tmp_path / "hlf.csv")])
        assert rc == 1
        assert "sample rate 8000 != manifest 16000" in capsys.readouterr().err


_NETWORK_FLAGS = {"trunk", "layer_sizes", "subtask_mode", "subtask_weight"}
_TRAINING_FLAGS = {"batch_size", "lr", "dropout_p", "max_epochs", "patience",
                   "lstm_chunk_frames", "dnn_window_stride"}
# command -> (the configs it builds, the fields its flags set)
_CONFIG_FLAGS = {
    "synth": ((SynthConfig,), {"seed", "n_corpora", "speakers_per_corpus",
                               "utterances_per_speaker", "duration_s"}),
    "train": ((MTLNetworkConfig, TrainConfig), {"seed"} | _NETWORK_FLAGS | _TRAINING_FLAGS),
    "hlf": ((), set()),
    "elm": ((ELMConfig,), {"n_hidden", "ridge", "seed"}),
    "xval": ((PipelineConfig, MTLNetworkConfig, TrainConfig),
             {"protocol", "seed", "group_key"} | _NETWORK_FLAGS | _TRAINING_FLAGS),
    "embed": ((TsneConfig,), {"perplexity", "n_iter", "seed"}),
    "report": ((), set()),
}


def test_every_command_is_covered():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands.choices) == set(COMMAND_REQUIRED_FLAGS) == set(_CONFIG_FLAGS)


@pytest.mark.parametrize("command", sorted(_CONFIG_FLAGS))
def test_the_parser_holds_no_config_defaults(command):
    """A flag that sets a config field is stored under the field's name and is
    None unless given, so the config dataclass's default is the only one."""
    configs, expected = _CONFIG_FLAGS[command]
    args = build_parser().parse_args([command, *COMMAND_REQUIRED_FLAGS[command]])
    names = {f.name for cls in configs for f in fields(cls)}
    assert {k: v for k, v in vars(args).items() if k in names} == dict.fromkeys(expected)


# the only options that are not None when not given
_SET_WITHOUT_FLAG = {"debug": False, "grid": False, "jobs": 1}


@pytest.mark.parametrize("command", sorted(COMMAND_REQUIRED_FLAGS))
def test_no_option_has_a_default_but_the_switches_and_jobs(command):
    """Parsed with its required flags only, every other option of a command is
    None, except the ``store_true`` switches (False) and ``xval --jobs`` (1)."""
    args = vars(build_parser().parse_args([command, *COMMAND_REQUIRED_FLAGS[command]]))
    given = {"command", "func"} | {flag[2:] for flag in COMMAND_REQUIRED_FLAGS[command]
                                   if flag.startswith("--")}
    unset = {k: v for k, v in args.items() if k not in given}
    assert unset == {k: _SET_WITHOUT_FLAG.get(k) for k in unset}
    assert ("jobs" in unset or "grid" in unset) == (command == "xval")


@pytest.mark.parametrize("old, new", [("mean_ua", "mean_UA"), ("n_test", "n_tests")])
def test_report_run_names_a_misspelled_key(tmp_path, capsys, old, new):
    fold = FoldResult(fold=0, test_group="a", n_train=8, n_val=2, n_test=2,
                      confusion=[[1, 0, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4], ua=1.0,
                      per_class_recall=[1.0, 1.0, None, None], best_epoch=1, epochs_run=2,
                      best_val_total=0.5)
    report = ExperimentReport(protocol="cross", seed=0, config=PipelineConfig(), folds=[fold],
                              mean_ua=1.0)
    path = experiment.write_report(report, tmp_path)
    assert main(["report", "--run", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text(encoding="utf-8"))
    owner = data if old in data else data["folds"][0]
    owner[new] = owner.pop(old)
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and f"unknown key {new!r}, missing key {old!r}" in err
    (tmp_path / "other.json").write_text(json.dumps(asdict(report)), encoding="utf-8")
    assert main(["report", "--compare", str(tmp_path / "other.json"), str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_report_run_names_a_retyped_value(tmp_path, capsys):
    """A value of another JSON type than its field's is refused by the file,
    the class and the key, before anything is printed."""
    fold = FoldResult(fold=0, test_group="a", n_train=8, n_val=2, n_test=12)
    report = ExperimentReport(protocol="cross", seed=0, config=PipelineConfig(), folds=[fold],
                              mean_ua=None)
    path = experiment.write_report(report, tmp_path)
    data = json.loads(path.read_text(encoding="utf-8"))
    data["folds"][0]["n_test"] = 12.0
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["report", "--run", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: FoldResult: key 'n_test': expected int, got float\n")


def test_report_with_a_retired_key_is_refused_by_name(tmp_path, capsys):
    """A report written when `TrainConfig` still had ``clip_norm`` is refused
    on one line naming the file and the key."""
    report = asdict(ExperimentReport("cross", 0, PipelineConfig(), [FoldResult(0, "c00", 1, 1, 1)], None))
    report["config"]["training"]["clip_norm"] = 5.0
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    for argv in (["report", "--run", str(tmp_path)], ["report", "--compare", str(path), str(path)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: TrainConfig: unknown key 'clip_norm'\n"


class TestCliErrors:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["synth", "--out", "x", "--bogus"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["features", "--manifest", "m", "--out", "o"],
                                      ["hlf", *COMMAND_REQUIRED_FLAGS["hlf"], "--theta", "0.3"]])
    def test_removed_flags_exit_two(self, capsys, argv):
        """``train --out`` writes the feature store, and ``hlf`` uses the paper's threshold."""
        assert main(argv) == 2
        refused = {"features": "invalid choice: 'features'", "hlf": "unrecognized arguments: --theta 0.3"}
        assert refused[argv[0]] in capsys.readouterr().err

    def test_stage_error_exits_one(self, tmp_path, capsys):
        """Without ``--debug`` a failing stage prints one ``error:`` line and no traceback."""
        rc = main(["train", "--manifest", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest not found") and err.count("\n") == 1

    def test_hlf_refuses_a_checkpoint_without_statistics(self, cli_workspace, tmp_path, capsys):
        """A model scores standardized features: `hlf` refuses a checkpoint
        that lacks the statistics, naming the file, and writes nothing."""
        _, data, run, _ = cli_workspace
        params, header = read_checkpoint(run / "model.ckpt")
        del params["standardizer.mean"], params["standardizer.std"]
        bad = nn.save_checkpoint(tmp_path / "bad.ckpt", params, header)
        out = tmp_path / "hlf.csv"
        assert main(["hlf", "--model", str(bad), "--manifest", str(data / "manifest.csv"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: checkpoint has no parameter 'standardizer.mean': {bad}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("elm", "--hlf"), ("embed", "--input")])
    @pytest.mark.parametrize("damage, named", [
        (lambda cells: cells[:-1], "{table}, line 4: expected 22 fields, got 21"),
        (lambda cells: cells[:3] + ["high"] + cells[4:],
         "{table}, line 4: could not convert string to float: 'high'"),
        (lambda cells: cells[:17] + ["bored"] + cells[18:], "{table}, line 4: unknown emotion label: 'bored'"),
        (None, "empty HLF table: {table}"),
    ], ids=["short_row", "non_numeric", "unknown_label", "empty"])
    def test_malformed_hlf_table_names_the_line(self, cli_workspace, tmp_path, capsys,
                                                command, flag, damage, named):
        """A bad row of an HLF table is refused with the file and the line that
        hold it, and an empty file by its path. ``damage`` edits the cells of
        line 4, or is None for an empty file."""
        _, _, _, hlf_csv = cli_workspace
        lines = hlf_csv.read_text().splitlines()
        table = tmp_path / "bad.csv"
        if damage is None:
            table.write_text("")
        else:
            lines[3] = ",".join(damage(lines[3].split(",")))
            table.write_text("\n".join(lines) + "\n")
        other = ["--eval", str(hlf_csv)] if command == "elm" else []
        assert main([command, flag, str(table), *other, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {named.format(table=table)}\n"

    @pytest.mark.parametrize("command", ["hlf", "xval"])
    @pytest.mark.parametrize("damage, named", [
        (lambda wav: b"ID3" + wav[3:], "not a readable WAV (file does not start with RIFF id)"),
        (lambda wav: wav[:30], "not a readable WAV (file ends early)"),
        (lambda wav: wav[: len(wav) // 2], "data chunk holds 6389 of the 12800 samples its header gives"),
    ], ids=["not_riff", "cut_header", "cut_data"])
    def test_malformed_wav_names_the_file(self, cli_workspace, tmp_path, capsys, command, damage, named):
        """A WAV that is not RIFF, that ends inside its header, or whose data
        chunk was cut short with its header unchanged, is refused by its path."""
        _, data, run, _ = cli_workspace
        records = list(load_manifest(data / "manifest.csv").records)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(damage(records[5].audio_path.read_bytes()))
        records[5] = replace(records[5], audio_path=bad)
        manifest = write_manifest(CorpusManifest(records=tuple(records)), tmp_path / "manifest.csv")
        argv = {"hlf": ["hlf", "--model", str(run / "model.ckpt"), "--out", str(tmp_path / "hlf.csv")],
                "xval": ["xval", "--out", str(tmp_path / "x"), "--layer-sizes", "4,4", "--max-epochs", "2",
                         "--patience", "1", "--jobs", "2"]}[command]
        assert main([*argv, "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {named}: {bad}\n"

    def test_debug_reraises_with_traceback(self, tmp_path, capsys):
        with pytest.raises(ManifestError, match="manifest not found") as raised:
            main(["--debug", "train", "--manifest", str(tmp_path / "missing.csv"),
                  "--out", str(tmp_path / "o")])
        frames = [entry.name for entry in raised.traceback]
        assert "cmd_train" in frames and frames[-1] == "load_manifest"
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["hlf"])
def test_commands_that_draw_nothing_load_no_rng_or_openssl(cli_workspace, tmp_path, command):
    """`hlf` draws no random numbers, so a fresh interpreter running it loads
    neither `numpy.random` nor `hashlib` (whose `_hashlib` maps OpenSSL's
    libcrypto), though it reads the store beside the model and digests WAVs."""
    _, data, run, _ = cli_workspace
    argv = [command, "--model", str(run / "model.ckpt"), "--out", str(tmp_path / "hlf.csv"),
            "--manifest", str(data / "manifest.csv")]
    script = ("import json, sys\nfrom sermtl.cli import main\nrc = main(sys.argv[1:])\n"
              "print(json.dumps([rc, sorted({'hashlib', '_hashlib', 'numpy.random'} & set(sys.modules))]))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
