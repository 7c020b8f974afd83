from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from sermtl import blas
from sermtl.cli import main
from sermtl.codec import from_dict
from sermtl.corpus import (
    CorpusManifest,
    SynthConfig,
    load_manifest,
    read_wav,
    stratified_split,
    write_manifest,
    write_wav,
)
from sermtl.experiment import (
    PipelineConfig,
    extract_feature_cache,
    fit_fold,
    record_features,
)
from sermtl.features import FeatureConfig, Standardizer, apply_standardizer, load_store
from sermtl.hlf import compute_hlf, read_hlf_csv
from sermtl.mtl import MTLNetworkConfig, TrainConfig, load_model, posteriors_in_blocks


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
        assert payload["class_balance"] is None
        assert from_dict(SynthConfig, payload) == SynthConfig(
            n_corpora=1, speakers_per_corpus=1, utterances_per_speaker=1, duration_s=0.5, seed=3)


class TestFeatures:
    def test_extracts_and_indexes(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        out = tmp_path / "feats"
        rc = main(["features", "--manifest", str(data / "manifest.csv"), "--out", str(out)])
        assert rc == 0
        index = (out / "features_index.csv").read_text().splitlines()
        assert index[0] == "utterance_id,offset,n_frames"
        assert len(index) == 49  # header + 48 utterances
        store = load_store(out)
        manifest = load_manifest(data / "manifest.csv")
        assert store.ids == tuple(r.utterance_id for r in manifest.records)
        assert store.matrix.shape == (int(store.lengths.sum()), 32)
        assert np.array_equal(store.starts, np.cumsum(store.lengths) - store.lengths)
        for i in (0, 47):
            want = record_features(manifest.records[i], FeatureConfig(), manifest.sample_rate)
            assert store.rows(i).tobytes() == want.tobytes()


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
        test_ids = set(stratified_split([manifest], seed=3).folds[0].test_ids)
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
        model, _, extras = load_model(run / "model.ckpt")
        standardizer = Standardizer(mean=extras["standardizer.mean"], std=extras["standardizer.std"])
        assert ids == [r.utterance_id for r in manifest.records]
        for rec, row in zip(manifest.records, matrix):
            feats = apply_standardizer(standardizer, record_features(rec, FeatureConfig(), manifest.sample_rate))
            post = model.emotion_posteriors(feats, [len(feats)])[0]
            np.testing.assert_allclose(row, compute_hlf(post), rtol=0, atol=1e-12)


    def test_hlf_scores_like_the_trained_model(self, cli_workspace):
        """`hlf` standardizes with the checkpoint's statistics exactly as the fold that
        trained the model did, so its posteriors are the in-memory model's, bit for bit."""
        _, data, run, hlf_csv = cli_workspace
        manifest = load_manifest(data / "manifest.csv")
        saved = json.loads((run / "config.json").read_text())
        training = from_dict(TrainConfig, saved["training"])
        # the fold `train` fit, refit in memory; every utterance is standardized with its statistics
        fold = stratified_split([manifest], seed=saved["seed"]).folds[0]
        store = extract_feature_cache(manifest.records, FeatureConfig(), manifest.sample_rate)
        with blas.one_thread():  # as `train` fits
            trained, fold_standardizer, fold_data = fit_fold(
                fold, store, from_dict(MTLNetworkConfig, saved["network"]), training)
        model, _, extras = load_model(run / "model.ckpt")
        standardizer = Standardizer(mean=extras["standardizer.mean"], std=extras["standardizer.std"])
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


class TestElm:
    def test_fit_and_eval(self, cli_workspace, tmp_path, capsys):
        _, _, _, hlf_csv = cli_workspace
        out = tmp_path / "elm.ckpt"
        rc = main(["elm", "--hlf", str(hlf_csv), "--out", str(out),
                   "--eval", str(hlf_csv), "--n-hidden", "32", "--seed", "1"])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "eval UA over 48 utterances" in captured


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

    def test_config_replay_keeps_every_field(self, cli_workspace, tmp_path):
        _, data, _, _ = cli_workspace
        saved = PipelineConfig(
            protocol="aggregated",
            network=MTLNetworkConfig(trunk="dnn", layer_sizes=(8,), context_frames=11),
            training=TrainConfig(max_epochs=2, patience=1, dnn_window_stride=4),
            fractions=(0.6, 0.2, 0.2),
        )
        config_path = tmp_path / "saved.json"
        config_path.write_text(json.dumps({"pipeline": asdict(saved)}))
        out = tmp_path / "replayed"
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--config", str(config_path),
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        pipeline = json.loads((out / "config.json").read_text())["pipeline"]
        assert pipeline["network"]["context_frames"] == 11
        assert pipeline["fractions"] == [0.6, 0.2, 0.2]
        # a given flag overrides its field alone
        assert pipeline["seed"] == 5 and pipeline["training"]["seed"] == 5
        assert pipeline["training"]["dnn_window_stride"] == 4
        report = json.loads((out / "report.json").read_text())
        assert report["folds"][0]["n_train"] == 29  # 0.6 of 48 utterances

    @pytest.mark.parametrize("section, key", [(None, "hlf_thetta"), ("network", "context_frame")])
    def test_config_unknown_key_rejected(self, cli_workspace, tmp_path, capsys, section, key):
        _, data, _, _ = cli_workspace
        pipeline = asdict(PipelineConfig())
        (pipeline if section is None else pipeline[section])[key] = 1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"pipeline": pipeline}))
        rc = main(["xval", "--manifest", str(data / "manifest.csv"), "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

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
        compared = capsys.readouterr().out
        assert "all differences zero" in compared


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

    def test_features_rejects_mismatch(self, mixed_rate_manifest, tmp_path, capsys):
        rc = main(["features", "--manifest", str(mixed_rate_manifest), "--out", str(tmp_path / "f")])
        assert rc == 1
        assert "sample rate 8000 != manifest 16000" in capsys.readouterr().err

    def test_hlf_rejects_mismatch(self, cli_workspace, mixed_rate_manifest, tmp_path, capsys):
        _, _, run, _ = cli_workspace
        rc = main(["hlf", "--model", str(run / "model.ckpt"), "--manifest", str(mixed_rate_manifest),
                   "--out", str(tmp_path / "hlf.csv")])
        assert rc == 1
        assert "sample rate 8000 != manifest 16000" in capsys.readouterr().err


class TestCliErrors:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["synth", "--out", "x", "--bogus"]) == 2
        capsys.readouterr()

    def test_stage_error_exits_one(self, tmp_path, capsys):
        rc = main(["features", "--manifest", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
