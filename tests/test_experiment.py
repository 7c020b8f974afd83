from __future__ import annotations

import json
import os
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from sermtl import experiment
from sermtl.codec import from_dict
from sermtl.corpus import make_folds, record_labels
from sermtl.experiment import (
    GRID_CONFIGS,
    ExperimentReport,
    PipelineConfig,
    _run_tasks,
    compare_reports,
    extract_feature_cache,
    fit_fold,
    grid_config_name,
    grid_networks,
    run_experiment,
    record_features,
    run_grid,
    write_grid_report,
    write_report,
)
from sermtl.metrics import wilcoxon_signed_rank
from sermtl.mtl import MTLNetworkConfig, TrainConfig

from conftest import with_list_chunk


def _tiny_config(protocol="cross", trunk="lstm", subtask_mode="all", **train_kwargs):
    defaults = dict(batch_size=32, max_epochs=3, patience=2, seed=0, dropout_p=0.3)
    defaults.update(train_kwargs)
    return PipelineConfig(
        protocol=protocol,
        network=MTLNetworkConfig(trunk=trunk, layer_sizes=(8, 8), subtask_mode=subtask_mode),
        training=TrainConfig(**defaults),
        seed=0,
    )


class _TwoArgError(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _fail(task):
    if task == "decode":
        b"\xff".decode("utf-8")
    if task == "key":
        return {}[task]
    if task == "two-arg":
        raise _TwoArgError("code", "detail")
    return task


class TestRunTasks:
    @pytest.mark.parametrize("task", ["decode", "key"])
    def test_child_exception_is_raised_as_it_was(self, task):
        with pytest.raises(Exception) as serial:
            _run_tasks(_fail, [task], 1)
        with pytest.raises(Exception) as forked:
            _run_tasks(_fail, ["ok", task], 2)
        assert type(forked.value) is type(serial.value)
        assert forked.value.args == serial.value.args
        assert str(forked.value) == str(serial.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_exception_that_cannot_cross_is_named(self):
        with pytest.raises(RuntimeError, match=r"^_TwoArgError: code: detail$"):
            _run_tasks(_fail, ["two-arg"], 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestRunExperiment:
    def test_cross_protocol_structure(self, small_synth):
        manifest, _, _ = small_synth
        report = run_experiment([manifest], _tiny_config())
        assert report.protocol == "cross"
        assert [f.test_group for f in report.folds] == ["c00", "c01"]
        for fold in report.folds:
            assert fold.error is None
            assert fold.n_test == 24
            assert np.asarray(fold.confusion).sum() == fold.n_test
            assert 0.0 <= fold.ua <= 1.0
        assert report.mean_ua == pytest.approx(np.mean([f.ua for f in report.folds]))

    def test_within_protocol_folds_per_speaker(self, small_synth):
        manifest, _, _ = small_synth
        records = tuple(r for r in manifest.records if r.corpus_id == "c00")
        single = type(manifest)(records=records)
        report = run_experiment([single], _tiny_config(protocol="within"))
        assert len(report.folds) == 3  # one per speaker
        assert {f.test_group for f in report.folds} == {"c00s00", "c00s01", "c00s02"}

    def test_aggregated_protocol_single_fold(self, small_synth):
        manifest, _, _ = small_synth
        report = run_experiment([manifest], _tiny_config(protocol="aggregated"))
        assert len(report.folds) == 1
        assert report.folds[0].test_group == "aggregated"

    def test_deterministic_report_bytes(self, small_synth, tmp_path):
        manifest, _, _ = small_synth
        config = _tiny_config()
        blobs = []
        for run in range(2):
            report = run_experiment([manifest], config)
            out = tmp_path / f"run{run}"
            write_report(report, out)
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_parallel_matches_serial(self, small_synth):
        manifest, _, _ = small_synth
        config = _tiny_config()
        serial = run_experiment([manifest], config, jobs=1)
        parallel = run_experiment([manifest], config, jobs=2)
        assert asdict(serial) == asdict(parallel)

    def test_fold_failure_recorded(self, small_synth):
        manifest, _, _ = small_synth
        config = PipelineConfig(
            protocol="cross",
            # context window longer than any utterance: every fold fails
            network=MTLNetworkConfig(trunk="dnn", layer_sizes=(8,), context_frames=500),
            training=TrainConfig(batch_size=8, max_epochs=2, patience=1, seed=0),
            seed=0,
        )
        report = run_experiment([manifest], config)
        assert all(f.error is not None for f in report.folds)
        assert all(f.ua is None for f in report.folds)
        assert report.mean_ua is None
        assert all(f.best_val_total is None for f in report.folds)

    def test_report_round_trip(self, small_synth):
        manifest, _, _ = small_synth
        report = run_experiment([manifest], _tiny_config())
        again = from_dict(ExperimentReport, json.loads(json.dumps(asdict(report))))
        assert again == report


class TestCompare:
    def test_self_comparison_degenerates(self, small_synth):
        manifest, _, _ = small_synth
        report = run_experiment([manifest], _tiny_config())
        result = compare_reports(report, report)
        assert result == {"w_plus": 0.0, "w_minus": 0.0, "n": 0, "p_value": 1.0, "significant": False}

    def test_differing_runs_produce_wilcoxon(self, small_synth):
        manifest, _, _ = small_synth
        a = run_experiment([manifest], _tiny_config(subtask_mode="all"))
        b = run_experiment([manifest], _tiny_config(subtask_mode="none"))
        result = compare_reports(a, b)
        assert set(result) == {"w_plus", "w_minus", "n", "p_value", "significant"}
        direct = wilcoxon_signed_rank([f.ua for f in a.folds], [f.ua for f in b.folds])
        assert result == asdict(direct)
        assert type(result["n"]) is int


class TestGrid:
    def test_grid_shape_and_outputs(self, small_synth, tmp_path):
        manifest, _, _ = small_synth
        config = _tiny_config(max_epochs=2, patience=1)
        grid = run_grid([manifest], config)
        expected = [grid_config_name(t, m) for t, m in GRID_CONFIGS]
        assert grid.config_names == expected
        assert len(expected) == 8
        assert grid.test_groups == ["c00", "c01"]
        for name in expected:
            assert set(grid.ua_table[name]) == {"c00", "c01"}
        assert not grid.errors
        assert len(grid.comparisons) == 6
        path = write_grid_report(grid, tmp_path)
        data = json.loads(path.read_text())
        assert data["config_names"] == expected
        csv_lines = (tmp_path / "grid_report.csv").read_text().splitlines()
        assert csv_lines[0] == "test_group," + ",".join(expected)
        assert csv_lines[-1].startswith("mean,")

    @pytest.mark.parametrize("base_trunk", ["dnn", "lstm"])
    def test_default_grid_uses_each_trunks_paper_sizes(self, base_trunk):
        networks = grid_networks(MTLNetworkConfig(trunk=base_trunk))
        assert list(networks) == [grid_config_name(t, m) for t, m in GRID_CONFIGS]
        for (trunk, mode), network in zip(GRID_CONFIGS, networks.values()):
            assert (network.trunk, network.subtask_mode) == (trunk, mode)
            if trunk == "dnn":
                assert (network.layer_sizes, network.context_frames) == ((256, 256, 256), 25)
            else:
                assert (network.layer_sizes, network.context_frames) == ((256, 256), 1)

    @pytest.mark.parametrize("base_trunk", ["dnn", "lstm"])
    def test_given_sizes_go_to_both_trunks(self, base_trunk):
        base = MTLNetworkConfig(trunk=base_trunk, layer_sizes=(32, 16), subtask_weight=0.3)
        for network in grid_networks(base).values():
            assert network.layer_sizes == (32, 16)
            assert network.context_frames == (25 if network.trunk == "dnn" else 1)
            assert network.subtask_weight == 0.3


class TestFeatureStore:
    def test_serial_store_packs_every_utterance_in_order(self, small_synth):
        manifest, _, _ = small_synth
        store = extract_feature_cache(manifest.records)
        assert store.ids == tuple(r.utterance_id for r in manifest.records)
        assert store.matrix.dtype == np.float32
        assert np.array_equal(store.starts, np.cumsum(store.lengths) - store.lengths)
        assert store.matrix.shape[0] == store.lengths.sum()
        for i, rec in enumerate(manifest.records):
            want = record_features(rec)
            assert store.rows(i).tobytes() == want.tobytes(), rec.utterance_id
            assert {task: int(v[i]) for task, v in store.labels.items()} == record_labels(rec)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_store_bytes_do_not_depend_on_jobs(self, small_synth, jobs):
        manifest, _, _ = small_synth
        serial = extract_feature_cache(manifest.records)
        store = extract_feature_cache(manifest.records, jobs)
        assert store.matrix.tobytes() == serial.matrix.tobytes()
        assert np.array_equal(store.lengths, serial.lengths)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_longer_wav_headers_leave_no_gap(self, small_synth, tmp_path, jobs):
        """Rows are reserved from each WAV's size as if its header took 44
        bytes; WAVs whose headers are longer still give a packed store."""
        manifest, _, _ = small_synth
        records = list(manifest.records[:8])
        for i in (1, 2, 6):
            path = tmp_path / f"{i}.wav"
            path.write_bytes(with_list_chunk(records[i].audio_path.read_bytes(), 2000))
            records[i] = replace(records[i], audio_path=path)
        store = extract_feature_cache(records, jobs)
        assert store.matrix.shape[0] == store.lengths.sum()
        assert np.array_equal(store.starts, np.cumsum(store.lengths) - store.lengths)
        for i, rec in enumerate(records):
            assert store.rows(i).tobytes() == record_features(rec).tobytes(), rec.utterance_id
        assert store.matrix.tobytes() == extract_feature_cache(manifest.records[:8]).matrix.tobytes()

    def test_parent_holds_no_rows(self, small_synth):
        """Front-end children write their rows into the store's shared mapping;
        none come back to be copied in."""
        manifest, _, _ = small_synth
        tracemalloc.start()
        try:
            store = extract_feature_cache(manifest.records, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < store.matrix.nbytes / 2

    def test_fit_fold_frees_the_standardized_copy(self, small_synth, monkeypatch):
        manifest, _, _ = small_synth
        config = _tiny_config(max_epochs=1, patience=0)
        copies, standardized = [], experiment.standardized

        def recording_standardized(*args):
            data = standardized(*args)
            copies.append((weakref.ref(data), weakref.ref(data.matrix)))
            return data

        monkeypatch.setattr(experiment, "standardized", recording_standardized)
        fold = make_folds([manifest], config.protocol, config.group_key, config.seed)[0]
        # bound to a name, so whatever fit_fold returns is still alive below
        result = fit_fold(fold, extract_feature_cache(manifest.records), config.network,
                          config.training)
        [(data, matrix)] = copies
        assert data() is None and matrix() is None, result

    def test_parallel_grid_matches_serial(self, small_synth, tmp_path):
        manifest, _, _ = small_synth
        config = _tiny_config(max_epochs=2, patience=1)
        for jobs in (1, 2):
            write_grid_report(run_grid([manifest], config, jobs=jobs), tmp_path / f"jobs{jobs}")
        assert ((tmp_path / "jobs1" / "grid_report.json").read_bytes()
                == (tmp_path / "jobs2" / "grid_report.json").read_bytes())
