from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sermtl import blas, cli, experiment
from sermtl.experiment import PipelineConfig, run_experiment
from sermtl.hlf import HLF_DIM, write_hlf_csv
from sermtl.mtl import MTLNetworkConfig, TrainConfig

from conftest import COMMAND_REQUIRED_FLAGS, make_records

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(**variables):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for name, value in variables.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


def test_cli_loads_no_scipy():
    """numpy's OpenBLAS is the only BLAS in a sermtl process."""
    code = ("import sermtl.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = _env()
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture
def all_cores():
    """This process's OpenBLAS set to one thread per core, as without OPENBLAS_NUM_THREADS;
    the previous count is restored afterwards."""
    if blas.threads() is None:
        pytest.skip("no OpenBLAS symbol found")
    get, set_ = blas._openblas()
    previous = get()
    cores = len(os.sched_getaffinity(0))
    set_(cores)
    yield cores
    set_(previous)


def _fake_fold(*args):
    return blas.threads()


def test_folds_run_on_one_blas_thread(all_cores, monkeypatch):
    monkeypatch.setattr(experiment, "_run_fold", _fake_fold)
    task = (0, None, None)
    assert experiment._fold_worker(None, task) == 1
    assert blas.threads() == all_cores  # the caller's count is restored
    results = experiment._run_tasks(partial(experiment._fold_worker, None), [task] * 4, 2)
    assert results == [1] * 4
    assert blas.threads() == all_cores


@pytest.mark.parametrize("command", sorted(COMMAND_REQUIRED_FLAGS))
def test_every_command_runs_on_one_blas_thread(all_cores, monkeypatch, command):
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: blas.threads())
    assert cli.main([command, *COMMAND_REQUIRED_FLAGS[command]]) == 1
    assert blas.threads() == all_cores  # the caller's count is restored


def test_parallel_matches_serial_on_every_core(all_cores, small_synth):
    """An LSTM trunk's weight-gradient GEMMs have an inner dimension of batch x frames,
    which rounds differently on one and on several BLAS threads."""
    manifest, _, _ = small_synth
    config = PipelineConfig(
        protocol="cross",
        network=MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8)),
        training=TrainConfig(batch_size=32, max_epochs=3, patience=2, dropout_p=0.3),
    )
    serial = run_experiment([manifest], config, jobs=1)
    assert blas.threads() == all_cores
    assert asdict(serial) == asdict(run_experiment([manifest], config, jobs=2))


def test_train_does_not_depend_on_the_blas_thread_count(small_synth, tmp_path):
    """`train` fits on one BLAS thread, as an xval fold does: its checkpoint and
    history are the same with OPENBLAS_NUM_THREADS=1 and unset (a thread per core)."""
    _, data, _ = small_synth
    artifacts = []
    for threads in ("1", None):
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "sermtl.cli", "train", "--manifest",
                        str(data / "manifest.csv"), "--out", str(out), "--trunk", "lstm",
                        "--layer-sizes", "8,8", "--max-epochs", "3", "--patience", "2", "--seed", "2"],
                       env=_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=None),
                       capture_output=True, text=True, check=True, timeout=300)
        artifacts.append(((out / "model.ckpt").read_bytes(), (out / "history.csv").read_bytes()))
    assert artifacts[0] == artifacts[1]


@pytest.fixture(scope="module")
def large_hlf_table(tmp_path_factory):
    """An HLF table of 1200 utterances: with 1000 hidden units, enough for the
    ELM's float32 checkpoint and t-SNE's embedding to differ between one BLAS
    thread and two when nothing pins the count."""
    records = make_records(1200)
    rng = np.random.default_rng(18)
    vectors = rng.normal(size=(len(records), HLF_DIM)) + np.arange(len(records))[:, None] % 4
    path = tmp_path_factory.mktemp("hlf_large") / "hlf.csv"
    return write_hlf_csv(path, ((r.utterance_id, v, r) for r, v in zip(records, vectors)))


@pytest.mark.parametrize("command, output", [
    (["elm", "--n-hidden", "1000"], "elm.ckpt"),
    (["embed", "--iters", "60"], "embedding.csv"),
], ids=["elm", "embed"])
def test_elm_and_embed_do_not_depend_on_the_blas_thread_count(large_hlf_table, tmp_path,
                                                              command, output):
    """`elm` and `embed` run on one BLAS thread, as `train` does: their outputs are
    the same with OPENBLAS_NUM_THREADS=1 and unset (a thread per core)."""
    flag = "--hlf" if command[0] == "elm" else "--input"
    outputs = []
    for threads in ("1", None):
        out = tmp_path / f"threads-{threads}" / output
        subprocess.run([sys.executable, "-m", "sermtl.cli", command[0], flag, str(large_hlf_table),
                        "--out", str(out), *command[1:]],
                       env=_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=None),
                       capture_output=True, text=True, check=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
