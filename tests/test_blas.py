from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from sermtl import blas, cli, experiment, mtl, nn
from sermtl.experiment import PipelineConfig, run_experiment
from sermtl.features import Standardizer, fit_standardizer
from sermtl.hlf import HLF_DIM, write_hlf_csv
from sermtl.mtl import MTLNetworkConfig, MultiTaskModel, TrainConfig, TrainedModel, save_model

from conftest import COMMAND_REQUIRED_FLAGS, make_records
from test_mtl import _SCORING_SHAPES, _TEST_MODELS

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


def test_each_pass_runs_on_its_thread_count(all_cores, monkeypatch):
    """The thread policy with 4 CPUs allowed: one thread for `one_thread`
    (a command, a front-end task, the weight-gradient products), every core for
    `all_cores` (scoring), ``max(1, cores // fits)`` for each of ``fits`` LSTM
    fits at once, and one for a DNN fit."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    counts = {}
    for name, count in {"one_thread": blas.one_thread, "all_cores": blas.all_cores}.items():
        with count():
            counts[name] = blas.threads()
    for trunk in ("lstm", "dnn"):
        with blas.fit(trunk):
            counts[trunk] = blas.threads()
        for fits in (1, 2, 3, 4, 8):
            with blas.fit(trunk, fits):
                counts[f"{trunk} of {fits}"] = blas.threads()
    assert counts == {"one_thread": 1, "all_cores": 4,
                      "lstm": 4, "lstm of 1": 4, "lstm of 2": 2, "lstm of 3": 1, "lstm of 4": 1,
                      "lstm of 8": 1,
                      "dnn": 1, "dnn of 1": 1, "dnn of 2": 1, "dnn of 3": 1, "dnn of 4": 1, "dnn of 8": 1}
    assert blas.threads() == all_cores


def test_running_on_calls_the_setter_only_to_change_the_count(monkeypatch):
    """A pass already on its count (a pinned product inside a one-thread fold)
    costs OpenBLAS no setter call; one on another count sets it and restores it."""
    count, calls = [1], []

    def set_(n):
        calls.append(n)
        count[0] = n
    monkeypatch.setattr(blas, "_openblas", lambda: (lambda: count[0], set_))
    with blas.one_thread():
        with blas.one_thread():
            pass
    assert calls == []
    with blas.running_on(2):
        with blas.one_thread():
            assert count == [1]
    assert calls == [2, 1, 2, 1] and count == [1]


@pytest.mark.parametrize("trunk, jobs, threads", [("lstm", 1, 4), ("lstm", 2, 2), ("lstm", 4, 2),
                                                   ("dnn", 1, 1), ("dnn", 2, 1)])
def test_a_fold_fits_on_its_share_of_the_cores(all_cores, small_synth, monkeypatch, trunk, jobs, threads):
    """With 4 CPUs allowed, each of the LSTM folds running at once (at most one
    per fold: 2 here) fits on ``4 // folds`` threads, in a forked child or not;
    a DNN fold fits on one."""
    manifest, _, _ = small_synth
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    def fit_on(*args):
        raise RuntimeError(f"fit on {blas.threads()} threads")

    monkeypatch.setattr(experiment, "train", fit_on)
    config = PipelineConfig(protocol="cross", network=MTLNetworkConfig(trunk=trunk))
    report = run_experiment([manifest], config, jobs=jobs)
    assert [f.error for f in report.folds] == [f"RuntimeError: fit on {threads} threads"] * 2
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


def _train(data: Path, out: Path, one_cpu: bool, *flags) -> tuple[bytes, bytes]:
    """`sermtl train` on ``data``'s manifest in a fresh interpreter, with
    OPENBLAS_NUM_THREADS=1 and one CPU allowed, or with it unset and every CPU
    allowed; the bytes of its checkpoint and history."""
    cpu = min(os.sched_getaffinity(0))
    subprocess.run([sys.executable, "-m", "sermtl.cli", "train", "--manifest", str(data / "manifest.csv"),
                    "--out", str(out), "--seed", "2", *flags],
                   env=_env(OPENBLAS_NUM_THREADS="1" if one_cpu else None, OMP_NUM_THREADS=None),
                   preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None,
                   capture_output=True, text=True, check=True, timeout=300)
    return (out / "model.ckpt").read_bytes(), (out / "history.csv").read_bytes()


def test_train_does_not_depend_on_the_blas_thread_count(small_synth, tmp_path):
    """A two-layer 8-unit LSTM's checkpoint and history are the same fitted on
    one CPU and one thread as on every CPU (`train` fits an LSTM on every
    allowed CPU, whatever OPENBLAS_NUM_THREADS says)."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU allowed: every fit runs on one thread")
    _, data, _ = small_synth
    flags = ["--trunk", "lstm", "--layer-sizes", "8,8", "--max-epochs", "3", "--patience", "2"]
    assert _train(data, tmp_path / "one", True, *flags) == _train(data, tmp_path / "every", False, *flags)


@pytest.mark.parametrize("flags", [
    ["--trunk", "lstm", "--layer-sizes", "256", "--max-epochs", "3", "--patience", "2"],
    ["--trunk", "dnn", "--max-epochs", "2", "--patience", "1"],
], ids=["lstm-256", "dnn-3x256"])
def test_train_on_every_core_writes_what_one_thread_writes(small_synth, tmp_path, flags):
    """`train` fits an LSTM on every allowed CPU, yet its checkpoint and
    history are the bytes of a fit on one CPU and one thread: a 256-unit LSTM's
    weight-gradient products (its ``w_x`` and ``w_h``, and each head's ``w``)
    round differently on several threads unless pinned. A DNN fits on one
    thread whatever the CPUs."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU allowed: every fit runs on one thread")
    _, data, _ = small_synth
    assert _train(data, tmp_path / "one", True, *flags) == _train(data, tmp_path / "every", False, *flags)


# `sermtl train` in a fresh interpreter on one OpenBLAS thread at start and an
# affinity of 4 CPUs; prints the thread counts seen by its training loop (with
# the process's OS threads), by the LSTM steps, inside the pins `nn` enters for
# the weight-gradient products, and by the checkpoint's writer
_TRAIN_THREADS = """
import contextlib, json, os, sys
from sermtl import blas, cli, experiment, mtl, nn

def tasks():
    return len(os.listdir("/proc/self/task"))

os.sched_getaffinity = lambda pid: set(range(4))
seen = {"start": [blas.threads(), tasks()], "train": [], "step": [], "weight_gradients": [],
        "writer": []}

def recording(name, fn, *extra):
    def call(*args, **kwargs):
        seen[name].append([blas.threads(), *(f() for f in extra)])
        return fn(*args, **kwargs)
    return call

pin = blas.one_thread

@contextlib.contextmanager
def weight_gradient_pin():
    with pin():
        seen["weight_gradients"].append([blas.threads()])
        yield

def recording_pin():
    return weight_gradient_pin() if sys._getframe(1).f_globals["__name__"] == "sermtl.nn" else pin()

experiment.train = recording("train", experiment.train, tasks)
nn.LSTMLayer.step = recording("step", nn.LSTMLayer.step)
blas.one_thread = recording_pin
mtl.save_model = recording("writer", mtl.save_model)
seen["rc"] = cli.main(sys.argv[1:])
print(json.dumps(seen))
"""


@pytest.mark.parametrize("trunk, threads", [("lstm", 4), ("dnn", 1)])
def test_train_fits_on_every_allowed_cpu(small_synth, tmp_path, trunk, threads):
    """With 4 CPUs allowed, `train`'s loop and its LSTM steps run on 4 OpenBLAS
    threads, the caller and the 3 it starts, although OPENBLAS_NUM_THREADS=1; a
    DNN's loop runs on one. The weight-gradient products run on one, and so
    does the rest of the command."""
    _, data, _ = small_synth
    argv = ["train", "--manifest", str(data / "manifest.csv"), "--out", str(tmp_path / "model"),
            "--trunk", trunk, "--layer-sizes", "8,8", "--max-epochs", "2", "--patience", "1"]
    done = subprocess.run([sys.executable, "-c", _TRAIN_THREADS, *argv], capture_output=True, text=True,
                          env=_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS=None), check=True,
                          timeout=300)
    seen = json.loads(done.stdout.splitlines()[-1])
    if seen["start"][0] is None:
        pytest.skip("no OpenBLAS symbol found")
    assert seen["rc"] == 0
    blas_threads, os_threads = seen["start"]
    assert blas_threads == 1
    assert seen["train"] == [[threads, os_threads + threads - 1]]
    assert {n for n, in seen["step"]} == ({4} if trunk == "lstm" else set())
    assert seen["weight_gradients"] and {n for n, in seen["weight_gradients"]} == {1}
    assert seen["writer"] == [[1]]


@pytest.fixture(scope="module")
def large_hlf_table(tmp_path_factory):
    """An HLF table of 1200 utterances: with 1000 hidden units, enough for the
    ELM's output weights and t-SNE's embedding to differ between one BLAS
    thread and two when nothing pins the count."""
    records = make_records(1200)
    rng = np.random.default_rng(18)
    vectors = rng.normal(size=(len(records), HLF_DIM)) + np.arange(len(records))[:, None] % 4
    path = tmp_path_factory.mktemp("hlf_large") / "hlf.csv"
    return write_hlf_csv(path, ((r.utterance_id, v, r) for r, v in zip(records, vectors)))


# `sermtl.cli.main` with `cli.elm_fit` wrapped to print the blake2b digest of
# the output weights it fits, bit for bit
_WITH_WEIGHT_DIGEST = """
import hashlib, sys
from sermtl import cli
fit = cli.elm_fit
def elm_fit(*args):
    model = fit(*args)
    print("output weights", hashlib.blake2b(model.output_weights.tobytes()).hexdigest())
    return model
cli.elm_fit = elm_fit
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command, output", [
    (["elm", "--n-hidden", "1000"], "elm.json"),
    (["embed", "--iters", "60"], "embedding.csv"),
], ids=["elm", "embed"])
def test_elm_and_embed_do_not_depend_on_the_blas_thread_count(large_hlf_table, tmp_path,
                                                              command, output):
    """`elm` and `embed` run on one BLAS thread, as every command does: their outputs,
    and the ELM's fitted output weights, are the same with OPENBLAS_NUM_THREADS=1 and
    unset (a thread per core)."""
    flag = ["--hlf", str(large_hlf_table), "--eval"] if command[0] == "elm" else ["--input"]
    outputs, digests = [], []
    for threads in ("1", None):
        out = tmp_path / f"threads-{threads}" / output
        done = subprocess.run([sys.executable, "-c", _WITH_WEIGHT_DIGEST, command[0], *flag,
                               str(large_hlf_table), "--out", str(out), *command[1:]],
                              env=_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=None),
                              capture_output=True, text=True, check=True, timeout=300)
        outputs.append(out.read_bytes())
        digests.append([line for line in done.stdout.splitlines() if line.startswith("output weights ")])
    assert outputs[0] == outputs[1]
    assert digests[0] == digests[1] and len(digests[0]) == (command[0] == "elm")


# Row counts of scoring's products: every count from 16 up to 48, then blocks up
# to past the default 128 utterances or DNN windows, and longer utterances' windows
_ROWS = (*range(16, 48), 64, 96, 127, 128, 129, 160, 192, 255, 256, 257, 300, 301, 302, 384, 512,
         1000, 1024, 2048, 4096)


def _row_counts(n_out: int) -> list[int]:
    """The row counts of `_ROWS` that scoring runs a product of ``n_out`` outputs on,
    and the first 8 from `mtl._product_rows`, its padded size."""
    padded = mtl._product_rows(n_out)
    return sorted({m for m in _ROWS if m >= padded} | set(range(padded, padded + 8)))


# ((inputs, outputs), row counts) of every product `emotion_posteriors` runs for the
# test models and the paper's 2x256 LSTM and 3x256 DNN
_PRODUCTS = [(shape, _row_counts(shape[1])) for shape in _SCORING_SHAPES]


def _product_digests(count: int) -> dict:
    """The blake2b digest of each float32 product of `_PRODUCTS` on ``count`` threads."""
    digests = {}
    with blas.running_on(count):
        assert blas.threads() == count
        for (n_in, n_out), rows in _PRODUCTS:
            rng = np.random.default_rng(n_in * 1000 + n_out)
            w = rng.normal(size=(n_out, n_in)).astype(np.float32)
            x = rng.normal(size=(max(rows), n_in)).astype(np.float32)
            for m in rows:
                digests[m, n_in, n_out] = hashlib.blake2b((x[:m] @ w.T).tobytes()).digest()
    return digests


def test_scoring_products_have_the_same_bits_on_any_thread_count():
    """The premise of `hlf` scoring on every core: on this BLAS, every product
    that scoring runs gives the same bytes on 1, 2 and 4 OpenBLAS threads. (A
    training weight gradient, (1024 x 3696) @ (3696 x 256), does not.)"""
    if blas.threads() is None:
        pytest.skip("no OpenBLAS symbol found")
    one, two, four = (_product_digests(count) for count in (1, 2, 4))
    assert [shape for shape in one if not one[shape] == two[shape] == four[shape]] == []


def _training_products(config: MTLNetworkConfig) -> list[tuple[str, str, int, int]]:
    """(rows, layout, inputs, outputs) of every product one training step of
    ``config`` runs, but the weight gradients: ``x @ w.T`` ("forward", w
    (outputs, inputs)) for a layer's input, an LSTM's recurrent step and each
    head, and ``d @ w`` ("backward", w (inputs, outputs)) for the gradient of
    each layer's input but the first and of an LSTM's previous hidden state.
    ``rows`` names the row counts of `_TRAINING_ROWS` it runs on: an LSTM
    layer's input and its gradient run one product per chunk ("frames"), its
    recurrent products one per time step over the batch's chunks ("batch"),
    and its heads one over the batch's unpadded frames ("scored"); a DNN's
    products run over the batch's windows ("batch"). Evaluation runs the
    forward products alone."""
    lstm = config.trunk == "lstm"
    widths = (config.input_width,) + config.layer_sizes
    products = []
    for i, (n_in, n) in enumerate(zip(widths, widths[1:])):
        gates = 4 * n if lstm else n
        rows = "frames" if lstm else "batch"
        products.append((rows, "forward", n_in, gates))
        if i:
            products.append((rows, "backward", gates, n_in))
        if lstm:
            products += [("batch", "forward", n, gates), ("batch", "backward", gates, n)]
    rows = "scored" if lstm else "batch"
    for head in config.heads:
        products += [(rows, "forward", widths[-1], head.n_classes),
                     (rows, "backward", head.n_classes, widths[-1])]
    return products


# The models that train on several threads in these tests and the acceptance
# criteria, the test models, and the paper's models
_TRAINING_PRODUCTS = sorted({product for config in _TEST_MODELS + [
    MTLNetworkConfig(trunk="lstm", layer_sizes=sizes) for sizes in [(256,), (32, 32), (16, 16)]
] for product in _training_products(config)})

# Row counts of training's products at the default batch size and chunk length:
# every chunk length (a batch pads its chunks to the longest) and every batch
# size, the last batch of an epoch being any size. An LSTM batch's unpadded
# frames can be any count up to 128 x 300: every count up to 1024, then a spread
# with `infer-embed`'s 77 x 48 and criterion 7's 128 x 78
_TRAINING_ROWS = {
    "frames": range(1, TrainConfig().lstm_chunk_frames + 1),
    "batch": range(1, TrainConfig().batch_size + 1),
    "scored": (*range(1, 1025), 1536, 2047, 2048, 2049, 3696, 4096, 6000, 8191, 8192, 9984, 16384,
               25000, 32768, TrainConfig().batch_size * TrainConfig().lstm_chunk_frames),
}


def _training_digests(rows: str, layout: str, n_in: int, n_out: int) -> list[list[bytes]]:
    """The blake2b digest of the float32 product at each of its row counts, on
    1, 2 and 4 threads."""
    counts = _TRAINING_ROWS[rows]
    rng = np.random.default_rng(n_in * 1000 + n_out)
    w = rng.normal(size=(n_out, n_in)).astype(np.float32)
    w = w.T if layout == "forward" else np.ascontiguousarray(w.T)
    x = rng.normal(size=(max(counts), n_in)).astype(np.float32)
    digests = []
    for count in (1, 2, 4):
        with blas.running_on(count):
            assert blas.threads() == count
            digests.append([hashlib.blake2b((x[:m] @ w).tobytes()).digest() for m in counts])
    return digests


def test_training_products_have_the_same_bits_on_any_thread_count():
    """The premise of training on every core: on this BLAS, every product of a
    training step but the weight gradients (which `nn` pins to one thread)
    gives the same bytes on 1, 2 and 4 OpenBLAS threads, at every row count it
    runs on."""
    if blas.threads() is None:
        pytest.skip("no OpenBLAS symbol found")
    differ = []
    for product in _TRAINING_PRODUCTS:
        one, two, four = _training_digests(*product)
        differ += [(m, *product) for m, a, b, c in zip(_TRAINING_ROWS[product[0]], one, two, four)
                   if not a == b == c]
    assert differ == []


@pytest.fixture(scope="module")
def saved_model(small_synth, tmp_path_factory):
    """A function that saves a seeded, untrained network with the corpus's
    float32 standardizer statistics, as `train` saves a model, and returns its path."""
    manifest, _, _ = small_synth
    with blas.one_thread():
        store = experiment.extract_feature_cache(manifest.records)
    statistics = fit_standardizer([store.matrix])
    standardizer = Standardizer(statistics.mean.astype(np.float32), statistics.std.astype(np.float32))
    directory = tmp_path_factory.mktemp("models")

    def save(network: MTLNetworkConfig) -> Path:
        trained = TrainedModel(MultiTaskModel(network, seed=0), TrainConfig(), [], 0, 0.0)
        return save_model(directory / f"{network.trunk}-{len(network.layer_sizes)}x{network.layer_sizes[0]}.ckpt",
                          trained, standardizer)
    return save


@pytest.fixture(scope="module")
def small_model(saved_model):
    return saved_model(MTLNetworkConfig(trunk="lstm", layer_sizes=(8, 8)))


# `sermtl hlf` in a fresh interpreter on one OpenBLAS thread at start and an
# affinity of 4 CPUs; prints the thread counts seen by the front-end, by scoring
# (with the process's OS threads) and by the table's writer after the pass
_HLF_THREADS = """
import json, os, sys
from sermtl import blas, cli, experiment, hlf, mtl

def tasks():
    return len(os.listdir("/proc/self/task"))

os.sched_getaffinity = lambda pid: set(range(4))
seen = {"start": [blas.threads(), tasks()], "front_end": [], "scoring": [], "writer": []}

def recording(name, fn, *extra):
    def call(*args, **kwargs):
        seen[name].append([blas.threads(), *(f() for f in extra)])
        return fn(*args, **kwargs)
    return call

experiment.record_features = recording("front_end", experiment.record_features)
mtl.MultiTaskModel.emotion_posteriors = recording("scoring", mtl.MultiTaskModel.emotion_posteriors, tasks)
hlf.write_hlf_csv = recording("writer", hlf.write_hlf_csv)
seen["rc"] = cli.main(sys.argv[1:])
print(json.dumps(seen))
"""


def test_hlf_scores_on_every_allowed_cpu(small_synth, small_model, tmp_path):
    """With 4 CPUs allowed, `hlf` scores on 4 OpenBLAS threads, the caller and
    the 3 it starts, and no more, although OPENBLAS_NUM_THREADS=1; the front-end
    blocks scoring pulls in run on one thread, and so does the rest of the command."""
    _, data, _ = small_synth
    argv = ["hlf", "--model", str(small_model), "--manifest", str(data / "manifest.csv"),
            "--out", str(tmp_path / "hlf.csv")]
    done = subprocess.run([sys.executable, "-c", _HLF_THREADS, *argv], capture_output=True, text=True,
                          env=_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS=None), check=True,
                          timeout=300)
    seen = json.loads(done.stdout.splitlines()[-1])
    if seen["start"][0] is None:
        pytest.skip("no OpenBLAS symbol found")
    assert seen["rc"] == 0
    blas_threads, os_threads = seen["start"]
    assert blas_threads == 1
    assert len(seen["front_end"]) == 48 and {n for n, in seen["front_end"]} == {1}
    assert seen["scoring"] and {tuple(s) for s in seen["scoring"]} == {(4, os_threads + 3)}
    assert seen["writer"] == [[1]]


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_hlf_restores_the_callers_thread_count(small_synth, small_model, tmp_path, monkeypatch, fails):
    """`hlf` leaves the caller's thread count as it found it, after a scoring
    error too."""
    if blas.threads() is None:
        pytest.skip("no OpenBLAS symbol found")
    _, data, _ = small_synth
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    if fails:
        def failing(*args):
            raise mtl.ContextError("scoring failed", 0)
        monkeypatch.setattr(mtl.MultiTaskModel, "emotion_posteriors", failing)
    args = cli.build_parser().parse_args(["hlf", "--model", str(small_model), "--manifest",
                                          str(data / "manifest.csv"), "--out", str(tmp_path / "hlf.csv")])
    with blas.running_on(3):
        if fails:
            with pytest.raises(mtl.ContextError, match="scoring failed"):
                cli.cmd_hlf(args)
        else:
            assert cli.cmd_hlf(args) == 0
        assert blas.threads() == 3


@pytest.mark.parametrize("network", [MTLNetworkConfig(trunk="lstm"), MTLNetworkConfig(trunk="dnn")],
                         ids=["lstm-2x256", "dnn-3x256"])
def test_hlf_tables_do_not_depend_on_the_scoring_thread_count(small_synth, saved_model, tmp_path,
                                                              monkeypatch, network):
    """A paper-size model's HLF table is the same bytes scored on one thread and
    on every core (at least two)."""
    if blas.threads() is None:
        pytest.skip("no OpenBLAS symbol found")
    _, data, _ = small_synth
    model = saved_model(network)
    cores = max(2, len(os.sched_getaffinity(0)))
    scored_on, score = [], mtl.MultiTaskModel.emotion_posteriors

    def recording(*args):
        scored_on.append(blas.threads())
        return score(*args)

    monkeypatch.setattr(mtl.MultiTaskModel, "emotion_posteriors", recording)
    tables = []
    for count in (1, cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, count=count: set(range(count)))
        out = tmp_path / f"hlf-{count}.csv"
        assert cli.main(["hlf", "--model", str(model), "--manifest", str(data / "manifest.csv"),
                         "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert scored_on == [1, cores]
    assert tables[0] == tables[1]
