"""Memory and time of paper-size LSTM training and scoring, of the front-end, and
of t-SNE, one probe per fresh process.

Run from the root of a source checkout (``PYTHONPATH=src``); point
``PYTHONPATH`` at another checkout's ``src`` to measure that one. Each probe
prints one JSON line. Peaks are resident-set sizes from ``getrusage``; "added"
is the peak minus the resident set just before the measured call. Numpy's
BLAS runs on one thread, except in the second pass of ``step`` and of ``score``.

    python3 tools/lstm_probe.py step   # one 2x256 `loss_and_grads`, batch 128 x 300 frames, dropout 0.5, twice
    python3 tools/lstm_probe.py layer  # one 256->256 `LSTMLayer` forward plus backward at (128, 300)
    python3 tools/lstm_probe.py score  # load a saved 2x256 checkpoint, score 128 utterances x 300 frames, twice
    python3 tools/lstm_probe.py xval --manifest M --out DIR --jobs N [xval flags...]
    python3 tools/lstm_probe.py features --manifest M --jobs N  # the front-end alone
    python3 tools/lstm_probe.py embed N ITERS  # `tsne_embed` of N random 16-d points, ITERS iterations
    python3 tools/lstm_probe.py fold --manifest M --trunk {lstm,dnn} [--max-epochs N] [--patience N]

``step`` also prints the sha256 of its losses and gradient vector, and
``score`` that of its posteriors, so two checkouts can be compared bit for
bit. ``step`` runs the step twice, each in a forked child of its own so that
each added peak is its own: pinned to one BLAS thread, then under `train`'s
fit policy for an LSTM (`blas.fit`: every core, the weight-gradient products
on one thread). It prints both wall times, both added peaks and both sha256,
which must be equal. ``score``
scores the block twice: pinned to one BLAS thread, then on
every core as `sermtl hlf` does (`blas.all_cores`); it prints both wall times
and both posterior sha256, which must be equal. It also prints this process's
absolute peak, the peak the pinned pass added, and whether
``hashlib`` (which maps OpenSSL's libcrypto) and ``numpy.random`` were loaded,
so the import floor shows beside the added peak: its checkpoint and store are
made in a forked child, and the digest is taken after the check. ``xval``
runs ``sermtl xval`` in this process and reports its wall time, this
process's peak and the largest peak of its forked children, and the sha256 of
``report.json``. ``features`` runs `extract_feature_cache` on the manifest's
records and reports the same, and the peak it added here, all taken before
the store is read for its sha256. ``embed`` reports the seconds per
evaluation (one call of `kl_and_gradient`, which `tsne_embed` calls once
per point it tries) after the affinities, the peak `tsne_embed` added, its
final KL and the sha256 of the embedding.

``fold`` runs fold 0 of the cross-corpus protocol over the manifest as a
serial ``sermtl xval`` runs it (seed 0, the paper's layer sizes for
``--trunk``), then `tsne_embed` of the fold's HLF table (its training rows,
then its test rows) at `TsneConfig`'s defaults. It reports each stage's wall
time and the largest resident set this process reached in it (sampled every
5 ms on a thread of its own): the front-end, the standardizer's fit and the
standardized copy, each epoch's training and validation, the posteriors, the
HLF reduction, the ELM's fit and prediction, and ``embed``. It also prints
each stage's share of the fold (``embed`` excluded) and the sha256 of the fold
record, which two runs on one machine must repeat.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from sermtl import blas, cli, experiment, mtl, nn, tsne
from sermtl.corpus import load_manifest, make_folds
from sermtl.experiment import PipelineConfig, extract_feature_cache
from sermtl.features import N_FEATURES, FeatureStore, Standardizer, load_store, save_store
from sermtl.mtl import (MTLNetworkConfig, MultiTaskModel, TrainConfig, TrainedModel, load_model,
                        posteriors_in_blocks, save_model)

# The paper-size training step: one batch of 128 chunks of 300 frames; the
# scoring probe scores one block of 128 utterances of 300 frames
BATCH, FRAMES = 128, 300


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def _sha256(data: bytes) -> str:
    import hashlib  # here, not at the top: `score` reports whether scoring loaded it

    return hashlib.sha256(data).hexdigest()


def _in_child(fn):
    """``fn()``, run in a forked child so nothing it loads or allocates stays
    here; its result travels back as JSON."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "w", encoding="utf-8") as pipe:
                json.dump(fn(), pipe)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with open(read, encoding="utf-8") as pipe:
        result = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"probe child failed: wait status {status}")
    return json.loads(result)


def _measure(fn, threads=blas.one_thread) -> dict:
    """The added peak (MB) and wall time (s) of ``fn()`` under ``threads()``, by
    default on one BLAS thread."""
    with threads():
        before = _rss_mb()
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
    return {"added_peak_mb": round(_peak_mb() - before, 1), "wall_s": round(wall, 3)}


def _step(threads) -> dict:
    """One `loss_and_grads` of the paper's 2x256 LSTM trunk with every head
    (`TrainConfig` defaults: dropout 0.5), on one unpadded batch, under ``threads()``."""
    model = MultiTaskModel(MTLNetworkConfig(trunk="lstm"), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(BATCH, FRAMES, N_FEATURES)).astype(np.float32)
    targets = {h.name: rng.integers(0, h.n_classes, BATCH) for h in model.config.heads}
    data = {"x": x, "mask": np.ones((BATCH, FRAMES), bool), "targets": targets}
    out = {}
    grad = np.empty_like(model.vector)

    def step():
        out["losses"], out["total"], _ = model.loss_and_grads(
            data, dropout_p=0.5, rng=np.random.default_rng(1), train=True, grad=grad)
    result = _measure(step, threads)
    digest = _sha256(json.dumps([out["losses"], out["total"]]).encode() + grad.tobytes())
    return {**result, "loss_grad_sha256": digest}


def probe_step() -> dict:
    """`_step` pinned to one thread, then under `train`'s fit policy, each in a forked child."""
    pinned = _in_child(lambda: _step(blas.one_thread))
    fit = _in_child(lambda: _step(lambda: blas.fit("lstm")))
    return {"probe": "step", "batch": BATCH, "frames": FRAMES, **pinned,
            "fit_threads": len(os.sched_getaffinity(0)), "fit_wall_s": fit["wall_s"],
            "fit_added_peak_mb": fit["added_peak_mb"], "fit_loss_grad_sha256": fit["loss_grad_sha256"]}


def probe_layer() -> dict:
    """Forward plus backward of one float32 256->256 `LSTMLayer`."""
    rng = np.random.default_rng(0)
    layer = nn.LSTMLayer(256, 256, rng, dtype=np.float32)
    x = rng.normal(size=(BATCH, FRAMES, 256)).astype(np.float32)
    dh = rng.normal(size=(BATCH, FRAMES, 256)).astype(np.float32)

    def run():
        _, cache = layer.forward(x)
        layer.backward(dh, cache)
    return {"probe": "layer", "batch": BATCH, "frames": FRAMES, **_measure(run)}


def _score_inputs(directory: Path) -> None:
    """Save a seeded 2x256 LSTM checkpoint (with standardizer statistics) and a
    store of BATCH utterances of FRAMES frames under ``directory``."""
    rng = np.random.default_rng(0)
    model = MultiTaskModel(MTLNetworkConfig(trunk="lstm"), seed=0)
    # the utterances have no WAVs: each index entry holds a placeholder size and digest
    save_store(directory, FeatureStore.pack([f"u{i:03d}" for i in range(BATCH)],
                                            [rng.normal(size=(FRAMES, N_FEATURES)).astype(np.float32)
                                             for _ in range(BATCH)],
                                            wavs=[(0, "0" * 64)] * BATCH))
    standardizer = Standardizer(rng.normal(size=N_FEATURES).astype(np.float32),
                                rng.uniform(0.5, 2.0, N_FEATURES).astype(np.float32))
    save_model(directory / "model.ckpt", TrainedModel(model, TrainConfig(), [], 0, 0.0), standardizer)


def probe_score() -> dict:
    """`load_model` of a saved 2x256 LSTM checkpoint, then `posteriors_in_blocks`
    over one packed float32 store of BATCH utterances of FRAMES frames, as
    `sermtl hlf` scores a block: once on one BLAS thread, then once on every
    core. Both inputs are made in a forked child."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _in_child(lambda: _score_inputs(tmp))
        store = load_store(tmp)
        # read into memory before the passes, as a `load_store` that does not map the file does
        store = replace(store, matrix=np.array(store.matrix))

        def score(name):
            loaded, _, standardizer = load_model(tmp / "model.ckpt")
            out[name] = list(posteriors_in_blocks(loaded, [store], standardizer))
        pinned = _measure(lambda: score("pinned"))
        all_cores = _measure(lambda: score("all_cores"), blas.all_cores)
    loaded = {"hashlib_loaded": "hashlib" in sys.modules, "numpy_random_loaded": "numpy.random" in sys.modules}
    digests = {name: _sha256(b"".join(p.tobytes() for p in posteriors)) for name, posteriors in out.items()}
    return {"probe": "score", "batch": BATCH, "frames": FRAMES, **pinned,
            "all_cores_threads": len(os.sched_getaffinity(0)), "all_cores_wall_s": all_cores["wall_s"],
            "peak_rss_mb": round(_peak_mb(), 1), **loaded,
            "posteriors_sha256": digests["pinned"], "all_cores_posteriors_sha256": digests["all_cores"]}


def probe_xval(argv: list[str]) -> dict:
    """``sermtl xval`` with ``argv`` in this process."""
    out = Path(argv[argv.index("--out") + 1])
    start = time.perf_counter()
    code = cli.main(["xval", *argv])
    wall = time.perf_counter() - start
    report = out / "report.json"
    return {"probe": "xval", "argv": argv, "exit": code, "wall_s": round(wall, 2),
            "peak_rss_mb": round(_peak_mb(), 1),
            "children_peak_rss_mb": round(_peak_mb(resource.RUSAGE_CHILDREN), 1),
            "report_sha256": _sha256(report.read_bytes()) if report.exists() else None}


def probe_features(manifest: str, jobs: int) -> dict:
    """`extract_feature_cache` of the manifest's records on ``jobs`` jobs, in this process."""
    records = load_manifest(manifest).records
    out = {}
    result = _measure(lambda: out.update(store=extract_feature_cache(records, jobs)))
    # the peaks are read before the digest reads the store's pages into this process
    return {"probe": "features", "manifest": manifest, "jobs": jobs, "utterances": len(records),
            "store_mb": round(out["store"].matrix.nbytes / 2**20, 1), **result,
            "peak_rss_mb": round(_peak_mb(), 1),
            "children_peak_rss_mb": round(_peak_mb(resource.RUSAGE_CHILDREN), 1),
            "store_sha256": _sha256(out["store"].matrix.tobytes())}


def probe_embed(n: int, iters: int) -> dict:
    """`tsne_embed` (perplexity 30) of ``n`` seeded standard-normal 16-d points."""
    x = np.random.default_rng(0).normal(size=(n, 16))
    config = tsne.TsneConfig(n_iter=iters, exaggeration_iters=min(250, iters // 4))
    evaluate, affinities = tsne.kl_and_gradient, tsne.compute_affinities
    calls, marks = [], {}

    def counted(*args, **kwargs):
        calls.append(None)
        return evaluate(*args, **kwargs)

    def timed(*args, **kwargs):
        result = affinities(*args, **kwargs)
        marks["affinities"] = time.perf_counter()
        return result

    out = {}
    tsne.kl_and_gradient, tsne.compute_affinities = counted, timed
    try:
        result = _measure(lambda: out.update(zip(("y", "trace"), tsne.tsne_embed(x, config))))
        loop_s = time.perf_counter() - marks["affinities"]
    finally:
        tsne.kl_and_gradient, tsne.compute_affinities = evaluate, affinities
    return {"probe": "embed", "n": n, "iters": iters, **result, "evaluations": len(calls),
            "s_per_evaluation": round(loop_s / len(calls), 5), "final_kl": float(out["trace"][-1]),
            "embedding_sha256": _sha256(out["y"].tobytes())}


class _Peaks:
    """This process's resident set, sampled every ``interval`` seconds on a
    thread of its own, so a stage can report the largest it reached."""

    def __init__(self, interval: float = 0.005):
        self._high, self._stop, self._lock = _rss_mb(), threading.Event(), threading.Lock()
        self._thread = threading.Thread(target=self._sample, args=(interval,), daemon=True)
        self._thread.start()

    def _sample(self, interval: float) -> None:
        while not self._stop.wait(interval):
            with self._lock:  # so a `reset` is never overwritten by an older high
                self._high = max(self._high, _rss_mb())

    def reset(self) -> None:
        with self._lock:
            self._high = _rss_mb()

    def high(self) -> float:
        return max(self._high, _rss_mb())

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def probe_fold(manifest: str, trunk: str, max_epochs: int, patience: int) -> dict:
    """Fold 0 of a cross-corpus `xval` over ``manifest``, stage by stage, then `embed` of its HLF table."""
    peaks, stages, tables = _Peaks(), [], []
    hlf_busy = [0.0]
    mark = [0.0]  # where the current epoch's training began

    def stage(name, start, **extra):
        stages.append({"stage": name, "wall_s": round(time.perf_counter() - start, 3),
                       "peak_rss_mb": round(peaks.high(), 1), **extra})
        peaks.reset()

    def timed(module, name, label):
        original = getattr(module, name)

        def run(*args, **kwargs):
            peaks.reset()
            start = time.perf_counter()
            result = original(*args, **kwargs)
            stage(label, start)
            return result
        return module, name, run

    def training(*args, **kwargs):
        peaks.reset()
        mark[0] = time.perf_counter()
        return train(*args, **kwargs)

    def validation(*args, **kwargs):
        epoch = sum(s["stage"] == "validation" for s in stages)
        stage("train", mark[0], epoch=epoch)
        start = time.perf_counter()
        result = dataset_losses(*args, **kwargs)
        stage("validation", start, epoch=epoch)
        mark[0] = time.perf_counter()
        return result

    def hlf_table(*args, **kwargs):
        # the posterior pass and the HLF reduction are interleaved: the HLF's time is summed apart
        peaks.reset()
        busy, start = hlf_busy[0], time.perf_counter()
        table = hlf_matrix(*args, **kwargs)
        hlf_s = hlf_busy[0] - busy
        stages.append({"stage": "posteriors", "wall_s": round(time.perf_counter() - start - hlf_s, 3),
                       "peak_rss_mb": round(peaks.high(), 1), "utterances": len(table)})
        stages.append({"stage": "hlf", "wall_s": round(hlf_s, 3), "utterances": len(table)})
        tables.append(table)
        return table

    def reduce(posteriors):
        start = time.perf_counter()
        result = compute_hlf(posteriors)
        hlf_busy[0] += time.perf_counter() - start
        return result

    train, dataset_losses = experiment.train, mtl._dataset_losses
    hlf_matrix, compute_hlf = experiment.hlf_matrix, experiment.compute_hlf
    patches = [timed(experiment, "fit_standardizer", "standardize_fit"),
               timed(experiment, "standardized", "standardize_apply"),
               timed(experiment, "elm_fit", "elm_fit"), timed(experiment, "elm_predict", "elm_predict"),
               (experiment, "train", training), (mtl, "_dataset_losses", validation),
               (experiment, "hlf_matrix", hlf_table), (experiment, "compute_hlf", reduce)]
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    manifests = [load_manifest(manifest)]
    config = PipelineConfig(protocol="cross", network=MTLNetworkConfig(trunk=trunk),
                            training=TrainConfig(max_epochs=max_epochs, patience=patience))
    fold = make_folds(manifests, config.protocol, config.group_key, config.seed)[0]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        start = time.perf_counter()
        store = extract_feature_cache(manifests[0].records)  # a serial `xval` extracts in-process
        stage("front_end", start, utterances=len(store), frames=int(store.lengths.sum()))
        with blas.one_thread():  # as `cli.main` and `experiment._fold_worker` run a serial fold
            result = experiment._run_fold(0, fold, store, config)
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    fold_s = sum(s["wall_s"] for s in stages)
    table = np.concatenate(tables)  # the training utterances' rows, then the test utterances'
    peaks.reset()
    start = time.perf_counter()
    with blas.one_thread():
        embedding, trace = tsne.tsne_embed(table, tsne.TsneConfig())
    stage("embed", start, utterances=len(table))
    peaks.stop()
    for s in stages[:-1]:
        s["share"] = round(s["wall_s"] / fold_s, 4)
    record = json.dumps(asdict(result), sort_keys=True).encode()
    return {"probe": "fold", "manifest": manifest, "trunk": trunk, "layer_sizes": config.network.layer_sizes,
            "max_epochs": max_epochs, "patience": patience, "test_group": fold.test_group,
            "n_train": len(fold.train_ids), "n_val": len(fold.validation_ids), "n_test": len(fold.test_ids),
            "epochs_run": result.epochs_run, "ua": result.ua, "fold_s": round(fold_s, 2),
            "peak_rss_mb": round(_peak_mb(), 1), "stages": stages, "fold_record_sha256": _sha256(record),
            "embed_final_kl": float(trace[-1]), "embedding_sha256": _sha256(embedding.tobytes())}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    probes = {"step": probe_step, "layer": probe_layer, "score": probe_score}
    if argv[:1] == ["xval"]:
        result = probe_xval(argv[1:])
    elif len(argv) == 5 and argv[0] == "features" and argv[1] == "--manifest" and argv[3] == "--jobs":
        result = probe_features(argv[2], int(argv[4]))
    elif len(argv) == 3 and argv[0] == "embed":
        result = probe_embed(int(argv[1]), int(argv[2]))
    elif argv[:1] == ["fold"] and len(argv) % 2 and {"--manifest", "--trunk"} <= set(argv[1::2]):
        flags = dict(zip(argv[1::2], argv[2::2]))
        result = probe_fold(flags["--manifest"], flags["--trunk"], int(flags.get("--max-epochs", 3)),
                            int(flags.get("--patience", 2)))
    elif len(argv) == 1 and argv[0] in probes:
        result = probes[argv[0]]()
    else:
        print("usage: lstm_probe.py {step | layer | score | xval XVAL_ARGS... "
              "| features --manifest M --jobs N | embed N ITERS "
              "| fold --manifest M --trunk T [--max-epochs N] [--patience N]}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
