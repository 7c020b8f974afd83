"""Experiment orchestration: per-fold pipeline runs (features -> standardize ->
train -> posteriors -> HLF -> ELM -> metrics), report assembly, and the
eight-configuration trunk/subtask grid."""
from __future__ import annotations

import json
import os
import pickle
import select
import signal
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import blas, metrics
from .corpus import (
    EMOTION_CLASSES,
    PROTOCOLS,
    SAMPLE_RATE,
    TASK_CLASSES,
    CorpusManifest,
    Fold,
    UtteranceRecord,
    WavFile,
    make_folds,
    merge_records,
    read_wav_file,
    record_labels,
)
from .elm import ELMConfig, elm_fit, elm_predict
from .features import (
    N_FEATURES,
    WINDOW,
    FeatureError,
    FeatureStore,
    Standardizer,
    Workspace,
    extract_features,
    fit_standardizer,
    frame_count,
    mapped_array,
    standardized,
)
from .hlf import compute_hlf
from .mtl import (
    MTLNetworkConfig,
    MultiTaskModel,
    TrainConfig,
    TrainedModel,
    posteriors_in_blocks,
    train,
)
from .nn import one_hot
from .seeding import derive_seed

# Table-shaped grid: STL baselines first, then the subtask variants.
GRID_CONFIGS = (
    ("dnn", "none"),
    ("lstm", "none"),
    ("dnn", "all"),
    ("lstm", "all"),
    ("dnn", "gender"),
    ("lstm", "gender"),
    ("dnn", "naturalness"),
    ("lstm", "naturalness"),
)


def grid_config_name(trunk: str, subtask_mode: str) -> str:
    return f"{trunk}-stl" if subtask_mode == "none" else f"{trunk}-{subtask_mode}"


@dataclass(frozen=True)
class PipelineConfig:
    protocol: str = "cross"
    network: MTLNetworkConfig = field(default_factory=MTLNetworkConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    elm: ELMConfig = field(default_factory=ELMConfig)
    seed: int = 0
    group_key: str = "corpus"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {self.protocol!r}")


@dataclass
class FoldResult:
    """One fold's record: the fields that come from the fold, then its test
    scores and training summary. A fold that produced no model keeps the
    defaults, and ``error`` says why."""
    fold: int
    test_group: str
    n_train: int
    n_val: int
    n_test: int
    confusion: list[list[int]] = field(default_factory=lambda: [[0] * len(EMOTION_CLASSES) for _ in EMOTION_CLASSES])
    ua: float | None = None
    per_class_recall: list[float | None] = field(default_factory=lambda: [None] * len(EMOTION_CLASSES))
    best_epoch: int = -1
    epochs_run: int = 0
    best_val_total: float | None = None
    error: str | None = None

    @classmethod
    def of(cls, fold_index: int, fold: Fold, **outcome) -> FoldResult:
        """The record of ``fold``, fold ``fold_index`` of its protocol, with ``outcome``'s fields."""
        return cls(fold_index, fold.test_group, len(fold.train_ids), len(fold.validation_ids),
                   len(fold.test_ids), **outcome)


@dataclass
class ExperimentReport:
    protocol: str
    seed: int
    config: PipelineConfig
    folds: list[FoldResult]
    mean_ua: float | None


def _read_record(rec: UtteranceRecord) -> WavFile:
    """The WAV of ``rec``, read once; it must be at `SAMPLE_RATE`."""
    wav = read_wav_file(rec.audio_path)
    if wav.rate != SAMPLE_RATE:
        raise ValueError(f"{rec.audio_path}: sample rate {wav.rate} != manifest {SAMPLE_RATE}")
    return wav


def record_features(rec: UtteranceRecord, workspace: Workspace | None = None,
                    out: np.ndarray | None = None, wav: WavFile | None = None) -> np.ndarray:
    """The 32-dim feature matrix of one utterance (see `extract_features` for
    ``workspace`` and ``out``), from ``wav``, its WAV as `_read_record` returns
    it, or else read here."""
    wav = _read_record(rec) if wav is None else wav
    return extract_features(wav.samples(), workspace, out)


class SavedRows:
    """A saved feature store (`features.load_store`) whose rows
    `extract_feature_cache` copies in place of extracting. An utterance's rows
    are taken when the store holds its id with the same WAV (byte count and
    digest) and the same frame count; any other utterance is extracted.
    ``taken`` counts the utterances taken."""

    def __init__(self, store: FeatureStore):
        self.store = store
        self.taken = 0
        self._entries = {uid: (i, wav, n) for i, (uid, wav, n)
                         in enumerate(zip(store.ids, store.wavs, store.lengths.tolist()))}

    def rows(self, uid: str, wav: tuple[int, str], n_frames: int) -> np.ndarray | None:
        """The saved rows of ``uid`` if its WAV and frame count match, else None."""
        i, saved_wav, n = self._entries.get(uid, (None, None, None))
        return self.store.rows(i) if (saved_wav, n) == (wav, n_frames) else None


class WorkerDied(RuntimeError):
    """A forked task child that ended without sending back its result."""


def _run_tasks(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, in task order: run here with ``jobs <= 1``, else
    each task in a forked child of its own, at most ``jobs`` at a time, that sends
    its result back pickled down a pipe. A child's exception is raised again
    here, and a child that dies leaves a `WorkerDied` as its task's result.
    Children still running on return or on any exception, `KeyboardInterrupt`
    included, are killed and reaped."""
    if jobs <= 1:
        return [fn(task) for task in tasks]
    results = [None] * len(tasks)
    pending = list(enumerate(tasks))[::-1]
    running = {}  # pipe read end -> (task index, child pid, bytes read so far)
    try:
        while pending or running:
            while pending and len(running) < jobs:
                i, task = pending.pop()
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _task_child(fn, task, write)
                os.close(write)
                running[read] = (i, pid, bytearray())
            # drain every pipe as it fills: a child blocks on a full one until it is read
            for fd in select.select(list(running), [], [])[0]:
                i, pid, data = running[fd]
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    data += chunk
                    continue
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del running[fd]
                os.close(fd)
                if code != 0 or not data:
                    how = f"signal {-code}" if code < 0 else f"exit status {code}"
                    results[i] = WorkerDied(f"worker died: {how}")
                    continue
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                results[i] = value
    finally:
        for fd, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    return results


def _task_child(fn, task, write: int) -> None:
    """Send ``(True, fn(task))``, or ``(False, exception)``, down the pipe and
    exit: a child never returns into its parent's stack. An exception that does
    not survive pickling travels as a `RuntimeError` that names its type."""
    code = 1
    try:
        try:
            message = (True, fn(task))
        except Exception as exc:
            message = (False, exc)
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            except Exception:
                message = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(write, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _row_bound(rec: UtteranceRecord) -> int:
    """The most frames the WAV of ``rec`` can give, from its size alone: a PCM
    WAV's header takes at least 44 bytes, and each sample 2 more."""
    n_samples = (os.stat(rec.audio_path).st_size - 44) // 2
    return frame_count(n_samples) if n_samples >= WINDOW else 0


def _extract_chunk(matrix: np.ndarray, saved: SavedRows | None, task) -> list:
    """Write the features of a run of consecutive records into ``matrix``, one
    after another from row ``first``, reusing one workspace (and one BLAS
    thread, as the folds). Each WAV is read once; an utterance whose rows
    ``saved`` holds is copied from them, any other extracted. Returns, for each
    record, its frame count, its WAV as (byte count, digest) and whether it was
    copied. In a forked child the rows land in the parent's matrix too: it is a
    shared mapping."""
    first, records = task
    workspace, row, done = Workspace(), first, []
    with blas.one_thread():
        for rec in records:
            wav = _read_record(rec)
            try:
                n = frame_count(wav.n_samples)
            except FeatureError as exc:
                raise FeatureError(f"{rec.utterance_id} ({rec.audio_path}): {exc}") from None
            key = (len(wav.data), wav.digest())
            rows = None if saved is None else saved.rows(rec.utterance_id, key, n)
            if rows is None:
                record_features(rec, workspace, out=matrix[row : row + n], wav=wav)
            else:
                matrix[row : row + n] = rows
            done.append((n, key, rows is not None))
            row += n
    return done


def extract_feature_cache(records, jobs: int = 1, saved: SavedRows | None = None) -> FeatureStore:
    """The 32-dim feature matrix of every record, in a packed float32 store in
    record order, each WAV read once. An utterance whose rows ``saved`` holds
    (see `SavedRows`) is copied from them, any other extracted.

    The records are split into one task per job, each a run of consecutive
    records written to rows reserved for it from the WAVs' sizes, so the split
    never changes the bytes. With ``jobs > 1`` the tasks run in forked
    children, which write their rows into the reserved shared mapping and send
    back only each record's frame count and WAV; a child that dies raises
    `WorkerDied` naming its task's first utterance."""
    records = list(records)
    bounds = np.array([_row_bound(rec) for rec in records], dtype=np.int64)
    reserved = mapped_array((int(bounds.sum()), N_FEATURES), np.float32)
    size = max(1, -(-len(records) // max(jobs, 1)))
    tasks = [(int(bounds[:first].sum()), records[first : first + size])
             for first in range(0, len(records), size)]
    runs, done = [], []
    for (first, chunk), result in zip(tasks, _run_tasks(partial(_extract_chunk, reserved, saved), tasks, jobs)):
        if isinstance(result, WorkerDied):
            raise WorkerDied(f"front-end task from utterance {chunk[0].utterance_id}: {result}")
        runs.append((first, sum(n for n, _, _ in result)))
        done += result
    lengths = np.array([n for n, _, _ in done], dtype=np.int64)
    packed = np.cumsum([0] + [n for _, n in runs])  # where each task's rows go when packed
    matrix = reserved[: packed[-1]]
    if any(first != at for (first, _), at in zip(runs, packed)):
        # a WAV header longer than 44 bytes left a gap after a task's rows
        matrix = mapped_array(matrix.shape, np.float32)
        for (first, n), at in zip(runs, packed):
            matrix[at : at + n] = reserved[first : first + n]
    if saved is not None:
        saved.taken += sum(taken for _, _, taken in done)
    labels = [record_labels(rec) for rec in records]
    return FeatureStore(
        ids=tuple(rec.utterance_id for rec in records),
        matrix=matrix,
        starts=np.cumsum(lengths) - lengths,
        lengths=lengths,
        labels={task: np.array([lab[task] for lab in labels], dtype=np.int64)
                for task in TASK_CLASSES},
        paths=tuple(rec.audio_path for rec in records),
        wavs=tuple(key for _, key, _ in done),
    )


def fit_fold(fold: Fold, store: FeatureStore, network: MTLNetworkConfig, training: TrainConfig,
             fits: int = 1) -> tuple[TrainedModel, Standardizer]:
    """Fit the standardizer on the fold's training utterances, standardize the
    store once into float32, and train a model seeded with ``training.seed`` on
    the fold's train/validation split, on the thread count `blas.fit` gives
    one of ``fits`` fits that run at once. Returns the model and the
    standardizer; the standardized copy is freed on return.

    The statistics are rounded to float32 values, which a checkpoint stores
    exactly, so a saved model standardizes as its fold did."""
    train_positions = store.positions(fold.train_ids)
    fitted = fit_standardizer([store.rows(i) for i in train_positions])
    standardizer = Standardizer(*(s.astype(np.float32).astype(np.float64)
                                  for s in (fitted.mean, fitted.std)))
    data = standardized(store, standardizer)
    model = MultiTaskModel(network, seed=training.seed)
    with blas.fit(network.trunk, fits):
        trained = train(model, data.select(train_positions),
                        data.select(store.positions(fold.validation_ids)), training)
    return trained, standardizer


def hlf_matrix(model: MultiTaskModel, blocks, standardizer: Standardizer) -> np.ndarray:
    """The (utterances, 16) HLF table of every utterance of each store in
    ``blocks``, in order: each block is scored by `posteriors_in_blocks`, and
    each utterance's posteriors are reduced by `compute_hlf`."""
    return np.stack([compute_hlf(p) for p in posteriors_in_blocks(model, blocks, standardizer)])


def _run_fold(fold_index: int, fold: Fold, store: FeatureStore, config: PipelineConfig,
              fits: int = 1) -> FoldResult:
    fold_seed = derive_seed(config.seed, "fold", fold_index)
    trained, standardizer = fit_fold(fold, store, config.network,
                                     replace(config.training, seed=fold_seed), fits)

    def fold_hlf(positions):
        size = config.training.batch_size
        blocks = (store.select(positions[i : i + size]) for i in range(0, len(positions), size))
        return hlf_matrix(trained.model, blocks, standardizer)

    train_positions = store.positions(fold.train_ids)
    test_positions = store.positions(fold.test_ids)
    y_train = store.labels["emotion"][train_positions]
    y_test = store.labels["emotion"][test_positions]
    elm_cfg = replace(config.elm, seed=derive_seed(fold_seed, "elm"))
    elm_model = elm_fit(fold_hlf(train_positions), one_hot(y_train, len(EMOTION_CLASSES)), elm_cfg)
    _, predictions = elm_predict(elm_model, fold_hlf(test_positions))

    cm = metrics.confusion_matrix(y_test, predictions)
    return FoldResult.of(
        fold_index, fold,
        confusion=cm.tolist(),
        ua=metrics.unweighted_accuracy(cm),
        per_class_recall=metrics.per_class_recall(cm),
        best_epoch=trained.best_epoch,
        epochs_run=len(trained.history),
        best_val_total=trained.best_val_total,
    )


def fold_failure(result: FoldResult) -> str:
    """The line that names a failed fold and its error."""
    return f"fold {result.fold} ({result.test_group}): {result.error}"


def _fold_worker(store: FeatureStore, task, fits: int = 1) -> FoldResult:
    """One fold of ``fits`` that run at once, in a forked child or not. It runs
    on one BLAS thread, as a command does, and fits on its share of the cores
    (`blas.fit`): the children then share the cores instead of oversubscribing
    them, and a fold's results do not depend on the job count or on the
    caller's BLAS thread count."""
    fold_index, fold, config = task
    try:
        with blas.one_thread():
            return _run_fold(fold_index, fold, store, config, fits)
    except Exception as exc:  # fold failure is recorded, not fatal
        return FoldResult.of(fold_index, fold, error=f"{type(exc).__name__}: {exc}")


def _run_configs(manifests, configs: list[PipelineConfig], jobs: int) -> list[ExperimentReport]:
    """One report per configuration, all over the same manifests and features.

    The features are extracted once, then every fold of every configuration
    runs as one task; with ``jobs > 1`` each task runs in a forked child that
    inherits the feature store, and a child that dies fails its fold alone.
    A fold's results do not depend on its BLAS thread count (`_fold_worker`)
    and each report is assembled in fold order, so results do not depend on
    scheduling.
    """
    if isinstance(manifests, CorpusManifest):
        manifests = [manifests]
    records = merge_records(manifests)
    fold_sets = [make_folds(manifests, config.protocol, config.group_key, config.seed)
                 for config in configs]
    tasks = [(i, fold, config) for config, folds in zip(configs, fold_sets)
             for i, fold in enumerate(folds)]
    store = extract_feature_cache(records, jobs)
    results = _run_tasks(partial(_fold_worker, store, fits=min(jobs, len(tasks))), tasks, jobs)
    results = iter(FoldResult.of(*task[:2], error=str(result)) if isinstance(result, WorkerDied) else result
                   for task, result in zip(tasks, results))
    reports = []
    for config, config_folds in zip(configs, fold_sets):
        folds = [next(results) for _ in config_folds]
        uas = [r.ua for r in folds if r.ua is not None]
        reports.append(ExperimentReport(
            protocol=config.protocol,
            seed=config.seed,
            config=config,
            folds=folds,
            mean_ua=float(np.mean(uas)) if uas else None,
        ))
    return reports


def run_experiment(manifests, config: PipelineConfig, jobs: int = 1) -> ExperimentReport:
    """Run the configured protocol over the given manifests.

    Folds are independent; with ``jobs > 1`` they run in forked children, as
    does the feature extraction before them. Results do not depend on ``jobs``.
    """
    return _run_configs(manifests, [config], jobs)[0]


def compare_reports(report_a: ExperimentReport, report_b: ExperimentReport) -> dict:
    """Wilcoxon comparison of per-fold UAs between two runs over the same folds."""
    groups_a = [f.test_group for f in report_a.folds]
    groups_b = [f.test_group for f in report_b.folds]
    if groups_a != groups_b:
        raise ValueError("reports cover different folds")
    ua_a = [f.ua for f in report_a.folds]
    ua_b = [f.ua for f in report_b.folds]
    if any(u is None for u in ua_a + ua_b):
        raise ValueError("cannot compare reports with incomplete folds")
    return asdict(metrics.wilcoxon_signed_rank(ua_a, ua_b))


def write_report(report: ExperimentReport, out_dir: str | Path) -> Path:
    """Emit report.json, report.csv, and one confusion CSV per fold."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(asdict(report), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    emotion_names = [label.value for label in EMOTION_CLASSES]
    lines = ["fold,test_group,n_test,ua," + ",".join(f"recall_{n}" for n in emotion_names)]
    for f in report.folds:
        recalls = ["" if r is None else repr(r) for r in f.per_class_recall]
        ua = "" if f.ua is None else repr(f.ua)
        lines.append(f"{f.fold},{f.test_group},{f.n_test},{ua}," + ",".join(recalls))
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for f in report.folds:
        rows = [",".join(str(v) for v in row) for row in f.confusion]
        (out_dir / f"confusion_fold{f.fold}_{f.test_group.replace(':', '_')}.csv").write_text(
            "true\\pred," + ",".join(emotion_names) + "\n"
            + "\n".join(f"{emotion_names[i]},{row}" for i, row in enumerate(rows)) + "\n",
            encoding="utf-8",
        )
    return out_dir / "report.json"


# ---------------------------------------------------------------------------
# Configuration grid (trunk x subtask mode)
# ---------------------------------------------------------------------------

@dataclass
class GridReport:
    protocol: str
    seed: int
    config_names: list[str]
    test_groups: list[str]
    ua_table: dict[str, dict[str, float | None]]  # config -> test_group -> UA
    mean_ua: dict[str, float | None]
    comparisons: dict[str, dict]
    errors: dict[str, list[str]]


def grid_networks(base: MTLNetworkConfig) -> dict[str, MTLNetworkConfig]:
    """The network of each grid configuration, by name: ``base`` on each trunk
    (`MTLNetworkConfig.with_trunk`), so non-default sizes in ``base``
    (``xval --grid --layer-sizes 32,32``) go to both trunks."""
    return {
        grid_config_name(trunk, mode): replace(base.with_trunk(trunk), subtask_mode=mode)
        for trunk, mode in GRID_CONFIGS
    }


def run_grid(manifests, base_config: PipelineConfig, jobs: int = 1) -> GridReport:
    """Run every trunk/subtask configuration over the same folds and features,
    the folds of all configurations as the tasks of one `_run_tasks`."""
    networks = grid_networks(base_config.network)
    configs = [replace(base_config, network=network) for network in networks.values()]
    reports = dict(zip(networks, _run_configs(manifests, configs, jobs)))
    names = list(reports)

    test_groups = [f.test_group for f in reports[names[0]].folds]
    ua_table = {
        name: {f.test_group: f.ua for f in reports[name].folds} for name in names
    }
    comparisons: dict[str, dict] = {}
    for trunk in ("dnn", "lstm"):
        baseline = reports[grid_config_name(trunk, "none")]
        for mode in ("all", "gender", "naturalness"):
            name = grid_config_name(trunk, mode)
            key = f"{name} vs {grid_config_name(trunk, 'none')}"
            try:
                comparisons[key] = compare_reports(reports[name], baseline)
            except ValueError as exc:
                comparisons[key] = {"error": str(exc)}
    errors = {name: [fold_failure(f) for f in reports[name].folds if f.error] for name in names}
    return GridReport(
        protocol=base_config.protocol,
        seed=base_config.seed,
        config_names=names,
        test_groups=test_groups,
        ua_table=ua_table,
        mean_ua={name: reports[name].mean_ua for name in names},
        comparisons=comparisons,
        errors={k: v for k, v in errors.items() if v},
    )


def write_grid_report(grid: GridReport, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grid_report.json").write_text(
        json.dumps(asdict(grid), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    lines = ["test_group," + ",".join(grid.config_names)]
    for group in grid.test_groups:
        cells = []
        for name in grid.config_names:
            ua = grid.ua_table[name].get(group)
            cells.append("" if ua is None else repr(ua))
        lines.append(f"{group}," + ",".join(cells))
    mean_cells = ["" if grid.mean_ua[n] is None else repr(grid.mean_ua[n]) for n in grid.config_names]
    lines.append("mean," + ",".join(mean_cells))
    (out_dir / "grid_report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_dir / "grid_report.json"
