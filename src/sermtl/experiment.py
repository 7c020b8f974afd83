"""Experiment orchestration: per-fold pipeline runs (features -> standardize ->
train -> posteriors -> HLF -> ELM -> metrics), report assembly, and the
eight-configuration trunk/subtask grid."""
from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import blas, metrics
from . import corpus as corpus_mod
from .corpus import (
    CorpusManifest,
    Fold,
    FoldPlan,
    SplitMode,
    UtteranceRecord,
    emotion_index,
    gender_index,
    make_folds,
    merge_records,
    naturalness_index,
    read_wav,
    read_wav_length,
    stratified_split,
)
from .elm import ELMConfig, elm_fit, elm_predict
from .features import (
    N_FEATURES,
    FeatureConfig,
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
    default_layer_sizes,
    posteriors_in_blocks,
    train,
)
from .nn import one_hot
from .seeding import derive_seed

PROTOCOLS = ("within", "cross", "aggregated")

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
    features: FeatureConfig = field(default_factory=FeatureConfig)
    elm: ELMConfig = field(default_factory=ELMConfig)
    hlf_theta: float = 0.2
    seed: int = 0
    group_key: str = "corpus"
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {self.protocol!r}")


@dataclass
class FoldResult:
    fold: int
    test_group: str
    n_train: int
    n_val: int
    n_test: int
    confusion: list[list[int]]
    ua: float | None
    per_class_recall: list[float | None]
    best_epoch: int
    epochs_run: int
    best_val_total: float | None
    error: str | None = None


@dataclass
class ExperimentReport:
    protocol: str
    seed: int
    config: PipelineConfig
    folds: list[FoldResult]
    mean_ua: float | None


def record_labels(rec: UtteranceRecord) -> dict[str, int]:
    return {
        "emotion": emotion_index(rec.emotion),
        "gender": gender_index(rec.gender),
        "naturalness": naturalness_index(rec.naturalness),
    }


def _check_rate(rec: UtteranceRecord, sr: int, sample_rate: int) -> None:
    if sr != sample_rate:
        raise ValueError(f"{rec.audio_path}: sample rate {sr} != manifest {sample_rate}")


def record_features(rec: UtteranceRecord, feature_config: FeatureConfig, sample_rate: int,
                    workspace: Workspace | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The 32-dim feature matrix of one utterance (see `extract_features` for
    ``workspace`` and ``out``); its WAV must be at the manifest's rate."""
    samples, sr = read_wav(rec.audio_path)
    _check_rate(rec, sr, sample_rate)
    return extract_features(samples, sr, feature_config, workspace, out)


# Utterances per front-end task. Each utterance is written to its own rows of the
# store, so neither this nor the job count changes the store's bytes.
EXTRACT_CHUNK = 16

# The feature store of a fold-pool worker, inherited at fork (see `_Workers`).
_worker_store: FeatureStore | None = None


def _inherit(store: FeatureStore) -> None:
    global _worker_store
    _worker_store = store


def _call_with_store(call):
    fn, task = call
    return fn(_worker_store, task)


class _Workers:
    """Runs ``fn(store, task)`` over a list of tasks and returns the results in
    order: in this process with ``jobs <= 1``, else in a pool of ``jobs`` forked
    workers. The workers inherit the store at fork, never pickled, so only tasks
    and results cross between processes; a store that workers write into must
    be shared memory (`_empty_store` with ``shared=True``)."""

    def __init__(self, store: FeatureStore, jobs: int = 1):
        self.store = store
        self._pool = None
        if jobs > 1:
            self._pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"),
                                             initializer=_inherit, initargs=(store,))

    def map(self, fn, tasks) -> list:
        if self._pool is None:
            return [fn(self.store, task) for task in tasks]
        return list(self._pool.map(_call_with_store, [(fn, task) for task in tasks]))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown()


def _empty_store(records, feature_config: FeatureConfig, sample_rate: int,
                 shared: bool = False) -> FeatureStore:
    """A packed store for ``records`` with its labels and row ranges set, sized
    from the WAV headers; the matrix is left for `extract_feature_cache` to fill.
    Forked workers write into and read from a ``shared`` one."""
    lengths = []
    for rec in records:
        n_samples, sr = read_wav_length(rec.audio_path)
        _check_rate(rec, sr, sample_rate)
        lengths.append(frame_count(n_samples, sr, feature_config))
    lengths = np.array(lengths, dtype=np.int64)
    shape = (int(lengths.sum()), N_FEATURES)
    labels = [record_labels(rec) for rec in records]
    return FeatureStore(
        ids=tuple(rec.utterance_id for rec in records),
        matrix=mapped_array(shape, np.float32, shared=True) if shared else np.empty(shape, np.float32),
        starts=np.cumsum(lengths) - lengths,
        lengths=lengths,
        labels={task: np.array([lab[task] for lab in labels], dtype=np.int64)
                for task in ("emotion", "gender", "naturalness")},
    )


def _extract_chunk(store: FeatureStore, task) -> None:
    """Write the features of a run of consecutive records into their store rows,
    reusing one workspace (and one BLAS thread, as the folds)."""
    first, records, feature_config, sample_rate = task
    workspace = Workspace()
    with blas.one_thread():
        for position, rec in enumerate(records, first):
            record_features(rec, feature_config, sample_rate, workspace, out=store.rows(position))


def extract_feature_cache(records, feature_config: FeatureConfig, sample_rate: int,
                          workers: _Workers | None = None) -> FeatureStore:
    """Extract the 32-dim feature matrix of every record, once, into a packed
    float32 store in record order, `EXTRACT_CHUNK` utterances per task.

    With ``workers`` the tasks run there and fill ``workers.store`` (from
    `_empty_store`); otherwise they run here, into a new store."""
    records = list(records)
    if workers is None:
        workers = _Workers(_empty_store(records, feature_config, sample_rate))
    workers.map(_extract_chunk, [
        (first, tuple(records[first : first + EXTRACT_CHUNK]), feature_config, sample_rate)
        for first in range(0, len(records), EXTRACT_CHUNK)
    ])
    return workers.store


def build_fold_plan(manifests, config: PipelineConfig) -> FoldPlan:
    if config.protocol == "within":
        return make_folds(manifests, SplitMode.LOSO, seed=config.seed)
    if config.protocol == "cross":
        return make_folds(manifests, SplitMode.LOCO, group_key=config.group_key, seed=config.seed)
    return stratified_split(manifests, config.fractions, seed=config.seed)


def fit_fold(fold: Fold, store: FeatureStore, network: MTLNetworkConfig, training: TrainConfig
             ) -> tuple[TrainedModel, Standardizer, FeatureStore]:
    """Fit the standardizer on the fold's training utterances, standardize the
    store once into float32, and train a model seeded with ``training.seed`` on
    the fold's train/validation split. Returns the model, the standardizer and
    the standardized store.

    The statistics are rounded to float32 values, which a checkpoint stores
    exactly, so a saved model standardizes as its fold did."""
    train_positions = store.positions(fold.train_ids)
    fitted = fit_standardizer([store.rows(i) for i in train_positions])
    standardizer = Standardizer(*(s.astype(np.float32).astype(np.float64)
                                  for s in (fitted.mean, fitted.std)))
    data = standardized(store, standardizer)
    model = MultiTaskModel(network, seed=training.seed)
    trained = train(model, data.select(train_positions),
                    data.select(store.positions(fold.validation_ids)), training)
    return trained, standardizer, data


def _run_fold(fold_index: int, fold: Fold, store: FeatureStore, config: PipelineConfig) -> FoldResult:
    fold_seed = derive_seed(config.seed, "fold", fold_index)
    trained, standardizer, _ = fit_fold(fold, store, config.network,
                                        replace(config.training, seed=fold_seed))

    def hlf_matrix(positions):
        size = config.training.batch_size
        blocks = (store.select(positions[i : i + size]) for i in range(0, len(positions), size))
        posteriors = posteriors_in_blocks(trained.model, blocks, standardizer)
        return np.stack([compute_hlf(p, config.hlf_theta) for p in posteriors])

    train_positions = store.positions(fold.train_ids)
    test_positions = store.positions(fold.test_ids)
    y_train = store.labels["emotion"][train_positions]
    y_test = store.labels["emotion"][test_positions]
    elm_cfg = replace(config.elm, seed=derive_seed(fold_seed, "elm"))
    elm_model = elm_fit(hlf_matrix(train_positions), one_hot(y_train, 4), elm_cfg)
    _, predictions = elm_predict(elm_model, hlf_matrix(test_positions))

    cm = metrics.confusion_matrix(y_test, predictions)
    return FoldResult(
        fold=fold_index,
        test_group=fold.test_group,
        n_train=len(fold.train_ids),
        n_val=len(fold.validation_ids),
        n_test=len(fold.test_ids),
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


def _fold_worker(store: FeatureStore, task) -> FoldResult:
    """One fold, on one BLAS thread in a worker process or not: the workers then
    share the cores instead of oversubscribing them, and a fold's results do not
    depend on the job count or on the caller's BLAS thread count."""
    fold_index, fold, config = task
    try:
        with blas.one_thread():
            return _run_fold(fold_index, fold, store, config)
    except Exception as exc:  # fold failure is recorded, not fatal
        return FoldResult(
            fold=fold_index,
            test_group=fold.test_group,
            n_train=len(fold.train_ids),
            n_val=len(fold.validation_ids),
            n_test=len(fold.test_ids),
            confusion=[[0] * 4 for _ in range(4)],
            ua=None,
            per_class_recall=[None] * 4,
            best_epoch=-1,
            epochs_run=0,
            best_val_total=None,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_configs(manifests, configs: list[PipelineConfig], jobs: int) -> list[ExperimentReport]:
    """One report per configuration, all over the same manifests and features
    (those of ``configs[0].features``).

    The features are extracted once, then every fold of every configuration
    runs as one task; with ``jobs > 1`` both run in one pool of forked workers
    that share the feature store. Every fold runs on one BLAS thread and each
    report is assembled in fold order, so results do not depend on scheduling.
    """
    if isinstance(manifests, CorpusManifest):
        manifests = [manifests]
    records = merge_records(manifests)
    plans = [build_fold_plan(manifests, config) for config in configs]
    tasks = [(i, fold, config) for config, plan in zip(configs, plans)
             for i, fold in enumerate(plan.folds)]
    features, sample_rate = configs[0].features, manifests[0].sample_rate
    store = _empty_store(records, features, sample_rate, shared=jobs > 1)
    with _Workers(store, jobs) as workers:
        extract_feature_cache(records, features, sample_rate, workers)
        results = iter(workers.map(_fold_worker, tasks))
    reports = []
    for config, plan in zip(configs, plans):
        folds = [next(results) for _ in plan.folds]
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

    Folds are independent; with ``jobs > 1`` they run in worker processes, as
    does the feature extraction before them. Results do not depend on ``jobs``.
    """
    return _run_configs(manifests, [config], jobs)[0]


def compare_reports(report_a: ExperimentReport, report_b: ExperimentReport) -> dict:
    """Wilcoxon comparison of per-fold UAs between two runs over the same folds;
    equal UAs on every fold give the ``degenerate`` result."""
    groups_a = [f.test_group for f in report_a.folds]
    groups_b = [f.test_group for f in report_b.folds]
    if groups_a != groups_b:
        raise ValueError("reports cover different folds")
    ua_a = [f.ua for f in report_a.folds]
    ua_b = [f.ua for f in report_b.folds]
    if any(u is None for u in ua_a + ua_b):
        raise ValueError("cannot compare reports with incomplete folds")
    if ua_a == ua_b:
        return {"w_plus": 0.0, "w_minus": 0.0, "n": 0, "p_value": 1.0,
                "significant": False, "method": "degenerate",
                "note": "all differences zero"}
    result = metrics.wilcoxon_signed_rank(ua_a, ua_b)
    return {
        "w_plus": result.w_plus,
        "w_minus": result.w_minus,
        "n": result.n,
        "p_value": result.p_value,
        "significant": result.significant,
        "method": result.method,
    }


def write_report(report: ExperimentReport, out_dir: str | Path) -> Path:
    """Emit report.json, report.csv, and one confusion CSV per fold."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(asdict(report), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    emotion_names = [label.value for label in corpus_mod.EMOTION_CLASSES]
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
    """The network of each grid configuration, by name.

    Each trunk gets its own context width and, while ``base`` has its trunk's
    default layer sizes, its own default sizes (DNN 3x256, LSTM 2x256). Other
    sizes in ``base`` (``xval --grid --layer-sizes 32,32``) go to both trunks.
    """
    sizes = () if base.layer_sizes == default_layer_sizes(base.trunk) else base.layer_sizes
    return {
        grid_config_name(trunk, mode): replace(base, trunk=trunk, subtask_mode=mode,
                                               context_frames=0, layer_sizes=sizes)
        for trunk, mode in GRID_CONFIGS
    }


def run_grid(manifests, base_config: PipelineConfig, jobs: int = 1) -> GridReport:
    """Run every trunk/subtask configuration over the same folds and features,
    all folds of all configurations in one pool."""
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
