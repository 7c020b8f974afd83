"""Experiment orchestration: per-fold pipeline runs (features -> standardize ->
train -> posteriors -> HLF -> ELM -> metrics), report assembly, and the
eight-configuration trunk/subtask grid."""
from __future__ import annotations

import json
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
    stratified_split,
)
from .elm import ELMConfig, elm_fit, elm_predict
from .features import (
    FeatureConfig,
    Standardizer,
    apply_standardizer,
    extract_features,
    fit_standardizer,
)
from .hlf import compute_hlf
from .mtl import (
    LabeledFeatures,
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


def record_features(rec: UtteranceRecord, feature_config: FeatureConfig,
                    sample_rate: int) -> np.ndarray:
    """The 32-dim feature matrix of one utterance; its WAV must be at the manifest's rate."""
    samples, sr = read_wav(rec.audio_path)
    if sr != sample_rate:
        raise ValueError(f"{rec.audio_path}: sample rate {sr} != manifest {sample_rate}")
    return extract_features(samples, sr, feature_config)


def extract_feature_cache(records, feature_config: FeatureConfig,
                          sample_rate: int) -> dict[str, np.ndarray]:
    """Extract the 32-dim feature matrix once per utterance."""
    return {rec.utterance_id: record_features(rec, feature_config, sample_rate) for rec in records}


def build_fold_plan(manifests, config: PipelineConfig) -> FoldPlan:
    if config.protocol == "within":
        return make_folds(manifests, SplitMode.LOSO, seed=config.seed)
    if config.protocol == "cross":
        return make_folds(manifests, SplitMode.LOCO, group_key=config.group_key, seed=config.seed)
    return stratified_split(manifests, config.fractions, seed=config.seed)


def fit_fold(fold: Fold, feats: dict[str, np.ndarray], labels_by_id: dict[str, dict[str, int]],
             network: MTLNetworkConfig, training: TrainConfig
             ) -> tuple[TrainedModel, Standardizer, dict[str, LabeledFeatures]]:
    """Fit the standardizer on the fold's training utterances, standardize each
    utterance in ``feats`` once, and train a model seeded with ``training.seed``
    on the fold's train/validation split.

    The statistics are rounded to float32 values, which a checkpoint stores
    exactly, so a saved model standardizes as its fold did."""
    fitted = fit_standardizer([feats[uid] for uid in fold.train_ids])
    standardizer = Standardizer(*(s.astype(np.float32).astype(np.float64)
                                  for s in (fitted.mean, fitted.std)))
    data = {
        uid: LabeledFeatures(uid, apply_standardizer(standardizer, matrix), labels_by_id[uid])
        for uid, matrix in feats.items()
    }
    model = MultiTaskModel(network, seed=training.seed)
    trained = train(model, [data[uid] for uid in fold.train_ids],
                    [data[uid] for uid in fold.validation_ids], training)
    return trained, standardizer, data


def _run_fold(fold_index: int, fold: Fold, labels_by_id: dict[str, dict[str, int]],
              feats: dict[str, np.ndarray], config: PipelineConfig) -> FoldResult:
    fold_seed = derive_seed(config.seed, "fold", fold_index)
    trained, _, data = fit_fold(fold, feats, labels_by_id, config.network,
                                replace(config.training, seed=fold_seed))

    def hlf_matrix(ids):
        posteriors = posteriors_in_blocks(trained.model, (data[uid].features for uid in ids),
                                          config.training.batch_size)
        return np.stack([compute_hlf(p, config.hlf_theta) for p in posteriors])

    y_train = np.array([labels_by_id[uid]["emotion"] for uid in fold.train_ids], dtype=np.int64)
    y_test = np.array([labels_by_id[uid]["emotion"] for uid in fold.test_ids], dtype=np.int64)
    elm_cfg = replace(config.elm, seed=derive_seed(fold_seed, "elm"))
    elm_model = elm_fit(hlf_matrix(fold.train_ids), one_hot(y_train, 4), elm_cfg)
    _, predictions = elm_predict(elm_model, hlf_matrix(fold.test_ids))

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


def _fold_worker(payload) -> FoldResult:
    """One fold, on one BLAS thread in a worker process or not: the workers then
    share the cores instead of oversubscribing them, and a fold's results do not
    depend on the job count or on the caller's BLAS thread count."""
    fold_index, fold, labels_by_id, feats, config = payload
    try:
        with blas.one_thread():
            return _run_fold(fold_index, fold, labels_by_id, feats, config)
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


def run_experiment(manifests, config: PipelineConfig, jobs: int = 1,
                   feature_cache: dict[str, np.ndarray] | None = None) -> ExperimentReport:
    """Run the configured protocol over the given manifests.

    Folds are independent; with ``jobs > 1`` they run in worker processes.
    Every fold runs on one BLAS thread and the report is assembled in fold
    order either way, so results do not depend on scheduling.
    """
    if isinstance(manifests, CorpusManifest):
        manifests = [manifests]
    records = merge_records(manifests)
    plan = build_fold_plan(manifests, config)
    sample_rate = manifests[0].sample_rate
    if feature_cache is None:
        feature_cache = extract_feature_cache(records, config.features, sample_rate)
    labels_by_id = {rec.utterance_id: record_labels(rec) for rec in records}

    payloads = [
        (i, fold, labels_by_id, feature_cache, config) for i, fold in enumerate(plan.folds)
    ]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_fold_worker, payloads))
    else:
        results = [_fold_worker(p) for p in payloads]
    results.sort(key=lambda r: r.fold)

    uas = [r.ua for r in results if r.ua is not None]
    return ExperimentReport(
        protocol=config.protocol,
        seed=config.seed,
        config=config,
        folds=results,
        mean_ua=float(np.mean(uas)) if uas else None,
    )


def compare_reports(report_a: ExperimentReport, report_b: ExperimentReport,
                    alpha: float = 0.05) -> dict:
    """Wilcoxon comparison of per-fold UAs between two runs over the same folds."""
    groups_a = [f.test_group for f in report_a.folds]
    groups_b = [f.test_group for f in report_b.folds]
    if groups_a != groups_b:
        raise ValueError("reports cover different folds")
    ua_a = [f.ua for f in report_a.folds]
    ua_b = [f.ua for f in report_b.folds]
    if any(u is None for u in ua_a + ua_b):
        raise ValueError("cannot compare reports with incomplete folds")
    try:
        result = metrics.wilcoxon_signed_rank(ua_a, ua_b, alpha=alpha)
    except ValueError as exc:
        if "all differences zero" in str(exc):
            return {"w_plus": 0.0, "w_minus": 0.0, "n": 0, "p_value": 1.0,
                    "significant": False, "method": "degenerate",
                    "note": "all differences zero"}
        raise
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
    """Run every trunk/subtask configuration over the same folds and features."""
    if isinstance(manifests, CorpusManifest):
        manifests = [manifests]
    records = merge_records(manifests)
    feature_cache = extract_feature_cache(records, base_config.features, manifests[0].sample_rate)

    reports = {
        name: run_experiment(manifests, replace(base_config, network=network), jobs=jobs,
                             feature_cache=feature_cache)
        for name, network in grid_networks(base_config.network).items()
    }
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
    errors = {
        name: [f"fold {f.fold} ({f.test_group}): {f.error}" for f in reports[name].folds if f.error]
        for name in names
    }
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
