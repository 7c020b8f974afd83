"""Command-line entry point wiring every pipeline stage into reproducible runs.

Each command writes a resolved ``config.json`` next to its artifacts; re-running
a command from that file (or with the same flags and seed) reproduces the run
byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import blas
from . import experiment as exp_mod
from . import hlf as hlf_mod
from . import metrics as metrics_mod
from . import mtl as mtl_mod
from . import tsne as tsne_mod
from .codec import from_dict
from .corpus import (
    CorpusManifest,
    EmotionLabel,
    SynthConfig,
    emotion_index,
    generate_synthetic,
    load_manifest,
    merge_records,
    stratified_split,
)
from .elm import ELMConfig, elm_fit, elm_predict, save_elm
from .features import FeatureConfig, Standardizer, save_store, write_feature_csv
from .mtl import MTLNetworkConfig, TrainConfig
from .nn import one_hot


def _write_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad layer sizes: {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad layer sizes: {text!r}")
    return sizes


def _given(args, **flags) -> dict:
    """Config field -> flag value, for each flag that was given on the command line."""
    return {name: getattr(args, flag) for name, flag in flags.items()
            if getattr(args, flag, None) is not None}


def _network_config(args, base: MTLNetworkConfig) -> MTLNetworkConfig:
    overrides = _given(args, trunk="trunk", layer_sizes="layer_sizes",
                       subtask_mode="subtasks", subtask_weight="subtask_weight")
    if overrides.get("trunk", base.trunk) != base.trunk:
        # re-derive the context width and, unless given, the layer sizes for the new trunk
        overrides["context_frames"] = 0
        overrides.setdefault("layer_sizes", ())
    return replace(base, **overrides)


def _train_config(args, base: TrainConfig, seed: int) -> TrainConfig:
    return replace(base, seed=seed, **_given(
        args, batch_size="batch_size", lr="lr", dropout_p="dropout", max_epochs="max_epochs",
        patience="patience", lstm_chunk_frames="chunk_frames", dnn_window_stride="window_stride",
    ))


def _add_network_flags(sub):
    sub.add_argument("--trunk", choices=("dnn", "lstm"), default=None)
    sub.add_argument("--subtasks", choices=("all", "gender", "naturalness", "none"), default=None)
    sub.add_argument("--layer-sizes", type=_parse_sizes, dest="layer_sizes", default=None,
                     metavar="N,N[,N]", help="trunk layer widths, e.g. 256,256")
    sub.add_argument("--subtask-weight", type=float, dest="subtask_weight", default=None)


def _add_training_flags(sub):
    sub.add_argument("--batch-size", type=int, dest="batch_size", default=None)
    sub.add_argument("--lr", type=float, default=None)
    sub.add_argument("--dropout", type=float, default=None)
    sub.add_argument("--max-epochs", type=int, dest="max_epochs", default=None)
    sub.add_argument("--patience", type=int, default=None)
    sub.add_argument("--chunk-frames", type=int, dest="chunk_frames", default=None)
    sub.add_argument("--window-stride", type=int, dest="window_stride", default=None)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = SynthConfig(
        n_corpora=args.corpora,
        speakers_per_corpus=args.speakers,
        utterances_per_speaker=args.utts,
        duration_s=args.duration,
        seed=args.seed,
    )
    out_dir = Path(args.out)
    manifest = generate_synthetic(config, out_dir)
    _write_config(out_dir, {"command": "synth", **asdict(config)})
    print(f"wrote {len(manifest)} utterances across {len(manifest.corpora())} corpora to {out_dir}")
    return 0


def cmd_features(args) -> int:
    manifest = load_manifest(args.manifest)
    store = exp_mod.extract_feature_cache(manifest.records, FeatureConfig(), manifest.sample_rate)
    out_dir = Path(args.out)
    save_store(out_dir, store)
    if args.csv:
        for i, uid in enumerate(store.ids):
            write_feature_csv(out_dir / f"{uid}.csv", store.rows(i))
    _write_config(out_dir, {"command": "features", "manifest": str(Path(args.manifest).resolve())})
    print(f"extracted features for {len(manifest)} utterances to {out_dir}")
    return 0


def cmd_train(args) -> int:
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out)
    network = _network_config(args, MTLNetworkConfig())
    training = _train_config(args, TrainConfig(), args.seed)

    # features for the train/validation utterances only; the test split is just counted
    fold = stratified_split([manifest], seed=args.seed).folds[0]
    used = set(fold.train_ids) | set(fold.validation_ids)
    records = [r for r in manifest.records if r.utterance_id in used]
    store = exp_mod.extract_feature_cache(records, FeatureConfig(), manifest.sample_rate)
    with blas.one_thread():  # as an xval fold: the model does not depend on the BLAS thread count
        trained, standardizer, _ = exp_mod.fit_fold(fold, store, network, training)
    mtl_mod.save_model(
        out_dir / "model.ckpt",
        trained,
        extra_params={"standardizer.mean": standardizer.mean, "standardizer.std": standardizer.std},
    )
    mtl_mod.write_history_csv(out_dir / "history.csv", trained.history, network.heads)
    _write_config(out_dir, {
        "command": "train",
        "manifest": str(Path(args.manifest).resolve()),
        "network": asdict(network),
        "training": asdict(training),
        "seed": args.seed,
        "split": {"train": len(fold.train_ids), "val": len(fold.validation_ids),
                  "test": len(fold.test_ids)},
    })
    print(f"trained {network.trunk} model (best epoch {trained.best_epoch}, "
          f"val loss {trained.best_val_total:.4f}) -> {out_dir / 'model.ckpt'}")
    return 0


def cmd_hlf(args) -> int:
    path = Path(args.model)
    model, header, extras = mtl_mod.load_model(path)
    if "standardizer.mean" not in extras or "standardizer.std" not in extras:
        raise ValueError(f"checkpoint {path} carries no standardizer statistics")
    standardizer = Standardizer(mean=extras["standardizer.mean"], std=extras["standardizer.std"])
    manifest = load_manifest(args.manifest)
    records, size = manifest.records, header["training"]["batch_size"]
    # extracted and scored in blocks of the training batch size, so the working set stays one block
    blocks = (exp_mod.extract_feature_cache(records[i : i + size], FeatureConfig(), manifest.sample_rate)
              for i in range(0, len(records), size))
    posteriors = mtl_mod.posteriors_in_blocks(model, blocks, standardizer)
    rows = [(rec.utterance_id, hlf_mod.compute_hlf(post, args.theta), rec)
            for rec, post in zip(manifest.records, posteriors)]
    out_path = Path(args.out)
    hlf_mod.write_hlf_csv(out_path, rows)
    print(f"wrote {len(rows)} high-level feature vectors to {out_path}")
    return 0


def cmd_elm(args) -> int:
    ids, x, labels = hlf_mod.read_hlf_csv(args.hlf)
    y = np.array([emotion_index(EmotionLabel(v)) for v in labels["emotion"]], dtype=np.int64)
    config = ELMConfig(n_hidden=args.n_hidden, ridge=args.ridge, seed=args.seed)
    model = elm_fit(x, one_hot(y, 4), config)
    out_path = Path(args.out)
    save_elm(out_path, model)
    print(f"fit ELM ({config.n_hidden} hidden units) on {len(ids)} utterances -> {out_path}")
    if args.eval is not None:
        eval_ids, eval_x, eval_labels = hlf_mod.read_hlf_csv(args.eval)
        eval_y = np.array([emotion_index(EmotionLabel(v)) for v in eval_labels["emotion"]], dtype=np.int64)
        _, predictions = elm_predict(model, eval_x)
        cm = metrics_mod.confusion_matrix(eval_y, predictions)
        ua = metrics_mod.unweighted_accuracy(cm)
        print(f"eval UA over {len(eval_ids)} utterances: {ua:.4f}")
        print("confusion (rows true, cols predicted):")
        for row in cm:
            print("  " + " ".join(f"{v:5d}" for v in row))
    return 0


def cmd_xval(args) -> int:
    if args.config is not None:
        saved = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if "pipeline" not in saved:
            raise ValueError(f"{args.config} has no 'pipeline' section; "
                             "xval --config takes the config.json of an xval run")
        base = from_dict(exp_mod.PipelineConfig, saved["pipeline"])
    else:
        base = exp_mod.PipelineConfig()
    seed = args.seed if args.seed is not None else base.seed
    config = replace(
        base,
        network=_network_config(args, base.network),
        training=_train_config(args, base.training, seed),
        seed=seed,
        **_given(args, protocol="protocol", group_key="group_key"),
    )
    manifests = [load_manifest(path) for path in args.manifest]
    if config.protocol == "within" and args.corpus is not None:
        records = tuple(r for r in merge_records(manifests) if r.corpus_id == args.corpus)
        if not records:
            raise ValueError(f"no records for corpus {args.corpus!r}")
        manifests = [CorpusManifest(records=records, sample_rate=manifests[0].sample_rate)]

    out_dir = Path(args.out)
    _write_config(out_dir, {"command": "xval", "grid": bool(args.grid),
                            "jobs": args.jobs, "pipeline": asdict(config)})
    if args.grid:
        grid = exp_mod.run_grid(manifests, config, jobs=args.jobs)
        exp_mod.write_grid_report(grid, out_dir)
        print(f"grid over {len(grid.test_groups)} folds x {len(grid.config_names)} configs -> {out_dir}")
        for name in grid.config_names:
            mean = grid.mean_ua[name]
            print(f"  {name:18s} mean UA = {'n/a' if mean is None else f'{mean:.4f}'}")
        failures = [f"{name} {line}" for name, lines in grid.errors.items() for line in lines]
    else:
        report = exp_mod.run_experiment(manifests, config, jobs=args.jobs)
        exp_mod.write_report(report, out_dir)
        mean = "n/a" if report.mean_ua is None else f"{report.mean_ua:.4f}"
        print(f"{config.protocol} protocol, {len(report.folds)} folds, mean UA = {mean} -> {out_dir}")
        failures = [exp_mod.fold_failure(f) for f in report.folds if f.error]
    for line in failures:
        print(f"  FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_embed(args) -> int:
    ids, x, labels = hlf_mod.read_hlf_csv(args.input)
    config = tsne_mod.TsneConfig(
        perplexity=args.perplexity,
        n_iter=args.iters,
        seed=args.seed,
    )
    embedding, trace = tsne_mod.tsne_embed(x, config)
    out_path = Path(args.out)
    tsne_mod.write_embedding_csv(out_path, ids, embedding, labels)
    if args.svg is not None:
        tsne_mod.write_embedding_svg(args.svg, embedding, labels["emotion"])
    print(f"embedded {len(ids)} points (final KL {trace[-1]:.4f}) -> {out_path}")
    return 0


def cmd_report(args) -> int:
    if args.compare is not None:
        report_a, report_b = (
            from_dict(exp_mod.ExperimentReport, json.loads(Path(path).read_text(encoding="utf-8")))
            for path in args.compare
        )
        result = exp_mod.compare_reports(report_a, report_b)
        print(json.dumps(result, sort_keys=True, indent=2))
        return 0
    run_dir = Path(args.run)
    grid_path = run_dir / "grid_report.json"
    report_path = run_dir / "report.json"
    if grid_path.exists():
        data = json.loads(grid_path.read_text(encoding="utf-8"))
        names = data["config_names"]
        print("test_group " + " ".join(f"{n:>18s}" for n in names))
        for group in data["test_groups"]:
            cells = []
            for name in names:
                ua = data["ua_table"][name].get(group)
                cells.append("     n/a" if ua is None else f"{ua:8.4f}")
            print(f"{group:10s} " + " ".join(f"{c:>18s}" for c in cells))
        means = ["     n/a" if data["mean_ua"][n] is None else f"{data['mean_ua'][n]:8.4f}" for n in names]
        print(f"{'mean':10s} " + " ".join(f"{c:>18s}" for c in means))
        for key, cmp_result in sorted(data.get("comparisons", {}).items()):
            print(f"{key}: {json.dumps(cmp_result, sort_keys=True)}")
        return 0
    if report_path.exists():
        data = json.loads(report_path.read_text(encoding="utf-8"))
        print(f"protocol: {data['protocol']}  seed: {data['seed']}")
        for fold in data["folds"]:
            ua = "  FAILED" if fold["ua"] is None else f"{fold['ua']:8.4f}"
            print(f"fold {fold['fold']:2d} test={fold['test_group']:12s} n={fold['n_test']:4d} UA={ua}")
        mean = data["mean_ua"]
        print(f"mean UA: {'n/a' if mean is None else f'{mean:.4f}'}")
        return 0
    raise FileNotFoundError(f"no report.json or grid_report.json under {run_dir}")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sermtl",
        description="Multi-task speech emotion recognition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus set")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpora", type=int, default=2)
    p.add_argument("--speakers", type=int, default=4)
    p.add_argument("--utts", type=int, default=8)
    p.add_argument("--duration", type=float, default=1.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract a manifest's frame features into a feature store")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true", help="also write per-utterance CSVs")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train one model on a stratified split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_network_flags(p)
    _add_training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("hlf", help="compute high-level features with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta", type=float, default=0.2)
    p.set_defaults(func=cmd_hlf)

    p = sub.add_parser("elm", help="fit (and optionally evaluate) the ELM back-end")
    p.add_argument("--hlf", required=True, help="training HLF table (CSV)")
    p.add_argument("--out", required=True)
    p.add_argument("--eval", default=None, help="held-out HLF table to score")
    p.add_argument("--n-hidden", type=int, dest="n_hidden", default=120)
    p.add_argument("--ridge", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_elm)

    p = sub.add_parser("xval", help="run a within/cross/aggregated experiment")
    p.add_argument("--manifest", action="append", required=True,
                   help="manifest CSV (repeat for multiple groups)")
    p.add_argument("--out", required=True)
    p.add_argument("--protocol", choices=exp_mod.PROTOCOLS, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--group-key", choices=("corpus", "corpus_naturalness"),
                   dest="group_key", default=None)
    p.add_argument("--corpus", default=None, help="restrict the within protocol to one corpus id")
    p.add_argument("--grid", action="store_true",
                   help="run all trunk x subtask configurations over the same folds")
    p.add_argument("--config", default=None, help="config.json from a previous run")
    _add_network_flags(p)
    _add_training_flags(p)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("embed", help="t-SNE projection of an HLF table")
    p.add_argument("--input", required=True, help="HLF table (CSV)")
    p.add_argument("--out", required=True, help="output embedding CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--svg", default=None, help="also write a static SVG scatter")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("report", help="render a run's report")
    p.add_argument("--run", default=None, help="run directory containing report.json")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                   help="compare two report.json files (Wilcoxon over per-fold UAs)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if getattr(args, "command", None) == "report" and args.run is None and args.compare is None:
        print("error: report needs --run or --compare", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
