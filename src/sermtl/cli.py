"""Command-line entry point wiring every pipeline stage into reproducible runs.

A flag that sets a config field is stored under the field's name and has no
default of its own: a command's settings are its config dataclasses' defaults
with the given flags applied. Every command runs on one BLAS thread, except an
LSTM's fit (in `train` and a serial `xval`) and `hlf`'s scoring pass, which
run on every core (see `blas`).

Each command that writes artifacts records its resolved settings: ``synth``,
``train`` and ``xval`` in ``<out>/config.json``, and ``hlf``, ``elm`` and
``embed``, whose ``--out`` is a file, in ``<out>.config.json``. Re-running a
command with those settings (or with the same flags and seed) on the same inputs
reproduces the run byte for byte; ``xval`` records no manifest paths, so its
replay passes the same ``--manifest`` flags.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import blas
from . import experiment as exp_mod
from . import hlf as hlf_mod
from . import metrics as metrics_mod
from . import mtl as mtl_mod
from . import tsne as tsne_mod
from .codec import from_file_dict
from .corpus import (
    EMOTION_CLASSES,
    PROTOCOLS,
    CorpusManifest,
    SynthConfig,
    generate_synthetic,
    load_manifest,
    merge_records,
    parse_label,
    stratified_split,
)
from .elm import ELMConfig, elm_fit, elm_predict, save_elm
from .features import STORE_MATRIX, load_store, save_store
from .mtl import MTLNetworkConfig, TrainConfig
from .nn import one_hot


def _write_config(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _sidecar(out_path: Path) -> Path:
    """Where a command whose ``--out`` is a file records its settings."""
    return out_path.with_name(out_path.name + ".config.json")


def _absolute(path: str | None) -> str | None:
    return None if path is None else str(Path(path).resolve())


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad layer sizes: {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad layer sizes: {text!r}")
    return sizes


def _config(args, base, **fixed):
    """``base`` with ``fixed``, then with each of its fields whose flag was given."""
    given = {f.name: getattr(args, f.name) for f in fields(base)
             if getattr(args, f.name, None) is not None}
    return replace(base, **{**fixed, **given})


def _network_config(args, base: MTLNetworkConfig) -> MTLNetworkConfig:
    return _config(args, base if args.trunk is None else base.with_trunk(args.trunk))


def _emotion_targets(labels) -> np.ndarray:
    """The emotion class index of each row of an HLF table's labels."""
    return np.array([EMOTION_CLASSES.index(parse_label("emotion", v)) for v in labels["emotion"]],
                    dtype=np.int64)


def _decode(cls, path, section: str | None = None):
    """The ``cls`` that the JSON file at ``path`` holds, or holds under the key
    ``section``; every refusal names the file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if section is not None:
        if not isinstance(data, dict) or section not in data:
            raise ValueError(f"{path} has no {section!r} section")
        data = data[section]
    return from_file_dict(cls, data, path)


def _add_network_flags(sub):
    sub.add_argument("--trunk", choices=("dnn", "lstm"))
    sub.add_argument("--subtasks", choices=("all", "gender", "naturalness", "none"),
                     dest="subtask_mode")
    sub.add_argument("--layer-sizes", type=_parse_sizes, metavar="N,N[,N]",
                     help="trunk layer widths, e.g. 256,256")
    sub.add_argument("--subtask-weight", type=float)


def _add_training_flags(sub):
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--dropout", type=float, dest="dropout_p")
    sub.add_argument("--max-epochs", type=int)
    sub.add_argument("--patience", type=int)
    sub.add_argument("--chunk-frames", type=int, dest="lstm_chunk_frames")
    sub.add_argument("--window-stride", type=int, dest="dnn_window_stride")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = _config(args, SynthConfig())
    out_dir = Path(args.out)
    manifest = generate_synthetic(config, out_dir)
    _write_config(out_dir / "config.json", {"command": "synth", **asdict(config)})
    print(f"wrote {len(manifest)} utterances across {len(manifest.corpora())} corpora to {out_dir}")
    return 0


def cmd_train(args) -> int:
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out)
    network = _network_config(args, MTLNetworkConfig())
    training = _config(args, TrainConfig())

    # features for the train/validation utterances only; the test split is just counted
    (fold,) = stratified_split([manifest], seed=training.seed)
    used = set(fold.train_ids) | set(fold.validation_ids)
    records = [r for r in manifest.records if r.utterance_id in used]
    store = exp_mod.extract_feature_cache(records)
    trained, standardizer = exp_mod.fit_fold(fold, store, network, training)
    mtl_mod.save_model(out_dir / "model.ckpt", trained, standardizer)
    save_store(out_dir, store)  # for `hlf` to take rows from
    mtl_mod.write_history_csv(out_dir / "history.csv", trained.history, network.heads)
    _write_config(out_dir / "config.json", {
        "command": "train",
        "manifest": _absolute(args.manifest),
        "network": asdict(network),
        "training": asdict(training),
        "seed": training.seed,
        "split": {"train": len(fold.train_ids), "val": len(fold.validation_ids),
                  "test": len(fold.test_ids)},
    })
    print(f"trained {network.trunk} model (best epoch {trained.best_epoch}, "
          f"val loss {trained.best_val_total:.4f}) -> {out_dir / 'model.ckpt'}")
    return 0


def cmd_hlf(args) -> int:
    model, training, standardizer = mtl_mod.load_model(args.model)
    manifest = load_manifest(args.manifest)
    # the store `train` wrote beside the model: an utterance it holds with the same WAV
    # is copied from it, not extracted again
    saved_path = Path(args.model).parent / STORE_MATRIX
    saved = exp_mod.SavedRows(load_store(saved_path.parent)) if saved_path.exists() else None
    records, size = manifest.records, training.batch_size
    # extracted and scored in blocks of the batch size the model trained with, so the
    # working set stays one block
    blocks = (exp_mod.extract_feature_cache(records[i : i + size], saved=saved)
              for i in range(0, len(records), size))
    # scoring's products give the same bits on any thread count; each block's
    # front-end, pulled in here, still runs on one (`experiment._extract_chunk`)
    with blas.all_cores():
        table = exp_mod.hlf_matrix(model, blocks, standardizer)
    rows = [(rec.utterance_id, vector, rec) for rec, vector in zip(records, table)]
    out_path = Path(args.out)
    hlf_mod.write_hlf_csv(out_path, rows)
    _write_config(_sidecar(out_path), {"command": "hlf", "model": _absolute(args.model),
                                       "manifest": _absolute(args.manifest)})
    print(f"wrote {len(rows)} high-level feature vectors to {out_path}")
    if saved is not None:
        print(f"took the feature rows of {saved.taken} of {len(rows)} utterances from {saved_path}")
    return 0


def cmd_elm(args) -> int:
    ids, x, labels = hlf_mod.read_hlf_csv(args.hlf)
    # read before the fit, so a bad eval table leaves no model behind
    evaluated = None if args.eval is None else hlf_mod.read_hlf_csv(args.eval)
    config = _config(args, ELMConfig())
    try:
        model = elm_fit(x, one_hot(_emotion_targets(labels), len(EMOTION_CLASSES)), config)
    except ValueError as exc:  # too few rows
        raise ValueError(f"{args.hlf}: {exc}") from None
    out_path = Path(args.out)
    save_elm(out_path, model)
    _write_config(_sidecar(out_path), {"command": "elm", "hlf": _absolute(args.hlf),
                                       "eval": _absolute(args.eval), **asdict(config)})
    print(f"fit ELM ({config.n_hidden} hidden units) on {len(ids)} utterances -> {out_path}")
    if evaluated is not None:
        eval_ids, eval_x, eval_labels = evaluated
        _, predictions = elm_predict(model, eval_x)
        cm = metrics_mod.confusion_matrix(_emotion_targets(eval_labels), predictions)
        ua = metrics_mod.unweighted_accuracy(cm)
        print(f"eval UA over {len(eval_ids)} utterances: {ua:.4f}")
        print("confusion (rows true, cols predicted):")
        for row in cm:
            print("  " + " ".join(f"{v:5d}" for v in row))
    return 0


def cmd_xval(args) -> int:
    if args.config is not None:
        base = _decode(exp_mod.PipelineConfig, args.config, section="pipeline")
    else:
        base = exp_mod.PipelineConfig()
    config = _config(args, base)  # protocol, seed and group_key
    config = replace(config, network=_network_config(args, config.network),
                     training=_config(args, config.training, seed=config.seed))
    if args.corpus is not None and config.protocol != "within":
        raise ValueError(f"--corpus applies to --protocol within only, not {config.protocol!r}")
    manifests = [load_manifest(path) for path in args.manifest]
    if args.corpus is not None:
        records = tuple(r for r in merge_records(manifests) if r.corpus_id == args.corpus)
        if not records:
            raise ValueError(f"no records for corpus {args.corpus!r}")
        manifests = [CorpusManifest(records=records)]

    out_dir = Path(args.out)
    _write_config(out_dir / "config.json", {"command": "xval", "grid": bool(args.grid),
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
    config = _config(args, tsne_mod.TsneConfig())
    try:
        embedding, trace = tsne_mod.tsne_embed(x, config)
    except ValueError as exc:  # too few rows for the perplexity
        raise ValueError(f"{args.input}: {exc}") from None
    out_path = Path(args.out)
    tsne_mod.write_embedding_csv(out_path, ids, embedding, labels)
    if args.svg is not None:
        tsne_mod.write_embedding_svg(args.svg, embedding, labels["emotion"])
    _write_config(_sidecar(out_path), {"command": "embed", "input": _absolute(args.input),
                                       "svg": _absolute(args.svg), **asdict(config)})
    print(f"embedded {len(ids)} points (final KL {trace[-1]:.4f}) -> {out_path}")
    return 0


def cmd_report(args) -> int:
    if args.compare is not None:
        report_a, report_b = (_decode(exp_mod.ExperimentReport, path) for path in args.compare)
        try:
            result = exp_mod.compare_reports(report_a, report_b)
        except ValueError as exc:
            raise ValueError(f"{args.compare[0]}, {args.compare[1]}: {exc}") from None
        print(json.dumps(result, sort_keys=True, indent=2))
        return 0
    run_dir = Path(args.run)
    grid_path = run_dir / "grid_report.json"
    report_path = run_dir / "report.json"
    if grid_path.exists():
        grid = _decode(exp_mod.GridReport, grid_path)
        names = grid.config_names
        for name in names:
            if name not in grid.ua_table or name not in grid.mean_ua:
                raise ValueError(f"{grid_path}: no UA table or mean UA for {name!r}")
        print("test_group " + " ".join(f"{n:>18s}" for n in names))
        for group in grid.test_groups:
            cells = []
            for name in names:
                ua = grid.ua_table[name].get(group)
                cells.append("     n/a" if ua is None else f"{ua:8.4f}")
            print(f"{group:10s} " + " ".join(f"{c:>18s}" for c in cells))
        means = ["     n/a" if grid.mean_ua[n] is None else f"{grid.mean_ua[n]:8.4f}" for n in names]
        print(f"{'mean':10s} " + " ".join(f"{c:>18s}" for c in means))
        for key, cmp_result in sorted(grid.comparisons.items()):
            print(f"{key}: {json.dumps(cmp_result, sort_keys=True)}")
        return 0
    if report_path.exists():
        report = _decode(exp_mod.ExperimentReport, report_path)
        print(f"protocol: {report.protocol}  seed: {report.seed}")
        for fold in report.folds:
            ua = "  FAILED" if fold.ua is None else f"{fold.ua:8.4f}"
            print(f"fold {fold.fold:2d} test={fold.test_group:12s} n={fold.n_test:4d} UA={ua}")
        mean = report.mean_ua
        print(f"mean UA: {'n/a' if mean is None else f'{mean:.4f}'}")
        return 0
    raise FileNotFoundError(f"no report.json or grid_report.json under {run_dir}")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sermtl",
        description="Multi-task speech emotion recognition pipeline",
    )
    parser.add_argument("--debug", action="store_true",
                        help="let an error propagate with its traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus set")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--corpora", type=int, dest="n_corpora")
    p.add_argument("--speakers", type=int, dest="speakers_per_corpus")
    p.add_argument("--utts", type=int, dest="utterances_per_speaker")
    p.add_argument("--duration", type=float, dest="duration_s")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on a stratified split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    _add_network_flags(p)
    _add_training_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("hlf", help="compute high-level features with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hlf)

    p = sub.add_parser("elm", help="fit (and optionally evaluate) the ELM back-end")
    p.add_argument("--hlf", required=True, help="training HLF table (CSV)")
    p.add_argument("--out", required=True)
    p.add_argument("--eval", help="held-out HLF table to score")
    p.add_argument("--n-hidden", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_elm)

    p = sub.add_parser("xval", help="run a within/cross/aggregated experiment")
    p.add_argument("--manifest", action="append", required=True,
                   help="manifest CSV (repeat for multiple groups)")
    p.add_argument("--out", required=True)
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--group-key", choices=("corpus", "corpus_naturalness"))
    p.add_argument("--corpus", help="restrict the within protocol to one corpus id")
    p.add_argument("--grid", action="store_true",
                   help="run all trunk x subtask configurations over the same folds")
    p.add_argument("--config", help="config.json from a previous run")
    _add_network_flags(p)
    _add_training_flags(p)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("embed", help="t-SNE projection of an HLF table")
    p.add_argument("--input", required=True, help="HLF table (CSV)")
    p.add_argument("--out", required=True, help="output embedding CSV")
    p.add_argument("--seed", type=int)
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iters", type=int, dest="n_iter")
    p.add_argument("--svg", help="also write a static SVG scatter")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("report", help="render a run's report")
    p.add_argument("--run", help="run directory containing report.json")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
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
        # a GEMM with a long inner dimension (training's weight gradients, the ELM's,
        # t-SNE's) can round differently on one thread and on several, so every
        # command runs on one; an LSTM's fit and `hlf`'s scoring raise the count,
        # and the fit's weight gradients stay on one where they are computed
        with blas.one_thread():
            return args.func(args)
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
