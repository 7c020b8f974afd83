"""Span tracing for the benchmark's traced runs, installed from outside the program.

`Tracer.install` replaces the public functions and methods listed in `TARGETS`
with wrappers that record one span per call: name, start, end, parent span,
process id and a few sizes taken from the call (frames, FLOPs, epochs).
Functions are replaced in every `sermtl` module that holds them by name, so
`from .mtl import train` in `experiment` is traced as well. `uninstall` puts
every original back.

Spans stay in memory. Fold workers are forked and leave through `os._exit`,
so a worker writes its spans to `<out_dir>/spans-<pid>.jsonl` each time its
outermost span closes; the process that installed the tracer writes its own
in `finish`. Worker spans keep the parent they inherited at fork, so a fold
span is a child of the `run_experiment` span that started the pool.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path


def _lstm_forward(args, kwargs, result):
    layer, x = args[0], args[1]
    batch, steps, n_in = x.shape
    gates = 4 * layer.n_hidden
    return {"gflop": 2.0 * batch * steps * gates * (n_in + layer.n_hidden) / 1e9}


def _dense_forward(args, kwargs, result):
    layer, x = args[0], args[1]
    return {"gflop": 2.0 * x.shape[0] * layer.n_in * layer.n_out / 1e9}


def _loss_and_grads(args, kwargs, result):
    from sermtl.mtl import MultiTaskModel

    bound = inspect.signature(MultiTaskModel.loss_and_grads).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"train": 1.0 if bound.arguments["train"] else 0.0}


def _posteriors(args, kwargs, result):
    return {"frames": float(args[1].shape[0])}


def _train(args, kwargs, result):
    return {"epochs": float(len(result.history))}


def _features(args, kwargs, result):
    return {"frames": float(result.shape[0])}


def _tsne(args, kwargs, result):
    kl_trace = result[1]
    return {"n_iter": float(kl_trace.size), "final_kl": float(kl_trace[-1])}


# (module, attribute path, span name, sizes taken from the call)
TARGETS = (
    ("sermtl.cli", "cmd_synth", "cli.synth", None),
    ("sermtl.cli", "cmd_train", "cli.train", None),
    ("sermtl.cli", "cmd_hlf", "cli.hlf", None),
    ("sermtl.cli", "cmd_elm", "cli.elm", None),
    ("sermtl.cli", "cmd_embed", "cli.embed", None),
    ("sermtl.cli", "cmd_xval", "cli.xval", None),
    ("sermtl.corpus", "generate_synthetic", "corpus.generate_synthetic", None),
    ("sermtl.corpus", "read_wav", "corpus.read_wav", None),
    ("sermtl.features", "extract_features", "features.extract_features", _features),
    ("sermtl.features", "fit_standardizer", "features.fit_standardizer", None),
    ("sermtl.features", "apply_standardizer", "features.standardize", None),
    ("sermtl.experiment", "run_experiment", "experiment.run_experiment", None),
    ("sermtl.experiment", "extract_feature_cache", "experiment.extract_feature_cache", None),
    ("sermtl.experiment", "_run_fold", "experiment.fold", None),
    ("sermtl.mtl", "train", "mtl.train", _train),
    ("sermtl.mtl", "MultiTaskModel.loss_and_grads", "mtl.loss_and_grads", _loss_and_grads),
    ("sermtl.mtl", "MultiTaskModel.emotion_posteriors", "mtl.emotion_posteriors", _posteriors),
    ("sermtl.nn", "LSTMLayer.forward", "nn.lstm.forward", _lstm_forward),
    ("sermtl.nn", "LSTMLayer.backward", "nn.lstm.backward", None),
    ("sermtl.nn", "DenseLayer.forward", "nn.dense.forward", _dense_forward),
    ("sermtl.nn", "DenseLayer.backward", "nn.dense.backward", None),
    ("sermtl.nn", "adam_step", "nn.adam_step", None),
    ("sermtl.nn", "clip_global_norm", "nn.clip_global_norm", None),
    ("sermtl.hlf", "compute_hlf", "hlf.compute_hlf", None),
    ("sermtl.hlf", "write_hlf_csv", "hlf.write_hlf_csv", None),
    ("sermtl.hlf", "read_hlf_csv", "hlf.read_hlf_csv", None),
    ("sermtl.elm", "elm_fit", "elm.elm_fit", None),
    ("sermtl.elm", "elm_predict", "elm.elm_predict", None),
    ("sermtl.tsne", "tsne_embed", "tsne.tsne_embed", _tsne),
    ("sermtl.tsne", "compute_affinities", "tsne.compute_affinities", None),
    ("sermtl.tsne", "kl_and_gradient", "tsne.kl_and_gradient", None),
)


class Tracer:
    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.home_pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[tuple[str, int]] = []  # open spans: (span id, pid)
        self.count = 0
        self.patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, sizes=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            tracer.count += 1
            span_id = f"{pid}.{tracer.count}"
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append((span_id, pid))
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                tracer.stack.pop()
                span = {"id": span_id, "parent": parent, "name": name,
                        "start": start, "end": end, "pid": pid}
                if sizes is not None and result is not None:
                    span.update(sizes(args, kwargs, result))
                tracer.spans.append(span)
                if pid != tracer.home_pid and all(p != pid for _, p in tracer.stack):
                    tracer.flush()

        return traced

    def flush(self) -> None:
        """Append this process's finished spans to its own file and drop them from memory."""
        pid = os.getpid()
        own = [s for s in self.spans if s["pid"] == pid]
        self.spans.clear()
        if own:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            with open(self.out_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as fh:
                for span in own:
                    fh.write(json.dumps(span) + "\n")

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, sizes in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(name, original, sizes))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, sizes)
            for holder in _sermtl_modules():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def finish(self) -> None:
        self.uninstall()
        self.flush()


def _sermtl_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "sermtl" or n.startswith("sermtl."))]


def read_spans(out_dir: str | Path) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = union_length(
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], ()) if min(b, s["end"]) > max(a, s["start"])
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_stats(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (summed durations), self_s, and summed sizes."""
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = stats.setdefault(s["name"], {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += s["end"] - s["start"]
        entry["self_s"] += selfs[s["id"]]
        for key in ("gflop", "frames", "epochs", "n_iter"):
            if key in s:
                entry[key] = entry.get(key, 0.0) + s[key]
    return stats
