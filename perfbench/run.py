"""The sermtl benchmark: one command per workload, every metric by name and unit.

    python3 perfbench/run.py --workload xval-dnn-2w --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. Each workload has a set-up (make the inputs with
``sermtl synth``, train a model for ``infer-embed``), run several times in
fresh processes, and a measured phase that repeats one closed-loop pass (each
command starts after the previous one ends) in fresh processes until
``--seconds`` is used up. ``setup_s`` is the median over set-ups; ``wall_s``
and the rates are totals over all passes (total time / passes, total work /
total time). Every pass is checked; failures are
counted, not fatal. ``--trace 1`` sets up once under tracing, then runs one
untraced and one traced pass per round and prints per-layer metrics from the
traced ones. The last line of standard output is one JSON object.

Every process runs with one BLAS thread (see README.md), so fold workers x
BLAS threads never exceed the cores.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import wave
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1
DURATION_S = 0.5
DEADLINE_S = 170.0


class SetupError(RuntimeError):
    """The program could not produce a workload's inputs; nothing can be measured."""


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------

class Runner:
    """Starts child processes that call `sermtl.cli.main`, all under one deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def run(self, commands, trace_dir: Path | None = None) -> tuple[dict | None, float]:
        """Run commands in one fresh process.

        Returns (child result or None, seconds from starting the process until
        its last command returned). The child reads the same monotonic clock.
        """
        self.count += 1
        spec_path = self.work / f"spec{self.count}.json"
        result_path = self.work / f"result{self.count}.json"
        spec_path.write_text(json.dumps({
            "src": str(SRC),
            "commands": [[str(a) for a in argv] for argv in commands],
            "trace_dir": None if trace_dir is None else str(trace_dir),
        }), encoding="utf-8")
        env = dict(os.environ)
        env.update({name: str(BLAS_THREADS) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SRC)])
        env["PYTHONHASHSEED"] = "0"  # same dict layout in every process
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path),
                                 str(result_path)], cwd=self.work, env=env,
                                stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"child {self.count} killed at the deadline", file=sys.stderr)
        _reap_group(proc.pid)
        if proc.returncode != 0 or not result_path.exists():
            return None, time.monotonic() - start
        result = json.loads(result_path.read_text(encoding="utf-8"))
        return result, result["done"] - start


def _reap_group(pgid: int) -> None:
    """Kill anything the child left behind in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


def _tree_files(root: Path):
    return sorted(p for p in root.rglob("*") if p.is_file())


def _frames_per_utterance(manifest: Path) -> int:
    """Feature frames per utterance (25 ms window, 10 ms hop); all synthetic
    utterances share one duration, which this checks."""
    lengths = set()
    rate = None
    with open(manifest, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            with wave.open(str(manifest.parent / row["audio_path"])) as w:
                lengths.add(w.getnframes())
                rate = w.getframerate()
    if len(lengths) != 1:
        raise SetupError(f"{manifest}: utterances differ in length")
    n = lengths.pop()
    return 1 + (n - round(0.025 * rate)) // round(0.010 * rate)


def _count_rows(manifest: Path) -> int:
    with open(manifest, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.DictReader(fh))


def _finite_table(path: Path, n_values: int) -> tuple[int, bool]:
    """(rows, every value finite) for a CSV whose columns 1..n_values are numbers."""
    rows = 0
    finite = True
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows += 1
            try:
                finite &= all(math.isfinite(float(v)) for v in row[1 : 1 + n_values])
            except ValueError:
                finite = False
    return rows, finite


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class PassOutcome:
    attempted: int
    failed: int
    digest: str
    values: dict  # per-pass metric values


@dataclass(frozen=True)
class Xval:
    """`sermtl xval --protocol cross` over six synthetic corpora, one pass = one xval."""

    name: str
    trunk: str
    layer_sizes: str
    jobs: int
    window_stride: int
    speakers: int
    utts: int
    epochs: int
    ua_floor: float = 0.70  # criterion 7's bound on the cross-corpus mean UA
    setups: int = 5  # set-up is cheap here; more samples steady `setup_s`

    def setup_commands(self, seed: int, d: Path):
        return [["synth", "--out", d / "data", "--seed", seed, "--corpora", 6,
                 "--speakers", self.speakers, "--utts", self.utts, "--duration", DURATION_S]]

    def setup_files(self, d: Path):
        return _tree_files(d / "data")

    def pass_commands(self, seed: int, setup: Path, out: Path):
        # patience = epochs - 1: every fold runs all epochs, so the work per
        # pass does not depend on the seed.
        return [["xval", "--manifest", setup / "data" / "manifest.csv", "--out", out / "xval",
                 "--protocol", "cross", "--trunk", self.trunk, "--subtasks", "all",
                 "--layer-sizes", self.layer_sizes, "--max-epochs", self.epochs,
                 "--patience", self.epochs - 1, "--window-stride", self.window_stride,
                 "--seed", seed, "--jobs", self.jobs]]

    def check(self, setup: Path, out: Path, child: dict | None) -> PassOutcome:
        """One unit for the command (return code 0, six folds, mean UA at the
        floor) and one per fold (no error)."""
        report_path = out / "xval" / "report.json"
        if child is None or not report_path.exists():
            return PassOutcome(7, 7, "", {})
        report = json.loads(report_path.read_text(encoding="utf-8"))
        folds = report["folds"]
        mean_ua = report["mean_ua"]
        command_ok = (child["commands"][-1]["rc"] == 0 and len(folds) == 6
                      and mean_ua is not None and mean_ua >= self.ua_floor)
        failed = (0 if command_ok else 1) + sum(1 for f in folds if f["error"] is not None)
        wall = child["commands"][0]["wall_s"]
        fpu = _frames_per_utterance(setup / "data" / "manifest.csv")
        frames = sum(f["n_train"] * fpu * f["epochs_run"] for f in folds)
        values = {
            "wall_s": wall,
            "train_frames": frames,
            "train_s": wall,
            "utts": sum(f["n_test"] for f in folds),
            "utts_s": wall,
            "mean_ua": mean_ua if mean_ua is not None else 0.0,
            "peak_rss_mb": _peak_mb(child),
        }
        return PassOutcome(1 + len(folds), failed, _digest([report_path]), values)


@dataclass(frozen=True)
class InferEmbed:
    """Set-up trains an LSTM with `sermtl train`; one pass = hlf x2, elm --eval, embed."""

    name: str
    layer_sizes: str
    speakers: int
    train_utts: int
    heldout_utts: int
    epochs: int
    perplexity: float
    iters: int
    ua_floor: float
    setups: int = 3

    def setup_commands(self, seed: int, d: Path):
        synth = ["--corpora", 2, "--speakers", self.speakers, "--duration", DURATION_S]
        return [
            ["synth", "--out", d / "train", "--seed", seed, "--utts", self.train_utts] + synth,
            ["synth", "--out", d / "heldout", "--seed", seed + 7919, "--utts", self.heldout_utts]
            + synth,
            ["train", "--manifest", d / "train" / "manifest.csv", "--out", d / "model",
             "--trunk", "lstm", "--layer-sizes", self.layer_sizes, "--subtasks", "all",
             "--max-epochs", self.epochs, "--patience", self.epochs - 1, "--seed", seed],
        ]

    def setup_files(self, d: Path):
        return (_tree_files(d / "train") + _tree_files(d / "heldout")
                + [d / "model" / "model.ckpt", d / "model" / "history.csv"])

    def pass_commands(self, seed: int, setup: Path, out: Path):
        model = setup / "model" / "model.ckpt"
        return [
            ["hlf", "--model", model, "--manifest", setup / "train" / "manifest.csv",
             "--out", out / "train_hlf.csv"],
            ["hlf", "--model", model, "--manifest", setup / "heldout" / "manifest.csv",
             "--out", out / "heldout_hlf.csv"],
            ["elm", "--hlf", out / "train_hlf.csv", "--eval", out / "heldout_hlf.csv",
             "--out", out / "elm.ckpt", "--seed", seed],
            ["embed", "--input", out / "heldout_hlf.csv", "--out", out / "embedding.csv",
             "--seed", seed, "--perplexity", self.perplexity, "--iters", self.iters],
        ]

    def train_frames(self, setup: Path) -> int:
        """Train frames x epochs of the set-up's `sermtl train`."""
        config = json.loads((setup / "model" / "config.json").read_text(encoding="utf-8"))
        with open(setup / "model" / "history.csv", encoding="utf-8") as fh:
            epochs = sum(1 for _ in fh) - 1
        fpu = _frames_per_utterance(setup / "train" / "manifest.csv")
        return config["split"]["train"] * fpu * epochs

    def check(self, setup: Path, out: Path, child: dict | None) -> PassOutcome:
        """Units: four commands, three output tables, the ELM UA and the KL."""
        attempted = 9
        commands = [] if child is None else child["commands"]
        ok = sum(1 for c in commands if c["rc"] == 0)
        if ok < 4:
            return PassOutcome(attempted, attempted - ok, "", {})
        failed = 0
        outputs = [out / "train_hlf.csv", out / "heldout_hlf.csv", out / "embedding.csv"]
        expected = [_count_rows(setup / "train" / "manifest.csv"),
                    _count_rows(setup / "heldout" / "manifest.csv")]
        for path, n_values, n_rows in zip(outputs, (16, 16, 2), expected + expected[1:]):
            rows, finite = _finite_table(path, n_values)
            failed += 0 if rows == n_rows and finite else 1
        hlf, _, elm, embed = commands
        ua = _parse_number(elm["stdout"], r"eval UA over \d+ utterances: (\S+)")
        kl = _parse_number(embed["stdout"], r"final KL (\S+?)\)")
        failed += 0 if ua is not None and ua >= self.ua_floor else 1
        failed += 0 if kl is not None and math.isfinite(kl) else 1
        values = {
            "wall_s": sum(c["wall_s"] for c in commands),
            "utts": sum(expected),
            "utts_s": hlf["wall_s"] + commands[1]["wall_s"],
            "mean_ua": ua or 0.0,
            "peak_rss_mb": _peak_mb(child),
            "embed_s": embed["wall_s"],
        }
        if kl is not None:
            values["embed_kl"] = kl
        return PassOutcome(attempted, failed, _digest(outputs), values)


def _parse_number(text: str, pattern: str) -> float | None:
    """The number captured by `pattern` in a command's standard output."""
    match = re.search(pattern, text)
    return None if match is None else float(match.group(1))


def _peak_mb(child: dict) -> float:
    return (child["peak_rss_kb"] + child["peak_child_rss_kb"]) / 1024.0


WORKLOADS = {
    # Paper-size DNN (3x256 on 25x32 inputs): GEMM- and Adam-bound; the only fold pool.
    "xval-dnn-2w": Xval("xval-dnn-2w", "dnn", "256,256,256", jobs=2, window_stride=2,
                        speakers=4, utts=4, epochs=6),
    # Set-up: paper-size LSTM (2x256) training. Pass: forward only over whole
    # utterances, ELM, t-SNE.
    "infer-embed": InferEmbed("infer-embed", "256,256", speakers=4, train_utts=12,
                              heldout_utts=16, epochs=4, perplexity=30.0, iters=1000,
                              ua_floor=0.5),
}

# Sizes for the harness's own smoke tests (`--tiny`); not a benchmark workload.
TINY = {
    "xval-dnn-2w": Xval("xval-dnn-2w", "dnn", "16,16,16", jobs=2, window_stride=4,
                        speakers=2, utts=4, epochs=2, ua_floor=0.0, setups=1),
    "infer-embed": InferEmbed("infer-embed", "8,8", speakers=2, train_utts=8,
                              heldout_utts=8, epochs=2, perplexity=5.0, iters=50,
                              ua_floor=0.0, setups=1),
}


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

def set_up(workload, seed: int, runner: Runner, d: Path, trace_dir: Path | None = None):
    """One set-up in a fresh process. Returns (wall, child result, digest of its files)."""
    child, wall = runner.run(workload.setup_commands(seed, d), trace_dir)
    if child is None or any(c["rc"] != 0 for c in child["commands"]):
        raise SetupError(f"{workload.name}: set-up failed (see stderr)")
    return wall, child, _digest(workload.setup_files(d))


def measure(workload, seed: int, seconds: float, runner: Runner, traced: bool) -> dict:
    """Set up, then run passes until `seconds` of pass time is used.

    The passes use the first set-up. The other set-ups (none when traced) run
    one after each pass, so that `setup_s` samples the machine across the
    whole run rather than in one burst; they count as set-up, not pass time.
    """
    setup_trace = runner.work / "trace-setup" if traced else None
    setup_dir = runner.work / "setup0"
    setups = [set_up(workload, seed, runner, setup_dir, setup_trace)]
    pending = 0 if traced else workload.setups - 1
    outcomes, traced_runs, walls_plain = [], [], []
    spent = 0.0
    while not outcomes or spent + _round_cost(outcomes, traced) <= seconds:
        k = len(outcomes)
        start = time.monotonic()
        out = runner.work / f"pass{k}"
        child, _ = runner.run(workload.pass_commands(seed, setup_dir, out))
        outcomes.append(workload.check(setup_dir, out, child))
        if child is not None:
            walls_plain.append(_wall(child))
        if traced:
            trace_dir = runner.work / f"trace{k}"
            tout = runner.work / f"tpass{k}"
            tchild, _ = runner.run(workload.pass_commands(seed, setup_dir, tout), trace_dir)
            outcomes.append(workload.check(setup_dir, tout, tchild))
            if tchild is not None:
                traced_runs.append((tchild, spans.read_spans(trace_dir)))
        spent += time.monotonic() - start
        if pending:
            setups.append(set_up(workload, seed, runner, runner.work / f"setup{len(setups)}"))
            pending -= 1
        if time.monotonic() > runner.deadline - 1:
            break
    while pending:
        setups.append(set_up(workload, seed, runner, runner.work / f"setup{len(setups)}"))
        pending -= 1
    setup_walls, setup_results, setup_digests = (list(x) for x in zip(*setups))
    digests = [o.digest for o in outcomes]
    attempted = len(setups) + sum(o.attempted for o in outcomes) + 1
    failed = (len(setups) - setup_digests.count(setup_digests[0])
              + sum(o.failed for o in outcomes) + (0 if len(set(digests)) == 1 else 1))
    result = {
        "attempted": attempted,
        "failed": failed,
        "setup_walls": setup_walls,
        "setup_digest": setup_digests[0],
        "pass_digest": digests[0],
        "passes": [o.values for o in outcomes],
        "versions": setup_results[0]["versions"],
    }
    if isinstance(workload, InferEmbed):
        # Every set-up trains the same model; its `train` command is timed in each.
        result["train"] = {"frames": workload.train_frames(setup_dir) * len(setup_results),
                           "s": sum(r["commands"][-1]["wall_s"] for r in setup_results)}
    if traced:
        result["layers"] = _layer_metrics(workload, traced_runs, walls_plain, setup_trace)
    return result


def _round_cost(outcomes, traced) -> float:
    walls = [o.values["wall_s"] for o in outcomes if "wall_s" in o.values]
    return (2 if traced else 1) * statistics.median(walls) if walls else 0.0


def _layer_metrics(workload, traced_runs, walls_plain, setup_trace) -> dict:
    """Per-layer metrics from the traced passes (median over passes; counts repeat)."""
    if not traced_runs:  # every traced pass failed: report zeros, the failure is counted
        out = _pass_layers([], 0.0, workload)
        out["trace.overhead_frac"] = 0.0
    else:
        per_pass = [_pass_layers(span_list, _wall(child), workload)
                    for child, span_list in traced_runs]
        out = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        traced_wall = statistics.median(_wall(child) for child, _ in traced_runs)
        out["trace.overhead_frac"] = (traced_wall / statistics.median(walls_plain) - 1.0
                                      if walls_plain else 0.0)
    setup_spans = spans.read_spans(setup_trace)
    setup = _pass_layers(setup_spans, 0.0, workload)
    out.update({f"setup.{key}": setup[key] for key in SETUP_LAYERS})
    out["corpus.generate_synthetic.busy_s"] = spans.layer_stats(setup_spans).get(
        "corpus.generate_synthetic", {}).get("busy_s", 0.0)
    return out


# Training layers of the traced set-up (infer-embed trains its LSTM there).
SETUP_LAYERS = ("mtl.train.busy_s", "mtl.train.epochs", "mtl.batching.self_s",
                "nn.lstm.forward.busy_s", "nn.lstm.forward.gflop", "nn.lstm.backward.busy_s",
                "nn.adam_step.busy_s", "nn.clip_global_norm.busy_s")


def _wall(child: dict) -> float:
    return sum(c["wall_s"] for c in child["commands"])


def _pass_layers(span_list, wall: float, workload) -> dict:
    stats = spans.layer_stats(span_list)

    def stat(name, key):
        return stats.get(name, {}).get(key, 0.0)

    lag = [s for s in span_list if s["name"] == "mtl.loss_and_grads"]
    train_lag = [s for s in lag if s.get("train") == 1.0]
    eval_lag = [s for s in lag if s.get("train") == 0.0]
    embeds = [s for s in span_list if s["name"] == "tsne.tsne_embed"]
    jobs = getattr(workload, "jobs", 1)
    run_exp = stat("experiment.run_experiment", "busy_s")
    covered = spans.union_length((s["start"], s["end"]) for s in span_list)
    out = {
        "nn.lstm.forward.calls": stat("nn.lstm.forward", "calls"),
        "nn.lstm.forward.busy_s": stat("nn.lstm.forward", "busy_s"),
        "nn.lstm.forward.gflop": stat("nn.lstm.forward", "gflop"),
        "nn.lstm.backward.busy_s": stat("nn.lstm.backward", "busy_s"),
        "nn.dense.forward.calls": stat("nn.dense.forward", "calls"),
        "nn.dense.forward.busy_s": stat("nn.dense.forward", "busy_s"),
        "nn.dense.forward.gflop": stat("nn.dense.forward", "gflop"),
        "nn.dense.backward.busy_s": stat("nn.dense.backward", "busy_s"),
        "nn.adam_step.calls": stat("nn.adam_step", "calls"),
        "nn.adam_step.busy_s": stat("nn.adam_step", "busy_s"),
        "nn.clip_global_norm.busy_s": stat("nn.clip_global_norm", "busy_s"),
        "mtl.train.calls": stat("mtl.train", "calls"),
        "mtl.train.busy_s": stat("mtl.train", "busy_s"),
        "mtl.train.epochs": stat("mtl.train", "epochs"),
        "mtl.batching.self_s": stat("mtl.train", "self_s"),
        "mtl.loss_and_grads.train_calls": float(len(train_lag)),
        "mtl.loss_and_grads.train_busy_s": sum(s["end"] - s["start"] for s in train_lag),
        "mtl.loss_and_grads.eval_calls": float(len(eval_lag)),
        "mtl.loss_and_grads.eval_busy_s": sum(s["end"] - s["start"] for s in eval_lag),
        "mtl.emotion_posteriors.calls": stat("mtl.emotion_posteriors", "calls"),
        "mtl.emotion_posteriors.frames": stat("mtl.emotion_posteriors", "frames"),
        "mtl.emotion_posteriors.busy_s": stat("mtl.emotion_posteriors", "busy_s"),
        "features.extract_features.calls": stat("features.extract_features", "calls"),
        "features.extract_features.frames": stat("features.extract_features", "frames"),
        "features.extract_features.busy_s": stat("features.extract_features", "busy_s"),
        "features.standardize.calls": stat("features.standardize", "calls"),
        "features.standardize.busy_s": stat("features.standardize", "busy_s"),
        "experiment.extract_feature_cache.busy_s": stat("experiment.extract_feature_cache",
                                                        "busy_s"),
        "experiment.fold.busy_s": stat("experiment.fold", "busy_s"),
        "experiment.pool_busy_frac": (stat("experiment.fold", "busy_s") / (jobs * run_exp)
                                      if run_exp else 0.0),
        "hlf.compute_hlf.calls": stat("hlf.compute_hlf", "calls"),
        "hlf.compute_hlf.busy_s": stat("hlf.compute_hlf", "busy_s"),
        "elm.elm_fit.busy_s": stat("elm.elm_fit", "busy_s"),
        "elm.elm_predict.busy_s": stat("elm.elm_predict", "busy_s"),
        "tsne.compute_affinities.busy_s": stat("tsne.compute_affinities", "busy_s"),
        "tsne.kl_and_gradient.calls": stat("tsne.kl_and_gradient", "calls"),
        "tsne.kl_and_gradient.busy_s": stat("tsne.kl_and_gradient", "busy_s"),
        "tsne.kl_evals_per_iter": (stat("tsne.kl_and_gradient", "calls")
                                   / stat("tsne.tsne_embed", "n_iter") if embeds else 0.0),
        "tsne.final_kl": embeds[-1]["final_kl"] if embeds else 0.0,
        "corpus.read_wav.busy_s": stat("corpus.read_wav", "busy_s"),
        "cli.self_s": sum(v["self_s"] for k, v in stats.items() if k.startswith("cli.")),
        "trace.untraced_s": max(0.0, wall - covered),
        "trace.coverage_frac": min(1.0, covered / wall) if wall else 0.0,
    }
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

END_TO_END = {  # name -> unit
    "wall_s": "s", "setup_s": "s", "train_frames_per_s": "1/s", "utts_per_s": "1/s",
    "mean_ua": "fraction", "peak_rss_mb": "MB", "pass_frac": "fraction",
}


def end_to_end(measured: dict) -> dict:
    passes = [p for p in measured["passes"] if "wall_s" in p]

    def med(key):
        values = [p[key] for p in passes if key in p]
        return statistics.median(values) if values else 0.0

    def rate(work, seconds):
        """Throughput over the measured phase: work and time summed over passes."""
        total_s = sum(p[seconds] for p in passes)
        return sum(p[work] for p in passes) / total_s if total_s else 0.0

    if "train" in measured:  # infer-embed trains in its set-ups
        train_rate = measured["train"]["frames"] / measured["train"]["s"]
    else:
        train_rate = rate("train_frames", "train_s")
    values = {
        "wall_s": sum(p["wall_s"] for p in passes) / len(passes) if passes else 0.0,
        "setup_s": statistics.median(measured["setup_walls"]),
        "train_frames_per_s": train_rate,
        "utts_per_s": rate("utts", "utts_s"),
        "mean_ua": med("mean_ua"),
        "peak_rss_mb": med("peak_rss_mb"),
        "pass_frac": 1.0 - measured["failed"] / measured["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


LAYER_UNITS = {"calls": "count", "frames": "count", "epochs": "count", "gflop": "GFLOP",
               "frac": "fraction", "per_iter": "count", "kl": "nats"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    for suffix, unit in LAYER_UNITS.items():
        if last.endswith(suffix):
            return unit
    raise KeyError(name)


def _fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def summary_lines(workload_name: str, seed: int, measured: dict, metrics: dict) -> list[str]:
    passes = [p for p in measured["passes"] if "wall_s" in p]
    lines = [json.dumps({"environment": {
        "nproc": os.cpu_count(), "blas_threads_per_process": BLAS_THREADS,
        "workers": getattr(WORKLOADS[workload_name], "jobs", 1), **measured["versions"]}})]
    lines.append(f"{workload_name} seed {seed}: set-up walls "
                 f"{_fmt(measured['setup_walls'])} s, pass walls "
                 f"{_fmt(p['wall_s'] for p in passes)} s, digests set-up "
                 f"{measured['setup_digest']} pass {measured['pass_digest']}")
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    shown["fail_frac"] = (measured["failed"] / measured["attempted"], "fraction")
    for key, unit in (("embed_s", "s"), ("embed_kl", "nats")):
        values = [p[key] for p in passes if key in p]
        if values:
            shown[key] = (statistics.median(values), unit)
    for name, (value, unit) in shown.items():
        lines.append(f"  {name:28s} {value:14.6g} {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes and one set-up (harness tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "sermtl" / "cli.py").is_file():
        print(f"error: no sermtl sources under {SRC}", file=sys.stderr)
        return 2
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        measured = measure(workload, args.seed, args.seconds, runner, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e = end_to_end(measured)
    for line in summary_lines(args.workload, args.seed, measured, e2e):
        print(line)
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in measured["layers"].items()}
    else:
        metrics = e2e
    print(json.dumps({"correct": measured["failed"] == 0, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
