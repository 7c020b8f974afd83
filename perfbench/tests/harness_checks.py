"""Tests for the benchmark harness itself.

Kept out of the repository's default test run (the file name does not match
``test_*.py``); run them with

    python3 -m pytest perfbench/tests/harness_checks.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def _span(sid, parent, start, end, name="x", **sizes):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "pid": 1, **sizes}


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert spans.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_covered_part_of_children():
    tree = [
        _span("r", None, 0.0, 10.0, "root"),
        _span("a", "r", 1.0, 4.0, "child"),
        _span("b", "r", 3.0, 6.0, "child"),  # overlaps a, as two fold workers do
        _span("g", "a", 2.0, 3.0, "leaf"),
        _span("late", "r", 9.0, 12.0, "child"),  # outlives its parent: clipped
    ]
    selfs = spans.self_times(tree)
    assert selfs["r"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["g"] == pytest.approx(1.0)
    stats = spans.layer_stats(tree)
    assert stats["child"]["calls"] == 3
    assert stats["child"]["busy_s"] == pytest.approx(3.0 + 3.0 + 3.0)
    assert stats["child"]["self_s"] == pytest.approx(2.0 + 3.0 + 3.0)
    assert stats["root"]["self_s"] == pytest.approx(4.0)


def test_layer_stats_sums_sizes():
    tree = [_span("a", None, 0.0, 1.0, "f", frames=10.0),
            _span("b", None, 1.0, 2.0, "f", frames=5.0)]
    assert spans.layer_stats(tree)["f"]["frames"] == 15.0


def _attribute_snapshot():
    from sermtl import mtl, nn

    owners = [m for n, m in sys.modules.items() if n == "sermtl" or n.startswith("sermtl.")]
    owners += [nn.LSTMLayer, nn.DenseLayer, mtl.MultiTaskModel]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_patches_every_importer_and_uninstall_restores(tmp_path):
    import sermtl.cli  # noqa: F401  (loads every module)
    from sermtl import experiment, mtl, nn, tsne

    before = _attribute_snapshot()
    original_train = mtl.train
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        assert mtl.train is not original_train
        assert experiment.train is mtl.train  # imported by name in experiment
        assert experiment.emotion_posteriors is mtl.emotion_posteriors
        assert "forward" in nn.LSTMLayer.__dict__
        assert nn.LSTMLayer.__dict__["forward"].__wrapped__ is before[(id(nn.LSTMLayer), "forward")]
        assert tsne.kl_and_gradient.__wrapped__ is before[(id(tsne), "kl_and_gradient")]
    finally:
        tracer.uninstall()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_traced_calls_record_nesting_and_sizes(tmp_path):
    import numpy as np
    from sermtl import tsne

    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        x = np.random.default_rng(0).normal(size=(40, 3))
        tsne.tsne_embed(x, tsne.TsneConfig(perplexity=5.0, n_iter=5, exaggeration_iters=2))
    finally:
        tracer.finish()
    recorded = spans.read_spans(tmp_path)
    stats = spans.layer_stats(recorded)
    (embed,) = [s for s in recorded if s["name"] == "tsne.tsne_embed"]
    assert embed["n_iter"] == 5.0
    kl = [s for s in recorded if s["name"] == "tsne.kl_and_gradient"]
    assert kl and all(s["parent"] == embed["id"] for s in kl)
    assert stats["tsne.compute_affinities"]["calls"] == 1


def test_forked_worker_flushes_spans_when_its_outermost_span_closes(tmp_path):
    tracer = spans.Tracer(tmp_path)
    inner = tracer.wrap("inner", lambda: 1)
    outer_calls = []

    def body():
        pid = os.fork()
        if pid == 0:  # a fold worker: no atexit, no finish()
            inner()
            os._exit(0)
        os.waitpid(pid, 0)
        outer_calls.append(pid)

    tracer.wrap("outer", body)()
    tracer.flush()
    recorded = spans.read_spans(tmp_path)
    (outer,) = [s for s in recorded if s["name"] == "outer"]
    (worker,) = [s for s in recorded if s["name"] == "inner"]
    assert worker["pid"] == outer_calls[0] != outer["pid"]
    assert worker["parent"] == outer["id"]


# -- the one command -----------------------------------------------------------

def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["xval-dnn-2w", "infer-embed"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "1":
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "xval-dnn-2w", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
