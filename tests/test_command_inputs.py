"""Damaged inputs of the commands that read an HLF table or a JSON file: the
HLF CSV of `elm --hlf`, `elm --eval` and `embed --input`, `report.json` for
`report --run` and `report --compare`, `grid_report.json` for `report --run`,
and an `xval` run's `config.json` for `xval --config`.

Each case truncates a file, drops or adds a line or a comma-separated field,
edits one byte of the first line, or inserts a byte that is not UTF-8
(`conftest.damage_text`), or gives one value of a JSON file another JSON type
(`_retype`), then runs the command on it. It either exits 0 with nothing on
stderr, or exits 1 with one ``error:`` line that names the damaged file, and
for an HLF table the line within it where the damage is one line.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEXT_DAMAGE, damage_text
from sermtl.cli import main

_TINY = ["--layer-sizes", "4", "--max-epochs", "2", "--patience", "1", "--window-stride", "3", "--seed", "2"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 16-utterance corpus, and the HLF table, `xval` run and `xval --grid`
    run made from it."""
    root = tmp_path_factory.mktemp("command_inputs")
    data, manifest = root / "data", root / "data" / "manifest.csv"
    assert main(["synth", "--out", str(data), "--seed", "5", "--corpora", "2", "--speakers", "2",
                 "--utts", "4", "--duration", "0.5"]) == 0
    assert main(["train", "--manifest", str(manifest), "--out", str(root / "run"), "--layer-sizes", "4,4",
                 "--max-epochs", "2", "--patience", "1", "--seed", "1"]) == 0
    assert main(["hlf", "--model", str(root / "run" / "model.ckpt"), "--manifest", str(manifest),
                 "--out", str(root / "hlf.csv")]) == 0
    assert main(["xval", "--manifest", str(manifest), "--out", str(root / "xval"), "--protocol", "cross",
                 "--trunk", "dnn", "--subtasks", "none", *_TINY]) == 0
    assert main(["xval", "--manifest", str(manifest), "--out", str(root / "grid"), "--grid", *_TINY]) == 0
    return root, {"hlf": root / "hlf.csv", "report": root / "xval" / "report.json",
                  "grid": root / "grid" / "grid_report.json", "config": root / "xval" / "config.json"}


def _argv(route: str, damaged: Path, case: Path, root: Path, good: dict[str, Path], damaged_first: bool):
    """The command line of ``route`` with ``damaged`` as the input it reads."""
    if route == "elm --hlf":
        return ["elm", "--hlf", str(damaged), "--eval", str(good["hlf"]), "--out", str(case / "elm.json"),
                "--n-hidden", "8"]
    if route == "elm --eval":
        return ["elm", "--hlf", str(good["hlf"]), "--eval", str(damaged), "--out", str(case / "elm.json"),
                "--n-hidden", "8"]
    if route == "embed --input":
        return ["embed", "--input", str(damaged), "--out", str(case / "embed.csv"), "--perplexity", "2",
                "--iters", "30"]
    if route == "report --run":
        return ["report", "--run", str(damaged.parent)]
    if route == "report --compare":
        pair = [str(damaged), str(good["report"])]
        return ["report", "--compare", *(pair if damaged_first else pair[::-1])]
    return ["xval", "--manifest", str(root / "data" / "manifest.csv"), "--config", str(damaged),
            "--out", str(case / "out")]


def _retype(draw, data: bytes) -> bytes:
    """The JSON document ``data`` with one value that is not an array or an
    object given another JSON type: an integer becomes the equal float, a float
    its string, a string its length, a boolean 0 or 1, and null an empty array."""
    document = json.loads(data)
    leaves = []

    def walk(node, at):
        if isinstance(node, (dict, list)):
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(child, (*at, key))
        else:
            leaves.append(at)

    walk(document, ())
    *parents, key = draw(st.sampled_from(leaves))
    owner = functools.reduce(operator.getitem, parents, document)
    value = owner[key]
    owner[key] = ([] if value is None else int(value) if isinstance(value, bool) else
                  float(value) if isinstance(value, int) else
                  str(value) if isinstance(value, float) else len(value))
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _runs_or_is_named(root: Path, good: dict[str, Path], target: str, route: str, damaged_bytes: bytes,
                      line: int | None, damaged_first: bool) -> None:
    case = Path(tempfile.mkdtemp(dir=root))
    try:
        damaged = case / "in" / good[target].name
        damaged.parent.mkdir()
        damaged.write_bytes(damaged_bytes)
        err = io.StringIO()
        argv = _argv(route, damaged, case, root, good, damaged_first)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        err = err.getvalue()
        if code == 0:
            assert err == ""
            return
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert str(damaged) in err, err
        if target == "hlf" and line is not None:
            assert f"{damaged}, line {line}: " in err, err
        assert not (case / "elm.json").exists() and not (case / "embed.csv").exists()
    finally:
        shutil.rmtree(case)


@pytest.mark.parametrize("target, route", [
    ("hlf", "elm --hlf"), ("hlf", "elm --eval"), ("hlf", "embed --input"),
    ("report", "report --run"), ("report", "report --compare"), ("grid", "report --run"),
    ("config", "xval --config"),
])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(draw=st.data())
def test_damaged_input_runs_or_is_named(inputs, target, route, draw):
    root, good = inputs
    damaged_bytes, line = damage_text(draw.draw, good[target].read_bytes(), TEXT_DAMAGE + ("non_utf8",))
    _runs_or_is_named(root, good, target, route, damaged_bytes, line, draw.draw(st.booleans()))


@pytest.mark.parametrize("target, route", [
    ("report", "report --run"), ("report", "report --compare"), ("grid", "report --run"),
    ("config", "xval --config"),
])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(draw=st.data())
def test_retyped_json_value_runs_or_is_named(inputs, target, route, draw):
    root, good = inputs
    damaged_bytes = _retype(draw.draw, good[target].read_bytes())
    _runs_or_is_named(root, good, target, route, damaged_bytes, None, draw.draw(st.booleans()))
