"""Damaged inputs of `sermtl hlf`: the manifest CSV, `model.ckpt`, and the
feature store beside it (`features_index.csv` and the header of
`features.npy`).

Each case truncates a file, drops or adds a line or a field, or edits one byte
of a header, then runs `hlf` with the store and, if that succeeds, without it.
It either exits 0 with the table `hlf` writes without the store, or exits 1
with one ``error:`` line that names the damaged file, and the line within it
where the damage is one line. Flipped bytes in the float payloads of
`features.npy` and `model.ckpt` are out of scope: neither file is checksummed.
"""
from __future__ import annotations

import contextlib
import io
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_text
from sermtl.cli import main
from sermtl.features import STORE_INDEX, STORE_MATRIX

# the damaged file of each target, by its name in the run directory or beside the WAVs
_FILES = {"manifest": "manifest.csv", "model": "model.ckpt", "index": STORE_INDEX, "matrix": STORE_MATRIX}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 24-utterance corpus and the bytes of its manifest, of a model trained
    on it and of the store `train` wrote beside the model."""
    root = tmp_path_factory.mktemp("hlf_inputs")
    data, run = root / "data", root / "run"
    assert main(["synth", "--out", str(data), "--seed", "5", "--corpora", "1", "--speakers", "3",
                 "--utts", "8", "--duration", "0.5"]) == 0
    assert main(["train", "--manifest", str(data / "manifest.csv"), "--out", str(run), "--layer-sizes", "4,4",
                 "--max-epochs", "2", "--patience", "1", "--seed", "1"]) == 0
    files = {"manifest": (data / "manifest.csv").read_bytes()}
    files.update((target, (run / name).read_bytes()) for target, name in _FILES.items() if target != "manifest")
    return root, files


def _header_end(target: str, data: bytes) -> int:
    """Where the header of `model.ckpt` or `features.npy` ends."""
    if target == "model":
        return 4 + struct.unpack("<I", data[:4])[0]
    with io.BytesIO(data) as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        return fh.tell()


def _damage(draw, target: str, data: bytes) -> tuple[bytes, int | None]:
    """``data`` damaged, and the line (1-based) whose contents it changed, if one."""
    if target in ("model", "matrix"):
        if draw(st.booleans()):
            return data[: draw(st.integers(0, len(data) - 1))], None
        at = draw(st.integers(0, _header_end(target, data) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[at]))
        return data[:at] + bytes([byte]) + data[at + 1 :], None
    return damage_text(draw, data)


def _hlf(model: Path, manifest: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["hlf", "--model", str(model), "--manifest", str(manifest), "--out", str(out)])
    return code, err.getvalue()


@pytest.mark.parametrize("target", list(_FILES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(draw=st.data())
def test_damaged_input_runs_as_without_the_store_or_is_named(inputs, target, draw):
    root, files = inputs
    damaged, line = _damage(draw.draw, target, files[target])
    case = Path(tempfile.mkdtemp(dir=root))
    # the manifest sits beside the WAVs, whose paths it gives relative to itself
    manifest = root / "data" / f"{case.name}.csv"
    try:
        run, bare = case / "run", case / "bare"
        run.mkdir()
        bare.mkdir()
        contents = {**files, target: damaged}
        manifest.write_bytes(contents["manifest"])
        for name in ("model", "index", "matrix"):
            (run / _FILES[name]).write_bytes(contents[name])
        (bare / "model.ckpt").write_bytes(contents["model"])
        paths = {"manifest": manifest, **{name: run / _FILES[name] for name in ("model", "index", "matrix")}}

        code, err = _hlf(run / "model.ckpt", manifest, case / "with.csv")
        if code == 0:
            assert _hlf(bare / "model.ckpt", manifest, case / "without.csv") == (0, "")
            assert (case / "with.csv").read_bytes() == (case / "without.csv").read_bytes()
            return
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert str(paths[target]) in err, err
        if line is not None:
            assert f"{paths[target]}, line {line}: " in err, err
        assert not (case / "with.csv").exists()
    finally:
        manifest.unlink(missing_ok=True)
        shutil.rmtree(case)
