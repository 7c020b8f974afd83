from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sermtl.hlf import HLF_DIM, HLF_FEATURE_NAMES, THETA, compute_hlf, read_hlf_csv, write_hlf_csv

from conftest import make_records


def test_constant_rows():
    post = np.tile([0.7, 0.1, 0.1, 0.1], (8, 1))
    vec = compute_hlf(post)
    assert np.allclose(vec[0:4], [0.7, 0.7, 0.7, 1.0])
    assert np.allclose(vec[4:8], [0.1, 0.1, 0.1, 0.0])


def test_two_row_arithmetic():
    post = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1]])
    vec = compute_hlf(post)
    assert np.allclose(vec[0:4], [0.1, 0.7, 0.4, 0.5])
    assert np.allclose(vec[4:8], [0.1, 0.7, 0.4, 0.5])


def test_length_sixteen_for_any_n():
    rng = np.random.default_rng(0)
    for n in (1, 2, 17, 301):
        raw = rng.random((n, 4)) + 1e-3
        post = raw / raw.sum(axis=1, keepdims=True)
        assert compute_hlf(post).shape == (HLF_DIM,)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(data, n, seed):
    raw = np.random.default_rng(seed).random((n, 4)) + 1e-3
    post = raw / raw.sum(axis=1, keepdims=True)
    perm = data.draw(st.permutations(range(n)))
    vec, shuffled = compute_hlf(post), compute_hlf(post[list(perm)])
    # min/max/frac are exactly order-free; the mean only up to summation order
    mean = np.arange(HLF_DIM) % 4 == 2
    assert np.array_equal(vec[~mean], shuffled[~mean])
    np.testing.assert_allclose(vec[mean], shuffled[mean], rtol=0, atol=1e-12)


def test_min_mean_max_ordering_and_frac_above_theta():
    rng = np.random.default_rng(2)
    raw = rng.random((25, 4)) + 1e-3
    post = raw / raw.sum(axis=1, keepdims=True)
    vec = compute_hlf(post)
    for k in range(4):
        lo, hi, mean, frac = vec[4 * k : 4 * k + 4]
        assert lo <= mean <= hi
        assert frac == np.count_nonzero(post[:, k] > THETA) / len(post)


def test_errors():
    with pytest.raises(ValueError, match="empty"):
        compute_hlf(np.zeros((0, 4)))
    with pytest.raises(ValueError, match="malformed"):
        compute_hlf(np.array([[0.5, 0.5, 0.5, 0.5]]))


def test_csv_round_trip(tmp_path):
    records = make_records(5)
    rng = np.random.default_rng(3)
    rows = []
    for rec in records:
        raw = rng.random((10, 4)) + 1e-3
        rows.append((rec.utterance_id, compute_hlf(raw / raw.sum(axis=1, keepdims=True)), rec))
    path = write_hlf_csv(tmp_path / "hlf.csv", rows)
    header = path.read_text().splitlines()[0].split(",")
    assert tuple(header[1 : 1 + HLF_DIM]) == HLF_FEATURE_NAMES
    ids, matrix, labels = read_hlf_csv(path)
    assert ids == [r.utterance_id for r in records]
    assert matrix.shape == (5, HLF_DIM)
    assert labels["emotion"] == [r.emotion.value for r in records]
    for (uid, vec, _), row in zip(rows, matrix):
        assert np.allclose(vec, row)
