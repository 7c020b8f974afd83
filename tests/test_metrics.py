from __future__ import annotations

import itertools

import numpy as np
import pytest

from sermtl.metrics import (
    WilcoxonResult,
    confusion_matrix,
    per_class_recall,
    unweighted_accuracy,
    wilcoxon_signed_rank,
    _average_ranks,
)


def table_counts(recalls, row_total=100):
    """Integer confusion rows whose per-class recalls equal the given values."""
    cm = np.zeros((4, 4), dtype=np.int64)
    for i, recall in enumerate(recalls):
        diag = int(round(recall * row_total))
        cm[i, i] = diag
        rest = row_total - diag
        others = [j for j in range(4) if j != i]
        for k, j in enumerate(others):
            cm[i, j] = rest // 3 + (1 if k < rest % 3 else 0)
    return cm


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 2, 3, 1, 2])
        cm = confusion_matrix(labels, labels)
        assert np.array_equal(cm, np.diag([1, 2, 2, 1]))

    def test_single_column_when_all_predicted_neutral(self):
        cm = confusion_matrix([0, 1, 2, 3], [0, 0, 0, 0])
        assert np.all(cm[:, 1:] == 0)
        assert np.array_equal(cm[:, 0], [1, 1, 1, 1])

    def test_total_count_conserved(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 4, 57)
        p = rng.integers(0, 4, 57)
        assert confusion_matrix(t, p).sum() == 57

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])


class TestUnweightedAccuracy:
    # recall diagonals of four reference classifiers with their rounded UAs
    REFERENCE = [
        ((0.99, 0.01, 0.18, 0.26), 0.359),
        ((0.94, 0.02, 0.70, 0.47), 0.534),
        ((0.90, 0.12, 0.65, 0.60), 0.565),
        ((0.91, 0.15, 0.84, 0.61), 0.628),
    ]

    @pytest.mark.parametrize("recalls,expected", REFERENCE)
    def test_reproduces_reference_values(self, recalls, expected):
        ua = unweighted_accuracy(table_counts(recalls))
        assert abs(ua - expected) <= 0.003

    def test_perfect_classifier(self):
        assert unweighted_accuracy(np.diag([5, 9, 2, 7])) == 1.0

    def test_absent_class_excluded(self):
        cm = np.array([[8, 2, 0, 0], [1, 9, 0, 0], [0, 0, 0, 0], [0, 0, 0, 10]])
        ua = unweighted_accuracy(cm)
        assert ua == pytest.approx((0.8 + 0.9 + 1.0) / 3)
        assert per_class_recall(cm)[2] is None

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 4, 200)
        p = rng.integers(0, 4, 200)
        base = unweighted_accuracy(confusion_matrix(t, p))
        perm = np.array([2, 0, 3, 1])
        permuted = unweighted_accuracy(confusion_matrix(perm[t], perm[p]))
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_all_zero_matrix(self):
        with pytest.raises(ValueError):
            unweighted_accuracy(np.zeros((4, 4), dtype=int))


def brute_force_two_sided_p(diffs):
    """Oracle: enumerate all 2^n sign assignments of the observed ranks."""
    diffs = np.asarray(diffs, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    ranks = _average_ranks(np.abs(diffs))
    n = len(ranks)
    w_obs = ranks[diffs > 0].sum()
    center = ranks.sum() / 2.0
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if abs(w - center) >= abs(w_obs - center) - 1e-12:
            hits += 1
    return hits / 2.0**n


class TestWilcoxon:
    def test_one_to_five(self):
        result = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert result.w_plus == 15
        assert result.p_value == 2.0 / 32.0
        assert not result.significant

    def test_antisymmetric_differences(self):
        result = wilcoxon_signed_rank([0, 0, 1, 2], [2, 1, 0, 0])
        assert result.w_plus == result.w_minus == 5
        assert result.p_value == 1.0

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for n in range(4, 13):
            for _ in range(4):
                diffs = rng.integers(-5, 6, n).astype(float)
                if np.all(diffs == 0):
                    diffs[0] = 1.0
                a = diffs
                b = np.zeros(n)
                got = wilcoxon_signed_rank(a, b)
                assert got.p_value == pytest.approx(brute_force_two_sided_p(diffs), abs=1e-12)

    def test_exact_close_to_normal_approximation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            base = rng.normal(size=18)
            shifted = base + rng.normal(0.3, 0.5, 18)
            exact = wilcoxon_signed_rank(shifted, base)
            approx = _normal_branch_p(shifted - base)
            assert abs(exact.p_value - approx) < 0.02
        base = rng.normal(size=100)
        shifted = base + rng.normal(0.03, 0.5, 100)
        exact = wilcoxon_signed_rank(shifted, base)
        assert exact.n == 100 and 0.001 < exact.p_value < 0.999
        assert abs(exact.p_value - _normal_branch_p(shifted - base)) < 0.01

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
        assert r1.w_plus == r2.w_minus

    @pytest.mark.parametrize("n", [21, 22])
    def test_exact_beyond_twenty_matches_enumeration(self, n):
        """Tied ranks and dropped zeros at n = 21 and 22, against the sums of
        all 2^n sign patterns (pattern i gives rank k a plus sign if bit k of i
        is set)."""
        rng = np.random.default_rng(n)
        nonzero = rng.integers(1, 7, n) * rng.choice([-1.0, 1.0], n)
        diffs = np.insert(nonzero, [0, n // 2, n], 0.0)
        ranks = _average_ranks(np.abs(nonzero))
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        sums = np.zeros(1, dtype=np.int64)
        for r in doubled:
            sums = np.concatenate([sums, sums + r])
        observed = int(doubled[nonzero > 0].sum())
        total = int(doubled.sum())
        hits = np.count_nonzero(np.abs(2 * sums - total) >= abs(2 * observed - total))
        got = wilcoxon_signed_rank(diffs, np.zeros(diffs.size))
        assert got.n == n and len(np.unique(np.abs(nonzero))) < n
        assert got.w_plus == observed / 2.0
        assert got.p_value == hits / 2.0**n

    def test_all_zero_differences(self):
        result = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert result == WilcoxonResult(w_plus=0.0, w_minus=0.0, n=0, p_value=1.0, significant=False)

    def test_zeros_dropped(self):
        result = wilcoxon_signed_rank([1, 2, 3, 0, 0], [0, 0, 0, 0, 0])
        assert result.n == 3


def _normal_branch_p(diffs):
    """Independent normal-approximation computation used for cross-checks."""
    import math

    diffs = np.asarray(diffs, float)
    diffs = diffs[diffs != 0]
    n = diffs.size
    ranks = _average_ranks(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, ties = np.unique(np.abs(diffs), return_counts=True)
    var -= np.sum(ties**3 - ties) / 48.0
    dev = w_plus - mu
    z = (dev - 0.5 * np.sign(dev)) / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
