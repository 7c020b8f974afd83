from __future__ import annotations

import struct

import numpy as np
import pytest

from gradcheck import grad_check
from sermtl import nn


class TestDense:
    def test_zero_weights_constant_bias(self):
        layer = nn.DenseLayer(4, 3, "linear")
        layer.b[:] = 2.5
        y, _ = layer.forward(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.all(y == 2.5)

    def test_relu_clamps_negatives(self):
        layer = nn.DenseLayer(2, 2, "relu")
        layer.w[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        y, _ = layer.forward(np.array([[-3.0, 4.0]]))
        assert np.allclose(y, [[0.0, 4.0]])

    def test_shape_mismatch(self):
        layer = nn.DenseLayer(4, 3, "linear")
        with pytest.raises(nn.ShapeError):
            layer.forward(np.zeros((2, 5)))

    def test_jacobian_against_finite_differences(self):
        rng = np.random.default_rng(11)
        layer = nn.DenseLayer(4, 3, "relu", rng)
        x = rng.normal(size=(5, 4))
        targets = nn.one_hot(rng.integers(0, 3, 5), 3)

        def loss_fn():
            y, _ = layer.forward(x)
            return nn.softmax_xent(y, targets)[0]

        y, cache = layer.forward(x)
        _, _, dlogits = nn.softmax_xent(y, targets)
        _, grads = layer.backward(dlogits, cache)
        report = grad_check(loss_fn, layer.parameters(), grads, n_samples=15, seed=1)
        assert report.max_rel_err < 1e-4


class TestLSTM:
    def test_all_zero_parameters_give_zero_hidden(self):
        layer = nn.LSTMLayer(3, 4, rng=None)
        layer.b[:] = 0.0
        x = np.random.default_rng(0).normal(size=(2, 5, 3))
        h, _ = layer.forward(x)
        assert np.all(h == 0.0)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(5)
        layer = nn.LSTMLayer(3, 4, rng)
        x = rng.normal(size=(2, 6, 3))
        _, cache = layer.forward(x)
        gates = cache[1]
        iofo = np.concatenate([gates[..., :4], gates[..., 4:8], gates[..., 12:]], axis=-1)
        assert np.all(iofo > 0.0) and np.all(iofo < 1.0)

    def test_forget_bias_initialized_to_one(self):
        layer = nn.LSTMLayer(3, 4, np.random.default_rng(0))
        assert np.all(layer.b[4:8] == 1.0)
        assert np.all(layer.b[:4] == 0.0)

    def test_non_finite_input_rejected(self):
        layer = nn.LSTMLayer(2, 2, np.random.default_rng(0))
        x = np.zeros((1, 3, 2))
        x[0, 1, 0] = np.inf
        with pytest.raises(nn.NumericsError):
            layer.forward(x)

    def test_bptt_against_finite_differences(self):
        rng = np.random.default_rng(7)
        layer = nn.LSTMLayer(3, 4, rng)
        head = nn.DenseLayer(4, 2, "linear", rng)
        x = rng.normal(size=(2, 7, 3))
        targets = nn.one_hot(rng.integers(0, 2, 14), 2)

        def loss_fn():
            h, _ = layer.forward(x)
            logits, _ = head.forward(h.reshape(-1, 4))
            return nn.softmax_xent(logits, targets)[0]

        h, cache = layer.forward(x)
        logits, head_cache = head.forward(h.reshape(-1, 4))
        _, _, dlogits = nn.softmax_xent(logits, targets)
        dh, _ = head.backward(dlogits, head_cache)
        _, grads = layer.backward(dh.reshape(2, 7, 4), cache)
        report = grad_check(loss_fn, layer.parameters(), grads, n_samples=40, seed=2)
        assert report.max_rel_err < 1e-4


@pytest.mark.parametrize("kind", ["dense", "lstm"])
def test_backward_without_input_gradient(kind):
    rng = np.random.default_rng(13)
    if kind == "dense":
        layer, x = nn.DenseLayer(6, 4, "relu", rng, dtype=np.float32), rng.normal(size=(5, 6))
    else:
        layer, x = nn.LSTMLayer(6, 4, rng, dtype=np.float32), rng.normal(size=(2, 5, 6))
    y, cache = layer.forward(x)
    dy = rng.normal(size=y.shape).astype(np.float32)
    full = layer.backward(dy, cache)
    skipped = layer.backward(dy, cache, input_grad=False)
    assert full[0].shape == x.shape and skipped[0] is None
    assert full[1].keys() == skipped[1].keys()
    for name, grad in full[1].items():
        assert np.array_equal(grad, skipped[1][name]), name


class TestSoftmaxXent:
    def test_uniform_at_zero_logits(self):
        logits = np.zeros((3, 4))
        targets = nn.one_hot(np.array([0, 1, 2]), 4)
        loss, probs, _ = nn.softmax_xent(logits, targets)
        assert np.allclose(probs, 0.25)
        assert abs(loss - np.log(4.0)) < 1e-12

    def test_saturated_target_logit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        targets = nn.one_hot(np.array([2]), 4)
        loss, _, _ = nn.softmax_xent(logits, targets)
        assert loss < 1e-6

    def test_gradient_identity(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(8, 4))
        targets = nn.one_hot(rng.integers(0, 4, 8), 4)
        _, probs, dlogits = nn.softmax_xent(logits, targets)
        assert np.array_equal(dlogits, (probs - targets) / 8)

    def test_extreme_logits_stay_normalized(self):
        rng = np.random.default_rng(4)
        logits = rng.uniform(-1e3, 1e3, size=(16, 5))
        targets = nn.one_hot(rng.integers(0, 5, 16), 5)
        _, probs, _ = nn.softmax_xent(logits, targets)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)

    def test_rejects_non_one_hot(self):
        logits = np.zeros((2, 3))
        with pytest.raises(ValueError, match="one-hot"):
            nn.softmax_xent(logits, np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))


class TestAdam:
    def test_zero_gradient_no_op(self):
        w = np.array([1.0, -2.0])
        state = nn.AdamState(np.zeros_like(w), np.zeros_like(w))
        nn.adam_step(state, w, np.zeros(2))
        assert np.array_equal(w, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        w = np.zeros(4)
        state = nn.AdamState(np.zeros_like(w), np.zeros_like(w), lr=3e-3)
        grad = np.array([0.5, -0.25, 2.0, -8.0])
        nn.adam_step(state, w, grad.copy())
        step = -w / np.sign(grad)
        assert np.all(step >= 0.999 * 3e-3 - 1e-12) and np.all(step <= 3e-3 + 1e-12)

    def test_quadratic_descent_matches_scalar_oracle(self):
        # independent scalar recurrence for Adam on f(x) = x^2
        def oracle(x0, steps, lr=3e-3, b1=0.9, b2=0.999, eps=1e-8):
            x, m, v = x0, 0.0, 0.0
            trail = []
            for t in range(1, steps + 1):
                g = 2.0 * x
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
                trail.append(x)
            return trail

        x = np.array([1.0])
        state = nn.AdamState(np.zeros_like(x), np.zeros_like(x), lr=3e-3)
        seen = []
        for _ in range(200):
            nn.adam_step(state, x, 2.0 * x)
            seen.append(float(x[0]))
        expected = oracle(1.0, 200)
        assert np.allclose(seen, expected, atol=1e-12)
        assert abs(seen[-1]) < 0.6
        tail = [abs(v) for v in seen[-50:]]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_non_finite_gradient_rejected(self):
        w = np.ones(2)
        state = nn.AdamState(np.zeros_like(w), np.zeros_like(w))
        with pytest.raises(nn.NumericsError):
            nn.adam_step(state, w, np.array([1.0, np.nan]))


class TestDropout:
    def test_eval_mode_identity(self):
        x = np.random.default_rng(0).normal(size=(10, 10))
        y, mask = nn.dropout(x, 0.0)
        assert y is x and mask is None

    def test_surviving_fraction(self):
        rng = np.random.default_rng(8)
        x = np.ones((500, 200))
        y, mask = nn.dropout(x, 0.5, rng)
        frac = np.count_nonzero(y) / y.size
        assert abs(frac - 0.5) < 0.02
        assert np.all(np.unique(y) == np.array([0.0, 2.0]))

    def test_expectation_preserved(self):
        rng = np.random.default_rng(9)
        x = rng.normal(1.0, 0.5, size=(50, 16))
        col_means = x.mean(axis=0)
        sampled = np.stack([
            nn.dropout(x, 0.5, rng)[0].mean(axis=0)
            for _ in range(100)
        ])
        se = sampled.std(axis=0) / np.sqrt(100)
        assert np.all(np.abs(sampled.mean(axis=0) - col_means) < 3.0 * se + 1e-9)


    @pytest.mark.parametrize("p", [1.0, -0.1])
    def test_probability_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="drop probability"):
            nn.dropout(np.ones((2, 2)), p, np.random.default_rng(0))


class TestGradCheckHarness:
    def test_linear_regression_is_exact(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(3, 5))
        x = rng.normal(size=(20, 5))
        y = rng.normal(size=(20, 3))
        params = {"w": w}

        def loss_fn():
            r = x @ w.T - y
            return float(np.sum(r * r) / 2.0)

        grads = {"w": (x @ w.T - y).T @ x}
        report = grad_check(loss_fn, params, grads, n_samples=15, seed=3)
        assert report.max_rel_err < 1e-7

    def test_detects_injected_sign_error(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 3))
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 2))
        params = {"w": w}

        def loss_fn():
            r = x @ w.T - y
            return float(np.sum(r * r) / 2.0)

        bad = {"w": -((x @ w.T - y).T @ x)}  # wrong sign
        report = grad_check(loss_fn, params, bad, n_samples=6, seed=4)
        assert report.max_rel_err > 1e-1


class TestCheckpoints:
    def test_round_trip_and_determinism(self, tmp_path):
        rng = np.random.default_rng(13)
        params = {
            "layer.w": rng.normal(size=(4, 3)),
            "layer.b": rng.normal(size=4),
        }
        p1 = nn.save_checkpoint(tmp_path / "a.ckpt", params, {"note": "x"})
        p2 = nn.save_checkpoint(tmp_path / "b.ckpt", params, {"note": "x"})
        assert p1.read_bytes() == p2.read_bytes()
        loaded, header = nn.load_checkpoint(p1)
        assert header["note"] == "x"
        for name in params:
            assert np.array_equal(loaded[name], params[name].astype(np.float32).astype(np.float64))

    def _saved(self, tmp_path):
        params = {"w": np.arange(6.0).reshape(2, 3)}
        return nn.save_checkpoint(tmp_path / "m.ckpt", params, {"note": "x"})

    def test_rejects_trailing_bytes(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes") as err:
            nn.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_rejects_header_length_past_end_of_file(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(struct.pack("<I", len(data)) + data[4:])
        with pytest.raises(ValueError, match="exceeds the file size") as err:
            nn.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_rejects_foreign_file(self, tmp_path):
        (tmp_path / "x.ckpt").write_bytes(b"\x02\x00\x00\x00{}")
        with pytest.raises(ValueError):
            nn.load_checkpoint(tmp_path / "x.ckpt")
