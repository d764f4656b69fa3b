import math

import numpy as np
import pytest

from fusenet.numcore import Rng, ShapeError, affine, glorot_uniform, sigmoid, softmax


def naive_affine(W, x, b):
    """Triple-loop oracle for W^T x + b."""
    out = [0.0] * W.shape[1]
    for j in range(W.shape[1]):
        acc = 0.0
        for i in range(W.shape[0]):
            acc += W[i, j] * x[i]
        out[j] = acc + b[j]
    return np.array(out)


class TestAffine:
    def test_identity(self):
        W = np.eye(2)
        assert np.array_equal(affine(W, np.array([3.0, 4.0]), np.zeros(2)), [3.0, 4.0])

    def test_zero_map_returns_bias(self):
        W = np.zeros((2, 2))
        b = np.array([1.0, 2.0])
        assert np.array_equal(affine(W, np.array([9.0, -9.0]), b), b)

    def test_matches_naive_oracle(self):
        rng = Rng(42)
        for _ in range(20):
            W = rng.normal((5, 7))
            x = rng.normal(5)
            b = rng.normal(7)
            assert np.max(np.abs(affine(W, x, b) - naive_affine(W, x, b))) < 1e-12

    def test_linearity(self):
        rng = Rng(3)
        zero = np.zeros(4)
        for _ in range(50):
            W = rng.normal((6, 4))
            x, y = rng.normal(6), rng.normal(6)
            a = float(rng.normal())
            lhs = affine(W, a * x + y, zero)
            rhs = a * affine(W, x, zero) + affine(W, y, zero)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_shape_errors_name_both_shapes(self):
        with pytest.raises(ShapeError, match="3 rows.*length 2"):
            affine(np.zeros((3, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ShapeError, match="2 cols.*length 3"):
            affine(np.zeros((3, 2)), np.zeros(3), np.zeros(3))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_log_forced_values(self):
        out = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        assert np.max(np.abs(out - np.array([1, 2, 3]) / 6.0)) < 1e-12

    def test_large_inputs_do_not_overflow(self):
        out = softmax(np.array([1000.0, 1000.0]))
        assert np.array_equal(out, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = Rng(9)
        for _ in range(50):
            z = rng.normal(6)
            c = float(rng.normal()) * 100
            assert np.max(np.abs(softmax(z + c) - softmax(z))) < 1e-12

    def test_sums_to_one_and_in_range(self):
        rng = Rng(10)
        for _ in range(100):
            out = softmax(rng.normal(8) * 10)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0) and np.all(out < 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_tanh_at_zero(self):
        assert np.tanh(np.array([0.0]))[0] == 0.0

    def test_sigmoid_symmetry_identity(self):
        rng = Rng(4)
        x = rng.normal(1000) * 20
        total = sigmoid(x) + sigmoid(-x)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_ranges(self):
        # Strict interior of the ranges, below float64 saturation (~|x|>36
        # rounds sigmoid to exactly 1.0).
        rng = Rng(5)
        x = rng.uniform(-30.0, 30.0, 1000)
        s = sigmoid(x)
        t = np.tanh(np.clip(x, -15, 15))
        assert np.all((s > 0) & (s < 1))
        assert np.all((t > -1) & (t < 1))

    def test_saturation_is_clamped_not_nan(self):
        s = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[1] == 1.0


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(50)
        b = Rng(123).normal(50)
        assert np.array_equal(a, b)

    def test_children_are_independent_and_deterministic(self):
        a = Rng(1).child(0).normal(10)
        b = Rng(1).child(1).normal(10)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(1).child(0).normal(10))

    def test_glorot_limits(self):
        W = glorot_uniform(Rng(0), 30, 50)
        limit = math.sqrt(6.0 / 80.0)
        assert W.shape == (30, 50)
        assert np.all(np.abs(W) <= limit)
