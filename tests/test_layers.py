import numpy as np
import pytest

from fusenet.layers import (AllMaskedError, BiLstmEncoder, DenseLayer,
                            FeedforwardAttention, LstmCell)
from fusenet.numcore import Rng, ShapeError
from fusenet.gradcheck import layer_grad_checks


class TestDense:
    def test_identity_passthrough(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "identity")
        y, _ = layer.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(y, [[1.0, 2.0]])

    def test_sigmoid_zero_layer(self):
        layer = DenseLayer(np.zeros((3, 4)), np.zeros(4), "sigmoid")
        y, _ = layer.forward(np.array([[5.0, -2.0, 0.1]]))
        assert np.array_equal(y, np.full((1, 4), 0.5))

    def test_finite_difference_seed7(self):
        results = layer_grad_checks(seed=7)
        for name in ("dense.identity", "dense.sigmoid", "dense.tanh"):
            assert results[name] < 1e-6, (name, results[name])

    def test_zero_upstream_gives_zero_grads(self):
        layer = DenseLayer.init(Rng(2), 4, 3, "tanh")
        _, cache = layer.forward(Rng(3).normal((1, 4)))
        dx, grads = layer.backward(cache, np.zeros((1, 3)))
        assert not dx.any()
        assert not grads["W"].any() and not grads["b"].any()

    def test_identity_input_grad_is_w_dot_upstream(self):
        layer = DenseLayer.init(Rng(4), 5, 3, "identity")
        x = Rng(5).normal((1, 5))
        upstream = Rng(6).normal((1, 3))
        _, cache = layer.forward(x)
        dx, _ = layer.backward(cache, upstream)
        assert np.allclose(dx[0], layer.W @ upstream[0], atol=1e-15)

    def test_shape_mismatch_raises(self):
        layer = DenseLayer.init(Rng(0), 4, 3)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 5)))


class TestLstmCell:
    def test_zero_everything_forced_values(self):
        h = np.zeros((1, 3))
        c = np.zeros((1, 3))
        cell = LstmCell(np.zeros((5, 12)), np.zeros(12))
        h1, c1, cache = cell.step(h, c, np.array([[1.0, -2.0]]))
        assert np.array_equal(cache["i"], np.full((1, 3), 0.5))
        assert np.array_equal(cache["f"], np.full((1, 3), 0.5))
        assert np.array_equal(cache["o"], np.full((1, 3), 0.5))
        assert np.array_equal(cache["q"], np.zeros((1, 3)))
        assert np.array_equal(c1, np.zeros((1, 3)))
        assert np.array_equal(h1, np.zeros((1, 3)))

    def test_zero_weights_nonzero_cell_state(self):
        c_prev = np.array([[0.4, -1.2, 2.0]])
        cell = LstmCell(np.zeros((5, 12)), np.zeros(12))
        h1, c1, _ = cell.step(np.zeros((1, 3)), c_prev, np.zeros((1, 2)))
        assert np.allclose(c1, 0.5 * c_prev, atol=1e-15)
        assert np.allclose(h1, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_finite_difference_seed11(self):
        assert layer_grad_checks(seed=11)["lstm_step"] < 1e-5

    def test_gate_ranges(self):
        for seed in range(5):
            rng = Rng(seed)
            cell = LstmCell.init(rng.child(0), 3, 4)
            h = np.zeros((1, 4))
            c = np.zeros((1, 4))
            for t in range(6):
                h, c, cache = cell.step(h, c, rng.normal((1, 3)) * 3)
                for gate in ("i", "f", "o"):
                    assert np.all((cache[gate] > 0) & (cache[gate] < 1))
                assert np.all((cache["q"] > -1) & (cache["q"] < 1))

    def test_forget_bias_initialized_to_one(self):
        cell = LstmCell.init(Rng(1), 3, 4)
        assert np.array_equal(cell.b_all[4:8], np.ones(4))  # the f gate, second in GATES
        assert not cell.b_all[:4].any()


class TestBiLstm:
    def test_single_step_reduction(self):
        enc = BiLstmEncoder.init(Rng(8), 3, 4)
        x = Rng(9).normal((1, 1, 3))
        H, _ = enc.forward(x)
        hf, _, _ = enc.fwd.step(np.zeros((1, 4)), np.zeros((1, 4)), x[:, 0])
        hb, _, _ = enc.bwd.step(np.zeros((1, 4)), np.zeros((1, 4)), x[:, 0])
        assert np.array_equal(H[:, 0], np.concatenate([hf, hb], axis=1))

    def test_zero_weight_cells_output_zero(self):
        zero_cell = lambda: LstmCell(np.zeros((7, 16)), np.zeros(16))
        enc = BiLstmEncoder(zero_cell(), zero_cell())
        H, _ = enc.forward(Rng(10).normal((1, 5, 3)))
        assert not H.any()

    def test_output_width(self):
        enc = BiLstmEncoder.init(Rng(11), 3, 6)
        H, _ = enc.forward(Rng(12).normal((1, 4, 3)))
        assert H.shape == (1, 4, 12)

    def test_directional_independence(self):
        # Forward half of row t ignores inputs after t; backward half
        # ignores inputs before t.
        enc = BiLstmEncoder.init(Rng(13), 3, 4)
        rng = Rng(14)
        X = rng.normal((1, 5, 3))
        H, _ = enc.forward(X)
        X2 = X.copy()
        X2[:, 3:] += rng.normal((1, 2, 3))
        H2, _ = enc.forward(X2)
        assert np.array_equal(H[:, :3, :4], H2[:, :3, :4])
        X3 = X.copy()
        X3[:, :2] += rng.normal((1, 2, 3))
        H3, _ = enc.forward(X3)
        assert np.array_equal(H[:, 2:, 4:], H3[:, 2:, 4:])

    def test_full_bptt_finite_difference(self):
        for seed in (0, 1, 2):
            assert layer_grad_checks(seed=seed)["bilstm.T3"] < 1e-4


class TestAttention:
    def test_uniform_attention_gives_row_mean(self):
        attn = FeedforwardAttention(np.zeros(6), np.zeros(1))
        H = Rng(15).normal((1, 4, 6))
        a, alphas, _ = attn.forward(H, np.ones((1, 4), dtype=bool))
        assert np.array_equal(alphas, np.full((1, 4), 0.25))
        assert np.allclose(a, H.mean(axis=1), atol=1e-15)

    def test_identical_rows_return_that_row(self):
        attn = FeedforwardAttention.init(Rng(16), 6)
        row = Rng(17).normal(6)
        H = np.tile(row, (1, 5, 1))
        a, _, _ = attn.forward(H, np.ones((1, 5), dtype=bool))
        assert np.max(np.abs(a - row)) < 1e-12

    def test_masked_positions_get_exactly_zero(self):
        attn = FeedforwardAttention.init(Rng(18), 4)
        H = Rng(19).normal((1, 6, 4))
        mask = np.array([[True, False, True, False, True, False]])
        a, alphas, _ = attn.forward(H, mask)
        assert np.all(alphas[~mask] == 0.0)
        assert abs(alphas.sum() - 1.0) < 1e-12

    def test_all_masked_is_an_error(self):
        attn = FeedforwardAttention.init(Rng(20), 4)
        with pytest.raises(AllMaskedError):
            attn.forward(Rng(21).normal((1, 3, 4)), np.zeros((1, 3), dtype=bool))

    def test_output_in_convex_hull(self):
        attn = FeedforwardAttention.init(Rng(22), 5)
        for seed in range(10):
            H = Rng(seed).normal((1, 7, 5))
            mask = np.ones((1, 7), dtype=bool)
            mask[0, seed % 7] = False
            a, _, _ = attn.forward(H, mask)
            live = H[mask]
            assert np.all(a >= live.min(axis=0) - 1e-12)
            assert np.all(a <= live.max(axis=0) + 1e-12)

    def test_finite_difference_seed13(self):
        assert layer_grad_checks(seed=13)["attention"] < 1e-5

    def test_alpha_nonnegative_and_normalized(self):
        attn = FeedforwardAttention.init(Rng(23), 4)
        for seed in range(20):
            rng = Rng(seed).child(5)
            H = rng.normal((1, 6, 4)) * 3
            mask = rng.random((1, 6)) < 0.7
            if not mask.any():
                mask[0, 0] = True
            _, alphas, _ = attn.forward(H, mask)
            assert np.all(alphas >= 0)
            assert abs(alphas.sum() - 1.0) < 1e-12


class TestAllLayersGradients:
    def test_every_layer_under_tolerance_across_seeds(self):
        for seed in range(3):
            for name, err in layer_grad_checks(seed=seed).items():
                assert err < 1e-4, (seed, name, err)

    def test_deterministic_forward_backward(self):
        a = layer_grad_checks(seed=42)
        b = layer_grad_checks(seed=42)
        assert a == b
