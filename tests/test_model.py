import tracemalloc

import numpy as np
import pytest

from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import AllMaskedError
from fusenet.model import (ConfigError, CorruptModelError, FusionModel, ModelLoadError,
                           ModelConfig, VersionError, backward, build_variant, clone,
                           forward, head_input_dim, load, param_count, predict_topk, save,
                           topk_indices)
from fusenet.numcore import Rng, ShapeError
from fusenet.training import batch_loss, grad_check, max_relative_error, numeric_gradient


def small_config(**overrides):
    base = dict(num_feature_dim=6, cat_feature_dim=5, embed_dim=4,
                lstm_hidden=4, mlp_hidden=6, num_classes=13, max_seq_len=5, seed=1)
    base.update(overrides)
    return ModelConfig(**base)


def random_seq(rng, config, masked_tail=1):
    """A one-row batch: (1, T, embed_dim) vectors with a (1, T) mask."""
    vectors = rng.normal((1, config.max_seq_len, config.embed_dim))
    mask = np.ones((1, config.max_seq_len), dtype=bool)
    if masked_tail:
        mask[:, -masked_tail:] = False
        vectors[~mask] = 0.0
    return EmbeddedSequence(vectors=vectors, mask=mask, oov_count=0)


def random_inputs(seed, config):
    """One example as a one-row batch."""
    rng = Rng(seed).child(3)
    return (rng.normal((1, config.num_feature_dim)), rng.normal((1, config.cat_feature_dim)),
            random_seq(rng, config))


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build_variant(small_config(), "fusion")
        b = build_variant(small_config(), "fusion")
        for (name_a, arr_a), (name_b, arr_b) in zip(a.param_blocks(), b.param_blocks()):
            assert name_a == name_b
            assert np.array_equal(arr_a, arr_b)

    def test_head_dim_arithmetic(self):
        config = ModelConfig(num_feature_dim=100, cat_feature_dim=20, embed_dim=300,
                             lstm_hidden=64, mlp_hidden=64)
        assert head_input_dim(config, "fusion") == 64 + 64 + 128 == 256
        model = build_variant(config, "fusion")
        assert model.head.in_dim == 256

    def test_theta_of_the_wrong_size_is_a_construction_error(self):
        config = small_config()
        size = param_count(config, "fusion")
        for theta in (np.zeros(size + 1), np.zeros(size - 1), np.zeros(size, dtype=np.float32)):
            with pytest.raises(ShapeError, match=str(size)):
                FusionModel(config, "fusion", theta)
        model = build_variant(config, "fusion")
        for vec in (np.zeros(size, dtype=np.int64), np.zeros(2 * size)[::2]):
            with pytest.raises(ShapeError):
                model.param_blocks(vec)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigError):
            small_config(num_feature_dim=0)
        with pytest.raises(ConfigError):
            small_config(num_classes=1)


class TestForward:
    def test_zero_parameters_give_uniform_probs(self):
        model = build_variant(small_config(), "fusion")
        for _, arr in model.param_blocks():
            arr[...] = 0.0
        num, cat, seq = random_inputs(0, model.config)
        probs, _ = forward(model, num, cat, seq)
        assert np.max(np.abs(probs - 1.0 / 13)) < 1e-15
        assert topk_indices(probs, 3).tolist() == [[0, 1, 2]]

    def test_all_masked_error_names_its_batch_row(self):
        model = build_variant(small_config(), "fusion")
        num, cat, seq = random_inputs(1, model.config)
        seq.mask[:] = False
        with pytest.raises(AllMaskedError, match=r"^attention: .* \(batch row 0\)$"):
            forward(model, num, cat, seq)

    def test_end_to_end_gradient_check(self):
        assert grad_check("fusion", seed=0).max_rel_err < 1e-4

    def test_probs_sum_to_one(self):
        model = build_variant(small_config(), "fusion")
        for seed in range(5):
            num, cat, seq = random_inputs(seed, model.config)
            probs, _ = forward(model, num, cat, seq)
            assert abs(probs.sum() - 1.0) < 1e-12


class TestVariants:
    def test_text_only_head_dim(self):
        model = build_variant(small_config(), "text")
        assert model.head.in_dim == 2 * model.config.lstm_hidden

    def test_mlp_only_head_dim(self):
        model = build_variant(small_config(), "mlp")
        assert model.head.in_dim == 2 * model.config.mlp_hidden

    def test_mlp_only_ignores_text(self):
        model = build_variant(small_config(), "mlp")
        num, cat, seq = random_inputs(2, model.config)
        p1, _ = forward(model, num, cat, seq)
        seq2 = random_seq(Rng(99), model.config)
        p2, _ = forward(model, num, cat, seq2)
        assert np.array_equal(p1, p2)

    def test_text_only_requires_sequence(self):
        model = build_variant(small_config(), "text")
        with pytest.raises(Exception):
            forward(model, None, None, None)

    def test_variant_gradients(self):
        assert grad_check("text", seed=1).max_rel_err < 1e-4
        assert grad_check("mlp", seed=1).max_rel_err < 1e-5


class TestTopK:
    def test_tie_break_toward_lower_index(self):
        probs = np.array([[0.5, 0.3, 0.1, 0.1]])
        assert topk_indices(probs, 3).tolist() == [[0, 1, 2]]

    def test_k_equals_num_classes_is_a_permutation(self):
        probs = np.array([[0.2, 0.5, 0.1, 0.2]])
        assert sorted(topk_indices(probs, 4)[0].tolist()) == [0, 1, 2, 3]

    def test_matches_full_sort_oracle(self):
        rng = Rng(33)
        for _ in range(1000):
            raw = rng.random(13)
            probs = raw / raw.sum()
            k = int(rng.integers(1, 14))
            oracle = sorted(range(13), key=lambda i: (-probs[i], i))[:k]
            assert topk_indices(probs[None], k).tolist() == [oracle]

    def test_k_out_of_range(self):
        model = build_variant(small_config(), "mlp")
        num, cat, _ = random_inputs(3, model.config)
        with pytest.raises(ValueError):
            predict_topk(model, num[0], cat[0], None, k=14)
        with pytest.raises(ValueError):
            predict_topk(model, num[0], cat[0], None, k=0)


class TestProperties:
    def test_branch_independence_via_zeroed_text_rows(self):
        # With the text segment's head rows zeroed, the output is a
        # function of the tabular inputs only.
        model = build_variant(small_config(), "fusion")
        text_width = 2 * model.config.lstm_hidden
        model.head.W[-text_width:, :] = 0.0
        num, cat, seq = random_inputs(4, model.config)
        p1, _ = forward(model, num, cat, seq)
        p2, _ = forward(model, num, cat, random_seq(Rng(5).child(9), model.config))
        assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_argmax_stable_under_positive_scaling(self):
        config = small_config()
        model = build_variant(config, "fusion")
        model.head.b[...] = 0.0
        rng = Rng(6).child(1)
        for seed in range(10):
            c = rng.normal((1, model.head.in_dim))
            logits1, _ = model.head.forward(c)
            logits2, _ = model.head.forward(3.7 * c)
            assert int(np.argmax(logits1)) == int(np.argmax(logits2))


def assert_blocks_tile(blocks, vec):
    """Every block is a view of ``vec``, and together they cover each entry once."""
    owner = np.zeros(vec.shape, dtype=int)
    for name, arr in blocks:
        assert np.shares_memory(arr, vec), name
        marker = vec.copy()
        arr[...] = np.nan  # mark the block's entries through the view
        owner += np.isnan(vec)
        vec[...] = marker
    assert sum(arr.size for _, arr in blocks) == vec.size
    assert np.all(owner == 1)


class TestSaveLoad:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        for variant in ("fusion", "mlp", "text"):
            self.check_round_trip_and_layout(variant, tmp_path)

    def check_round_trip_and_layout(self, variant, tmp_path):
        model = build_variant(small_config(), variant)
        path = tmp_path / f"{variant}.afn"
        save(model, path)
        loaded = load(path)
        num, cat, seq = random_inputs(5, model.config)
        p1, cache = forward(model, num, cat, seq)
        p2, _ = forward(loaded, num, cat, seq)
        assert np.array_equal(p1, p2)
        assert np.array_equal(model.theta, loaded.theta)
        for (na, a), (nb, b) in zip(model.param_blocks(), loaded.param_blocks()):
            assert na == nb and np.array_equal(a, b)

        # One flat vector: the blocks tile theta, and gradients share its layout.
        assert model.theta.shape == (param_count(model.config, variant),)
        assert_blocks_tile(model.param_blocks(), model.theta)
        assert_blocks_tile(loaded.param_blocks(), loaded.theta)
        dlogits = p1.copy()
        dlogits[0, 2] -= 1.0
        grad = backward(model, cache, dlogits)
        assert grad.shape == model.theta.shape and not np.shares_memory(grad, model.theta)
        assert_blocks_tile(model.param_blocks(grad), grad)
        # The norm's summation order: the head first, as backward computes it.
        assert list(model.grad_blocks(grad))[:2] == ["head.W", "head.b"]
        assert {n: a.shape for n, a in model.grad_blocks(grad).items()} == {
            n: a.shape for n, a in model.param_blocks()}
        assert all(np.shares_memory(a, grad) for a in model.grad_blocks(grad).values())

        # Copies own their memory.
        copy = clone(model)
        assert not np.shares_memory(copy.theta, model.theta)
        assert np.array_equal(copy.theta, model.theta)
        copy.head.b[0] += 1.0
        assert not np.array_equal(copy.theta, model.theta)

        if variant == "mlp":
            return
        # An LSTM gate block is a column view of its direction's fused matrix,
        # and finite differences through that view match the flat gradient.
        blocks = dict(model.param_blocks())
        gate = blocks["encoder.bwd.W_o"]
        W_all = model.encoder.bwd.W_all
        assert not gate.flags.c_contiguous and np.shares_memory(gate, W_all)
        assert np.shares_memory(W_all, model.theta)
        labels = np.array([2])

        def loss():
            return batch_loss(forward(model, num, cat, seq)[0], labels)[0]

        analytic = dict(model.param_blocks(grad))["encoder.bwd.W_o"]
        assert max_relative_error(analytic, numeric_gradient(loss, gate)) < 1e-4

    @pytest.mark.parametrize("hidden", [400, 100_000])
    def test_header_claiming_a_larger_model_fails_before_allocating(self, hidden, tmp_path):
        path = tmp_path / "model.afn"
        save(build_variant(small_config(), "fusion"), path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"lstm_hidden 4\n", f"lstm_hidden {hidden}\n".encode(), 1))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptModelError, match="size mismatch") as err:
                load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(param_count(small_config(lstm_hidden=hidden), "fusion")) in str(err.value)
        assert peak < 1_000_000

    def test_config_round_trips(self, tmp_path):
        config = small_config(mlp_activation="tanh", seed=9)
        model = build_variant(config, "text")
        path = tmp_path / "m.afn"
        save(model, path)
        loaded = load(path)
        assert loaded.config == config
        assert loaded.variant == "text"

    def test_truncated_file_is_corrupt_error(self, tmp_path):
        model = build_variant(small_config(), "fusion")
        path = tmp_path / "model.afn"
        save(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(CorruptModelError):
            load(path)

    def test_version_bump_is_version_error(self, tmp_path):
        model = build_variant(small_config(), "fusion")
        path = tmp_path / "model.afn"
        save(model, path)
        data = path.read_bytes().replace(b"afn-checkpoint 1\n", b"afn-checkpoint 2\n", 1)
        path.write_bytes(data)
        with pytest.raises(VersionError):
            load(path)

    def test_shape_mismatch_names_field(self, tmp_path):
        model = build_variant(small_config(), "fusion")
        path = tmp_path / "model.afn"
        save(model, path)
        data = path.read_bytes().replace(b"block mlp_num.0.W 6 6\n", b"block mlp_num.0.W 6 7\n", 1)
        path.write_bytes(data)
        with pytest.raises(ModelLoadError, match="mlp_num.0.W"):
            load(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world\n")
        with pytest.raises(ModelLoadError):
            load(path)


@pytest.mark.parametrize("variant", ["fusion", "text", "mlp"])
def test_backward_into_out_gives_the_allocating_call_bytes(variant):
    config = small_config()
    model = build_variant(config, variant)
    rng = Rng(8).child(1)
    rows = 3
    num, cat = rng.normal((rows, config.num_feature_dim)), rng.normal((rows, config.cat_feature_dim))
    vectors = rng.normal((rows, config.max_seq_len, config.embed_dim))
    mask = np.arange(config.max_seq_len) < np.array([[5], [3], [1]])
    vectors[~mask] = 0.0
    seq = EmbeddedSequence(vectors=vectors, mask=mask, oov_count=0)
    dlogits = rng.normal((rows, config.num_classes))

    def cache():  # a fresh one per backward, which overwrites the encoder's
        return forward(model, num, cat, seq if model.uses_text else None)[1]

    expected = backward(model, cache(), dlogits)
    out = np.full(model.theta.size, np.nan)
    assert backward(model, cache(), dlogits, out=out) is out
    assert out.tobytes() == expected.tobytes()
    size = model.theta.size
    for bad in (np.empty(size + 1), np.empty(size - 1), np.empty(size, np.float32),
                np.empty((1, size)), np.empty(2 * size)[::2]):
        with pytest.raises(ShapeError, match="backward's out"):
            backward(model, cache(), dlogits, out=bad)


def test_cross_entropy_gradient_identity_at_logits():
    # d loss / d logits == probs - onehot(label), via finite differences.
    model = build_variant(small_config(mlp_activation="tanh"), "mlp")
    rng = Rng(12).child(2)
    num = rng.normal((1, model.config.num_feature_dim))
    cat = rng.normal((1, model.config.cat_feature_dim))
    labels = np.array([4])
    probs, cache = forward(model, num, cat, None)
    analytic = probs.copy()
    analytic[0, 4] -= 1.0

    logits = cache["logits"]
    step = 1e-7
    from fusenet.numcore import softmax
    numeric = np.zeros_like(logits)
    for j in range(logits.shape[1]):
        up = logits.copy()
        up[0, j] += step
        down = logits.copy()
        down[0, j] -= step
        numeric[0, j] = (batch_loss(softmax(up), labels)[0]
                         - batch_loss(softmax(down), labels)[0]) / (2 * step)
    assert np.max(np.abs(analytic - numeric)) < 1e-7
