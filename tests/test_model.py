import numpy as np
import pytest

from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import AllMaskedError
from fusenet.model import (ConfigError, CorruptModelError, ModelLoadError,
                           ModelConfig, VersionError, backward, build_variant,
                           forward, head_input_dim, load, predict_topk, save,
                           topk_indices)
from fusenet.numcore import Rng
from fusenet.training import cross_entropy, grad_check


def small_config(**overrides):
    base = dict(num_feature_dim=6, cat_feature_dim=5, embed_dim=4,
                lstm_hidden=4, mlp_hidden=6, num_classes=13, max_seq_len=5, seed=1)
    base.update(overrides)
    return ModelConfig(**base)


def random_seq(rng, config, masked_tail=1):
    vectors = rng.normal((config.max_seq_len, config.embed_dim))
    mask = np.ones(config.max_seq_len, dtype=bool)
    if masked_tail:
        mask[-masked_tail:] = False
        vectors[~mask] = 0.0
    return EmbeddedSequence(vectors=vectors, mask=mask, oov_count=0)


def random_inputs(seed, config):
    rng = Rng(seed).child(3)
    return rng.normal(config.num_feature_dim), rng.normal(config.cat_feature_dim), random_seq(rng, config)


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

    def test_injected_head_mismatch_is_a_construction_error(self):
        model = build_variant(small_config(), "fusion")
        model.head.W = np.zeros((model.head.in_dim + 1, model.config.num_classes))
        with pytest.raises(ConfigError):
            model.validate_shapes()

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
        pred, _ = forward(model, num, cat, seq)
        assert np.max(np.abs(pred.probs - 1.0 / 13)) < 1e-15
        assert pred.top_k == [0, 1, 2]

    def test_all_masked_error_carries_example_id(self):
        model = build_variant(small_config(), "fusion")
        num, cat, seq = random_inputs(1, model.config)
        seq.mask[:] = False
        with pytest.raises(AllMaskedError, match="example case-7"):
            forward(model, num, cat, seq, example_id="case-7")

    def test_end_to_end_gradient_check(self):
        assert grad_check("fusion", seed=0).max_rel_err < 1e-4

    def test_probs_sum_to_one(self):
        model = build_variant(small_config(), "fusion")
        for seed in range(5):
            num, cat, seq = random_inputs(seed, model.config)
            pred, _ = forward(model, num, cat, seq)
            assert abs(pred.probs.sum() - 1.0) < 1e-12


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
        assert np.array_equal(p1.probs, p2.probs)

    def test_text_only_requires_sequence(self):
        model = build_variant(small_config(), "text")
        with pytest.raises(Exception):
            forward(model, None, None, None)

    def test_variant_gradients(self):
        assert grad_check("text", seed=1).max_rel_err < 1e-4
        assert grad_check("mlp", seed=1).max_rel_err < 1e-5


class TestTopK:
    def test_tie_break_toward_lower_index(self):
        probs = np.array([0.5, 0.3, 0.1, 0.1])
        assert topk_indices(probs, 3) == [0, 1, 2]

    def test_k_equals_num_classes_is_a_permutation(self):
        probs = np.array([0.2, 0.5, 0.1, 0.2])
        assert sorted(topk_indices(probs, 4)) == [0, 1, 2, 3]

    def test_matches_full_sort_oracle(self):
        rng = Rng(33)
        for _ in range(1000):
            raw = rng.random(13)
            probs = raw / raw.sum()
            k = int(rng.integers(1, 14))
            oracle = sorted(range(13), key=lambda i: (-probs[i], i))[:k]
            assert topk_indices(probs, k) == oracle

    def test_k_out_of_range(self):
        model = build_variant(small_config(), "mlp")
        num, cat, _ = random_inputs(3, model.config)
        with pytest.raises(ValueError):
            predict_topk(model, num, cat, None, k=14)
        with pytest.raises(ValueError):
            predict_topk(model, num, cat, None, k=0)


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
        assert np.max(np.abs(p1.probs - p2.probs)) < 1e-12

    def test_argmax_stable_under_positive_scaling(self):
        config = small_config()
        model = build_variant(config, "fusion")
        model.head.b[...] = 0.0
        rng = Rng(6).child(1)
        for seed in range(10):
            c = rng.normal(model.head.in_dim)
            logits1, _ = model.head.forward(c)
            logits2, _ = model.head.forward(3.7 * c)
            assert int(np.argmax(logits1)) == int(np.argmax(logits2))


class TestSaveLoad:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        model = build_variant(small_config(), "fusion")
        path = tmp_path / "model.afn"
        save(model, path)
        loaded = load(path)
        num, cat, seq = random_inputs(5, model.config)
        p1, _ = forward(model, num, cat, seq)
        p2, _ = forward(loaded, num, cat, seq)
        assert np.array_equal(p1.probs, p2.probs)
        for (na, a), (nb, b) in zip(model.param_blocks(), loaded.param_blocks()):
            assert na == nb and np.array_equal(a, b)

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


def test_cross_entropy_gradient_identity_at_logits():
    # d loss / d logits == probs - onehot(label), via finite differences.
    model = build_variant(small_config(mlp_activation="tanh"), "mlp")
    rng = Rng(12).child(2)
    num = rng.normal(model.config.num_feature_dim)
    cat = rng.normal(model.config.cat_feature_dim)
    label = 4
    pred, cache = forward(model, num, cat, None)
    analytic = pred.probs.copy()
    analytic[label] -= 1.0

    logits = cache["logits"]
    step = 1e-7
    from fusenet.numcore import softmax
    numeric = np.zeros_like(logits)
    for j in range(logits.shape[0]):
        up = logits.copy()
        up[j] += step
        down = logits.copy()
        down[j] -= step
        numeric[j] = (cross_entropy(softmax(up), label) - cross_entropy(softmax(down), label)) / (2 * step)
    assert np.max(np.abs(analytic - numeric)) < 1e-7
