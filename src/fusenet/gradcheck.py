"""Central finite-difference checks of every hand-derived gradient.

Each check returns ``{name: max relative error}``: ``layer_grad_checks``
per layer type, ``grad_check`` per parameter block of one variant. A
non-finite gradient counts as an infinite error. Only the ``gradcheck``
command imports this module.
"""

from __future__ import annotations

import numpy as np

from .embeddings import EmbeddedSequence
from .layers import BiLstmEncoder, DenseLayer, FeedforwardAttention, LstmCell
from .model import ModelConfig, backward, build_variant, forward
from .numcore import Rng, softmax
from .training import batch_loss

GRAD_EPS = 1e-8  # denominator floor in relative-error comparisons
FD_STEP = 1e-5  # central finite-difference step


def numeric_gradient(loss_fn, arr: np.ndarray) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. every entry of arr.

    ``arr`` is perturbed in place and restored; loss_fn must re-read it.
    It may be a view (an LSTM gate block is a column slice of its fused
    matrix), so entries are addressed by index, never through a reshape.
    """
    grad = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        original = arr[idx]
        arr[idx] = original + FD_STEP
        up = loss_fn()
        arr[idx] = original - FD_STEP
        down = loss_fn()
        arr[idx] = original
        grad[idx] = (up - down) / (2.0 * FD_STEP)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """A NaN ratio (a NaN or inf on either side) counts as ``inf``, which
    Python's ``max`` keeps, where it would keep a finite value over NaN."""
    with np.errstate(invalid="ignore"):  # inf - inf, inf / inf
        ratio = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_EPS)
    return float(np.max(np.where(np.isnan(ratio), np.inf, ratio)))


def small_check_config(seed: int) -> ModelConfig:
    # Deliberately tiny (dims <= 8, T <= 5): finite differences cost two
    # forwards per parameter entry. Branches use tanh so the loss surface
    # has no relu kinks, which central differences cannot straddle; the
    # relu derivative is covered by the dense-layer check at a
    # kink-distance-verified input.
    return ModelConfig(
        num_feature_dim=6, cat_feature_dim=5, embed_dim=4,
        lstm_hidden=4, mlp_hidden=6, num_classes=5, max_seq_len=5, seed=seed,
        mlp_activation="tanh",
    )


def grad_check(variant: str = "fusion", seed: int = 0) -> dict[str, float]:
    """Max relative error of each parameter block's analytic vs numeric
    gradient of the full loss, for a small model."""
    config = small_check_config(seed)
    model = build_variant(config, variant)
    rng = Rng(seed).child(99)
    num_x = rng.normal((1, config.num_feature_dim))
    cat_x = (rng.random((1, config.cat_feature_dim)) < 0.5).astype(np.float64)
    vectors = rng.normal((1, config.max_seq_len, config.embed_dim))
    mask = np.array([[True, True, True, True, False]])
    vectors[~mask] = 0.0
    seq = EmbeddedSequence(vectors=vectors, mask=mask, oov_count=0)
    labels = np.array([rng.integers(0, config.num_classes)])

    num_in = num_x if model.uses_tabular else None
    cat_in = cat_x if model.uses_tabular else None
    seq_in = seq if model.uses_text else None

    def loss() -> float:
        probs, _ = forward(model, num_in, cat_in, seq_in)
        return batch_loss(probs, labels)[0]

    probs, cache = forward(model, num_in, cat_in, seq_in)
    analytic = dict(model.param_blocks(backward(model, cache, batch_loss(probs, labels)[1])))
    return {name: max_relative_error(analytic[name], numeric_gradient(loss, arr))
            for name, arr in model.param_blocks()}


def layer_grad_checks(seed: int) -> dict[str, float]:
    """Finite-difference checks of each layer type in isolation, on one-row batches.

    The scalar loss is a random linear functional of the layer output, so
    every backward path is exercised. Returns max relative error per
    check.
    """
    results: dict[str, float] = {}
    rng = Rng(seed).child(7)

    def check(name, loss_fn, pairs):
        results[name] = max(max_relative_error(analytic, numeric_gradient(loss_fn, arr))
                            for analytic, arr in pairs)

    # Dense, smooth activations (+ input gradient).
    for act in ("identity", "sigmoid", "tanh"):
        layer = DenseLayer.init(rng.child(0), 6, 4, act)
        x = rng.normal((1, 6))
        r = rng.normal((1, 4))

        def dense_loss():
            y, _ = layer.forward(x)
            return float(np.vdot(y, r))

        _, cache = layer.forward(x)
        dx, grads = layer.backward(cache, r)
        check(f"dense.{act}", dense_loss,
              [(grads["W"], layer.W), (grads["b"], layer.b), (dx, x)])

    # Dense relu at an input verified to sit away from the kink: a
    # perturbation of one weight moves each pre-activation by at most
    # FD_STEP * max|x|, so any |z| above that bound cannot flip sign.
    layer = DenseLayer.init(rng.child(1), 6, 4, "relu")
    x = rng.normal((1, 6))
    _, cache = layer.forward(x)
    margin = FD_STEP * (1.0 + float(np.max(np.abs(x))) + float(np.max(np.abs(layer.W))))
    if float(np.min(np.abs(cache["z"]))) > 10.0 * margin:
        r = rng.normal((1, 4))

        def relu_loss():
            y, _ = layer.forward(x)
            return float(np.vdot(y, r))

        dx, grads = layer.backward(cache, r)
        check("dense.relu", relu_loss,
              [(grads["W"], layer.W), (grads["b"], layer.b), (dx, x)])

    # One LSTM step; loss reads both h and c.
    cell = LstmCell.init(rng.child(2), 3, 4)
    h_prev = rng.normal((1, 4))
    c_prev = rng.normal((1, 4))
    x_t = rng.normal((1, 3))
    r_h = rng.normal((1, 4))
    r_c = rng.normal((1, 4))

    def lstm_loss():
        h, c, _ = cell.step(h_prev, c_prev, x_t)
        return float(np.vdot(h, r_h) + np.vdot(c, r_c))

    _, _, cache = cell.step(h_prev, c_prev, x_t)
    dh_prev, dc_prev, dx, dW, db = cell.step_backward(cache, r_h, r_c)
    check("lstm_step", lstm_loss, [(dW, cell.W_all), (db, cell.b_all),
                                   (dh_prev, h_prev), (dc_prev, c_prev), (dx, x_t)])

    # BiLSTM over T=3, including gradients through the inputs.
    enc = BiLstmEncoder.init(rng.child(3), 3, 4)
    X = rng.normal((1, 3, 3))
    R = rng.normal((1, 3, 8))

    def bilstm_loss():
        H, _ = enc.forward(X)
        return float(np.sum(H * R))

    _, cache = enc.forward(X)
    dX, grads = enc.backward(cache, R)
    pairs = [(grads[n], enc.params()[n]) for n in grads]
    pairs.append((dX, X))
    check("bilstm.T3", bilstm_loss, pairs)

    # Attention with one masked position.
    attn = FeedforwardAttention.init(rng.child(4), 8)
    H = rng.normal((1, 4, 8))
    mask = np.array([[True, True, True, False]])
    r = rng.normal((1, 8))

    def attn_loss():
        a, _, _ = attn.forward(H, mask)
        return float(np.vdot(a, r))

    _, _, cache = attn.forward(H, mask)
    dH, grads = attn.backward(cache, r)
    check("attention", attn_loss,
          [(grads["w"], attn.w), (grads["b"], attn.b), (dH, H)])

    # Classifier head through softmax + cross-entropy.
    head = DenseLayer.init(rng.child(5), 6, 5, "identity")
    x = rng.normal((1, 6))
    labels = np.array([rng.integers(0, 5)])

    def head_loss():
        logits, _ = head.forward(x)
        return batch_loss(softmax(logits), labels)[0]

    logits, cache = head.forward(x)
    dx, grads = head.backward(cache, batch_loss(softmax(logits), labels)[1])
    check("classifier_head", head_loss,
          [(grads["W"], head.W), (grads["b"], head.b), (dx, x)])

    return results
