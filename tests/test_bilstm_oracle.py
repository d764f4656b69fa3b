"""The BiLSTM encoder against the per-step encoder it replaced.

``oracle_forward``/``oracle_backward`` run one ``[h_prev, x_t] @ W_all``
product per step and direction, keep only each step's cell state, and
recompute a step's gates in backward, accumulating the weight gradients
step by step. They are kept here only as the oracle. The encoder hoists
``X @ W_x`` out of the time loop and keeps the gate activations instead;
on every input below both must give the same H, dX and four fused
gradient arrays (each direction's ``W_all`` and ``b_all``) to within 1e-12. The cache-free forward (``keep=False``) must
give the same H as the cached one, bit for bit, up to the rows' longest
live length, and zero after it.
"""

import numpy as np
import pytest

from fusenet.layers import BiLstmEncoder, LstmCell, live_lengths
from fusenet.numcore import Rng, sigmoid

TOL = 1e-12


def oracle_step(cell, h_prev, c_prev, x_t):
    n = cell.hidden_dim
    u = np.concatenate([h_prev, x_t], axis=-1)
    gates = u @ cell.W_all + cell.b_all
    gates[..., : 3 * n] = sigmoid(gates[..., : 3 * n])
    np.tanh(gates[..., 3 * n :], out=gates[..., 3 * n :])
    i, f, o, q = (gates[..., k * n : (k + 1) * n] for k in range(4))
    c = f * c_prev + i * q
    h = o * np.tanh(c)
    return h, c, {"u": u, "c_prev": c_prev, "c": c, "i": i, "f": f, "o": o, "q": q}


def oracle_step_backward(cell, cache, dh, dc):
    n = cell.hidden_dim
    i, f, o, q = (cache[g] for g in "ifoq")
    tc = np.tanh(cache["c"])
    dc_total = dc + dh * o * (1.0 - tc * tc)
    dz = np.empty(i.shape[:-1] + (4 * n,))
    dz[..., :n] = dc_total * q * i * (1.0 - i)
    dz[..., n : 2 * n] = dc_total * cache["c_prev"] * f * (1.0 - f)
    dz[..., 2 * n : 3 * n] = dh * tc * o * (1.0 - o)
    dz[..., 3 * n :] = dc_total * i * (1.0 - q * q)
    du = dz @ cell.W_all.T
    u = cache["u"]
    rows = dz.reshape(-1, 4 * n)
    dW = u.reshape(-1, u.shape[-1]).T @ rows
    return du[..., :n], dc_total * f, du[..., n:], dW, rows.sum(axis=0)


def directions(enc, T):
    n = enc.hidden_dim
    return (("fwd", enc.fwd, range(T), slice(0, n)),
            ("bwd", enc.bwd, range(T - 1, -1, -1), slice(n, 2 * n)))


def oracle_forward(enc, vectors):
    lead, T = vectors.shape[:-2], vectors.shape[-2]
    H = np.zeros((*lead, T, 2 * enc.hidden_dim))
    cache = {"X": vectors, "H": H}
    for name, cell, times, cols in directions(enc, T):
        h = c = np.zeros((*lead, enc.hidden_dim))
        states = np.empty((T, *lead, enc.hidden_dim))  # by processing order
        for k, t in enumerate(times):
            h, c, _ = oracle_step(cell, h, c, vectors[..., t, :])
            states[k] = c
            H[..., t, cols] = h
        cache[name] = states
    return H, cache


def oracle_backward(enc, cache, dH):
    X, H = cache["X"], cache["H"]
    dX = np.zeros_like(X)
    grads = {}
    zeros = np.zeros((*X.shape[:-2], enc.hidden_dim))
    for name, cell, times, cols in directions(enc, X.shape[-2]):
        states = cache[name]
        dW = np.zeros_like(cell.W_all)
        db = np.zeros_like(cell.b_all)
        dh = dc = zeros
        for k in range(len(times) - 1, -1, -1):
            t = times[k]
            h_prev = H[..., times[k - 1], cols] if k else zeros
            _, _, step = oracle_step(cell, h_prev, states[k - 1] if k else zeros, X[..., t, :])
            dh, dc, dx, step_dW, step_db = oracle_step_backward(cell, step, dH[..., t, cols] + dh, dc)
            dX[..., t, :] += dx
            dW += step_dW
            db += step_db
        grads[f"{name}.W_all"], grads[f"{name}.b_all"] = dW, db
    return dX, grads


def assert_cache_free_matches(enc, X, H, mask=None):
    H_free, no_cache = enc.forward(X, keep=False, mask=mask)
    L = int(np.max(live_lengths(X, mask), initial=0))
    assert no_cache is None and H_free.shape == H.shape
    assert np.array_equal(H_free[..., :L, :], H[..., :L, :]) and not H_free[..., L:, :].any()


def assert_matches_oracle(enc, X, dH):
    H, cache = enc.forward(X)
    assert_cache_free_matches(enc, X, H)
    dX, grads = enc.backward(cache, dH)
    ref_H, ref_cache = oracle_forward(enc, X)
    ref_dX, ref_grads = oracle_backward(enc, ref_cache, dH)
    assert H.shape == ref_H.shape and dX.shape == ref_dX.shape == X.shape
    assert np.max(np.abs(H - ref_H)) <= TOL
    assert np.max(np.abs(dX - ref_dX)) <= TOL
    assert list(grads) == list(enc.params()) == list(ref_grads)
    assert list(grads) == ["fwd.W_all", "fwd.b_all", "bwd.W_all", "bwd.b_all"]
    for name, g in grads.items():
        assert g.shape == enc.params()[name].shape, name
        assert np.max(np.abs(g - ref_grads[name])) <= TOL, name


def encoder(seed, E=16, n=32):
    return BiLstmEncoder.init(Rng(seed), E, n)


@pytest.mark.parametrize("T", [1, 20])
@pytest.mark.parametrize("B", [1, 3, 32])
def test_batch_matches_per_step_oracle(B, T):
    rng = Rng(100 + B).child(T)
    assert_matches_oracle(encoder(B * T), rng.normal((B, T, 16)), rng.normal((B, T, 64)))


def test_ragged_batch_with_pad_tail_and_length_one_row():
    rng = Rng(7)
    lengths = np.array([20, 1, 6, 0])  # full, length 1, padded tail, all pad
    X = rng.normal((4, 20, 16))
    X[np.arange(20) >= lengths[:, None]] = 0.0
    dH = rng.normal((4, 20, 64))
    assert_matches_oracle(encoder(8), X, dH)


@pytest.mark.parametrize("B", [1, 2, 4])
def test_cache_free_forward_of_rows_ending_before_T(B):
    rng = Rng(16).child(B)
    lengths = np.array([6, 1, 0, 3])[:B]
    X = rng.normal((B, 20, 16))
    X[np.arange(20) >= lengths[:, None]] = 0.0
    enc = encoder(17)
    H, _ = enc.forward(X)
    assert_cache_free_matches(enc, X, H)
    mask = np.arange(20) < lengths[:, None] + 2  # two trailing OOV positions in each row
    assert_cache_free_matches(enc, X, H, mask)
    assert_cache_free_matches(enc, X[0], enc.forward(X[0])[0], mask[0])


@pytest.mark.parametrize("T", [1, 20])
def test_single_example_matches_per_step_oracle(T):
    rng = Rng(9).child(T)
    assert_matches_oracle(encoder(10, E=5, n=3), rng.normal((T, 5)), rng.normal((T, 6)))


def test_cell_step_and_step_backward_match_oracle():
    rng = Rng(11)
    cell = LstmCell.init(rng.child(0), 5, 3)
    h, c, x = rng.normal((4, 3)), rng.normal((4, 3)), rng.normal((4, 5))
    dh, dc = rng.normal((4, 3)), rng.normal((4, 3))
    h1, c1, cache = cell.step(h, c, x)
    ref_h, ref_c, ref_cache = oracle_step(cell, h, c, x)
    assert np.max(np.abs(h1 - ref_h)) <= TOL and np.max(np.abs(c1 - ref_c)) <= TOL
    gates = cache["gates"].copy()
    out = cell.step_backward(cache, dh, dc)
    ref = oracle_step_backward(cell, ref_cache, dh, dc)
    for got, want in zip(out, ref):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL
    assert np.array_equal(cache["gates"], gates)  # step_backward leaves its cache intact


def test_a_cache_serves_one_backward():
    enc = encoder(12, E=4, n=3)
    X = Rng(13).normal((2, 5, 4))
    H, cache = enc.forward(X)
    enc.backward(cache, np.ones_like(H))
    with pytest.raises(ValueError, match="already used"):
        enc.backward(cache, np.ones_like(H))


def test_a_cache_free_forward_cannot_run_backward():
    enc = encoder(14, E=4, n=3)
    H, cache = enc.forward(Rng(15).normal((2, 5, 4)), keep=False)
    with pytest.raises(ValueError, match="keep=False"):
        enc.backward(cache, np.ones_like(H))
