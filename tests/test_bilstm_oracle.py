"""The BiLSTM encoder against the per-step encoder it replaced.

``oracle_forward``/``oracle_backward`` run one ``[h_prev, x_t] @ W_all``
product per step and direction, keep only each step's cell state, and
recompute a step's gates in backward, accumulating the weight gradients
step by step. They are kept here only as the oracle. The encoder hoists
``X @ W_x`` out of the time loop, steps both directions together and
keeps the gate activations instead; on every input below both must give
the same H, dX and four fused gradient arrays (each direction's
``W_all`` and ``b_all``) to within 1e-12. The cache-free forward
(``keep=False``) must give the same H as the cached one, bit for bit, up
to the rows' longest live length, and zero after it. The encoder's own
bytes are pinned as well, on three inputs at the quickstart shapes.
"""

import hashlib

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
    assert_cache_free_matches(enc, X[:1], enc.forward(X[:1])[0], mask[:1])


@pytest.mark.parametrize("T", [1, 20])
def test_single_example_matches_per_step_oracle(T):
    rng = Rng(9).child(T)
    assert_matches_oracle(encoder(10, E=5, n=3), rng.normal((1, T, 5)), rng.normal((1, T, 6)))


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


def pinned_case(name):
    """(encoder, X, dH) of one pinned input at the quickstart shapes E=16, H=32."""
    rng = Rng(41).child(len(name))
    lengths = {"ragged": np.array([19, 0, 1, 17, 6] + [3, 11, 14, 9] * 6 + [18, 2, 8]),
               "one-row": np.array([9]), "unbatched": np.array([12])}[name]
    X = rng.normal((len(lengths), 20, 16))
    X[np.arange(20) >= lengths[:, None]] = 0.0
    dH = rng.normal((len(lengths), 20, 64))
    return encoder(42), X, dH


def encoder_digests(enc, X, dH):
    H, cache = enc.forward(X)
    arrays = {"H": H, "H.keep=False": enc.forward(X, keep=False)[0]}
    arrays["dX"], grads = enc.backward(cache, dH)
    arrays.update(grads)
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}


# The encoder's bytes as the per-direction time loops gave them, on a
# ragged 32-row batch (longest 19 of 20 steps, with rows of length 0 and
# 1), one row of length 9, and one example of length 12. That last was
# pinned when the encoder also took one (T, d) example without a batch
# axis; as a one-row batch it gives the same bytes.
ENCODER_SHA256 = {
    "one-row": {
        "H": "480d65cdd4dacec0db2d88e9cc022fa073c34a90a607f341814420d10f5f55c8",
        "H.keep=False": "b4af42d8cf36b0a4e9388fede60dddab301802901233108ca68e9d8486c01354",
        "dX": "67b9bc500c595a091d3b7dd2cafd25f82649b132718a2666604f9e685e87bb87",
        "fwd.W_all": "94c97cbda44863c265ed7fadfcacc21736b8a3652405194ac52deb07277db88d",
        "fwd.b_all": "13f6b53755dd354eb73fde6e8b0225efe5011353d5ac75e29466ca338bef1fca",
        "bwd.W_all": "6f903c41f9a0c235bf9b0b2bd283c2bcc4e22a0cb12da2e08a3ef8a9400a9ab8",
        "bwd.b_all": "2265a7f652714d97578a659172048aaabe50366463fd5c5692f76b270d5e85cb",
    },
    "ragged": {
        "H": "cf988470c9000235e1ca67174f87861688014155456f231b525a4d1de39183aa",
        "H.keep=False": "d3691e5f83bdea4b1153b376f7854ba40ceeed20947ac1fa1cc218925f0c09a2",
        "dX": "fcf27d5ab845916336004d01013dd03d6d3c36aeadc16e300a07374c46171d0c",
        "fwd.W_all": "7e52feb29366bb42eacf620394bc0839601415845ef9925b45bc94d0d5f006e2",
        "fwd.b_all": "35c600f4a1ad26f3cd72d060ffd44b19d5c5620d5b42e94a1f6067cb3b9b0f80",
        "bwd.W_all": "df52562481337c14465a0867ff7726748d5fa54c9179db5c925345873f3dc70c",
        "bwd.b_all": "fe141ca66819e50a9f459124574f2859a0bf4583f7bf8e8cb97b5c72e0099549",
    },
    "unbatched": {
        "H": "6b1135840671e6ded949a9cebbb85fcad6b580a2e4fff9d8cd67f9b3a4c4d894",
        "H.keep=False": "0ac21a9b6fc019a8e9843067d76412e765e74aa81620a13dfedb0ec4b3c433e4",
        "dX": "b1cff895d83ce7f9603f9f57d60c39a74482ece57a35abb7ab00e47756081fd2",
        "fwd.W_all": "e4862416e6a334ad760b469690c857686d208e30c725e03c49deb02a792fc078",
        "fwd.b_all": "7081c268e9b971bd248d5012ab9812fd0921d8dd8685c1eff6cfb9065fdcd23c",
        "bwd.W_all": "800a70e5624a30c7ab24d08de6a7619bac93342f187174814376e483fdeea7fb",
        "bwd.b_all": "c0326f15fd89dd92f01e3a05a490271d4f1e2e5a3a2be0b6ed6833f358476160",
    },
}


@pytest.mark.parametrize("name", sorted(ENCODER_SHA256))
def test_encoder_bytes_are_pinned(name):
    assert encoder_digests(*pinned_case(name)) == ENCODER_SHA256[name]
