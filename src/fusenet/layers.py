"""Differentiable layers: dense, LSTM cell, bidirectional encoder, attention.

Each layer is immutable during a (forward, backward) pair: forward
returns an explicit cache, backward consumes it and returns the input
gradient plus a dict of parameter gradients keyed and shaped exactly
like the layer's ``params()``, for every layer (the LSTM's are its fused
``W_all``/``b_all``). Nothing here mutates parameters. The dense layer
and the encoder, the layers that start a branch, skip the input
gradient when called with ``input_grad=False`` and return None in its
place: a model's inputs (features, frozen embeddings) are not
parameters, so training never reads it. The gradient checks ask for it.

Every layer takes a batch: its inputs have a leading axis of B rows,
one example per row, and one example is a one-row batch. A batch's
parameter gradients are the sums of the rows' per-example gradients.

Weight convention follows the dense form y = act(W^T x + b) with W
stored as (in, out). LSTM gates act on [h_prev, x_t] through one fused
(hidden+input, 4*hidden) matrix whose first hidden rows (W_h) take
h_prev and the rest (W_x) take x_t. The encoder advances its forward
and backward cells in one time loop, with their states and gate rows
stacked on a leading direction axis. In training it computes x_t @ W_x
for every timestep before the loop, so a step adds one h_prev @ W_h
product for all gates, both directions and all rows of a batch (the
fused RNN layout of Appleyard et al. 2016, arXiv:1604.01946). Its
backward reads the gate activations forward kept instead of recomputing
them.

The gate math runs on a gate-major copy of each step's gate rows, where
every gate is one contiguous block; the products stay on the row-major
(2, rows, 4*hidden) rows. Each stacked product is then the gemm (gemv
for one row) that one direction alone would run, so its sums are added
in the same order. Products on the gate-major blocks would not be: the
backward's dz @ W_h^T would split its 4*hidden sum into four, and
transposed W^T h^T products run other kernels. Either changes the last
bits of H, the gradients and the checkpoints.
"""

from __future__ import annotations

import numpy as np

from .numcore import Rng, ShapeError, affine, glorot_uniform, sigmoid

ACTIVATIONS = ("identity", "relu", "sigmoid", "tanh")


class AllMaskedError(ValueError):
    """Attention over a sequence with no unmasked positions."""


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {name!r}")


def _act_backward(name: str, dy: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # dLoss/dz from dLoss/dy; y is act(z) from forward. The identity's is dy
    # itself, and relu's multiplies by the boolean mask: dy * 1.0 and dy * 0.0
    # are the bytes a float mask gives.
    if name == "identity":
        return dy
    if name == "relu":
        return dy * (z > 0.0)
    if name == "sigmoid":
        return dy * (y * (1.0 - y))
    if name == "tanh":
        return dy * (1.0 - y * y)
    raise ValueError(f"unknown activation {name!r}")


class DenseLayer:
    """y = activation(W^T x + b) with W of shape (in, out).

    ``x`` is a ``(B, in)`` batch; backward sums the parameter gradients
    over its rows.
    """

    def __init__(self, W: np.ndarray, b: np.ndarray, activation: str = "identity"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if W.ndim != 2 or b.ndim != 1 or W.shape[1] != b.shape[0]:
            raise ShapeError(f"dense: W{W.shape} incompatible with b{b.shape}")
        self.W = np.asarray(W, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.activation = activation

    @classmethod
    def init(cls, rng: Rng, in_dim: int, out_dim: int, activation: str = "identity"):
        return cls(glorot_uniform(rng, in_dim, out_dim), np.zeros(out_dim), activation)

    @property
    def in_dim(self) -> int:
        return self.W.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def forward(self, x: np.ndarray):
        z = affine(self.W, x, self.b)
        y = _act(self.activation, z)
        return y, {"x": x, "z": z, "y": y}

    def backward(self, cache, dy: np.ndarray, input_grad: bool = True):
        """(dx, grads) given dLoss/dy; dx is None unless ``input_grad``."""
        if dy.shape != cache["z"].shape:
            raise ShapeError(f"dense backward: grad{dy.shape} vs output{cache['z'].shape}")
        dz = _act_backward(self.activation, dy, cache["z"], cache["y"])
        grads = {"W": cache["x"].T @ dz, "b": np.add.reduce(dz, axis=0)}
        return (dz @ self.W.T if input_grad else None), grads


def _gate_major(z: np.ndarray) -> np.ndarray:
    """(4, ..., hidden) view of gate rows ``z`` (..., 4*hidden), one gate per leading index."""
    return np.moveaxis(z.reshape(*z.shape[:-1], 4, z.shape[-1] // 4), -2, 0)


def _lstm_gates_(z: np.ndarray, c_prev: np.ndarray, c=None):
    """Activate gate pre-activations ``z`` in place; return (h, c).

    ``z`` is the ``_gate_major`` view (4, ..., hidden) of gate rows. The
    math runs on a contiguous copy of it, where each gate is one block;
    ``z`` then receives the activations [i, f, o, q] in GATES order.
    ``c``, when given, receives the new cell state (it may be
    ``c_prev``). This and ``_lstm_gates_backward_`` are the only copy of
    the LSTM gate math: ``LstmCell.step`` and the encoder's time loop
    both call them.
    """
    g = z.copy()
    sigmoid(g[:3], out=g[:3])
    i, f, o, q = g
    np.tanh(q, out=q)
    c = np.multiply(f, c_prev, out=c)
    c += i * q
    h = o * np.tanh(c)
    z[...] = g
    return h, c


def _lstm_gates_backward_(z: np.ndarray, c_prev: np.ndarray, c: np.ndarray,
                          dh: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Overwrite the activations ``z`` = [i, f, o, q] with dLoss/dz in place.

    ``z`` is a ``_gate_major`` view, and the math runs on a contiguous
    copy as in ``_lstm_gates_``. ``dh`` and ``dc`` are dLoss/dh_t and
    dLoss/dc_t (from the output and the future); returns dLoss/dc_prev.
    """
    g = z.copy()
    i, f, o, q = g
    tc = np.tanh(c)
    dc_total = dh * o
    dc_total *= 1.0 - tc * tc
    dc_total += dc
    dc_prev = dc_total * f
    # d/dz of sigmoid gates is g * (1 - g), times what each gate scales:
    # dz_i = dc_total*q*i*(1-i), dz_f = dc_total*c_prev*f*(1-f), dz_o = dh*tc*o*(1-o).
    scale = np.empty((3, *c.shape))
    np.multiply(dc_total, q, out=scale[0])
    np.multiply(dc_total, c_prev, out=scale[1])
    np.multiply(dh, tc, out=scale[2])
    np.multiply(q, q, out=q)
    np.subtract(1.0, q, out=q)
    q *= dc_total * i  # dz_q = dc_total*i*(1-q^2)
    sig = g[:3]
    scale *= sig
    np.subtract(1.0, sig, out=sig)
    sig *= scale
    z[...] = g
    return dc_prev


class LstmCell:
    """Single LSTM step over [h_prev, x_t] with the four gates fused.

    ``W_all`` is one ``(hidden+input, 4*hidden)`` matrix holding the gate
    blocks in GATES order, and ``b_all`` their ``(4*hidden,)`` biases.
    Its first ``hidden`` rows (``W_h``) act on h_prev and the rest
    (``W_x``) on x_t. ``params()`` are these two arrays. A step takes a
    batch, one example per row.
    """

    GATES = ("i", "f", "o", "q")

    def __init__(self, W_all: np.ndarray, b_all: np.ndarray):
        if W_all.ndim != 2 or W_all.shape[1] % 4 or b_all.shape != W_all.shape[1:]:
            raise ShapeError(f"lstm: fused gates W{W_all.shape}, b{b_all.shape}")
        hidden = W_all.shape[1] // 4
        if W_all.shape[0] <= hidden:
            raise ShapeError(f"lstm: concat dim {W_all.shape[0]} must exceed hidden {hidden}")
        self.hidden_dim = hidden
        self.input_dim = W_all.shape[0] - hidden
        self.W_all = np.asarray(W_all, dtype=np.float64)
        self.b_all = np.asarray(b_all, dtype=np.float64)

    @classmethod
    def init(cls, rng: Rng, input_dim: int, hidden_dim: int):
        concat = input_dim + hidden_dim
        W_all = np.concatenate([glorot_uniform(rng, concat, hidden_dim) for _ in cls.GATES], axis=1)
        b_all = np.zeros(4 * hidden_dim)
        b_all[hidden_dim : 2 * hidden_dim] = 1.0  # open forget gate early in training
        return cls(W_all, b_all)

    @property
    def W_h(self) -> np.ndarray:
        return self.W_all[: self.hidden_dim]

    @property
    def W_x(self) -> np.ndarray:
        return self.W_all[self.hidden_dim :]

    def params(self) -> dict[str, np.ndarray]:
        return {"W_all": self.W_all, "b_all": self.b_all}

    def step(self, h_prev: np.ndarray, c_prev: np.ndarray, x_t: np.ndarray):
        """(h, c, cache) after one step of a (B, input) ``x_t``; cache["gates"]
        holds [i, f, o, q], and cache["i"] ... cache["q"] are its four column views.

        The gates are x_t @ W_x + b, then + h_prev @ W_h, as in the
        encoder's time loop.
        """
        if (x_t.ndim != 2 or x_t.shape[1] != self.input_dim
                or h_prev.shape != (len(x_t), self.hidden_dim) or c_prev.shape != h_prev.shape):
            raise ShapeError(
                f"lstm step: h{h_prev.shape}, c{c_prev.shape}, x{x_t.shape} vs "
                f"hidden {self.hidden_dim}, input {self.input_dim}"
            )
        gates = x_t @ self.W_x
        gates += self.b_all
        gates += h_prev @ self.W_h
        h, c = _lstm_gates_(_gate_major(gates), c_prev)
        cache = {"h_prev": h_prev, "x": x_t, "gates": gates, "c_prev": c_prev, "c": c,
                 **dict(zip(self.GATES, np.split(gates, 4, axis=1)))}
        return h, c, cache

    def step_backward(self, cache, dh: np.ndarray, dc: np.ndarray):
        """Gradients for one step given dLoss/dh_t and dLoss/dc_t (from the future).

        ``cache`` is the one step() returned, and is left unchanged.
        Returns (dh_prev, dc_prev, dx, dW, db): dW and db are shaped like
        W_all and b_all and summed over batch rows.
        """
        dz = cache["gates"].copy()
        dc_prev = _lstm_gates_backward_(_gate_major(dz), cache["c_prev"], cache["c"], dh, dc)
        dW = np.concatenate([cache["h_prev"].T @ dz, cache["x"].T @ dz])
        return dz @ self.W_h.T, dc_prev, dz @ self.W_x.T, dW, dz.sum(axis=0)


def live_lengths(vectors: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Each row's live length: 1 + its last position whose ``mask`` entry is
    true or whose vector is non-zero, or 0 when it has none.

    ``vectors`` is (..., T, d) and ``mask``, when given, (..., T). A
    recurrence over a row must run to its live length; every later
    position holds a zero vector under a false mask entry.
    """
    live = vectors.any(axis=-1)
    if mask is not None:
        np.logical_or(live, mask, out=live)
    T = live.shape[-1]
    return np.where(live.any(axis=-1), T - np.argmax(live[..., ::-1], axis=-1), 0)


class BiLstmEncoder:
    """Concatenates a forward and a time-reversed LSTM pass per timestep.

    Padded positions are run through the recurrences like any other input
    (their vectors are zero); exclusion happens downstream at attention.
    Scoring (``forward(keep=False)``) skips the padding past the longest
    row, which changes no live position's output.
    The input is a ``(B, T, input_dim)`` batch of sequences and the
    output a ``(B, T, 2*hidden)`` one.
    """

    def __init__(self, forward_cell: LstmCell, backward_cell: LstmCell):
        if (forward_cell.input_dim, forward_cell.hidden_dim) != (
            backward_cell.input_dim,
            backward_cell.hidden_dim,
        ):
            raise ShapeError("bilstm: forward and backward cells disagree on dims")
        self.fwd = forward_cell
        self.bwd = backward_cell
        self.input_dim = forward_cell.input_dim
        self.hidden_dim = forward_cell.hidden_dim

    @classmethod
    def init(cls, rng: Rng, input_dim: int, hidden_dim: int):
        return cls(LstmCell.init(rng, input_dim, hidden_dim), LstmCell.init(rng, input_dim, hidden_dim))

    @property
    def out_dim(self) -> int:
        return 2 * self.hidden_dim

    def params(self) -> dict[str, np.ndarray]:
        return {f"{d}.{name}": arr for d, cell in (("fwd", self.fwd), ("bwd", self.bwd))
                for name, arr in cell.params().items()}

    def _stacked(self):
        """Both cells' (W_h, W_x, b) stacked on a leading direction axis, fwd first."""
        n = self.hidden_dim
        W = np.stack([self.fwd.W_all, self.bwd.W_all])
        return W[:, :n], W[:, n:], np.stack([self.fwd.b_all, self.bwd.b_all])[:, None]

    def _recur(self, W, V: np.ndarray, gates: np.ndarray, h, c, H, cs=None):
        """Advance both directions over the timesteps of ``V`` from the state (h, c).

        ``W`` is ``_stacked()``, ``V`` the input (rows, steps, input_dim),
        and (h, c) are (2, rows, hidden). Step k runs the forward cell at
        t=k and the backward cell at t=steps-1-k, and writes their hidden
        states to ``H`` (rows, >= steps, 2*hidden) at those t. With ``cs``,
        ``gates`` (steps, 2, rows, 4*hidden) holds each step's ``x @ W_x +
        b`` and receives its gate activations, and ``cs[k]`` receives step
        k's cell states. Without it, each step computes its ``x @ W_x + b`` into a
        one-step ``gates``, and ``c`` is updated in place. Each product is
        the gemm (gemv for one row) that one direction alone would run.
        Returns the last (h, c).
        """
        W_h, W_x, b = W
        by_gate = _gate_major(gates)
        n, steps = self.hidden_dim, V.shape[1]
        for k in range(steps):
            j = 0 if cs is None else k
            z = gates[j]
            if cs is None:
                np.matmul(V[:, k], W_x[0], out=z[0])
                np.matmul(V[:, steps - 1 - k], W_x[1], out=z[1])
                z += b
            z += h @ W_h
            h, c = _lstm_gates_(by_gate[:, j], c, c if cs is None else cs[k])
            H[:, k, :n] = h[0]
            H[:, steps - 1 - k, n:] = h[1]
        return h, c

    def forward(self, vectors: np.ndarray, keep: bool = True, mask: np.ndarray | None = None,
                padding=None):
        """vectors: (B, T, input_dim) -> H: (B, T, 2*hidden_dim), plus cache.

        One time loop advances both directions: step k runs the forward
        cell at t=k and the backward cell at t=T-1-k, with their states and
        gate rows stacked on a leading direction axis, (2, rows, 4*hidden).
        One ``X @ W_x + b`` product over a step-major copy of the input,
        (T, 2, rows, input_dim), fills a (T, 2, rows, 4*hidden) gate
        buffer; each step adds ``h_prev @ W_h`` for both directions in one
        matmul and activates its gates in place. The cache keeps that
        input, every step's gate activations and cell states, which
        backward reads instead of recomputing them. Backward overwrites
        the gates and the input, so a cache serves one backward.

        With ``keep=False`` (scoring) each step computes its own ``x @ W_x
        + b`` from ``vectors`` into a one-step gate buffer, no states are
        kept, the cache is None, and only the first L timesteps run, L
        being the largest of the rows' ``live_lengths`` (``mask``, of shape
        (B, T), marks positions that count as live even when their
        vector is zero). Every later position holds a zero vector in every
        row. The forward direction stops at L, and the backward direction
        starts at L-1 from the state that T-L zero-input steps reach from a
        zero state, the state every row has there without trimming. That
        state is row T-L of ``padding``, ``padding_states`` of at least
        T-L+1 steps, which a caller scoring many chunks computes once;
        without it the forward runs T-L zero steps itself. H is zero at
        ``t >= L``; below L it is bit-identical to ``keep=True``.
        """
        if vectors.ndim != 3 or vectors.shape[2] != self.input_dim:
            raise ShapeError(f"bilstm: input {vectors.shape} vs (B, T, {self.input_dim})")
        rows, T, _ = vectors.shape
        n = self.hidden_dim
        L = T if keep else int(np.max(live_lengths(vectors, mask), initial=0))
        V = vectors[:, :L]
        W = self._stacked()
        _, W_x, b = W
        h, c = np.zeros((2, 2, rows, n))
        if 0 < L < T:  # with L = 0 no step runs
            if padding is None:
                padding = self.padding_states(T - L + 1, rows)
            h[1], c[1] = padding[0][T - L], padding[1][T - L]
        H = np.empty((rows, T, 2 * n)) if keep else np.zeros((rows, T, 2 * n))
        X = cs = None
        if keep:
            X = np.empty((T, 2, rows, self.input_dim))
            X[:, 0] = V.swapaxes(0, 1)
            X[:, 1] = X[::-1, 0]
            gates = np.matmul(X, W_x)
            gates += b
            cs = np.empty((T, 2, rows, n))
        else:
            # One step's gate rows, in a block sized for T steps like
            # training's: after the first chunk glibc then keeps each
            # chunk's buffers on the heap, where a one-step block let it
            # trim the heap and fault 1.1 MB back in for every 64-row chunk.
            gates = np.empty((T, 2, rows, 4 * n))[:1]
        self._recur(W, V, gates, h, c, H, cs)
        return H, ({"X": X, "H": H, "gates": gates, "cs": cs} if keep else None)

    def padding_states(self, count: int, rows: int):
        """(h, c) of the backward cell after 0 to count-1 zero inputs, from a zero state.

        Both are (count, hidden): row j is the state after j steps, the one
        every row of a ``rows``-row input has after j trailing padding
        positions. The steps run once, on two zero rows, or on one when
        ``rows`` is 1: numpy sends a one-row product to gemv, whose sums can
        differ in the last bit from the gemm a batch runs. The loop
        advances the forward cell too, whose states are discarded.
        """
        pad, n, W = 1 if rows == 1 else 2, self.hidden_dim, self._stacked()
        h, c = np.zeros((2, 2, pad, n))
        H = np.zeros((pad, count, 2 * n))  # the state after j steps lands at t = count-1-j
        cs = np.zeros((count, 2, pad, n))  # and its cells at j
        gates = np.zeros((count - 1, 2, pad, 4 * n))
        gates += W[2]  # x @ W_x + b for x = 0
        self._recur(W, np.zeros((pad, count - 1, self.input_dim)), gates, h, c, H, cs[1:])
        return H[0, ::-1, n:], cs[:, 1, 0]

    def backward(self, cache, dH: np.ndarray, input_grad: bool = True):
        """Full BPTT; returns (dX, grads) with grads keyed like params(), and
        dX None unless ``input_grad``.

        The time loop runs the forward loop's steps in reverse, both
        directions at once. Each step's dLoss/dz overwrites that step's
        kept gates; the step adds its weight gradients (one ``x^T dz`` and
        one ``h_prev^T dz`` matmul over the direction axis) and carries
        ``dz @ W_h^T``. The bias gradients are one sum per direction and
        the input gradient one product over all steps after it.
        """
        if cache is None:
            raise ValueError("bilstm backward: forward ran with keep=False and kept no cache")
        X, H = cache["X"], cache["H"]
        if dH.shape != H.shape:
            raise ShapeError(f"bilstm backward: grad {dH.shape} vs {H.shape}")
        if "gates" not in cache:
            raise ValueError("bilstm backward: cache already used; backward overwrites its gates")
        gates, cs = cache.pop("gates"), cache["cs"]
        T, _, rows, n = cs.shape
        W_h, W_x, _ = self._stacked()
        W_hT = W_h.swapaxes(1, 2)
        h_prev = np.empty((2, rows, n))
        dW = np.zeros((2, *self.fwd.W_all.shape))
        dW_h, dW_x = dW[:, :n], dW[:, n:]
        zeros = np.zeros((2, rows, n))
        dh, dc = np.zeros((2, 2, rows, n))  # dLoss/dh and dLoss/dc from the next step
        by_gate = _gate_major(gates)
        for k in range(T - 1, -1, -1):
            dh[0] += dH[:, k, :n]  # plus dLoss/dh from the output
            dh[1] += dH[:, T - 1 - k, n:]
            dz = gates[k]
            dc = _lstm_gates_backward_(by_gate[:, k], cs[k - 1] if k else zeros, cs[k], dh, dc)
            dW_x += X[k].swapaxes(1, 2) @ dz
            if k:  # the first step's h_prev is zero
                h_prev[0] = H[:, k - 1, :n]
                h_prev[1] = H[:, T - k, n:]
                dW_h += h_prev.swapaxes(1, 2) @ dz
                dh = dz @ W_hT
        grads = {"fwd.W_all": dW[0], "fwd.b_all": gates[:, 0].sum(axis=(0, 1)),
                 "bwd.W_all": dW[1], "bwd.b_all": gates[::-1, 1].sum(axis=(0, 1))}
        if not input_grad:
            return None, grads
        np.matmul(gates, W_x.swapaxes(1, 2), out=X)  # the input is spent: X takes dLoss/dx
        dX = np.zeros((T, rows, self.input_dim))  # from zeros, so a -0.0 sums as before
        dX += X[:, 0]
        dX[::-1] += X[:, 1]
        return dX.swapaxes(0, 1), grads


class FeedforwardAttention:
    """Scalar-score attention reducing each (T, dim) matrix of a batch to one vector.

    Scores are tanh(w . h_t + b), softmax-normalized over unmasked
    positions only; masked positions get exactly zero weight. Each output
    is the weighted average of its example's rows, so it stays inside
    their convex hull. A ``(B, T, dim)`` batch with a ``(B, T)`` mask
    reduces each example independently to a ``(B, dim)`` output.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray):
        if w.ndim != 1 or b.shape != (1,):
            raise ShapeError(f"attention: w{w.shape}, b{b.shape}")
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    @classmethod
    def init(cls, rng: Rng, dim: int):
        return cls(glorot_uniform(rng, dim, 1)[:, 0], np.zeros(1))

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def forward(self, H: np.ndarray, mask: np.ndarray):
        if H.ndim != 3 or H.shape[2] != self.w.shape[0]:
            raise ShapeError(f"attention: H{H.shape} vs (B, T, {self.w.shape[0]})")
        if mask.shape != H.shape[:2]:
            raise ShapeError(f"attention: mask {mask.shape} vs {H.shape[:2]} rows")
        mask = mask.astype(bool)
        live = mask.any(axis=1)
        if not np.all(live):
            raise AllMaskedError("attention: no unmasked positions to attend to "
                                 f"(batch row {int(np.argmin(live))})")

        psi = np.tanh(H @ self.w + self.b[0])
        peak = np.max(np.where(mask, psi, -np.inf), axis=-1, keepdims=True)
        e = np.where(mask, np.exp(psi - peak), 0.0)
        alphas = e / np.sum(e, axis=-1, keepdims=True)
        a = np.einsum("...t,...td->...d", alphas, H)
        cache = {"H": H, "mask": mask, "psi": psi, "alphas": alphas}
        return a, alphas, cache

    def backward(self, cache, da: np.ndarray):
        """Gradients w.r.t. w, b and H given dLoss/da."""
        H, mask, psi, alphas = cache["H"], cache["mask"], cache["psi"], cache["alphas"]
        if da.shape != (H.shape[0], H.shape[2]):
            raise ShapeError(f"attention backward: grad {da.shape} vs dim {H.shape[2]}")
        dalpha = np.einsum("...td,...d->...t", H, da)
        # Softmax over unmasked entries: dpsi_t = a_t * (dalpha_t - sum_s a_s dalpha_s)
        inner = np.sum(alphas * dalpha, axis=-1, keepdims=True)
        dpsi = alphas * (dalpha - inner)
        dz = dpsi * (1.0 - psi * psi)
        dz[~mask] = 0.0
        width = H.shape[-1]
        grads = {"w": np.einsum("td,t->d", H.reshape(-1, width), dz.reshape(-1)),
                 "b": np.array([np.sum(dz)])}
        # dH_t = alpha_t * da + dz_t * w, summed in one pass: two separate
        # outer products would hold a (T, dim) temporary per example.
        dH = np.einsum("...tk,...kd->...td", np.stack([alphas, dz], axis=-1),
                       np.stack([da, np.broadcast_to(self.w, da.shape)], axis=-2))
        return dH, grads
