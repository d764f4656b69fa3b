"""Differentiable layers: dense, LSTM cell, bidirectional encoder, attention.

Each layer is immutable during a (forward, backward) pair: forward
returns an explicit cache, backward consumes it and returns input
gradients plus a dict of parameter gradients shaped exactly like the
parameters. Nothing here mutates parameters.

Every layer takes one example or a batch with a leading batch axis
(B rows). A batch's parameter gradients are the sums of the rows'
per-example gradients; the one-example shapes keep working unchanged.

Weight convention follows the dense form y = act(W^T x + b) with W
stored as (in, out). LSTM gates act on the concatenation [h_prev, x_t]
through one fused (hidden+input, 4*hidden) matrix, so a step is one
matrix product for all gates and all rows of a batch.
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


def _act_grad(name: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Derivative w.r.t. the pre-activation z; y is act(z) from forward.
    if name == "identity":
        return np.ones_like(z)
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return y * (1.0 - y)
    if name == "tanh":
        return 1.0 - y * y
    raise ValueError(f"unknown activation {name!r}")


class DenseLayer:
    """y = activation(W^T x + b) with W of shape (in, out).

    ``x`` is one input of length in or a ``(B, in)`` batch of them;
    backward sums the parameter gradients over the batch rows.
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

    def backward(self, cache, dy: np.ndarray):
        if dy.shape != cache["z"].shape:
            raise ShapeError(f"dense backward: grad{dy.shape} vs output{cache['z'].shape}")
        dz = dy * _act_grad(self.activation, cache["z"], cache["y"])
        rows = dz.reshape(-1, self.out_dim)
        grads = {"W": cache["x"].reshape(-1, self.in_dim).T @ rows, "b": rows.sum(axis=0)}
        dx = dz @ self.W.T
        return dx, grads


class LstmCell:
    """Single LSTM step over [h_prev, x_t] with the four gates fused.

    ``W_all`` is one ``(hidden+input, 4*hidden)`` matrix holding the gate
    blocks in GATES order, and ``b_all`` their ``(4*hidden,)`` biases.
    ``W[g]``, ``b[g]`` and ``params()`` are column views into them, so
    checkpoints and optimizers still see one block per gate. A step
    takes one example (1-d vectors) or a batch (one example per row).
    """

    GATES = ("i", "f", "o", "q")

    def __init__(self, weights: dict[str, np.ndarray], biases: dict[str, np.ndarray]):
        shapes = {np.shape(weights[g]) for g in self.GATES}
        if len(shapes) != 1:
            raise ShapeError(f"lstm: gate weight shapes differ: {sorted(shapes)}")
        concat_dim, hidden = next(iter(shapes))
        if concat_dim <= hidden:
            raise ShapeError(f"lstm: concat dim {concat_dim} must exceed hidden {hidden}")
        self.hidden_dim = hidden
        self.input_dim = concat_dim - hidden
        self.W_all = np.concatenate(
            [np.asarray(weights[g], dtype=np.float64) for g in self.GATES], axis=1)
        self.b_all = np.concatenate([np.asarray(biases[g], dtype=np.float64) for g in self.GATES])
        if self.b_all.shape != (4 * hidden,):
            raise ShapeError(f"lstm: gate biases {self.b_all.shape} vs 4 x hidden {hidden}")
        self.W = self._by_gate(self.W_all)
        self.b = self._by_gate(self.b_all)

    @classmethod
    def init(cls, rng: Rng, input_dim: int, hidden_dim: int):
        concat = input_dim + hidden_dim
        weights = {g: glorot_uniform(rng, concat, hidden_dim) for g in cls.GATES}
        biases = {g: np.zeros(hidden_dim) for g in cls.GATES}
        biases["f"] = biases["f"] + 1.0  # open forget gate early in training
        return cls(weights, biases)

    def _by_gate(self, fused: np.ndarray) -> dict[str, np.ndarray]:
        h = self.hidden_dim
        return {g: fused[..., k * h : (k + 1) * h] for k, g in enumerate(self.GATES)}

    def params(self) -> dict[str, np.ndarray]:
        return self.gate_blocks(self.W_all, self.b_all)

    def gate_blocks(self, W: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
        """Per-gate views of arrays shaped like (W_all, b_all), keyed like params()."""
        by_w, by_b = self._by_gate(W), self._by_gate(b)
        out = {f"W_{g}": by_w[g] for g in self.GATES}
        out.update({f"b_{g}": by_b[g] for g in self.GATES})
        return out

    def step(self, h_prev: np.ndarray, c_prev: np.ndarray, x_t: np.ndarray):
        """(h, c, cache) after one step; cache["gates"] holds [i, f, o, q]."""
        if (h_prev.shape[-1] != self.hidden_dim or x_t.shape[-1] != self.input_dim
                or h_prev.shape[:-1] != x_t.shape[:-1]):
            raise ShapeError(
                f"lstm step: h{h_prev.shape}, x{x_t.shape} vs "
                f"hidden {self.hidden_dim}, input {self.input_dim}"
            )
        h3 = 3 * self.hidden_dim
        u = np.concatenate([h_prev, x_t], axis=-1)
        gates = u @ self.W_all + self.b_all
        gates[..., :h3] = sigmoid(gates[..., :h3])
        np.tanh(gates[..., h3:], out=gates[..., h3:])
        by_gate = self._by_gate(gates)
        c = by_gate["f"] * c_prev + by_gate["i"] * by_gate["q"]
        h = by_gate["o"] * np.tanh(c)
        cache = {"u": u, "gates": gates, "c_prev": c_prev, "c": c, **by_gate}
        return h, c, cache

    def step_backward(self, cache, dh: np.ndarray, dc: np.ndarray):
        """Gradients for one step given dLoss/dh_t and dLoss/dc_t (from the future).

        ``cache`` is the one step() returned. Returns (dh_prev, dc_prev, dx,
        dW, db): dW and db are fused like W_all and b_all and summed over
        batch rows (see gate_blocks).
        """
        h = self.hidden_dim
        i, f, o, q = (cache[g] for g in self.GATES)
        tc = np.tanh(cache["c"])
        dc_total = dc + dh * o * (1.0 - tc * tc)
        dz = np.empty_like(cache["gates"])
        dz[..., :h] = dc_total * q * i * (1.0 - i)
        dz[..., h : 2 * h] = dc_total * cache["c_prev"] * f * (1.0 - f)
        dz[..., 2 * h : 3 * h] = dh * tc * o * (1.0 - o)
        dz[..., 3 * h :] = dc_total * i * (1.0 - q * q)
        du = dz @ self.W_all.T
        u = cache["u"]
        rows = dz.reshape(-1, 4 * h)
        dW = u.reshape(-1, u.shape[-1]).T @ rows
        return du[..., :h], dc_total * f, du[..., h:], dW, rows.sum(axis=0)


class BiLstmEncoder:
    """Concatenates a forward and a time-reversed LSTM pass per timestep.

    Padded positions are run through the recurrences like any other input
    (their vectors are zero); exclusion happens downstream at attention.
    The input is one ``(T, input_dim)`` sequence or a ``(B, T, input_dim)``
    batch; the output has the same leading axes.
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
        out = {}
        for name, arr in self.fwd.params().items():
            out[f"fwd.{name}"] = arr
        for name, arr in self.bwd.params().items():
            out[f"bwd.{name}"] = arr
        return out

    def _directions(self, T: int):
        """(name, cell, timesteps in processing order, output columns)."""
        h = self.hidden_dim
        return (("fwd", self.fwd, range(T), slice(0, h)),
                ("bwd", self.bwd, range(T - 1, -1, -1), slice(h, 2 * h)))

    def forward(self, vectors: np.ndarray):
        """vectors: (..., T, input_dim) -> H: (..., T, 2*hidden_dim), plus cache.

        The cache holds the input, H and each step's cell state, nothing
        per gate: backward recomputes a step's gates from [h_prev, x_t],
        rebuilt from H and the input. Keeping the (..., 4*hidden) gate
        activations of every step instead would triple the cache.
        """
        if vectors.ndim not in (2, 3) or vectors.shape[-1] != self.input_dim:
            raise ShapeError(f"bilstm: input {vectors.shape} vs input_dim {self.input_dim}")
        lead, T = vectors.shape[:-2], vectors.shape[-2]
        H = np.zeros((*lead, T, 2 * self.hidden_dim))
        cache = {"X": vectors, "H": H}
        for name, cell, times, cols in self._directions(T):
            h = np.zeros((*lead, self.hidden_dim))
            c = np.zeros((*lead, self.hidden_dim))
            states = np.empty((T, *lead, self.hidden_dim))  # by processing order
            for k, t in enumerate(times):
                h, c, _ = cell.step(h, c, vectors[..., t, :])
                states[k] = c
                H[..., t, cols] = h
            cache[name] = states
        return H, cache

    def backward(self, cache, dH: np.ndarray):
        """Full BPTT; returns (dX, grads) with grads keyed like params()."""
        X, H = cache["X"], cache["H"]
        if dH.shape != H.shape:
            raise ShapeError(f"bilstm backward: grad {dH.shape} vs {H.shape}")
        dX = np.zeros_like(X)
        grads = {}
        zeros = np.zeros((*X.shape[:-2], self.hidden_dim))
        for name, cell, times, cols in self._directions(X.shape[-2]):
            states = cache[name]
            dW = np.zeros_like(cell.W_all)
            db = np.zeros_like(cell.b_all)
            dh = dc = zeros
            for k in range(len(times) - 1, -1, -1):
                t = times[k]
                h_prev = H[..., times[k - 1], cols] if k else zeros
                _, _, step = cell.step(h_prev, states[k - 1] if k else zeros, X[..., t, :])
                dh, dc, dx, step_dW, step_db = cell.step_backward(step, dH[..., t, cols] + dh, dc)
                dX[..., t, :] += dx
                dW += step_dW
                db += step_db
            for pname, arr in cell.gate_blocks(dW, db).items():
                grads[f"{name}.{pname}"] = arr
        return dX, grads


class FeedforwardAttention:
    """Scalar-score attention reducing a (T, dim) matrix to one vector.

    Scores are tanh(w . h_t + b), softmax-normalized over unmasked
    positions only; masked positions get exactly zero weight. The output
    is the weighted average of the rows, so it stays inside their convex
    hull. A ``(B, T, dim)`` batch with a ``(B, T)`` mask reduces each
    example independently to a ``(B, dim)`` output.
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
        if H.ndim not in (2, 3) or H.shape[-1] != self.w.shape[0]:
            raise ShapeError(f"attention: H{H.shape} vs w length {self.w.shape[0]}")
        if mask.shape != H.shape[:-1]:
            raise ShapeError(f"attention: mask {mask.shape} vs {H.shape[:-1]} rows")
        mask = mask.astype(bool)
        live = mask.any(axis=-1)
        if not np.all(live):
            where = f" (batch row {int(np.argmin(live))})" if H.ndim == 3 else ""
            raise AllMaskedError(f"attention: no unmasked positions to attend to{where}")

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
        if da.shape != H.shape[:-2] + H.shape[-1:]:
            raise ShapeError(f"attention backward: grad {da.shape} vs dim {H.shape[-1]}")
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
