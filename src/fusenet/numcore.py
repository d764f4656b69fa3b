"""Dense numeric kernels every layer is built on.

Everything is float64 and row-major: a "Tensor2D" is a C-contiguous
``(rows, cols)`` ndarray, a "Tensor1D" a ``(n,)`` ndarray. The seeded
generator wraps PCG64 so the same seed yields the same stream on every
platform.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

Tensor1D = np.ndarray
Tensor2D = np.ndarray


class ShapeError(ValueError):
    """Raised when operands disagree on dimensions; names both shapes."""


def affine(W: Tensor2D, x, b: Tensor1D):
    """W^T x + b for W of shape (in, out) and b of length out.

    ``x`` is one input of length in, or a batch of them as rows of a
    ``(B, in)`` matrix, which gives a ``(B, out)`` result.
    """
    if W.ndim != 2 or x.ndim not in (1, 2) or b.ndim != 1:
        raise ShapeError(
            f"affine expects (2d, 1d or 2d, 1d), got W{W.shape}, x{x.shape}, b{b.shape}"
        )
    if W.shape[0] != x.shape[-1]:
        raise ShapeError(f"affine: W has {W.shape[0]} rows but x has length {x.shape[-1]}")
    if W.shape[1] != b.shape[0]:
        raise ShapeError(f"affine: W has {W.shape[1]} cols but b has length {b.shape[0]}")
    return x @ W + b


def softmax(z):
    """Stable softmax (max-subtracted) over the last axis. Rejects empty input."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) never overflows, and equals exp(-z) where z >= 0 and
    # exp(z) elsewhere: 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)).
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Rng:
    """Seeded, platform-independent random source (PCG64).

    A single Rng is meant to have one owner; derive independent
    deterministic substreams with :meth:`child` instead of sharing.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        seq = SeedSequence(entropy=self.seed, spawn_key=_spawn_key)
        self._gen = Generator(PCG64(seq))

    def child(self, key: int) -> "Rng":
        """Independent stream addressed by (seed, ...keys); order-insensitive."""
        return Rng(self.seed, self._spawn_key + (int(key),))

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None, scale: float = 1.0):
        return self._gen.normal(0.0, scale, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def random(self, size=None):
        return self._gen.random(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, seq, size=None, replace=True):
        return self._gen.choice(seq, size=size, replace=replace)


def glorot_uniform(rng: Rng, fan_in: int, fan_out: int) -> Tensor2D:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))
