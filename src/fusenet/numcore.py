"""Dense numeric kernels every layer is built on.

Everything is float64 and row-major. The seeded generator wraps PCG64 so
the same seed yields the same stream on every platform.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operands disagree on dimensions; names both shapes."""


def affine(W: np.ndarray, x, b: np.ndarray):
    """x @ W + b for W of shape (in, out), b of length out and a ``(B, in)``
    batch ``x`` of one input per row, which gives a ``(B, out)`` result."""
    if W.ndim != 2 or x.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"affine expects (2d, 2d, 1d), got W{W.shape}, x{x.shape}, b{b.shape}")
    if W.shape[0] != x.shape[1]:
        raise ShapeError(f"affine: W has {W.shape[0]} rows but x has length {x.shape[1]}")
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


def sigmoid(z, out=None):
    """Logistic function of ``z``, written into ``out`` when given (it may be ``z``)."""
    z = np.asarray(z, dtype=np.float64)
    # exp(-|z|) never overflows, and equals exp(-z) where z >= 0 and
    # exp(z) elsewhere, while exp(min(z, 0)) is 1 where z >= 0 and exp(z)
    # elsewhere: 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)).
    e = np.exp(-np.abs(z))
    e += 1.0
    return np.divide(np.exp(np.minimum(z, 0.0)), e, out=out)


class Rng:
    """Seeded, platform-independent random source (PCG64).

    A single Rng is meant to have one owner; derive independent
    deterministic substreams with :meth:`child` instead of sharing.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        # Imported here: numpy.random (with secrets and hashlib) takes about
        # 15 ms to import, and predict and eval never build an Rng.
        from numpy.random import PCG64, Generator, SeedSequence

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


def glorot_uniform(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))
