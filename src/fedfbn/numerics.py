"""The float64 tensor alias, a finiteness check and a splittable deterministic RNG.

Tensors throughout the package are C-contiguous float64 ``numpy`` arrays;
:func:`check_finite` is the finiteness validation the rest of the code
relies on. Randomness flows exclusively through :class:`RngStream`, a thin
wrapper over the counter-based Philox generator keyed by a 64-bit seed.
Child streams are derived from a parent seed and a string label, never by
consuming parent state, so two call sites that derive the same label from
the same parent always see identical draws regardless of ordering.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DataError

# Annotation alias: every numeric payload in the package is a float64 ndarray.
Tensor = np.ndarray

_MASK64 = (1 << 64) - 1


def check_finite(arr: Tensor, context: str) -> None:
    """Raise :class:`DataError` if ``arr`` contains NaN or infinity."""
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise DataError(f"{context}: non-finite values encountered")


class RngStream:
    """Deterministic random stream with label-based splitting.

    The stream is a Philox counter generator keyed by ``seed``; identical
    seeds reproduce identical draw sequences. A stream is single-owner mutable
    state; share work across owners by deriving children, not by handing
    out the same stream twice.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def _child_seed(self, label: str) -> int:
        h = hashlib.sha256()
        h.update(label.encode("utf-8"))
        h.update(self.seed.to_bytes(8, "little"))
        return int.from_bytes(h.digest()[:8], "little")

    def child(self, label: str) -> "RngStream":
        """Derive an independent stream from this stream's seed and a label.

        Pure function of ``(self.seed, label)``: it does not consume or
        observe this stream's position.
        """
        return RngStream(self._child_seed(label))

    def child_integers(self, labels: list[str], high: int, size: int) -> np.ndarray:
        """Row ``i`` holds ``child(labels[i]).integers(0, high, size)``.

        One Philox generator is put back, for each label, into the state a
        new child's generator starts in (the child's seed as key, counter 0,
        empty buffer) instead of building a generator per child.
        """
        bits = np.random.Philox(key=0)
        gen = np.random.Generator(bits)
        fresh = bits.state
        out = np.empty((len(labels), size), dtype=np.int64)
        for row, label in zip(out, labels):
            fresh["state"]["key"][0] = self._child_seed(label)
            bits.state = fresh
            row[:] = gen.integers(0, high, size=size, dtype=np.int64)
        return out

    # Draw helpers; all return float64 (or int64 for index draws).

    def standard_normal(self, shape=()) -> Tensor:
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, low: float, high: float, shape=()) -> Tensor:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size, dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def random(self, shape=()) -> Tensor:
        return self._gen.random(size=shape)

