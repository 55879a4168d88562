"""Splittable deterministic random streams.

Built on numpy's counter-based Philox generator seeded through
``SeedSequence``. A stream is identified by its root seed and a spawn key;
splitting extends the spawn key, so child streams are reproducible functions
of (seed, path in the split tree) and never depend on how much randomness the
parent has consumed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass
class RandomStream:
    """Deterministic random stream with explicit splitting.

    Parameters
    ----------
    seed : int
        Root seed, a 64-bit unsigned integer.
    spawn_key : tuple of int
        Position in the split tree. The root stream has an empty key.
    """

    seed: int
    spawn_key: tuple = ()
    _gen: np.random.Generator = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)):
            raise ValidationError("seed must be an integer")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(self.seed)
        self.spawn_key = tuple(int(k) for k in self.spawn_key)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, created lazily."""
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def split(self, n: int) -> list["RandomStream"]:
        """Return ``n`` independent child streams.

        Children are pure functions of (seed, spawn_key, index): the parent's
        generator state is not consumed, and repeated calls return streams
        with identical output.
        """
        if n < 1:
            raise ValidationError("split count must be positive")
        return [RandomStream(self.seed, self.spawn_key + (i,)) for i in range(n)]

    def child(self, index: int) -> "RandomStream":
        """Single child stream at a given index of the split tree."""
        return RandomStream(self.seed, self.spawn_key + (int(index),))
