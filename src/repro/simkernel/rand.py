"""Deterministic random-number streams for simulation runs.

Every stochastic element of the simulation (per-operation cost jitter,
trial-to-trial variation) draws from a named substream derived from a single
run seed, so runs are reproducible and adding a new consumer of randomness
does not perturb existing streams.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A family of independent, named PRNG streams under one master seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the substream called *name*."""
        gen = self._streams.get(name)
        if gen is None:
            sub = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, sub]))
            self._streams[name] = gen
        return gen

    def jitter(self, name: str, mean: float, rel_sigma: float = 0.05) -> float:
        """A positive sample around *mean* with relative spread *rel_sigma*.

        Used for per-operation cost noise.  Truncated at 10% of the mean so a
        pathological draw can never produce a non-positive duration.
        """
        if mean <= 0:
            return mean
        value = self.stream(name).normal(mean, rel_sigma * mean)
        floor = 0.1 * mean
        return value if value > floor else floor

    def jitter_sum(self, name: str, mean: float, rel_sigma: float, n: int) -> float:
        """The total of *n* :meth:`jitter` draws on substream *name*, drawn
        in one vectorised call.

        ``Generator.normal(loc, scale, size=n)`` yields the same values as
        *n* scalar draws and leaves the generator in the same state, the
        floor applies elementwise, and the sum runs left to right over
        Python floats, so the total is bit-identical to accumulating the
        scalar draws one by one (``tests/simkernel/test_properties.py`` pins it).
        """
        if mean <= 0:
            return sum([mean] * n)
        draws = self.stream(name).normal(mean, rel_sigma * mean, size=n)
        return sum(np.maximum(draws, 0.1 * mean).tolist())

    def uniform(self, name: str, low: float, high: float) -> float:
        return float(self.stream(name).uniform(low, high))

    def integers(self, name: str, low: int, high: int) -> int:
        return int(self.stream(name).integers(low, high))
