"""Deterministic random-number streams.

Every stochastic component of the simulator (graph generation, walk
sampling, scheduling tie-breaks...) draws from a *named stream* derived
from a single root seed.  Two runs with the same root seed therefore
produce bit-identical results regardless of the order in which components
are constructed, and changing one component's draws does not perturb the
others — essential for A/B-comparing optimizations (Fig. 9) where the walk
trajectories must be held fixed while the architecture changes.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .state import Stateful

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 so that similar names map to unrelated seeds.
    """
    h = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(h[:8], "little") & (2**63 - 1)


class RngRegistry(Stateful):
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    >>> rngs = RngRegistry(42)
    >>> a = rngs.stream("walks")
    >>> b = rngs.stream("walks")   # same object, continues the stream
    >>> a is b
    True
    """

    def __init__(self, root_seed: int = 0):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.root_seed, name))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, resetting any prior stream."""
        gen = np.random.default_rng(derive_seed(self.root_seed, name))
        self._streams[name] = gen
        return gen

    def state(self) -> dict:
        """Every stream's bit-generator state, by name (checkpoints)."""
        return {name: gen.bit_generator.state for name, gen in self._streams.items()}

    def restore(self, state: dict) -> None:
        """Make the streams exactly ``state``'s, as new generators: a
        stream created after the capture must not keep its advanced
        state, so a holder of an old generator must fetch it again."""
        self._streams = {}
        for name, s in state.items():
            self.stream(name).bit_generator.state = s

    def spawn(self, name: str) -> "RngRegistry":
        """Create a child registry whose streams are independent of ours."""
        return RngRegistry(derive_seed(self.root_seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(root_seed={self.root_seed}, streams={sorted(self._streams)})"
