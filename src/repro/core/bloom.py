"""Bloom filter for the dense-vertices mapping table (Section III-D).

"The bloom filter checks the membership of dense vertices, while the
hash table returns the dense vertex metadata."  A false positive merely
costs one wasted hash-table probe (the paper notes correctness is
preserved); :meth:`false_positive_rate` exposes the analytic rate so
tests can assert the sizing is sane.

Keys are hashed one at a time on Python ints: the board guider asks
about 1-3 vertices per call, where a NumPy call's fixed cost would
dominate.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.errors import ReproError

__all__ = ["BloomFilter"]

_M64 = 0xFFFFFFFFFFFFFFFF
_MIX_1 = 0xFF51AFD7ED558CCD
_MIX_2 = 0xC4CEB9FE1A85EC53
# Per-hash-function offsets: seed * golden-ratio constant + 1, mod 2**64.
_STRIDE_1 = (1 * 0x9E3779B97F4A7C15 + 1) & _M64
_STRIDE_2 = (2 * 0x9E3779B97F4A7C15 + 1) & _M64


def _splitmix(x: int, stride: int) -> int:
    """64-bit avalanche hash (splitmix64 finalizer) of ``x + stride``."""
    z = (x + stride) & _M64
    z = ((z ^ (z >> 30)) * _MIX_1) & _M64
    z = ((z ^ (z >> 27)) * _MIX_2) & _M64
    return z ^ (z >> 31)


class BloomFilter:
    """Fixed-size Bloom filter over non-negative integer keys.

    ``_bits`` is a list of 64-bit words: bit position ``p`` is bit
    ``p & 63`` of word ``p >> 6``.
    """

    def __init__(self, capacity_bits: int, n_hashes: int = 4):
        if capacity_bits < 8:
            raise ReproError(f"capacity_bits must be >= 8, got {capacity_bits}")
        if not 1 <= n_hashes <= 16:
            raise ReproError(f"n_hashes must be in [1, 16], got {n_hashes}")
        self.n_bits = int(capacity_bits)
        self.n_hashes = n_hashes
        self._bits = [0] * ((self.n_bits + 63) // 64)
        self.n_added = 0

    @classmethod
    def for_capacity(cls, n_items: int, bits_per_item: int = 10) -> "BloomFilter":
        """Sized for ``n_items`` at ~``bits_per_item`` (10 -> ~1% FPR)."""
        if n_items < 0:
            raise ReproError(f"negative n_items {n_items}")
        bits = max(64, n_items * bits_per_item)
        k = max(1, round(bits_per_item * math.log(2)))
        return cls(bits, min(16, k))

    def _positions(self, key: int):
        """The key's ``n_hashes`` bit positions via double hashing."""
        h1 = _splitmix(key, _STRIDE_1)
        h2 = _splitmix(key, _STRIDE_2) | 1  # odd stride
        n_bits = self.n_bits
        for i in range(self.n_hashes):
            yield ((h1 + i * h2) & _M64) % n_bits

    def add(self, keys: np.ndarray | int) -> None:
        keys = _as_keys(keys)
        bits = self._bits
        for key in keys:
            for p in self._positions(key):
                bits[p >> 6] |= 1 << (p & 63)
        self.n_added += len(keys)

    def contains_key(self, key: int) -> bool:
        """Membership of one key, as a Python bool."""
        if key < 0:
            raise ReproError("BloomFilter keys must be non-negative")
        bits = self._bits
        for p in self._positions(key):
            if not bits[p >> 6] >> (p & 63) & 1:
                return False
        return True

    def contains(self, keys: np.ndarray | int) -> np.ndarray | bool:
        scalar = np.isscalar(keys)
        keys = _as_keys(keys)
        hit = np.fromiter(map(self.contains_key, keys), dtype=bool, count=len(keys))
        if scalar:
            return bool(hit[0])
        return hit

    def false_positive_rate(self) -> float:
        """Analytic FPR given the current load."""
        if self.n_added == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.n_hashes * self.n_added / self.n_bits)
        return fill**self.n_hashes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(bits={self.n_bits}, k={self.n_hashes}, "
            f"added={self.n_added}, fpr~{self.false_positive_rate():.2%})"
        )


def _as_keys(keys: np.ndarray | int) -> list[int]:
    """Keys as a list of Python ints; raises on a negative key."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
    if keys.size and keys.min() < 0:
        raise ReproError("BloomFilter keys must be non-negative")
    return keys.ravel().tolist()
