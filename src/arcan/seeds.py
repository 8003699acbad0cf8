"""Deterministic seed derivation and direction sampling.

All randomized machinery in the package draws from `random.Random` streams
whose seeds are derived here, so identical inputs give identical outputs on
every platform and regardless of worker scheduling.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(*parts) -> int:
    """Mix arbitrary hashable parts into a stable 63-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def unit_vector(rng: random.Random, n: int) -> tuple[float, ...]:
    """A uniformly distributed direction on the unit sphere of R^n."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = sum(c * c for c in v) ** 0.5
        if norm > 1e-8:
            return tuple(c / norm for c in v)


# The coordinates a lattice direction draws from.
_LATTICE_COORDS = tuple(c for c in range(-16, 17) if c)


def lattice_vector(rng: random.Random, n: int) -> tuple[int, ...]:
    """A small-integer direction with no zero coordinate: each coordinate
    uniform on the nonzero integers -16..16.

    Exact-arithmetic paths use these instead of float unit vectors: integer
    coordinates keep Vandermonde systems over the rationals cheap to solve
    exactly, and genericity is all the interpolation needs.
    """
    return tuple(rng.choice(_LATTICE_COORDS) for _ in range(n))
