"""Deterministic seed derivation and the draw of lattice directions.

All randomized machinery in the package draws from `random.Random` streams
whose seeds are derived here, so identical inputs give identical outputs on
every platform and regardless of worker scheduling.  `lattice_vector`
draws the rows of the canonical design (`homog.LatticeDesign`), the one
source of the directions both arithmetics evaluate along.
`sample_scalar` turns a float draw into the coordinate an arithmetic
samples: exact ladders run on small exact rationals.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction


def derive_seed(*parts) -> int:
    """Mix arbitrary hashable parts into a stable 63-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def sample_scalar(u: float, exact: bool):
    """A float draw as a sample coordinate: in exact mode the nearest
    fraction with denominator at most 64, in float mode `u` itself."""
    return Fraction(u).limit_denominator(64) if exact else u


# The coordinates a lattice direction draws from.
_LATTICE_COORDS = tuple(c for c in range(-16, 17) if c)


def lattice_vector(rng: random.Random, n: int) -> tuple[int, ...]:
    """A small-integer direction with no zero coordinate: each coordinate
    uniform on the nonzero integers -16..16.

    Integer coordinates keep Vandermonde systems over the rationals cheap
    to solve exactly, float ladders read the rows scaled to unit length,
    and genericity is all the interpolation needs.
    """
    return tuple(rng.choice(_LATTICE_COORDS) for _ in range(n))
