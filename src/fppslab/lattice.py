"""Geometry of the integer lattice Z^d.

Points are plain tuples of ints, which keeps them hashable and cheap to
use as dictionary keys. The weight oracle serializes an edge as its
dimension, its axis, then the coordinates of its base in order. Python ints are unbounded, so coordinate overflow cannot occur; all
experiments stay within |coord| < 1e4 anyway.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError

Point = tuple[int, ...]


class EdgeId(NamedTuple):
    """Canonical identifier of a nearest-neighbor edge.

    ``base`` is the endpoint with the smaller coordinate along ``axis``;
    the edge joins ``base`` and ``base + e_axis``. Every edge has exactly
    one EdgeId, so the weight oracle sees each edge under a single key.
    """

    base: Point
    axis: int


def step(p: Point, axis: int, delta: int) -> Point:
    """p + delta * e_axis."""
    return p[:axis] + (p[axis] + delta,) + p[axis + 1 :]


def check_dimension(d: int) -> None:
    """Raise DomainError unless d >= 2: Z^1 has no in-plane direction."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
