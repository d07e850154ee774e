"""Float64 images, their reductions, the (x, v, u) iterate triple, and its
metric."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# OpenBLAS splits a dot product over its threads above about 10 000 entries,
# and where it splits moves the last bits of the sum; below that it runs on
# one thread
REDUCE_CHUNK = 8192


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two float64 arrays of one shape, their entries taken in row-major
    order and summed REDUCE_CHUNK at a time in a fixed order, so its bits do
    not depend on the BLAS thread count; equal to ``a.ravel() @ b.ravel()``
    up to REDUCE_CHUNK entries.

    The whole chunks go through one batched product, each chunk its own
    1 x 1 result, and are added left to right, then the shorter tail chunk.
    """
    a, b = a.ravel(), b.ravel()
    full = a.size - a.size % REDUCE_CHUNK
    total = 0.0
    if full:
        rows = a[:full].reshape(-1, 1, REDUCE_CHUNK)
        cols = b[:full].reshape(-1, REDUCE_CHUNK, 1)
        for part in np.matmul(rows, cols).ravel().tolist():
            total += part
    if full < a.size:
        total += float(a[full:] @ b[full:])
    return total


def norm(a: np.ndarray) -> float:
    """||a||, from :func:`dot`."""
    return math.sqrt(dot(a, a))


class DimensionMismatchError(ValueError):
    """Two images (or triple components) do not share a shape."""


class NonFiniteIterateError(RuntimeError):
    """An iterate picked up NaN/inf entries; names the failing iteration."""


def as_image(data, name: str = "image", shape=None) -> np.ndarray:
    """Read-only float64 view of ``data`` as an (h, w) image with no empty
    side, with no scan and no copy.

    ``shape``, if given, is an operator's (h, w), each side at least 1, and
    any other shape is refused against it.  The caller hands the array
    over: it must not write to ``data`` later.
    """
    arr = np.asarray(data, dtype=np.float64).view()
    if shape is not None:
        if arr.shape != shape:
            raise DimensionMismatchError(f"{name} has shape {arr.shape}, operator expects {shape}")
    elif arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(
            f"{name} must be an (h, w) image with no empty side, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def as_vector(data, name: str = "image", shape=None) -> np.ndarray:
    """:func:`as_image` plus a scan that rejects NaN/inf entries.

    For outside input only: solver state must start finite, and inside the
    loop the residuals catch non-finite values.
    """
    arr = as_image(data, name, shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class IterateTriple:
    """Solver state theta = (x, v, u), three images of one shape.

    The components are read-only views of the given arrays, not copies.
    """

    x: np.ndarray
    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        for name in ("x", "v", "u"):
            object.__setattr__(self, name, as_image(getattr(self, name), name))
        if not (self.x.shape == self.v.shape == self.u.shape):
            raise DimensionMismatchError(
                f"components differ in shape: x={self.x.shape}, "
                f"v={self.v.shape}, u={self.u.shape}"
            )


def metric_distance(a: IterateTriple, b: IterateTriple) -> float:
    """Distance (||x1-x2|| + ||v1-v2|| + ||u1-u2||) / sqrt(d) between triples
    of d-pixel images.

    Symmetric, zero iff a == b, and satisfies the triangle inequality.
    """
    if a.x.shape != b.x.shape:
        raise DimensionMismatchError(f"x parts differ in shape: {a.x.shape} vs {b.x.shape}")
    diff = a.x - b.x
    total = norm(diff)
    total += norm(np.subtract(a.v, b.v, out=diff))
    total += norm(np.subtract(a.u, b.u, out=diff))
    return total / math.sqrt(diff.size)
