"""Dense float64 vectors, the (x, v, u) iterate triple, its metric, and the
per-thread workspace the iteration takes its scratch memory from."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """Two vectors (or triple components) do not share a dimension."""


class NonFiniteIterateError(RuntimeError):
    """An iterate picked up NaN/inf entries; names the failing iteration."""


def readonly_vector(data, name: str = "vector") -> np.ndarray:
    """Read-only 1-D float64 view of ``data``, with no scan and no copy.

    The caller hands the array over: it must not write to ``data`` later.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    arr = arr.view()
    arr.flags.writeable = False
    return arr


def as_vector(data, name: str = "vector") -> np.ndarray:
    """:func:`readonly_vector` plus a scan that rejects NaN/inf entries.

    For outside input only: solver state must start finite, and inside the
    loop the residuals catch non-finite values.
    """
    arr = readonly_vector(data, name)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class IterateTriple:
    """Solver state theta = (x, v, u), three vectors of equal dimension.

    The components are read-only views of the given arrays, not copies.
    """

    x: np.ndarray
    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        for name in ("x", "v", "u"):
            object.__setattr__(self, name, readonly_vector(getattr(self, name), name))
        if not (self.x.shape == self.v.shape == self.u.shape):
            raise DimensionMismatchError(
                f"components differ in dimension: x={self.x.size}, "
                f"v={self.v.size}, u={self.u.size}"
            )

    @property
    def dim(self) -> int:
        return self.x.size


class _Workspace(threading.local):
    """The calling thread's scratch buffers, raw bytes by slot name."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}


_workspace = _Workspace()


def scratch(slot: str, shape, dtype=np.float64) -> np.ndarray:
    """This thread's buffer ``slot`` as a ``shape`` array of ``dtype``, with
    undefined contents.

    A slot keeps its memory from call to call and is replaced only when a
    request needs more bytes than it holds, so layers whose uses never
    overlap share one: ``"vector"`` is every layer's one full-size real
    temporary, ``"spectrum"`` the half spectrum of the Fourier solves, and
    ``"filter_w"``/``"filter_h"`` the denoiser's matrices.  A caller fills
    the buffer and uses it between two of its own statements, and never
    returns it, so no array a caller receives is ever overwritten, and no
    input is a scratch buffer.  Each thread has its own slots.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = _workspace.buffers.get(slot)
    if buf is None or buf.size < nbytes:
        buf = _workspace.buffers[slot] = np.empty(nbytes, np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def metric_distance(a: IterateTriple, b: IterateTriple) -> float:
    """Distance (||x1-x2|| + ||v1-v2|| + ||u1-u2||) / sqrt(d) between triples.

    Symmetric, zero iff a == b, and satisfies the triangle inequality.
    """
    for name in ("x", "v", "u"):
        pa, pb = getattr(a, name), getattr(b, name)
        if pa.shape != pb.shape:
            raise DimensionMismatchError(
                f"{name} parts differ in dimension: {pa.size} vs {pb.size}"
            )
    diff = np.subtract(a.x, b.x, out=scratch("vector", a.x.shape))
    total = float(np.linalg.norm(diff))
    total += float(np.linalg.norm(np.subtract(a.v, b.v, out=diff)))
    total += float(np.linalg.norm(np.subtract(a.u, b.u, out=diff)))
    return total / math.sqrt(a.dim)
