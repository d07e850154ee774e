"""Quadratic data-fidelity terms f(x) = 0.5 ||Hx - b||^2 and their prox.

Forward operators are matrix-free and act on flattened row-major images.
The x-update of the splitting loop is the proximal solve

    argmin_x f(x) + (rho/2) ||x - t||^2   <=>   (H^T H + rho I) x = H^T b + rho t,

handled by conjugate gradients on the normal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DimensionMismatchError, NonFiniteIterateError, as_vector


def _as_shape(shape) -> tuple[int, int]:
    """Accept an int d (treated as a 1 x d row) or an (height, width) pair."""
    if isinstance(shape, int):
        if shape < 1:
            raise ValueError("dimension must be >= 1")
        return (1, shape)
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise ValueError("shape entries must be >= 1")
    return (h, w)


def _check_stencil(stencil) -> np.ndarray:
    arr = np.asarray(stencil, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("stencil must be 2-D")
    if arr.shape[0] % 2 == 0 or arr.shape[1] % 2 == 0:
        raise ValueError("stencil sides must be odd")
    if np.any(arr < 0):
        raise ValueError("stencil entries must be nonnegative")
    if abs(arr.sum() - 1.0) > 1e-12:
        raise ValueError("stencil entries must sum to 1")
    return arr


def _circ_conv(x2: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """Circular 2-D convolution: the stencil lands centered on each source pixel."""
    r0, c0 = stencil.shape[0] // 2, stencil.shape[1] // 2
    out = np.zeros_like(x2)
    for a in range(stencil.shape[0]):
        for b in range(stencil.shape[1]):
            w = stencil[a, b]
            if w != 0.0:
                out += w * np.roll(x2, (a - r0, b - c0), axis=(0, 1))
    return out


def _circ_corr(y2: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_circ_conv` (circular correlation)."""
    r0, c0 = stencil.shape[0] // 2, stencil.shape[1] // 2
    out = np.zeros_like(y2)
    for a in range(stencil.shape[0]):
        for b in range(stencil.shape[1]):
            w = stencil[a, b]
            if w != 0.0:
                out += w * np.roll(y2, (r0 - a, c0 - b), axis=(0, 1))
    return out


def binomial_stencil(factor: int) -> np.ndarray:
    """Normalized 2-D binomial stencil of side 2*factor - 1."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    row = np.array([math.comb(2 * factor - 2, i) for i in range(2 * factor - 1)],
                   dtype=np.float64)
    row /= row.sum()
    return np.outer(row, row)


class ForwardOperator:
    """Linear degradation model H with matrix-free apply / apply_adjoint."""

    in_shape: tuple[int, int]
    out_shape: tuple[int, int]

    @property
    def in_dim(self) -> int:
        return self.in_shape[0] * self.in_shape[1]

    @property
    def out_dim(self) -> int:
        return self.out_shape[0] * self.out_shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_in(self, x, what: str = "input") -> np.ndarray:
        return _sized(x, self.in_dim, what)

    def _check_out(self, y, what: str = "output-side vector") -> np.ndarray:
        return _sized(y, self.out_dim, what)


def _sized(x, dim: int, what: str) -> np.ndarray:
    """``x`` as a float64 vector of length ``dim``; a shape check, no scan."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (dim,):
        raise DimensionMismatchError(
            f"{what} has shape {arr.shape}, operator expects ({dim},)"
        )
    return arr


class Identity(ForwardOperator):
    def __init__(self, shape):
        self.in_shape = _as_shape(shape)
        self.out_shape = self.in_shape

    def apply(self, x):
        return self._check_in(x)

    def apply_adjoint(self, y):
        return self._check_out(y)


class CircularBlur(ForwardOperator):
    """Circular (wraparound) convolution with a small nonnegative stencil."""

    def __init__(self, shape, stencil):
        self.in_shape = _as_shape(shape)
        self.out_shape = self.in_shape
        self.stencil = _check_stencil(stencil)

    def apply(self, x):
        x2 = self._check_in(x).reshape(self.in_shape)
        return _circ_conv(x2, self.stencil).reshape(-1)

    def apply_adjoint(self, y):
        y2 = self._check_out(y).reshape(self.in_shape)
        return _circ_corr(y2, self.stencil).reshape(-1)


class Mask(ForwardOperator):
    """Diagonal 0/1 sampling operator (inpainting-style masking)."""

    def __init__(self, keep):
        keep = np.asarray(keep, dtype=bool)
        if keep.ndim == 1:
            keep = keep.reshape(1, -1)
        if keep.ndim != 2:
            raise ValueError("keep must be 1-D or 2-D boolean")
        self.in_shape = keep.shape
        self.out_shape = keep.shape
        self.keep = keep.reshape(-1).astype(np.float64)

    def apply(self, x):
        return self._check_in(x) * self.keep

    def apply_adjoint(self, y):
        return self._check_out(y) * self.keep


class Downsample(ForwardOperator):
    """Anti-alias prefilter followed by subsampling at integer stride."""

    def __init__(self, shape, factor: int, prefilter=None):
        self.in_shape = _as_shape(shape)
        if factor < 1:
            raise ValueError("factor must be >= 1")
        h, w = self.in_shape
        if h % factor or w % factor:
            raise ValueError(f"shape {self.in_shape} not divisible by factor {factor}")
        self.factor = factor
        self.out_shape = (h // factor, w // factor)
        self.prefilter = (
            binomial_stencil(factor) if prefilter is None else _check_stencil(prefilter)
        )

    def apply(self, x):
        x2 = self._check_in(x).reshape(self.in_shape)
        blurred = _circ_conv(x2, self.prefilter)
        return blurred[:: self.factor, :: self.factor].reshape(-1)

    def apply_adjoint(self, y):
        y2 = self._check_out(y).reshape(self.out_shape)
        up = np.zeros(self.in_shape)
        up[:: self.factor, :: self.factor] = y2
        return _circ_corr(up, self.prefilter).reshape(-1)


@dataclass(frozen=True)
class FidelityTerm:
    """f(x) = 0.5 ||Hx - b||^2 for a forward operator H and observation b."""

    op: ForwardOperator
    observation: np.ndarray

    def __post_init__(self):
        b = as_vector(self.observation, "observation").copy()
        self.op._check_out(b, "observation")
        b.flags.writeable = False
        object.__setattr__(self, "observation", b)

    def value(self, x) -> float:
        r = self.op.apply(x) - self.observation
        return 0.5 * float(r @ r)

    def gradient(self, x) -> np.ndarray:
        """H^T (Hx - b)."""
        return self.op.apply_adjoint(self.op.apply(x) - self.observation)


class ProxSolveError(RuntimeError):
    """Conjugate gradients hit its iteration cap before converging."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _finite_residual(r: np.ndarray) -> float:
    rs = float(r @ r)
    if not math.isfinite(rs):
        raise NonFiniteIterateError("prox solve residual is not finite")
    return rs


def prox_x_update(
    f: FidelityTerm,
    rho: float,
    target: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Minimize f(x) + (rho/2) ||x - target||^2.

    Solves the normal equations (H^T H + rho I) x = H^T b + rho * target by
    conjugate gradients, warm-started at ``target``.  The system is strongly
    convex for rho > 0, so the minimizer is unique.  A non-finite CG
    residual raises NonFiniteIterateError at once.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    op = f.op
    t = op._check_in(target, "target")
    rhs = op.apply_adjoint(f.observation) + rho * t
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(t)

    def matvec(z):
        return op.apply_adjoint(op.apply(z)) + rho * z

    cap = 10 * op.in_dim if max_iter is None else max_iter
    x = t.copy()
    r = rhs - matvec(x)
    rs = _finite_residual(r)
    tol = rel_tol * rhs_norm
    if math.sqrt(rs) <= tol:
        return x
    p = r
    for it in range(1, cap + 1):
        Ap = matvec(p)
        alpha = rs / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = _finite_residual(r)
        if math.sqrt(rs_new) <= tol:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    rel = math.sqrt(rs) / rhs_norm
    raise ProxSolveError(
        f"prox solve did not reach relative residual {rel_tol:g} "
        f"within {cap} iterations (final residual {rel:.3e})",
        residual=rel,
        iterations=cap,
    )


@dataclass(frozen=True)
class GradientBoundEstimate:
    """Largest observed ||grad f(x)|| / sqrt(d) over a sampled region.

    The quadratic fidelity has unbounded gradient on all of R^d, so this is
    an effective bound over the region actually visited, not a global one.
    """

    m_hat: float
    region: str
    sample_count: int


def estimate_gradient_bound(
    f: FidelityTerm,
    samples: Sequence[np.ndarray],
    region: str = "user-supplied samples",
) -> GradientBoundEstimate:
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    root_d = math.sqrt(f.op.in_dim)
    worst = 0.0
    for x in samples:
        worst = max(worst, float(np.linalg.norm(f.gradient(x))) / root_d)
    return GradientBoundEstimate(m_hat=worst, region=region, sample_count=len(samples))
