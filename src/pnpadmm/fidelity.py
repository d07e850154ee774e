"""Quadratic data-fidelity terms f(x) = 0.5 ||Hx - b||^2 and their prox.

Forward operators are matrix-free and act on flattened row-major images.
The x-update of the splitting loop is the prox of f at a target t,

    argmin_x f(x) + (rho/2) ||x - t||^2   <=>   (H^T H + rho I) x = H^T b + rho t,

and each operator computes it in closed form from t, rho, b and the cached
H^T b: a pixelwise division (Identity, Mask), a division in the 2-D
Fourier basis (CircularBlur), or the push-through form
x = t + H^T (rho I + H H^T)^-1 (b - H t) around a Fourier solve on the
low-resolution grid (Downsample, whose H and H^T are a precomputed gather
and its bincount, so its prox runs no full-size transform and never
divides by rho).  Spectra and index tables are computed once, at
construction; every later transform runs through one in-place pair,
:func:`_forward` and :func:`_inverse`.  Each prox also returns the data
term f(x) of its solution, so the x-update never applies H again: the
pixelwise and push-through solves take it from the residual Hx - b they
form on the way, and the blur, which works only in its Fourier basis (H
and H^T are products with the stencil's spectrum K and its conjugate),
takes 0.5 ||Hx||^2 by Parseval from K X^ and adds -x.H^T b + 0.5 ||b||^2,
around its one inverse transform.  Every prox returns a fresh x and keeps
no state between calls, and its f(x) is not finite when t is not, which
is all the x-update checks of its target.  The gradient H^T (Hx - b) is
one H and one H^T; over the box [0, 1]^d its norm needs neither, since
:func:`box_gradient_bound` bounds it in closed form from b and ||H||_2,
which each operator reads off its spectrum.  Every dot product and norm
goes through :func:`~pnpadmm.linalg.dot`, so its bits do not depend on
the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .linalg import DimensionMismatchError, NonFiniteIterateError, as_vector, dot, norm


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


def _forward(a: np.ndarray) -> np.ndarray:
    """``np.fft.rfft2`` of a real 2-D array, bit for bit, as its two axis
    transforms, the second in place; a spectrum that is kept, computed at
    construction, takes ``rfft2`` itself."""
    s = np.fft.rfft(a, axis=1)
    return np.fft.fft(s, axis=0, out=s)


def _inverse(s: np.ndarray, width: int) -> np.ndarray:
    """``np.fft.irfft2`` of a half spectrum back to a real array of the given
    width, bit for bit; the first axis transform overwrites ``s``."""
    np.fft.ifft(s, axis=0, out=s)
    return np.fft.irfft(s, n=width, axis=1)


def _stencil_spectrum(stencil: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """rfft2 of the stencil wrapped onto the grid with its centre at the origin.

    Entries that wrap onto the same pixel add up, so a stencil larger than
    the grid aliases exactly as circular convolution on that grid does.
    """
    h, w = shape
    r0, c0 = stencil.shape[0] // 2, stencil.shape[1] // 2
    rows = (np.arange(stencil.shape[0]) - r0) % h
    cols = (np.arange(stencil.shape[1]) - c0) % w
    kernel = np.zeros(shape)
    np.add.at(kernel, (rows[:, None], cols[None, :]), stencil)
    return np.fft.rfft2(kernel)


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

    def prox(
        self, t: np.ndarray, rho: float, b: np.ndarray, htb: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """``(x, fx)``: the minimizer x of 0.5 ||Hx - b||^2 + (rho/2) ||x - t||^2,
        for rho > 0 and htb = H^T b, as a fresh array, and its data term
        fx = 0.5 ||Hx - b||^2, which is not finite when t is not."""
        raise NotImplementedError

    def spectral_norm(self) -> float:
        """||H||_2, the largest singular value of H."""
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


def _half_square(r: np.ndarray) -> float:
    """0.5 ||r||^2."""
    return 0.5 * dot(r, r)


class Identity(ForwardOperator):
    def __init__(self, shape):
        self.in_shape = _as_shape(shape)
        self.out_shape = self.in_shape

    def apply(self, x):
        return self._check_in(x)

    def apply_adjoint(self, y):
        return self._check_out(y)

    def spectral_norm(self):
        return 1.0

    def prox(self, t, rho, b, htb):
        x = rho * t
        x += htb
        x /= 1.0 + rho
        return x, _half_square(x - b)


class CircularBlur(ForwardOperator):
    """Circular (wraparound) convolution with a small nonnegative stencil.

    H and H^T multiply the half spectrum by the stencil's spectrum K and by
    its conjugate.
    """

    def __init__(self, shape, stencil):
        self.in_shape = _as_shape(shape)
        self.out_shape = self.in_shape
        self.stencil = _check_stencil(stencil)
        self._spectrum = _stencil_spectrum(self.stencil, self.in_shape)
        self._conj_spectrum = self._spectrum.conj()
        self._gain = np.abs(self._spectrum) ** 2
        # half-spectrum columns that stand only for themselves in Parseval's
        # sum: column 0, and column w/2 when the width w is even; every other
        # column also stands for its conjugate mirror
        w = self.in_shape[1]
        self._unpaired = [0] if w % 2 else [0, w // 2]

    def _filter(self, v, spectrum):
        s = _forward(v.reshape(self.in_shape))
        s *= spectrum
        return _inverse(s, self.in_shape[1]).reshape(-1)

    def apply(self, x):
        return self._filter(self._check_in(x), self._spectrum)

    def apply_adjoint(self, y):
        return self._filter(self._check_out(y), self._conj_spectrum)

    def spectral_norm(self):
        return float(np.max(np.abs(self._spectrum)))

    def prox(self, t, rho, b, htb):
        rhs = rho * t
        rhs += htb
        spec = _forward(rhs.reshape(self.in_shape))
        # divide by |K|^2 + rho, the transfer function of H^T H + rho I; numpy
        # divides a complex by a real-valued one as a multiply by the real's
        # reciprocal, so this multiply gives the same bits, faster
        spec *= 1.0 / (self._gain + rho)
        # K X^ is the half spectrum of Hx; by Parseval
        # 0.5 ||Hx||^2 = (sum |.|^2 - 0.5 sum over the unpaired columns) / d,
        # and f(x) = 0.5 ||Hx||^2 - x.H^T b + 0.5 ||b||^2
        hx = spec * self._spectrum
        paired = hx.ravel().view(np.float64)
        unpaired = hx[:, self._unpaired].ravel().view(np.float64)
        half_energy = dot(paired, paired) - 0.5 * dot(unpaired, unpaired)
        x = _inverse(spec, self.in_shape[1]).reshape(-1)
        fx = half_energy / self.in_dim - dot(x, htb) + _half_square(b)
        return x, fx


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

    def spectral_norm(self):
        return 1.0

    def prox(self, t, rho, b, htb):
        x = rho * t
        x += htb
        x /= self.keep + rho
        residual = self.keep * x
        residual -= b
        return x, _half_square(residual)


class Downsample(ForwardOperator):
    """Anti-alias prefilter followed by subsampling at integer stride.

    H = S B, with B the circular prefilter blur and S the subsampling, is
    computed only at the samples S keeps: each low-resolution pixel is a
    weighted gather of the full-resolution pixels under the prefilter's
    nonzero taps, and H^T scatters back with one ``np.bincount``.  The index
    table behind both holds taps * d / f^2 entries (taps = (2f - 1)^2 for
    the default binomial prefilter, fewer than 4 per pixel at any factor).
    """

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
        # low-resolution pixel (p, q) gathers x[f p + r0 - a, f q + c0 - b]
        # (mod the grid, so a stencil larger than the grid aliases exactly as
        # CircularBlur's does) with weight prefilter[a, b]
        a, b = np.nonzero(self.prefilter)
        r0, c0 = self.prefilter.shape[0] // 2, self.prefilter.shape[1] // 2
        m, n = self.out_shape
        rows = (factor * np.arange(m) + (r0 - a)[:, None]) % h
        cols = (factor * np.arange(n) + (c0 - b)[:, None]) % w
        self._weights = self.prefilter[a, b]
        self._src = (rows[:, :, None] * w + cols[:, None, :]).reshape(a.size, m * n)
        # pixels no tap reads (none for the default prefilter): x equals t
        # there, and f(x) never sees them
        read = np.zeros(self.in_dim, bool)
        read[self._src] = True
        self._unread = np.flatnonzero(~read)
        # H H^T = S B B^T S^T is circular on the low-resolution grid, so its
        # eigenvalues are the spectrum of its impulse response
        impulse = np.zeros(self.out_dim)
        impulse[0] = 1.0
        response = self.apply(self.apply_adjoint(impulse))
        self._low_eig = np.fft.rfft2(response.reshape(self.out_shape)).real

    def apply(self, x):
        # every index is in range by construction, so "clip" only skips the
        # bounds check
        return self._weights @ np.take(self._check_in(x), self._src, mode="clip")

    def apply_adjoint(self, y):
        spread = self._weights[:, None] * self._check_out(y)
        return np.bincount(self._src.ravel(), spread.ravel(), minlength=self.in_dim)

    def spectral_norm(self):
        # ||H||^2 = ||H H^T||, the largest eigenvalue of a circulant
        return math.sqrt(float(np.max(self._low_eig)))

    def prox(self, t, rho, b, htb):
        # push-through (Zhao et al., IEEE TIP 2016): x = t + H^T z with
        # z = (rho I + H H^T)^-1 (b - H t), which makes Hx - b = -rho z
        r = b - self.apply(t)
        low = _forward(r.reshape(self.out_shape))
        low /= self._low_eig + rho
        z = _inverse(low, self.out_shape[1]).reshape(-1)
        x = self.apply_adjoint(z)
        x += t
        z *= -rho
        fx = _half_square(z)
        if self._unread.size and not np.isfinite(t[self._unread]).all():
            fx = math.nan
        return x, fx


@dataclass(frozen=True)
class FidelityTerm:
    """f(x) = 0.5 ||Hx - b||^2 for a forward operator H and observation b."""

    op: ForwardOperator
    observation: np.ndarray
    adjoint_observation: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = as_vector(self.observation, "observation").copy()
        self.op._check_out(b, "observation")
        b.flags.writeable = False
        object.__setattr__(self, "observation", b)
        # H^T b, which the start iterate and every prox but Downsample's use
        htb = self.op.apply_adjoint(b)
        htb.flags.writeable = False
        object.__setattr__(self, "adjoint_observation", htb)

    def value(self, x) -> float:
        return _half_square(self.op.apply(x) - self.observation)

    def gradient(self, x) -> np.ndarray:
        """H^T (Hx - b), the gradient of f at x."""
        return self.op.apply_adjoint(self.op.apply(x) - self.observation)


def prox_x_update(
    f: FidelityTerm, rho: float, target: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimize f(x) + (rho/2) ||x - target||^2: the minimizer x and f(x).

    The operator's :meth:`ForwardOperator.prox` gives both, x in closed
    form.  The problem is strongly convex for rho > 0, so the minimizer is
    unique.  A non-finite target raises NonFiniteIterateError; a huge but
    finite one is solved, though its f(x) may overflow to inf.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    t = f.op._check_in(target, "target")
    # a non-finite target makes f(x) non-finite, and only then are its
    # entries scanned; the solve's own invalid operations on it stay silent
    with np.errstate(invalid="ignore"):
        x, fx = f.op.prox(t, rho, f.observation, f.adjoint_observation)
    if not math.isfinite(fx) and not np.isfinite(t).all():
        raise NonFiniteIterateError("prox target is not finite")
    return x, fx


def estimate_gradient_bound(f: FidelityTerm, samples: Iterable[np.ndarray]) -> float:
    """The largest ||grad f(x)|| / sqrt(d) over samples, taken one at a time,
    so a generator of samples holds only one of them.

    The quadratic fidelity has unbounded gradient on all of R^d, so this is
    an effective bound over the region actually visited, not a global one.
    """
    root_d = math.sqrt(f.op.in_dim)
    worst = 0.0
    empty = True
    for x in samples:
        worst = max(worst, norm(f.gradient(x)) / root_d)
        empty = False
    if empty:
        raise ValueError("samples must be non-empty")
    return worst


def box_gradient_bound(f: FidelityTerm) -> float:
    """M = ||H||_2 ||max(|b|, |1 - b|)|| / sqrt(d), a bound on
    ||grad f(x)|| / sqrt(d) over the box [0, 1]^d.

    grad f(x) = H^T (Hx - b), and every operator of this module has
    nonnegative rows that sum to at most 1 (a stencil sums to 1, a mask
    row holds one 0 or 1), so Hx lies in [0, 1]^m and each entry of Hx - b
    is at most max(|b_i|, |1 - b_i|) in absolute value.
    """
    b = f.observation
    worst = np.maximum(np.abs(b), np.abs(1.0 - b))
    return f.op.spectral_norm() * norm(worst) / math.sqrt(f.op.in_dim)
