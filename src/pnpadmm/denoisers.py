"""Sigma-parameterized denoisers and empirical checks of the residue bound.

Every denoiser has one entry point, ``apply(sigma, a)``, which maps a
float64 (h, w) image, or each image of a (k, h, w) stack, to an array of
the same shape.  :func:`denoise` is the checked way in: it validates the
array, hands the denoiser a read-only view and acts as the identity at
sigma = 0.  The residue bound under test is
``||D_sigma(x) - x||^2 <= K * d * sigma^2`` on [0, 1]^d.  The linear
filters (Gaussian, box, identity) are symmetric and diagonal in the DCT-II
basis, so :meth:`Denoiser.spectrum` gives their eigenvalues in closed form
and :func:`certified_denoiser_bound` a K that provably holds.  The median
filter has no spectrum: for it K can only be estimated from samples and
re-checked on held-out samples, a sample maximum and not a bound.  Both
sampled checks filter their samples as (k, h, w) stacks, one call per
sigma; the Gaussian and box filters take a whole stack in one pass of
their matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


# sigma is mapped to pixels through the larger image side, times C_MAP, so
# the residue ratio stays comparable across image sizes; the Gaussian kernel
# is cut at TRUNCATE standard deviations
C_MAP = 1.0
TRUNCATE = 3.0
# the median filter copies at most this many bytes of windows at a time
MEDIAN_BLOCK_BYTES = 4 * 2**20
# the Gaussian and box filters multiply their band this many outputs at a time
FILTER_BLOCK = 32
# the residue-bound checks filter their sample images in stacks of at most
# this many bytes
STACK_BYTES = 2**20


def _fill_filter(n: int, kernel: np.ndarray) -> np.ndarray:
    """The n x n matrix of symmetric padding followed by correlation with
    ``kernel``, as a fresh array.

    At tap offset o, output i reads pixel i + o of the 2n-periodic symmetric
    extension, so pixel m stands at the offsets m - i and -(i + m + 1) mod
    2n.  With the kernel folded onto that period (c[s] the sum of the taps
    at offsets s mod 2n, which holds a single tap while the radius is below
    n), ``g[i, m] = c[m - i] + c[-(i + m + 1)]``: a Toeplitz part, copied as
    one strided view, plus a Hankel part that is nonzero only in a k x k
    corner at each end of the diagonal, k = min(radius, n).
    """
    radius = kernel.size // 2
    c = _fold(n, kernel)
    # row n - 1 - i of hankel(c[-(n - 1)], ..., c[n - 1]) is row i of the
    # Toeplitz part: c[-i], ..., c[n - 1 - i]
    g = _hankel(np.concatenate((c[n + 1 :], c[:n])), n)[::-1].copy()
    # the Hankel part is hankel(mirror); its top corner takes the sums
    # i + m < n and its bottom corner the rest
    mirror = c[::-1]
    top = mirror.copy()
    top[n:] = 0.0
    bottom = mirror.copy()
    bottom[:n] = 0.0
    k = min(radius, n)
    g[:k, :k] += _hankel(top, k)
    g[n - k :, n - k :] += _hankel(bottom[2 * (n - k) :], k)
    return g


def _fold(n: int, kernel: np.ndarray) -> np.ndarray:
    """The taps of an odd-length, centred ``kernel`` summed by their offset
    mod 2n, as a length-2n vector: c[s] sums the taps at offsets = s mod 2n."""
    radius = kernel.size // 2
    return np.bincount(np.arange(-radius, radius + 1) % (2 * n), kernel, minlength=2 * n)


def _filter_spectrum(n: int, kernel: np.ndarray) -> np.ndarray:
    """The n eigenvalues of ``_fill_filter(n, kernel)`` for a symmetric
    kernel, in DCT-II order.

    Symmetric padding makes the filter matrix diagonal in the DCT-II basis
    at every radius, the wraparound included (Martucci, IEEE TSP 1994;
    Strang, SIAM Review 1999): the cosine cos(pi k (m + 1/2) / n) is an
    eigenvector with eigenvalue sum_s c[s] cos(pi k s / n), which is the
    real part of entry k of the length-2n DFT of the folded kernel c.
    """
    return np.fft.rfft(_fold(n, kernel)).real[:n]


def _hankel(a: np.ndarray, k: int) -> np.ndarray:
    """The k x k view of the contiguous vector ``a`` whose entry (i, m) is
    a[i + m]."""
    return np.ndarray((k, k), a.dtype, a, strides=(a.itemsize, a.itemsize))


def _blocks(n: int, radius: int):
    """``(j0, j1, lo, hi)`` for each run of FILTER_BLOCK outputs j0..j1-1 of
    a side-n filter matrix: columns lo..hi-1 of its rows j0..j1-1 hold every
    nonzero.  Output j reads inputs j - radius .. j + radius, a reflection
    included, so that is the band clipped to the side; once radius >= n the
    extension reflects more than once and the band is the whole side."""
    for j0 in range(0, n, FILTER_BLOCK):
        j1 = min(n, j0 + FILTER_BLOCK)
        yield j0, j1, max(0, j0 - radius), min(n, j1 + radius)


def _separable_filter(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Filter the rows then the columns of an (h, w) image, or of each image
    of a (k, h, w) stack, with kernel, as G_h @ (A @ G_w^T).

    Both matrices are built on every call, one for square images.  Each
    product is taken a block of output columns (then rows) at a time and
    multiplies only the band of G that block reads; the products broadcast
    over a leading stack axis, bit for bit as one call per image.
    """
    h, w = a.shape[-2:]
    radius = kernel.size // 2
    g_w = _fill_filter(w, kernel)
    g_h = g_w if h == w else _fill_filter(h, kernel)
    mid = np.empty(a.shape)
    for j0, j1, lo, hi in _blocks(w, radius):
        np.matmul(a[..., lo:hi], g_w[j0:j1, lo:hi].T, out=mid[..., j0:j1])
    out = np.empty(a.shape)
    for i0, i1, lo, hi in _blocks(h, radius):
        np.matmul(g_h[i0:i1, lo:hi], mid[..., lo:hi, :], out=out[..., i0:i1, :])
    return out


class Denoiser:
    """Base class: a family of denoising maps indexed by sigma >= 0."""

    name = "base"

    def apply(self, sigma: float, a: np.ndarray) -> np.ndarray:
        """D_sigma of a float64 (h, w) image, or of each image of a (k, h, w)
        stack, as an array of the same shape; ``a`` may be read-only, and
        the result may be ``a`` itself."""
        raise NotImplementedError

    def radius(self, sigma: float, side: int) -> int:
        """Half-width in pixels of the window ``apply(sigma, a)`` reads,
        for an image whose longer side is ``side``; 0 reads no neighbours."""
        return 0

    def spectrum(self, sigma: float, n: int) -> np.ndarray | None:
        """The n eigenvalues of the symmetric side-n matrix that D_sigma
        applies along each axis of an n x n image, so that D_sigma's own
        are their pairwise products; None when D_sigma is not linear."""
        return None


class IdentityDenoiser(Denoiser):
    """Returns its input unchanged at every sigma; useful as a null prior."""

    name = "identity"

    def apply(self, sigma: float, a: np.ndarray) -> np.ndarray:
        return a

    def spectrum(self, sigma: float, n: int) -> np.ndarray:
        return np.ones(n)


class GaussianSmoothing(Denoiser):
    """Separable Gaussian blur with symmetric boundary padding.

    The kernel standard deviation in pixels is C_MAP * sigma * max(width,
    height), truncated at TRUNCATE standard deviations.
    """

    name = "gaussian"

    def radius(self, sigma: float, side: int) -> int:
        return max(1, int(math.ceil(TRUNCATE * (C_MAP * sigma * side))))

    def kernel(self, sigma: float, side: int) -> np.ndarray:
        """The normalized taps for an image whose longer side is ``side``."""
        std = C_MAP * sigma * side
        radius = self.radius(sigma, side)
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        k = np.exp(-0.5 * (offsets / std) ** 2)
        return k / k.sum()

    def apply(self, sigma: float, a: np.ndarray) -> np.ndarray:
        return _separable_filter(a, self.kernel(sigma, max(a.shape[-2:])))

    def spectrum(self, sigma: float, n: int) -> np.ndarray:
        return _filter_spectrum(n, self.kernel(sigma, n))


class MedianFilter(Denoiser):
    """Square-window median with symmetric padding.

    The window half-width is round(C_MAP * sigma * max(width, height));
    a zero half-width leaves the image untouched, which gives the required
    identity behavior for small sigma.
    """

    name = "median"

    def radius(self, sigma: float, side: int) -> int:
        return int(math.floor(C_MAP * sigma * side + 0.5))

    def apply(self, sigma: float, a: np.ndarray) -> np.ndarray:
        h, w = a.shape[-2:]
        half = self.radius(sigma, max(h, w))
        if half == 0:
            return a
        win = 2 * half + 1
        # np.median copies the windows it is given, so take them a block of
        # rows at a time: each block's copy stays within MEDIAN_BLOCK_BYTES
        rows = max(1, MEDIAN_BLOCK_BYTES // (w * win * win * 8))
        out = np.empty(a.shape)
        for image, filtered in zip(a.reshape(-1, h, w), out.reshape(-1, h, w)):
            padded = np.pad(image, half, mode="symmetric")
            windows = np.lib.stride_tricks.sliding_window_view(padded, (win, win))
            for r in range(0, h, rows):
                filtered[r : r + rows] = np.median(windows[r : r + rows], axis=(2, 3))
        return out


class BoxAverage(Denoiser):
    """Square-window mean filter, same sigma-to-window map as MedianFilter."""

    name = "box"

    radius = MedianFilter.radius

    def kernel(self, sigma: float, side: int) -> np.ndarray:
        """The equal taps for an image whose longer side is ``side``."""
        win = 2 * self.radius(sigma, side) + 1
        return np.full(win, 1.0 / win)

    def apply(self, sigma: float, a: np.ndarray) -> np.ndarray:
        kernel = self.kernel(sigma, max(a.shape[-2:]))
        if kernel.size == 1:
            return a
        return _separable_filter(a, kernel)

    def spectrum(self, sigma: float, n: int) -> np.ndarray:
        return _filter_spectrum(n, self.kernel(sigma, n))


def denoise(kind: Denoiser, sigma: float, a) -> np.ndarray:
    """Apply ``kind`` at strength ``sigma`` to an (h, w) image or to each
    image of a (k, h, w) stack.

    The input is taken as float64 and handed over as a read-only view, with
    no copy and no scan; it must have no empty side.  sigma = 0 returns that
    view, equal to the input bit for bit, for every kind; the output always
    has the input's shape.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    a = np.asarray(a, dtype=np.float64).view()
    if a.ndim not in (2, 3) or 0 in a.shape:
        raise ValueError(
            f"expected an (h, w) image or a (k, h, w) stack with no empty side, "
            f"got shape {a.shape}"
        )
    a.flags.writeable = False
    if sigma == 0.0:
        return a
    out = kind.apply(sigma, a)
    if out.shape != a.shape:
        raise ValueError(f"denoiser {kind.name} changed image shape: {a.shape} -> {out.shape}")
    return out


@dataclass(frozen=True)
class DenoiserBoundEstimate:
    """Sampled estimate of K in ||D_sigma(x) - x||^2 <= K * d * sigma^2.

    k_hat is the max of the observed ratios; it is 0 for an identity-like
    denoiser (the bound is then vacuously satisfied).
    """

    k_hat: float
    sample_count: int
    sigma_grid: tuple[float, ...]
    width: int
    height: int


@dataclass(frozen=True)
class BoundCheckReport:
    violations: int
    worst_ratio: float
    threshold: float


def _sample_stacks(width: int, height: int, seed: int, count: int):
    """Uniform-noise images 0..count-1 as (k, height, width) stacks of at
    most STACK_BYTES each (one image at least)."""
    per = max(1, STACK_BYTES // (8 * width * height))
    for i0 in range(0, count, per):
        stack = np.empty((min(per, count - i0), height, width))
        for j, a in enumerate(stack):
            # substream derived from (seed, index) so sampling is order-independent
            a[...] = np.random.default_rng((seed, i0 + j)).uniform(0.0, 1.0, (height, width))
        yield stack


def residue_ratio(kind: Denoiser, sigma: float, a):
    """||D_sigma(x) - x||^2 / (d * sigma^2) at one sigma > 0: a float for an
    (h, w) image x, an array of k for a (k, h, w) stack, from one call."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = np.asarray(a, dtype=np.float64)
    out = denoise(kind, sigma, a)
    h, w = a.shape[-2:]
    res = np.sum(((out - a) ** 2).reshape(*a.shape[:-2], -1), axis=-1)
    ratio = res / (h * w * sigma * sigma)
    return float(ratio) if a.ndim == 2 else ratio


def estimate_denoiser_bound_constant(
    kind: Denoiser,
    width: int,
    height: int,
    sigma_grid: Sequence[float],
    n_samples: int,
    seed: int,
) -> DenoiserBoundEstimate:
    """Estimate K as the max residue ratio over sampled (image, sigma) pairs.

    Samples are uniform-noise images in [0, 1]; the estimate is deterministic
    given (seed, width, height, sigma_grid, n_samples).  Each sigma filters
    the samples a stack of at most STACK_BYTES at a time.
    """
    grid = tuple(float(s) for s in sigma_grid)
    if not grid or any(s <= 0 for s in grid):
        raise ValueError("sigma_grid must be non-empty with positive entries")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    worst = 0.0
    for stack in _sample_stacks(width, height, seed, n_samples):
        for s in grid:
            worst = max(worst, *residue_ratio(kind, s, stack).tolist())
    return DenoiserBoundEstimate(
        k_hat=worst,
        sample_count=n_samples,
        sigma_grid=grid,
        width=width,
        height=height,
    )


def certified_denoiser_bound(
    kind: Denoiser, side: int, sigma_grid: Sequence[float]
) -> tuple[float, float] | None:
    """``(K, lowest)`` for a linear denoiser on side x side images in [0, 1]^d:
    the least K with ``||D_sigma(x) - x||^2 <= K * d * sigma^2`` that the
    spectrum certifies at every sigma of the grid, and the smallest
    eigenvalue of D_sigma over the grid; None when the denoiser has no
    :meth:`Denoiser.spectrum`.

    D_sigma is the symmetric matrix G kron G with eigenvalues lambda_i
    lambda_j.  Its rows sum to 1, so it fixes constants, and
    D_sigma(x) - x = (D_sigma - I)(x - 1/2); on [0, 1]^d the last factor
    has squared norm at most d / 4, which gives
    K = max (1 - lambda_i lambda_j)^2 / (4 sigma^2).  A {0, 1} image that
    takes the sign of the worst cosine mode comes close to it.
    """
    grid = tuple(float(s) for s in sigma_grid)
    if not grid or any(s <= 0 for s in grid):
        raise ValueError("sigma_grid must be non-empty with positive entries")
    k = 0.0
    lowest = math.inf
    for s in grid:
        lam = kind.spectrum(s, side)
        if lam is None:
            return None
        pairs = np.outer(lam, lam)
        k = max(k, float(np.max((1.0 - pairs) ** 2)) / (4.0 * s * s))
        lowest = min(lowest, float(np.min(pairs)))
    return k, lowest


def verify_denoiser_bound(
    kind: Denoiser,
    estimate: DenoiserBoundEstimate,
    n_holdout: int,
    seed: int,
    margin: float = 0.5,
) -> BoundCheckReport:
    """Count held-out samples whose ratio exceeds k_hat * (1 + margin).

    The estimate is a sample maximum, so the multiplicative margin guards
    against false alarms; pass a seed different from the estimation seed.
    """
    if n_holdout < 1:
        raise ValueError("n_holdout must be >= 1")
    threshold = estimate.k_hat * (1.0 + margin)
    violations = 0
    worst = 0.0
    for stack in _sample_stacks(estimate.width, estimate.height, seed, n_holdout):
        for s in estimate.sigma_grid:
            ratios = residue_ratio(kind, s, stack)
            worst = max(worst, *ratios.tolist())
            violations += int(np.count_nonzero(ratios > threshold))
    return BoundCheckReport(
        violations=violations, worst_ratio=worst, threshold=threshold
    )
