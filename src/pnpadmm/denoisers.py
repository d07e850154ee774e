"""Sigma-parameterized denoisers and empirical checks of the residue bound.

Every denoiser maps an image to an image of the same size and acts as the
identity at sigma = 0 (enforced centrally in :func:`denoise`).  The residue
bound under test is ``||D_sigma(x) - x||^2 <= K * d * sigma^2``; since it is
hard to establish analytically even for simple filters, the constant K is
estimated from samples and re-checked on held-out samples.  Both checks
filter their samples as (k, h, w) stacks, one :meth:`Denoiser.apply_stack`
call per sigma; the Gaussian and box filters take a whole stack in one
pass of their matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import readonly_vector


@dataclass(frozen=True)
class ImageGrid:
    """A width x height image stored as a flat row-major float64 vector.

    pixels is a read-only view of the given array, not a copy.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        arr = readonly_vector(self.pixels, "pixels")
        if arr.size != self.width * self.height:
            raise ValueError(
                f"pixel count {arr.size} != width*height "
                f"{self.width * self.height}"
            )
        object.__setattr__(self, "pixels", arr)

    @property
    def dim(self) -> int:
        return self.width * self.height

    def to_array(self) -> np.ndarray:
        """Return a writable (height, width) copy."""
        return self.pixels.reshape(self.height, self.width).copy()

    @classmethod
    def from_array(cls, arr) -> "ImageGrid":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        h, w = arr.shape
        return cls(width=w, height=h, pixels=arr.reshape(-1))


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
    c = np.bincount(np.arange(-radius, radius + 1) % (2 * n), kernel, minlength=2 * n)
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


def _image_array(img: ImageGrid) -> np.ndarray:
    """The (height, width) view of an image's pixels."""
    return img.pixels.reshape(img.height, img.width)


class Denoiser:
    """Base class: a family of denoising maps indexed by sigma >= 0."""

    name = "base"

    def apply(self, sigma: float, img: ImageGrid) -> ImageGrid:
        raise NotImplementedError

    def apply_stack(self, sigma: float, stack: np.ndarray) -> np.ndarray:
        """:meth:`apply` to each image of a (k, h, w) stack, as a new stack;
        the base calls it once per image.  The separable filters' own
        versions also take one (h, w) image, which is how their apply runs."""
        return np.stack(
            [self.apply(sigma, ImageGrid.from_array(a)).pixels.reshape(a.shape) for a in stack]
        )

    def radius(self, sigma: float, side: int) -> int:
        """Half-width in pixels of the window ``apply(sigma, img)`` reads,
        for an image whose longer side is ``side``; 0 reads no neighbours."""
        return 0


class IdentityDenoiser(Denoiser):
    """Returns its input unchanged at every sigma; useful as a null prior."""

    name = "identity"

    def apply(self, sigma: float, img: ImageGrid) -> ImageGrid:
        return img

    def apply_stack(self, sigma: float, stack: np.ndarray) -> np.ndarray:
        return stack


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

    def apply(self, sigma: float, img: ImageGrid) -> ImageGrid:
        return ImageGrid.from_array(self.apply_stack(sigma, _image_array(img)))

    def apply_stack(self, sigma: float, stack: np.ndarray) -> np.ndarray:
        return _separable_filter(stack, self.kernel(sigma, max(stack.shape[-2:])))


class MedianFilter(Denoiser):
    """Square-window median with symmetric padding.

    The window half-width is round(C_MAP * sigma * max(width, height));
    a zero half-width leaves the image untouched, which gives the required
    identity behavior for small sigma.
    """

    name = "median"

    def radius(self, sigma: float, side: int) -> int:
        return int(math.floor(C_MAP * sigma * side + 0.5))

    def apply(self, sigma: float, img: ImageGrid) -> ImageGrid:
        half = self.radius(sigma, max(img.width, img.height))
        if half == 0:
            return img
        a = _image_array(img)
        padded = np.pad(a, half, mode="symmetric")
        win = 2 * half + 1
        windows = np.lib.stride_tricks.sliding_window_view(padded, (win, win))
        # np.median copies the windows it is given, so take them a block of
        # rows at a time: each block's copy stays within MEDIAN_BLOCK_BYTES
        rows = max(1, MEDIAN_BLOCK_BYTES // (img.width * win * win * 8))
        out = np.empty_like(a)
        for r in range(0, img.height, rows):
            out[r : r + rows] = np.median(windows[r : r + rows], axis=(2, 3))
        return ImageGrid.from_array(out)


class BoxAverage(Denoiser):
    """Square-window mean filter, same sigma-to-window map as MedianFilter."""

    name = "box"

    radius = MedianFilter.radius

    def apply(self, sigma: float, img: ImageGrid) -> ImageGrid:
        a = _image_array(img)
        out = self.apply_stack(sigma, a)
        return img if out is a else ImageGrid.from_array(out)

    def apply_stack(self, sigma: float, stack: np.ndarray) -> np.ndarray:
        half = self.radius(sigma, max(stack.shape[-2:]))
        if half == 0:
            return stack
        win = 2 * half + 1
        return _separable_filter(stack, np.full(win, 1.0 / win))


def denoise(kind: Denoiser, sigma: float, img: ImageGrid) -> ImageGrid:
    """Apply ``kind`` at strength ``sigma``.

    sigma = 0 returns the input bit-exactly for every kind; the output always
    has the input dimensions.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return img
    out = kind.apply(sigma, img)
    if (out.width, out.height) != (img.width, img.height):
        raise ValueError(
            f"denoiser {kind.name} changed image size: "
            f"{(img.width, img.height)} -> {(out.width, out.height)}"
        )
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


def residue_ratio(kind: Denoiser, sigma: float, img: ImageGrid) -> float:
    """||D_sigma(x) - x||^2 / (d * sigma^2) for one image and one sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    out = denoise(kind, sigma, img)
    res = float(np.sum((out.pixels - img.pixels) ** 2))
    return res / (img.dim * sigma * sigma)


def _residue_ratios(kind: Denoiser, sigma: float, stack: np.ndarray) -> np.ndarray:
    """:func:`residue_ratio` of each image of a (k, h, w) stack at sigma > 0,
    from one :meth:`Denoiser.apply_stack` call."""
    out = kind.apply_stack(sigma, stack)
    if out.shape != stack.shape:
        raise ValueError(
            f"denoiser {kind.name} changed stack shape: {stack.shape} -> {out.shape}"
        )
    res = np.sum(((out - stack) ** 2).reshape(len(stack), -1), axis=1)
    return res / (stack[0].size * sigma * sigma)


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
            worst = max(worst, *_residue_ratios(kind, s, stack).tolist())
    return DenoiserBoundEstimate(
        k_hat=worst,
        sample_count=n_samples,
        sigma_grid=grid,
        width=width,
        height=height,
    )


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
            ratios = _residue_ratios(kind, s, stack)
            worst = max(worst, *ratios.tolist())
            violations += int(np.count_nonzero(ratios > threshold))
    return BoundCheckReport(
        violations=violations, worst_ratio=worst, threshold=threshold
    )
