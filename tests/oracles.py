"""Independent reference implementations used only to cross-check results."""

import math

import numpy as np


def dense_matrix(op):
    """Assemble an operator column by column into an explicit matrix."""
    cols = []
    for i in range(op.in_dim):
        e = np.zeros(op.in_dim)
        e[i] = 1.0
        cols.append(op.apply(e))
    return np.array(cols).T


def roll_circ_conv(x2, stencil):
    """Circular 2-D convolution as a sum of whole-image rolls."""
    r0, c0 = stencil.shape[0] // 2, stencil.shape[1] // 2
    out = np.zeros_like(x2)
    for a in range(stencil.shape[0]):
        for b in range(stencil.shape[1]):
            w = stencil[a, b]
            if w != 0.0:
                out += w * np.roll(x2, (a - r0, b - c0), axis=(0, 1))
    return out


def roll_circ_corr(y2, stencil):
    """Circular 2-D correlation (adjoint of :func:`roll_circ_conv`) by rolls."""
    r0, c0 = stencil.shape[0] // 2, stencil.shape[1] // 2
    out = np.zeros_like(y2)
    for a in range(stencil.shape[0]):
        for b in range(stencil.shape[1]):
            w = stencil[a, b]
            if w != 0.0:
                out += w * np.roll(y2, (r0 - a, c0 - b), axis=(0, 1))
    return out


def direct_gaussian(img, sigma, truncate=3.0, c_map=1.0):
    """Brute-force 2-D convolution with an outer-product Gaussian kernel."""
    std = c_map * sigma * max(img.width, img.height)
    radius = max(1, int(math.ceil(truncate * std)))
    offs = np.arange(-radius, radius + 1, dtype=float)
    k1 = np.exp(-0.5 * (offs / std) ** 2)
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    a = img.pixels.reshape(img.height, img.width)
    padded = np.pad(a, radius, mode="symmetric")
    out = np.zeros_like(a)
    for i in range(img.height):
        for j in range(img.width):
            patch = padded[i : i + 2 * radius + 1, j : j + 2 * radius + 1]
            out[i, j] = np.sum(patch * k2)
    return out


def convolve_axis(arr, kernel, axis):
    """Symmetric padding along one axis, then correlation with kernel by a
    sliding-window matrix-vector product."""
    radius = kernel.size // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(arr, pad, mode="symmetric")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, kernel.size, axis=axis
    )
    return windows @ kernel


def two_pass_filter(img, kernel):
    """Separable filter as two :func:`convolve_axis` passes, rows first."""
    a = img.pixels.reshape(img.height, img.width)
    return convolve_axis(convolve_axis(a, kernel, axis=1), kernel, axis=0)


def unblocked_median(img, sigma, c_map=1.0):
    """Square-window median over all windows of the image in one call."""
    half = int(math.floor(c_map * sigma * max(img.width, img.height) + 0.5))
    a = img.pixels.reshape(img.height, img.width)
    if half == 0:
        return a.copy()
    padded = np.pad(a, half, mode="symmetric")
    win = 2 * half + 1
    windows = np.lib.stride_tricks.sliding_window_view(padded, (win, win))
    return np.median(windows, axis=(2, 3))


def straight_line_step(op, b, rho, sigma, x, v, u, c_map=1.0, truncate=3.0):
    """One plug-and-play iteration written out directly.

    Dense solve for the data update, brute-force Gaussian convolution for
    the denoising update, then the running-sum correction.
    """
    from pnpadmm.denoisers import ImageGrid

    H = dense_matrix(op)
    A = H.T @ H + rho * np.eye(op.in_dim)
    x_new = np.linalg.solve(A, H.T @ b + rho * (v - u))
    h, w = op.in_shape
    img = ImageGrid(width=w, height=h, pixels=x_new + u)
    v_new = direct_gaussian(img, sigma, truncate=truncate, c_map=c_map).reshape(-1)
    u_new = u + x_new - v_new
    return x_new, v_new, u_new


def loop_pgs_generate(spec, length):
    """PGS terms written chunk by chunk, extending the starts with unit chunks."""
    y = np.empty(length)
    n1 = spec.chunk_starts[0]
    used = min(n1, length)
    y[:used] = spec.head_terms[:used]
    if length <= n1:
        return y
    starts = list(spec.chunk_starts)
    while starts[-1] < length:
        starts.append(starts[-1] + 1)
    for j, (lo, hi) in enumerate(zip(starts, starts[1:])):
        # chunk j+1 covers indices lo+1 .. hi (1-based)
        if lo + 1 > length:
            break
        hi = min(hi, length)
        ks = np.arange(lo + 1, hi + 1)
        y[lo:hi] = spec.peak0 * spec.beta ** (j + ks - lo - 1)
    return y


def linear_cauchy_k(peak0, beta, epsilon, max_k):
    """Smallest K with beta^(K-1) < epsilon (1-beta)^2 / peak0, by linear
    search; None when it exceeds max_k."""
    threshold = epsilon * (1.0 - beta) ** 2 / peak0
    k = 1
    while beta ** (k - 1) >= threshold:
        k += 1
        if k > max_k:
            return None
    return k
