"""Independent reference implementations used only to cross-check results."""

import math

import numpy as np


def dense_matrix(op):
    """Assemble an operator column by column into an explicit matrix, which
    acts on images flattened in row-major order."""
    cols = []
    for i in range(math.prod(op.in_shape)):
        e = np.zeros(op.in_shape)
        e.flat[i] = 1.0
        cols.append(op.apply(e).ravel())
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


def autocorrelation_low_eig(stencil, shape, factor):
    """Eigenvalues of S B B^T S^T on the low-resolution grid, B the circular
    convolution with ``stencil`` on ``shape`` and S subsampling at stride
    ``factor``: the stencil's autocorrelation, taken from its full-size
    spectrum, at stride ``factor``."""
    impulse = np.zeros(shape)
    impulse[0, 0] = 1.0
    spectrum = np.fft.rfft2(roll_circ_conv(impulse, stencil))
    autocorr = np.fft.irfft2(np.abs(spectrum) ** 2, s=shape)
    return np.fft.rfft2(autocorr[::factor, ::factor]).real


def direct_gaussian(a, sigma, truncate=3.0, c_map=1.0):
    """Brute-force 2-D convolution of an (h, w) image with an outer-product
    Gaussian kernel."""
    h, w = a.shape
    std = c_map * sigma * max(h, w)
    radius = max(1, int(math.ceil(truncate * std)))
    offs = np.arange(-radius, radius + 1, dtype=float)
    k1 = np.exp(-0.5 * (offs / std) ** 2)
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(a, radius, mode="symmetric")
    out = np.zeros_like(a)
    for i in range(h):
        for j in range(w):
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


def two_pass_filter(a, kernel):
    """Separable filter of an (h, w) image as two :func:`convolve_axis`
    passes, rows first."""
    return convolve_axis(convolve_axis(a, kernel, axis=1), kernel, axis=0)


def bincount_filter_matrix(n, kernel):
    """n x n matrix of symmetric padding followed by correlation with kernel,
    summed tap by tap: row i puts kernel[j] on the pixel that tap
    i + j - radius reflects onto in the 2n-periodic symmetric extension."""
    radius = kernel.size // 2
    rows = np.arange(n)[:, None]
    src = (rows + np.arange(-radius, radius + 1)) % (2 * n)
    src = np.where(src < n, src, 2 * n - 1 - src)
    flat = (rows * n + src).ravel()
    weights = np.broadcast_to(kernel, src.shape).ravel()
    return np.bincount(flat, weights, minlength=n * n).reshape(n, n)


def unblocked_median(a, sigma, c_map=1.0):
    """Square-window median over all windows of an (h, w) image in one call."""
    half = int(math.floor(c_map * sigma * max(a.shape) + 0.5))
    if half == 0:
        return a.copy()
    padded = np.pad(a, half, mode="symmetric")
    win = 2 * half + 1
    windows = np.lib.stride_tricks.sliding_window_view(padded, (win, win))
    return np.median(windows, axis=(2, 3))


def straight_line_step(op, b, rho, sigma, x, v, u, c_map=1.0, truncate=3.0):
    """One plug-and-play iteration on (h, w) images written out directly.

    Dense solve for the data update, brute-force Gaussian convolution for
    the denoising update, then the running-sum correction.
    """
    H = dense_matrix(op)
    A = H.T @ H + rho * np.eye(H.shape[1])
    x_new = np.linalg.solve(A, H.T @ b.ravel() + rho * (v - u).ravel()).reshape(op.in_shape)
    noisy = x_new + u
    v_new = direct_gaussian(noisy, sigma, truncate=truncate, c_map=c_map)
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


def chunk_loop_dot(a, b, chunk):
    """a . b summed ``chunk`` entries at a time, one ``@`` per chunk, left to
    right from 0.0."""
    total = 0.0
    for i in range(0, a.size, chunk):
        total += float(a[i : i + chunk] @ b[i : i + chunk])
    return total


def loop_validate(trace, flags=None):
    """ConditionTrace.validate as one loop over the iterations: the same
    checks, messages and order, each recorded flag (when given) and each
    penalty tested one iteration at a time with :func:`math.isclose`."""
    from pnpadmm.sequences import TraceInvariantError

    n = len(trace)
    for name in ("rhos", "sigmas", "fidelity_values"):
        if getattr(trace, name).size != n:
            raise TraceInvariantError(f"deltas and {name} must have equal length")
    if flags is not None and len(flags) != n - 1:
        raise TraceInvariantError(
            f"expected {n - 1} condition flags for {n} iterations, got {len(flags)}"
        )
    if np.any(trace.deltas < 0) or not np.all(np.isfinite(trace.deltas)):
        raise TraceInvariantError("residuals must be finite and nonnegative")
    if not all(0 < rho < math.inf for rho in trace.rhos):
        raise TraceInvariantError("penalties must be positive and finite")
    if not (0 < trace.eta < 1) or not (1 < trace.gamma < math.inf):
        raise TraceInvariantError("need gamma > 1 and eta in (0, 1)")
    for i in range(n - 1):
        # row i + 2 of trace.csv holds this flag and the penalty it set
        c1 = trace.deltas[i + 1] >= trace.eta * trace.deltas[i]
        if flags is not None and flags[i] != c1:
            raise TraceInvariantError(
                f"flag at iteration {i + 2} is {'C1' if flags[i] else 'C2'}, "
                "inconsistent with residuals and eta"
            )
        factor = trace.gamma if c1 else 1.0
        if not math.isclose(trace.rhos[i + 1], factor * trace.rhos[i], rel_tol=1e-12):
            raise TraceInvariantError(
                f"penalty at iteration {i + 2} inconsistent with flag at iteration {i + 2}"
            )
