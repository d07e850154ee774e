import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import unblocked_median

from pnpadmm import denoisers
from pnpadmm.denoisers import (
    BoxAverage,
    Denoiser,
    GaussianSmoothing,
    IdentityDenoiser,
    ImageGrid,
    MedianFilter,
    denoise,
    estimate_denoiser_bound_constant,
    residue_ratio,
    verify_denoiser_bound,
)

ALL_KINDS = [GaussianSmoothing(), MedianFilter(), BoxAverage(), IdentityDenoiser()]


def noise_image(rng, w=16, h=16):
    return ImageGrid(w, h, rng.uniform(0, 1, w * h))


def direct_gaussian_oracle(img: ImageGrid, sigma: float, truncate=3.0, c_map=1.0):
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


class ShiftStub(Denoiser):
    """Adversarial denoiser with exactly known residue: adds 2*sigma*sqrt(k) per pixel."""

    name = "shift-stub"

    def __init__(self, k_true: float):
        self.k_true = k_true

    def apply(self, sigma, img):
        shift = 2.0 * sigma * math.sqrt(self.k_true)
        return ImageGrid(img.width, img.height, img.pixels + shift)


def test_image_grid_validation():
    with pytest.raises(ValueError):
        ImageGrid(2, 2, np.zeros(3))
    with pytest.raises(ValueError):
        ImageGrid(0, 2, np.zeros(0))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_sigma_zero_is_bit_exact_identity(kind):
    rng = np.random.default_rng(23)
    for _ in range(50):
        img = noise_image(rng, 9, 7)
        out = denoise(kind, 0.0, img)
        assert np.array_equal(out.pixels, img.pixels)


@pytest.mark.parametrize("kind", [GaussianSmoothing(), BoxAverage()], ids=lambda k: k.name)
def test_constant_preservation(kind):
    for c in (0.0, 0.37, 1.0):
        img = ImageGrid(12, 10, np.full(120, c))
        out = denoise(kind, 0.2, img)
        assert np.max(np.abs(out.pixels - c)) <= 1e-12


def test_gaussian_matches_direct_convolution_oracle():
    rng = np.random.default_rng(29)
    img = noise_image(rng, 16, 16)
    got = denoise(GaussianSmoothing(), 0.1, img)
    want = direct_gaussian_oracle(img, 0.1)
    assert np.max(np.abs(got.pixels - want.reshape(-1))) < 1e-10


def test_gaussian_oracle_non_square():
    rng = np.random.default_rng(31)
    img = noise_image(rng, 12, 7)
    got = denoise(GaussianSmoothing(), 0.07, img)
    want = direct_gaussian_oracle(img, 0.07)
    assert np.max(np.abs(got.pixels - want.reshape(-1))) < 1e-10


def test_gaussian_residue_monotone_in_sigma():
    rng = np.random.default_rng(37)
    sigmas = np.linspace(0.01, 0.5, 12)
    for _ in range(20):
        img = noise_image(rng)
        residues = [
            np.linalg.norm(denoise(GaussianSmoothing(), s, img).pixels - img.pixels)
            for s in sigmas
        ]
        assert all(b >= a - 1e-12 for a, b in zip(residues, residues[1:]))


def test_median_filter_known_window():
    # 3x3 median of a one-hot image removes the spike
    a = np.zeros((8, 8))
    a[4, 4] = 1.0
    img = ImageGrid.from_array(a)
    sigma = 1.0 / 8.0  # half-width round(0.125 * 8) = 1
    out = denoise(MedianFilter(), sigma, img)
    assert np.max(out.pixels) == 0.0


def test_median_against_brute_force():
    rng = np.random.default_rng(41)
    img = noise_image(rng, 10, 9)
    sigma = 0.15
    half = int(math.floor(0.15 * 10 + 0.5))
    assert half >= 1
    got = denoise(MedianFilter(), sigma, img).pixels.reshape(9, 10)
    a = img.pixels.reshape(9, 10)
    padded = np.pad(a, half, mode="symmetric")
    for i in range(9):
        for j in range(10):
            win = padded[i : i + 2 * half + 1, j : j + 2 * half + 1]
            assert got[i, j] == np.median(win)


@pytest.mark.parametrize("budget", [1, 5000, 100_000, 10**9])
@pytest.mark.parametrize("shape,sigma", [((9, 10), 0.15), ((1, 7), 0.4), ((13, 5), 1.3)])
def test_blocked_median_equals_unblocked(monkeypatch, budget, shape, sigma):
    # a 2000-byte row per window block at 9x10 and a 49000-byte one at 13x5:
    # blocks of one row, of two rows with a short last block, and the whole
    # image at once
    monkeypatch.setattr(denoisers, "MEDIAN_BLOCK_BYTES", budget)
    h, w = shape
    img = noise_image(np.random.default_rng(43), w, h)
    got = denoise(MedianFilter(), sigma, img).pixels.reshape(h, w)
    assert np.array_equal(got, unblocked_median(img, sigma))


def test_median_memory_stays_within_block_budget():
    # 96x96 at sigma 0.1 is a 21x21 window: one np.median over every window
    # copies 96*96*441 floats (32 MB) twice, blocks of 4 MB copy 8 MB
    img = noise_image(np.random.default_rng(47), 96, 96)
    denoise(MedianFilter(), 0.1, img)
    tracemalloc.start()
    try:
        denoise(MedianFilter(), 0.1, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("kind", [GaussianSmoothing(), BoxAverage()], ids=["gaussian", "box"])
@pytest.mark.parametrize("shape", [(29, 29), (29, 31)])
def test_repeated_sigma_builds_each_filter_matrix_once(monkeypatch, kind, shape):
    # every call builds one matrix per distinct side, so a square image
    # shares one build between rows and columns; a repeated sigma in a fresh
    # thread gives bit-equal output
    builds = []
    build = denoisers._fill_filter

    def counting_build(n, kernel):
        builds.append(n)
        return build(n, kernel)

    monkeypatch.setattr(denoisers, "_fill_filter", counting_build)
    h, w = shape
    img = noise_image(np.random.default_rng(53), w, h)

    def twice():
        return denoise(kind, 0.0731, img), denoise(kind, 0.0731, img)

    with ThreadPoolExecutor(1) as pool:
        first, second = pool.submit(twice).result()
    assert builds == 2 * ([w] if h == w else [w, h])
    assert np.array_equal(first.pixels, second.pixels)


@pytest.mark.parametrize("kind", [GaussianSmoothing(), BoxAverage()], ids=["gaussian", "box"])
def test_filter_output_does_not_depend_on_earlier_calls(kind):
    # the filter matrices are rebuilt on every call: interleaved and
    # repeated calls, on a square and a non-square image at two sigmas, each
    # match a call in a fresh thread
    rng = np.random.default_rng(53)
    images = {shape: noise_image(rng, shape[1], shape[0]) for shape in [(29, 29), (29, 31)]}
    calls = [(shape, sigma) for shape in images for sigma in (0.0731, 0.0412)]

    def fresh(shape, sigma):
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(denoise, kind, sigma, images[shape]).result()

    want = {call: fresh(*call) for call in calls}
    order = [calls[i] for i in (0, 2, 1, 3, 3, 0, 2, 1)]
    for shape, sigma in order:
        got = denoise(kind, sigma, images[shape])
        assert np.array_equal(got.pixels, want[shape, sigma].pixels), (shape, sigma)


def test_denoise_rejects_negative_sigma():
    img = ImageGrid(2, 2, np.zeros(4))
    with pytest.raises(ValueError):
        denoise(IdentityDenoiser(), -0.1, img)


def test_estimate_identity_gives_zero():
    est = estimate_denoiser_bound_constant(
        IdentityDenoiser(), 8, 8, [0.05, 0.1], n_samples=5, seed=0
    )
    assert est.k_hat == 0.0
    report = verify_denoiser_bound(IdentityDenoiser(), est, n_holdout=5, seed=1)
    assert report.violations == 0
    assert report.worst_ratio == 0.0


def test_estimate_is_deterministic():
    kwargs = dict(width=16, height=16, sigma_grid=(0.05, 0.1, 0.2), n_samples=20, seed=5)
    a = estimate_denoiser_bound_constant(GaussianSmoothing(), **kwargs)
    b = estimate_denoiser_bound_constant(GaussianSmoothing(), **kwargs)
    assert a.k_hat == b.k_hat
    assert math.isfinite(a.k_hat) and a.k_hat > 0


def test_estimate_matches_bruteforce_max():
    kind = GaussianSmoothing()
    grid = (0.05, 0.2)
    est = estimate_denoiser_bound_constant(kind, 8, 8, grid, n_samples=7, seed=3)
    ratios = []
    for i in range(7):
        rng = np.random.default_rng((3, i))
        img = ImageGrid(8, 8, rng.uniform(0, 1, 64))
        for s in grid:
            ratios.append(residue_ratio(kind, s, img))
    assert est.k_hat == max(ratios)


def test_holdout_detects_adversarial_stub():
    # the stub has constant ratio 4*k_true; calibrating the estimate against
    # a weaker stub makes every holdout sample a violation
    k_true = 0.25
    stub = ShiftStub(k_true)
    img = ImageGrid(8, 8, np.zeros(64))
    assert residue_ratio(stub, 0.3, img) == pytest.approx(4.0 * k_true)
    weak = estimate_denoiser_bound_constant(
        ShiftStub(k_true / 8), 8, 8, [0.1], n_samples=3, seed=0
    )
    report = verify_denoiser_bound(stub, weak, n_holdout=10, seed=1)
    assert report.violations == 10
    assert report.worst_ratio == pytest.approx(4.0 * k_true)


def test_holdout_margin_protects_honest_estimate():
    kind = GaussianSmoothing()
    est = estimate_denoiser_bound_constant(
        kind, 16, 16, (0.05, 0.1, 0.2), n_samples=30, seed=7
    )
    report = verify_denoiser_bound(kind, est, n_holdout=100, seed=8, margin=0.5)
    assert report.violations == 0
