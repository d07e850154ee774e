import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import direct_gaussian, unblocked_median

from pnpadmm import denoisers
from pnpadmm.denoisers import (
    BoxAverage,
    Denoiser,
    GaussianSmoothing,
    IdentityDenoiser,
    MedianFilter,
    certified_denoiser_bound,
    denoise,
    estimate_denoiser_bound_constant,
    residue_ratio,
    verify_denoiser_bound,
)

ALL_KINDS = [GaussianSmoothing(), MedianFilter(), BoxAverage(), IdentityDenoiser()]


def noise_image(rng, w=16, h=16):
    return rng.uniform(0, 1, (h, w))


class ShiftStub(Denoiser):
    """Adversarial denoiser with exactly known residue: adds 2*sigma*sqrt(k) per pixel."""

    name = "shift-stub"

    def __init__(self, k_true: float):
        self.k_true = k_true

    def apply(self, sigma, a):
        return a + 2.0 * sigma * math.sqrt(self.k_true)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_sigma_zero_is_bit_exact_identity(kind):
    rng = np.random.default_rng(23)
    for _ in range(50):
        img = noise_image(rng, 9, 7)
        out = denoise(kind, 0.0, img)
        assert np.array_equal(out, img)


@pytest.mark.parametrize("kind", [GaussianSmoothing(), BoxAverage()], ids=lambda k: k.name)
def test_constant_preservation(kind):
    for c in (0.0, 0.37, 1.0):
        out = denoise(kind, 0.2, np.full((10, 12), c))
        assert np.max(np.abs(out - c)) <= 1e-12


def test_gaussian_matches_direct_convolution_oracle():
    rng = np.random.default_rng(29)
    img = noise_image(rng, 16, 16)
    got = denoise(GaussianSmoothing(), 0.1, img)
    want = direct_gaussian(img, 0.1)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gaussian_oracle_non_square():
    rng = np.random.default_rng(31)
    img = noise_image(rng, 12, 7)
    got = denoise(GaussianSmoothing(), 0.07, img)
    want = direct_gaussian(img, 0.07)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gaussian_residue_monotone_in_sigma():
    rng = np.random.default_rng(37)
    sigmas = np.linspace(0.01, 0.5, 12)
    for _ in range(20):
        img = noise_image(rng)
        residues = [
            np.linalg.norm(denoise(GaussianSmoothing(), s, img) - img)
            for s in sigmas
        ]
        assert all(b >= a - 1e-12 for a, b in zip(residues, residues[1:]))


def test_median_filter_known_window():
    # 3x3 median of a one-hot image removes the spike
    a = np.zeros((8, 8))
    a[4, 4] = 1.0
    sigma = 1.0 / 8.0  # half-width round(0.125 * 8) = 1
    out = denoise(MedianFilter(), sigma, a)
    assert np.max(out) == 0.0


def test_median_against_brute_force():
    rng = np.random.default_rng(41)
    img = noise_image(rng, 10, 9)
    sigma = 0.15
    half = int(math.floor(0.15 * 10 + 0.5))
    assert half >= 1
    got = denoise(MedianFilter(), sigma, img)
    padded = np.pad(img, half, mode="symmetric")
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
    got = denoise(MedianFilter(), sigma, img)
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
    assert np.array_equal(first, second)


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
        assert np.array_equal(got, want[shape, sigma]), (shape, sigma)


def test_denoise_rejects_negative_sigma():
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        denoise(IdentityDenoiser(), -0.1, np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(4,), (1, 2, 2, 2), (0, 3), (3, 0), (0, 2, 2), (2, 2, 0)])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_denoise_refuses_what_is_not_an_image_or_a_stack(kind, shape):
    for sigma in (0.0, 0.1):
        with pytest.raises(ValueError, match="got shape"):
            denoise(kind, sigma, np.zeros(shape))


class Recorder(IdentityDenoiser):
    """Keeps the array it is handed."""

    def apply(self, sigma, a):
        self.seen = a
        return a


def test_denoise_hands_over_a_read_only_float64_view():
    a = np.arange(12.0).reshape(3, 4)
    kind = Recorder()
    out = denoise(kind, 0.1, a)
    assert out is kind.seen and np.shares_memory(out, a)
    assert not out.flags.writeable and a.flags.writeable
    levels = np.arange(6).reshape(2, 3)
    got = denoise(kind, 0.1, levels)
    assert got.dtype == np.float64 and np.array_equal(got, levels)
    assert not denoise(kind, 0.0, a).flags.writeable


def test_denoise_refuses_a_denoiser_that_changes_the_shape():
    class Cropping(IdentityDenoiser):
        def apply(self, sigma, a):
            return a[..., :-1]

    with pytest.raises(ValueError, match="changed image shape"):
        denoise(Cropping(), 0.1, np.zeros((3, 4)))


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
        img = rng.uniform(0, 1, (8, 8))
        for s in grid:
            ratios.append(residue_ratio(kind, s, img))
    assert est.k_hat == max(ratios)


def test_holdout_detects_adversarial_stub():
    # the stub has constant ratio 4*k_true; calibrating the estimate against
    # a weaker stub makes every holdout sample a violation
    k_true = 0.25
    stub = ShiftStub(k_true)
    img = np.zeros((8, 8))
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


@pytest.mark.parametrize("h,w", [(16, 16), (7, 12), (12, 7), (1, 9), (40, 70)])
@pytest.mark.parametrize("reach", [0.1, 0.5, 1.5])
def test_stacked_filter_is_bit_equal_to_one_call_per_image(h, w, reach):
    # reach 1.5 puts the radius past the longer side, where the symmetric
    # extension reflects more than once
    stack = np.random.default_rng(31).uniform(0, 1, (5, h, w))
    radius = max(1, round(reach * max(h, w)))
    offsets = np.arange(-radius, radius + 1)
    gauss = np.exp(-0.5 * (3.0 * offsets / radius) ** 2)
    for kernel in (gauss / gauss.sum(), np.full(2 * radius + 1, 1.0 / (2 * radius + 1))):
        got = denoisers._separable_filter(stack, kernel)
        for a, image in zip(got, stack):
            assert np.array_equal(a, denoisers._separable_filter(image, kernel))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("h,w", [(9, 9), (7, 12), (1, 9)])
@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.5])
def test_denoise_on_a_stack_is_bit_equal_to_one_call_per_image(kind, h, w, sigma):
    # sigma 0.05 leaves the median and box windows at half-width 0 on the
    # smaller images; 1.5 puts every window past the longer side
    stack = np.random.default_rng(37).uniform(0, 1, (4, h, w))
    got = denoise(kind, sigma, stack)
    assert got.shape == stack.shape
    for a, image in zip(got, stack):
        assert np.array_equal(a, denoise(kind, sigma, image))
    ratios = residue_ratio(kind, sigma, stack)
    assert ratios.tolist() == [residue_ratio(kind, sigma, image) for image in stack]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_bound_checks_equal_a_per_sample_residue_ratio_loop(kind):
    grid = (0.05, 0.1, 0.2)
    est = estimate_denoiser_bound_constant(kind, 12, 9, grid, n_samples=6, seed=3)
    ratios = [
        residue_ratio(kind, s, np.random.default_rng((3, i)).uniform(0, 1, (9, 12)))
        for i in range(6)
        for s in grid
    ]
    assert est.k_hat == max(ratios)
    # margin 0 puts the threshold at k_hat itself, which one of the 15
    # held-out ratios exceeds for each filter
    holdout = [
        residue_ratio(kind, s, np.random.default_rng((4, i)).uniform(0, 1, (9, 12)))
        for i in range(5)
        for s in grid
    ]
    report = verify_denoiser_bound(kind, est, n_holdout=5, seed=4, margin=0.0)
    assert report.worst_ratio == max(holdout)
    assert report.violations == sum(r > est.k_hat for r in holdout)


def test_bound_checks_stay_within_the_stack_budget(monkeypatch):
    # more samples than one stack holds: each stack is filtered once per
    # sigma, and the estimate does not depend on where the stacks split
    kind = GaussianSmoothing()
    whole = estimate_denoiser_bound_constant(kind, 8, 8, (0.1, 0.2), n_samples=7, seed=2)
    monkeypatch.setattr(denoisers, "STACK_BYTES", 3 * 8 * 64)
    calls = []
    filtered = denoisers._separable_filter
    monkeypatch.setattr(
        denoisers, "_separable_filter", lambda a, k: calls.append(a.shape) or filtered(a, k)
    )
    split = estimate_denoiser_bound_constant(kind, 8, 8, (0.1, 0.2), n_samples=7, seed=2)
    assert split.k_hat == whole.k_hat
    assert calls == [(3, 8, 8)] * 4 + [(1, 8, 8)] * 2


@pytest.mark.parametrize("kind", [GaussianSmoothing(), BoxAverage()], ids=lambda k: k.name)
def test_denoiser_bound_estimate_filters_once_per_sigma(kind, monkeypatch):
    # the 20 samples of each sigma go through one filter call, as the run's
    # summary draws them
    calls = []
    filtered = denoisers._separable_filter
    monkeypatch.setattr(
        denoisers, "_separable_filter", lambda a, k: calls.append(a.shape) or filtered(a, k)
    )
    grid = (0.05, 0.1, 0.2)
    estimate_denoiser_bound_constant(kind, 16, 16, grid, n_samples=20, seed=7)
    assert calls == [(20, 16, 16)] * len(grid)


LINEAR_KINDS = [GaussianSmoothing(), BoxAverage(), IdentityDenoiser()]
BOUND_GRID = (0.05, 0.1, 0.2)


@pytest.mark.parametrize("kind", LINEAR_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("n", [5, 16, 29, 64])
def test_spectrum_equals_the_dense_eigenvalues(kind, n):
    # radii below, at and above the side: past it the symmetric extension
    # reflects more than once and the folded kernel wraps
    for radius in (1, n // 2, n - 1, n, n + 1, 3 * n):
        sigma = radius / n
        if isinstance(kind, GaussianSmoothing):
            sigma /= 3.0
        g = (
            np.eye(n) if isinstance(kind, IdentityDenoiser)
            else denoisers._fill_filter(n, kind.kernel(sigma, n))
        )
        assert np.max(np.abs(g - g.T)) <= 1e-15
        got = np.sort(kind.spectrum(sigma, n))
        assert np.max(np.abs(got - np.linalg.eigvalsh(g))) < 1e-13


def test_median_has_no_spectrum_and_no_certificate():
    assert MedianFilter().spectrum(0.1, 16) is None
    assert certified_denoiser_bound(MedianFilter(), 16, BOUND_GRID) is None


@pytest.mark.parametrize("kind", LINEAR_KINDS, ids=lambda k: k.name)
def test_certified_k_dominates_every_sampled_ratio(kind):
    k, lowest = certified_denoiser_bound(kind, 16, BOUND_GRID)
    est = estimate_denoiser_bound_constant(kind, 16, 16, BOUND_GRID, n_samples=200, seed=7)
    assert est.k_hat <= k
    assert lowest <= 1.0
    if isinstance(kind, IdentityDenoiser):
        assert (k, lowest) == (0.0, 1.0)


def test_sign_pattern_image_comes_close_to_the_certified_k():
    # a {0,1} image that takes the sign of the worst DCT-II mode stays in
    # [0,1]^d and reaches within 10 % of the certificate, so the certified
    # K is near the true one, where noise samples fall 4x short of it
    kind, n = GaussianSmoothing(), 16
    k, _ = certified_denoiser_bound(kind, n, BOUND_GRID)
    worst = 0.0
    cosines = np.cos(np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n)
    for sigma in BOUND_GRID:
        lam = kind.spectrum(sigma, n)
        i, j = np.unravel_index(np.argmax((1.0 - np.outer(lam, lam)) ** 2), (n, n))
        image = (np.outer(cosines[i], cosines[j]) >= 0).astype(np.float64)
        worst = max(worst, residue_ratio(kind, sigma, image))
    assert 0.9 * k <= worst <= k
