import math
import re
import time
import warnings

import numpy as np
import pytest

from pnpadmm import fidelity
from pnpadmm.fidelity import (
    CircularBlur,
    Downsample,
    FidelityTerm,
    Identity,
    Mask,
    binomial_stencil,
    box_gradient_bound,
    estimate_gradient_bound,
    prox_x_update,
)
from pnpadmm.linalg import DimensionMismatchError, NonFiniteIterateError
from pnpadmm.presets import PRESET_NAMES, degrade, make_preset


from oracles import dense_matrix, roll_circ_conv, roll_circ_corr


def averaging_stencil(n=3):
    return np.full((n, n), 1.0 / (n * n))


def make_operators(rng, shape=(4, 8)):
    h, w = shape
    keep = rng.uniform(size=(h, w)) > 0.4
    return {
        "identity": Identity(shape),
        "blur": CircularBlur(shape, binomial_stencil(3)),
        "mask": Mask(keep),
        "downsample": Downsample(shape, 2),
    }


def test_identity_returns_input():
    op = Identity((1, 5))
    x = np.arange(5.0).reshape(1, 5)
    assert np.array_equal(op.apply(x), x)


def test_mask_keeping_nothing_gives_zero():
    op = Mask(np.zeros((3, 3), dtype=bool))
    out = op.apply(np.ones((3, 3)))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_circular_blur_places_stencil_at_hot_pixel():
    stencil = averaging_stencil(3)
    op = CircularBlur((8, 8), stencil)
    x = np.zeros((8, 8))
    x[0, 0] = 1.0
    out = op.apply(x)
    expected = np.zeros((8, 8))
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            expected[a % 8, b % 8] = 1.0 / 9.0
    assert np.max(np.abs(out - expected)) <= 1e-15


@pytest.mark.parametrize(
    "shape, stencil_shape",
    [((128, 128), (3, 3)), ((128, 128), (5, 5)), ((64, 96), (3, 5)),
     ((4, 4), (7, 7)), ((3, 5), (5, 9)), ((1, 6), (1, 9))],
)
def test_circular_filter_matches_roll_loops(shape, stencil_shape):
    # H and H^T are products in the Fourier basis, so they round differently
    # from the tap-by-tap sums of the oracle: to a few eps of max |x|
    rng = np.random.default_rng(83)
    stencil = rng.uniform(size=stencil_shape)
    stencil[0, 0] = 0.0  # a zero weight is skipped by the oracle
    stencil /= stencil.sum()
    op = CircularBlur(shape, stencil)
    x = rng.standard_normal(shape)
    tol = 1e-13 * np.max(np.abs(x))
    got = op.apply(x)
    assert np.max(np.abs(got - roll_circ_conv(x, op.stencil))) <= tol
    got = op.apply_adjoint(x)
    assert np.max(np.abs(got - roll_circ_corr(x, op.stencil))) <= tol


def test_stencil_validation():
    with pytest.raises(ValueError):
        CircularBlur((4, 4), np.array([[0.5, 0.6], [0.0, 0.0]]))  # even side
    bad = averaging_stencil(3).copy()
    bad[0, 0] = -bad[0, 0]
    bad[1, 1] += 2.0 / 9.0
    with pytest.raises(ValueError):
        CircularBlur((4, 4), bad)


def test_downsample_shapes_and_prefilter_default():
    op = Downsample((8, 8), 2)
    assert op.out_shape == (4, 4)
    assert op.prefilter.shape == (3, 3)
    assert op.prefilter.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Downsample((9, 8), 2)


def test_adjoint_consistency_random_probes():
    rng = np.random.default_rng(43)
    for name, op in make_operators(rng).items():
        for _ in range(100):
            x = rng.standard_normal(op.in_shape)
            y = rng.standard_normal(op.out_shape)
            lhs = float(np.vdot(op.apply(x), y))
            rhs = float(np.vdot(x, op.apply_adjoint(y)))
            bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= bound, name


def test_dimension_mismatch_errors():
    op = Downsample((4, 4), 2)
    with pytest.raises(DimensionMismatchError):
        op.apply(np.ones(5))
    with pytest.raises(DimensionMismatchError):
        FidelityTerm(op=op, observation=np.ones(16))
    # a flat observation and one with an empty side are refused by shape,
    # before their entries are scanned
    for shape in [(4,), (0, 2)]:
        with pytest.raises(DimensionMismatchError, match=re.escape(
                f"observation has shape {shape}, operator expects (2, 2)")):
            FidelityTerm(op=op, observation=np.full(shape, np.nan))


def test_mask_refuses_a_flat_keep():
    with pytest.raises(ValueError, match=r"an \(h, w\) boolean image, got shape \(4,\)"):
        Mask(np.ones(4, dtype=bool))


def test_gradient_zero_at_data_fit():
    rng = np.random.default_rng(47)
    op = CircularBlur((4, 4), averaging_stencil(3))
    x = rng.uniform(size=(4, 4))
    f = FidelityTerm(op=op, observation=op.apply(x))
    assert np.max(np.abs(f.gradient(x))) < 1e-14


def test_gradient_identity_b_zero():
    op = Identity((2, 3))
    f = FidelityTerm(op=op, observation=np.zeros((2, 3)))
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(f.gradient(x), x)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    op = Downsample((2, 6), 2)
    f = FidelityTerm(op=op, observation=rng.standard_normal(op.out_shape))
    x = rng.standard_normal((2, 6))
    grad = f.gradient(x)
    h = 1e-6
    fd = np.zeros((2, 6))
    for i in range(12):
        e = np.zeros((2, 6))
        e.flat[i] = h
        fd.flat[i] = (f.value(x + e) - f.value(x - e)) / (2 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * (1 + np.max(np.abs(grad)))


def test_prox_identity_scalar_closed_form():
    f = FidelityTerm(op=Identity((1, 1)), observation=np.array([[1.0]]))
    x, _ = prox_x_update(f, rho=1.0, target=np.array([[3.0]]))
    assert x[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_prox_large_rho_returns_target():
    rng = np.random.default_rng(59)
    op = CircularBlur((4, 4), averaging_stencil(3))
    f = FidelityTerm(op=op, observation=rng.standard_normal((4, 4)))
    target = rng.standard_normal((4, 4))
    x, _ = prox_x_update(f, rho=1e12, target=target)
    assert np.linalg.norm(x - target) <= 1e-6 * np.linalg.norm(target)


def test_binomial_stencil_refuses_an_order_past_the_float_range():
    # the weights' sum 2^(2 order - 2) is a float up to order 512; at 513-515
    # it overflows and the stencil came back all zeros, from 516 on the
    # integer weights no longer convert
    top = binomial_stencil(fidelity.MAX_BINOMIAL_ORDER)
    assert top.shape == (1023, 1023)
    assert abs(top.sum() - 1.0) <= 1e-12
    for order in (513, 516):
        with pytest.raises(ValueError, match=f"binomial order {order} exceeds 512"):
            binomial_stencil(order)


ORACLE_EXTRA = {
    "downsample3-6x9": lambda: Downsample((6, 9), 3),
    "blur-stencil-larger-than-image": lambda: CircularBlur((3, 4), binomial_stencil(4)),
    "blur-1xd": lambda: CircularBlur((1, 7), np.array([[0.25, 0.5, 0.25]])),
}


@pytest.mark.parametrize(
    "name", ["identity", "blur", "mask", "downsample", *ORACLE_EXTRA]
)
def test_prox_matches_dense_solve_oracle(name):
    rng = np.random.default_rng(61)
    if name in ORACLE_EXTRA:
        op = ORACLE_EXTRA[name]()
    else:
        op = make_operators(rng, shape=(4, 4))[name]
    H = dense_matrix(op)
    for _ in range(10):
        rho = float(rng.uniform(0.05, 5.0))
        b = rng.standard_normal(op.out_shape)
        target = rng.standard_normal(op.in_shape)
        f = FidelityTerm(op=op, observation=b)
        got, _ = prox_x_update(f, rho, target)
        A = H.T @ H + rho * np.eye(H.shape[1])
        want = np.linalg.solve(A, H.T @ b.ravel() + rho * target.ravel())
        assert np.linalg.norm(got.ravel() - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def test_prox_downsample_16x16_dense_oracle():
    rng = np.random.default_rng(63)
    op = Downsample((16, 16), 2)
    H = dense_matrix(op)
    b = rng.standard_normal(op.out_shape)
    target = rng.standard_normal(op.in_shape)
    f = FidelityTerm(op=op, observation=b)
    rho = 1.1
    got, _ = prox_x_update(f, rho, target)
    want = np.linalg.solve(H.T @ H + rho * np.eye(256), H.T @ b.ravel() + rho * target.ravel())
    assert np.linalg.norm(got.ravel() - want) <= 1e-8 * np.linalg.norm(want)


def test_downsample_solve_runs_no_full_size_transform(monkeypatch):
    # the push-through solve works on the low-resolution grid only, through
    # the in-place transform pair; a full-size FFT would cost f^2 times as
    # much for the same answer
    op = Downsample((16, 24), 2)
    rng = np.random.default_rng(5)
    f = FidelityTerm(op=op, observation=rng.standard_normal(op.out_shape))
    grids = []
    forward, inverse = fidelity._forward, fidelity._inverse

    def recording_forward(a):
        grids.append(a.shape)
        return forward(a)

    def recording_inverse(s, width):
        out = inverse(s, width)
        grids.append(out.shape)
        return out

    def refused(*args, **kwargs):
        raise AssertionError("the prox called a 2-D transform of np.fft")

    monkeypatch.setattr(fidelity, "_forward", recording_forward)
    monkeypatch.setattr(fidelity, "_inverse", recording_inverse)
    monkeypatch.setattr(np.fft, "rfft2", refused)
    monkeypatch.setattr(np.fft, "irfft2", refused)
    prox_x_update(f, 0.5, rng.standard_normal(op.in_shape))
    assert len(grids) == 2
    assert all(shape == op.out_shape for shape in grids)


def _count_transforms(monkeypatch):
    """Patch every np.fft transform to count its calls by name."""
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls


@pytest.mark.parametrize("shape", [(16, 24), (9, 7), (1, 10)])
def test_blur_prox_runs_one_forward_and_one_inverse_transform(monkeypatch, shape):
    # f(x) is read off the solve's own spectrum by Parseval, so a prox is one
    # 2-D transform pair
    op = CircularBlur(shape, binomial_stencil(2))
    rng = np.random.default_rng(5)
    f = FidelityTerm(op=op, observation=rng.standard_normal(op.out_shape))
    prox_x_update(f, 0.5, rng.standard_normal(op.in_shape))
    calls = _count_transforms(monkeypatch)
    x, fx = prox_x_update(f, 0.5, rng.standard_normal(op.in_shape))
    assert calls == {"rfft": 1, "fft": 1, "ifft": 1, "irfft": 1}
    scale = (np.linalg.norm(x) + np.linalg.norm(f.observation)) ** 2
    assert abs(fx - f.value(x)) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["identity", "blur", "mask", "downsample"])
def test_consecutive_prox_solutions_share_no_memory(name):
    # each solve returns a fresh x: a later solve leaves an earlier one as it was
    rng = np.random.default_rng(97)
    op = make_operators(rng)[name]
    f = FidelityTerm(op=op, observation=rng.standard_normal(op.out_shape))
    first, _ = prox_x_update(f, 0.5, rng.standard_normal(op.in_shape))
    kept = first.copy()
    second, _ = prox_x_update(f, 0.5, rng.standard_normal(op.in_shape))
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)


def test_prox_normal_equation_residual():
    rng = np.random.default_rng(67)
    op = Downsample((4, 8), 2)
    b = rng.standard_normal(op.out_shape)
    target = rng.standard_normal(op.in_shape)
    f = FidelityTerm(op=op, observation=b)
    rho = 0.7
    x, _ = prox_x_update(f, rho, target)
    rhs = op.apply_adjoint(b) + rho * target
    resid = rhs - (op.apply_adjoint(op.apply(x)) + rho * x)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rhs)


def test_prox_gradient_optimality():
    rng = np.random.default_rng(71)
    op = CircularBlur((4, 4), binomial_stencil(2))
    f = FidelityTerm(op=op, observation=rng.standard_normal((4, 4)))
    rho = 1.3
    target = rng.standard_normal((4, 4))
    x, _ = prox_x_update(f, rho, target)
    grad = f.gradient(x) + rho * (x - target)
    assert np.linalg.norm(grad) <= 1e-7 * (1 + np.linalg.norm(target))


def test_prox_nonexpansive_in_target():
    rng = np.random.default_rng(73)
    op = Downsample((4, 4), 2)
    f = FidelityTerm(op=op, observation=rng.standard_normal(op.out_shape))
    for _ in range(20):
        t1 = rng.standard_normal((4, 4))
        t2 = rng.standard_normal((4, 4))
        s1, _ = prox_x_update(f, 0.9, t1)
        s2, _ = prox_x_update(f, 0.9, t2)
        assert np.linalg.norm(s1 - s2) <= np.linalg.norm(t1 - t2) + 1e-9


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_prox_non_finite_residual_raises_promptly(value):
    # one entry of the target is infinite or NaN; every operator's x-update
    # must raise at once rather than return a non-finite iterate
    for name, op in make_operators(np.random.default_rng(7), (64, 64)).items():
        f = FidelityTerm(op=op, observation=np.zeros(op.out_shape))
        target = np.ones(op.in_shape)
        target.flat[target.size // 2] = value
        start = time.monotonic()
        # the solve runs on the non-finite entry before the check reads its
        # f(x); none of the invalid operations on the way may warn
        with warnings.catch_warnings(), pytest.raises(NonFiniteIterateError):
            warnings.simplefilter("error")
            prox_x_update(f, rho=1.0, target=target)
        assert time.monotonic() - start < 1.0, name


def test_prox_accepts_a_huge_finite_target():
    # the squared norm of 1e160 everywhere overflows, yet every entry is
    # finite: the x-update solves it without a warning of its own, and only
    # the data term of its solution may overflow
    op = Identity((4, 4))
    t = np.full(op.in_shape, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, fx = prox_x_update(FidelityTerm(op=op, observation=t), 1.0, t)
    assert np.array_equal(x, t) and fx == 0.0
    with np.errstate(over="ignore"):
        x, fx = prox_x_update(FidelityTerm(op=op, observation=np.zeros(op.in_shape)), 1.0, t)
    assert np.all(x == 5e159) and fx == math.inf


def test_downsample_prox_is_accurate_at_small_rho():
    # the push-through solve never divides by rho, so its optimality
    # residual stays at rounding level as rho -> 0; the Woodbury form
    # (r - H^T z) / rho left 3e-11 to 5e-11 here
    op = Downsample((16, 16), 2)
    rho = 1e-6
    for seed in range(20):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(op.out_shape)
        t = rng.standard_normal(op.in_shape)
        f = FidelityTerm(op=op, observation=b)
        x, _ = prox_x_update(f, rho, t)
        grad = op.apply_adjoint(op.apply(x) - b) + rho * (x - t)
        scale = np.linalg.norm(f.adjoint_observation) + rho * np.linalg.norm(t)
        assert np.linalg.norm(grad) <= 1e-13 * scale, seed


def test_gradient_bound_stationary_samples():
    op = Identity((2, 2))
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = FidelityTerm(op=op, observation=b)
    assert estimate_gradient_bound(f, b) == 0.0


def test_gradient_bound_scaled_basis_example():
    d = 9
    op = Identity((3, 3))
    f = FidelityTerm(op=op, observation=np.zeros((3, 3)))
    x = np.zeros((3, 3))
    x[0, 0] = math.sqrt(d)
    assert estimate_gradient_bound(f, x) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("shape", [(4, 8), (6, 6)])
def test_spectral_norm_is_the_largest_singular_value(shape):
    rng = np.random.default_rng(29)
    for name, op in make_operators(rng, shape).items():
        want = np.linalg.norm(dense_matrix(op), 2)
        assert op.spectral_norm() == pytest.approx(want, rel=1e-12), name


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_box_gradient_bound_dominates_samples_and_the_corner(name):
    # the certificate holds on all of [0,1]^d, so it must sit above every
    # uniform sample and the corner x = 1[H^T b < 1/2], which makes each
    # entry of H^T (Hx - b) lean one way
    preset = make_preset(name, image_size=32, noise_sigma=0.05)
    f = FidelityTerm(*degrade(preset, preset.source_image()))
    m = box_gradient_bound(f)
    rng = np.random.default_rng(31)
    samples = [rng.uniform(0, 1, f.op.in_shape) for _ in range(16)]
    corner = (f.adjoint_observation < 0.5).astype(np.float64)
    assert max(estimate_gradient_bound(f, x) for x in samples) <= m
    assert estimate_gradient_bound(f, corner) <= m
    # the corner is not far off the bound
    assert estimate_gradient_bound(f, corner) >= 0.3 * m
