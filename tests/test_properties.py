"""Property tests: the PGS generator, its summability bound, and the
closed-form Cauchy certificate against their direct definitions; the
forward operators' adjoints and closed-form prox solves against their
defining identities, and the downsampling gather against whole-image
rolls; the separable denoisers against two sliding-window passes; exact
round trips of the trace CSV and PGM formats; the array checks of
ConditionTrace.validate against a loop over its iterations; and that a
failing property test is reported under the suite's warning filters."""

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    autocorrelation_low_eig,
    bincount_filter_matrix,
    linear_cauchy_k,
    loop_pgs_generate,
    loop_validate,
    roll_circ_conv,
    roll_circ_corr,
    two_pass_filter,
)

from pnpadmm import denoisers
from pnpadmm.denoisers import BoxAverage, GaussianSmoothing, denoise
from pnpadmm.fidelity import (
    CircularBlur,
    Downsample,
    FidelityTerm,
    Identity,
    Mask,
    prox_x_update,
)
from pnpadmm.fileio import ImageGrid, load_image, parse_trace, save_image, serialize_trace
from pnpadmm.linalg import DimensionMismatchError
from pnpadmm.sequences import (
    ConditionTrace,
    PgsSpec,
    cauchy_index,
    pgs_generate,
    pgs_total_sum_bound,
)


@st.composite
def pgs_specs(draw):
    beta = draw(st.floats(0.01, 0.99))
    peak0 = draw(st.floats(1e-3, 1e3))
    n1 = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(1, 12), max_size=30))
    starts = tuple(int(s) for s in np.cumsum([n1] + lengths))
    head = draw(
        st.one_of(st.none(), st.lists(st.floats(1e-3, 1e3), min_size=n1, max_size=n1))
    )
    return PgsSpec(beta=beta, peak0=peak0, chunk_starts=starts, head=head)


@settings(deadline=None)
@given(pgs_specs(), st.integers(1, 800))
def test_pgs_generate_is_bit_equal_to_chunk_loop(spec, length):
    got = pgs_generate(spec, length)
    assert got.tobytes() == loop_pgs_generate(spec, length).tobytes()


@settings(deadline=None)
@given(pgs_specs(), st.integers(1, 2000))
# beta = 0.01 puts the sum within an ulp of the closed form, which a bound
# rounded to nearest fell below
@example(PgsSpec(beta=0.01, peak0=0.01, chunk_starts=(9, 18, 26, 33, 39, 44, 48, 51, 53)), 54)
def test_pgs_partial_sums_stay_below_total_bound(spec, length):
    # the terms are nonnegative, so the full sum is the largest partial sum;
    # fsum rounds the exact sum once, where np.cumsum can overshoot it by a
    # few ulps when the bound is tight
    y = pgs_generate(spec, length)
    assert np.all(y >= 0)
    assert math.fsum(y) <= pgs_total_sum_bound(spec)


@settings(deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 0.9999),
    st.floats(1e-12, 10.0),
    st.lists(st.integers(1, 12), min_size=1, max_size=20),
)
def test_closed_form_cauchy_index_matches_linear_search(peak0, beta, eps, lengths):
    starts = tuple(int(s) for s in np.cumsum(lengths))
    want = linear_cauchy_k(peak0, beta, eps, max_k=200_000)
    assume(want is not None)
    cert = cauchy_index(PgsSpec(beta=beta, peak0=peak0, chunk_starts=starts), eps)
    assert cert.k_index == want
    assert cert.tail_bound < eps
    extended = list(starts) + list(range(starts[-1] + 1, starts[-1] + want + 1))
    assert cert.n_start == extended[want - 1] + 1


@st.composite
def stencils(draw):
    rows = draw(st.sampled_from([1, 3, 5, 7]))
    cols = draw(st.sampled_from([1, 3, 5, 7]))
    n = rows * cols
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    arr = np.array(weights).reshape(rows, cols)
    assume(arr.sum() > 1e-3)
    return arr / arr.sum()


@st.composite
def operators(draw, kinds=("identity", "mask", "blur", "downsample")):
    """Any of ``kinds`` of operator on a small grid; stencils may exceed it."""
    kind = draw(st.sampled_from(kinds))
    factor = draw(st.integers(1, 3)) if kind == "downsample" else 1
    h = factor * draw(st.integers(1, 5))
    w = factor * draw(st.integers(1, 5))
    if kind == "identity":
        return Identity((h, w))
    if kind == "mask":
        keep = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
        return Mask(np.array(keep).reshape(h, w))
    if kind == "blur":
        return CircularBlur((h, w), draw(stencils()))
    return Downsample((h, w), factor)


@settings(deadline=None)
@given(operators(), st.integers(0, 2**32 - 1))
def test_operator_adjoint_identity(op, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.in_shape)
    y = rng.standard_normal(op.out_shape)
    lhs = float(np.vdot(op.apply(x), y))
    rhs = float(np.vdot(x, op.apply_adjoint(y)))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@settings(deadline=None)
@given(operators())
def test_operator_refuses_a_flat_or_transposed_image(op):
    # every entry point takes the (h, w) image alone, and names it on refusal;
    # the flat form of the same pixels, a grid with an empty side, or a
    # transposed grid, is refused
    f = FidelityTerm(op=op, observation=np.zeros(op.out_shape))
    entries = {
        "apply": (op.apply, op.in_shape),
        "apply_adjoint": (op.apply_adjoint, op.out_shape),
        "prox target": (lambda t: prox_x_update(f, 1.0, t), op.in_shape),
        "observation": (lambda b: FidelityTerm(op=op, observation=b), op.out_shape),
    }
    for name, (call, shape) in entries.items():
        wrong = [(math.prod(shape),), (0, shape[1])] + (
            [shape[::-1]] if shape[0] != shape[1] else [])
        for given_shape in wrong:
            with pytest.raises(DimensionMismatchError, match=re.escape(
                    f"has shape {given_shape}, operator expects {shape}")):
                call(np.zeros(given_shape))


@settings(deadline=None)
@given(operators(kinds=["downsample"]), st.integers(0, 2**32 - 1))
def test_downsample_matches_roll_oracles(op, seed):
    # most draws have a non-square grid, so a row index taken modulo the
    # width shows
    rng = np.random.default_rng(seed)
    f = op.factor
    x2 = rng.standard_normal(op.in_shape)
    y2 = rng.standard_normal(op.out_shape)
    want = roll_circ_conv(x2, op.prefilter)[::f, ::f]
    got = op.apply(x2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(x2))
    up = np.zeros(op.in_shape)
    up[::f, ::f] = y2
    want = roll_circ_corr(up, op.prefilter)
    got = op.apply_adjoint(y2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(y2))
    # eigenvalues of H H^T, at most 1 for a stencil summing to 1
    want = autocorrelation_low_eig(op.prefilter, op.in_shape, f)
    assert np.max(np.abs(op._low_eig - want)) <= 1e-13


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 4))
def test_downsample_reads_every_pixel(factor, rows, cols):
    # the prox needs no scan of its target because H reads every pixel: a
    # non-finite one always reaches f(x), grids smaller than the stencil
    # (rows or cols of 1 at factor >= 2) included
    op = Downsample((factor * rows, factor * cols), factor)
    assert np.unique(op._src).size == math.prod(op.in_shape)


@settings(deadline=None)
@given(operators(kinds=["blur"]), st.integers(0, 2**32 - 1))
def test_blur_gradient_matches_roll_oracles(op, seed):
    # H^T (Hx - b) through the Fourier basis rounds differently from the
    # same product taken tap by tap, to a few eps of the inputs' scale
    rng = np.random.default_rng(seed)
    x2 = rng.standard_normal(op.in_shape)
    b2 = rng.standard_normal(op.out_shape)
    f = FidelityTerm(op=op, observation=b2)
    want = roll_circ_corr(roll_circ_conv(x2, op.stencil) - b2, op.stencil)
    got = f.gradient(x2)
    scale = np.max(np.abs(x2)) + np.max(np.abs(b2))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@settings(deadline=None)
@given(operators(), st.floats(1e-6, 1e6), st.integers(0, 2**32 - 1))
def test_prox_returns_the_residual_of_its_solution(op, rho, seed):
    # the x-update records the prox's fx = 0.5 ||Hx - b||^2; forming Hx - b
    # rounds at eps (||x|| + ||b||), since ||H|| <= 1 for a stencil summing
    # to 1, so its half square rounds at eps (||x|| + ||b||)^2
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(op.out_shape)
    t = rng.standard_normal(op.in_shape)
    x, fx = op.prox(t, rho, FidelityTerm(op=op, observation=b))
    r = op.apply(x) - b
    err = abs(fx - 0.5 * float(np.vdot(r, r)))
    assert err <= 1e-12 * (np.linalg.norm(x) + np.linalg.norm(b)) ** 2


@settings(deadline=None)
@given(operators(), st.floats(1e-6, 1e6), st.integers(0, 2**32 - 1))
def test_prox_satisfies_first_order_optimality(op, rho, seed):
    # a solve whose forward error is O(eps * cond) leaves a relative
    # gradient of that order; 1e-12 is ~4500 eps.  The Fourier solves divide
    # by eigenvalues of H^T H + rho I, so cond <= (1 + rho) / rho; the
    # push-through solve divides only by those of rho I + H H^T, which stay
    # away from 0 as rho -> 0, since H H^T is nonsingular for the binomial
    # prefilter
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(op.out_shape)
    t = rng.standard_normal(op.in_shape)
    f = FidelityTerm(op=op, observation=b)
    x, _ = prox_x_update(f, rho, t)
    grad = op.apply_adjoint(op.apply(x) - b) + rho * (x - t)
    scale = np.linalg.norm(f.adjoint_observation) + rho * np.linalg.norm(t)
    smallest = rho + op._low_eig.min() if isinstance(op, Downsample) else rho
    assert np.linalg.norm(grad) <= 1e-12 * (1 + 1 / smallest) * scale


@settings(deadline=None)
@given(
    st.integers(1, 15),
    st.integers(1, 15),
    st.floats(0.01, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_separable_denoisers_match_two_pass_oracle(h, w, sigma, seed):
    # sigma up to 2 puts the Gaussian radius (and the box half-width) past
    # the image side, where the symmetric extension reflects more than once
    img = np.random.default_rng(seed).uniform(-1, 1, (h, w))
    half = int(math.floor(sigma * max(h, w) + 0.5))
    gauss = GaussianSmoothing()
    kernels = [(gauss, gauss.kernel(sigma, max(h, w)))]
    if half >= 1:
        kernels.append((BoxAverage(), np.full(2 * half + 1, 1.0 / (2 * half + 1))))
    tol = 1e-13 * np.max(np.abs(img))
    for kind, kernel in kernels:
        got = denoise(kind, sigma, img)
        assert np.max(np.abs(got - two_pass_filter(img, kernel))) <= tol


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 200),
    st.integers(1, 200),
    st.floats(0.0, 1.1),
    st.integers(0, 2**32 - 1),
)
# reach 1.5 puts the radius past the longer side, where the symmetric
# extension reflects more than once
@example(40, 70, 1.5, 31)
def test_banded_filter_matches_two_pass_oracle_across_blocks(h, w, reach, seed):
    # sides up to 200 span several blocks of FILTER_BLOCK outputs; the
    # radius runs from 1 to past the longer side
    radius = max(1, round(reach * max(h, w)))
    img = np.random.default_rng(seed).uniform(-1, 1, (h, w))
    offsets = np.arange(-radius, radius + 1)
    gauss = np.exp(-0.5 * (3.0 * offsets / radius) ** 2)
    box = np.ones(2 * radius + 1)
    tol = 1e-13 * np.max(np.abs(img))
    for kernel in (gauss / gauss.sum(), box / box.sum()):
        for n in {h, w}:
            g = bincount_filter_matrix(n, kernel)
            for j0, j1, lo, hi in denoisers._blocks(n, radius):
                assert not g[j0:j1, :lo].any() and not g[j0:j1, hi:].any()
        got = denoisers._separable_filter(img, kernel)
        assert np.max(np.abs(got - two_pass_filter(img, kernel))) <= tol


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 300), st.integers(1, 300), st.floats(0.001, 1.0), st.booleans())
# the default sigma on 16x256: radius 77 exceeds the short side
@example(16, 256, 0.1, False)
# one pixel that sums all 51 taps of a box
@example(1, 25, 1.0, True)
def test_inplace_filter_matrix_matches_bincount_oracle(h, w, sigma, box):
    # bit for bit while each entry sums at most two taps (radius below the
    # side); past the side the folded taps add up in another order, and two
    # sums of m positive taps differ by at most m eps times the sum
    if box:
        half = max(1, round(sigma * max(h, w)))
        kernel = np.full(2 * half + 1, 1.0 / (2 * half + 1))
    else:
        kernel = GaussianSmoothing().kernel(sigma, max(h, w))
    radius = kernel.size // 2
    for n in {h, w}:
        g = denoisers._fill_filter(n, kernel)
        expected = bincount_filter_matrix(n, kernel)
        if radius < n:
            assert np.array_equal(g, expected)
        else:
            taps = 2 * -(-kernel.size // (2 * n))
            tol = taps * np.finfo(float).eps * np.max(expected)
            assert np.max(np.abs(g - expected)) <= tol


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def column_traces(draw):
    """A ConditionTrace of 1..20 iterations holding arbitrary finite values."""
    n = draw(st.integers(1, 20))
    column = st.lists(finite, min_size=n, max_size=n)
    return ConditionTrace(
        deltas=draw(column),
        rhos=draw(column),
        sigmas=draw(column),
        fidelity_values=draw(column),
        gamma=2.0,
        eta=0.5,
    )


@settings(deadline=None)
@given(column_traces())
def test_trace_csv_round_trip_is_exact(trace):
    back = parse_trace(serialize_trace(trace))
    assert np.array_equal(back["flags"], trace.c1)
    for name in ("deltas", "rhos", "sigmas", "fidelity_values"):
        assert back[name].tobytes() == getattr(trace, name).tobytes()


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_pgm_round_trip_reproduces_255ths_exactly(tmp_path_factory, width, height, data):
    levels = data.draw(st.lists(st.integers(0, 255), min_size=width * height,
                                max_size=width * height))
    img = ImageGrid(np.array(levels).reshape(height, width) / 255.0)
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    save_image(img, path)
    back = load_image(path)
    assert back.pixels.shape == (height, width)
    assert back.pixels.tobytes() == img.pixels.tobytes()


# relative moves of one penalty around validate's 1e-12 tolerance, and
# whole growth steps
RHO_FACTORS = (1 + 5e-13, 1 + 1e-12, 1 - 1e-12, 1 + 2e-12, 1 - 3e-12, 1 + 1e-9, 1.5, 2 / 3)


@st.composite
def faulted_traces(draw):
    """A ConditionTrace of 1..40 iterations built by the penalty rule and
    its recorded C1 flags, then given a few faults: flipped flags, moved
    penalties, NaN, infinite, zero or negative penalties (an infinite tail
    too) and residuals, and now and then a bad gamma; the flags are left
    out (None) now and then."""
    n = draw(st.integers(1, 40))
    eta = draw(st.floats(0.05, 0.95))
    gamma = draw(st.floats(1.001, 10.0))
    deltas = [draw(st.floats(0.0, 10.0))]
    for _ in range(n - 1):
        step = draw(st.sampled_from(["ratio", "boundary", "zero"]))
        if step == "ratio":
            deltas.append(deltas[-1] * draw(st.floats(0.0, 2.0)))
        else:
            deltas.append(eta * deltas[-1] if step == "boundary" else 0.0)
    flags = [b >= eta * a for a, b in zip(deltas, deltas[1:])]
    rhos = [draw(st.floats(1e-3, 1e3))]
    for flag in flags:
        rhos.append(gamma * rhos[-1] if flag else rhos[-1])
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(
            st.sampled_from(["flip", "rho", "rho_bad", "inf_tail", "delta_bad"])
        )
        i = draw(st.integers(0, n - 1))
        if fault == "flip" and flags:
            j = min(i, len(flags) - 1)
            flags[j] = not flags[j]
        elif fault == "rho":
            rhos[i] *= draw(st.sampled_from(RHO_FACTORS))
        elif fault == "rho_bad":
            rhos[i] = draw(st.sampled_from([math.nan, math.inf, 0.0, -1.0]))
        elif fault == "inf_tail":
            # equal infinities pass math.isclose
            rhos[i:] = [math.inf] * (n - i)
        elif fault == "delta_bad":
            deltas[i] = draw(st.sampled_from([math.nan, math.inf, -1.0]))
    gamma = draw(st.sampled_from([gamma] * 6 + [math.nan, math.inf, 1.0]))
    rhos = np.array(rhos)
    trace = ConditionTrace(deltas, rhos, np.ones(n), np.zeros(n), gamma, eta)
    return trace, None if draw(st.integers(0, 4)) == 0 else np.array(flags, dtype=bool)


def _outcome(check):
    """None if ``check()`` passes, else the type and message it raised."""
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(deadline=None, max_examples=400)
@given(faulted_traces())
def test_validate_matches_the_iteration_loop(trace_and_flags):
    trace, flags = trace_and_flags
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _outcome(lambda: loop_validate(trace, flags))
    assert _outcome(lambda: trace.validate(flags)) == expected


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != 0


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported(tmp_path):
    # on a failure hypothesis imports libcst, whose import of mypy_extensions
    # warns; under filterwarnings = ["error"] without its ignore entry that
    # warning ends the session in INTERNALERROR instead of a failure report.
    # hypothesis writes .hypothesis/ into the working directory, so run there
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(config), "-p", "no:cacheprovider",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
