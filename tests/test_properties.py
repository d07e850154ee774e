"""Property tests: the PGS generator, its summability bound, and the
closed-form Cauchy certificate against their direct definitions; the
forward operators' adjoints and closed-form prox solves against their
defining identities; the separable denoisers against two sliding-window
passes; exact round trips of the trace CSV and PGM formats."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import linear_cauchy_k, loop_pgs_generate, two_pass_filter

from pnpadmm.denoisers import BoxAverage, GaussianSmoothing, ImageGrid, denoise
from pnpadmm.fidelity import (
    CircularBlur,
    Downsample,
    FidelityTerm,
    Identity,
    Mask,
    prox_x_update,
)
from pnpadmm.fileio import load_image, parse_trace, save_image, serialize_trace
from pnpadmm.sequences import (
    PgsSpec,
    cauchy_index,
    pgs_generate,
    pgs_total_sum_bound,
)
from pnpadmm.solver import ConditionFlag, TraceRecord


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
def test_pgs_partial_sums_stay_below_total_bound(spec, length):
    # the terms are nonnegative, so the full sum is the largest partial sum;
    # fsum rounds the exact sum once, where np.cumsum can overshoot it by a
    # few ulps when the bound is tight (beta = 0.01: slack below one ulp)
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
    cert = cauchy_index(peak0, beta, eps, starts)
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
def operators(draw):
    """Any of the four operators on a small grid; stencils may exceed it."""
    kind = draw(st.sampled_from(["identity", "mask", "blur", "downsample"]))
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
    prefilter = draw(st.one_of(st.none(), stencils()))
    return Downsample((h, w), factor, prefilter=prefilter)


@settings(deadline=None)
@given(operators(), st.integers(0, 2**32 - 1))
def test_operator_adjoint_identity(op, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.in_dim)
    y = rng.standard_normal(op.out_dim)
    lhs = float(op.apply(x) @ y)
    rhs = float(x @ op.apply_adjoint(y))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@settings(deadline=None)
@given(operators(), st.floats(1e-6, 1e6), st.integers(0, 2**32 - 1))
def test_prox_satisfies_first_order_optimality(op, rho, seed):
    # a solve whose forward error is O(eps * cond) with cond <= (1 + rho) / rho
    # leaves a relative gradient of that order; 1e-12 is ~4500 eps
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(op.out_dim)
    t = rng.standard_normal(op.in_dim)
    f = FidelityTerm(op=op, observation=b)
    x = prox_x_update(f, rho, t)
    grad = op.apply_adjoint(op.apply(x) - b) + rho * (x - t)
    scale = np.linalg.norm(f.adjoint_observation) + rho * np.linalg.norm(t)
    assert np.linalg.norm(grad) <= 1e-12 * (1 + 1 / rho) * scale


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
    img = ImageGrid(w, h, np.random.default_rng(seed).uniform(-1, 1, h * w))
    half = int(math.floor(sigma * max(h, w) + 0.5))
    gauss = GaussianSmoothing()
    kernels = [(gauss, gauss.kernel(sigma, img))]
    if half >= 1:
        kernels.append((BoxAverage(), np.full(2 * half + 1, 1.0 / (2 * half + 1))))
    tol = 1e-13 * np.max(np.abs(img.pixels))
    for kind, kernel in kernels:
        got = denoise(kind, sigma, img).pixels.reshape(h, w)
        assert np.max(np.abs(got - two_pass_filter(img, kernel))) <= tol


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(
    st.lists(
        st.builds(
            TraceRecord,
            iteration=st.integers(0, 10**9),
            delta=finite,
            rho=finite,
            sigma=finite,
            condition=st.sampled_from([None, ConditionFlag.C1, ConditionFlag.C2]),
            fidelity_value=finite,
        ),
        max_size=20,
    )
)
def test_trace_csv_round_trip_is_exact(records):
    assert parse_trace(serialize_trace(records)) == records


@settings(deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_pgm_round_trip_reproduces_255ths_exactly(tmp_path_factory, width, height, data):
    levels = data.draw(st.lists(st.integers(0, 255), min_size=width * height,
                                max_size=width * height))
    img = ImageGrid(width, height, np.array(levels) / 255.0)
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    save_image(img, path)
    back = load_image(path)
    assert (back.width, back.height) == (width, height)
    assert back.pixels.tobytes() == img.pixels.tobytes()
