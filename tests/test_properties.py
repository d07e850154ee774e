"""Property tests: the PGS generator, its summability bound, and the
closed-form Cauchy certificate against their direct definitions."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import linear_cauchy_k, loop_pgs_generate

from pnpadmm.sequences import (
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
def test_pgs_partial_sums_stay_below_total_bound(spec, length):
    sums = np.cumsum(pgs_generate(spec, length))
    assert np.all(sums <= pgs_total_sum_bound(spec))


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
