import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pnpadmm.sequences import (
    CLASSIFY_CAVEAT,
    BoundConstructionError,
    ConditionTrace,
    PgsSpec,
    TraceInvariantError,
    alternation_boundaries,
    cauchy_index,
    classify_case,
    construct_s12_bound,
    construct_s3_bound,
    estimate_growth_coefficient,
    pgs_chunk_sum_bound,
    pgs_generate,
    pgs_total_sum_bound,
    verify_bound,
)

# the C1 flags ConditionTrace.c1 derives
C1, C2 = True, False


def condition_trace(deltas, rhos, gamma, eta):
    """A ConditionTrace at lambda = 1 with zero data terms: the envelope code
    reads neither report column."""
    rhos = np.asarray(rhos, dtype=float)
    return ConditionTrace(
        deltas=deltas, rhos=rhos, sigmas=1.0 / np.sqrt(rhos),
        fidelity_values=np.zeros(rhos.size), gamma=gamma, eta=eta,
    )


def trace_from_flags(flags, deltas=None, eta=0.5, gamma=4.0, rho1=1.0):
    """Build a ConditionTrace whose rhos follow the flags; deltas are made
    consistent with the flags unless given explicitly, and given ones must
    be."""
    n = len(flags) + 1
    rhos = [rho1]
    for flag in flags:
        rhos.append(rhos[-1] * (gamma if flag == C1 else 1.0))
    if deltas is None:
        deltas = [1.0]
        for flag in flags:
            # any ratio >= eta for C1, < eta for C2
            ratio = min(0.9, (1.0 + eta) / 2) if flag == C1 else eta / 2
            deltas.append(deltas[-1] * ratio)
    trace = condition_trace(np.array(deltas), rhos, gamma, eta)
    assert trace.c1.tolist() == list(flags)
    return trace


# ---------------------------------------------------------------------------
# PGS generation

def test_pgs_generate_reference_sequence():
    # beta=1/2, A=1, chunks starting at 1, 3, 6; unit extension past the end
    spec = PgsSpec(beta=0.5, peak0=1.0, chunk_starts=(1, 3, 6), head=(1.0,))
    got = pgs_generate(spec, 7)
    assert np.array_equal(got, [1.0, 1.0, 0.5, 0.5, 0.25, 0.125, 0.25])


def test_pgs_single_chunk_is_geometric():
    spec = PgsSpec(beta=0.3, peak0=2.0, chunk_starts=(1,))
    got = pgs_generate(spec, 10)
    ks = np.arange(2, 11)
    assert np.allclose(got[1:], 2.0 * 0.3 ** (ks - 2.0), rtol=1e-15)


def test_pgs_unit_chunks_are_geometric():
    spec = PgsSpec(beta=0.6, peak0=1.0, chunk_starts=tuple(range(1, 12)))
    got = pgs_generate(spec, 11)
    ks = np.arange(2, 12)
    assert np.allclose(got[1:], 0.6 ** (ks - 2.0), rtol=1e-14)


def test_pgs_definition_clauses_hold():
    # within-chunk ratio beta, peaks in geometric progression
    rng = np.random.default_rng(113)
    for _ in range(25):
        beta = float(rng.uniform(0.1, 0.95))
        peak0 = float(rng.uniform(0.1, 10))
        starts = np.cumsum(rng.integers(1, 10, size=8)).tolist()
        spec = PgsSpec(beta=beta, peak0=peak0, chunk_starts=tuple(starts))
        length = starts[-1] + 5
        y = pgs_generate(spec, length)
        for j, (lo, hi) in enumerate(zip(starts, starts[1:])):
            peak = y[lo]  # y_{n_j + 1}
            assert peak == pytest.approx(peak0 * beta**j, rel=1e-12)
            for k in range(lo + 1, hi + 1):
                assert y[k - 1] == pytest.approx(
                    peak * beta ** (k - lo - 1), rel=1e-12
                )


def test_pgs_head_defaults_and_validation():
    spec = PgsSpec(beta=0.5, peak0=2.0, chunk_starts=(3, 5))
    assert spec.head_terms == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        PgsSpec(beta=0.5, peak0=1.0, chunk_starts=(3,), head=(1.0,))
    with pytest.raises(ValueError):
        PgsSpec(beta=1.0, peak0=1.0, chunk_starts=(1,))
    with pytest.raises(ValueError):
        PgsSpec(beta=0.5, peak0=1.0, chunk_starts=(2, 2))


def test_pgs_decays_slower_than_geometric_at_late_peaks():
    # with length-5 chunks the peak at index n_j+1 is A*beta^(j-1), far above
    # the plain geometric value A*beta^(k-2) at the same index
    beta = 0.5
    starts = tuple(range(1, 51, 5))  # chunks of length 5
    spec = PgsSpec(beta=beta, peak0=1.0, chunk_starts=starts)
    y = pgs_generate(spec, 51)
    for j, n_j in enumerate(starts[2:], start=3):
        k = n_j + 1
        assert y[k - 1] > 1.0 * beta ** (k - 2)


# ---------------------------------------------------------------------------
# Chunk-sum bound and summability

def test_chunk_sum_bound_values():
    spec = PgsSpec(beta=0.5, peak0=1.0, chunk_starts=(1, 3, 6))
    assert pgs_chunk_sum_bound(spec, 1) == 2.0
    assert pgs_chunk_sum_bound(spec, 3) == 0.5


def test_chunk_sums_strictly_below_bound():
    rng = np.random.default_rng(127)
    for _ in range(100):
        beta = float(rng.uniform(0.1, 0.95))
        peak0 = float(rng.uniform(0.1, 10))
        starts = np.cumsum(rng.integers(1, 11, size=12)).tolist()
        spec = PgsSpec(beta=beta, peak0=peak0, chunk_starts=tuple(starts))
        y = pgs_generate(spec, starts[-1])
        for j, (lo, hi) in enumerate(zip(starts, starts[1:]), start=1):
            actual = float(np.sum(y[lo:hi]))
            assert actual < pgs_chunk_sum_bound(spec, j)


def test_partial_sums_bounded_by_total_bound():
    rng = np.random.default_rng(131)
    for _ in range(100):
        beta = float(rng.uniform(0.1, 0.95))
        peak0 = float(rng.uniform(0.1, 10))
        starts = np.cumsum(rng.integers(1, 11, size=20)).tolist()
        spec = PgsSpec(beta=beta, peak0=peak0, chunk_starts=tuple(starts))
        y = pgs_generate(spec, 2000)
        sums = np.cumsum(y)
        assert np.all(np.diff(sums) >= 0)
        assert sums[-1] <= pgs_total_sum_bound(spec)


# ---------------------------------------------------------------------------
# Cauchy certificate

def test_slow_rate_long_chunks_sum_bound():
    # beta = 0.95 makes the series bound peak0 * 400 plus the head
    spec = PgsSpec(beta=0.95, peak0=1.0, chunk_starts=tuple(range(1, 301, 30)))
    y = pgs_generate(spec, 50_000)
    total = float(np.sum(y))
    bound = pgs_total_sum_bound(spec)
    assert bound == pytest.approx(1.0 + 400.0, rel=1e-12)
    assert total <= bound


def test_cauchy_index_enumerated_example():
    # threshold 0.25: 2^-(K-1) < 0.25 first at K = 4
    cert = cauchy_index(PgsSpec(beta=0.5, peak0=1.0, chunk_starts=(1, 3, 6)), 1.0)
    assert cert.k_index == 4
    # one unit chunk extends (1, 3, 6) to n_4 = 7
    assert cert.n_start == 8
    assert cert.tail_bound == pytest.approx(0.5**3 / 0.25)
    assert cert.tail_bound < cert.epsilon


def test_cauchy_index_small_beta():
    cert = cauchy_index(PgsSpec(beta=0.01, peak0=1.0, chunk_starts=(1,)), 1.0)
    assert cert.k_index == 2


def test_cauchy_index_returns_promptly_for_beta_near_one():
    # a linear search over K would need ~5.5e10 steps here
    beta = 1 - 1e-9
    start = time.monotonic()
    cert = cauchy_index(PgsSpec(beta=beta, peak0=1.0, chunk_starts=(1, 3)), 1e-6)
    assert time.monotonic() - start < 1.0
    threshold = 1e-6 * (1.0 - beta) ** 2
    assert beta ** (cert.k_index - 1) < threshold <= beta ** (cert.k_index - 2)
    assert cert.tail_bound < 1e-6
    # unit chunks past n_2 = 3: n_K = 3 + (K - 2)
    assert cert.n_start == 3 + (cert.k_index - 2) + 1


def test_cauchy_index_threshold_at_and_above_one():
    # threshold = epsilon (1-beta)^2 / peak0; K = 1 needs beta^0 = 1 < threshold
    spec = PgsSpec(beta=0.5, peak0=0.25, chunk_starts=(2,))
    assert cauchy_index(spec, 1.0).k_index == 2
    cert = cauchy_index(spec, 2.0)
    assert (cert.k_index, cert.n_start) == (1, 3)
    assert cert.tail_bound < cert.epsilon


def test_cauchy_index_minimality_and_tail_sums():
    rng = np.random.default_rng(137)
    for _ in range(40):
        beta = float(rng.uniform(0.1, 0.9))
        peak0 = float(rng.uniform(0.1, 5))
        starts = tuple(np.cumsum(rng.integers(1, 8, size=10)).tolist())
        spec = PgsSpec(beta=beta, peak0=peak0, chunk_starts=starts)
        for eps in (1e-1, 1e-3):
            cert = cauchy_index(spec, eps)
            threshold = eps * (1 - beta) ** 2 / peak0
            assert beta ** (cert.k_index - 1) < threshold
            if cert.k_index > 1:
                assert beta ** (cert.k_index - 2) >= threshold
            length = 10 * cert.n_start
            y = pgs_generate(spec, length)
            tail = np.cumsum(y[cert.n_start - 1 :])
            assert np.all(tail < eps)


# ---------------------------------------------------------------------------
# Condition traces and the growth coefficient

def test_condition_trace_validate_accepts_consistent():
    tr = trace_from_flags([C1, C2, C1, C2])
    tr.validate()


def test_condition_trace_validate_rejects_bad_flag():
    tr = trace_from_flags([C1, C2])
    tr.validate(np.array([C1, C2]))
    # the first flag, printed on trace.csv's row 2, should be C1
    with pytest.raises(TraceInvariantError, match="^flag at iteration 2 is C2, inconsistent"):
        tr.validate(np.array([C2, C2]))


def test_condition_trace_validate_rejects_bad_rho():
    tr = trace_from_flags([C1, C2])
    rhos = tr.rhos.copy()
    rhos[1] *= 1.5
    bad = replace(tr, rhos=rhos)
    # the penalty of trace.csv's row 2, and the flag printed beside it
    with pytest.raises(
        TraceInvariantError, match="^penalty at iteration 2 inconsistent with flag at iteration 2$"
    ):
        bad.validate()


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_condition_trace_validate_refuses_non_finite_penalties(value):
    # equal infinities once passed the closeness check
    tr = trace_from_flags([C1, C1])
    bad = replace(tr, rhos=np.full(3, value))
    with pytest.raises(TraceInvariantError, match="^penalties must be positive and finite$"):
        bad.validate()


def test_condition_trace_validate_counts_the_recorded_flags():
    tr = trace_from_flags([C1, C2])
    with pytest.raises(TraceInvariantError, match="expected 2 condition flags for 3 iterations"):
        tr.validate(np.array([C1]))


@pytest.mark.parametrize("name", ["rhos", "sigmas", "fidelity_values"])
def test_condition_trace_validate_rejects_a_short_column(name):
    tr = trace_from_flags([C1, C2])
    bad = replace(tr, **{name: getattr(tr, name)[:-1]})
    with pytest.raises(TraceInvariantError, match=f"deltas and {name}"):
        bad.validate()


def recorded(trace):
    """The keywords fileio.parse_trace returns for ``trace``."""
    columns = ("deltas", "rhos", "sigmas", "fidelity_values")
    return {**{name: getattr(trace, name) for name in columns}, "flags": trace.c1}


def test_from_columns_infers_gamma_and_eta():
    trace = trace_from_flags([C1, C2], deltas=[0.5, 0.3, 0.1], eta=0.6, gamma=1.2)
    got, assumed = ConditionTrace.from_columns(**recorded(trace))
    assert not assumed
    assert got.gamma == pytest.approx(1.2)
    # min C1 ratio = 0.3/0.5
    assert got.eta == pytest.approx(0.6)
    no_c1 = trace_from_flags([C2], deltas=[0.5, 0.2], eta=0.6)
    got, assumed = ConditionTrace.from_columns(**recorded(no_c1))
    assert assumed and got.gamma == 2.0
    assert 0.4 < got.eta < 1.0  # any valid threshold above the observed C2 ratio


def test_from_columns_infers_an_eta_that_reproduces_the_flag_despite_rounding():
    # the rounded ratio 0.47243780963943144 / 0.876660559320164 times the
    # previous residual lands one step above the next residual
    deltas = [0.876660559320164, 0.47243780963943144]
    ratio = deltas[1] / deltas[0]
    assert ratio * deltas[0] > deltas[1]
    trace = trace_from_flags([C1], deltas=deltas, eta=0.5)
    got, _ = ConditionTrace.from_columns(**recorded(trace))
    assert got.eta < ratio
    assert got.c1.tolist() == [C1]


def test_growth_coefficient_single_c1():
    # one C1 iteration with next residual 0.1 at rho 4 gives 0.1 * 2
    tr = condition_trace(np.array([1.0, 0.1]), [4.0, 16.0], gamma=4.0, eta=0.05)
    assert estimate_growth_coefficient(tr) == pytest.approx(0.2)


def test_growth_coefficient_requires_c1():
    tr = trace_from_flags([C2, C2, C2])
    with pytest.raises(BoundConstructionError, match="no C1"):
        estimate_growth_coefficient(tr)


def test_growth_coefficient_matches_exhaustive_scan():
    tr = trace_from_flags([C1, C2, C1, C1, C2, C1], eta=0.4, gamma=2.0)
    got = estimate_growth_coefficient(tr)
    want = max(
        tr.deltas[i + 1] * math.sqrt(tr.rhos[i])
        for i, f in enumerate(tr.c1)
        if f
    )
    assert got == want


# ---------------------------------------------------------------------------
# Alternation extraction and the PGS envelope

def test_alternation_boundaries():
    flags = [C2, C1, C1, C2, C2, C1, C2, C1]
    assert alternation_boundaries(np.array(flags)) == [2, 6, 8]


def test_s3_bound_beta_and_boundaries():
    tr = trace_from_flags([C1, C2, C1, C2, C1, C2], eta=0.3, gamma=4.0)
    spec = construct_s3_bound(tr, c=estimate_growth_coefficient(tr))
    assert spec.beta == 0.5  # max(1/sqrt(4), 0.3)
    assert spec.chunk_starts == (1, 3, 5)


@pytest.mark.parametrize(
    "gamma,eta", [(4.0, 0.3), (1.1, 0.9), (2.0, 0.8), (9.0, 0.1), (1.05, 0.6)]
)
def test_s3_bound_rate_is_exact_max(gamma, eta):
    tr = trace_from_flags([C1, C2, C1, C2, C1], eta=eta, gamma=gamma)
    spec = construct_s3_bound(tr, c=1.0)
    assert spec.beta == max(1.0 / math.sqrt(gamma), eta)


def test_s3_bound_requires_two_alternations():
    tr = trace_from_flags([C2, C2, C1, C1])
    with pytest.raises(BoundConstructionError, match="S1/S2"):
        construct_s3_bound(tr, c=1.0)


def test_s3_bound_round_trip_on_exact_pgs():
    # residuals exactly equal to a PGS with rate 0.5 under eta = 0.8:
    # within-chunk ratios 0.5 read as C2, each chunk-start rise reads as C1,
    # so the flags are consistent and the extracted envelope has rate
    # max(1/sqrt(4), 0.8) = 0.8 with the same peaks; margin is exactly 1
    beta0, eta, gamma = 0.5, 0.8, 4.0
    starts = (1, 4, 7, 10, 13)
    spec0 = PgsSpec(beta=beta0, peak0=1.0, chunk_starts=starts, head=(1.0,))
    n = 15
    deltas = pgs_generate(spec0, n)
    flags = [deltas[i + 1] >= eta * deltas[i] for i in range(n - 1)]
    rhos = [1.0]
    for f in flags:
        rhos.append(rhos[-1] * (gamma if f == C1 else 1.0))
    tr = condition_trace(deltas, rhos, gamma, eta)
    tr.validate()
    assert alternation_boundaries(tr.c1) == list(starts)
    spec = construct_s3_bound(tr, c=1.0)  # c / sqrt(rho_1) = peak0 = 1
    check = verify_bound(deltas, pgs_generate(spec, n), start=spec.chunk_starts[0] + 1)
    assert check.holds
    assert check.worst_margin == 1.0


def test_s3_bound_peak_recursion_on_trace():
    # extracted peaks c/sqrt(rho_{n_j}) drop by at least 1/sqrt(gamma) per chunk
    tr = trace_from_flags([C1, C1, C2, C1, C2, C2, C1, C2], eta=0.5, gamma=2.25)
    c = estimate_growth_coefficient(tr)
    spec = construct_s3_bound(tr, c)
    peaks = [c / math.sqrt(tr.rhos[n - 1]) for n in spec.chunk_starts]
    alpha = 1.0 / math.sqrt(tr.gamma)
    for a, b in zip(peaks, peaks[1:]):
        assert b <= a * alpha * (1 + 1e-12)


def test_s3_bound_dominates_consistent_synthetic_trace():
    rng = np.random.default_rng(139)
    eta, gamma = 0.6, 2.0
    flags = []
    for _ in range(6):
        flags += [C1] * int(rng.integers(1, 4)) + [C2] * int(rng.integers(1, 4))
    deltas = [1.0]
    for f in flags:
        hi, lo = (1.0, eta) if f == C1 else (eta * 0.95, 0.2)
        deltas.append(deltas[-1] * float(rng.uniform(lo, hi)))
    tr = trace_from_flags(flags, deltas=deltas, eta=eta, gamma=gamma)
    tr.validate()
    c = estimate_growth_coefficient(tr)
    spec = construct_s3_bound(tr, c)
    check = verify_bound(
        tr.deltas, pgs_generate(spec, len(tr)), start=spec.chunk_starts[0] + 1
    )
    assert check.holds


# ---------------------------------------------------------------------------
# Geometric bounds for single-condition tails

def test_s12_all_c1_formula():
    tr = trace_from_flags([C1] * 6, eta=0.5, gamma=4.0)
    spec = construct_s12_bound(tr, c=1.0)
    assert spec.beta == 0.5
    assert spec.chunk_starts[0] == 1
    assert spec.chunk_starts == (1,)
    # delta_{k+1} <= 2 * 0.5^k = 0.5^(k-1): the first peak is y_2 = 1
    seq = pgs_generate(spec, 7)
    assert spec.peak0 == 1.0 == seq[1]
    assert np.allclose(seq[1:], 0.5 ** np.arange(6), rtol=1e-15)


def test_s12_all_c2_recursion_consistency():
    eta = 0.5
    deltas = [1.0]
    for _ in range(6):
        deltas.append(deltas[-1] * 0.4)
    tr = trace_from_flags([C2] * 6, deltas=deltas, eta=eta, gamma=2.0)
    spec = construct_s12_bound(tr, c=None)
    assert spec.beta == eta
    assert spec.chunk_starts[0] == 1
    check = verify_bound(tr.deltas, pgs_generate(spec, len(tr)), start=2)
    assert check.holds


def test_s12_switch_point_bound_dominates():
    # C1 prefix then all-C2 tail anchored through the growth coefficient
    eta, gamma = 0.5, 4.0
    flags = [C1, C1, C1] + [C2] * 5
    deltas = [1.0]
    for f in flags:
        deltas.append(deltas[-1] * (0.6 if f == C1 else 0.3))
    tr = trace_from_flags(flags, deltas=deltas, eta=eta, gamma=gamma)
    tr.validate()
    c = estimate_growth_coefficient(tr)
    spec = construct_s12_bound(tr, c)
    assert spec.beta == eta
    assert spec.chunk_starts[0] == 4
    check = verify_bound(
        tr.deltas, pgs_generate(spec, len(tr)), start=spec.chunk_starts[0] + 1
    )
    assert check.holds


def test_s12_bound_keeps_a_zero_residual_in_its_head():
    # an exact fixed point (delta = 0) reads as C1 next and raises rho, so
    # the run can move again; the zero lands in the envelope's head
    tr = trace_from_flags([C2, C1, C1], deltas=[1.0, 0.0, 0.5, 0.6], eta=0.5)
    tr.validate()
    spec = construct_s12_bound(tr, estimate_growth_coefficient(tr))
    assert spec.head == (1.0, 0.0)
    check = verify_bound(
        tr.deltas, pgs_generate(spec, len(tr)), start=spec.chunk_starts[0] + 1
    )
    assert check.holds


def test_s12_first_peak_of_a_late_c1_tail_is_finite():
    # 3000 C2 steps at ratio 0.9, then 20 C1 steps at 0.97: the tail starts
    # at t = 3001, where (1/sqrt(gamma))^(-t) = 2^1500.5 overflows; the peak
    # c / sqrt(rho_t) does not
    flags = [C2] * 3000 + [C1] * 20
    deltas = np.cumprod([1.0] + [0.9 if f == C2 else 0.97 for f in flags])
    tr = trace_from_flags(flags, deltas=deltas, eta=0.95, gamma=2.0)
    tr.validate()
    c = estimate_growth_coefficient(tr)
    spec = construct_s12_bound(tr, c)
    assert spec.chunk_starts == (3001,)
    assert spec.peak0 == c / math.sqrt(tr.rhos[3000])
    bound = pgs_generate(spec, len(tr))
    assert np.all(np.isfinite(bound))
    assert verify_bound(tr.deltas, bound, start=3002).holds


# ---------------------------------------------------------------------------
# Classification and bound verification

def test_classify_cases():
    s1 = trace_from_flags([C2, C2] + [C1] * 10)
    s2 = trace_from_flags([C1, C1] + [C2] * 10)
    s3 = trace_from_flags([C1, C2] * 6)
    assert classify_case(s1, window=5) == "S1-like"
    assert classify_case(s2, window=5) == "S2-like"
    assert classify_case(s3, window=5) == "S3-like"
    assert "heuristic" in CLASSIFY_CAVEAT


def test_classify_requires_long_enough_trace():
    tr = trace_from_flags([C1, C2])
    with pytest.raises(ValueError, match="has 2 flags, need at least window=10"):
        classify_case(tr, window=10)
    assert classify_case(tr, window=2) == "S3-like"


def test_verify_bound_equality_and_violation():
    y = np.array([1.0, 0.5, 0.25])
    check = verify_bound(y, y, start=1)
    assert check.holds and check.worst_margin == 1.0
    bad = y.copy()
    bad[2] *= 0.9  # bound dips below the sequence
    check = verify_bound(y, bad, start=1)
    assert not check.holds
    assert check.worst_margin > 1.0


def test_verify_bound_reports_first_iteration_of_worst_margin():
    # iteration 1 has the largest ratio but lies before start; the worst
    # checked ratio, 0.9, occurs at k = 3 and again at k = 5
    deltas = [5.0, 0.5, 0.9, 0.3, 0.9, 0.1]
    check = verify_bound(deltas, [1.0] * 6, start=2)
    assert check.holds
    assert check.worst_margin == 0.9
    assert check.worst_margin_iteration == 3


def test_verify_bound_margins_read_zero_over_zero_as_one():
    check = verify_bound([7.0, 0.0, 1.0, 3.0, 0.0], [1.0, 0.0, 2.0, 1.0, 4.0], start=2)
    assert check.margins.tolist() == [1.0, 0.5, 3.0, 0.0]
    assert (check.worst_margin, check.worst_margin_iteration) == (3.0, 4)
    assert not check.holds


def test_pgs_spec_and_cauchy_index_refuse_non_finite_inputs():
    for peak0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="peak0 must be finite and positive"):
            PgsSpec(beta=0.5, peak0=peak0, chunk_starts=(1,))
    spec = PgsSpec(beta=0.5, peak0=1.0, chunk_starts=(1,))
    for epsilon in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            cauchy_index(spec, epsilon)
