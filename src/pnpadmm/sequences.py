"""Piecewise geometric envelopes for residual traces of the adaptive loop.

A piecewise geometric sequence (PGS) with rate beta in (0, 1) and chunk
start indices n_1 < n_2 < ... is a positive sequence whose terms inside
chunk j (indices n_j + 1 .. n_{j+1}) decay geometrically at rate beta, and
whose chunk-leading peaks y_{n_j + 1} = A * beta^(j-1) are themselves
geometric.  The first n_1 terms are unconstrained (the "head").  Such a
sequence is summable, which is what makes it useful as an upper envelope:
a residual sequence dominated by a PGS has summable tail, hence the iterate
sequence is Cauchy.

Traces fall into three classes by their condition flags (ConditionTrace.c1):

  S1-like: the penalty is eventually always raised (no C2 in the tail);
           the residual is eventually bounded by A * beta^k with
           beta = 1/sqrt(gamma).
  S2-like: the penalty is eventually always held (no C1 in the tail);
           the residual is eventually bounded by A * eta^k.
  S3-like: raises and holds keep alternating; the residual is bounded by a
           PGS with beta = max(1/sqrt(gamma), eta), with one chunk per
           C1 onset.

A finite trace can never settle which class an infinite run belongs to, so
all classification here is explicitly heuristic.

:class:`ConditionTrace` is the one trace type: the run builds it, trace.csv
holds its columns and its flags, :meth:`ConditionTrace.from_columns` reads
them back (recovering a gamma and eta not given), and the envelope code
reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


class TraceInvariantError(ValueError):
    """A condition trace violates one of its structural invariants."""


class BoundConstructionError(ValueError):
    """The requested envelope cannot be built from this trace."""


@dataclass(frozen=True)
class PgsSpec:
    """Defining data of a PGS: rate, first peak, chunk starts, head terms.

    head, when given, must hold exactly the first chunk_starts[0] terms;
    when omitted those terms default to peak0.  chunk_starts may be a finite
    prefix: generation extends it with unit-length chunks, which continues
    the sequence as a plain geometric tail at rate beta.
    """

    beta: float
    peak0: float
    chunk_starts: tuple[int, ...]
    head: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (0 < self.beta < 1):
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0 < self.peak0 < math.inf:
            raise ValueError(f"peak0 must be finite and positive, got {self.peak0}")
        starts = tuple(int(n) for n in self.chunk_starts)
        if not starts:
            raise ValueError("chunk_starts must be non-empty")
        if starts[0] < 1:
            raise ValueError("chunk starts must be positive integers")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("chunk_starts must be strictly increasing")
        if starts[-1] > np.iinfo(np.int64).max:
            raise ValueError(f"chunk start {starts[-1]} exceeds the int64 limit 2**63 - 1")
        object.__setattr__(self, "chunk_starts", starts)
        if self.head is not None:
            head = tuple(float(t) for t in self.head)
            if len(head) != starts[0]:
                raise ValueError(
                    f"head must hold the first n_1 = {starts[0]} terms, "
                    f"got {len(head)}"
                )
            if any(t < 0 for t in head):
                raise ValueError("head terms must be nonnegative")
            object.__setattr__(self, "head", head)

    @property
    def head_terms(self) -> tuple[float, ...]:
        if self.head is not None:
            return self.head
        return (self.peak0,) * self.chunk_starts[0]


def pgs_generate(spec: PgsSpec, length: int) -> np.ndarray:
    """First ``length`` terms y_1 .. y_length of the sequence.

    Term k in chunk j is peak0 * beta^(j - 1) * beta^(k - n_j - 1); head
    terms are copied verbatim.  Past the last listed start the chunks have
    unit length, and there the last listed chunk's exponent already equals
    theirs, so indices beyond it stay in that chunk.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    y = np.empty(length)
    n1 = spec.chunk_starts[0]
    used = min(n1, length)
    y[:used] = spec.head_terms[:used]
    if length <= n1:
        return y
    starts = np.asarray(spec.chunk_starts)
    ks = np.arange(n1 + 1, length + 1)
    j = np.searchsorted(starts, ks) - 1  # 0-based chunk: n_j < k <= n_{j+1}
    y[n1:] = spec.peak0 * spec.beta ** (j + ks - starts[j] - 1)
    return y


def pgs_chunk_sum_bound(spec: PgsSpec, j: int) -> float:
    """Closed-form bound peak0 * beta^(j-1) / (1 - beta) on the chunk-j sum.

    The actual chunk sum is a finite geometric series and sits strictly
    below this value.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    return spec.peak0 * spec.beta ** (j - 1) / (1.0 - spec.beta)


def pgs_total_sum_bound(spec: PgsSpec) -> float:
    """Bound on the full series: head sum plus peak0 / (1 - beta)^2.

    Rounded up: the float closed form is raised by a relative slack of
    16 eps (3.6e-15).  That covers the few roundings of the closed form
    itself and those of each term :func:`pgs_generate` computes (about
    6 eps together), so the exact sum of any prefix of those terms stays
    at or below the returned value even when the series sits within an ulp
    of its limit (small beta).
    """
    bound = math.fsum(spec.head_terms) + spec.peak0 / (1.0 - spec.beta) ** 2
    return bound * (1.0 + 16 * math.ulp(1.0))


@dataclass(frozen=True)
class CauchyCertificate:
    """Explicit tail-sum control for a PGS.

    k_index is the smallest positive integer K with
    beta^(K-1) < epsilon * (1-beta)^2 / peak0, and n_start = n_K + 1.  Every
    sum of consecutive terms from n_start onward stays below tail_bound =
    peak0 * beta^(K-1) / (1-beta)^2 < epsilon.
    """

    epsilon: float
    k_index: int
    n_start: int
    tail_bound: float


def cauchy_index(spec: PgsSpec, epsilon: float) -> CauchyCertificate:
    """Find the chunk count K and start index N certifying tail sums < epsilon.

    K is the closed form 1 + log(threshold) / log(beta), nudged to the
    smallest K with beta^(K-1) < threshold; past the listed starts the
    chunks have unit length.  A threshold or tail bound that underflows to
    zero is refused: no positive tail sum meets a bound of 0.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    beta, peak0, chunk_starts = spec.beta, spec.peak0, spec.chunk_starts
    threshold = epsilon * (1.0 - beta) ** 2 / peak0
    if not threshold > 0:
        raise ValueError("epsilon * (1 - beta)^2 / peak0 underflows to zero")
    k = 1
    if threshold <= 1:
        k = max(1, math.ceil(1.0 + math.log(threshold) / math.log(beta)))
    while k > 1 and beta ** (k - 2) < threshold:
        k -= 1
    while beta ** (k - 1) >= threshold:
        k += 1
    m = len(chunk_starts)
    n_k = chunk_starts[k - 1] if k <= m else chunk_starts[-1] + (k - m)
    tail_bound = peak0 * beta ** (k - 1) / (1.0 - beta) ** 2
    if not tail_bound > 0:
        raise ValueError(
            f"tail bound peak0 * beta^(K-1) / (1 - beta)^2 at K = {k} underflows to zero")
    return CauchyCertificate(epsilon=epsilon, k_index=k, n_start=n_k + 1, tail_bound=tail_bound)


@dataclass(frozen=True)
class ConditionTrace:
    """The trace of a run, one column per quantity.

    deltas[i], rhos[i], sigmas[i] and fidelity_values[i] are the residual,
    post-update penalty (the one the next iteration uses), denoising
    strength sqrt(lambda / rhos[i]) and data term f(x) of iteration i+1;
    sigmas and fidelity_values are only reported; the condition flags are
    derived from the residuals and eta, :attr:`c1`.
    """

    deltas: np.ndarray
    rhos: np.ndarray
    sigmas: np.ndarray
    fidelity_values: np.ndarray
    gamma: float
    eta: float

    def __post_init__(self):
        for name in ("deltas", "rhos", "sigmas", "fidelity_values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def __len__(self):
        return self.deltas.size

    @property
    def c1(self) -> np.ndarray:
        """The n - 1 flags, True for C1: c1[i] is deltas[i+1] >= eta *
        deltas[i], the condition at iteration i+1, which set rhos[i+1];
        trace.csv prints it on row i + 2, beside that penalty.  Derived on
        each access, so validate refuses a bad eta before it is multiplied."""
        return self.deltas[1:] >= self.eta * self.deltas[:-1]

    @classmethod
    def from_columns(
        cls, deltas, rhos, sigmas, fidelity_values, flags: np.ndarray,
        gamma: float | None = None, eta: float | None = None,
    ) -> tuple[ConditionTrace, bool]:
        """The validated trace of recorded columns (``fileio.parse_trace``'s
        keywords; flags are the recorded C1 flags), and whether gamma was
        assumed.

        The columns are checked before any is divided.  A missing gamma is
        the penalty ratio at the first C1 flag, refused by name unless > 1
        and finite; with no C1 flag nothing constrains it and 2 is assumed.
        A missing eta is the tightest threshold that reproduces the flags,
        the min C1 residual ratio: any eta in (max C2 ratio, min C1 ratio]
        does, and the upper end only enlarges the envelopes.  It is stepped
        down while rounding makes a C1 flag fail the product test of
        :attr:`c1`; a ratio past the float range is inf, which no eta in
        (0, 1) can be.
        """
        trace = cls(deltas, rhos, sigmas, fidelity_values, math.nan, math.nan)
        trace._check_columns(flags)
        at_c1 = np.flatnonzero(flags)
        assumed = gamma is None and not at_c1.size
        if assumed:
            gamma = 2.0
        elif gamma is None:
            i = int(at_c1[0])
            gamma = float(trace.rhos[i + 1]) / float(trace.rhos[i])
            if not 1 < gamma < math.inf:
                raise TraceInvariantError(
                    f"inferred gamma = {gamma:g} (penalty at iteration {i + 2} over "
                    f"iteration {i + 1}); need gamma > 1 and eta in (0, 1)"
                )
        if eta is None:
            d_prev, d_next = trace.deltas[:-1], trace.deltas[1:]
            positive = d_prev > 0
            c1, c2 = flags & positive, ~flags & positive
            with np.errstate(over="ignore"):
                eta = float(np.min(d_next[c1] / d_prev[c1], initial=math.inf))
                worst_c2 = float(np.max(d_next[c2] / d_prev[c2], initial=0.0))
            if 0 < eta < 1:
                while np.any(eta * d_prev[c1] > d_next[c1]):
                    eta = float(np.nextafter(eta, 0.0))
            else:
                # nothing bounds eta from above; any valid value at least as
                # large as every C2 ratio reproduces the flags
                eta = min(0.5 * (worst_c2 + 1.0) if worst_c2 > 0 else 0.5, 1.0 - 1e-9)
        trace = replace(trace, gamma=gamma, eta=eta)
        trace.validate(flags)
        return trace, assumed

    def _check_columns(self, flags: np.ndarray | None) -> None:
        """The checks of the columns alone, and of the recorded flags' count."""
        n = len(self)
        for name in ("rhos", "sigmas", "fidelity_values"):
            if getattr(self, name).size != n:
                raise TraceInvariantError(f"deltas and {name} must have equal length")
        if flags is not None and len(flags) != n - 1:
            raise TraceInvariantError(
                f"expected {n - 1} condition flags for {n} iterations, "
                f"got {len(flags)}"
            )
        if not np.all((self.deltas >= 0) & (self.deltas < math.inf)):
            raise TraceInvariantError("residuals must be finite and nonnegative")
        if not np.all((self.rhos > 0) & (self.rhos < math.inf)):
            raise TraceInvariantError("penalties must be positive and finite")

    def validate(self, flags: np.ndarray | None = None) -> None:
        """Check structural invariants; raise TraceInvariantError on failure.

        Every penalty must be gamma times (C1) or equal to (C2) the previous
        one up to a relative 1e-12, as :func:`math.isclose` reads it.  flags,
        when given, are recorded C1 flags (a bool array, as trace.csv's
        condition column parses), and each must match :attr:`c1`.  The error
        names the first row where either fails, its flag before its penalty.
        """
        self._check_columns(flags)
        if not (0 < self.eta < 1) or not (1 < self.gamma < math.inf):
            raise TraceInvariantError("need gamma > 1 and eta in (0, 1)")
        c1, rhos = self.c1, self.rhos
        with np.errstate(over="ignore"):
            want = np.where(c1, self.gamma, 1.0) * rhos[:-1]
        diff = np.abs(rhos[1:] - want)
        # a want that overflowed to inf leaves diff = inf, which no tolerance forgives
        bad = ~(np.isfinite(diff) & (diff <= 1e-12 * np.maximum(want, rhos[1:])))
        if flags is not None:
            # up to the first bad flag the derived flags are the recorded ones
            bad |= flags != c1
        bad = np.flatnonzero(bad)
        if bad.size == 0:
            return
        i = int(bad[0])
        if flags is not None and flags[i] != c1[i]:
            raise TraceInvariantError(
                f"flag at iteration {i + 2} is {'C1' if flags[i] else 'C2'}, "
                f"inconsistent with residuals and eta"
            )
        raise TraceInvariantError(
            f"penalty at iteration {i + 2} inconsistent with flag at iteration {i + 2}"
        )


def alternation_boundaries(c1: np.ndarray) -> list[int]:
    """C1-onset iterations n_j: the rising edges of the bool flags c1, with
    False before them.

    Returned indices are 1-based iteration numbers; c1[i] is the condition
    at iteration i+1.
    """
    before = np.concatenate(([False], c1[:-1]))
    return (np.flatnonzero(c1 & ~before) + 1).tolist()


def estimate_growth_coefficient(trace: ConditionTrace) -> float:
    """Smallest c with delta_{k+1} <= c / sqrt(rho_k) at every C1 iteration.

    Computed as the max of delta_{k+1} * sqrt(rho_k) over C1 iterations, so
    the per-C1-iteration bound holds by construction; the substantive check
    is whether the envelope built from it also covers the C2 stretches.
    """
    c1 = trace.c1
    if not c1.any():
        raise BoundConstructionError(
            "growth coefficient undefined on this trace: no C1 iterations"
        )
    with np.errstate(over="ignore"):
        c = float(np.max(trace.deltas[1:][c1] * np.sqrt(trace.rhos[:-1][c1])))
    if c == math.inf:
        raise BoundConstructionError("growth coefficient past the float range")
    return c


def construct_s3_bound(trace: ConditionTrace, c: float | None) -> PgsSpec:
    """Build the PGS envelope of an alternating trace.

    Uses rate beta = max(1/sqrt(gamma), eta), first peak c / sqrt(rho_{n_1})
    and one chunk per C1 onset; the head copies the observed residuals up to
    n_1.  With c at least the true growth coefficient the envelope dominates
    the residuals from iteration n_1 + 1 = chunk_starts[0] + 1 on.
    """
    ns = alternation_boundaries(trace.c1)
    if len(ns) < 2:
        raise BoundConstructionError(
            "trace is S1/S2-like (fewer than two C1 onsets); "
            "use the geometric bound"
        )
    if c is None or c <= 0:
        raise ValueError("c must be positive")
    beta = max(1.0 / math.sqrt(trace.gamma), trace.eta)
    n1 = ns[0]
    peak0 = c / math.sqrt(trace.rhos[n1 - 1])
    head = tuple(float(d) for d in trace.deltas[:n1])
    return PgsSpec(beta=beta, peak0=peak0, chunk_starts=tuple(ns), head=head)


def construct_s12_bound(trace: ConditionTrace, c: float | None) -> PgsSpec:
    """Build the geometric bound for a trace with a single-condition tail.

    For a tail of C1 flags starting at iteration t the bound is
    (c / sqrt(rho_t)) * (1/sqrt(gamma))^(k - t - 1); for a C2 tail it is the
    eta-decay chained from the anchor residual at t (itself bounded through
    c when a C1 iteration precedes the tail), eta * anchor * eta^(k - t - 1).
    Either is a PGS with that first peak at k = t + 1, the one listed chunk
    start t, head delta_1 .. delta_t and unit chunks after it.
    """
    c1 = trace.c1
    if not c1.size:
        raise BoundConstructionError(
            "insufficient iterations for bound construction"
        )
    last = c1[-1]
    switches = np.flatnonzero(c1 != last)
    t = int(switches[-1]) + 2 if switches.size else 1  # final run's first iteration
    if last:
        if c is None:
            raise ValueError("c is required for a C1 tail")
        rate = 1.0 / math.sqrt(trace.gamma)
        peak0 = c / math.sqrt(trace.rhos[t - 1])
    else:
        rate = trace.eta
        if t >= 2 and c is not None:
            anchor = c / math.sqrt(trace.rhos[t - 2])
        else:
            anchor = float(trace.deltas[t - 1])
        peak0 = rate * anchor
    head = tuple(float(d) for d in trace.deltas[:t])
    return PgsSpec(beta=rate, peak0=peak0, chunk_starts=(t,), head=head)


CLASSIFY_CAVEAT = (
    "finite-horizon classification is heuristic: a finite trace cannot "
    "settle which conditions occur infinitely often"
)


def classify_case(trace: ConditionTrace, window: int) -> str:
    """Label the trace by the flags in its final window: "S1-like" if the
    window holds no C2, "S2-like" if it holds no C1, "S3-like" otherwise.
    The label is a guess; see CLASSIFY_CAVEAT.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    c1 = trace.c1
    if c1.size < window:
        raise ValueError(
            f"trace has {c1.size} flags, need at least window={window}"
        )
    tail = c1[-window:]
    has_c1 = bool(tail.any())
    has_c2 = not tail.all()
    if has_c1 and has_c2:
        return "S3-like"
    return "S1-like" if has_c1 else "S2-like"


# verify_bound forgives this relative excess of a residual over its bound
VERIFY_REL_SLACK = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """margins[i] is delta_k / y_k at k = start + i, with 0/0 read as 1."""

    holds: bool
    worst_margin: float
    worst_margin_iteration: int
    margins: np.ndarray


def verify_bound(
    deltas: Sequence[float],
    bound: Sequence[float],
    start: int,
) -> BoundCheck:
    """Check delta_k <= y_k * (1 + VERIFY_REL_SLACK) for every k >= start.

    Both sequences are indexed from k = 1; margins holds the ratio
    delta_k / y_k of every checked k, worst_margin the largest of them and
    worst_margin_iteration the first k where it occurs.
    """
    d = np.asarray(deltas, dtype=float)
    y = np.asarray(bound, dtype=float)
    if d.size != y.size:
        raise ValueError("deltas and bound must have equal length")
    if not (1 <= start <= d.size):
        raise ValueError(f"start must be in [1, {d.size}]")
    d = d[start - 1 :]
    y = y[start - 1 :]
    # a bound near the float range may overflow to inf under the slack
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.where((y == 0) & (d == 0), 1.0, d / y)
        holds = bool(np.all(d <= y * (1.0 + VERIFY_REL_SLACK)))
    worst = int(np.argmax(ratios))
    return BoundCheck(
        holds=holds,
        worst_margin=float(ratios[worst]),
        worst_margin_iteration=start + worst,
        margins=ratios,
    )
