"""Piecewise geometric envelopes for residual traces of the adaptive loop.

A piecewise geometric sequence (PGS) with rate beta in (0, 1) and chunk
start indices n_1 < n_2 < ... is a positive sequence whose terms inside
chunk j (indices n_j + 1 .. n_{j+1}) decay geometrically at rate beta, and
whose chunk-leading peaks y_{n_j + 1} = A * beta^(j-1) are themselves
geometric.  The first n_1 terms are unconstrained (the "head").  Such a
sequence is summable, which is what makes it useful as an upper envelope:
a residual sequence dominated by a PGS has summable tail, hence the iterate
sequence is Cauchy.

Traces fall into three classes by their condition flags:

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
holds its columns, and the envelope code reads it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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
        if self.peak0 <= 0:
            raise ValueError("peak0 must be positive")
        starts = tuple(int(n) for n in self.chunk_starts)
        if not starts:
            raise ValueError("chunk_starts must be non-empty")
        if starts[0] < 1:
            raise ValueError("chunk starts must be positive integers")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("chunk_starts must be strictly increasing")
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


def cauchy_index(
    peak0: float, beta: float, epsilon: float, chunk_starts: Sequence[int]
) -> CauchyCertificate:
    """Find the chunk count K and start index N certifying tail sums < epsilon.

    K is the closed form 1 + log(threshold) / log(beta), nudged to the
    smallest K with beta^(K-1) < threshold; past the listed starts the
    chunks have unit length.
    """
    if not (0 < beta < 1):
        raise ValueError("beta must be in (0, 1)")
    if peak0 <= 0 or epsilon <= 0:
        raise ValueError("peak0 and epsilon must be positive")
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
    return CauchyCertificate(
        epsilon=epsilon,
        k_index=k,
        n_start=n_k + 1,
        tail_bound=peak0 * beta ** (k - 1) / (1.0 - beta) ** 2,
    )


class ConditionFlag(enum.Enum):
    C1 = "C1"  # residual ratio >= eta: penalty raised
    C2 = "C2"  # residual ratio < eta: penalty held

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ConditionTrace:
    """The trace of a run, one column per quantity.

    deltas[i], rhos[i], sigmas[i] and fidelity_values[i] are the residual,
    post-update penalty (the one the next iteration uses), denoising
    strength sqrt(lambda / rhos[i]) and data term f(x) of iteration i+1;
    sigmas and fidelity_values are only reported.  flags[i] is the
    condition observed at iteration i+1, i.e. C1 iff deltas[i+1] >=
    eta * deltas[i], and it set rhos[i+1].  The first residual has no
    predecessor, so a trace of n iterations carries n-1 flags;
    :attr:`row_flags` lists them by iteration, as trace.csv does.
    """

    deltas: np.ndarray
    rhos: np.ndarray
    sigmas: np.ndarray
    flags: tuple[ConditionFlag, ...]
    fidelity_values: np.ndarray
    gamma: float
    eta: float

    def __post_init__(self):
        for name in ("deltas", "rhos", "sigmas", "fidelity_values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "flags", tuple(self.flags))

    def __len__(self):
        return self.deltas.size

    @property
    def row_flags(self) -> tuple[ConditionFlag | None, ...]:
        """One entry per iteration: None at iteration 1, then at iteration
        k >= 2 the flag flags[k - 2] that set rhos[k - 1]."""
        return (None, *self.flags)

    def validate(self) -> None:
        """Check structural invariants; raise TraceInvariantError on failure."""
        n = len(self)
        for name in ("rhos", "sigmas", "fidelity_values"):
            if getattr(self, name).size != n:
                raise TraceInvariantError(f"deltas and {name} must have equal length")
        if len(self.flags) != n - 1:
            raise TraceInvariantError(
                f"expected {n - 1} condition flags for {n} iterations, "
                f"got {len(self.flags)}"
            )
        if np.any(self.deltas < 0) or not np.all(np.isfinite(self.deltas)):
            raise TraceInvariantError("residuals must be finite and nonnegative")
        if np.any(self.rhos <= 0):
            raise TraceInvariantError("penalties must be positive")
        if not (0 < self.eta < 1) or self.gamma <= 1:
            raise TraceInvariantError("need gamma > 1 and eta in (0, 1)")
        for i, flag in enumerate(self.flags):
            expected = (
                ConditionFlag.C1
                if self.deltas[i + 1] >= self.eta * self.deltas[i]
                else ConditionFlag.C2
            )
            if flag != expected:
                raise TraceInvariantError(
                    f"flag at iteration {i + 1} is {flag}, inconsistent with "
                    f"residuals and eta"
                )
            factor = self.gamma if flag == ConditionFlag.C1 else 1.0
            if not math.isclose(
                self.rhos[i + 1], factor * self.rhos[i], rel_tol=1e-12
            ):
                raise TraceInvariantError(
                    f"penalty at iteration {i + 2} inconsistent with flag "
                    f"at iteration {i + 1}"
                )


def alternation_boundaries(
    flags: Sequence[ConditionFlag],
) -> tuple[list[int], list[int]]:
    """C1-onset iterations n_j and the C2 onsets m_j that follow each.

    Returned indices are 1-based iteration numbers; flags[i] is the
    condition at iteration i+1.
    """
    ns: list[int] = []
    ms: list[int] = []
    want_c1 = True
    for i, flag in enumerate(flags):
        if want_c1 and flag == ConditionFlag.C1:
            ns.append(i + 1)
            want_c1 = False
        elif not want_c1 and flag == ConditionFlag.C2:
            ms.append(i + 1)
            want_c1 = True
    return ns, ms


def estimate_growth_coefficient(trace: ConditionTrace) -> float:
    """Smallest c with delta_{k+1} <= c / sqrt(rho_k) at every C1 iteration.

    Computed as the max of delta_{k+1} * sqrt(rho_k) over C1 iterations, so
    the per-C1-iteration bound holds by construction; the substantive check
    is whether the envelope built from it also covers the C2 stretches.
    """
    best = None
    for i, flag in enumerate(trace.flags):
        if flag == ConditionFlag.C1:
            value = trace.deltas[i + 1] * math.sqrt(trace.rhos[i])
            best = value if best is None else max(best, value)
    if best is None:
        raise BoundConstructionError(
            "growth coefficient undefined on this trace: no C1 iterations"
        )
    return float(best)


def construct_s3_bound(trace: ConditionTrace, c: float | None) -> PgsSpec:
    """Build the PGS envelope of an alternating trace.

    Uses rate beta = max(1/sqrt(gamma), eta), first peak c / sqrt(rho_{n_1})
    and one chunk per C1 onset; the head copies the observed residuals up to
    n_1.  With c at least the true growth coefficient the envelope dominates
    the residuals from iteration n_1 + 1 = chunk_starts[0] + 1 on.
    """
    ns, _ = alternation_boundaries(trace.flags)
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
    (c / sqrt(rho_t)) * (1/sqrt(gamma))^(k - t); for a C2 tail it is the
    eta-decay chained from the anchor residual at t (itself bounded through
    c when a C1 iteration precedes the tail).  Either is a PGS with the one
    listed chunk start t, head delta_1 .. delta_t and unit chunks after it.
    """
    flags = trace.flags
    if not flags:
        raise BoundConstructionError(
            "insufficient iterations for bound construction"
        )
    last = flags[-1]
    i = len(flags) - 1
    while i > 0 and flags[i - 1] == last:
        i -= 1
    t = i + 1  # iteration where the final single-condition run starts
    if last == ConditionFlag.C1:
        if c is None:
            raise ValueError("c is required for a C1 tail")
        rate = 1.0 / math.sqrt(trace.gamma)
        scale = (c / math.sqrt(trace.rhos[t - 1])) * rate ** (-t)
    else:
        rate = trace.eta
        if t >= 2 and c is not None:
            anchor = c / math.sqrt(trace.rhos[t - 2])
        else:
            anchor = float(trace.deltas[t - 1])
        scale = anchor * rate ** (1 - t)
    # delta_k <= scale * rate^(k-1) for k > t; the first peak is its value at
    # k = t + 1, taken through numpy's power as pgs_generate takes its terms
    peak0 = float((scale * rate ** np.array([t]))[0])
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
    if len(trace.flags) < window:
        raise ValueError(
            f"trace has {len(trace.flags)} flags, need at least window={window}"
        )
    tail = trace.flags[-window:]
    has_c1 = ConditionFlag.C1 in tail
    has_c2 = ConditionFlag.C2 in tail
    if has_c1 and has_c2:
        return "S3-like"
    return "S1-like" if has_c1 else "S2-like"


# verify_bound forgives this relative excess of a residual over its bound
VERIFY_REL_SLACK = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    worst_margin: float
    worst_margin_iteration: int


def verify_bound(
    deltas: Sequence[float],
    bound: Sequence[float],
    start: int,
) -> BoundCheck:
    """Check delta_k <= y_k * (1 + VERIFY_REL_SLACK) for every k >= start.

    Both sequences are indexed from k = 1; worst_margin is the largest
    observed ratio delta_k / y_k over the checked range, and
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
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where((y == 0) & (d == 0), 1.0, d / y)
    worst = int(np.argmax(ratios))
    return BoundCheck(
        holds=bool(np.all(d <= y * (1.0 + VERIFY_REL_SLACK))),
        worst_margin=float(ratios[worst]),
        worst_margin_iteration=start + worst,
    )
