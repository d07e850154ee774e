"""Plug-and-play ADMM with a residual-driven penalty schedule.

One iteration at penalty rho and denoising strength sigma = sqrt(lambda/rho):

    x' = argmin_x f(x) + (rho/2) ||x - (v - u)||^2
    v' = D_sigma(x' + u)
    u' = u + x' - v'

The progress residual delta_k is the triple metric between consecutive
iterates.  After each iteration (from the second one on) the penalty is
updated: if the new residual failed to drop below eta times the previous one
(condition C1) the penalty is raised by the factor gamma, otherwise it is
held (condition C2).  The very first update has no previous residual to
compare against, so the penalty is held.

The run returns its trace as a :class:`~pnpadmm.sequences.ConditionTrace`:
per iteration k the residual delta_k, the post-update penalty rho_k (the
one the next iteration will use), sigma_k = sqrt(lambda/rho_k) and the data
term f(x_k).  The flag of each update is not kept: the trace derives it
from the residuals and eta by the same comparison :func:`update_rho` makes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .denoisers import Denoiser, denoise
from .fidelity import FidelityTerm, PenaltyOverflowError, prox_x_update
from .linalg import IterateTriple, NonFiniteIterateError, as_vector, metric_distance
from .sequences import ConditionFlag, ConditionTrace


@dataclass(frozen=True)
class StepInfo:
    """The x-update of one iteration: its penalty rho, target t = v - u and
    the data term f(x') of the new iterate, read off the solve's own Hx'.

    The update's optimality condition gives the data-term gradient at the
    new iterate for free: grad f(x') = rho (t - x').
    """

    rho: float
    target: np.ndarray
    fidelity_value: float


Observer = Callable[[FidelityTerm, IterateTriple, StepInfo | None], None]


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the loop and its penalty schedule.

    lam is the regularization strength, rho0 the initial penalty, gamma > 1
    the penalty growth factor, and eta in (0, 1) the residual-ratio
    threshold.  delta_tol stops the run early once the residual falls below
    it; max_iter always bounds the run since no convergence rate is
    guaranteed.  Every float setting must be finite, and lam / rho0, the
    square of the first denoising strength, finite and positive.
    """

    lam: float
    rho0: float
    gamma: float
    eta: float
    max_iter: int
    delta_tol: float = 1e-6

    def __post_init__(self):
        for name in ("lam", "rho0", "gamma", "delta_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        if not 0 < self.lam / self.rho0 < math.inf:
            raise ValueError(
                f"lam / rho0 must be finite and positive, got {self.lam} / {self.rho0}"
            )
        if self.gamma <= 1:
            raise ValueError("gamma must be > 1")
        if not (0 < self.eta < 1):
            raise ValueError("eta must be in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.delta_tol < 0:
            raise ValueError("delta_tol must be >= 0")


@dataclass
class RunTrace:
    """The condition trace plus the final state of a run."""

    condition_trace: ConditionTrace
    final_iterate: IterateTriple
    stop_reason: str  # "tolerance" | "fixed_point" | "penalty_limit" | "max_iter"

    def __len__(self):
        return len(self.condition_trace)


def update_rho(
    rho: float, delta_next: float, delta_prev: float, cfg: SolverConfig
) -> tuple[float, ConditionFlag]:
    """One penalty update: grow by cfg.gamma on C1, hold on C2.

    C1 fires when delta_next >= cfg.eta * delta_prev (boundary equality
    counts as C1).
    """
    if delta_next < 0 or delta_prev < 0:
        raise ValueError("residuals must be nonnegative")
    if delta_next >= cfg.eta * delta_prev:
        return cfg.gamma * rho, ConditionFlag.C1
    return rho, ConditionFlag.C2


def step(
    f: FidelityTerm,
    kind: Denoiser,
    rho: float,
    sigma: float,
    theta: IterateTriple,
) -> tuple[IterateTriple, StepInfo]:
    """One plug-and-play iteration at fixed (rho, sigma): the new iterate and
    the x-update that produced it."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    target = theta.v - theta.u
    x_new, value = prox_x_update(f, rho, target)
    noisy = x_new + theta.u
    v_new = denoise(kind, sigma, noisy)
    u_new = noisy - v_new
    return IterateTriple(x=x_new, v=v_new, u=u_new), StepInfo(rho, target, value)


def run(
    f: FidelityTerm,
    kind: Denoiser,
    cfg: SolverConfig,
    theta0: IterateTriple,
    observe: Observer | None = None,
) -> RunTrace:
    """Run the loop from theta0 until it stops, for one of four reasons:

    - "tolerance": delta < delta_tol;
    - "fixed_point": delta = 0 exactly, so the step returned its own input;
      the penalty is held after it (0 < eta * delta_prev), so one more step
      would return it again;
    - "penalty_limit": the penalty update after iteration k would make rho
      infinite or sigma = sqrt(lam / rho) zero, which no step can use, or
      iteration k's x-update overflowed at its finite rho (PenaltyOverflowError);
      iteration k is not recorded, so the final iterate is the one the last
      row's rho and sigma step from.  An overflow at iteration 1, which
      leaves no row, raises NonFiniteIterateError naming the penalty;
    - "max_iter".

    Deterministic given (f, kind, cfg, theta0).  The run keeps only the
    current iterate; observe, if given, is called as observe(f, theta, None)
    with the start iterate and then as observe(f, theta, info) after each
    iteration's trace entries are appended, where info is the StepInfo of
    the x-update that produced theta (its rho is the penalty the step used,
    not the trace's post-update one).  A caller can so stream statistics of
    every iterate in O(d) memory, the data-term gradient included; the
    trace itself keeps four floats per row, O(max_iter).

    theta0 must hold images of the operator's input shape.  It is checked
    for finite entries and copied once, and the run drops its reference to
    it: a caller that keeps none frees it before the first observe call.
    Inside the loop a NaN entry makes the residual NaN, and an infinite one
    makes the next prox target non-finite; either raises
    NonFiniteIterateError naming the iteration.  An infinite residual alone
    is recorded as it is: huge but finite iterates can overflow the norm,
    f(x) or the observer's statistics, so overflow is ignored from the
    first observe call to the last step.
    """
    theta = IterateTriple(
        *(as_vector(getattr(theta0, n), "theta0", f.op.in_shape).copy() for n in ("x", "v", "u"))
    )
    del theta0
    rho = cfg.rho0
    sigma = math.sqrt(cfg.lam / rho)
    deltas, rhos, sigmas, values = [], [], [], []  # floats, one per iteration
    stop_reason = "max_iter"
    with np.errstate(over="ignore"):
        if observe is not None:
            observe(f, theta, None)
        for k in range(1, cfg.max_iter + 1):
            try:
                theta_next, info = step(f, kind, rho, sigma, theta)
            except NonFiniteIterateError as exc:
                if isinstance(exc, PenaltyOverflowError) and deltas:
                    stop_reason = "penalty_limit"
                    break
                raise NonFiniteIterateError(
                    f"non-finite iterate at iteration {k}: {exc}"
                ) from exc
            delta = metric_distance(theta, theta_next)
            if math.isnan(delta):
                raise NonFiniteIterateError(f"non-finite iterate at iteration {k}")
            rho_next = rho
            if deltas:  # the first update has no previous residual; hold rho
                rho_next, _ = update_rho(rho, delta, deltas[-1], cfg)
            sigma_next = math.sqrt(cfg.lam / rho_next)
            if sigma_next == 0.0:  # rho_next is inf, or lam / rho_next underflows
                stop_reason = "penalty_limit"
                break
            theta, rho, sigma = theta_next, rho_next, sigma_next
            deltas.append(delta)
            rhos.append(rho)
            sigmas.append(sigma)
            values.append(info.fidelity_value)
            if observe is not None:
                observe(f, theta, info)
            if delta < cfg.delta_tol:
                stop_reason = "tolerance"
                break
            if delta == 0.0:
                stop_reason = "fixed_point"
                break
    trace = ConditionTrace(deltas, rhos, sigmas, values, cfg.gamma, cfg.eta)
    return RunTrace(trace, theta, stop_reason)


def fixed_point_residual(f: FidelityTerm, kind: Denoiser, trace: RunTrace) -> float:
    """Distance between the final iterate and one more frozen-parameter step;
    inf, silently, if it overflows, the step's x-update included."""
    cond = trace.condition_trace
    rho, sigma = float(cond.rhos[-1]), float(cond.sigmas[-1])
    with np.errstate(over="ignore"):
        try:
            theta_next, _ = step(f, kind, rho, sigma, trace.final_iterate)
        except PenaltyOverflowError:
            return math.inf
        return metric_distance(trace.final_iterate, theta_next)
