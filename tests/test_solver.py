import math

import numpy as np
import pytest

from oracles import straight_line_step

from pnpadmm.denoisers import GaussianSmoothing, IdentityDenoiser
from pnpadmm.fidelity import (
    CircularBlur,
    Downsample,
    FidelityTerm,
    Identity,
    Mask,
    binomial_stencil,
    prox_x_update,
)
from pnpadmm.fileio import ImageGrid
from pnpadmm.linalg import IterateTriple, metric_distance
from pnpadmm.sequences import ConditionFlag
from pnpadmm.solver import (
    NonFiniteIterateError,
    SolverConfig,
    fixed_point_residual,
    run,
    step,
    update_rho,
)


def identity_problem(d, b=None):
    op = Identity(d)
    if b is None:
        b = np.zeros(d)
    return FidelityTerm(op=op, observation=np.asarray(b, dtype=float))


# gamma = 2, eta = 0.5
RULE = SolverConfig(lam=1.0, rho0=1.0, gamma=2.0, eta=0.5, max_iter=1)


def test_update_rho_growth_branch():
    assert update_rho(1.0, 0.6, 1.0, RULE) == (2.0, ConditionFlag.C1)


def test_update_rho_hold_branch():
    assert update_rho(1.0, 0.4, 1.0, RULE) == (1.0, ConditionFlag.C2)


def test_update_rho_boundary_counts_as_growth():
    rho, flag = update_rho(1.0, 0.5, 1.0, RULE)
    assert (rho, flag) == (2.0, ConditionFlag.C1)


def test_update_rho_rejects_bad_parameters():
    # gamma and eta are checked with the config (test_config_validation);
    # what is left to reject is a negative residual
    with pytest.raises(ValueError, match="nonnegative"):
        update_rho(1.0, -0.1, 0.2, RULE)
    with pytest.raises(ValueError, match="nonnegative"):
        update_rho(1.0, 0.1, -0.2, RULE)


def test_step_fixed_point_of_composition():
    # b = v0, u0 = 0, identity denoiser: x' = v0, v' = v0, u' = 0
    v0 = np.array([0.3, -1.2, 4.0])
    f = identity_problem(3, b=v0)
    theta = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros(3))
    out, _ = step(f, IdentityDenoiser(), rho=1.0, sigma=0.1, theta=theta)
    assert metric_distance(theta, out) <= 1e-14


def test_step_u_update_arithmetic():
    # forced by u' = u + x' - v' with an identity solve and a stub denoiser
    class ConstStub(IdentityDenoiser):
        def apply(self, sigma, a):
            return np.array([0.0, 1.0]).reshape(a.shape)

    f = identity_problem(2, b=np.array([1.0, 1.0]))
    theta = IterateTriple(x=[0.0, 0.0], v=[1.0, 1.0], u=[0.0, 0.0])
    out, _ = step(f, ConstStub(), rho=1e12, sigma=0.1, theta=theta)
    # x' ~ v - u = (1,1); v' = (0,1); u' = (1,0)
    assert np.allclose(out.x, [1.0, 1.0], atol=1e-9)
    assert np.array_equal(out.v, [0.0, 1.0])
    assert np.allclose(out.u, [1.0, 0.0], atol=1e-9)


class FlippedView(IdentityDenoiser):
    """Hands back its input upside down, as a view of the input's memory."""

    def apply(self, sigma, a):
        return a[::-1, ::-1]


@pytest.mark.parametrize("kind", [IdentityDenoiser(), FlippedView()], ids=["input", "view"])
def test_step_keeps_a_denoiser_output_that_aliases_its_input(kind):
    # u' may overwrite x' + u only when v' does not share its memory
    rng = np.random.default_rng(89)
    h, w = 3, 4
    f = FidelityTerm(op=Identity((h, w)), observation=rng.standard_normal(h * w))
    theta = IterateTriple(*rng.standard_normal((3, h * w)))
    got, _ = step(f, kind, rho=0.7, sigma=0.1, theta=theta)
    x_new, _ = prox_x_update(f, 0.7, theta.v - theta.u)
    noisy = x_new + theta.u
    v_new = kind.apply(0.1, noisy.copy().reshape(h, w)).reshape(-1)
    assert np.array_equal(got.x, x_new)
    assert np.array_equal(got.v, v_new)
    assert np.array_equal(got.u, noisy - v_new)


def test_step_matches_straight_line_oracle():
    rng = np.random.default_rng(83)
    op = CircularBlur((8, 8), binomial_stencil(3))
    b = rng.uniform(size=64)
    f = FidelityTerm(op=op, observation=b)
    theta = IterateTriple(
        x=rng.uniform(size=64), v=rng.uniform(size=64), u=0.1 * rng.standard_normal(64)
    )
    rho, sigma = 1.7, 0.08
    got, _ = step(f, GaussianSmoothing(), rho, sigma, theta)
    x_ref, v_ref, u_ref = straight_line_step(op, b, rho, sigma, theta.x, theta.v, theta.u)
    assert np.max(np.abs(got.x - x_ref)) < 1e-10
    assert np.max(np.abs(got.v - v_ref)) < 1e-10
    assert np.max(np.abs(got.u - u_ref)) < 1e-10


def base_config(**kw):
    defaults = dict(lam=0.01, rho0=1.0, gamma=1.2, eta=0.6, max_iter=40, delta_tol=1e-6)
    defaults.update(kw)
    return SolverConfig(**defaults)


def test_run_fixed_point_start_stops_immediately():
    v0 = np.array([2.0, -1.0])
    f = identity_problem(2, b=v0)
    theta0 = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros(2))
    trace = run(f, IdentityDenoiser(), base_config(delta_tol=1e-12), theta0)
    assert len(trace) == 1
    assert trace.condition_trace.deltas[0] <= 1e-14
    assert trace.stop_reason == "tolerance"
    assert trace.condition_trace.row_flags[0] is None


def test_run_stops_before_a_penalty_update_that_would_leave_sigma_zero():
    # gamma = 1e150 overflows rho on its third C1 update; that iteration is
    # dropped, so the last row's rho and sigma step from the final iterate
    rng = np.random.default_rng(113)
    op = CircularBlur((8, 8), binomial_stencil(2))
    f = FidelityTerm(op=op, observation=rng.uniform(size=64))
    x0 = op.apply_adjoint(f.observation)
    theta0 = IterateTriple(x=x0, v=x0.copy(), u=np.zeros(64))
    trace = run(f, GaussianSmoothing(), base_config(gamma=1e150, delta_tol=0.0), theta0)
    cond = trace.condition_trace
    assert trace.stop_reason == "penalty_limit"
    assert 3 <= len(trace) < 40
    assert cond.rhos[-1] == pytest.approx(1e300) and cond.sigmas[-1] > 0
    cond.validate()
    # one more step at the last row's rho and sigma can still be taken
    assert fixed_point_residual(f, GaussianSmoothing(), trace) > 0


def test_run_first_flag_appears_at_iteration_two():
    rng = np.random.default_rng(89)
    f = identity_problem(4, b=rng.standard_normal(4))
    theta0 = IterateTriple(
        x=rng.standard_normal(4), v=rng.standard_normal(4), u=np.zeros(4)
    )
    trace = run(f, IdentityDenoiser(), base_config(delta_tol=0.0, max_iter=10), theta0)
    flags = trace.condition_trace.row_flags
    assert flags[0] is None
    assert all(flag is not None for flag in flags[1:])


def test_run_trace_invariants_and_flag_consistency():
    rng = np.random.default_rng(97)
    op = CircularBlur((8, 8), binomial_stencil(2))
    b = rng.uniform(size=64)
    f = FidelityTerm(op=op, observation=b)
    theta0 = IterateTriple(x=b, v=b, u=np.zeros(64))
    cfg = base_config(eta=0.9, max_iter=30, delta_tol=0.0)
    trace = run(f, GaussianSmoothing(), cfg, theta0)
    cond = trace.condition_trace
    rhos = cond.rhos
    deltas = cond.deltas
    # sigma consistency
    for sigma, rho in zip(cond.sigmas, rhos):
        assert abs(sigma**2 * rho - cfg.lam) <= 1e-12 * cfg.lam
    # rho monotone with ratio 1 or gamma
    for a, bb in zip(rhos, rhos[1:]):
        ratio = bb / a
        assert ratio >= 1.0
        assert min(abs(ratio - 1.0), abs(ratio - cfg.gamma)) <= 1e-12
    # flags match the recorded residual pairs and the rho transition
    for i in range(1, len(trace)):
        expected = (
            ConditionFlag.C1 if deltas[i] >= cfg.eta * deltas[i - 1] else ConditionFlag.C2
        )
        assert cond.row_flags[i] == expected
        factor = cfg.gamma if expected == ConditionFlag.C1 else 1.0
        assert rhos[i] == pytest.approx(factor * rhos[i - 1], rel=1e-15)


def test_run_deltas_recomputable_from_snapshots():
    rng = np.random.default_rng(101)
    op = CircularBlur((8, 8), binomial_stencil(2))
    f = FidelityTerm(op=op, observation=rng.uniform(size=64))
    theta0 = IterateTriple(
        x=rng.uniform(size=64), v=rng.uniform(size=64), u=np.zeros(64)
    )
    cfg = base_config(max_iter=15, delta_tol=0.0)
    iterates = []
    trace = run(f, GaussianSmoothing(), cfg, theta0, lambda f, t, _: iterates.append(t))
    assert len(iterates) == len(trace) + 1
    for k, delta in enumerate(trace.condition_trace.deltas, start=1):
        d = metric_distance(iterates[k - 1], iterates[k])
        assert abs(d - delta) <= 1e-12


def test_observer_gets_each_steps_rho_and_target():
    rng = np.random.default_rng(107)
    op = CircularBlur((8, 8), binomial_stencil(2))
    f = FidelityTerm(op=op, observation=rng.uniform(size=64))
    theta0 = IterateTriple(
        x=rng.uniform(size=64), v=rng.uniform(size=64), u=rng.uniform(size=64)
    )
    cfg = base_config(max_iter=15, delta_tol=0.0)
    seen = []
    trace = run(f, GaussianSmoothing(), cfg, theta0, lambda f, t, s: seen.append((t, s)))
    # penalty growth makes the step's rho differ from its record's rho
    assert ConditionFlag.C1 in trace.condition_trace.flags
    assert len(seen) == len(trace) + 1
    assert seen[0][1] is None
    step_rhos = [cfg.rho0, *trace.condition_trace.rhos[:-1]]
    for (prev, _), (_, info), rho in zip(seen, seen[1:], step_rhos):
        assert info.rho == rho
        assert np.array_equal(info.target, prev.v - prev.u)


@pytest.mark.parametrize("kind", ["identity", "mask", "blur", "downsample"])
def test_recorded_fidelity_value_matches_explicit_value(kind):
    # the record takes f(x) from the x-update's own Hx, so a solve returning
    # a wrong Hx shows here; the stencil is not symmetric, so a blur spectrum
    # taken as conj(K) would too
    rng = np.random.default_rng(109)
    shape = (8, 12)
    stencil = rng.uniform(size=(3, 3))
    stencil /= stencil.sum()
    op = {
        "identity": Identity(shape),
        "mask": Mask(rng.uniform(size=shape) < 0.6),
        "blur": CircularBlur(shape, stencil),
        "downsample": Downsample(shape, 2),
    }[kind]
    f = FidelityTerm(op=op, observation=rng.uniform(size=op.out_dim))
    x0 = op.apply_adjoint(f.observation)
    theta0 = IterateTriple(x=x0, v=x0.copy(), u=np.zeros_like(x0))
    explicit = []

    def observe(f, theta, info):
        if info is not None:
            explicit.append(f.value(theta.x))

    trace = run(f, GaussianSmoothing(), base_config(max_iter=20, delta_tol=0.0), theta0, observe)
    # with H = I the third step returns its own input, and the run stops there
    assert len(explicit) == len(trace) == (3 if kind == "identity" else 20)
    assert trace.stop_reason == ("fixed_point" if kind == "identity" else "max_iter")
    for recorded, value in zip(trace.condition_trace.fidelity_values, explicit):
        assert recorded == pytest.approx(value, rel=1e-12)


def test_run_is_deterministic():
    rng = np.random.default_rng(103)
    op = CircularBlur((8, 8), binomial_stencil(2))
    f = FidelityTerm(op=op, observation=rng.uniform(size=64))
    theta0 = IterateTriple(x=np.zeros(64), v=np.zeros(64), u=np.zeros(64))
    cfg = base_config(max_iter=12, delta_tol=0.0)
    t1 = run(f, GaussianSmoothing(), cfg, theta0)
    t2 = run(f, GaussianSmoothing(), cfg, theta0)
    c1, c2 = t1.condition_trace, t2.condition_trace
    assert c1.flags == c2.flags
    for name in ("deltas", "rhos", "sigmas", "fidelity_values"):
        assert np.array_equal(getattr(c1, name), getattr(c2, name))
    assert np.array_equal(t1.final_iterate.x, t2.final_iterate.x)


def test_identity_denoiser_reaches_exact_zero_delta():
    # with b = 0 and rho frozen at 1 the iterate halves each step and
    # underflows to exactly zero in finitely many iterations
    f = identity_problem(4)
    rng = np.random.default_rng(107)
    v0 = rng.uniform(0.5, 1.0, size=4)
    theta0 = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros(4))
    cfg = base_config(eta=0.9, max_iter=1200, delta_tol=0.0)
    trace = run(f, IdentityDenoiser(), cfg, theta0)
    cond = trace.condition_trace
    deltas = cond.deltas
    zeros = np.flatnonzero(deltas == 0.0)
    assert zeros.size > 0
    first = int(zeros[0])
    # strictly halving residuals hold the penalty until the exact-zero point;
    # from there the boundary rule 0 >= eta*0 reads as growth
    assert all(flag == ConditionFlag.C2 for flag in cond.row_flags[1 : first + 1])
    assert cond.rhos[first] == 1.0


def test_run_builds_no_image_grid(monkeypatch):
    # the loop hands the denoiser (h, w) views of its vectors; ImageGrid is
    # only where an image meets a file or a preset
    built = []
    post_init = ImageGrid.__post_init__

    def counting_post_init(self):
        built.append((self.width, self.height))
        post_init(self)

    monkeypatch.setattr(ImageGrid, "__post_init__", counting_post_init)
    rng = np.random.default_rng(97)
    op = CircularBlur((12, 16), binomial_stencil(3))
    f = FidelityTerm(op=op, observation=rng.uniform(size=op.out_dim))
    x0 = f.adjoint_observation
    trace = run(f, GaussianSmoothing(), base_config(max_iter=5, delta_tol=0.0),
                IterateTriple(x=x0, v=x0, u=np.zeros_like(x0)))
    fixed_point_residual(f, GaussianSmoothing(), trace)
    assert len(trace) == 5 and built == []
    ImageGrid(16, 12, trace.final_iterate.x)
    assert built == [(16, 12)]


def test_run_rejects_dimension_mismatch():
    f = identity_problem(4)
    theta0 = IterateTriple(x=np.zeros(3), v=np.zeros(3), u=np.zeros(3))
    with pytest.raises(ValueError):
        run(f, IdentityDenoiser(), base_config(), theta0)


def test_non_finite_iterate_error_names_iteration():
    class ExplodingStub(IdentityDenoiser):
        def apply(self, sigma, a):
            return a * 1e308

    # the iterates are huge but finite through iteration 3 (the prox target
    # of iteration 2 is 1e308, whose squared norm overflows); iteration 4's
    # denoiser output overflows to inf, so iteration 5's target is infinite
    f = identity_problem(2, b=np.array([1.0, 1.0]))
    theta0 = IterateTriple(x=[0.0, 0.0], v=[0.0, 0.0], u=[0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterateError, match="iteration 5"):
            run(f, ExplodingStub(), base_config(delta_tol=0.0), theta0)


def test_nan_from_denoiser_is_caught_in_the_same_iteration():
    class NanStub(IdentityDenoiser):
        def apply(self, sigma, a):
            return np.full(a.shape, np.nan)

    f = identity_problem(2, b=np.array([1.0, 1.0]))
    theta0 = IterateTriple(x=[0.0, 0.0], v=[0.0, 0.0], u=[0.0, 0.0])
    with pytest.raises(NonFiniteIterateError, match="iteration 1"):
        run(f, NanStub(), base_config(), theta0)


def test_unrelated_denoiser_value_error_is_not_relabeled():
    class FailingStub(IdentityDenoiser):
        def apply(self, sigma, a):
            raise ValueError("stub denoiser refused")

    f = identity_problem(2, b=np.array([1.0, 1.0]))
    theta0 = IterateTriple(x=[0.0, 0.0], v=[0.0, 0.0], u=[0.0, 0.0])
    with pytest.raises(ValueError, match="stub denoiser refused") as info:
        run(f, FailingStub(), base_config(), theta0)
    assert not isinstance(info.value, NonFiniteIterateError)


def test_run_rejects_non_finite_start():
    f = identity_problem(2)
    theta0 = IterateTriple(x=[0.0, np.nan], v=[0.0, 0.0], u=[0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        run(f, IdentityDenoiser(), base_config(), theta0)


def test_fixed_point_residual_zero_at_fixed_point():
    v0 = np.array([1.0, -2.0])
    f = identity_problem(2, b=v0)
    theta0 = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros(2))
    trace = run(f, IdentityDenoiser(), base_config(delta_tol=1e-12), theta0)
    assert fixed_point_residual(f, IdentityDenoiser(), trace) <= 1e-14


def test_fixed_point_residual_matches_one_step_replay():
    rng = np.random.default_rng(109)
    op = CircularBlur((8, 8), binomial_stencil(2))
    b = rng.uniform(size=64)
    f = FidelityTerm(op=op, observation=b)
    theta0 = IterateTriple(x=b, v=b, u=np.zeros(64))
    cfg = base_config(max_iter=1, delta_tol=0.0)
    trace = run(f, GaussianSmoothing(), cfg, theta0)
    residual = fixed_point_residual(f, GaussianSmoothing(), trace)
    # replay: the next step at the recorded (rho, sigma) is exactly delta_2
    cond = trace.condition_trace
    rho, sigma = cond.rhos[-1], cond.sigmas[-1]
    theta2, _ = step(f, GaussianSmoothing(), rho, sigma, trace.final_iterate)
    assert residual == metric_distance(trace.final_iterate, theta2)
    assert residual > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0, rho0=1, gamma=2, eta=0.5, max_iter=5)
    with pytest.raises(ValueError):
        SolverConfig(lam=1, rho0=1, gamma=0.9, eta=0.5, max_iter=5)
    with pytest.raises(ValueError):
        SolverConfig(lam=1, rho0=1, gamma=2, eta=0.5, max_iter=0)
    # the penalty rule's own bounds: gamma > 1 and eta in (0, 1)
    with pytest.raises(ValueError, match="gamma"):
        SolverConfig(lam=1, rho0=1, gamma=1.0, eta=0.5, max_iter=5)
    with pytest.raises(ValueError, match="eta"):
        SolverConfig(lam=1, rho0=1, gamma=2, eta=1.0, max_iter=5)
    # NaN passes every comparison-based check, and inf passes the lower bounds
    good = dict(lam=1.0, rho0=1.0, gamma=2.0, eta=0.5, max_iter=5, delta_tol=1e-6)
    for name in ("lam", "rho0", "gamma", "delta_tol"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(**{**good, name: value})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eta"):
            SolverConfig(**{**good, "eta": value})
    # finite settings whose quotient, sigma_0 squared, overflows
    with pytest.raises(ValueError, match="lam / rho0 must be finite"):
        SolverConfig(**{**good, "lam": 1e300, "rho0": 1e-300})
    # and finite settings whose quotient underflows, so that sigma_0 = 0
    with pytest.raises(ValueError, match="lam / rho0 must be finite and positive"):
        SolverConfig(**{**good, "lam": 1e-300, "rho0": 1e300})
