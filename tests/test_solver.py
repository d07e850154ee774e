import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import straight_line_step

from pnpadmm import solver
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
from pnpadmm.fileio import (
    TRACE_COLUMNS,
    parse_trace,
    read_trace_csv,
    save_image,
    serialize_trace,
    write_trace_csv,
)
from pnpadmm.linalg import (
    DimensionMismatchError,
    IterateTriple,
    NonFiniteIterateError,
    metric_distance,
)
from pnpadmm.presets import ImageGrid, make_preset, run_preset
from pnpadmm.sequences import ConditionTrace
from pnpadmm.solver import SolverConfig, fixed_point_residual, run, step, update_rho


def identity_problem(d, b=None):
    """The identity term on 1 x d images."""
    op = Identity((1, d))
    if b is None:
        b = np.zeros((1, d))
    return FidelityTerm(op=op, observation=np.asarray(b, dtype=float))


# gamma = 2, eta = 0.5
RULE = SolverConfig(lam=1.0, rho0=1.0, gamma=2.0, eta=0.5, max_iter=1)


def test_update_rho_growth_branch():
    assert update_rho(1.0, 0.6, 1.0, RULE) == (2.0, "C1")


def test_update_rho_hold_branch():
    assert update_rho(1.0, 0.4, 1.0, RULE) == (1.0, "C2")


def test_update_rho_boundary_counts_as_growth():
    rho, flag = update_rho(1.0, 0.5, 1.0, RULE)
    assert (rho, flag) == (2.0, "C1")


def test_update_rho_rejects_bad_parameters():
    # gamma and eta are checked with the config (test_config_validation);
    # what is left to reject is a negative residual
    with pytest.raises(ValueError, match="nonnegative"):
        update_rho(1.0, -0.1, 0.2, RULE)
    with pytest.raises(ValueError, match="nonnegative"):
        update_rho(1.0, 0.1, -0.2, RULE)


# smoke as the denoise-256 benchmark runs it: its own identity denoiser on a
# noiseless image stops at a fixed point on iteration 1
FLAG_RUNS = {"deblur": {}, "superres": {}, "smoke": {"denoiser": "gaussian", "noise_sigma": 0.02}}


@pytest.mark.parametrize("eta", [0.1, 0.6, 0.95])
@pytest.mark.parametrize("preset", sorted(FLAG_RUNS))
def test_trace_flags_are_the_flags_the_loop_acted_on(tmp_path, monkeypatch, preset, eta):
    # the trace derives its flags from the residuals and eta; they must be
    # the ones update_rho returned, which also set the penalties, and its
    # labels must be trace.csv's condition column on rows 2..n, the labels
    # the benchmark's solver.c1_count counts as "C1"
    labels = []

    def recording_update_rho(*args):
        result = update_rho(*args)
        labels.append(result[1])
        return result

    monkeypatch.setattr(solver, "update_rho", recording_update_rho)
    result = run_preset(
        make_preset(preset, eta=eta, image_size=32, max_iter=30, delta_tol=0.0, **FLAG_RUNS[preset])
    )
    cond = result.trace.condition_trace
    assert len(cond) == 30
    column = TRACE_COLUMNS.index("condition")
    rows = serialize_trace(cond).splitlines()[2:]
    assert [row.split(",")[column] for row in rows] == labels
    returned = [label == "C1" for label in labels]
    assert cond.c1.tolist() == returned
    path = tmp_path / "trace.csv"
    write_trace_csv(cond, path)
    recorded = read_trace_csv(path)["flags"]
    assert recorded.tolist() == returned
    assert int(recorded.sum()) == returned.count(True)


@pytest.mark.parametrize("preset", sorted(FLAG_RUNS))
def test_recorded_traces_read_back_with_their_gamma_and_eta(preset):
    # the round trip through trace.csv analyze makes: inferred, gamma is the
    # penalty ratio at the first C1 (assumed when there is none) and eta
    # reproduces the loop's flags; given, the trace is the one recorded
    for eta in (0.1, 0.6, 0.95):
        for seed in range(4):
            config = make_preset(
                preset, eta=eta, seed=seed, image_size=32, max_iter=30, delta_tol=0.0,
                **FLAG_RUNS[preset],
            )
            cond = run_preset(config).trace.condition_trace
            columns = parse_trace(serialize_trace(cond))
            got, assumed = ConditionTrace.from_columns(**columns)
            assert got.c1.tolist() == cond.c1.tolist()
            assert assumed == (not cond.c1.any())
            if not assumed:
                assert math.isclose(got.gamma, config.gamma, rel_tol=1e-15)
            got, assumed = ConditionTrace.from_columns(
                **columns, gamma=config.gamma, eta=eta
            )
            assert not assumed and (got.gamma, got.eta) == (config.gamma, eta)
            for name in ("deltas", "rhos", "sigmas", "fidelity_values"):
                assert np.array_equal(getattr(got, name), getattr(cond, name))


def test_step_fixed_point_of_composition():
    # b = v0, u0 = 0, identity denoiser: x' = v0, v' = v0, u' = 0
    v0 = np.array([[0.3, -1.2, 4.0]])
    f = identity_problem(3, b=v0)
    theta = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros((1, 3)))
    out, _ = step(f, IdentityDenoiser(), rho=1.0, sigma=0.1, theta=theta)
    assert metric_distance(theta, out) <= 1e-14


def test_step_u_update_arithmetic():
    # forced by u' = u + x' - v' with an identity solve and a stub denoiser
    class ConstStub(IdentityDenoiser):
        def apply(self, sigma, a):
            return np.array([0.0, 1.0]).reshape(a.shape)

    f = identity_problem(2, b=np.array([[1.0, 1.0]]))
    theta = IterateTriple(x=[[0.0, 0.0]], v=[[1.0, 1.0]], u=[[0.0, 0.0]])
    out, _ = step(f, ConstStub(), rho=1e12, sigma=0.1, theta=theta)
    # x' ~ v - u = (1,1); v' = (0,1); u' = (1,0)
    assert np.allclose(out.x, [[1.0, 1.0]], atol=1e-9)
    assert np.array_equal(out.v, [[0.0, 1.0]])
    assert np.allclose(out.u, [[1.0, 0.0]], atol=1e-9)


class FlippedView(IdentityDenoiser):
    """Hands back its input upside down, as a view of the input's memory."""

    def apply(self, sigma, a):
        return a[::-1, ::-1]


@pytest.mark.parametrize("kind", [IdentityDenoiser(), FlippedView()], ids=["input", "view"])
def test_step_keeps_a_denoiser_output_that_aliases_its_input(kind):
    # u' may overwrite x' + u only when v' does not share its memory
    rng = np.random.default_rng(89)
    h, w = 3, 4
    f = FidelityTerm(op=Identity((h, w)), observation=rng.standard_normal((h, w)))
    theta = IterateTriple(*rng.standard_normal((3, h, w)))
    got, _ = step(f, kind, rho=0.7, sigma=0.1, theta=theta)
    x_new, _ = prox_x_update(f, 0.7, theta.v - theta.u)
    noisy = x_new + theta.u
    v_new = kind.apply(0.1, noisy.copy())
    assert np.array_equal(got.x, x_new)
    assert np.array_equal(got.v, v_new)
    assert np.array_equal(got.u, noisy - v_new)


def test_step_matches_straight_line_oracle():
    rng = np.random.default_rng(83)
    op = CircularBlur((8, 8), binomial_stencil(3))
    b = rng.uniform(size=(8, 8))
    f = FidelityTerm(op=op, observation=b)
    theta = IterateTriple(
        x=rng.uniform(size=(8, 8)), v=rng.uniform(size=(8, 8)), u=0.1 * rng.standard_normal((8, 8))
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
    v0 = np.array([[2.0, -1.0]])
    f = identity_problem(2, b=v0)
    theta0 = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros((1, 2)))
    trace = run(f, IdentityDenoiser(), base_config(delta_tol=1e-12), theta0)
    assert len(trace) == 1
    assert trace.condition_trace.deltas[0] <= 1e-14
    assert trace.stop_reason == "tolerance"
    assert trace.condition_trace.c1.size == 0


def test_run_stops_before_a_penalty_update_that_would_leave_sigma_zero():
    # gamma = 1e150 overflows rho on its third C1 update; that iteration is
    # dropped, so the last row's rho and sigma step from the final iterate
    rng = np.random.default_rng(113)
    op = CircularBlur((8, 8), binomial_stencil(2))
    f = FidelityTerm(op=op, observation=rng.uniform(size=(8, 8)))
    x0 = op.apply_adjoint(f.observation)
    theta0 = IterateTriple(x=x0, v=x0.copy(), u=np.zeros((8, 8)))
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
    f = identity_problem(4, b=rng.standard_normal((1, 4)))
    theta0 = IterateTriple(
        x=rng.standard_normal((1, 4)), v=rng.standard_normal((1, 4)), u=np.zeros((1, 4))
    )
    trace = run(f, IdentityDenoiser(), base_config(delta_tol=0.0, max_iter=10), theta0)
    # trace.csv prints NA on row 1 and c1[i] on row i + 2
    assert len(trace) > 1
    assert trace.condition_trace.c1.size == len(trace) - 1


def test_run_trace_invariants_and_flag_consistency():
    rng = np.random.default_rng(97)
    op = CircularBlur((8, 8), binomial_stencil(2))
    b = rng.uniform(size=(8, 8))
    f = FidelityTerm(op=op, observation=b)
    theta0 = IterateTriple(x=b, v=b, u=np.zeros((8, 8)))
    cfg = base_config(eta=0.9, max_iter=30, delta_tol=0.0)
    trace = run(f, GaussianSmoothing(), cfg, theta0)
    cond = trace.condition_trace
    rhos = cond.rhos
    # sigma consistency
    for sigma, rho in zip(cond.sigmas, rhos):
        assert abs(sigma**2 * rho - cfg.lam) <= 1e-12 * cfg.lam
    # rho monotone with ratio 1 or gamma
    for a, bb in zip(rhos, rhos[1:]):
        ratio = bb / a
        assert ratio >= 1.0
        assert min(abs(ratio - 1.0), abs(ratio - cfg.gamma)) <= 1e-12
    # each penalty follows the flag of its residual pair
    for i, c1 in enumerate(cond.c1, start=1):
        factor = cfg.gamma if c1 else 1.0
        assert rhos[i] == pytest.approx(factor * rhos[i - 1], rel=1e-15)


def test_run_deltas_recomputable_from_snapshots():
    rng = np.random.default_rng(101)
    op = CircularBlur((8, 8), binomial_stencil(2))
    f = FidelityTerm(op=op, observation=rng.uniform(size=(8, 8)))
    theta0 = IterateTriple(
        x=rng.uniform(size=(8, 8)), v=rng.uniform(size=(8, 8)), u=np.zeros((8, 8))
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
    f = FidelityTerm(op=op, observation=rng.uniform(size=(8, 8)))
    theta0 = IterateTriple(
        x=rng.uniform(size=(8, 8)), v=rng.uniform(size=(8, 8)), u=rng.uniform(size=(8, 8))
    )
    cfg = base_config(max_iter=15, delta_tol=0.0)
    seen = []
    trace = run(f, GaussianSmoothing(), cfg, theta0, lambda f, t, s: seen.append((t, s)))
    # penalty growth makes the step's rho differ from its record's rho
    assert trace.condition_trace.c1.any()
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
    f = FidelityTerm(op=op, observation=rng.uniform(size=op.out_shape))
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
    f = FidelityTerm(op=op, observation=rng.uniform(size=(8, 8)))
    theta0 = IterateTriple(x=np.zeros((8, 8)), v=np.zeros((8, 8)), u=np.zeros((8, 8)))
    cfg = base_config(max_iter=12, delta_tol=0.0)
    t1 = run(f, GaussianSmoothing(), cfg, theta0)
    t2 = run(f, GaussianSmoothing(), cfg, theta0)
    c1, c2 = t1.condition_trace, t2.condition_trace
    for name in ("deltas", "rhos", "sigmas", "fidelity_values"):
        assert np.array_equal(getattr(c1, name), getattr(c2, name))
    assert np.array_equal(t1.final_iterate.x, t2.final_iterate.x)


def test_identity_denoiser_reaches_exact_zero_delta():
    # with b = 0 and rho frozen at 1 the iterate halves each step and
    # underflows to exactly zero in finitely many iterations
    f = identity_problem(4)
    rng = np.random.default_rng(107)
    v0 = rng.uniform(0.5, 1.0, size=(1, 4))
    theta0 = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros((1, 4)))
    cfg = base_config(eta=0.9, max_iter=1200, delta_tol=0.0)
    trace = run(f, IdentityDenoiser(), cfg, theta0)
    cond = trace.condition_trace
    deltas = cond.deltas
    zeros = np.flatnonzero(deltas == 0.0)
    assert zeros.size > 0
    first = int(zeros[0])
    # strictly halving residuals hold the penalty until the exact-zero point;
    # from there the boundary rule 0 >= eta*0 reads as growth
    assert not cond.c1[:first].any()
    assert cond.rhos[first] == 1.0


def _gaussian_smoke_run(size, noise_sigma):
    """The smoke preset as the denoise-256 workload runs it, at size^2."""
    return run_preset(make_preset(
        "smoke", denoiser="gaussian", delta_tol=0.0, max_iter=100, image_size=size,
        noise_sigma=noise_sigma,
    )).trace


@pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
def test_gaussian_smoke_reaches_an_exact_fixed_point_at_8x8(noise_sigma):
    # H = I and rho0 = 1: step 2 sets x = (b + (2Gb - b)) / 2 = Gb, so the
    # start point is a fixed point after two steps, and here delta_3 is 0
    trace = _gaussian_smoke_run(8, noise_sigma)
    assert (len(trace), trace.stop_reason) == (3, "fixed_point")
    assert trace.condition_trace.deltas[2] == 0.0


@pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
def test_gaussian_smoke_misses_its_fixed_point_by_rounding_only_at_16x16(noise_sigma):
    # the same fixed point as at 8x8, but rounding leaves delta_3 a few
    # 1e-17 above 0; the C1 flags of the rest of the run (97 of 99 on the
    # denoise-256 workload) are set off by that rounding noise alone
    trace = _gaussian_smoke_run(16, noise_sigma)
    assert 0.0 < trace.condition_trace.deltas[2] < 1e-15
    assert trace.stop_reason == "max_iter"


def test_run_builds_no_image_grid(monkeypatch, tmp_path):
    # the loop, the file layer and the run path hold bare (h, w) arrays;
    # ImageGrid is only what synthetic_image returns
    built = []
    init = ImageGrid.__init__

    def counting_init(self, pixels):
        built.append(np.shape(pixels))
        init(self, pixels)

    monkeypatch.setattr(ImageGrid, "__init__", counting_init)
    rng = np.random.default_rng(97)
    op = CircularBlur((12, 16), binomial_stencil(3))
    f = FidelityTerm(op=op, observation=rng.uniform(size=op.out_shape))
    x0 = f.adjoint_observation
    trace = run(f, GaussianSmoothing(), base_config(max_iter=5, delta_tol=0.0),
                IterateTriple(x=x0, v=x0, u=np.zeros_like(x0)))
    fixed_point_residual(f, GaussianSmoothing(), trace)
    assert len(trace) == 5 and built == []
    path = tmp_path / "x.pgm"
    save_image(trace.final_iterate.x, path)
    run_preset(make_preset("deblur", image_source=str(path), max_iter=2))
    assert built == []
    run_preset(make_preset("deblur", image_size=12, max_iter=2))
    assert built == [(12, 12)]


def test_run_rejects_dimension_mismatch():
    f = identity_problem(4)
    theta0 = IterateTriple(x=np.zeros((1, 3)), v=np.zeros((1, 3)), u=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        run(f, IdentityDenoiser(), base_config(), theta0)
    # a start of the right pixel count on another grid is refused by shape
    square = IterateTriple(x=np.zeros((2, 2)), v=np.zeros((2, 2)), u=np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"theta0 has shape \(2, 2\), operator expects \(1, 4\)"):
        run(f, IdentityDenoiser(), base_config(), square)
    # so is a start that is no image at all, should it reach run without
    # passing through IterateTriple
    for shape in [(4,), (0, 4)]:
        start = SimpleNamespace(x=np.zeros(shape), v=np.zeros(shape), u=np.zeros(shape))
        with pytest.raises(DimensionMismatchError, match=re.escape(
                f"theta0 has shape {shape}, operator expects (1, 4)")):
            run(f, IdentityDenoiser(), base_config(), start)


def test_non_finite_iterate_error_names_iteration():
    class ExplodingStub(IdentityDenoiser):
        def apply(self, sigma, a):
            return a * 1e308

    # the iterates are huge but finite through iteration 3 (the prox target
    # of iteration 2 is 1e308, whose squared norm overflows); iteration 4's
    # denoiser output overflows to inf, so iteration 5's target is infinite
    f = identity_problem(2, b=np.array([[1.0, 1.0]]))
    theta0 = IterateTriple(x=[[0.0, 0.0]], v=[[0.0, 0.0]], u=[[0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterateError, match="iteration 5"):
            run(f, ExplodingStub(), base_config(delta_tol=0.0), theta0)


def test_nan_from_denoiser_is_caught_in_the_same_iteration():
    class NanStub(IdentityDenoiser):
        def apply(self, sigma, a):
            return np.full(a.shape, np.nan)

    f = identity_problem(2, b=np.array([[1.0, 1.0]]))
    theta0 = IterateTriple(x=[[0.0, 0.0]], v=[[0.0, 0.0]], u=[[0.0, 0.0]])
    with pytest.raises(NonFiniteIterateError, match="iteration 1"):
        run(f, NanStub(), base_config(), theta0)


def test_unrelated_denoiser_value_error_is_not_relabeled():
    class FailingStub(IdentityDenoiser):
        def apply(self, sigma, a):
            raise ValueError("stub denoiser refused")

    f = identity_problem(2, b=np.array([[1.0, 1.0]]))
    theta0 = IterateTriple(x=[[0.0, 0.0]], v=[[0.0, 0.0]], u=[[0.0, 0.0]])
    with pytest.raises(ValueError, match="stub denoiser refused") as info:
        run(f, FailingStub(), base_config(), theta0)
    assert not isinstance(info.value, NonFiniteIterateError)


def test_run_rejects_non_finite_start():
    f = identity_problem(2)
    theta0 = IterateTriple(x=[[0.0, np.nan]], v=[[0.0, 0.0]], u=[[0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        run(f, IdentityDenoiser(), base_config(), theta0)


def test_fixed_point_residual_zero_at_fixed_point():
    v0 = np.array([[1.0, -2.0]])
    f = identity_problem(2, b=v0)
    theta0 = IterateTriple(x=v0.copy(), v=v0.copy(), u=np.zeros((1, 2)))
    trace = run(f, IdentityDenoiser(), base_config(delta_tol=1e-12), theta0)
    assert fixed_point_residual(f, IdentityDenoiser(), trace) <= 1e-14


def test_fixed_point_residual_matches_one_step_replay():
    rng = np.random.default_rng(109)
    op = CircularBlur((8, 8), binomial_stencil(2))
    b = rng.uniform(size=(8, 8))
    f = FidelityTerm(op=op, observation=b)
    theta0 = IterateTriple(x=b, v=b, u=np.zeros((8, 8)))
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
