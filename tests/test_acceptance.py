"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from oracles import dense_matrix

from pnpadmm import denoisers
from pnpadmm.denoisers import (
    BoxAverage,
    GaussianSmoothing,
    IdentityDenoiser,
    MedianFilter,
    denoise,
    estimate_denoiser_bound_constant,
    verify_denoiser_bound,
)
from pnpadmm.fidelity import (
    CircularBlur,
    Downsample,
    FidelityTerm,
    Identity,
    Mask,
    binomial_stencil,
    prox_x_update,
)
from pnpadmm.fileio import serialize_trace
from pnpadmm.linalg import IterateTriple, metric_distance
from pnpadmm.presets import make_preset, run_preset
from pnpadmm.sequences import (
    BoundConstructionError,
    PgsSpec,
    TraceInvariantError,
    cauchy_index,
    classify_case,
    construct_s3_bound,
    estimate_growth_coefficient,
    pgs_generate,
    pgs_total_sum_bound,
    verify_bound,
)


def report(name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"{name}: {status}{suffix}")


def random_specs(count=100, seed=2024, n_chunks=40):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        beta = float(rng.uniform(0.1, 0.95))
        peak0 = float(rng.uniform(0.1, 10.0))
        lengths = rng.integers(1, 11, size=n_chunks)
        starts = tuple(int(s) for s in np.cumsum(lengths))
        specs.append(PgsSpec(beta=beta, peak0=peak0, chunk_starts=starts))
    return specs


@pytest.fixture(scope="module")
def pgs_specs():
    return random_specs()


@pytest.fixture(scope="module")
def runs():
    """All preset runs shared between A2/A4/A7, keyed by (preset, eta, gamma)."""
    cases = [
        ("deblur", 0.9, 1.05),
        ("deblur", 0.9, 1.2),
        ("deblur", 0.95, 1.05),
        ("deblur", 0.95, 1.2),
        ("deblur", 0.1, None),
        ("superres", 0.1, None),
        ("superres", 0.95, None),
    ]
    out = {}
    for name, eta, gamma in cases:
        overrides = {"eta": eta}
        if gamma is not None:
            overrides["gamma"] = gamma
        out[(name, eta, gamma)] = run_preset(make_preset(name, **overrides))
    # the deblur preset default gamma is 1.05, so that A2 run doubles as the
    # default-parameter run A4 wants
    out[("deblur", 0.95, None)] = out[("deblur", 0.95, 1.05)]
    return out


def test_a1_pgs_summability(pgs_specs):
    start = time.monotonic()
    violations = 0
    for spec in pgs_specs:
        y = pgs_generate(spec, 10_000)
        sums = np.cumsum(y)
        if not np.all(sums <= pgs_total_sum_bound(spec)):
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 10.0
    report("A1 PGS summability", ok, f"{len(pgs_specs)} specs, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_a2_pgs_bound_on_real_traces(runs):
    start = time.monotonic()
    grid = [(0.9, 1.05), (0.9, 1.2), (0.95, 1.05), (0.95, 1.2)]
    constructed = 0
    all_hold = True
    notes = []
    for eta, gamma in grid:
        trace = runs[("deblur", eta, gamma)].trace
        cond = trace.condition_trace
        cond.validate()
        try:
            c = estimate_growth_coefficient(cond)
            spec = construct_s3_bound(cond, c)
        except BoundConstructionError as exc:
            notes.append(f"eta={eta} gamma={gamma} excluded: {exc}")
            continue
        constructed += 1
        check = verify_bound(
            cond.deltas, pgs_generate(spec, len(cond)), start=spec.chunk_starts[0] + 1
        )
        notes.append(
            f"eta={eta} gamma={gamma}: holds={check.holds} "
            f"margin={check.worst_margin:.12f}"
        )
        all_hold = all_hold and check.holds
    elapsed = time.monotonic() - start
    ok = constructed >= 1 and all_hold and elapsed < 60.0
    report("A2 PGS bound on real traces", ok, "; ".join(notes))
    assert constructed >= 1, "no run produced an alternating trace"
    assert all_hold
    assert elapsed < 60.0


def test_a3_cauchy_certificates(pgs_specs):
    violations = 0
    for spec in pgs_specs:
        y = pgs_generate(spec, 10_000)
        for eps in (1e-1, 1e-3):
            cert = cauchy_index(spec, eps)
            threshold = eps * (1 - spec.beta) ** 2 / spec.peak0
            if not spec.beta ** (cert.k_index - 1) < threshold:
                violations += 1
            if cert.k_index > 1 and spec.beta ** (cert.k_index - 2) < threshold:
                violations += 1  # K was not minimal
            if cert.n_start <= 10_000:
                tail = float(np.sum(y[cert.n_start - 1 :]))
                if not tail < eps:
                    violations += 1
    report("A3 Cauchy certificates", violations == 0, f"{len(pgs_specs)} specs x 2 eps")
    assert violations == 0


def test_a4_condition_switching_pattern(runs):
    # c1[i] is the flag trace.csv prints on row i + 2
    notes = []
    ok = True
    for name in ("deblur", "superres"):
        cond_low = runs[(name, 0.1, None)].trace.condition_trace
        c2_late = not cond_low.c1[18:].all()  # a C2 on row 20 or later
        label_low = classify_case(cond_low, 40)
        low_ok = not c2_late and label_low == "S1-like"

        cond_high = runs[(name, 0.95, None)].trace.condition_trace
        late = cond_high.c1[19:]  # rows 21 on
        label_high = classify_case(cond_high, 40)
        high_ok = late.any() and not late.all() and label_high == "S3-like"

        notes.append(f"{name}: eta=0.1 {label_low}, eta=0.95 {label_high}")
        ok = ok and low_ok and high_ok
    report("A4 switching pattern", ok, "; ".join(notes))
    assert ok


def test_a5_denoiser_bound_verification():
    kind = GaussianSmoothing()
    est = estimate_denoiser_bound_constant(
        kind, 16, (0.05, 0.1, 0.2), n_samples=100, seed=11
    )
    check = verify_denoiser_bound(kind, est, n_holdout=1000, seed=12, margin=0.5)
    identity_ok = True
    rng = np.random.default_rng(13)
    for denoiser in (GaussianSmoothing(), MedianFilter(), BoxAverage(), IdentityDenoiser()):
        for _ in range(10):
            img = rng.uniform(0, 1, (16, 16))
            out = denoise(denoiser, 0.0, img)
            identity_ok = identity_ok and np.array_equal(out, img)
    ok = check.violations == 0 and identity_ok
    report(
        "A5 denoiser residue bound",
        ok,
        f"k_hat={est.k_hat:.4f}, worst_holdout_ratio={check.worst_ratio:.4f}",
    )
    assert check.violations == 0
    assert identity_ok


def test_a6_prox_against_dense_oracle():
    rng = np.random.default_rng(2025)
    shape = (4, 8)  # 32-dimensional instances
    keep = rng.uniform(size=shape) > 0.3
    operators = {
        "identity": Identity(shape),
        "blur": CircularBlur(shape, binomial_stencil(3)),
        "mask": Mask(keep),
        "downsample": Downsample(shape, 2),
    }
    worst_err = 0.0
    worst_res = 0.0
    for name, op in operators.items():
        H = dense_matrix(op)
        for _ in range(50):
            rho = float(rng.uniform(0.1, 10.0))
            b = rng.standard_normal(op.out_shape)
            target = rng.standard_normal(op.in_shape)
            f = FidelityTerm(op=op, observation=b)
            got, _ = prox_x_update(f, rho, target)
            want = np.linalg.solve(
                H.T @ H + rho * np.eye(H.shape[1]), H.T @ b.ravel() + rho * target.ravel()
            )
            err = np.linalg.norm(got.ravel() - want) / max(1e-30, np.linalg.norm(want))
            rhs = op.apply_adjoint(b) + rho * target
            res = np.linalg.norm(
                rhs - (op.apply_adjoint(op.apply(got)) + rho * got)
            ) / np.linalg.norm(rhs)
            worst_err = max(worst_err, err)
            worst_res = max(worst_res, res)
    ok = worst_err <= 1e-8 and worst_res <= 1e-8
    report(
        "A6 prox vs dense solve",
        ok,
        f"worst rel err {worst_err:.2e}, worst residual {worst_res:.2e}",
    )
    assert worst_err <= 1e-8
    assert worst_res <= 1e-8


def test_a7_trace_invariants_and_determinism(runs):
    ok = True
    for (name, eta, gamma), result in runs.items():
        trace = result.trace
        cfg = result.preset.config
        cond = trace.condition_trace
        rhos = cond.rhos
        for sigma, rho in zip(cond.sigmas, rhos):
            ok = ok and abs(sigma**2 * rho - cfg.lam) <= 1e-12 * cfg.lam
        for a, b in zip(rhos, rhos[1:]):
            ratio = b / a
            ok = ok and ratio >= 1.0
            ok = ok and min(abs(ratio - 1.0), abs(ratio - cfg.gamma)) <= 1e-12
        # every penalty is gamma times (C1) or equal to (C2) the one before
        try:
            cond.validate()
        except TraceInvariantError:
            ok = False
        rerun = run_preset(result.preset)
        ok = ok and serialize_trace(rerun.trace.condition_trace) == serialize_trace(
            cond
        )
        if not ok:
            report("A7 trace invariants", False, f"failed at {name} eta={eta}")
            assert ok
    report("A7 trace invariants", ok, f"{len(runs)} runs, rerun byte-identical")
    assert ok


def test_a8_triangle_inequality_chain():
    preset = make_preset("deblur", eta=0.1, gamma=1.2, delta_tol=1e-6, max_iter=200)
    iterates = []
    result = run_preset(preset, observe=lambda f, t, _: iterates.append(t))
    trace = result.trace
    assert trace.stop_reason == "tolerance", "run did not converge"
    deltas = trace.condition_trace.deltas
    rng = np.random.default_rng(99)
    worst_gap = -np.inf
    n_total = len(iterates)  # theta_0 .. theta_N
    for _ in range(100):
        n, m = sorted(rng.choice(n_total, size=2, replace=False))
        d = metric_distance(iterates[n], iterates[m])
        chain = float(np.sum(deltas[n:m]))
        worst_gap = max(worst_gap, d - chain)
    ok = worst_gap <= 1e-10
    report("A8 triangle chain", ok, f"worst D - sum(delta) = {worst_gap:.2e}")
    assert ok


@pytest.mark.parametrize("name,max_iter", [("smoke", 100), ("deblur", 300)])
def test_a9_fixed_penalty_limit(name, max_iter):
    # with a linear denoiser G at a fixed rho, the three updates' fixed point
    # solves (H^T H + rho (G^-1 - I)) x* = H^T b with v* = x* and
    # u* = (G^-1 - I) x*, which the x-update's optimality makes
    # H^T (b - H x*) / rho; multiplied through by G, x* needs no G^-1,
    # whose condition number at these sigmas is about 1e8
    preset = make_preset(name, image_size=16, delta_tol=0.0, denoiser="gaussian",
                         eta=0.95, max_iter=max_iter)
    result = run_preset(preset)
    cond = result.trace.condition_trace
    # rho and sigma held over the tail (S2-like), so the last step's are
    # the limit's; rhos[-1] is the penalty after the last step
    assert not cond.c1[-20:].any()
    rho, sigma = cond.rhos[-2], cond.sigmas[-2]
    g1 = denoisers._fill_filter(16, preset.denoiser.kernel(sigma, 16))
    G = np.kron(g1, g1)  # D_sigma on images flattened in row-major order
    H = dense_matrix(result.fidelity.op)
    b = result.fidelity.observation.ravel()
    x = np.linalg.solve(G @ H.T @ H + rho * (np.eye(G.shape[0]) - G), G @ H.T @ b)
    u = H.T @ (b - H @ x) / rho
    limit = IterateTriple(x.reshape(16, 16), x.reshape(16, 16), u.reshape(16, 16))
    gap = metric_distance(result.trace.final_iterate, limit)
    report(f"A9 fixed-penalty limit ({name})", gap <= 1e-8, f"metric to theta* = {gap:.2e}")
    assert gap <= 1e-8
