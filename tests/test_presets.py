import tracemalloc

import numpy as np
import pytest

from pnpadmm.denoisers import GaussianSmoothing, IdentityDenoiser
from pnpadmm.fidelity import FidelityTerm
from pnpadmm.presets import (
    PRESET_NAMES,
    build_operator,
    degrade,
    initial_iterate,
    make_preset,
    preset_settings,
    run_preset,
    synthetic_image,
)


def test_synthetic_image_shape_and_range():
    img = synthetic_image(64)
    assert img.width == img.height == 64
    assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
    # deterministic pattern
    assert np.array_equal(img.pixels, synthetic_image(64).pixels)


def test_make_preset_defaults():
    deblur = make_preset("deblur")
    assert isinstance(deblur.denoiser, GaussianSmoothing)
    assert deblur.config.gamma == 1.05
    assert deblur.config.rho0 == 1.0
    superres = make_preset("superres")
    assert superres.config.rho0 == 5.0
    assert superres.config.gamma == 1.2
    smoke = make_preset("smoke")
    assert isinstance(smoke.denoiser, IdentityDenoiser)


def test_make_preset_overrides():
    p = make_preset("deblur", eta=0.95, max_iter=12, noise_sigma=0.0, denoiser="median")
    assert p.config.eta == 0.95
    assert p.config.max_iter == 12
    assert p.noise_sigma == 0.0
    assert p.denoiser.name == "median"
    with pytest.raises((KeyError, ValueError)):
        make_preset("nosuch")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_settings_rebuild_the_preset(name):
    # denoisers compare by identity, so the settings dicts are compared
    for p in (
        make_preset(name),
        make_preset(
            name, lam=0.03, rho0=2.0, gamma=1.5, eta=0.3, max_iter=7, delta_tol=1e-4,
            seed=9, denoiser="median", image_size=24, blur_size=3,
            downsample_factor=3, noise_sigma=0.05,
        ),
    ):
        rebuilt = make_preset(p.name, **preset_settings(p))
        assert rebuilt.config == p.config
        assert preset_settings(rebuilt) == preset_settings(p)
    assert preset_settings(p)["denoiser"] == "median"
    assert preset_settings(p)["downsample_factor"] == 3


def test_build_operator_rejects_blur_larger_than_image():
    image = synthetic_image(32)
    assert build_operator(make_preset("deblur", blur_size=31), image).in_dim == 32 * 32
    with pytest.raises(ValueError, match="blur_size 33 exceeds the image's smaller side 32"):
        build_operator(make_preset("deblur", blur_size=33), image)


def test_degrade_is_seeded_and_deterministic():
    clean = synthetic_image(16)
    p = make_preset("deblur", image_size=16, seed=42)
    op1, b1 = degrade(p, clean)
    op2, b2 = degrade(p, clean)
    assert np.array_equal(b1, b2)
    q = make_preset("deblur", image_size=16, seed=43)
    _, b3 = degrade(q, clean)
    assert not np.array_equal(b1, b3)


def test_initial_iterate_backprojection():
    clean = synthetic_image(8)
    p = make_preset("superres", image_size=8)
    op, b = degrade(p, clean)
    theta0 = initial_iterate(FidelityTerm(op=op, observation=b))
    assert theta0.dim == 64
    assert np.array_equal(theta0.x, op.apply_adjoint(b))
    assert np.array_equal(theta0.x, theta0.v)
    assert np.all(theta0.u == 0.0)


def test_smoke_preset_converges_fast():
    result = run_preset(make_preset("smoke"))
    assert result.trace.stop_reason == "tolerance"
    assert len(result.trace) <= 5
    assert result.trace.condition_trace.deltas[-1] < 1e-6


def test_superres_observation_has_reduced_dim():
    result = run_preset(make_preset("superres", max_iter=3))
    op = result.fidelity.op
    assert op.out_dim == op.in_dim // 4
    assert result.restored.dim == op.in_dim


def test_fixed_point_residual_tracks_final_delta():
    from pnpadmm.solver import fixed_point_residual

    preset = make_preset("deblur", eta=0.1, gamma=1.2, delta_tol=1e-8, max_iter=200)
    result = run_preset(preset)
    trace = result.trace
    assert trace.stop_reason == "tolerance"
    final_delta = trace.condition_trace.deltas[-1]
    assert final_delta < 1e-8
    fp = fixed_point_residual(result.fidelity, preset.denoiser, trace)
    # reporting heuristic: one more frozen step moves about as far as the
    # last recorded step did
    assert fp <= 10.0 * final_delta


@pytest.mark.parametrize(
    "name, denoiser",
    [("smoke", "identity"), ("smoke", "gaussian"), ("deblur", "gaussian"),
     ("superres", "gaussian")],
)
def test_observed_arrays_stay_unchanged_after_the_run(name, denoiser):
    # no array an observer is handed is a workspace buffer or later updated
    # in place: each kept x, v, u and target still holds what it held then
    kept = []

    def observe(f, theta, info):
        arrays = [theta.x, theta.v, theta.u] + ([] if info is None else [info.target])
        kept.append([(a, a.copy()) for a in arrays])

    preset = make_preset(name, image_size=32, max_iter=10, delta_tol=0.0, denoiser=denoiser)
    run_preset(preset, observe=observe)
    assert len(kept) == 11
    for arrays in kept:
        for array, copy in arrays:
            assert np.array_equal(array, copy)


@pytest.mark.parametrize("name", ["smoke", "deblur", "superres"])
def test_steady_state_iteration_allocates_only_the_kept_arrays(name):
    # an iteration's fresh full-size arrays are the four an observer may
    # keep (x, v, u and the x-update's target); every other temporary comes
    # from the workspace, so the traced memory an iteration adds on top of
    # the previous one's peaks at 4 vectors of d floats plus small change
    d = 128 * 128
    marks = []

    def observe(f, theta, info):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()

    preset = make_preset(name, image_size=128, max_iter=8, delta_tol=0.0, denoiser="gaussian")
    tracemalloc.start()
    try:
        run_preset(preset, observe=observe)
    finally:
        tracemalloc.stop()
    # the first two iterations may still grow the workspace
    growth = [marks[k][1] - marks[k - 1][0] for k in range(3, len(marks))]
    assert len(growth) == 6
    assert max(growth) <= 4.25 * d * 8
