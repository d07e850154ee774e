import weakref

import numpy as np
import pytest

from pnpadmm import presets
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
    # no array an observer is handed is later updated in place: each kept
    # x, v, u and target still holds what it held then
    kept = []

    def observe(f, theta, info):
        arrays = [theta.x, theta.v, theta.u] + ([] if info is None else [info.target])
        kept.append([(a, a.copy()) for a in arrays])

    preset = make_preset(name, image_size=32, max_iter=10, delta_tol=0.0, denoiser=denoiser)
    result = run_preset(preset, observe=observe)
    # the identity operator and denoiser start at their fixed point, where
    # the run stops after one step
    assert len(result.trace) == (1 if denoiser == "identity" else 10)
    assert len(kept) == len(result.trace) + 1
    for arrays in kept:
        for array, copy in arrays:
            assert np.array_equal(array, copy)


@pytest.mark.parametrize("name", ["deblur", "superres"])
def test_run_holds_neither_the_observation_nor_the_start_iterate(monkeypatch, name):
    # the fidelity term keeps its own copy of the observation and run its
    # own copy of the start iterate, so at the first observer call the
    # originals are gone
    refs = {}
    real_degrade, real_initial_iterate = presets.degrade, presets.initial_iterate

    def tracked_degrade(preset, clean):
        op, observation = real_degrade(preset, clean)
        refs["observation"] = weakref.ref(observation)
        return op, observation

    def tracked_initial_iterate(f):
        theta0 = real_initial_iterate(f)
        refs["start u"] = weakref.ref(theta0.u)
        return theta0

    monkeypatch.setattr(presets, "degrade", tracked_degrade)
    monkeypatch.setattr(presets, "initial_iterate", tracked_initial_iterate)
    alive = []

    def observe(f, theta, info):
        if not alive:
            alive.append(sorted(key for key, ref in refs.items() if ref() is not None))

    run_preset(make_preset(name, image_size=16, max_iter=2), observe=observe)
    assert sorted(refs) == ["observation", "start u"]
    assert alive == [[]]
