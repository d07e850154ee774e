"""Experiment presets: synthetic test image, degradations, end-to-end runs."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .denoisers import (
    BoxAverage,
    Denoiser,
    GaussianSmoothing,
    IdentityDenoiser,
    MedianFilter,
)
from .fidelity import (
    CircularBlur,
    Downsample,
    FidelityTerm,
    ForwardOperator,
    Identity,
    binomial_stencil,
)
from .fileio import ImageGrid, load_image
from .linalg import IterateTriple
from .solver import Observer, RunTrace, SolverConfig, run

PRESET_NAMES = ("deblur", "superres", "smoke")
# the Gaussian and box denoisers build a side x side matrix per axis, so a
# long thin image costs memory quadratic in its long side (a 1 x 20000 strip
# would ask for 3.2 GB).  With the long side at most this many times the
# short one, a matrix holds at most that many times the image's pixels.
MAX_ASPECT_RATIO = 16
# rho only grows, so sigma_0 = sqrt(lambda / rho0) gives a run's widest
# denoiser window; its half-width may be at most this many long sides (a
# huge lambda would otherwise ask for a kernel of ~1e8 taps)
MAX_WINDOW_RATIO = 1
# the median filter copies the (2r + 1)^2 pixels of each of the d windows on
# every call, so its time grows as d (2r + 1)^2; a call at this many copies
# takes ~2.2 s on 2 CPUs, and the default lambda at 256 x 256 (r = 26,
# 1.8e8) stays below
MAX_MEDIAN_COPIES = 2 * 10**8

DENOISERS = {
    "gaussian": GaussianSmoothing,
    "median": MedianFilter,
    "box": BoxAverage,
    "identity": IdentityDenoiser,
}


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    config: SolverConfig
    denoiser: Denoiser
    image_source: str = "builtin"  # "builtin" or a PGM path
    image_size: int = 64
    blur_size: int = 5
    downsample_factor: int = 2
    noise_sigma: float = 0.02

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}, expected {PRESET_NAMES}")
        if self.blur_size < 1 or self.blur_size % 2 == 0:
            raise ValueError("blur_size must be odd and >= 1")
        if self.downsample_factor < 1:
            raise ValueError("downsample_factor must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.image_source != "builtin" and not Path(self.image_source).is_file():
            raise ValueError(f"unreadable image: {self.image_source!r} does not exist")

    def source_image(self) -> ImageGrid:
        if self.image_source == "builtin":
            return synthetic_image(self.image_size)
        return load_image(self.image_source)


def synthetic_image(size: int = 64) -> ImageGrid:
    """Builtin checkerboard-plus-ramp pattern; keeps tests free of fixtures."""
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    checker = ((i // 8 + j // 8) % 2).astype(np.float64)
    ramp = (i + j) / (2.0 * (size - 1)) if size > 1 else np.zeros_like(checker)
    return ImageGrid.from_array(0.15 + 0.7 * (0.65 * checker + 0.35 * ramp))


def make_preset(name: str, **overrides) -> ExperimentPreset:
    """Build a named preset; keyword overrides replace any field or config
    entry (the keys of :func:`preset_settings`); ``denoiser`` is a name or
    a :class:`Denoiser`."""
    # documented defaults, calibrated on the 64x64 synthetic problems so the
    # penalty schedule exercises both its branches across the eta range
    cfg_kwargs = dict(
        lam=0.01,
        rho0=1.0,
        gamma=1.05,
        eta=0.6,
        max_iter=100,
        delta_tol=0.0,
        seed=0,
    )
    preset_kwargs: dict = {"name": name}
    if name == "smoke":
        cfg_kwargs.update(delta_tol=1e-6, max_iter=50)
        preset_kwargs.update(image_size=16, noise_sigma=0.0)
        denoiser_key = "identity"
    elif name == "superres":
        # the downsampled problem contracts hard at small penalties; starting
        # higher with a faster growth factor keeps the residual ratio in the
        # regime where the schedule actually switches
        cfg_kwargs.update(rho0=5.0, gamma=1.2)
        denoiser_key = "gaussian"
    elif name == "deblur":
        denoiser_key = "gaussian"
    else:
        raise ValueError(f"unknown preset {name!r}, expected {PRESET_NAMES}")
    for key, value in overrides.items():
        if key in cfg_kwargs:
            cfg_kwargs[key] = value
        elif key == "denoiser":
            denoiser_key = value
        else:
            preset_kwargs[key] = value
    if isinstance(denoiser_key, Denoiser):
        denoiser = denoiser_key
    elif denoiser_key in DENOISERS:
        denoiser = DENOISERS[denoiser_key]()
    else:
        raise ValueError(
            f"unknown denoiser {denoiser_key!r}, expected one of {sorted(DENOISERS)}"
        )
    return ExperimentPreset(
        config=SolverConfig(**cfg_kwargs), denoiser=denoiser, **preset_kwargs
    )


def preset_settings(preset: ExperimentPreset) -> dict:
    """Every ``make_preset`` keyword with its value in ``preset``, the
    denoiser by name: ``make_preset(p.name, **preset_settings(p))``
    rebuilds ``p``."""
    settings = asdict(preset.config)
    for field in fields(preset):
        if field.name not in ("name", "config"):
            settings[field.name] = getattr(preset, field.name)
    settings["denoiser"] = preset.denoiser.name
    return settings


def build_operator(preset: ExperimentPreset, image: ImageGrid) -> ForwardOperator:
    shape = (image.height, image.width)
    if max(shape) > MAX_ASPECT_RATIO * min(shape):
        raise ValueError(
            f"image of {shape[0]}x{shape[1]} pixels (height x width): the long side "
            f"exceeds {MAX_ASPECT_RATIO} times the short side"
        )
    cfg = preset.config
    side = max(shape)
    sigma0 = math.sqrt(cfg.lam / cfg.rho0)
    radius = preset.denoiser.radius(sigma0, side)
    given = f"lambda = {cfg.lam:g} and rho0 = {cfg.rho0:g} give sigma_0 = {sigma0:.4g}, where"
    if radius > MAX_WINDOW_RATIO * side:
        raise ValueError(
            f"{given} the {preset.denoiser.name} denoiser's window is wider than the image: "
            f"half-width {radius} > {MAX_WINDOW_RATIO} x {side} pixels (its long side)"
        )
    copies = image.dim * (2 * radius + 1) ** 2
    if isinstance(preset.denoiser, MedianFilter) and copies > MAX_MEDIAN_COPIES:
        raise ValueError(
            f"{given} the median denoiser's window of half-width {radius} copies "
            f"{copies:.3g} pixels per call on {shape[0]}x{shape[1]} pixels, "
            f"above the limit of {MAX_MEDIAN_COPIES:.3g}"
        )
    if preset.name == "deblur":
        if preset.blur_size > min(shape):
            raise ValueError(
                f"blur_size {preset.blur_size} exceeds the image's smaller side {min(shape)}"
            )
        k1 = binomial_stencil((preset.blur_size + 1) // 2)
        return CircularBlur(shape, k1)
    if preset.name == "superres":
        return Downsample(shape, preset.downsample_factor)
    return Identity(shape)


def degrade(preset: ExperimentPreset, clean: ImageGrid) -> tuple[ForwardOperator, np.ndarray]:
    """Apply the preset degradation plus seeded Gaussian noise."""
    op = build_operator(preset, clean)
    rng = np.random.default_rng(preset.config.seed)
    observation = op.apply(clean.pixels)
    if preset.noise_sigma > 0:
        observation = observation + preset.noise_sigma * rng.standard_normal(op.out_dim)
    return op, observation


def initial_iterate(f: FidelityTerm) -> IterateTriple:
    """Backprojection start: x = v = H^T b, u = 0, from the term's cached H^T b."""
    x0 = f.adjoint_observation
    return IterateTriple(x=x0, v=x0, u=np.zeros_like(x0))


@dataclass
class PresetResult:
    preset: ExperimentPreset
    clean: ImageGrid
    fidelity: FidelityTerm
    trace: RunTrace
    restored: ImageGrid


def run_preset(
    preset: ExperimentPreset,
    clean: ImageGrid | None = None,
    observe: Observer | None = None,
) -> PresetResult:
    """Degrade, solve, and package everything the harness reports on."""
    if clean is None:
        clean = preset.source_image()
    # the term keeps its own copy of the observation and run its own copy of
    # the start iterate, so neither original is held through the loop
    fidelity = FidelityTerm(*degrade(preset, clean))
    trace = run(fidelity, preset.denoiser, preset.config, initial_iterate(fidelity), observe)
    h, w = fidelity.op.in_shape
    restored = ImageGrid(width=w, height=h, pixels=trace.final_iterate.x)
    return PresetResult(
        preset=preset,
        clean=clean,
        fidelity=fidelity,
        trace=trace,
        restored=restored,
    )
