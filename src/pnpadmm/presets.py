"""Experiment presets: synthetic test image, degradations, end-to-end runs.

A preset is one flat :class:`ExperimentPreset` of every run setting, with
deblur's defaults; :data:`PRESET_DEFAULTS` holds the other presets'
departures, and :func:`make_preset` merges them with its keyword overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
    MAX_BINOMIAL_ORDER,
    CircularBlur,
    Downsample,
    FidelityTerm,
    ForwardOperator,
    Identity,
    binomial_stencil,
)
from .fileio import MAX_IMAGE_SIZE, load_image
from .linalg import IterateTriple, as_image
from .solver import Observer, RunTrace, SolverConfig, run

# each preset's departures from ExperimentPreset's defaults, which are
# deblur's, calibrated on the 64x64 synthetic problems so the penalty
# schedule exercises both its branches across the eta range
PRESET_DEFAULTS: dict[str, dict] = {
    "deblur": {},
    # the downsampled problem contracts hard at small penalties; starting
    # higher with a faster growth factor keeps the residual ratio in the
    # regime where the schedule actually switches
    "superres": {"rho0": 5.0, "gamma": 1.2},
    "smoke": {
        "delta_tol": 1e-6, "max_iter": 50, "image_size": 16, "noise_sigma": 0.0,
        "denoiser": "identity",
    },
}
PRESET_NAMES = tuple(PRESET_DEFAULTS)
# rho only grows, so sigma_0 = sqrt(lambda / rho0) gives a run's widest
# denoiser window; its half-width may be at most this many long sides (a
# huge lambda would otherwise ask for a kernel of ~1e8 taps)
MAX_WINDOW_RATIO = 1
# the median filter copies the (2r + 1)^2 pixels of each of the d windows on
# every call, so its time grows as d (2r + 1)^2; a call at this many copies
# takes ~2.2 s on 2 CPUs, and the default lambda at 256 x 256 (r = 26,
# 1.8e8) stays below
MAX_MEDIAN_COPIES = 2 * 10**8
# a run keeps about 0.5 KB per trace row and writes about 96 B of trace.csv,
# so at most this many rows stay near 0.5 GB; a run that never stops would
# otherwise fill memory.  pgs-demo's limit on its terms too: it writes one
# CSV line per term, and 10^6 lines take ~4 s and make a 21 MB file, so a
# longer request is refused before anything is allocated
MAX_ITER = 10**6

DENOISERS = {
    kind.name: kind for kind in (GaussianSmoothing, MedianFilter, BoxAverage, IdentityDenoiser)
}


@dataclass(frozen=True)
class ExperimentPreset:
    """Every setting of one run, in ``run_config.txt`` order.  Construction
    checks them, turns a :data:`DENOISERS` name into its :class:`Denoiser`
    and builds ``config``, the loop's :class:`SolverConfig`."""

    name: str
    lam: float = 0.01
    rho0: float = 1.0
    gamma: float = 1.05
    eta: float = 0.6
    max_iter: int = 100
    delta_tol: float = 0.0
    seed: int = 0
    denoiser: Denoiser = "gaussian"
    image_source: str = "builtin"  # "builtin" or a PGM path
    image_size: int = 64
    blur_size: int = 5
    downsample_factor: int = 2
    noise_sigma: float = 0.02

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError(f"unknown preset {self.name!r}, expected {PRESET_NAMES}")
        for setting, high in (("max_iter", MAX_ITER), ("image_size", MAX_IMAGE_SIZE)):
            if (value := getattr(self, setting)) > high:
                raise ValueError(f"{setting} must be <= {high}, got {value}")
        config = SolverConfig(**{f.name: getattr(self, f.name) for f in fields(SolverConfig)})
        object.__setattr__(self, "config", config)
        if not isinstance(self.denoiser, Denoiser):
            if self.denoiser not in DENOISERS:
                raise ValueError(
                    f"unknown denoiser {self.denoiser!r}, expected one of {sorted(DENOISERS)}"
                )
            object.__setattr__(self, "denoiser", DENOISERS[self.denoiser]())
        for setting, low in (("seed", 0), ("image_size", 1), ("downsample_factor", 1)):
            if (value := getattr(self, setting)) < low:
                raise ValueError(f"{setting} must be >= {low}, got {value}")
        if self.blur_size < 1 or self.blur_size % 2 == 0:
            raise ValueError("blur_size must be odd and >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.image_source != "builtin" and not Path(self.image_source).is_file():
            problem = "is not a file" if Path(self.image_source).exists() else "does not exist"
            raise ValueError(f"unreadable image: {self.image_source!r} {problem}")

    def source_image(self) -> np.ndarray:
        """The clean read-only (h, w) image: the builtin pattern or the PGM."""
        if self.image_source == "builtin":
            return synthetic_image(self.image_size).pixels
        return load_image(self.image_source)


@dataclass(frozen=True)
class ImageGrid:
    """The builtin pattern, ``pixels``, read-only (h, w) float64: a shim for
    the ``synthetic_image(n).to_array()`` call of ``benchmarks/run.py``, and
    it goes with that call (ROADMAP item 1); all else holds bare arrays."""

    pixels: np.ndarray

    def to_array(self) -> np.ndarray:
        """Return a writable (height, width) copy."""
        return self.pixels.copy()


def synthetic_image(size: int = 64) -> ImageGrid:
    """Builtin checkerboard-plus-ramp pattern; keeps tests free of fixtures."""
    # a column and a row of indices broadcast to the full pattern
    i, j = np.arange(size)[:, None], np.arange(size)[None, :]
    checker = ((i // 8 + j // 8) % 2).astype(np.float64)
    ramp = (i + j) / (2.0 * (size - 1)) if size > 1 else np.zeros_like(checker)
    return ImageGrid(as_image(0.15 + 0.7 * (0.65 * checker + 0.35 * ramp)))


def make_preset(name: str, **overrides) -> ExperimentPreset:
    """The preset ``name``: its :data:`PRESET_DEFAULTS`, then ``overrides``
    (the keys of :func:`preset_settings`), merged into the record."""
    return ExperimentPreset(name, **{**PRESET_DEFAULTS.get(name, {}), **overrides})


def preset_settings(preset: ExperimentPreset) -> dict:
    """Every ``make_preset`` keyword with its value in ``preset``, the
    denoiser by name: ``make_preset(p.name, **preset_settings(p))``
    rebuilds ``p``."""
    settings = {f.name: getattr(preset, f.name) for f in fields(preset) if f.name != "name"}
    settings["denoiser"] = preset.denoiser.name
    return settings


def build_operator(preset: ExperimentPreset, image: np.ndarray) -> ForwardOperator:
    shape = image.shape
    side = max(shape)
    sigma0 = math.sqrt(preset.lam / preset.rho0)
    radius = preset.denoiser.radius(sigma0, side)
    given = f"lambda = {preset.lam:g} and rho0 = {preset.rho0:g} give sigma_0 = {sigma0:.4g}, where"
    if radius > MAX_WINDOW_RATIO * side:
        raise ValueError(
            f"{given} the {preset.denoiser.name} denoiser's window is wider than the image: "
            f"half-width {radius} > {MAX_WINDOW_RATIO} x {side} pixels (its long side)"
        )
    copies = image.size * (2 * radius + 1) ** 2
    if isinstance(preset.denoiser, MedianFilter) and copies > MAX_MEDIAN_COPIES:
        raise ValueError(
            f"{given} the median denoiser's window of half-width {radius} copies "
            f"{copies:.3g} pixels per call on {shape[0]}x{shape[1]} pixels, "
            f"above the limit of {MAX_MEDIAN_COPIES:.3g}"
        )
    # deblur's stencil and superres's prefilter are binomial
    if preset.name == "deblur":
        if preset.blur_size > min(shape):
            raise ValueError(
                f"blur_size {preset.blur_size} exceeds the image's smaller side {min(shape)}"
            )
        setting, order = "blur_size", (preset.blur_size + 1) // 2
    elif preset.name == "superres":
        setting, order = "downsample_factor", preset.downsample_factor
    else:
        return Identity(shape)
    if order > MAX_BINOMIAL_ORDER:
        raise ValueError(
            f"{setting} = {getattr(preset, setting)} asks for a binomial stencil of order "
            f"{order}, above {MAX_BINOMIAL_ORDER}, where its weights pass the float range"
        )
    if preset.name == "deblur":
        return CircularBlur(shape, binomial_stencil(order))
    return Downsample(shape, order)


def degrade(preset: ExperimentPreset, clean: np.ndarray) -> tuple[ForwardOperator, np.ndarray]:
    """Apply the preset degradation plus seeded Gaussian noise."""
    op = build_operator(preset, clean)
    rng = np.random.default_rng(preset.seed)
    observation = op.apply(clean)
    if preset.noise_sigma > 0:
        # a huge sigma overflows to inf, which FidelityTerm refuses by name
        with np.errstate(over="ignore"):
            observation = observation + preset.noise_sigma * rng.standard_normal(op.out_shape)
    return op, observation


def initial_iterate(f: FidelityTerm) -> IterateTriple:
    """Backprojection start: x = v = H^T b, u = 0, from the term's cached H^T b."""
    x0 = f.adjoint_observation
    return IterateTriple(x=x0, v=x0, u=np.zeros_like(x0))


@dataclass
class PresetResult:
    preset: ExperimentPreset
    fidelity: FidelityTerm
    trace: RunTrace


def run_preset(preset: ExperimentPreset, observe: Observer | None = None) -> PresetResult:
    """Degrade, solve, and package everything the harness reports on."""
    # the term keeps its own copy of the observation and run its own copy of
    # the start iterate, so neither original is held through the loop
    fidelity = FidelityTerm(*degrade(preset, preset.source_image()))
    trace = run(fidelity, preset.denoiser, preset.config, initial_iterate(fidelity), observe)
    return PresetResult(preset=preset, fidelity=fidelity, trace=trace)
