"""Command-line harness: run presets, analyze traces, demo PGS envelopes."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio
from .denoisers import certified_denoiser_bound, estimate_denoiser_bound_constant
from .fidelity import box_gradient_bound, estimate_gradient_bound
from .linalg import norm
from .presets import (
    DENOISERS,
    PRESET_NAMES,
    ExperimentPreset,
    make_preset,
    preset_settings,
    run_preset,
)
from .sequences import (
    CLASSIFY_CAVEAT,
    BoundConstructionError,
    ConditionFlag,
    ConditionTrace,
    PgsSpec,
    cauchy_index,
    classify_case,
    construct_s12_bound,
    construct_s3_bound,
    estimate_growth_coefficient,
    pgs_chunk_sum_bound,
    pgs_generate,
    verify_bound,
)
from .solver import fixed_point_residual

# config-file spellings of two make_preset keywords
_FILE_KEYS = {"lambda": "lam", "image": "image_source"}
# pgs-demo writes one CSV line per term: 10^6 lines take ~4 s and make a
# 21 MB file, so a longer request is refused before anything is allocated
MAX_PGS_DEMO_LENGTH = 10**6
# summary.txt bounds the denoiser on images of this side at these strengths
BOUND_SIDE = 16
BOUND_SIGMAS = (0.05, 0.1, 0.2)


def _preset_from_args(args) -> ExperimentPreset:
    raw = fileio.parse_config(args.config) if args.config else {}
    file_preset = raw.pop("preset", None)
    name = args.preset or file_preset
    if name is None:
        raise ValueError("no preset given (use --preset or preset= in the config)")
    defaults = preset_settings(make_preset(name))
    overrides: dict = {}
    for key, value in raw.items():
        setting = _FILE_KEYS.get(key, key)
        if setting not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        overrides[setting] = type(defaults[setting])(value)
    for setting in defaults:
        if (value := getattr(args, setting, None)) is not None:
            overrides[setting] = value
    return make_preset(name, **overrides)


def _summarize(result, trajectory_m_hat: float) -> str:
    trace = result.trace
    cond = trace.condition_trace
    lines = [
        f"preset = {result.preset.name}",
        f"iterations = {len(trace)}",
        f"stop_reason = {trace.stop_reason}",
        f"final_delta = {cond.deltas[-1]:.6e}",
        f"final_rho = {cond.rhos[-1]:.6e}",
    ]
    window = min(40, max(1, len(cond.flags)))
    if cond.flags:
        label = classify_case(cond, window)
        lines.append(f"case = {label} (window {window}; {CLASSIFY_CAVEAT})")
    lines.append(
        f"gradient_bound_m = {box_gradient_bound(result.fidelity):.6e} "
        "(certified on [0,1]^d: ||H|| ||max(|b|, |1 - b|)|| / sqrt(d))"
    )
    lines.append(f"gradient_bound_m_hat = {trajectory_m_hat:.6e} (sampled: trajectory maximum)")
    kind = result.preset.denoiser
    grid = f"{BOUND_SIDE}x{BOUND_SIDE} images in [0,1]^d, sigma in {BOUND_SIGMAS}"
    certified = certified_denoiser_bound(kind, BOUND_SIDE, BOUND_SIGMAS)
    if certified is None:
        est = estimate_denoiser_bound_constant(
            kind, BOUND_SIDE, BOUND_SIDE, BOUND_SIGMAS, 20, trace.config.seed + 2
        )
        lines.append(
            f"denoiser_bound_k_hat = {est.k_hat:.6e} "
            f"(sampled on 20 noise {grid}; not a bound)"
        )
    else:
        k, lowest = certified
        lines.append(f"denoiser_bound_k = {k:.6e} (certified on {grid})")
        lines.append(f"denoiser_min_eigenvalue = {lowest:.6e} (certified on {grid})")
    fp = fixed_point_residual(result.fidelity, result.preset.denoiser, trace)
    lines.append(f"fixed_point_residual = {fp:.6e}")
    return "\n".join(lines) + "\n"


def _run_config(preset: ExperimentPreset) -> dict:
    """The run_config.txt entries that replay a run of ``preset``."""
    file_key = {setting: key for key, setting in _FILE_KEYS.items()}
    settings = {"preset": preset.name, **preset_settings(preset)}
    return {file_key.get(k, k): v for k, v in settings.items()}


def _gradient_m_hat(f, theta, step) -> float:
    """||grad f(theta.x)|| / sqrt(d) at an iterate the run observed.

    After a step the x-update's optimality condition gives the gradient,
    grad f(x') = rho (t - x'), so only the start iterate needs H applied.
    """
    if step is None:
        return estimate_gradient_bound(f, [theta.x])
    diff = step.target - theta.x
    return step.rho * norm(diff) / math.sqrt(theta.dim)


def _run_one(preset: ExperimentPreset, out_dir: Path) -> None:
    """Run ``preset`` and write its four files into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory_m_hat = 0.0

    def observe(f, theta, step):
        nonlocal trajectory_m_hat
        trajectory_m_hat = max(trajectory_m_hat, _gradient_m_hat(f, theta, step))

    result = run_preset(preset, observe=observe)
    fileio.write_trace_csv(result.trace.condition_trace, out_dir / "trace.csv")
    fileio.save_image(result.restored, out_dir / "restored.pgm")
    summary = _summarize(result, trajectory_m_hat)
    (out_dir / "summary.txt").write_text(summary)
    fileio.write_config(_run_config(preset), out_dir / "run_config.txt")


def cmd_run(args) -> int:
    preset = _preset_from_args(args)
    # sweep members differ only in eta, so one check covers them all
    fileio.check_config(_run_config(preset))
    out_dir = Path(args.out)
    if args.sweep:
        members: dict[Path, ExperimentPreset] = {}
        for eta in map(float, args.sweep.split(",")):
            sub = out_dir / f"eta={eta:g}"
            if sub in members:
                raise ValueError(
                    f"sweep values {members[sub].config.eta!r} and {eta!r} "
                    f"both write to {sub}"
                )
            members[sub] = replace(preset, config=replace(preset.config, eta=eta))
        for sub, member in members.items():
            _run_one(member, sub)
        print(f"wrote {len(members)} runs under {out_dir}")
        return 0
    _run_one(preset, out_dir)
    print(f"wrote {out_dir / 'trace.csv'}")
    return 0


def _condition_trace_from_csv(
    path, gamma: float | None, eta: float | None
) -> tuple[ConditionTrace, bool]:
    """The validated trace, and whether gamma had to be assumed."""
    columns = fileio.read_trace_csv(path)
    if len(columns["deltas"]) < 2:
        raise BoundConstructionError("insufficient iterations for bound construction")
    if gamma is None:
        gamma = fileio.infer_gamma(columns["rhos"], columns["flags"])
    if eta is None:
        eta = fileio.infer_eta(columns["deltas"], columns["flags"])
    assumed = gamma is None
    if assumed:
        # no C1 flag constrains gamma; any value > 1 is consistent
        gamma = 2.0
    cond = ConditionTrace(**columns, gamma=gamma, eta=eta)
    cond.validate()
    return cond, assumed


def cmd_analyze(args) -> int:
    cond, gamma_assumed = _condition_trace_from_csv(args.trace, args.gamma, args.eta)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = len(cond)
    window = min(args.window, max(1, len(cond.flags)))
    label = classify_case(cond, window)
    has_c1 = ConditionFlag.C1 in cond.flags
    c = estimate_growth_coefficient(cond) if has_c1 else None

    spec = None
    bound_kind = "pgs"
    note = ""
    if args.mode in ("auto", "s3"):
        try:
            spec = construct_s3_bound(cond, c)
        except BoundConstructionError as exc:
            if args.mode == "s3":
                raise
            note = f"falling back to geometric bound: {exc}"
    if spec is None:
        spec = construct_s12_bound(cond, c)
        bound_kind = "geometric"
    bound_seq = pgs_generate(spec, n)
    start = spec.chunk_starts[0] + 1
    check = verify_bound(cond.deltas, bound_seq, start=start)
    cert = cauchy_index(spec.peak0, spec.beta, args.epsilon, spec.chunk_starts)

    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.where(bound_seq > 0, cond.deltas / bound_seq, np.inf)
    lines = ["iter,delta,bound,margin"]
    for i in range(n):
        if i + 1 >= start:
            lines.append(
                f"{i + 1},{format(cond.deltas[i], '.17g')},"
                f"{format(bound_seq[i], '.17g')},{format(margins[i], '.17g')}"
            )
        else:
            lines.append(f"{i + 1},{format(cond.deltas[i], '.17g')},,")
    (out_dir / "bound.csv").write_text("\n".join(lines) + "\n")

    report = [
        f"trace = {args.trace}",
        f"iterations = {n}",
        f"case = {label} (window {window}; {CLASSIFY_CAVEAT})",
        f"bound_kind = {bound_kind}",
        f"bound_start = {start}",
        f"bound_holds = {check.holds}",
        f"worst_margin = {check.worst_margin:.17g}",
        f"worst_margin_iteration = {check.worst_margin_iteration}",
        f"growth_coefficient_c = {c if c is not None else 'undefined (no C1)'}",
        f"cauchy_epsilon = {cert.epsilon:g}",
        f"cauchy_chunk_count = {cert.k_index}",
        f"cauchy_start_index = {cert.n_start}",
        f"cauchy_tail_bound = {cert.tail_bound:.17g}",
    ]
    if gamma_assumed:
        report.append("gamma_assumed = 2 (no C1 record constrains gamma)")
    if note:
        report.append(f"note = {note}")
    (out_dir / "bound_report.txt").write_text("\n".join(report) + "\n")
    print(f"bound {bound_kind}: holds={check.holds} worst_margin={check.worst_margin:.6g}")
    return 0 if check.holds else 1


def cmd_pgs_demo(args) -> int:
    if args.length > MAX_PGS_DEMO_LENGTH:
        raise ValueError(
            f"--length {args.length} exceeds the limit of {MAX_PGS_DEMO_LENGTH}"
        )
    lengths = [int(v) for v in args.chunk_lengths.split(",")]
    if any(v < 1 for v in lengths):
        raise ValueError("chunk lengths must be >= 1")
    starts = tuple(int(n) for n in np.cumsum([1] + lengths))
    spec = PgsSpec(beta=args.beta, peak0=args.peak, chunk_starts=starts)
    y = pgs_generate(spec, args.length)
    partial = np.cumsum(y)
    # chunk bound column repeats each chunk's closed-form sum bound; past the
    # last listed start every index opens a unit chunk
    ks = np.arange(1, args.length + 1)
    chunk_of = np.maximum(np.searchsorted(starts, ks), 1)
    chunk_of += np.maximum(ks - starts[-1] - 1, 0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["k,y,partial_sum,chunk_bound"]
    for k in range(1, args.length + 1):
        cb = pgs_chunk_sum_bound(spec, int(chunk_of[k - 1]))
        lines.append(
            f"{k},{format(y[k - 1], '.17g')},{format(partial[k - 1], '.17g')},"
            f"{format(cb, '.17g')}"
        )
    out.write_text("\n".join(lines) + "\n")
    cert = cauchy_index(spec.peak0, spec.beta, args.epsilon, spec.chunk_starts)
    print(
        f"wrote {out}; tail sums from index {cert.n_start} stay below "
        f"{cert.tail_bound:.6g} < epsilon={cert.epsilon:g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pnpadmm",
        description="Plug-and-play ADMM restoration runs and residual-envelope analysis",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="degrade an image, solve, write trace and summary")
    pr.add_argument("--preset", choices=PRESET_NAMES)
    pr.add_argument("--config", help="flat key=value config file")
    pr.add_argument("--out", required=True)
    pr.add_argument("--eta", type=float)
    pr.add_argument("--gamma", type=float)
    pr.add_argument("--lambda", dest="lam", type=float)
    pr.add_argument("--rho0", type=float)
    pr.add_argument("--max-iter", dest="max_iter", type=int)
    pr.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    pr.add_argument("--seed", type=int)
    pr.add_argument(
        "--image", dest="image_source",
        help="PGM file to restore instead of the builtin pattern",
    )
    pr.add_argument("--denoiser", choices=sorted(DENOISERS))
    pr.add_argument("--sweep", help="comma-separated eta values, one run each")
    pr.set_defaults(func=cmd_run)

    pa = sub.add_parser("analyze", help="build and verify a residual envelope")
    pa.add_argument("--trace", required=True)
    pa.add_argument("--mode", choices=("auto", "s3", "s12"), default="auto")
    pa.add_argument("--out", required=True)
    pa.add_argument("--epsilon", type=float, default=1e-3)
    pa.add_argument("--window", type=int, default=40)
    pa.add_argument("--gamma", type=float, help="override the inferred growth factor")
    pa.add_argument("--eta", type=float, help="override the inferred threshold")
    pa.set_defaults(func=cmd_analyze)

    pd = sub.add_parser("pgs-demo", help="emit a piecewise geometric sequence as CSV")
    pd.add_argument("--beta", type=float, required=True)
    pd.add_argument("--peak", type=float, default=1.0)
    pd.add_argument("--chunk-lengths", dest="chunk_lengths", default="2,3,4,5")
    pd.add_argument("--length", type=int, default=50)
    pd.add_argument("--epsilon", type=float, default=1e-3)
    pd.add_argument("--out", required=True)
    pd.set_defaults(func=cmd_pgs_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
