import argparse
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pnpadmm
from pnpadmm import cli
from pnpadmm.fidelity import CircularBlur, estimate_gradient_bound
from pnpadmm.fileio import (
    TRACE_COLUMNS,
    ImageGrid,
    load_image,
    parse_config,
    read_trace_csv,
    save_image,
    write_trace_csv,
)
from pnpadmm.presets import PRESET_NAMES, make_preset, run_preset, synthetic_image
from pnpadmm.sequences import ConditionFlag, ConditionTrace, PgsSpec, pgs_generate


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_run_smoke_writes_outputs(tmp_path, capsys):
    out = tmp_path / "smoke"
    assert run_cli("run", "--preset", "smoke", "--out", out) == 0
    deltas = read_trace_csv(out / "trace.csv")["deltas"]
    assert len(deltas) >= 1
    assert (out / "restored.pgm").exists()
    summary = (out / "summary.txt").read_text()
    assert "stop_reason = tolerance" in summary
    assert "fixed_point_residual" in summary
    # smoke's identity denoiser is linear: its K is certified, not sampled
    for key in ("gradient_bound_m", "gradient_bound_m_hat", "denoiser_bound_k",
                "denoiser_min_eigenvalue"):
        assert f"\n{key} = " in summary
    assert "denoiser_bound_k_hat" not in summary
    cfg = parse_config(out / "run_config.txt")
    assert cfg["preset"] == "smoke"


@pytest.mark.parametrize(
    "config,reason,rows",
    [
        # rho = 1e150 ** 3 overflows on the third C1 step, so sigma would be 0
        ("preset = deblur\ngamma = 1e150\n", "penalty_limit", 5),
        # delta reaches 0 exactly; C1 on 0 >= eta * 0 would then grow rho
        # until it overflowed, near iteration 3900
        ("preset = superres\nimage_size = 32\nmax_iter = 5000\n", "fixed_point", 199),
    ],
    ids=["penalty_limit", "fixed_point"],
)
def test_run_ends_with_its_stop_reason_and_writes_every_output(tmp_path, config, reason, rows):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    summary = (out / "summary.txt").read_text()
    assert f"\nstop_reason = {reason}\n" in summary
    assert f"\niterations = {rows}\n" in summary
    columns = read_trace_csv(out / "trace.csv")
    assert len(columns["deltas"]) == rows
    assert np.all(np.isfinite(columns["rhos"])) and np.all(columns["sigmas"] > 0)
    assert load_image(out / "restored.pgm").dim == (64 if rows == 5 else 32) ** 2


def test_run_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ("run", "--preset", "deblur", "--max-iter", "15", "--eta", "0.9")
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_run_trace_does_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of more than ~10 000 entries over its
    # threads, and the split moves the last bits of the sum; a 128x128 run
    # takes every reduction in chunks that one thread sums
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = deblur\nimage_size = 128\nseed = 5\n")
    src = str(Path(pnpadmm.__file__).resolve().parents[1])
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "pnpadmm.cli", "run", "--config", str(cfg),
                "--out", str(out)]
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_run_accepts_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment\npreset = deblur\nmax_iter = 8\nnoise_sigma = 0.0\n"
        "lambda = 0.02\n"
    )
    out = tmp_path / "run"
    assert run_cli("run", "--config", cfg, "--eta", "0.9", "--out", out) == 0
    echoed = parse_config(out / "run_config.txt")
    assert echoed["eta"] == "0.9"
    assert echoed["lambda"] == "0.02"
    assert echoed["max_iter"] == "8"


def test_run_with_user_pgm_image(tmp_path):
    img = synthetic_image(16)
    src = tmp_path / "src.pgm"
    save_image(img, src)
    out = tmp_path / "run"
    code = run_cli(
        "run", "--preset", "deblur", "--image", src, "--max-iter", "5", "--out", out
    )
    assert code == 0
    restored = load_image(out / "restored.pgm")
    assert restored.width == 16


def test_run_rejects_image_too_thin_for_the_denoiser(tmp_path, capsys):
    thin = tmp_path / "thin.pgm"
    save_image(ImageGrid.from_array(np.full((1, 64), 0.5)), thin)
    out = tmp_path / "thin"
    args = ("run", "--preset", "smoke", "--denoiser", "gaussian", "--max-iter", "5")
    assert run_cli(*args, "--image", thin, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1x64" in err
    assert not (out / "trace.csv").exists()
    # 16:1 is the widest accepted shape
    strip = tmp_path / "strip.pgm"
    save_image(ImageGrid.from_array(np.full((4, 64), 0.5)), strip)
    assert run_cli(*args, "--image", strip, "--out", tmp_path / "strip") == 0
    assert len(read_trace_csv(tmp_path / "strip" / "trace.csv")["deltas"]) >= 1


def test_run_missing_image_errors(tmp_path, capsys):
    code = run_cli(
        "run", "--preset", "deblur", "--image", tmp_path / "nope.pgm", "--out", tmp_path / "o"
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,field", [("--lambda", "inf", "lam"), ("--gamma", "nan", "gamma"),
                         ("--rho0", "nan", "rho0")]
)
def test_run_rejects_non_finite_settings(tmp_path, capsys, flag, value, field):
    # argparse reads "inf" and "nan" as floats; the config must refuse them
    # before the denoiser's kernel overflows or the schedule turns NaN
    out = tmp_path / "o"
    assert run_cli("run", "--preset", "deblur", flag, value, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {field} must be finite, got {float(value)}"]
    assert not out.exists()


def test_run_refuses_a_denoiser_window_wider_than_the_image(tmp_path, capsys):
    # sigma_0 = sqrt(lambda / rho0) = 1e6 asks the Gaussian for ~4e8 taps at 64x64
    out = tmp_path / "o"
    start = time.perf_counter()
    code = run_cli("run", "--preset", "deblur", "--lambda", "1e12", "--out", out)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: lambda = 1e+12 and rho0 = 1 ")
    assert "gaussian denoiser's window is wider than the image" in err[0]
    assert not (out / "trace.csv").exists()


def test_run_refuses_a_median_window_too_costly_for_the_image(tmp_path, capsys):
    # sigma_0 = 0.5 gives the median half-width 64 at 128x128: 2.7e8 pixel
    # copies per call, ~12 min for the 100 iterations
    config = tmp_path / "deblur.conf"
    config.write_text("preset = deblur\nimage_size = 128\n")
    out = tmp_path / "o"
    start = time.perf_counter()
    code = run_cli(
        "run", "--config", config, "--denoiser", "median", "--lambda", "0.25", "--out", out
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: lambda = 0.25 and rho0 = 1 ")
    assert "median denoiser's window of half-width 64" in err[0]
    assert not (out / "trace.csv").exists()


def test_run_sweep_writes_subdirectories(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(
        "run", "--preset", "smoke", "--sweep", "0.1,0.6", "--out", out
    )
    assert code == 0
    assert (out / "eta=0.1" / "trace.csv").exists()
    assert (out / "eta=0.6" / "trace.csv").exists()


@pytest.mark.parametrize("values", ["0.5,0.5", "0.6,0.6000001"])
def test_run_sweep_rejects_values_sharing_a_directory(tmp_path, capsys, values):
    out = tmp_path / "sweep"
    code = run_cli("run", "--preset", "smoke", "--sweep", values, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    first, second = values.split(",")
    assert first in err and second in err
    assert str(out / f"eta={first}") in err
    assert not out.exists()


def test_run_sweep_members_match_solo_runs(tmp_path):
    cfg = tmp_path / "sr.cfg"
    cfg.write_text("preset = superres\nimage_size = 32\nmax_iter = 10\n")
    sweep = tmp_path / "sweep"
    assert run_cli("run", "--config", cfg, "--sweep", "0.6,0.95", "--out", sweep) == 0
    for eta in ("0.6", "0.95"):
        solo = tmp_path / f"solo-{eta}"
        assert run_cli("run", "--config", cfg, "--eta", eta, "--out", solo) == 0
        for name in ("trace.csv", "summary.txt", "restored.pgm", "run_config.txt"):
            assert (sweep / f"eta={eta}" / name).read_bytes() == (solo / name).read_bytes()


def test_preset_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("preset = smoke\nimage_size = 16\nmax_iter = 3\n")
    out = tmp_path / "run"
    assert run_cli("run", "--preset", "deblur", "--config", cfg, "--out", out) == 0
    assert parse_config(out / "run_config.txt")["preset"] == "deblur"
    assert (out / "summary.txt").read_text().startswith("preset = deblur\n")


@pytest.mark.parametrize(
    "config",
    [
        "preset = deblur\nimage_size = 32\nblur_size = 7\nlambda = 0.02\n",
        "preset = superres\nimage_size = 32\ndownsample_factor = 4\n",
        "preset = smoke\nimage_size = 24\n",
    ],
    ids=["deblur", "superres", "smoke"],
)
def test_run_config_txt_replays_the_run(tmp_path, config):
    cfg = tmp_path / "first.cfg"
    cfg.write_text(config)
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run_cli("run", "--config", cfg, "--out", first) == 0
    assert run_cli("run", "--config", first / "run_config.txt", "--out", replay) == 0
    for name in ("trace.csv", "summary.txt", "restored.pgm", "run_config.txt"):
        assert (replay / name).read_bytes() == (first / name).read_bytes()


def test_run_config_txt_lists_every_setting(tmp_path):
    out = tmp_path / "run"
    assert run_cli("run", "--preset", "smoke", "--out", out) == 0
    assert list(parse_config(out / "run_config.txt")) == [
        "preset", "lambda", "rho0", "gamma", "eta", "max_iter", "delta_tol", "seed",
        "denoiser", "image", "image_size", "blur_size", "downsample_factor", "noise_sigma",
    ]


@pytest.mark.parametrize(
    "line,message",
    [
        ("colour = red", "unknown config key 'colour'"),
        ("max_iter = 1.5", "invalid literal for int()"),
    ],
)
def test_run_rejects_bad_config_entries(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"preset = smoke\n{line}\n")
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines,message",
    [
        ("lam = 0.01\nlambda = 0.5\nlambda = 0.02", "line 3: 'lambda' repeats 'lam' on line 2"),
        ("eta = 0.5\neta = 0.6", "line 3: 'eta' repeats 'eta' on line 2"),
        ("image = builtin\nimage_source = x", "line 3: 'image_source' repeats 'image' on line 2"),
    ],
)
def test_run_rejects_a_setting_given_twice(tmp_path, capsys, lines, message):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"preset = smoke\n{lines}\n")
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"error: config {message}\n"
    assert not (tmp_path / "o").exists()


def test_run_names_the_key_of_an_unparsable_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = smoke\nmax_iter = 1e3\n")
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err.startswith("error: config key max_iter = '1e3': invalid literal")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_rejects_non_finite_noise_sigma(tmp_path, capsys, value):
    out = tmp_path / "o"
    assert run_cli("run", "--preset", "deblur", "--noise-sigma", value, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: noise_sigma must be finite and >= 0, got {float(value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("size,blur", [(32, 33), (64, 2101)])
def test_run_rejects_blur_larger_than_image(tmp_path, capsys, size, blur):
    cfg = tmp_path / "blur.cfg"
    cfg.write_text(f"preset = deblur\nimage_size = {size}\nblur_size = {blur}\n")
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"blur_size {blur}" in err and str(size) in err


@pytest.mark.parametrize("name", ["a#b.pgm", "a\nb.pgm"])
def test_run_rejects_image_path_run_config_cannot_hold(tmp_path, monkeypatch, capsys, name):
    # the file exists, so without the check the run would succeed and write
    # a run_config.txt that does not replay it
    monkeypatch.chdir(tmp_path)
    save_image(synthetic_image(16), tmp_path / name)
    out = tmp_path / "run"
    code = run_cli("run", "--preset", "deblur", "--image", name, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config value image = ")
    assert not out.exists()


@pytest.mark.parametrize(
    "preset,settings",
    [
        pytest.param("deblur", {}, id="deblur"),
        pytest.param("superres", {}, id="superres"),
        # rho reaches 1e300, where rho (t - x') is rounding error times rho
        pytest.param("deblur", {"gamma": 1e150}, id="deblur-gamma1e150"),
    ],
)
def test_streamed_gradient_bound_matches_explicit_gradient(preset, settings):
    # summary.txt shows only the max over the trajectory and the box samples,
    # which can hide a wrong per-iterate formula
    pairs = []

    def observe(f, theta, step):
        pairs.append(
            (cli._gradient_m_hat(f, theta, step), estimate_gradient_bound(f, theta.x))
        )

    result = run_preset(make_preset(preset, image_size=32, **settings), observe=observe)
    assert len(pairs) == len(result.trace) + 1
    for streamed, explicit in pairs:
        assert streamed == pytest.approx(explicit, rel=1e-8)


def test_run_applies_h_independently_of_iteration_count(tmp_path, monkeypatch):
    # the trace's data term comes from the x-update's own Hx, so H is applied
    # only to degrade the image and for summary.txt's gradient samples
    calls = 0
    original = CircularBlur.apply

    def counting(self, x):
        nonlocal calls
        calls += 1
        return original(self, x)

    monkeypatch.setattr(CircularBlur, "apply", counting)
    counts = {}
    for max_iter in (10, 30):
        calls = 0
        out = tmp_path / str(max_iter)
        assert run_cli("run", "--preset", "deblur", "--max-iter", max_iter, "--out", out) == 0
        assert len(read_trace_csv(out / "trace.csv")["deltas"]) == max_iter
        counts[max_iter] = calls
    assert counts[10] == counts[30]


def test_analyze_on_run_output(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli(
        "run", "--preset", "deblur", "--eta", "0.95", "--max-iter", "60",
        "--out", run_dir,
    ) == 0
    out = tmp_path / "analysis"
    code = run_cli(
        "analyze", "--trace", run_dir / "trace.csv", "--out", out,
        "--epsilon", "1e-3",
    )
    assert code == 0
    report = (out / "bound_report.txt").read_text()
    assert "bound_holds = True" in report
    assert "cauchy_tail_bound" in report
    lines = (out / "bound.csv").read_text().splitlines()
    assert lines[0] == "iter,delta,bound,margin"
    assert len(lines) == 61
    # the report names the first iteration with the largest margin in bound.csv
    rows = [line.split(",") for line in lines[1:]]
    margins = [(float(r[3]), int(r[0])) for r in rows if r[3]]
    worst = max(m for m, _ in margins)
    first = min(k for m, k in margins if m == worst)
    report_lines = report.splitlines()
    at = report_lines.index(f"worst_margin = {worst:.17g}")
    assert report_lines[at + 1] == f"worst_margin_iteration = {first}"


def test_analyze_all_c1_trace_uses_geometric_bound(tmp_path):
    run_dir = tmp_path / "run"
    assert run_cli(
        "run", "--preset", "deblur", "--eta", "0.1", "--max-iter", "40",
        "--out", run_dir,
    ) == 0
    out = tmp_path / "analysis"
    assert run_cli("analyze", "--trace", run_dir / "trace.csv", "--out", out) == 0
    report = (out / "bound_report.txt").read_text()
    assert "bound_kind = geometric" in report
    assert "bound_holds = True" in report


def test_analyze_mode_and_window_flags(tmp_path, capsys):
    # --mode s3 refuses a trace with fewer than two C1 onsets instead of
    # falling back, --mode s12 takes the geometric bound on a trace whose
    # auto mode takes the PGS one, and --window sets the classification
    # window (the default would read "window 39" on these 40 rows)
    s1, s3 = tmp_path / "s1", tmp_path / "s3"
    for preset, eta, run_dir in (("deblur", 0.1, s1), ("superres", 0.95, s3)):
        assert run_cli(
            "run", "--preset", preset, "--eta", eta, "--max-iter", "40", "--out", run_dir
        ) == 0
    capsys.readouterr()
    assert run_cli(
        "analyze", "--trace", s1 / "trace.csv", "--mode", "s3", "--out", tmp_path / "a"
    ) == 1
    assert "fewer than two C1 onsets" in capsys.readouterr().err
    out = tmp_path / "b"
    assert run_cli(
        "analyze", "--trace", s3 / "trace.csv", "--mode", "s12", "--window", "5", "--out", out
    ) == 0
    report = (out / "bound_report.txt").read_text().splitlines()
    assert "bound_kind = geometric" in report
    assert any(line.startswith("case = S3-like (window 5;") for line in report)


@pytest.mark.parametrize(
    "preset,eta",
    [("deblur", 0.1), ("deblur", 0.95), ("superres", 0.95), ("deblur", 0.6)],
)
def test_analyze_never_errors_on_short_valid_traces(tmp_path, preset, eta):
    run_dir = tmp_path / "run"
    assert run_cli(
        "run", "--preset", preset, "--eta", eta, "--max-iter", "10", "--out", run_dir
    ) == 0
    code = run_cli(
        "analyze", "--trace", run_dir / "trace.csv", "--out", tmp_path / "a"
    )
    assert code == 0


def test_analyze_holds_on_a_c1_tail_after_a_long_c2_run(tmp_path):
    # the geometric bound's first peak was once reached through
    # (1/sqrt(gamma))^(-t), which overflows at t = 3001
    flags = [ConditionFlag.C2] * 3000 + [ConditionFlag.C1] * 20
    deltas = np.cumprod([1.0] + [0.9 if f == ConditionFlag.C2 else 0.97 for f in flags])
    rhos = np.cumprod([1.0] + [2.0 if f == ConditionFlag.C1 else 1.0 for f in flags])
    trace = ConditionTrace(deltas, rhos, 1 / np.sqrt(rhos), flags, np.zeros(rhos.size), 2.0, 0.95)
    write_trace_csv(trace, tmp_path / "trace.csv")
    out = tmp_path / "a"
    assert run_cli("analyze", "--trace", tmp_path / "trace.csv", "--out", out) == 0
    report = (out / "bound_report.txt").read_text().splitlines()
    assert {"bound_kind = geometric", "bound_start = 3002", "bound_holds = True"} <= set(report)


def test_analyze_truncated_trace_errors(tmp_path, capsys):
    trace = tmp_path / "one.csv"
    trace.write_text(
        "iter,delta,rho,sigma,condition,fidelity_value\n1,0.5,1,0.1,NA,0\n"
    )
    code = run_cli("analyze", "--trace", trace, "--out", tmp_path / "o")
    assert code == 1
    assert "insufficient iterations" in capsys.readouterr().err


def test_analyze_reports_assumed_gamma_without_c1(tmp_path):
    trace = tmp_path / "all_c2.csv"
    trace.write_text(
        "iter,delta,rho,sigma,condition,fidelity_value\n"
        "1,1,1,0.1,NA,0\n2,0.1,1,0.1,C2,0\n3,0.01,1,0.1,C2,0\n"
    )
    assert run_cli("analyze", "--trace", trace, "--out", tmp_path / "a") == 0
    report = (tmp_path / "a" / "bound_report.txt").read_text()
    assert "gamma_assumed = 2" in report
    assert "bound_kind = geometric" in report
    assert run_cli("analyze", "--trace", trace, "--out", tmp_path / "b", "--gamma", "3") == 0
    assert "gamma_assumed" not in (tmp_path / "b" / "bound_report.txt").read_text()


def test_analyze_malformed_trace_errors(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text(
        "iter,delta,rho,sigma,condition,fidelity_value\n1,0.5,1\n"
    )
    code = run_cli("analyze", "--trace", trace, "--out", tmp_path / "o")
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, line",
    [
        # renumbered iterations were once read as 1, 2, 3
        (("0,1,1,0.1,NA,0", "37,0.1,1,0.1,C2,0", "74,0.01,1,0.1,C2,0"), 2),
        (("1,1,1,0.1,NA,0", "2,0.1,1,0.1,C2,0", "4,0.01,1,0.1,C2,0"), 4),
        (("1,1,1,0.1,NA,0", "2,0.1,1,0.1,NA,0", "3,0.01,1,0.1,C2,0"), 3),
        (("1,1,1,0.1,C2,0", "2,0.1,1,0.1,C2,0", "3,0.01,1,0.1,C2,0"), 2),
    ],
)
def test_analyze_refuses_misnumbered_or_misflagged_rows(tmp_path, capsys, rows, line):
    trace = tmp_path / "bad.csv"
    trace.write_text("iter,delta,rho,sigma,condition,fidelity_value\n" + "\n".join(rows))
    assert run_cli("analyze", "--trace", trace, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {line}: ")


def write_s1_trace(path, rows=45):
    """An S1-like trace: every residual ratio 0.97 >= eta = 0.5 raises rho by 2."""
    flags = [ConditionFlag.C1] * (rows - 1)
    deltas = 0.97 ** np.arange(rows)
    rhos = 2.0 ** np.arange(rows)
    trace = ConditionTrace(deltas, rhos, 1 / np.sqrt(rhos), flags, np.zeros(rows), 2.0, 0.5)
    write_trace_csv(trace, path)
    return path


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_analyze_refuses_a_non_finite_gamma(tmp_path, capsys, gamma):
    # nan <= 1 is false, so a NaN gamma once got as far as the first C1
    # penalty and was reported as an inconsistent penalty there
    trace = write_s1_trace(tmp_path / "trace.csv")
    out = tmp_path / "a"
    assert run_cli("analyze", "--trace", trace, "--gamma", gamma, "--out", out) == 1
    assert capsys.readouterr().err == "error: need gamma > 1 and eta in (0, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, code, err",
    [
        pytest.param(
            [(1.0, 0.0, "NA"), (0.9, 1.0, "C1"), (0.1, 1.0, "C2")],
            1, "error: penalties must be positive and finite\n",
            id="zero-penalty-before-c1",
        ),
        pytest.param(
            [(1.0, 1.0, "NA"), (0.9, "inf", "C1"), (0.1, "inf", "C2")],
            1, "error: penalties must be positive and finite\n",
            id="infinite-penalty-after-c1",
        ),
        pytest.param(
            [(1.0, 2.0, "NA"), (0.9, 2.0, "C1"), (0.1, 2.0, "C2")],
            1, "error: inferred gamma = 1 (penalty at iteration 2 over iteration 1); "
            "need gamma > 1 and eta in (0, 1)\n",
            id="held-penalty-after-c1",
        ),
        pytest.param(
            [(1.0, 1.0, "NA"), ("inf", 2.0, "C1"), ("inf", 4.0, "C1")],
            1, "error: residuals must be finite and nonnegative\n",
            id="infinite-residuals-at-c1",
        ),
        pytest.param(
            [(1e-310, 1.0, "NA"), (1e300, 2.0, "C1"), (1e299, 2.0, "C2")],
            0, "",
            id="c1-ratio-past-the-float-range",
        ),
    ],
)
def test_analyze_checks_a_trace_before_inferring_from_it(tmp_path, rows, code, err):
    # inferring gamma and eta divides penalties and residuals, so they are
    # checked first and no numpy warning reaches stderr; a gamma read off
    # the trace is refused under its own name, since no one passed it
    trace = tmp_path / "trace.csv"
    lines = [",".join(TRACE_COLUMNS)]
    lines += [f"{k},{d},{r},1,{c},0" for k, (d, r, c) in enumerate(rows, start=1)]
    trace.write_text("\n".join(lines) + "\n")
    src = str(Path(pnpadmm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "pnpadmm.cli", "analyze", "--trace", str(trace),
         "--out", str(tmp_path / "a")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert "Warning" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (code, err)


@pytest.mark.parametrize("noise", ["1e160", "1e300"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_run_at_huge_finite_noise_records_inf_without_a_warning(tmp_path, preset, noise):
    # such an observation overflows norms, f(x) and the summary's bounds;
    # the run records inf there, as solver.run documents, with no warning
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "run", "--preset", preset, "--noise-sigma", noise, "--max-iter", "5", "--out", out
        )
    assert code == 0
    assert "gradient_bound_m = inf" in (out / "summary.txt").read_text()


@pytest.mark.parametrize(
    "args, message",
    [
        (("--window", "0"), "window must be >= 1"),
        (("--epsilon", "0"), "epsilon must be finite and positive, got 0.0"),
        (("--mode", "s3"), "trace is S1/S2-like (fewer than two C1 onsets); "
                           "use the geometric bound"),
    ],
    ids=["window", "epsilon", "mode-s3"],
)
def test_analyze_creates_no_output_directory_when_it_refuses(tmp_path, capsys, args, message):
    trace = write_s1_trace(tmp_path / "trace.csv")
    out = tmp_path / "a" / "b"
    assert run_cli("analyze", "--trace", trace, *args, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [trace]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--preset", "smoke", "--sweep", ""), "--sweep '': entry '' is not a valid float"),
        (("run", "--preset", "smoke", "--sweep", "0.6,,0.9"),
         "--sweep '0.6,,0.9': entry '' is not a valid float"),
        (("run", "--preset", "smoke", "--sweep", "0.6,x"),
         "--sweep '0.6,x': entry 'x' is not a valid float"),
        (("pgs-demo", "--beta", "0.5", "--chunk-lengths", ""),
         "--chunk-lengths '': entry '' is not a valid int"),
        (("pgs-demo", "--beta", "0.5", "--chunk-lengths", "2,,3"),
         "--chunk-lengths '2,,3': entry '' is not a valid int"),
        (("pgs-demo", "--beta", "0.5", "--chunk-lengths", "2,1.5"),
         "--chunk-lengths '2,1.5': entry '1.5' is not a valid int"),
    ],
    ids=["sweep-empty", "sweep-blank-entry", "sweep-word", "chunks-empty",
         "chunks-blank-entry", "chunks-float"],
)
def test_list_flags_name_the_flag_and_the_bad_entry(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for name in ("a.csv", "b.csv"):
        assert run_cli("pgs-demo", "--beta", "0.5", "--out", tmp_path / name) == 0
    # one top-level parser, and one per subcommand under it
    assert built.count("pnpadmm") == 1
    assert len(built) == 4


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import pnpadmm.cli\n"
        "print(len(built))\n"
    )
    src = str(Path(pnpadmm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        check=True, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "0\n"


def test_pgs_demo_values(tmp_path, capsys):
    out = tmp_path / "pgs.csv"
    code = run_cli(
        "pgs-demo", "--beta", "0.5", "--chunk-lengths", "2,3", "--length", "8",
        "--epsilon", "1e-3", "--out", out,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,y,partial_sum,chunk_bound"
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    spec = PgsSpec(beta=0.5, peak0=1.0, chunk_starts=(1, 3, 6))
    assert np.allclose(ys, pgs_generate(spec, 8))
    partial = [float(line.split(",")[2]) for line in lines[1:]]
    assert np.allclose(partial, np.cumsum(ys))
    assert "epsilon" in capsys.readouterr().out


@pytest.mark.parametrize("detail", ["Unable to allocate 72.8 TiB", ""])
def test_memory_error_ends_with_a_message(tmp_path, monkeypatch, capsys, detail):
    def exhausted(spec, length):
        raise MemoryError(detail)

    monkeypatch.setattr(cli, "pgs_generate", exhausted)
    code = run_cli("pgs-demo", "--beta", "0.5", "--out", tmp_path / "x.csv")
    assert code == 1
    assert capsys.readouterr().err == f"error: {detail or 'MemoryError'}\n"


def test_run_memory_does_not_grow_with_max_iter(tmp_path):
    # the run keeps only its current iterate: 70 more iterations of the 64x64
    # deblur preset may not cost even 10 more vectors of d floats
    d = 64 * 64
    assert run_cli("run", "--preset", "deblur", "--max-iter", 3, "--out", tmp_path / "w") == 0
    peaks = {}
    for max_iter in (10, 80):
        tracemalloc.start()
        try:
            out = tmp_path / str(max_iter)
            assert run_cli("run", "--preset", "deblur", "--max-iter", max_iter, "--out", out) == 0
            peaks[max_iter] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[80] - peaks[10] < 10 * d * 8


def test_concurrent_runs_write_the_trace_of_a_solo_run(tmp_path):
    # runs share no mutable state: two runs at once, on exactly two threads
    # and no pool, each write the trace a run alone writes
    config = tmp_path / "deblur.conf"
    config.write_text("preset = deblur\nimage_size = 32\n")
    assert run_cli("run", "--config", config, "--out", tmp_path / "solo") == 0
    start = threading.Barrier(2, timeout=60)
    codes = {}

    def member(name):
        start.wait()
        codes[name] = run_cli("run", "--config", config, "--out", tmp_path / name)

    threads = [threading.Thread(target=member, args=(name,)) for name in ("a", "b")]
    # switching threads often interleaves the two runs' steps finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == {"a": 0, "b": 0}
    solo = (tmp_path / "solo" / "trace.csv").read_bytes()
    for name in ("a", "b"):
        assert (tmp_path / name / "trace.csv").read_bytes() == solo


def test_pgs_demo_rejects_bad_beta(tmp_path, capsys):
    code = run_cli("pgs-demo", "--beta", "1.5", "--out", tmp_path / "x.csv")
    assert code == 1
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--peak", "nan", "peak0 must be finite and positive, got nan"),
        ("--peak", "inf", "peak0 must be finite and positive, got inf"),
        ("--epsilon", "nan", "epsilon must be finite and positive, got nan"),
    ],
)
def test_pgs_demo_refuses_non_finite_input_before_writing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.csv"
    assert run_cli("pgs-demo", "--beta", "0.5", flag, value, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_pgs_demo_rejects_length_above_limit(tmp_path, capsys):
    out = tmp_path / "sub" / "x.csv"
    code = run_cli("pgs-demo", "--beta", "0.5", "--length", "1000000000000", "--out", out)
    assert code == 1
    assert "--length 1000000000000 exceeds the limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_every_public_name_resolves():
    # a name left in __all__ after its object is gone breaks star imports
    assert [name for name in pnpadmm.__all__ if not hasattr(pnpadmm, name)] == []
