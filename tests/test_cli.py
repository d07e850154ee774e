import tracemalloc

import numpy as np
import pytest

from pnpadmm import cli
from pnpadmm.fidelity import estimate_gradient_bound
from pnpadmm.fileio import load_image, parse_config, read_trace_csv, save_image
from pnpadmm.presets import make_preset, run_preset, synthetic_image
from pnpadmm.sequences import PgsSpec, pgs_generate


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_run_smoke_writes_outputs(tmp_path, capsys):
    out = tmp_path / "smoke"
    assert run_cli("run", "--preset", "smoke", "--out", out) == 0
    records = read_trace_csv(out / "trace.csv")
    assert len(records) >= 1
    assert (out / "restored.pgm").exists()
    summary = (out / "summary.txt").read_text()
    assert "stop_reason = tolerance" in summary
    assert "fixed_point_residual" in summary
    assert "gradient_bound_m_hat" in summary
    assert "denoiser_bound_k_hat" in summary
    cfg = parse_config(out / "run_config.txt")
    assert cfg["preset"] == "smoke"


def test_run_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ("run", "--preset", "deblur", "--max-iter", "15", "--eta", "0.9")
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


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


def test_run_missing_image_errors(tmp_path, capsys):
    code = run_cli(
        "run", "--preset", "deblur", "--image", tmp_path / "nope.pgm", "--out", tmp_path / "o"
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("preset", ["deblur", "superres"])
def test_streamed_gradient_bound_matches_explicit_gradient(preset):
    # summary.txt shows only the max over the trajectory and the box samples,
    # which can hide a wrong per-iterate formula
    pairs = []

    def observe(f, theta, step):
        pairs.append(
            (cli._gradient_m_hat(f, theta, step), estimate_gradient_bound(f, [theta.x]).m_hat)
        )

    result = run_preset(make_preset(preset, image_size=32), observe=observe)
    assert len(pairs) == len(result.trace) + 1
    for streamed, explicit in pairs:
        assert streamed == pytest.approx(explicit, rel=1e-8)


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


def test_pgs_demo_rejects_bad_beta(tmp_path, capsys):
    code = run_cli("pgs-demo", "--beta", "1.5", "--out", tmp_path / "x.csv")
    assert code == 1
    assert "beta" in capsys.readouterr().err


def test_pgs_demo_rejects_length_above_limit(tmp_path, capsys):
    out = tmp_path / "sub" / "x.csv"
    code = run_cli("pgs-demo", "--beta", "0.5", "--length", "1000000000000", "--out", out)
    assert code == 1
    assert "--length 1000000000000 exceeds the limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
